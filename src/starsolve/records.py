"""Batch record formats for the command-line tools.

Two interchangeable wire formats carry the same field names:

* CSV with header ``id,u1,u2,u3,psi1,psi2`` (psi columns may be empty),
* JSON lines, one object per line.

Solution rows append ``u1p,u2p,u3p,max_residual,status,diagnostics`` and
echo the measurement fields, so a solve output feeds straight into
verify. Unknown input columns ride along as free-form metadata. Numbers
are serialized with 12 significant digits, comfortably above every
solver tolerance.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field
from typing import Iterable, Iterator, TextIO

MEASUREMENT_FIELDS = ("id", "u1", "u2", "u3", "psi1", "psi2")
SOLUTION_FIELDS = ("u1p", "u2p", "u3p", "max_residual", "status", "diagnostics")
# Every other field of an input row is metadata.
_KNOWN_FIELDS = frozenset(MEASUREMENT_FIELDS + SOLUTION_FIELDS)
# The JSON values a field takes. Any other in a known field is a parse
# error: true would read as 1.0, an object or array be written as its repr.
_JSON_SCALARS = frozenset((str, int, float, type(None)))

STATUS_OK = "ok"
STATUS_INFEASIBLE = "infeasible"
STATUS_INCONSISTENT = "inconsistent"
STATUS_ANGLE_GE_120 = "angle_ge_120"
# An unexpected exception inside the solver; the diagnostics name it.
STATUS_INTERNAL_ERROR = "internal_error"


class ParseError(Exception):
    """Malformed input; carries the offending line number."""

    def __init__(self, line_no: int, message: str):
        self.line_no = line_no
        super().__init__(f"line {line_no}: {message}")


@dataclass(frozen=True)
class MeasurementRecord:
    """One circuit measurement: voltages, optional phase differences, metadata."""

    id: str
    u1: float
    u2: float
    u3: float
    psi1: float | None = None
    psi2: float | None = None
    meta: dict[str, str] = field(default_factory=dict)

    @property
    def has_angles(self) -> bool:
        return self.psi1 is not None


@dataclass(frozen=True)
class SolutionRecord:
    """Solver output for one measurement; voltages are None when it failed."""

    id: str
    u1p: float | None
    u2p: float | None
    u3p: float | None
    max_residual: float | None
    status: str
    diagnostics: str = ""

    @property
    def solved(self) -> bool:
        return self.status == STATUS_OK


# =========================================================================
# Reading
# =========================================================================

def detect_format(first_line: str) -> str:
    """Guess csv vs jsonl from the first line of the stream."""
    return "jsonl" if first_line.lstrip().startswith("{") else "csv"


def format_for_path(path: str) -> str | None:
    lower = path.lower()
    if lower.endswith((".jsonl", ".ndjson", ".json")):
        return "jsonl"
    if lower.endswith(".csv"):
        return "csv"
    return None


def _not_text(text: str) -> str | None:
    """Why ``text`` is not UTF-8, or None. ``surrogateescape`` decodes a byte
    that is not UTF-8 to U+DC80..U+DCFF; any other lone surrogate came escaped."""
    try:
        text.encode("utf-8")
    except UnicodeEncodeError as exc:
        code = ord(text[exc.start])
        if 0xDC80 <= code <= 0xDCFF:
            return f"byte 0x{code - 0xDC00:02x} is not UTF-8"
        return f"lone surrogate U+{code:04X} is not text"
    return None


def _text_lines(lines: Iterable[str]) -> Iterator[str]:
    """The lines; one that is not UTF-8 text is a parse error."""
    for line_no, line in enumerate(lines, start=1):
        if not line.isascii() and (reason := _not_text(line)):
            raise ParseError(line_no, reason)
        yield line


def iter_raw_rows(lines: Iterable[str], fmt: str) -> Iterator[tuple[int, dict]]:
    """Yield (line_no, mapping) per record, streaming; non-UTF-8 text is an error."""
    lines = _text_lines(lines)
    if fmt == "csv":
        reader = csv.DictReader(lines)
        try:
            seen: set[str] = set()
            for name in reader.fieldnames or ():
                if name in seen:
                    raise ParseError(reader.line_num, f"header repeats column {name!r}")
                seen.add(name)
            for row in reader:
                if row.get(None):
                    raise ParseError(reader.line_num,
                                     f"more fields than header columns: {row[None]!r}")
                yield reader.line_num, {k: v for k, v in row.items() if k is not None}
        except csv.Error as exc:
            # The DictReader has not counted the line the csv reader failed on.
            raise ParseError(reader.reader.line_num, f"malformed CSV: {exc}") from exc
    elif fmt == "jsonl":
        for line_no, line in enumerate(lines, start=1):
            if not line.strip():
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ParseError(line_no, f"invalid JSON: {exc.msg}") from exc
            except (ValueError, RecursionError) as exc:  # too many digits or too deep
                raise ParseError(line_no, f"invalid JSON: {exc}") from exc
            if not isinstance(obj, dict):
                raise ParseError(line_no, "each JSON line must be an object")
            if "\\u" in line:  # only an escape can make a lone surrogate
                for text in (*obj, *obj.values()):
                    if isinstance(text, str) and (reason := _not_text(text)):
                        raise ParseError(line_no, f"string {text!r}: {reason}")
            if not _JSON_SCALARS.issuperset(map(type, obj.values())):
                for key in MEASUREMENT_FIELDS + SOLUTION_FIELDS:
                    if isinstance(obj.get(key), (bool, dict, list)):
                        raise ParseError(line_no, f"field {key!r} is not a number "
                                                  f"or a string: {obj[key]!r}")
            yield line_no, obj
    else:
        raise ValueError(f"unknown format {fmt!r}")


def _required_float(row: dict, key: str, line_no: int) -> float:
    value = row.get(key)
    if value is None or (isinstance(value, str) and not value.strip()):
        raise ParseError(line_no, f"missing required field {key!r}")
    try:
        result = float(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ParseError(line_no, f"field {key!r} is not a number: {value!r}") from exc
    if not math.isfinite(result):
        raise ParseError(line_no, f"field {key!r} is not finite: {value!r}")
    return result


def _optional_float(row: dict, key: str, line_no: int) -> float | None:
    value = row.get(key)
    if value is None or (isinstance(value, str) and not value.strip()):
        return None
    return _required_float(row, key, line_no)


def parse_measurement(row: dict, line_no: int) -> MeasurementRecord:
    rec_id = str(row.get("id") or f"record-{line_no}")
    u1 = _required_float(row, "u1", line_no)
    u2 = _required_float(row, "u2", line_no)
    u3 = _required_float(row, "u3", line_no)
    psi1 = _optional_float(row, "psi1", line_no)
    psi2 = _optional_float(row, "psi2", line_no)
    if (psi1 is None) != (psi2 is None):
        raise ParseError(line_no, "psi1 and psi2 must both be present or both absent")
    meta = {k: str(v) for k, v in row.items() if k not in _KNOWN_FIELDS}
    return MeasurementRecord(rec_id, u1, u2, u3, psi1, psi2, meta)


def parse_solution(row: dict, line_no: int, rec_id: str) -> SolutionRecord | None:
    """Solution fields of a combined row, or None if the row carries none."""
    values = [_optional_float(row, key, line_no) for key in ("u1p", "u2p", "u3p")]
    status = str(row.get("status") or "").strip()
    if all(v is None for v in values) and not status:
        return None
    if any(v is None for v in values) and status in ("", STATUS_OK):
        raise ParseError(line_no, "incomplete solution: u1p, u2p, u3p required")
    return SolutionRecord(
        id=rec_id,
        u1p=values[0], u2p=values[1], u3p=values[2],
        max_residual=_optional_float(row, "max_residual", line_no),
        status=status or STATUS_OK,
        diagnostics=str(row.get("diagnostics") or ""),
    )


def read_measurements(lines: Iterable[str], fmt: str) -> Iterator[MeasurementRecord]:
    for line_no, row in iter_raw_rows(lines, fmt):
        yield parse_measurement(row, line_no)


def read_pairs(lines: Iterable[str], fmt: str) -> Iterator[
        tuple[MeasurementRecord, SolutionRecord | None]]:
    for line_no, row in iter_raw_rows(lines, fmt):
        measurement = parse_measurement(row, line_no)
        yield measurement, parse_solution(row, line_no, measurement.id)


# =========================================================================
# Writing
# =========================================================================

def _round12(x: float) -> float:
    return float(f"{x:.12g}")


def combined_row(m: MeasurementRecord, s: SolutionRecord) -> dict:
    """Measurement fields, echoed for pipeline chaining, plus the solution."""
    row: dict[str, object] = {
        "id": m.id,
        "u1": m.u1, "u2": m.u2, "u3": m.u3,
        "psi1": m.psi1, "psi2": m.psi2,
        "u1p": s.u1p, "u2p": s.u2p, "u3p": s.u3p,
        "max_residual": s.max_residual,
        "status": s.status,
        "diagnostics": s.diagnostics,
    }
    row.update(m.meta)
    return row


class _LineFeedEnded:
    """Passes the csv writer's CRLF-ended lines on ended by LF alone. The
    writer quotes a field holding a bare CR only when CR is part of its line
    terminator; left unquoted, that CR would end the row for every reader."""

    def __init__(self, stream: TextIO):
        self._stream = stream

    def write(self, line: str) -> None:
        self._stream.write(line[:-2] + "\n")


class RowWriter:
    """Streaming writer; CSV header is fixed by the first row's keys."""

    def __init__(self, stream: TextIO, fmt: str):
        if fmt not in ("csv", "jsonl"):
            raise ValueError(f"unknown format {fmt!r}")
        self._stream = stream
        self._fmt = fmt
        self._csv_writer: csv.DictWriter | None = None

    def write(self, row: dict) -> None:
        if self._fmt == "csv":
            if self._csv_writer is None:
                self._csv_writer = csv.DictWriter(
                    _LineFeedEnded(self._stream), fieldnames=list(row.keys()),
                    extrasaction="ignore", restval="", lineterminator="\r\n")
                self._csv_writer.writeheader()
            self._csv_writer.writerow({k: self._csv_value(v) for k, v in row.items()})
        else:
            payload = {k: self._json_value(v) for k, v in row.items()}
            self._stream.write(json.dumps(payload) + "\n")

    @staticmethod
    def _csv_value(value: object) -> str:
        if value is None:
            return ""
        if isinstance(value, float):
            return f"{value:.12g}"
        return str(value)

    @staticmethod
    def _json_value(value: object) -> object:
        if isinstance(value, float):
            return _round12(value)
        return value
