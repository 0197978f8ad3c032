"""Batch record formats for the command-line tools.

Two interchangeable wire formats carry the same field names:

* CSV with header ``id,u1,u2,u3,psi1,psi2`` (psi columns may be empty),
* JSON lines, one object per line.

Solution rows append ``u1p,u2p,u3p,max_residual,status,diagnostics`` and
echo the measurement fields, so a solve output feeds straight into
verify. Unknown input columns ride along as free-form metadata, each
value as it was read. Records carry values, not text: a float is written
as ``repr`` writes it, so every value read back is the value written.
In CSV a JSON object, array or boolean in the metadata is written as its
JSON text, since the CSV has no other way to carry it.

A JSON line that is one object from its first character to its line feed
is read by the scanner that ``json.loads`` wraps; any other line goes
through ``json.loads``, so both read the same object and name the same
error. A record's fields are popped from the object, and what is left is
its metadata. A CSV header is resolved to column positions once per
stream, and each row is read by position into immutable named tuples, its
numbers all converted at once and tested finite by their sum; a row that
fails is converted again, field by field, by ``_number``, which names the
field. So a record holds a text id, finite numbers and metadata that names
no record field, and these are the records :class:`RowWriter` takes. Each
output stream writes a row through one line template in the bytes of
``json.dumps`` or the csv module; the writer quotes its own CSV fields,
and the csv module only reads (see :meth:`RowWriter.write_solution`).
"""

from __future__ import annotations

import csv
import json
from itertools import repeat
from json.encoder import encode_basestring_ascii as _json_text
from json.scanner import make_scanner
from math import inf, isfinite
from operator import itemgetter
from types import MappingProxyType
from typing import Iterable, Iterator, Mapping, NamedTuple, TextIO

MEASUREMENT_FIELDS = ("id", "u1", "u2", "u3", "psi1", "psi2")
SOLUTION_FIELDS = ("u1p", "u2p", "u3p", "max_residual", "status", "diagnostics")
# The columns of an output row before its metadata; every other field of an
# input row is metadata.
_ROW_FIELDS = MEASUREMENT_FIELDS + SOLUTION_FIELDS
_KNOWN_FIELDS = frozenset(_ROW_FIELDS)
# The JSON values a field takes. Any other in a known field is a parse
# error: true would read as 1.0, an object or array be written as its repr.
_JSON_SCALARS = frozenset((str, int, float, type(None)))
# No metadata: one shared empty mapping, which nothing can change.
_NO_META: Mapping[str, object] = MappingProxyType({})
_ABSENT = (None, "")  # how an absent field mostly reads: null, or an empty CSV field
_new = tuple.__new__  # a record from a tuple of its fields, skipping the generated __new__
# What ``json.loads`` runs on a line, without its wrappers: (value, end index).
_scan_json = make_scanner(json.JSONDecoder())

STATUS_OK = "ok"
STATUS_INFEASIBLE = "infeasible"
STATUS_INCONSISTENT = "inconsistent"
STATUS_ANGLE_GE_120 = "angle_ge_120"
# A star point exists, but the closed form does not reach it within the
# tolerance.
STATUS_UNRESOLVED = "unresolved"
# An unexpected exception inside the solver; the diagnostics name it.
STATUS_INTERNAL_ERROR = "internal_error"


class ParseError(Exception):
    """Malformed input; carries the offending line number."""

    def __init__(self, line_no: int, message: str):
        self.line_no = line_no
        super().__init__(f"line {line_no}: {message}")


class MeasurementRecord(NamedTuple):
    """One circuit measurement: voltages, optional phase differences, metadata."""

    id: str
    u1: float
    u2: float
    u3: float
    psi1: float | None = None
    psi2: float | None = None
    meta: Mapping[str, object] = _NO_META


class SolutionRecord(NamedTuple):
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
    return "csv" if lower.endswith(".csv") else None


def _not_text(text: str) -> str | None:
    """Why ``text`` is not text a record may hold, or None: a NUL, which the
    csv module reads and writes differently by Python version, or what is
    not UTF-8. ``surrogateescape`` decodes a byte that is not UTF-8 to
    U+DC80..U+DCFF; any other lone surrogate came escaped."""
    if "\0" in text:
        return "contains a NUL character"
    try:
        text.encode("utf-8")
    except UnicodeEncodeError as exc:
        code = ord(text[exc.start])
        if 0xDC80 <= code <= 0xDCFF:
            return f"byte 0x{code - 0xDC00:02x} is not UTF-8"
        return f"lone surrogate U+{code:04X} is not text"
    return None


def _text_lines(lines: Iterable[str]) -> Iterator[str]:
    """The lines; one that holds a NUL or is not UTF-8 text is a parse error."""
    for line_no, line in enumerate(lines, start=1):
        if ("\0" in line or not line.isascii()) and (reason := _not_text(line)):
            raise ParseError(line_no, reason)
        yield line


def _rows(lines: Iterable[str], fmt: str, fields: tuple[str, ...]
          ) -> Iterator[tuple[int, tuple, dict]]:
    """(line_no, values of ``fields``, metadata) per record, streaming; a
    field the record lacks is None, and non-UTF-8 text is an error."""
    if fmt == "csv":
        return _csv_rows(_text_lines(lines), fields)
    if fmt == "jsonl":
        return _json_rows(_text_lines(lines), fields)
    raise ValueError(f"unknown format {fmt!r}")


def _csv_rows(lines: Iterator[str], fields: tuple[str, ...]
              ) -> Iterator[tuple[int, tuple, dict]]:
    """The CSV records. The header is checked and resolved to positions
    once; a row short of its columns has them as ``""``. A line that holds
    only whitespace, read as one field of it, is blank, as in JSON lines."""
    reader = csv.reader(lines)
    try:
        # Blank lines hold no header.
        header = next((row for row in reader
                       if len(row) > 1 or row and not row[0].isspace()), None)
        if header is None:
            return
        seen: set[str] = set()
        for name in header:
            if name in seen:
                raise ParseError(reader.line_num, f"header repeats column {name!r}")
            seen.add(name)
        width = len(header)
        position = {name: i for i, name in enumerate(header)}
        # Every row is padded to the header's width with "" and then ends in
        # a None, which is what a field the header lacks reads.
        pad = [""] * width + [None]
        take = itemgetter(*(position.get(name, width) for name in fields))
        meta = [(name, i) for i, name in enumerate(header) if name not in _KNOWN_FIELDS]
        for row in reader:
            if len(row) < 2 and (not row or row[0].isspace()):  # a blank line
                continue
            if len(row) > width:
                raise ParseError(reader.line_num,
                                 f"more fields than header columns: {row[width:]!r}")
            row += pad[len(row):]
            yield reader.line_num, take(row), {name: row[i] for name, i in meta}
    except csv.Error as exc:
        raise ParseError(reader.line_num, f"malformed CSV: {exc}") from exc


def _json_rows(lines: Iterator[str], fields: tuple[str, ...]
               ) -> Iterator[tuple[int, tuple, dict]]:
    """The JSON-lines records: one object per line, blank lines skipped.
    A line that is not one object up to its line feed, or that the scanner
    rejects, goes through ``json.loads``, which names the error."""
    nones = repeat(None)
    for line_no, line in enumerate(lines, start=1):
        end = None  # where the scanner stopped, if it ran and returned
        if line[:1] == "{" and line[-1:] == "\n":
            try:
                obj, end = _scan_json(line, 0)
            except (StopIteration, ValueError, RecursionError):
                pass  # StopIteration: a value is missing; json.loads names it
        if end != len(line) - 1:
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
        if "\\u" in line:  # only an escape can make a lone surrogate or a NUL
            for text in (*obj, *obj.values()):
                if isinstance(text, str) and (reason := _not_text(text)):
                    raise ParseError(line_no, f"string {text!r}: {reason}")
        if not _JSON_SCALARS.issuperset(map(type, obj.values())):
            for key in _ROW_FIELDS:
                if isinstance(obj.get(key), (bool, dict, list)):
                    raise ParseError(line_no, f"field {key!r} is not a number "
                                              f"or a string: {obj[key]!r}")
        values = tuple(map(obj.pop, fields, nones))
        if not _KNOWN_FIELDS.isdisjoint(obj):  # a record field not asked for
            obj = {k: v for k, v in obj.items() if k not in _KNOWN_FIELDS}
        yield line_no, values, obj


def _number(value: object, key: str, line_no: int,
            required: bool = True) -> float | None:
    """``value`` as a finite float, or a ParseError naming ``key``. An absent
    value (None or blank text) is an error if ``required``, else None."""
    if value is not None and (not isinstance(value, str) or value.strip()):
        try:
            number = float(value)
        except OverflowError:  # a JSON integer beyond the float range
            number = inf
        except (TypeError, ValueError) as exc:
            raise ParseError(line_no, f"field {key!r} is not a number: {value!r}") from exc
        if not isfinite(number):
            raise ParseError(line_no, f"field {key!r} is not finite: {value!r}")
        return number
    if required:
        raise ParseError(line_no, f"missing required field {key!r}")
    return None


def _measurement(line_no: int, rec_id: object, u1: object, u2: object, u3: object,
                 psi1: object, psi2: object, meta: dict) -> MeasurementRecord:
    rec_id = f"record-{line_no}" if rec_id is None or rec_id == "" else str(rec_id)
    try:  # every number at once; if that fails, field by field below
        u1f, u2f, u3f, psi1f, psi2f = float(u1), float(u2), float(u3), None, None
        if psi1 not in _ABSENT or psi2 not in _ABSENT:
            psi1f, psi2f = float(psi1), float(psi2)
        if isfinite(u1f + u2f + u3f + (psi1f or 0.0) + (psi2f or 0.0)):
            return _new(MeasurementRecord, (rec_id, u1f, u2f, u3f, psi1f, psi2f, meta))
    except (TypeError, ValueError, OverflowError):
        pass
    u1, u2, u3 = (_number(u1, "u1", line_no), _number(u2, "u2", line_no),
                  _number(u3, "u3", line_no))
    psi1 = _number(psi1, "psi1", line_no, required=False)
    psi2 = _number(psi2, "psi2", line_no, required=False)
    if (psi1 is None) != (psi2 is None):
        raise ParseError(line_no, "psi1 and psi2 must both be present or both absent")
    return _new(MeasurementRecord, (rec_id, u1, u2, u3, psi1, psi2, meta))


def _solution(line_no: int, rec_id: str, u1p: object, u2p: object, u3p: object,
              residual: object, status: object, diagnostics: object) -> SolutionRecord | None:
    """Solution fields of a row, or None if the row carries none."""
    status, diagnostics = str(status or "").strip(), str(diagnostics or "")
    if u1p not in _ABSENT:  # not a failure row, whose conversion would only raise
        try:  # every number at once; if that fails, field by field below
            u1f, u2f, u3f = float(u1p), float(u2p), float(u3p)
            residual_f = None if residual in _ABSENT else float(residual)
            if isfinite(u1f + u2f + u3f + (residual_f or 0.0)):
                return _new(SolutionRecord, (rec_id, u1f, u2f, u3f, residual_f,
                                             status or STATUS_OK, diagnostics))
        except (TypeError, ValueError, OverflowError):
            pass
    voltages = [_number(value, key, line_no, required=False)
                for value, key in zip((u1p, u2p, u3p), SOLUTION_FIELDS)]
    residual = _number(residual, "max_residual", line_no, required=False)
    if voltages == [None, None, None] and not status:
        return None
    if None in voltages and status in ("", STATUS_OK):
        raise ParseError(line_no, "incomplete solution: u1p, u2p, u3p required")
    return _new(SolutionRecord, (rec_id, *voltages, residual, status or STATUS_OK, diagnostics))


def read_measurements(lines: Iterable[str], fmt: str) -> Iterator[MeasurementRecord]:
    for line_no, values, meta in _rows(lines, fmt, MEASUREMENT_FIELDS):
        yield _measurement(line_no, *values, meta)


def read_pairs(lines: Iterable[str], fmt: str) -> Iterator[
        tuple[MeasurementRecord, SolutionRecord | None]]:
    for line_no, (rec_id, u1, u2, u3, psi1, psi2, u1p, u2p, u3p, residual, status,
                  diagnostics), meta in _rows(lines, fmt, _ROW_FIELDS):
        measurement = _measurement(line_no, rec_id, u1, u2, u3, psi1, psi2, meta)
        yield measurement, _solution(line_no, measurement.id, u1p, u2p, u3p, residual,
                                     status, diagnostics)


# =========================================================================
# Writing
# =========================================================================

# JSON values that CSV has no text for; a CSV row carries them as JSON text.
_JSON_ONLY = frozenset((dict, list, bool))


def _csv_field(value: object) -> str:
    """``value`` as a CSV field, quoted as the csv module quotes by default
    (RFC 4180): text that holds a comma, a quote, CR or LF is wrapped in
    quotes, its quotes doubled. None is empty, an object, array or boolean
    its JSON text and any other value its ``str``."""
    if type(value) is not str:
        if value is None:
            return ""
        value = json.dumps(value) if type(value) in _JSON_ONLY else str(value)
    if "," in value or '"' in value or "\r" in value or "\n" in value:
        return '"' + value.replace('"', '""') + '"'
    return value


def _json_line(m: MeasurementRecord, s: SolutionRecord) -> str:
    """The row as one JSON object and a line feed, in the bytes of
    ``json.dumps``: the measurement's fields, echoed for pipeline chaining,
    the solution's, then the metadata. A float is its ``repr``, as json
    writes a finite one; text is escaped by the function ``json.dumps``
    escapes it with, and any other metadata value is ``json.dumps``'s."""
    rec_id, u1, u2, u3, psi1, psi2, meta = m
    _, u1p, u2p, u3p, residual, status, diagnostics = s
    tail = "".join([f", {_json_text(k)}: "
                    f"{_json_text(v) if type(v) is str else json.dumps(v)}"
                    for k, v in meta.items()])
    return (f'{{"id": {_json_text(rec_id)}, '
            f'"u1": {u1!r}, "u2": {u2!r}, "u3": {u3!r}, '
            f'"psi1": {"null" if psi1 is None else repr(psi1)}, '
            f'"psi2": {"null" if psi2 is None else repr(psi2)}, '
            f'"u1p": {"null" if u1p is None else repr(u1p)}, '
            f'"u2p": {"null" if u2p is None else repr(u2p)}, '
            f'"u3p": {"null" if u3p is None else repr(u3p)}, '
            f'"max_residual": {"null" if residual is None else repr(residual)}, '
            f'"status": {_json_text(status)}, '
            f'"diagnostics": {_json_text(diagnostics)}{tail}}}\n')


class RowWriter:
    """Streaming writer of solved rows, through one entry,
    :meth:`write_solution`. It takes the records the readers and
    ``cli.solve_record`` make: a text id, finite numbers, or None on a
    failure row, and metadata whose keys name no record field. None is an
    empty CSV field or JSON null, and a float keeps every digit. The first
    row's metadata keys fix the CSV header: a later row's other keys are
    dropped and its missing ones written empty. The writer quotes its own
    CSV fields (:func:`_csv_field`); the csv module only reads."""

    def __init__(self, stream: TextIO, fmt: str):
        if fmt not in ("csv", "jsonl"):
            raise ValueError(f"unknown format {fmt!r}")
        self._stream, self._fmt = stream, fmt
        # The CSV header's metadata columns, after _ROW_FIELDS; None until
        # the header is written.
        self._meta_fields: tuple[str, ...] | None = None

    def write_solution(self, m: MeasurementRecord, s: SolutionRecord) -> None:
        """Write the row of ``m`` and ``s`` in the bytes of ``json.dumps``
        or the csv module: the measurement's fields, the solution's, then
        the metadata.

        Each stream writes the row through its line template, which takes a
        float as its ``repr``, None as null or an empty field, and text
        JSON-escaped or as :func:`_csv_field` quotes it. A CSV header or
        row is one join of its field texts; no float's ``repr`` and no
        status needs quoting, so only the id, the diagnostics and the
        metadata go through :func:`_csv_field`.
        """
        if self._fmt == "jsonl":
            self._stream.write(_json_line(m, s))
            return
        if self._meta_fields is None:
            self._meta_fields = tuple(m.meta)
            header = [*_ROW_FIELDS, *map(_csv_field, self._meta_fields)]
            self._stream.write(",".join(header) + "\n")
        rec_id, u1, u2, u3, psi1, psi2, meta = m
        _, u1p, u2p, u3p, residual, status, diagnostics = s
        self._stream.write(",".join([
            _csv_field(rec_id), repr(u1), repr(u2), repr(u3),
            "" if psi1 is None else repr(psi1),
            "" if psi2 is None else repr(psi2),
            "" if u1p is None else repr(u1p),
            "" if u2p is None else repr(u2p),
            "" if u3p is None else repr(u3p),
            "" if residual is None else repr(residual), status, _csv_field(diagnostics),
            *[_csv_field(meta.get(name)) for name in self._meta_fields]]) + "\n")
