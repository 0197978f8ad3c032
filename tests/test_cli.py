"""Tests for record parsing and the command-line pipeline."""

from __future__ import annotations

import csv
import io
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import E1_DISTANCES, E1_EDGES, LineFeedEnded
from starsolve import cli
from starsolve.cli import main, solve_record, verify_record
from starsolve.errors import AngleAtLeast120, InfeasibleConfiguration
from starsolve.kernel import ANGLES_120, circle_distances, line_voltage_kernel
from starsolve.records import (
    MEASUREMENT_FIELDS,
    SOLUTION_FIELDS,
    STATUS_ANGLE_GE_120,
    STATUS_INCONSISTENT,
    STATUS_INFEASIBLE,
    STATUS_INTERNAL_ERROR,
    STATUS_OK,
    STATUS_UNRESOLVED,
    MeasurementRecord,
    ParseError,
    SolutionRecord,
    detect_format,
    format_for_path,
    read_measurements,
    read_pairs,
)


def run_cli(argv, monkeypatch, capsys, stdin_text=None):
    if stdin_text is not None:
        monkeypatch.setattr("sys.stdin", io.StringIO(stdin_text))
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# -- parsing ------------------------------------------------------------------

def test_parse_csv_with_meta_columns():
    lines = ["id,u1,u2,u3,psi1,psi2,site\n", "m1,400,400,400,,,plant-7\n"]
    records = list(read_measurements(lines, "csv"))
    assert len(records) == 1
    rec = records[0]
    assert rec.id == "m1"
    assert (rec.u1, rec.u2, rec.u3) == (400.0, 400.0, 400.0)
    assert rec.psi1 is None and rec.psi2 is None
    assert rec.meta == {"site": "plant-7"}


def test_parse_jsonl():
    lines = ['{"id": "j1", "u1": 380, "u2": 410, "u3": 395, "psi1": 115, "psi2": 123}\n']
    rec = next(iter(read_measurements(lines, "jsonl")))
    assert rec.psi1 == 115.0 and rec.psi2 == 123.0


def test_parse_errors_carry_line_numbers():
    lines = ["id,u1,u2,u3,psi1,psi2\n", "m1,400,400,400,,\n", "m2,400,oops,400,,\n"]
    with pytest.raises(ParseError) as info:
        list(read_measurements(lines, "csv"))
    assert info.value.line_no == 3
    assert "u2" in str(info.value)


def test_parse_rejects_half_psi():
    lines = ['{"id": "x", "u1": 1, "u2": 1, "u3": 1, "psi1": 115}\n']
    with pytest.raises(ParseError) as info:
        list(read_measurements(lines, "jsonl"))
    assert info.value.line_no == 1


def test_parse_missing_voltage():
    lines = ["\n"] * 4 + ['{"id": "x", "u1": 1, "u2": 1}\n']
    with pytest.raises(ParseError) as info:
        list(read_measurements(lines, "jsonl"))
    assert info.value.line_no == 5


def test_detect_format():
    assert detect_format('{"id": "a"}') == "jsonl"
    assert detect_format("id,u1,u2\n") == "csv"


@pytest.mark.parametrize("path, fmt", [
    ("rows.jsonl", "jsonl"), ("rows.NDJSON", "jsonl"), ("rows.json", "jsonl"),
    ("rows.csv", "csv"), ("-", None), ("rows.txt", None)])
def test_format_for_path(path, fmt):
    assert format_for_path(path) == fmt


def test_json_lines_extension_decides_the_format(tmp_path, monkeypatch, capsys):
    # A .jsonl path is read as JSON lines whatever its first line holds; the
    # same bytes under a name that decides nothing are sniffed, here as a CSV
    # header with no rows.
    for name, expected in (
            ("x.jsonl", (1, "", "star-solve: line 1: each JSON line must be an object\n")),
            ("x.txt", (0, "", ""))):
        path = tmp_path / name
        path.write_text("[1]\n")
        assert run_cli(["solve", str(path)], monkeypatch, capsys) == expected


def test_read_pairs_solution_fields():
    lines = ["id,u1,u2,u3,psi1,psi2,u1p,u2p,u3p,max_residual,status,diagnostics\n",
             "m1,400,400,400,,,230.94,230.94,230.94,1e-15,ok,\n"]
    (measurement, solution), = list(read_pairs(lines, "csv"))
    assert solution is not None and solution.solved
    assert solution.u1p == 230.94


# -- per-record solving -------------------------------------------------------

def test_solve_record_ok():
    m = MeasurementRecord("r1", 400.0, 400.0, 400.0)
    _, s = solve_record(m, 1e-8)
    assert s.status == STATUS_OK
    assert s.u1p == pytest.approx(400.0 / math.sqrt(3.0), rel=1e-12)
    assert s.max_residual < 1e-12


def test_solve_record_inconsistent():
    _, s = solve_record(MeasurementRecord("r2", 10.0, 1.0, 1.0), 1e-8)
    assert s.status == STATUS_INCONSISTENT
    assert s.u1p is None


def test_solve_record_wide_angle():
    b, c = 2.0, 3.0
    a = math.sqrt(b * b + c * c - 2 * b * c * math.cos(math.radians(150.0)))
    _, s = solve_record(MeasurementRecord("r3", a, b, c), 1e-8)
    assert s.status == STATUS_ANGLE_GE_120
    assert "120" in s.diagnostics


def test_solve_record_bad_angles():
    _, s = solve_record(MeasurementRecord("r4", 1.0, 1.0, 1.0, 200.0, 100.0), 1e-8)
    assert s.status == STATUS_INCONSISTENT


def test_verify_record_confirms_failure_rows():
    m = MeasurementRecord("r5", 10.0, 1.0, 1.0)
    s = SolutionRecord("r5", None, None, None, None, STATUS_INCONSISTENT, "")
    passed, detail = verify_record(m, s, 1e-8)
    assert passed and "confirmed" in detail
    wrong = SolutionRecord("r5", None, None, None, None, STATUS_OK, "")
    assert not verify_record(m, wrong, 1e-8)[0]


# -- solve command ------------------------------------------------------------

def test_solve_command_batch(tmp_path, monkeypatch, capsys):
    path = tmp_path / "batch.csv"
    path.write_text(
        "id,u1,u2,u3,psi1,psi2\n"
        "good,400,400,400,,\n"
        "bad,10,1,1,,\n"
        "general,380,410,395,115,123\n"
    )
    code, out, err = run_cli(["solve", str(path)], monkeypatch, capsys)
    assert code == 2  # one failed record
    lines = out.strip().splitlines()
    assert len(lines) == 4  # header + three records, order preserved
    assert lines[1].startswith("good,") and ",ok," in lines[1]
    assert lines[2].startswith("bad,") and ",inconsistent," in lines[2]
    assert lines[3].startswith("general,") and ",ok," in lines[3]


def test_solve_command_stdin_jsonl(monkeypatch, capsys):
    stdin = '{"id": "j1", "u1": 400, "u2": 400, "u3": 400}\n'
    code, out, _ = run_cli(["solve", "-"], monkeypatch, capsys, stdin_text=stdin)
    assert code == 0
    row = json.loads(out.strip())
    assert row["status"] == "ok"
    assert row["u1p"] == pytest.approx(230.940107676)


def test_solve_command_planted_general_record(monkeypatch, capsys):
    # Line voltages (300, 400, 500) seen under (110, 130) deg phase splits.
    from conftest import E4_EDGES
    stdin = ("id,u1,u2,u3,psi1,psi2\n"
             f"e4,{E4_EDGES.a * 100},{E4_EDGES.b * 100},{E4_EDGES.c * 100},110,130\n")
    code, out, _ = run_cli(["solve", "-"], monkeypatch, capsys, stdin_text=stdin)
    assert code == 0
    cols = dict(zip(*(line.split(",") for line in out.strip().splitlines())))
    assert float(cols["u1p"]) == pytest.approx(300.0, rel=1e-9)
    assert float(cols["u2p"]) == pytest.approx(400.0, rel=1e-9)
    assert float(cols["u3p"]) == pytest.approx(500.0, rel=1e-9)


def test_solve_command_format_override(tmp_path, monkeypatch, capsys):
    path = tmp_path / "one.csv"
    path.write_text("id,u1,u2,u3,psi1,psi2\nm,400,400,400,,\n")
    code, out, _ = run_cli(["solve", str(path), "--format", "jsonl"],
                           monkeypatch, capsys)
    assert code == 0
    assert json.loads(out.strip())["id"] == "m"


def test_solve_command_parse_error_exit_1(monkeypatch, capsys):
    stdin = "id,u1,u2,u3,psi1,psi2\nm,400,nope,400,,\n"
    code, _, err = run_cli(["solve", "-"], monkeypatch, capsys, stdin_text=stdin)
    assert code == 1
    assert "line 2" in err


@pytest.mark.parametrize("command", ["solve", "verify"])
def test_integer_beyond_float_range_is_parse_error(command, monkeypatch, capsys):
    stdin = '{"id": "m", "u1": 1' + "0" * 400 + ', "u2": 1, "u3": 1}\n'
    code, _, err = run_cli([command, "-"], monkeypatch, capsys, stdin_text=stdin)
    assert (code, err) == (1, "star-solve: line 1: field 'u1' is not finite: "
                              f"1{'0' * 400}\n")


def test_csv_field_over_reader_limit_is_parse_error(monkeypatch, capsys):
    stdin = "id,u1,u2,u3\nm,400,400,400\nn,400," + "4" * 140_000 + ",400\n"
    code, out, err = run_cli(["solve", "-"], monkeypatch, capsys, stdin_text=stdin)
    assert code == 1
    assert out.count("\n") == 2  # the header and the first row
    assert err.startswith("star-solve: line 3: malformed CSV")


@pytest.mark.parametrize("field, value", [
    ("u1", "true"), ("psi1", "false"), ("u2", "[400]"), ("id", '{"a": 1}'),
])
def test_json_value_of_wrong_kind_is_parse_error(field, value, monkeypatch, capsys):
    row = {"id": '"m"', "u1": "400", "u2": "400", "u3": "400", "psi1": "120",
           "psi2": "120", field: value}
    stdin = "{" + ", ".join(f'"{k}": {v}' for k, v in row.items()) + "}\n"
    code, out, err = run_cli(["solve", "-"], monkeypatch, capsys, stdin_text=stdin)
    assert (code, out) == (1, "")
    assert err.startswith(f"star-solve: line 1: field {field!r} is not a number or")


def test_repeated_csv_header_is_parse_error(monkeypatch, capsys):
    stdin = "id,u1,u2,u3,psi1,psi2,u1\nm,400,400,400,,,300\n"
    code, out, err = run_cli(["solve", "-"], monkeypatch, capsys, stdin_text=stdin)
    assert (code, out) == (1, "")
    assert err == "star-solve: line 1: header repeats column 'u1'\n"


GOOD_JSON_LINE = '{"id": "a", "u1": 400, "u2": 400, "u3": 400}\n'


@pytest.mark.parametrize("command, stdin, message", [
    ("solve", GOOD_JSON_LINE + '{"id": \n', "line 2: invalid JSON: Expecting value"),
    ("solve", GOOD_JSON_LINE + "[1, 2]\n", "line 2: each JSON line must be an object"),
    ("verify", "id,u1,u2,u3,psi1,psi2,u1p,u2p,u3p,max_residual,status,diagnostics\n"
               "m,400,400,400,,,230.9,,230.9,0,ok,\n",
     "line 2: incomplete solution: u1p, u2p, u3p required"),
    ("solve", "\n" + GOOD_JSON_LINE + "[1, 2]\n", "line 3: each JSON line must be an object"),
    ("solve", "\nid,u1,u2,u3\nm,400,x,400\n", "line 3: field 'u2' is not a number: 'x'"),
    ("verify", GOOD_JSON_LINE + '{"id": "b", "u1": 400, "u2": 400, "u3": 1' + "0" * 400
     + "}\n", "line 2: field 'u3' is not finite: 1" + "0" * 400),
    # A residual that is not a number is an error with or without a status.
    ("verify", "id,u1,u2,u3,psi1,psi2,u1p,u2p,u3p,max_residual,status,diagnostics\n"
               "m,400,400,400,,,,,,oops,,\n",
     "line 2: field 'max_residual' is not a number: 'oops'"),
    ("verify", GOOD_JSON_LINE + '{"id": "b", "u1": 400, "u2": 400, "u3": 400, '
               '"max_residual": "oops"}\n',
     "line 2: field 'max_residual' is not a number: 'oops'"),
], ids=["invalid-json", "json-array", "incomplete-solution", "json-after-blank",
        "csv-after-blank", "json-integer-beyond-float-range", "csv-residual-no-status",
        "json-residual-no-status"])
def test_bad_record_after_a_good_one_is_parse_error(command, stdin, message,
                                                    monkeypatch, capsys):
    code, _, err = run_cli([command, "-"], monkeypatch, capsys, stdin_text=stdin)
    assert (code, err) == (1, f"star-solve: {message}\n")


SOLVED_CSV_HEADER = "id,u1,u2,u3,psi1,psi2,u1p,u2p,u3p,max_residual,status,diagnostics\n"
SOLVED_400 = "400,400,400,,," + "230.94010767585033," * 3 + "0,ok,"
# Per input stream: the command, the header, the row of record i, a bad line
# and what the error says of it.
STREAMS = {
    "solve-csv": ("solve", "id,u1,u2,u3,psi1,psi2\n", lambda i: f"r{i:03d},{300 + i},400,400,,\n",
                  "bad,400,x,400,,\n", "field 'u2' is not a number: 'x'"),
    "solve-jsonl": ("solve", "", lambda i: f'{{"id": "r{i:03d}", "u1": {300 + i}, "u2": 400, '
                                           f'"u3": 400}}\n',
                    '{"id": \n', "invalid JSON: Expecting value"),
    "verify": ("verify", SOLVED_CSV_HEADER, lambda i: f"r{i:03d},{SOLVED_400}\n",
               "bad,400,400,400,,,230.9,,230.9,0,ok,\n",
               "incomplete solution: u1p, u2p, u3p required"),
}


# Records are read 64 at a time. Line 2 holds the first record. After the
# CSV header, line 65 ends the first block and lines 66 and 130 start the
# next two; in JSON lines, line 65 starts the second block and lines 66 and
# 130 are second in theirs.
@pytest.mark.parametrize("bad_line", [2, 65, 66, 130])
@pytest.mark.parametrize("stream", STREAMS)
def test_rows_before_a_bad_line_are_answered_and_none_after(stream, bad_line,
                                                            monkeypatch, capsys):
    command, header, row, bad, message = STREAMS[stream]
    rows = [row(i) for i in range(140)]
    before = bad_line - 1 - bool(header)
    code, out, err = run_cli([command, "-"], monkeypatch, capsys,
                             stdin_text=header + "".join(rows[:before]) + bad
                             + "".join(rows[before:]))
    assert (code, err) == (1, f"star-solve: line {bad_line}: {message}\n")
    assert re.findall(r"\br\d{3}\b", out) == [f"r{i:03d}" for i in range(before)]
    # The rows before the bad line come out as they do with nothing after them.
    _, alone, _ = run_cli([command, "-"], monkeypatch, capsys,
                          stdin_text=header + "".join(rows[:before]))
    assert out == (alone.removesuffix(f"{before} records, 0 failed\n")
                   if command == "verify" else alone)


class TerminalInput(io.StringIO):
    """Standard input from a terminal; notes, as each line is asked for,
    how many lines ``out`` holds."""

    def __init__(self, text: str, out: io.StringIO):
        super().__init__(text)
        self.out, self.lines_out = out, []

    def isatty(self) -> bool:
        return True

    def __next__(self) -> str:
        self.lines_out.append(self.out.getvalue().count("\n"))
        return super().__next__()


@pytest.mark.parametrize("command, row", [
    ("solve", '{"id": "m", "u1": 400, "u2": 400, "u3": 400}\n'),
    ("verify", '{"id": "m", "u1": 400, "u2": 400, "u3": 400, "u1p": 230.94010767585033, '
               '"u2p": 230.94010767585033, "u3p": 230.94010767585033, "max_residual": 0, '
               '"status": "ok"}\n'),
])
def test_terminal_input_is_answered_line_by_line(command, row, monkeypatch):
    out = io.StringIO()
    stdin = TerminalInput(row * 3, out)
    monkeypatch.setattr("sys.stdin", stdin)
    monkeypatch.setattr("sys.stdout", out)
    assert main([command, "-"]) == 0
    # Each line is asked for only after the line before it is answered.
    assert stdin.lines_out == [0, 1, 2, 3]


@pytest.mark.parametrize("text", [
    "id,u1,u2,u3,psi1,psi2\nm,400,400,400,,\n",
    '{"id": "m", "u1": 400, "u2": 400, "u3": 400}\n',
])
def test_byte_order_mark_is_ignored(text, monkeypatch, capsys):
    plain = run_cli(["solve", "-"], monkeypatch, capsys, stdin_text=text)
    assert plain[0] == 0
    assert run_cli(["solve", "-"], monkeypatch, capsys,
                   stdin_text="\ufeff" + text) == plain
    code, out, _ = run_cli(["verify", "-"], monkeypatch, capsys,
                           stdin_text="\ufeff" + plain[1])
    assert code == 0 and out.endswith("1 records, 0 failed\n")


@pytest.mark.parametrize("blank", ["\n", "\ufeff\n\r\n"], ids=["blank", "bom-blanks"])
@pytest.mark.parametrize("text", [
    "id,u1,u2,u3,psi1,psi2\nm,400,400,400,,\n",
    '{"id": "m", "u1": 400, "u2": 400, "u3": 400}\n',
], ids=["csv", "jsonl"])
def test_leading_blank_lines_are_ignored(text, blank, monkeypatch, capsys):
    plain = run_cli(["solve", "-"], monkeypatch, capsys, stdin_text=text)
    assert plain[0] == 0
    assert run_cli(["solve", "-"], monkeypatch, capsys, stdin_text=blank + text) == plain


@pytest.mark.parametrize("source", ["stdin", "path"])
@pytest.mark.parametrize("text, plain", [
    (" \nid,u1,u2,u3\nm,400,400,400\n", "id,u1,u2,u3\nm,400,400,400\n"),
    ("id,u1,u2,u3\n  \nm,400,400,400\n", "id,u1,u2,u3\nm,400,400,400\n"),
    ("\t\r\nid,u1,u2,u3\r\nm,400,400,400\r\n \r\nn,3,4,5\r\n",
     "id,u1,u2,u3\r\nm,400,400,400\r\nn,3,4,5\r\n"),
], ids=["before-header", "between-rows", "crlf"])
def test_csv_line_of_only_whitespace_is_blank(text, plain, source, tmp_path,
                                              monkeypatch, capsys):
    def solve(content):
        if source == "stdin":
            return run_cli(["solve", "-"], monkeypatch, capsys, stdin_text=content)
        path = tmp_path / "in.csv"
        path.write_bytes(content.encode())
        return run_cli(["solve", str(path)], monkeypatch, capsys)

    expected = solve(plain)
    assert expected[0] == 0
    assert solve(text) == expected


def test_csv_line_of_only_whitespace_keeps_line_numbers(monkeypatch, capsys):
    stdin = " \nid,u1,u2,u3\n\t\nm,400,x,400\n"
    code, _, err = run_cli(["solve", "-"], monkeypatch, capsys, stdin_text=stdin)
    assert (code, err) == (1, "star-solve: line 4: field 'u2' is not a number: 'x'\n")


def test_carriage_return_in_a_field_is_quoted_on_output(monkeypatch, capsys):
    stdin = 'id,u1,u2,u3\n"a\rb",400,400,400\n'
    code, out, _ = run_cli(["solve", "-"], monkeypatch, capsys, stdin_text=stdin)
    assert code == 0 and out.split("\n")[1].startswith('"a\rb",400.0,')
    code, out, _ = run_cli(["verify", "-"], monkeypatch, capsys, stdin_text=out)
    assert code == 0 and out.endswith("1 records, 0 failed\n")


def _solved_fields(u1, u2, u3, psi1=None, psi2=None):
    """u1p, u2p, u3p and max_residual of the solved row, as CSV writes them."""
    _, s = solve_record(MeasurementRecord("x", u1, u2, u3, psi1, psi2), 1e-8)
    return ",".join(map(repr, (s.u1p, s.u2p, s.u3p, s.max_residual)))


SOLUTION_HEADER = "id,u1,u2,u3,psi1,psi2,u1p,u2p,u3p,max_residual,status,diagnostics"


def test_solve_writes_csv_bytes(monkeypatch, capsys):
    # A metadata column, a short row whose missing fields write empty, and an
    # id with a bare CR, quoted on its LF-ended line.
    stdin = ("id,u1,u2,u3,psi1,psi2,feeder\n"
             "a,400,400,400,,,F1\n"
             "b,3,4,5\n"
             '"c\rd",400,400,400,110,130,F3\n')
    code, out, _ = run_cli(["solve", "-"], monkeypatch, capsys, stdin_text=stdin)
    assert code == 0
    assert out == (
        f"{SOLUTION_HEADER},feeder\n"
        f"a,400.0,400.0,400.0,,,{_solved_fields(400.0, 400.0, 400.0)},ok,,F1\n"
        f"b,3.0,4.0,5.0,,,{_solved_fields(3.0, 4.0, 5.0)},ok,,\n"
        f'"c\rd",400.0,400.0,400.0,110.0,130.0,'
        f"{_solved_fields(400.0, 400.0, 400.0, 110.0, 130.0)},ok,,F3\n")


def test_jsonl_to_csv_header_is_fixed_by_the_first_row(monkeypatch, capsys):
    stdin = ('{"id": "j1", "u1": 400, "u2": 400, "u3": 400, "site": "x", "n": 1}\n'
             '{"id": "j2", "u1": 400, "u2": 400, "u3": 400, "n": 2, "extra": "y"}\n'
             '{"id": "j3", "u1": 400, "u2": 400, "u3": 400}\n')
    code, out, _ = run_cli(["solve", "--format", "csv", "-"], monkeypatch, capsys,
                           stdin_text=stdin)
    solved = _solved_fields(400.0, 400.0, 400.0)
    assert code == 0
    assert out == (f"{SOLUTION_HEADER},site,n\n"
                   f"j1,400.0,400.0,400.0,,,{solved},ok,,x,1\n"
                   f"j2,400.0,400.0,400.0,,,{solved},ok,,,2\n"
                   f"j3,400.0,400.0,400.0,,,{solved},ok,,,\n")


def test_json_object_array_and_boolean_metadata_go_to_csv_as_json(monkeypatch, capsys):
    stdin = ('{"id": "j1", "u1": 400, "u2": 400, "u3": 400, '
             '"tags": {"a": 1}, "on": true, "seen": [1, "x"], "off": false}\n')
    code, out, _ = run_cli(["solve", "--format", "csv", "-"], monkeypatch, capsys,
                           stdin_text=stdin)
    assert code == 0
    assert out.splitlines()[1].endswith(',"{""a"": 1}",true,"[1, ""x""]",false')
    (m,) = read_measurements(out.splitlines(keepends=True), "csv")
    assert {key: json.loads(text) for key, text in m.meta.items()} == {
        "tags": {"a": 1}, "on": True, "seen": [1, "x"], "off": False}
    code, out, _ = run_cli(["solve", "-"], monkeypatch, capsys, stdin_text=stdin)
    assert code == 0
    assert out.endswith(', "tags": {"a": 1}, "on": true, "seen": [1, "x"], '
                        '"off": false}\n')


def test_short_csv_row_echoes_empty_metadata(monkeypatch, capsys):
    stdin = "id,u1,u2,u3,psi1,psi2,feeder\na,400,400,400\nb,400,400,400,,,F2\n"
    code, out, _ = run_cli(["solve", "-"], monkeypatch, capsys, stdin_text=stdin)
    assert code == 0
    echoed = read_measurements(out.splitlines(keepends=True), "csv")
    assert [m.meta for m in echoed] == [{"feeder": ""}, {"feeder": "F2"}]


def test_jsonl_metadata_is_echoed_as_parsed(monkeypatch, capsys):
    stdin = '{"id": "m", "u1": 400, "u2": 400, "u3": 400, "feeder": null, "n": 3}\n'
    code, out, _ = run_cli(["solve", "-"], monkeypatch, capsys, stdin_text=stdin)
    assert code == 0 and out.endswith(', "feeder": null, "n": 3}\n')
    code, out, _ = run_cli(["solve", "--format", "csv", "-"], monkeypatch, capsys,
                           stdin_text=stdin)
    assert code == 0 and out.splitlines()[1].endswith(",,3")


def test_json_id_is_replaced_only_when_missing_null_or_empty(monkeypatch, capsys):
    voltages = '"u1": 400, "u2": 400, "u3": 400}\n'
    stdin = "".join("{" + head + voltages
                    for head in ('"id": 0, ', '"id": null, ', "", '"id": "", '))
    code, out, _ = run_cli(["solve", "-"], monkeypatch, capsys, stdin_text=stdin)
    assert code == 0
    assert [json.loads(line)["id"] for line in out.splitlines()] == [
        "0", "record-2", "record-3", "record-4"]


@pytest.mark.parametrize("rec_id", ["x: PASS (ok)\ny", "x\r0 failed", "x\u2028y"])
def test_verify_prints_one_line_per_record(rec_id, monkeypatch, capsys):
    stdin = f'id,u1,u2,u3\n"{rec_id}",400,400,400\nplain,400,400,400\n'
    code, out, _ = run_cli(["solve", "-"], monkeypatch, capsys, stdin_text=stdin)
    assert code == 0
    code, out, _ = run_cli(["verify", "-"], monkeypatch, capsys, stdin_text=out)
    lines = out.splitlines()
    assert code == 0 and len(lines) == 3
    assert lines[0].startswith(f"{rec_id!r}: PASS (")
    assert lines[1].startswith("plain: PASS (")


NOT_UTF8 = b"id,u1,u2,u3\nm\xff,400,400,400\n"
LONE_SURROGATE = b'{"id": "\\ud800", "u1": 400, "u2": 400, "u3": 400}\n'
# A NUL, which the csv module of Python 3.10 neither reads nor writes, and
# that of 3.11 and later does.
NUL_IN_CSV = b"id,u1,u2,u3\nm\x00,400,400,400\n"
NUL_IN_JSON_ID = b'{"id": "a\\u0000b", "u1": 400, "u2": 400, "u3": 400}\n'
NUL_IN_JSON_META = b'{"id": "m", "u1": 400, "u2": 400, "u3": 400, "site": "x\\u0000"}\n'
ONE_PARSE_MESSAGE = re.compile(r"star-solve: line \d+: [^\n]*\n")


@pytest.mark.parametrize("data, message", [
    (NOT_UTF8, "line 2: byte 0xff is not UTF-8"),
    (LONE_SURROGATE, r"line 1: string '\ud800': lone surrogate U+D800 is not text"),
    (NUL_IN_CSV, "line 2: contains a NUL character"),
    (NUL_IN_JSON_ID, r"line 1: string 'a\x00b': contains a NUL character"),
    (NUL_IN_JSON_META, r"line 1: string 'x\x00': contains a NUL character"),
], ids=["not-utf8", "lone-surrogate", "nul-in-csv", "nul-in-json-id", "nul-in-json-meta"])
@pytest.mark.parametrize("command", [["solve"], ["solve", "--format", "csv"], ["verify"]],
                         ids=["solve", "solve-csv", "verify"])
@pytest.mark.parametrize("source", ["file", "stdin"])
def test_input_that_is_not_text_is_parse_error(data, message, command, source,
                                                tmp_path, monkeypatch, capsys):
    path = tmp_path / "in.txt"
    path.write_bytes(data)
    if source == "stdin":
        # Standard input as Python sets it up in UTF-8 mode.
        monkeypatch.setattr("sys.stdin", io.TextIOWrapper(
            io.BytesIO(data), encoding="utf-8", errors="surrogateescape"))
    code, out, err = run_cli([*command, str(path) if source == "file" else "-"],
                             monkeypatch, capsys)
    assert (code, out, err) == (1, "", f"star-solve: {message}\n")


def subprocess_env() -> dict:
    """The environment, with this checkout's ``src`` first on the path."""
    src = Path(__file__).resolve().parent.parent / "src"
    return {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(src), os.environ.get("PYTHONPATH")]))}


@pytest.mark.parametrize("utf8_mode", ["0", "1"])
@pytest.mark.parametrize("data", [NOT_UTF8, LONE_SURROGATE],
                         ids=["not-utf8", "lone-surrogate"])
@pytest.mark.parametrize("source", ["file", "stdin"])
def test_input_that_is_not_text_fails_alike_in_any_utf8_mode(utf8_mode, data, source,
                                                            tmp_path):
    path = tmp_path / "in.txt"
    path.write_bytes(data)
    env = {**subprocess_env(), "PYTHONUTF8": utf8_mode}
    done = subprocess.run(
        [sys.executable, "-m", "starsolve.cli", "solve",
         str(path) if source == "file" else "-"],
        input=data if source == "stdin" else b"", capture_output=True, env=env,
        timeout=60)
    assert (done.returncode, done.stdout) == (1, b"")
    assert ONE_PARSE_MESSAGE.fullmatch(done.stderr.decode()), done.stderr


def first_line_then_closed(argv: list[str]) -> tuple[bytes, int, bytes]:
    """Run star-solve as under `| head -n 1`: read the first line of its
    output, close the pipe, and return that line, the exit code and stderr."""
    proc = subprocess.Popen([sys.executable, "-m", "starsolve.cli", *argv],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            env=subprocess_env())
    try:
        first = proc.stdout.readline()
        proc.stdout.close()
        return first, proc.wait(timeout=60), proc.stderr.read()
    finally:
        proc.kill()
        proc.stderr.close()


def test_downstream_pipe_closed_early_exits_1_quietly():
    # synth stops at its next write after the reader is gone, exits 1, and
    # writes nothing to stderr, not even at exit.
    first, code, err = first_line_then_closed(
        ["synth", "--count", "200000", "--seed", "1"])
    assert first.startswith(b"id,")
    assert (code, err) == (1, b"")


@pytest.mark.parametrize("command, header, row, first", [
    ("solve", "", '{"id": "m", "u1": 400, "u2": 400, "u3": 400}\n', b'{"id": "m", '),
    ("verify", SOLVED_CSV_HEADER, f"m,{SOLVED_400}\n", b"m: PASS ("),
])
def test_downstream_pipe_closed_early_ends_solve_and_verify_quietly(command, header, row,
                                                                   first, tmp_path):
    # Far more output than a pipe holds, so the command writes after the
    # reader is gone.
    path = tmp_path / "in.txt"
    path.write_text(header + row * 20_000)
    line, code, err = first_line_then_closed([command, str(path)])
    assert line.startswith(first)
    assert (code, err) == (1, b"")


def test_explicit_120_deg_row_decides_like_empty_psi(monkeypatch, capsys):
    stdin = "id,u1,u2,u3,psi1,psi2\nw,1,1,1.9,120,120\nw,1,1,1.9,,\n"
    code, out, _ = run_cli(["solve", "-"], monkeypatch, capsys, stdin_text=stdin)
    assert code == 2
    (_, explicit), (_, empty) = read_pairs(out.splitlines(keepends=True), "csv")
    assert explicit.status == empty.status == STATUS_ANGLE_GE_120
    assert explicit.diagnostics == empty.diagnostics


def test_circle_mismatch_message_shows_both_values(monkeypatch):
    def nudged(unit, unit_sq, theta_sq, psis, cot):
        a_p, b_p, c_p = circle_distances(unit, unit_sq, theta_sq, psis, cot)
        return a_p * (1.0 + 1e-7), b_p, c_p

    monkeypatch.setattr(cli, "circle_distances", nudged)
    m = MeasurementRecord("e1", *E1_EDGES.as_tuple())
    s = SolutionRecord("e1", *E1_DISTANCES, 0.0, STATUS_OK)
    passed, detail = verify_record(m, s, 1e-8)
    psis, cot, _ = ANGLES_120
    recomputed = math.ldexp(nudged(E1_EDGES.unit, E1_EDGES.unit_sq, E1_EDGES.unit_theta_sq,
                                   psis, cot)[0], E1_EDGES.exponent)
    assert not passed
    assert detail == (f"u1p={E1_DISTANCES[0]!r} disagrees with circle-path "
                      f"value {recomputed!r}")


def test_near_180_deg_row_solves_and_verifies(tmp_path, monkeypatch, capsys):
    # The circle route once intersected the circles by the radical line, and
    # at this row it missed the star point by 7e-7 relative.
    batch = tmp_path / "in.csv"
    batch.write_text("id,u1,u2,u3,psi1,psi2\n"
                     "r15,95.3280037301,98.6690362844,3.34488370469,"
                     "2.70466653684,178.373930277\n")
    code, out, _ = run_cli(["solve", str(batch)], monkeypatch, capsys)
    assert code == 0
    solved = tmp_path / "solved.csv"
    solved.write_text(out)
    code, out, _ = run_cli(["verify", str(solved)], monkeypatch, capsys)
    assert (code, out.splitlines()[-1]) == (0, "1 records, 0 failed")


R15 = ("r15", 95.3280037301223, 98.66903628441688, 3.3448837046922284,
       2.7046665368394143, 178.37393027680892)


@pytest.mark.parametrize("fmt", ["csv", "jsonl"])
def test_full_precision_near_180_deg_row_verifies(fmt, monkeypatch, capsys):
    # Echoed at 12 digits, this row was another triangle, and verify FAILed
    # the solution of this one on it.
    if fmt == "csv":
        stdin = "id,u1,u2,u3,psi1,psi2\n" + ",".join(map(str, R15)) + "\n"
    else:
        stdin = json.dumps(dict(zip(("id", "u1", "u2", "u3", "psi1", "psi2"),
                                    R15))) + "\n"
    code, out, _ = run_cli(["solve", "-"], monkeypatch, capsys, stdin_text=stdin)
    assert code == 0
    code, out, _ = run_cli(["verify", "-"], monkeypatch, capsys, stdin_text=out)
    assert (code, out.splitlines()[-1]) == (0, "1 records, 0 failed")


def test_collinear_row_is_infeasible_and_verify_confirms_it(monkeypatch, capsys):
    # The closure holds on these collinear edges, and an interior test once
    # divided by their zero area; the feasibility predicate now refuses
    # them before the closed form runs.
    stdin = "id,u1,u2,u3,psi1,psi2\nc,3,4,1,106.6919676342695,179.999999999\n"
    code, out, _ = run_cli(["solve", "-"], monkeypatch, capsys, stdin_text=stdin)
    assert code == 2
    [(_, solution)] = read_pairs(out.splitlines(keepends=True), "csv")
    assert solution.status == STATUS_INFEASIBLE
    assert solution.diagnostics == "edges are collinear: no interior point"
    code, out, _ = run_cli(["verify", "-"], monkeypatch, capsys, stdin_text=out)
    assert code == 0
    assert out.splitlines() == [
        "c: PASS (failure status 'infeasible' confirmed by re-solve)",
        "1 records, 0 failed"]


def test_row_past_the_closed_form_denominator_is_unresolved_and_verify_confirms_it(
        monkeypatch, capsys):
    # psi2 a rounding below 180 deg: the star point exists, but the closed
    # form's distance denominator comes out negative.
    stdin = ("id,u1,u2,u3,psi1,psi2\nd,0.6946369378478342,0.2613806362828738,"
             "0.5339632973299462,121.81054300537848,179.99999999999997\n")
    code, out, _ = run_cli(["solve", "-"], monkeypatch, capsys, stdin_text=stdin)
    assert code == 2
    [(_, solution)] = read_pairs(out.splitlines(keepends=True), "csv")
    assert solution.status == STATUS_UNRESOLVED
    assert solution.diagnostics.startswith("distance denominator -3.074e-01 ")
    code, out, _ = run_cli(["verify", "-"], monkeypatch, capsys, stdin_text=out)
    assert code == 0
    assert out.splitlines() == [
        "d: PASS (failure status 'unresolved' confirmed by re-solve)",
        "1 records, 0 failed"]


@pytest.mark.parametrize("u1p", [2.0 ** 600, 1e300], ids=["2**600", "1e300"])
def test_absurd_claim_fails_the_closure(u1p):
    # Beyond 2**(k + 500) the claim's squares overflow on the unit
    # triangle, and the closure residual reads inf.
    m = MeasurementRecord("a", 3.0, 4.0, 5.0, 100.0, 130.0)
    s = SolutionRecord("a", u1p, 2.0, 3.0, 0.0, STATUS_OK)
    assert verify_record(m, s, 1e-8) == (
        False, "closure residual inf exceeds tolerance 1e-08")


@pytest.mark.parametrize("psis", [(100.0, 130.0), (None, None)], ids=["general", "120"])
def test_claim_beyond_the_float_range_of_the_unit_triangle_fails_the_closure(psis):
    # The unit triangle is these edges times 2**994, and so is the claim,
    # which then exceeds the float range.
    m = MeasurementRecord("a", 3e-300, 4e-300, 5e-300, *psis)
    s = SolutionRecord("a", 1e10, 2e-300, 3e-300, 0.0, STATUS_OK)
    assert verify_record(m, s, 1e-8) == (
        False, "closure residual inf exceeds tolerance 1e-08")


def test_solve_command_missing_file_exit_1(monkeypatch, capsys):
    code, _, err = run_cli(["solve", "/no/such/file.csv"], monkeypatch, capsys)
    assert code == 1
    assert err


def test_solve_command_empty_input(monkeypatch, capsys):
    code, out, _ = run_cli(["solve", "-"], monkeypatch, capsys, stdin_text="")
    assert code == 0
    assert out == ""


def test_tolerance_env_override(tmp_path, monkeypatch, capsys):
    path = tmp_path / "one.csv"
    path.write_text("id,u1,u2,u3,psi1,psi2\nm,400,400,400,,\n")
    monkeypatch.setenv("STAR_SOLVE_TOLERANCE", "not-a-number")
    code, _, err = run_cli(["solve", str(path)], monkeypatch, capsys)
    assert code == 1
    monkeypatch.setenv("STAR_SOLVE_TOLERANCE", "1e-6")
    code, out, _ = run_cli(["solve", str(path)], monkeypatch, capsys)
    assert code == 0
    for bad in ("0", "-1", "nan", "inf"):
        monkeypatch.setenv("STAR_SOLVE_TOLERANCE", bad)
        code, out, err = run_cli(["solve", str(path)], monkeypatch, capsys)
        assert code == 1 and out == ""
        assert "finite and positive" in err


@pytest.mark.parametrize("bad", ["0", "-1", "nan", "inf"])
def test_tolerance_flag_rejects_non_positive(tmp_path, monkeypatch, capsys, bad):
    path = tmp_path / "one.csv"
    path.write_text("id,u1,u2,u3,psi1,psi2\nm,400,400,400,,\n")
    code, out, err = run_cli(["solve", f"--tolerance={bad}", str(path)],
                             monkeypatch, capsys)
    assert code == 1 and out == ""
    assert "finite and positive" in err


def test_solved_row_over_the_tolerance_is_unresolved(monkeypatch, capsys):
    # The star point exists; the closed form only misses the tolerance.
    stdin = "id,u1,u2,u3,psi1,psi2\nm,400,400,400,,\n"
    code, out, _ = run_cli(["solve", "--tolerance", "1e-20", "-"], monkeypatch, capsys,
                           stdin_text=stdin)
    assert code == 2
    (_, solution), = read_pairs(out.splitlines(keepends=True), "csv")
    assert solution.status == STATUS_UNRESOLVED
    assert (solution.u1p, solution.u2p, solution.u3p, solution.max_residual) == (
        None, None, None, None)
    residual = 1.0913936421275138e-15
    assert solution.diagnostics == (
        f"closure residuals {(residual,) * 3} exceed 1e-20; "
        "the closed form does not reach the star point within tolerance")


# At 120 deg the closed form closes this needle's short edge to 1.73e-8
# only, between the default tolerance and 1e-6.
NEEDLE_1E8 = "id,u1,u2,u3,psi1,psi2\nn,1,1,1e-8,,\n"
NEEDLE_1E8_RESIDUAL = 1.732050934109679e-08


def test_one_tolerance_decides_solve_and_verify(monkeypatch, capsys):
    code, by_flag, _ = run_cli(["solve", "--tolerance", "1e-6", "-"], monkeypatch,
                               capsys, stdin_text=NEEDLE_1E8)
    assert code == 0
    (_, solution), = read_pairs(by_flag.splitlines(keepends=True), "csv")
    assert solution.status == STATUS_OK
    assert solution.max_residual == NEEDLE_1E8_RESIDUAL
    assert solution.diagnostics == ""

    monkeypatch.setenv("STAR_SOLVE_TOLERANCE", "1e-6")
    code, by_env, _ = run_cli(["solve", "-"], monkeypatch, capsys, stdin_text=NEEDLE_1E8)
    assert code == 0 and by_env == by_flag
    code, verdict, _ = run_cli(["verify", "-"], monkeypatch, capsys, stdin_text=by_env)
    assert code == 0
    assert verdict == "n: PASS (max residual 1.732e-08)\n1 records, 0 failed\n"

    monkeypatch.delenv("STAR_SOLVE_TOLERANCE")
    code, strict, _ = run_cli(["solve", "-"], monkeypatch, capsys, stdin_text=NEEDLE_1E8)
    assert code == 2
    (_, solution), = read_pairs(strict.splitlines(keepends=True), "csv")
    assert solution.status == STATUS_UNRESOLVED
    assert solution.diagnostics == (
        "closure residuals (1.2212453270876722e-15, 1.2212453270876722e-15, "
        f"{NEEDLE_1E8_RESIDUAL!r}) exceed 1e-08; "
        "the closed form does not reach the star point within tolerance")
    # Every angle of the needle is below 120 deg, so its star point exists:
    # solve says the closed form missed it, and verify confirms that.
    code, verdict, _ = run_cli(["verify", "-"], monkeypatch, capsys, stdin_text=strict)
    assert (code, verdict) == (
        0, "n: PASS (failure status 'unresolved' confirmed by re-solve)\n"
           "1 records, 0 failed\n")

    # The failure solve wrote at the default is refuted under the looser
    # value, since verify's re-solve accepts on it too.
    monkeypatch.setenv("STAR_SOLVE_TOLERANCE", "1e-6")
    code, verdict, _ = run_cli(["verify", "-"], monkeypatch, capsys, stdin_text=strict)
    assert code == 2
    assert verdict.startswith(
        "n: FAIL (recorded status 'unresolved' but re-solve produced 'ok')\n")


# A planted near-180-deg row whose star point lies 4e-3 from vertex B: the
# point rebuilt from the closed form once failed a barycentric interior
# test by rounding, and solve wrote the row infeasible.
NEAR_180_PLANT = (13.951912784112213, 0.004184223868063911, 201.5144523317955)
NEAR_180_ROW = ("id,u1,u2,u3,psi1,psi2\nr,201.5186176131462,187.6304337638246,"
                "13.956097007978222,174.54597026760288,5.45582565892657\n")


def test_near_180_deg_row_near_a_vertex_solves_ok(monkeypatch, capsys):
    code, out, _ = run_cli(["solve", "-"], monkeypatch, capsys, stdin_text=NEAR_180_ROW)
    assert code == 0
    (_, solution), = read_pairs(out.splitlines(keepends=True), "csv")
    assert solution.status == STATUS_OK
    floor = 1e-9 * sum(NEAR_180_PLANT)
    for got, planted in zip((solution.u1p, solution.u2p, solution.u3p), NEAR_180_PLANT):
        assert abs(got - planted) < floor
    code, verdict, _ = run_cli(["verify", "-"], monkeypatch, capsys, stdin_text=out)
    assert (code, verdict.splitlines()[-1]) == (0, "1 records, 0 failed")


@pytest.mark.parametrize("status, psis, error, margin", [
    (STATUS_INFEASIBLE, (100.0, 130.0), InfeasibleConfiguration("no interior point"),
     "4.000e+01"),
    (STATUS_ANGLE_GE_120, (None, None), AngleAtLeast120("C", 120.0, (4.0, 3.0, 0.0)),
     "3.000e+01"),
], ids=["infeasible", "angle_ge_120"])
def test_verify_refutes_no_star_point_where_the_angles_show_one(
        monkeypatch, status, psis, error, margin):
    # A solve that wrongly finds no star point, and a re-solve that repeats
    # it: the 3-4-5 triangle's angles, 36.9, 53.1 and 90 deg, are each below
    # the viewing angle across, so verify FAILs the row by its own test.
    def no_star_point(edges, angles, tolerance):
        raise error
    monkeypatch.setattr(cli, "line_voltage_kernel", no_star_point)
    m = MeasurementRecord("m", 3.0, 4.0, 5.0, *psis)
    s = SolutionRecord("m", None, None, None, None, status)
    assert verify_record(m, s, 1e-8) == (
        False, f"recorded status {status!r} but an interior point exists: "
               f"angle margin {margin} deg")


def _faulty_kernel(original, bad_unit_edge, fault):
    """``original``, a kernel on the unit triangle, with ``fault`` (an
    exception type) injected for unit edges whose first is ``bad_unit_edge``."""
    def kernel(unit, *args):
        if unit[0] != bad_unit_edge:
            return original(unit, *args)
        raise fault("injected fault")
    return kernel


def _faulty_line_voltage_kernel(bad_edge, fault):
    """The kernel ``cli.solve_record`` calls, with ``fault`` (an exception
    type, or a callable that builds the kernel's answer) injected for edges
    whose first is ``bad_edge``."""
    def kernel(edges, angles, tolerance):
        exponent, unit, _, _ = edges
        if math.ldexp(unit[0], exponent) != bad_edge:
            return line_voltage_kernel(edges, angles, tolerance)
        if isinstance(fault, type):
            raise fault("injected fault")
        return fault()
    return kernel


# The 3-4-5 triangle at 120 deg, between two good rows; the 120-deg kernel
# raises on it.
@pytest.mark.parametrize("raised", [ZeroDivisionError, OverflowError])
def test_solve_batch_survives_internal_error(tmp_path, monkeypatch, capsys, raised):
    u1, u2, u3 = E1_EDGES.as_tuple()
    monkeypatch.setattr(cli, "line_voltage_kernel",
                        _faulty_line_voltage_kernel(u1, raised))
    path = tmp_path / "mixed.csv"
    path.write_text("id,u1,u2,u3,psi1,psi2\n"
                    "good1,400,400,400,,\n"
                    f"bad,{u1!r},{u2!r},{u3!r},,\n"
                    "good2,400,400,400,,\n")
    code, out, err = run_cli(["solve", str(path)], monkeypatch, capsys)
    assert code == 2 and err == ""
    rows = list(read_pairs(out.splitlines(keepends=True), "csv"))
    assert [m.id for m, _ in rows] == ["good1", "bad", "good2"]
    assert [s.status for _, s in rows] == [STATUS_OK, STATUS_INTERNAL_ERROR, STATUS_OK]
    assert rows[1][1].diagnostics.startswith(raised.__name__)


def test_verify_record_reports_internal_error(monkeypatch):
    monkeypatch.setattr(cli, "circle_distances",
                        _faulty_kernel(circle_distances, E1_EDGES.unit[0],
                                       ZeroDivisionError))
    monkeypatch.setattr(cli, "line_voltage_kernel",
                        _faulty_line_voltage_kernel(E1_EDGES.a, ZeroDivisionError))
    m = MeasurementRecord("e1", *E1_EDGES.as_tuple())
    s = SolutionRecord("e1", *E1_DISTANCES, 0.0, STATUS_OK)
    passed, detail = verify_record(m, s, 1e-8)
    assert not passed
    assert detail.startswith("cross-check raised ZeroDivisionError")
    # A recorded crash is reproduced by the re-solve, but never verified.
    crashed = SolutionRecord("e1", None, None, None, None, STATUS_INTERNAL_ERROR)
    passed, detail = verify_record(m, crashed, 1e-8)
    assert not passed
    assert detail.startswith("cross-check raised ZeroDivisionError")


def test_non_finite_answer_becomes_failure_row(tmp_path, monkeypatch, capsys):
    u1, u2, u3 = E1_EDGES.as_tuple()

    def nan_answer():
        nan = math.nan
        return (nan, nan, nan), (nan, nan, nan), ()

    monkeypatch.setattr(cli, "line_voltage_kernel",
                        _faulty_line_voltage_kernel(u1, nan_answer))
    path = tmp_path / "mixed.csv"
    path.write_text("id,u1,u2,u3,psi1,psi2\n"
                    "good1,400,400,400,,\n"
                    f"bad,{u1!r},{u2!r},{u3!r},,\n"
                    "good2,400,400,400,,\n")
    code, out, err = run_cli(["solve", str(path)], monkeypatch, capsys)
    assert code == 2 and err == ""
    rows = list(read_pairs(out.splitlines(keepends=True), "csv"))
    assert [s.status for _, s in rows] == [STATUS_OK, STATUS_INTERNAL_ERROR, STATUS_OK]
    bad = rows[1][1]
    assert (bad.u1p, bad.u2p, bad.u3p, bad.max_residual) == (None, None, None, None)
    assert bad.diagnostics.startswith("solver returned non-finite u1p=nan")
    assert "nan" not in out.replace(bad.diagnostics, "")

    solved = tmp_path / "solved.csv"
    solved.write_text(out)
    code, out, err = run_cli(["verify", str(solved)], monkeypatch, capsys)
    assert code == 2 and err == ""
    lines = out.splitlines()
    assert [line.split(":")[0] for line in lines[:3]] == ["good1", "bad", "good2"]
    assert "PASS" in lines[0] and "FAIL" in lines[1] and "PASS" in lines[2]
    assert lines[3] == "3 records, 1 failed"


def test_usage_error_exit_1(monkeypatch, capsys):
    code, _, err = run_cli(["frobnicate"], monkeypatch, capsys)
    assert code == 1


def test_main_builds_one_parser_and_leaks_no_state_between_calls(tmp_path, monkeypatch,
                                                                  capsys):
    builds, build = [], cli.build_parser

    def counted():
        builds.append(1)
        return build()

    monkeypatch.setattr(cli, "build_parser", counted)
    monkeypatch.setattr(cli, "_parser", None)
    batch = tmp_path / "in.csv"
    batch.write_text("id,u1,u2,u3,psi1,psi2\nm,400,400,400,,\n")

    code, out, _ = run_cli(["solve", "--format", "jsonl", str(batch)], monkeypatch, capsys)
    assert code == 0 and json.loads(out)["id"] == "m"
    code, csv_out, _ = run_cli(["solve", str(batch)], monkeypatch, capsys)
    assert code == 0 and csv_out.startswith("id,u1,u2,u3,psi1,psi2,")

    code, out, err = run_cli(["solve", "--tolerance", "0", str(batch)], monkeypatch, capsys)
    assert (code, out) == (1, "") and err.startswith("star-solve: ")
    code, out, err = run_cli(["solve", "--format", "xml", str(batch)], monkeypatch, capsys)
    assert (code, out) == (1, "") and "invalid choice: 'xml'" in err
    solved = tmp_path / "solved.csv"
    solved.write_text(csv_out)
    code, out, _ = run_cli(["verify", str(solved)], monkeypatch, capsys)
    assert code == 0 and out.endswith("1 records, 0 failed\n")

    code, out, _ = run_cli(["--help"], monkeypatch, capsys)
    assert code == 0 and out.startswith("usage: star-solve")
    code, out, _ = run_cli(["solve", str(batch)], monkeypatch, capsys)
    assert (code, out) == (0, csv_out)
    assert len(builds) == 1


# -- verify command -----------------------------------------------------------

def test_verify_accepts_solver_output(tmp_path, monkeypatch, capsys):
    batch = tmp_path / "in.csv"
    batch.write_text("id,u1,u2,u3,psi1,psi2\nm,781.0249675907,700,608.2762530298,,\n")
    code, out, _ = run_cli(["solve", str(batch)], monkeypatch, capsys)
    assert code == 0
    solved = tmp_path / "solved.csv"
    solved.write_text(out)
    code, out, _ = run_cli(["verify", str(solved)], monkeypatch, capsys)
    assert code == 0
    assert "PASS" in out and "0 failed" in out


def test_verify_rejects_edited_solution(tmp_path, monkeypatch, capsys):
    batch = tmp_path / "in.csv"
    batch.write_text("id,u1,u2,u3,psi1,psi2\nm,400,400,400,,\n")
    _, out, _ = run_cli(["solve", str(batch)], monkeypatch, capsys)
    header, row = out.strip().splitlines()
    fields = row.split(",")
    fields[6] = f"{float(fields[6]) * 1.05}"  # +5% on u1p
    edited = tmp_path / "edited.csv"
    edited.write_text(header + "\n" + ",".join(fields) + "\n")
    code, out, _ = run_cli(["verify", str(edited)], monkeypatch, capsys)
    assert code == 2
    assert "FAIL" in out


def test_verify_fails_a_forged_ok_row_that_is_no_triangle(monkeypatch, capsys):
    stdin = SOLUTION_HEADER + "\nm,1,1,3,,,1,1,1,0,ok,\n"
    code, out, _ = run_cli(["verify", "-"], monkeypatch, capsys, stdin_text=stdin)
    assert code == 2
    assert out == ("m: FAIL (cross-check raised: edges (1.0, 1.0, 3.0) violate the "
                   "triangle inequality)\n1 records, 1 failed\n")


def test_verify_empty_file(tmp_path, monkeypatch, capsys):
    empty = tmp_path / "empty.csv"
    empty.write_text("")
    code, out, _ = run_cli(["verify", str(empty)], monkeypatch, capsys)
    assert code == 0
    assert "0 records" in out


# -- synth command ------------------------------------------------------------

def test_synth_deterministic(monkeypatch, capsys):
    code1, out1, _ = run_cli(["synth", "--count", "10", "--seed", "7"],
                             monkeypatch, capsys)
    code2, out2, _ = run_cli(["synth", "--count", "10", "--seed", "7"],
                             monkeypatch, capsys)
    assert code1 == code2 == 0
    assert out1 == out2
    assert len(out1.strip().splitlines()) == 11


def test_synth_bytes_do_not_depend_on_the_python_version(monkeypatch, capsys):
    # The angle draws' normalizer is two plain additions; sum() is compensated
    # from Python 3.12 on, and this row's planted residual then read 0.
    code, out, _ = run_cli(["synth", "--count", "2000", "--seed", "7"], monkeypatch, capsys)
    assert code == 0
    header, *rows = out.splitlines()
    row = next(row for row in rows if row.startswith("synth-7-00006,"))
    assert dict(zip(header.split(","), row.split(",")))["max_residual"] == "1.79302236962e-16"


def test_synth_symmetric_leaves_psi_empty(monkeypatch, capsys):
    code, out, _ = run_cli(["synth", "--count", "1", "--seed", "42", "--symmetric"],
                           monkeypatch, capsys)
    assert code == 0
    header, row = out.strip().splitlines()
    cols = dict(zip(header.split(","), row.split(",")))
    assert cols["psi1"] == "" and cols["psi2"] == ""
    assert cols["status"] == "ok"
    assert float(cols["u1p"]) > 0


@pytest.mark.parametrize("extra", [[], ["--symmetric"]])
def test_synth_lines_are_the_csv_module_bytes(extra, monkeypatch, capsys):
    # A negative seed puts "--" into every id; still no field needs quoting.
    from random import Random

    from starsolve.oracle import random_synthesis_spec, synthesize_triangle

    code, out, _ = run_cli(["synth", "--count", "50", "--seed", "-3", *extra],
                           monkeypatch, capsys)
    assert code == 0
    expected = io.StringIO()
    writer = csv.writer(LineFeedEnded(expected), lineterminator="\r\n")
    writer.writerow(MEASUREMENT_FIELDS + SOLUTION_FIELDS)
    rng = Random(-3)
    for index in range(50):
        spec = random_synthesis_spec(rng, seed=-3, symmetric=bool(extra))
        edges, planted = synthesize_triangle(spec)
        psis = (None, None) if extra else (spec.angles.psi_a, spec.angles.psi_b)
        row = (f"synth--3-{index:05d}", *edges.as_tuple(), *psis,
               *planted.distances(), planted.max_residual, STATUS_OK,
               "planted ground truth")
        writer.writerow([f"{v:.12g}" if isinstance(v, float) else v for v in row])
    assert out == expected.getvalue()


def test_synth_count_validation(monkeypatch, capsys):
    code, _, err = run_cli(["synth", "--count", "0", "--seed", "1"],
                           monkeypatch, capsys)
    assert code == 1


def test_synth_records_all_solvable(monkeypatch, capsys):
    code, out, _ = run_cli(["synth", "--count", "1000", "--seed", "7"],
                           monkeypatch, capsys)
    assert code == 0
    assert len(out.strip().splitlines()) == 1001
    code, out, _ = run_cli(["solve", "-"], monkeypatch, capsys, stdin_text=out)
    assert code == 0
    body = out.strip().splitlines()[1:]
    assert len(body) == 1000
    assert all(",ok," in line for line in body)


# -- pipeline closure ---------------------------------------------------------

@pytest.mark.parametrize("seed, extra", [(42, []), (3, ["--symmetric"])])
def test_pipeline_synth_solve_verify(seed, extra, monkeypatch, capsys):
    code, synth_out, _ = run_cli(
        ["synth", "--count", "25", "--seed", str(seed), *extra], monkeypatch, capsys)
    assert code == 0
    code, solve_out, _ = run_cli(["solve", "-"], monkeypatch, capsys,
                                 stdin_text=synth_out)
    assert code == 0
    assert len(solve_out.strip().splitlines()) == 26
    code, verify_out, _ = run_cli(["verify", "-"], monkeypatch, capsys,
                                  stdin_text=solve_out)
    assert code == 0
    assert "0 failed" in verify_out
