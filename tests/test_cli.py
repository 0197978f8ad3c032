"""Tests for record parsing and the command-line pipeline."""

from __future__ import annotations

import io
import json
import math
import os
import re
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from conftest import E1_DISTANCES, E1_EDGES
from starsolve import circuit, cli
from starsolve.cli import main, solve_record, verify_record
from starsolve.fermat import fermat_distances_closed_form
from starsolve.general import general_solve_by_circles
from starsolve.geometry import PhaseAngles, PlaneVector, StarSolution
from starsolve.records import (
    STATUS_ANGLE_GE_120,
    STATUS_INCONSISTENT,
    STATUS_INTERNAL_ERROR,
    STATUS_OK,
    MeasurementRecord,
    ParseError,
    SolutionRecord,
    combined_row,
    detect_format,
    parse_measurement,
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
    with pytest.raises(ParseError):
        parse_measurement({"id": "x", "u1": 1, "u2": 1, "u3": 1, "psi1": 115}, 1)


def test_parse_missing_voltage():
    with pytest.raises(ParseError):
        parse_measurement({"id": "x", "u1": 1, "u2": 1}, 5)


def test_detect_format():
    assert detect_format('{"id": "a"}') == "jsonl"
    assert detect_format("id,u1,u2\n") == "csv"


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
    assert code == 1
    assert err.startswith("star-solve: line 1: field 'u1' is not a number")


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


def test_carriage_return_in_a_field_is_quoted_on_output(monkeypatch, capsys):
    stdin = 'id,u1,u2,u3\n"a\rb",400,400,400\n'
    code, out, _ = run_cli(["solve", "-"], monkeypatch, capsys, stdin_text=stdin)
    assert code == 0 and out.split("\n")[1].startswith('"a\rb",400,')
    code, out, _ = run_cli(["verify", "-"], monkeypatch, capsys, stdin_text=out)
    assert code == 0 and out.endswith("1 records, 0 failed\n")


NOT_UTF8 = b"id,u1,u2,u3\nm\xff,400,400,400\n"
LONE_SURROGATE = b'{"id": "\\ud800", "u1": 400, "u2": 400, "u3": 400}\n'
ONE_PARSE_MESSAGE = re.compile(r"star-solve: line \d+: [^\n]*\n")


@pytest.mark.parametrize("data, message", [
    (NOT_UTF8, "line 2: byte 0xff is not UTF-8"),
    (LONE_SURROGATE, r"line 1: string '\ud800': lone surrogate U+D800 is not text"),
], ids=["not-utf8", "lone-surrogate"])
@pytest.mark.parametrize("command", ["solve", "verify"])
@pytest.mark.parametrize("source", ["file", "stdin"])
def test_input_that_is_not_text_is_parse_error(data, message, command, source,
                                                tmp_path, monkeypatch, capsys):
    path = tmp_path / "in.txt"
    path.write_bytes(data)
    if source == "stdin":
        # Standard input as Python sets it up in UTF-8 mode.
        monkeypatch.setattr("sys.stdin", io.TextIOWrapper(
            io.BytesIO(data), encoding="utf-8", errors="surrogateescape"))
    code, out, err = run_cli([command, str(path) if source == "file" else "-"],
                             monkeypatch, capsys)
    assert (code, out, err) == (1, "", f"star-solve: {message}\n")


@pytest.mark.parametrize("utf8_mode", ["0", "1"])
@pytest.mark.parametrize("data", [NOT_UTF8, LONE_SURROGATE],
                         ids=["not-utf8", "lone-surrogate"])
@pytest.mark.parametrize("source", ["file", "stdin"])
def test_input_that_is_not_text_fails_alike_in_any_utf8_mode(utf8_mode, data, source,
                                                            tmp_path):
    path = tmp_path / "in.txt"
    path.write_bytes(data)
    src = Path(__file__).resolve().parent.parent / "src"
    env = {**os.environ, "PYTHONUTF8": utf8_mode,
           "PYTHONPATH": os.pathsep.join(filter(None, [str(src),
                                                       os.environ.get("PYTHONPATH")]))}
    done = subprocess.run(
        [sys.executable, "-m", "starsolve.cli", "solve",
         str(path) if source == "file" else "-"],
        input=data if source == "stdin" else b"", capture_output=True, env=env,
        timeout=60)
    assert (done.returncode, done.stdout) == (1, b"")
    assert ONE_PARSE_MESSAGE.fullmatch(done.stderr.decode()), done.stderr


def test_explicit_120_deg_row_decides_like_empty_psi(monkeypatch, capsys):
    stdin = "id,u1,u2,u3,psi1,psi2\nw,1,1,1.9,120,120\nw,1,1,1.9,,\n"
    code, out, _ = run_cli(["solve", "-"], monkeypatch, capsys, stdin_text=stdin)
    assert code == 2
    (_, explicit), (_, empty) = read_pairs(out.splitlines(keepends=True), "csv")
    assert explicit.status == empty.status == STATUS_ANGLE_GE_120
    assert explicit.diagnostics == empty.diagnostics


def test_verify_runs_distance_sum_oracle_on_explicit_120_deg(monkeypatch):
    calls = []
    minimize = cli.minimize_distance_sum
    monkeypatch.setattr(cli, "minimize_distance_sum",
                        lambda t: calls.append(t) or minimize(t))
    m = MeasurementRecord("e1", *E1_EDGES.as_tuple(), 120.0, 120.0)
    s = SolutionRecord("e1", *E1_DISTANCES, 0.0, STATUS_OK)
    assert verify_record(m, s, 1e-8)[0]
    assert len(calls) == 1


def test_circle_mismatch_message_shows_both_values(monkeypatch):
    def nudged(t, angles):
        solution = general_solve_by_circles(t, angles)
        return replace(solution, a_prime=solution.a_prime * (1.0 + 1e-7))

    monkeypatch.setattr(cli, "general_solve_by_circles", nudged)
    m = MeasurementRecord("e1", *E1_EDGES.as_tuple())
    s = SolutionRecord("e1", *E1_DISTANCES, 0.0, STATUS_OK)
    passed, detail = verify_record(m, s, 1e-8)
    recomputed = nudged(E1_EDGES, PhaseAngles(120.0, 120.0, 120.0)).a_prime
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


def _faulty_kernel(original, bad_edge, fault):
    """``original`` with ``fault`` (an exception type, or a callable that
    builds the solver's answer) injected for edges whose ``a`` is ``bad_edge``."""
    def kernel(t, *args):
        if t.a != bad_edge:
            return original(t, *args)
        if isinstance(fault, type):
            raise fault("injected fault")
        return fault(t)
    return kernel


# The 3-4-5 triangle at 120 deg, between two good rows; the 120-deg kernel
# raises on it.
@pytest.mark.parametrize("raised", [ZeroDivisionError, OverflowError])
def test_solve_batch_survives_internal_error(tmp_path, monkeypatch, capsys, raised):
    u1, u2, u3 = E1_EDGES.as_tuple()
    monkeypatch.setattr(circuit, "fermat_distances_closed_form",
                        _faulty_kernel(fermat_distances_closed_form, u1, raised))
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
    monkeypatch.setattr(cli, "general_solve_by_circles",
                        _faulty_kernel(general_solve_by_circles, E1_EDGES.a,
                                       ZeroDivisionError))
    monkeypatch.setattr(circuit, "fermat_distances_closed_form",
                        _faulty_kernel(fermat_distances_closed_form, E1_EDGES.a,
                                       ZeroDivisionError))
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

    def nan_answer(t):
        nan = math.nan
        return StarSolution(nan, nan, nan, PlaneVector(nan, nan), (nan, nan, nan))

    monkeypatch.setattr(circuit, "fermat_distances_closed_form",
                        _faulty_kernel(fermat_distances_closed_form, u1, nan_answer))
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


def test_synth_symmetric_leaves_psi_empty(monkeypatch, capsys):
    code, out, _ = run_cli(["synth", "--count", "1", "--seed", "42", "--symmetric"],
                           monkeypatch, capsys)
    assert code == 0
    header, row = out.strip().splitlines()
    cols = dict(zip(header.split(","), row.split(",")))
    assert cols["psi1"] == "" and cols["psi2"] == ""
    assert cols["status"] == "ok"
    assert float(cols["u1p"]) > 0


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


def test_combined_row_echoes_measurement():
    m = MeasurementRecord("m", 1.0, 1.0, 1.0, None, None, {"site": "x"})
    s = SolutionRecord("m", 0.5, 0.5, 0.5, 1e-16, STATUS_OK, "")
    row = combined_row(m, s)
    assert row["u1"] == 1.0 and row["u1p"] == 0.5 and row["site"] == "x"
