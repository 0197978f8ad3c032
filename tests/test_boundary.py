"""Property tests of the input boundary.

Whatever text arrives on stdin, ``star-solve`` answers with an exit code:
0 or 2 with nothing on stderr, or 1 with exactly one ``line N:`` message.
No traceback escapes, and every row that ``solve`` marks ``ok`` passes
``verify``. The text is generated: random and repeated headers, missing
and extra fields, quoting, CRLF, a byte-order mark, blank lines, huge
integers, ``nan``/``inf`` spellings, booleans and nested values.
"""

from __future__ import annotations

import io
import json
import math
import re
from contextlib import redirect_stderr, redirect_stdout
from decimal import Decimal, localcontext
from random import Random
from unittest import mock

from hypothesis import HealthCheck, assume, example, given, settings, strategies as st

from reference import fermat_distances
from starsolve import PhaseAngles, SynthesisSpec, synthesize_triangle
from starsolve.cli import main, solve_record, verify_record
from starsolve.config import EPS_ANG_DEG, PERIMETER_FLOOR, RESIDUAL_TOL
from starsolve.records import (
    STATUS_ANGLE_GE_120,
    STATUS_INFEASIBLE,
    MeasurementRecord,
    SolutionRecord,
    read_pairs,
)

FIELDS = ("id", "u1", "u2", "u3", "psi1", "psi2")
COLUMNS = st.sampled_from(FIELDS + ("site", "u1p", "status", ""))

# Mostly well-formed rows, so that many solve; one value in eight is a fault.
VOLTAGES = st.floats(min_value=100.0, max_value=400.0)
ANGLES = st.floats(min_value=90.0, max_value=150.0)
HUGE = st.integers(min_value=10**300, max_value=10**400).map(str)
CSV_FAULTS = st.one_of(HUGE, st.text(max_size=6), st.sampled_from([
    "", "nan", "NaN", "-nan", "inf", "-inf", "Infinity", "1e999", "-1", "0",
    "1_000", " 7 ", "true", "{}", "[1, 2]", '"q"']))
JSON_FAULTS = st.one_of(HUGE, st.text(max_size=6).map(json.dumps), st.sampled_from([
    "NaN", "Infinity", "-Infinity", "1e999", "-1", "0", "true", "false", "null",
    "[]", "[400]", '{"u1": 1}', '"400"', '"inf"', '""']))


@st.composite
def record(draw) -> dict[str, object]:
    """A measurement as field values, psi present or absent together."""
    row = {"id": draw(st.text(max_size=6)), "u1": draw(VOLTAGES), "u2": draw(VOLTAGES),
           "u3": draw(VOLTAGES), "site": draw(st.text(max_size=3))}
    if draw(st.booleans()):
        row["psi1"], row["psi2"] = draw(ANGLES), draw(ANGLES)
    return row


def csv_field(value: str, quote: bool) -> str:
    if quote or any(ch in value for ch in ',"\r\n'):
        return '"' + value.replace('"', '""') + '"'
    return value


@st.composite
def csv_text(draw) -> str:
    if draw(st.integers(0, 4)):
        header = list(draw(st.permutations(FIELDS + ("site",))))
    else:
        header = draw(st.lists(COLUMNS, min_size=1, max_size=8))
    quote = draw(st.booleans())
    lines = [",".join(csv_field(name, quote) for name in header)]
    for _ in range(draw(st.integers(0, 4))):
        if draw(st.integers(0, 9)) == 0:
            lines.append("")
            continue
        row = draw(record())
        values = [draw(CSV_FAULTS) if draw(st.integers(0, 7)) == 0 else
                  row.get(name, "") for name in header]
        if draw(st.integers(0, 9)) == 0:  # a field goes missing or one is extra
            values = values[:-1] if draw(st.booleans()) else values + ["1"]
        lines.append(",".join(csv_field(str(v), quote) for v in values))
    return finish(draw, lines)


@st.composite
def jsonl_text(draw) -> str:
    lines = []
    for _ in range(draw(st.integers(1, 4))):
        if draw(st.integers(0, 9)) == 0:
            lines.append(draw(st.sampled_from(["", "[1]", "{", "null"])))
            continue
        row = {key: json.dumps(value) for key, value in draw(record()).items()}
        for key in draw(st.lists(st.sampled_from(FIELDS), max_size=2)):
            row[key] = draw(JSON_FAULTS)
        fields = (f"{json.dumps(key)}: {value}" for key, value in row.items())
        lines.append("{" + ", ".join(fields) + "}")
    return finish(draw, lines)


def finish(draw, lines: list[str]) -> str:
    end = draw(st.sampled_from(["\n", "\r\n"]))
    bom = draw(st.sampled_from(["", "\ufeff"]))
    return bom + "".join(line + end for line in lines)


SETTINGS = settings(max_examples=60, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])
PARSE_MESSAGE = re.compile(r"star-solve: line \d+: [^\n]*\n")


def run(argv: list[str], text: str) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with mock.patch("sys.stdin", io.StringIO(text)), \
            redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def assert_clean_exit(code: int, err: str) -> None:
    assert code in (0, 1, 2)
    if code == 1:
        assert PARSE_MESSAGE.fullmatch(err), err
    else:
        assert err == ""


def assert_ok_rows_verify(solved: str) -> None:
    """Every ok row passes each verify check, and verify reads the output."""
    pairs = list(read_pairs(io.StringIO(solved), "jsonl" if solved.startswith("{")
                            else "csv"))
    for measurement, solution in pairs:
        if solution.solved:
            passed, detail = verify_record(measurement, solution, RESIDUAL_TOL)
            assert passed, (measurement, solution, detail)
    code, out, err = run(["verify", "-"], solved)
    assert code in (0, 2) and err == ""
    assert out.endswith(f"{len(pairs)} records, {out.count(': FAIL (')} failed\n")


@SETTINGS
@given(st.one_of(csv_text(), jsonl_text()))
@example('{"u1": 1' + "0" * 400 + ', "u2": 1, "u3": 1}\n')  # beyond the float range
@example('{"u1": ' + "1" * 5000 + "}\n")  # beyond the int parser's digit limit
@example('{"u1": ' + "[" * 100_000 + "}\n")  # deeper than the JSON parser recurses
@example("id,u1,u2,u3\nm,1," + "1" * 140_000 + ",1\n")  # over the CSV field limit
def test_cli_answers_any_text_with_an_exit_code(text):
    code, out, err = run(["solve", "-"], text)
    assert_clean_exit(code, err)
    if out:  # complete rows, also those written before a parse error
        assert_ok_rows_verify(out)
    assert_clean_exit(*run(["verify", "-"], text)[::2])


@settings(max_examples=10, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1), st.booleans())
def test_synth_solve_verify_closes_for_any_seed(seed, symmetric):
    code, synthesized, _ = run(["synth", "--count", "20", "--seed", str(seed)]
                               + (["--symmetric"] if symmetric else []), "")
    assert code == 0
    code, solved, err = run(["solve", "-"], synthesized)
    assert (code, err) == (0, "")
    code, verified, err = run(["verify", "-"], solved)
    assert (code, err) == (0, "")
    assert verified.endswith("20 records, 0 failed\n")


@st.composite
def near_180_deg_row(draw) -> tuple[float, float, float, float, float]:
    """u1, u2, u3, psi1, psi2 of planted line voltages 10**U(-3, 3) whose
    widest phase difference is 180 deg - 10**U(-3, log10 60), the narrowest
    at least 1 deg."""
    widest = 180.0 - 10.0 ** draw(st.floats(-3.0, math.log10(60.0)))
    rest = 360.0 - widest
    other = draw(st.floats(max(1.0, rest - widest), min(widest, rest - 1.0)))
    psi_a, psi_b, _ = draw(st.permutations((widest, other, rest - other)))
    distances = tuple(10.0 ** draw(st.floats(-3.0, 3.0)) for _ in range(3))
    spec = SynthesisSpec(distances, PhaseAngles(psi_a, psi_b, 360.0 - psi_a - psi_b))
    return (*synthesize_triangle(spec)[0].as_tuple(), psi_a, psi_b)


@SETTINGS
@given(st.lists(near_180_deg_row(), min_size=1, max_size=5))
def test_ok_near_180_deg_rows_verify_from_solve_output(rows):
    text = "id,u1,u2,u3,psi1,psi2\n" + "".join(
        f"r{i}," + ",".join(map(repr, row)) + "\n" for i, row in enumerate(rows))
    code, solved, err = run(["solve", "-"], text)
    assert code in (0, 2) and err == ""
    pairs = list(read_pairs(io.StringIO(solved), "csv"))
    assert [(m.u1, m.u2, m.u3, m.psi1, m.psi2) for m, _ in pairs] == rows
    code, verified, err = run(["verify", "-"], solved)
    assert err == ""
    for (measurement, solution), line in zip(pairs, verified.splitlines()):
        if solution.solved:
            assert line.startswith(f"{measurement.id}: PASS ("), line


@st.composite
def symmetric_row(draw) -> tuple[float, float, float, None, None]:
    """u1, u2, u3 of planted line voltages 10**U(-3, 3) at 120 deg, and no
    psi."""
    distances = tuple(10.0 ** draw(st.floats(-3.0, 3.0)) for _ in range(3))
    spec = SynthesisSpec(distances, PhaseAngles(120.0, 120.0, 120.0))
    return (*synthesize_triangle(spec)[0].as_tuple(), None, None)


def angle_margin(edges: tuple[float, float, float], psis: tuple[float, float, float]
                 ) -> float:
    """min(psi_i - vertex angle_i) in degrees, the vertex across edge i: a
    star point exists iff it is positive (Euclid, Elements I.21 and III.21).
    Each vertex angle is atan2(4 * area, twice the dot product of its
    edges), the area by Kahan's ordering of Heron's formula."""
    a, b, c = edges
    x, y, z = sorted(edges, reverse=True)
    four_area = math.sqrt(max((x + (y + z)) * (z - (x - y)) * (z + (x - y))
                              * (x + (y - z)), 0.0))
    dots = (b * b + c * c - a * a, c * c + a * a - b * b, a * a + b * b - c * c)
    return min(psi - math.degrees(math.atan2(four_area, dot))
               for psi, dot in zip(psis, dots))


@settings(SETTINGS, max_examples=300)
@given(st.one_of(near_180_deg_row(), symmetric_row()))
# Near 180 deg, a closure miss and a barycentric test once wrote these
# infeasible, and verify confirmed them by re-solve.
@example((117.45917376670758, 0.4169475734378701, 117.52180669988361,
          81.26441457577114, 179.9940549532222))
@example((201.5186176131462, 187.6304337638246, 13.956097007978222,
          174.54597026760288, 5.45582565892657))
def test_a_row_with_a_star_point_never_reads_that_none_exists(row):
    """A planted row whose margin exceeds EPS_ANG_DEG solves neither
    infeasible nor angle_ge_120, and verify FAILs a row that says so."""
    *edges, psi1, psi2 = row
    psis = (120.0,) * 3 if psi1 is None else (psi1, psi2, 360.0 - psi1 - psi2)
    assume(angle_margin(edges, psis) > EPS_ANG_DEG)
    m = MeasurementRecord("r", *edges, psi1, psi2)
    _, solution = solve_record(m, RESIDUAL_TOL)
    assert solution.status not in (STATUS_INFEASIBLE, STATUS_ANGLE_GE_120), solution
    for status in (STATUS_INFEASIBLE, STATUS_ANGLE_GE_120):
        claim = SolutionRecord("r", None, None, None, None, status)
        assert not verify_record(m, claim, RESIDUAL_TOL)[0]


def test_reference_recovers_integer_fermat_points():
    """The reference on triangles whose Fermat point is known exactly: at
    distances (195, 264, 325) from the vertices of (511, 455, 399), as
    264^2 + 264 * 325 + 325^2 = 511^2, cyclically; and at 1/sqrt(3) of
    each vertex of the unit equilateral triangle."""
    with localcontext() as ctx:
        ctx.prec = 60
        third = 1 / Decimal(3).sqrt()
    for edges, distances in (((511.0, 455.0, 399.0), (195, 264, 325)),
                             ((1.0, 1.0, 1.0), (third, third, third))):
        for computed, exact in zip(fermat_distances(*edges), distances):
            assert abs(computed - exact) <= Decimal("1e-55") * exact


# A first-order bound on the relative error of a 120-deg distance on a
# needle (1, 1, z), z <= 1e-17, one rounding at most U each (Higham,
# Accuracy and Stability of Numerical Algorithms, 2nd ed., 3.1):
# - cot(120 deg): math.radians rounds twice (pi / 180, then the product),
#   each weighed by the cotangent's condition number
#   2 psi / |sin 2 psi| = 4.84; cos and sin are within an ulp, 2 U each,
#   and their quotient rounds once. All three cotangents carry that one
#   error, and a distance weighs it by at most 1.75, the derivative of its
#   log in the cotangent's log (1.75 at the two near vertices, 1.5 at the
#   far one).
# - Theta^2: at most 10 U in either branch, a square root halving what
#   rounds under it, weighed by 1 at the near vertices and by about z at
#   the far one.
# - the closed form: 21 roundings per distance, under at most one
#   subtraction that cancels, by a factor of at most 3 (the far vertex's
#   denominator, 8/3 - 4/3).
# The short edge's square is below 1e-34 beside the long ones, so what it
# drops from the sums weighs below 0.1 U.
U = 2.0 ** -53
NEEDLE_BOUND = (1.75 * (2 * 4.84 + 2 + 2 + 1) + 10 + 3 * 21) * U


def test_needle_rows_verify_by_the_sign_of_the_area():
    """Needles (1, 1, 10**-e), e = 1 ... 323, in all three rotations, at
    120 deg, (100, 150) and (170, 170) deg: the circle route raises
    "collinear" only on a zero area, so no verdict cites it, and every ok
    row passes verify. Every 120-deg ok row is within the tolerance of the
    60-digit reference, and from e = 17 on, where the short edge's square
    drops out beside the long ones, within NEEDLE_BOUND. Below that the
    closed form cancels on the needle (ROADMAP item 5), so the tolerance
    bounds those rows."""
    angle_sets = {"wide": (170.0, 170.0), "general": (100.0, 150.0), "fermat": None}
    text = "id,u1,u2,u3,psi1,psi2\n"
    for name, angles in angle_sets.items():
        for e in range(1, 324):
            n = 10.0 ** -e
            for r, edges in enumerate(((1.0, 1.0, n), (n, 1.0, 1.0), (1.0, n, 1.0))):
                psis = ",".join(map(repr, angles)) if angles else ","
                text += f"{name}-{e}-{r}," + ",".join(map(repr, edges)) + f",{psis}\n"
    code, solved, err = run(["solve", "-"], text)
    assert code in (0, 2) and err == ""
    pairs = list(read_pairs(io.StringIO(solved), "csv"))
    code, verified, err = run(["verify", "-"], solved)
    assert err == ""
    lines = verified.splitlines()[:-1]
    assert len(lines) == len(pairs) == 3 * 3 * 323
    assert [line for line in lines if "collinear" in line] == []
    checked = 0
    for (measurement, solution), line in zip(pairs, lines):
        if not solution.solved:
            continue
        assert line.startswith(f"{measurement.id}: PASS ("), line
        if measurement.psi1 is None:
            bound = RESIDUAL_TOL if int(measurement.id.split("-")[1]) < 17 else NEEDLE_BOUND
            reference = fermat_distances(measurement.u1, measurement.u2, measurement.u3)
            for claimed, exact in zip((solution.u1p, solution.u2p, solution.u3p), reference):
                assert abs(Decimal(claimed) - exact) <= Decimal(bound) * exact, \
                    (measurement, solution)
            checked += 1
    assert checked > 300


def test_ok_rows_near_a_vertex_verify():
    """The needle family (1, 1 - t z, z), z = 10**-U(1, 16), t = U(0.3,
    0.7), from Random(3), in all three rotations, at 120 deg: the angle
    across the long edge is near 120 deg, so the star point lies near that
    vertex, in a triangle whose area is about z. Every ok row is right to
    PERIMETER_FLOOR of the perimeter of the 60-digit reference, and verify
    PASSes every one. A barycentric gate that divided an error of about u
    by the area refuted 6 of them."""
    rng = Random(3)
    text = "id,u1,u2,u3,psi1,psi2\n"
    for i in range(2000):
        z = 10.0 ** -rng.uniform(1, 16)
        edges = (1.0, 1.0 - rng.uniform(0.3, 0.7) * z, z)
        for r in range(3):
            text += f"n{i}-{r}," + ",".join(map(repr, edges[r:] + edges[:r])) + ",,\n"
    code, solved, err = run(["solve", "-"], text)
    assert code == 2 and err == ""  # the rows wider than 120 deg fail
    pairs = list(read_pairs(io.StringIO(solved), "csv"))
    code, verified, err = run(["verify", "-"], solved)
    assert code == 0 and err == ""
    checked = 0
    for (m, s), line in zip(pairs, verified.splitlines()):
        if not s.solved:
            continue
        floor = Decimal(PERIMETER_FLOOR) * (Decimal(m.u1) + Decimal(m.u2) + Decimal(m.u3))
        for claimed, exact in zip((s.u1p, s.u2p, s.u3p), fermat_distances(m.u1, m.u2, m.u3)):
            assert abs(Decimal(claimed) - exact) <= floor, (m, s)
        assert line.startswith(f"{m.id}: PASS ("), line
        checked += 1
    assert checked > 2500
