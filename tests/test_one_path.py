"""Property tests that pin the solve path to one code path.

``cli.solve_record`` runs a measurement through the float kernel that the
library's value types wrap, so it must return, bit for bit, what the
library route returns: ``solve_general_star`` or ``solve_symmetric_star``
at their ``RESIDUAL_TOL``, the kernel on the value types' invariants at
another tolerance, plus the status mapping written out below.
``cli.verify_record`` checks a row on the same floats, and
``circuit.verify_solution`` a claim on the value types, by one kernel, so
each verdict must be the one the value types' closure defects and circle
route give, in the messages written out below.
``RowWriter.write_solution`` writes a row through its stream's line
template and quotes its own CSV fields, so it must write the bytes that
the csv module writes through ``LineFeedEnded``, or that ``json.dumps``
writes, for any record the readers can make: a text id, finite numbers
and metadata that names no record field.
``kernel.line_voltage_kernel`` decides by ``kernel.check_interior_point``
whether a star point exists before it evaluates the closed form, so it
must return, bit for bit, what that predicate written out vertex by vertex
and the kept helpers return when called one after another, and the
invariant kernels what their written-out references return.
``kernel.circle_distances`` relabels the triangle by comparisons and
writes vertex A and the circles out in its frame, so it must return what
the route rotated by tuple slices, through the law of cosines and
``reference_chord_circles``, returns. The oracle's synthesis wraps the
float entries of ``oracle_kernel``, so each function must return, bit for
bit, what its entry returns, and draw from the generator as it does.
``oracle.minimize_distance_sum`` sums f(X) over the distances of its
first pass and forms the Hessian only when the certificate fails, so it
must return, bit for bit, what the route that sums f in a pass of its own
and forms every derivative in one pass returns. ``read_measurements`` and
``read_pairs`` convert a row's numbers together, so they must return what
a field-by-field conversion returns, or raise its error, and only records
of the kind the writer takes.
"""

from __future__ import annotations

import csv
import io
import json
import math
from random import Random

from hypothesis import HealthCheck, example, given, settings, strategies as st

from conftest import LineFeedEnded, combined_row
from starsolve import (
    AngleAtLeast120,
    AngleOutOfRange,
    ConcentricCircles,
    DegenerateTriangle,
    InfeasibleConfiguration,
    LineVoltages,
    NoConvergence,
    NoInteriorIntersection,
    NotATriangle,
    PhaseAngles,
    PhaseToPhaseVoltages,
    StarSolveError,
    SynthesisSpec,
    TriangleEdges,
    UnresolvedConfiguration,
    general_solve_by_circles,
    minimize_distance_sum,
    random_synthesis_spec,
    solve_general_star,
    solve_symmetric_star,
    synthesize_triangle,
    validate_angles,
    verify_solution,
)
from starsolve.cli import solve_record, verify_record
from starsolve.config import EPS_ANG_DEG, EPS_TRI_COEFF, PERIMETER_FLOOR, RESIDUAL_TOL
from starsolve.kernel import (
    _joint_vertex_distance,
    angle_invariants,
    circle_distances,
    closure_defects,
    edge_invariants,
    line_voltage_kernel,
)
from starsolve.oracle import _ROUNDING_SLACK, GAP_CERTIFICATE, _embed_for_oracle
from starsolve.oracle_kernel import planted_draw, planted_edges
from starsolve.records import (
    MEASUREMENT_FIELDS,
    SOLUTION_FIELDS,
    STATUS_ANGLE_GE_120,
    STATUS_INCONSISTENT,
    STATUS_INFEASIBLE,
    STATUS_OK,
    STATUS_UNRESOLVED,
    MeasurementRecord,
    ParseError,
    RowWriter,
    SolutionRecord,
    _json_rows,
    _not_text,
    _rows,
    read_measurements,
    read_pairs,
)

SETTINGS = settings(max_examples=300, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])

DISTANCE = st.floats(min_value=0.01, max_value=10.0)
SCALE = st.sampled_from([1.0, 3.7, 2.0 ** -600, 1e-150, 1e150])


def library_record(m: MeasurementRecord, tolerance: float) -> SolutionRecord:
    """The library route: the value types, the solver, the CLI's status
    mapping. The solvers accept on ``RESIDUAL_TOL``; at another tolerance
    the route hands the kernel the value types' invariants itself."""
    try:
        u = PhaseToPhaseVoltages(m.u1, m.u2, m.u3)
        if tolerance == RESIDUAL_TOL:
            if m.psi1 is not None:
                lv = solve_general_star(u, m.psi1, m.psi2)
            else:
                lv = solve_symmetric_star(u)
        else:
            angles = validate_angles(*((m.psi1, m.psi2) if m.psi1 is not None
                                       else (120.0, 120.0)))
            distances, residuals, notes = line_voltage_kernel(
                u.to_edges().invariants, angles.invariants, tolerance)
            lv = LineVoltages(*distances, notes, residuals)
    except AngleAtLeast120 as exc:
        return SolutionRecord(m.id, None, None, None, None, STATUS_ANGLE_GE_120, str(exc))
    except (NotATriangle, AngleOutOfRange) as exc:
        return SolutionRecord(m.id, None, None, None, None, STATUS_INCONSISTENT, str(exc))
    except UnresolvedConfiguration as exc:
        return SolutionRecord(m.id, None, None, None, None, STATUS_UNRESOLVED, str(exc))
    except StarSolveError as exc:
        return SolutionRecord(m.id, None, None, None, None, STATUS_INFEASIBLE, str(exc))
    return SolutionRecord(m.id, lv.u1p, lv.u2p, lv.u3p, max(lv.residuals), STATUS_OK,
                          "; ".join(lv.diagnostics))


def bits(record: SolutionRecord) -> tuple:
    """The record with every float as its exact hex text, so that -0.0 and
    0.0 differ."""
    return tuple(v.hex() if isinstance(v, float) else v for v in record)


@st.composite
def planted(draw) -> tuple:
    """Edges and angles of a planted interior point: mostly ok rows, and
    infeasible ones where the point sits near a side."""
    psi_a = draw(st.floats(min_value=60.0, max_value=179.0))
    psi_b = draw(st.floats(min_value=181.0 - psi_a, max_value=179.0))
    distances = (draw(DISTANCE), draw(DISTANCE), draw(DISTANCE))
    edges, _ = synthesize_triangle(
        SynthesisSpec(distances, PhaseAngles(psi_a, psi_b, 360.0 - psi_a - psi_b)))
    return edges.as_tuple(), (psi_a, psi_b)


@st.composite
def symmetric(draw) -> tuple:
    """A planted 120-deg row, psi empty or written out."""
    distances = (draw(DISTANCE), draw(DISTANCE), draw(DISTANCE))
    edges, _ = synthesize_triangle(SynthesisSpec(distances, PhaseAngles(120.0, 120.0, 120.0)))
    return edges.as_tuple(), draw(st.sampled_from([None, (120.0, 120.0)]))


@st.composite
def wide(draw) -> tuple:
    """A 120-deg row whose triangle has an angle of 120 deg or more."""
    x, y = draw(DISTANCE), draw(DISTANCE)
    gamma = math.radians(draw(st.floats(min_value=119.0, max_value=179.9)))
    z = math.sqrt(x * x + y * y - 2.0 * x * y * math.cos(gamma))
    return (x, y, z), draw(st.sampled_from([None, (120.0, 120.0)]))


@st.composite
def no_triangle(draw) -> tuple:
    """Edges that break the triangle inequality, or one that is not positive."""
    x, y = draw(DISTANCE), draw(DISTANCE)
    z = draw(st.one_of(st.floats(min_value=1.01, max_value=5.0).map(lambda k: k * (x + y)),
                       st.sampled_from([0.0, -1.0])))
    return draw(st.permutations((x, y, z))), draw(st.sampled_from([None, (100.0, 130.0)]))


@st.composite
def bad_angles(draw) -> tuple:
    """A triangle seen under angles outside (0, 180) or not summing to 360."""
    psi1 = draw(st.one_of(st.floats(min_value=-90.0, max_value=0.0),
                          st.floats(min_value=180.0, max_value=400.0),
                          st.floats(min_value=1.0, max_value=179.0)))
    psi2 = draw(st.floats(min_value=180.0 - psi1 if psi1 < 180.0 else 1.0, max_value=400.0))
    return (3.0, 4.0, 5.0), (psi1, psi2)


@st.composite
def any_edges_and_angles(draw) -> tuple:
    """Random edges and angles: mostly infeasible or inconsistent."""
    edges = (draw(DISTANCE), draw(DISTANCE), draw(DISTANCE))
    psi1 = draw(st.floats(min_value=2.0, max_value=179.0))
    psi2 = draw(st.floats(min_value=181.0 - psi1, max_value=179.0))
    return edges, (psi1, psi2)


MEASUREMENTS = st.one_of(planted(), symmetric(), wide(), no_triangle(), bad_angles(),
                         any_edges_and_angles())


@SETTINGS
@given(MEASUREMENTS, SCALE, st.sampled_from([RESIDUAL_TOL, 1e-14, 1e-3]))
def test_solve_record_is_the_library_route_bit_for_bit(case, scale, tolerance):
    (u1, u2, u3), psi = case
    m = MeasurementRecord("m", u1 * scale, u2 * scale, u3 * scale,
                          *(psi or (None, None)))
    returned, solution = solve_record(m, tolerance)
    assert returned is m
    assert bits(solution) == bits(library_record(m, tolerance))


def library_verdict(m: MeasurementRecord, s: SolutionRecord,
                    tolerance: float) -> tuple[bool, str]:
    """The library route of a verify row: for a failure row the re-solve
    above and, where the status says that no star point exists, the margin
    by which the viewing angles exceed the vertex angles across, each
    vertex angle from twice the area and twice the dot product of its
    edges; else the closure defects and the circle route, at any angle; all
    on the value types' invariants, and none through ``verify_solution``,
    which is checked against it."""
    psi = (m.psi1, m.psi2) if m.psi1 is not None else (120.0, 120.0)
    if not s.solved:
        fresh = library_record(m, tolerance)
        if fresh.status != s.status:
            return False, (f"recorded status {s.status!r} but re-solve "
                           f"produced {fresh.status!r}")
        if s.status in (STATUS_INFEASIBLE, STATUS_ANGLE_GE_120):
            try:
                t = PhaseToPhaseVoltages(m.u1, m.u2, m.u3).to_edges()
                angles = validate_angles(*psi)
            except DegenerateTriangle:
                return True, f"failure status {s.status!r} confirmed by re-solve"
            _, _, (a2, b2, c2), theta_sq = t.invariants
            dots = (b2 + c2 - a2, c2 + a2 - b2, a2 + b2 - c2)
            margin = min(viewing - math.degrees(math.atan2(theta_sq, dot))
                         for viewing, dot in zip(angles.as_tuple(), dots))
            if margin > EPS_ANG_DEG:
                return False, (f"recorded status {s.status!r} but an interior "
                               f"point exists: angle margin {margin:.3e} deg")
        return True, f"failure status {s.status!r} confirmed by re-solve"
    try:
        t = PhaseToPhaseVoltages(m.u1, m.u2, m.u3).to_edges()
        angles = validate_angles(*psi)
        claim = (s.u1p, s.u2p, s.u3p)
        (k, (ua, ub, uc), unit_sq, _), (_, _, cos) = t.invariants, angles.invariants
        try:
            defects = closure_defects(unit_sq, cos, tuple(math.ldexp(d, -k) for d in claim))
        except OverflowError:  # beyond the float range on the unit triangle
            defects = (math.inf, math.inf, math.inf)
        if not all(defect <= tolerance for defect in defects):
            worst = math.nan if any(map(math.isnan, defects)) else max(defects)
            return False, f"closure residual {worst:.3e} exceeds tolerance {tolerance:g}"
        floor = math.ldexp(PERIMETER_FLOOR * (ua + ub + uc), k)
        circle = general_solve_by_circles(t, angles)
        for name, given, recomputed in zip(("u1p", "u2p", "u3p"), claim,
                                           circle.distances()):
            if abs(given - recomputed) > max(tolerance * max(given, recomputed), floor):
                return False, (f"{name}={given!r} disagrees with circle-path "
                               f"value {recomputed!r}")
    except StarSolveError as exc:
        return False, f"cross-check raised: {exc}"
    return True, f"max residual {max(defects):.3e}"


@st.composite
def claimed(draw) -> tuple:
    """A planted row, general or at 120 deg (psi empty or written out), and
    its planted distances, some of them now and then pushed off by a
    relative step that fails the closure, the circle re-solve or the
    distance-sum check, depending on the tolerance. A point near a
    terminal moves the closure little when its short distance is pushed
    off, so the circle re-solve is the check that fails it."""
    distances = (draw(DISTANCE), draw(DISTANCE), draw(DISTANCE))
    near = draw(st.sampled_from([None, 0, 1, 2]))
    if near is None:
        signs = draw(st.tuples(*[st.sampled_from([-1.0, 0.0, 1.0])] * 3))
    else:
        distances = tuple(d * 1e-3 if i == near else d for i, d in enumerate(distances))
        signs = tuple(float(i == near) for i in range(3))
    if draw(st.booleans()):
        psi_a = draw(st.floats(min_value=60.0, max_value=179.0))
        psi_b = draw(st.floats(min_value=181.0 - psi_a, max_value=179.0))
        psi = (psi_a, psi_b)
        angles = PhaseAngles(psi_a, psi_b, 360.0 - psi_a - psi_b)
    else:
        psi = draw(st.sampled_from([None, (120.0, 120.0)]))
        angles = PhaseAngles(120.0, 120.0, 120.0)
    edges, _ = synthesize_triangle(SynthesisSpec(distances, angles))
    step = draw(st.sampled_from([0.0, 1e-15, 1e-12, 1e-9, 1e-6, 1e-4, 1e-2]))
    claim = tuple(d * (1.0 + sign * step) for d, sign in zip(distances, signs))
    return edges.as_tuple(), psi, claim


@st.composite
def failure_rows(draw) -> tuple:
    """A row whose solve fails or succeeds, recorded with the failure status
    a re-solve gives, or with another."""
    edges, psi = draw(MEASUREMENTS)
    status = draw(st.sampled_from([None, STATUS_INFEASIBLE, STATUS_INCONSISTENT,
                                   STATUS_ANGLE_GE_120, STATUS_UNRESOLVED]))
    return edges, psi, status


@SETTINGS
@given(st.one_of(claimed(), failure_rows()), SCALE,
       st.sampled_from([RESIDUAL_TOL, 1e-14, 1e-3]))
# A claim 2**1000 times the solution: its squares overflow on the unit
# triangle, and its residuals are inf on both routes.
@example(((3.0, 4.0, 5.0), None,
          tuple(math.ldexp(d, 1000) for d in
                solve_symmetric_star(PhaseToPhaseVoltages(3.0, 4.0, 5.0)).as_tuple())),
         1.0, RESIDUAL_TOL)
def test_verify_record_is_the_library_route(case, scale, tolerance):
    (u1, u2, u3), psi, claim = case
    m = MeasurementRecord("m", u1 * scale, u2 * scale, u3 * scale,
                          *(psi or (None, None)))
    if isinstance(claim, tuple):
        s = SolutionRecord("m", *(d * scale for d in claim), 0.0, STATUS_OK)
    else:  # a failure row: the status solve gives, unless one is drawn
        _, solved = solve_record(m, tolerance)
        s = solved._replace(u1p=None, u2p=None, u3p=None, max_residual=None,
                            status=claim or solved.status)
        if s.solved:
            s = s._replace(status=STATUS_INFEASIBLE)
    expected = library_verdict(m, s, tolerance)
    assert verify_record(m, s, tolerance) == expected
    if s.solved:
        report = verify_solution(PhaseToPhaseVoltages(m.u1, m.u2, m.u3),
                                 LineVoltages(s.u1p, s.u2p, s.u3p),
                                 validate_angles(*((m.psi1, m.psi2) if m.psi1 is not None
                                                   else (120.0, 120.0))), tolerance)
        assert (report.passed, report.detail) == expected


# Text as the readers give it, without a NUL, now and then with one of the
# characters that decide CSV quoting or that JSON escapes.
PLAIN_TEXT = st.text(st.characters(exclude_characters=',"\r\n\x00'), max_size=6)
TEXT = st.one_of(PLAIN_TEXT, PLAIN_TEXT, st.tuples(
    PLAIN_TEXT, st.sampled_from(',"\r\n\\\x1f\xfc\u2028'), PLAIN_TEXT).map("".join))
# Any value JSON-lines metadata can hold, NaN included.
META_VALUE = st.one_of(TEXT, st.none(), st.integers(), st.floats(), st.booleans(),
                       st.lists(st.integers(), max_size=2))
# A metadata key: any text but a record field's name.
META_KEY = st.one_of(st.sampled_from(["site", "note"]), TEXT).filter(
    lambda key: key not in MEASUREMENT_FIELDS + SOLUTION_FIELDS)
NUMBER = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def solved_rows(draw) -> list[tuple[MeasurementRecord, SolutionRecord]]:
    """Rows as the readers and ``solve_record`` make them: a text id,
    finite numbers, or None on a failure row, and metadata keys that name
    no record field."""
    keys = draw(st.lists(META_KEY, max_size=3, unique=True))
    # Text alone, or any value now and then.
    values = draw(st.sampled_from([TEXT, META_VALUE]))
    rows = []
    for _ in range(draw(st.integers(1, 4))):
        rec_id = draw(TEXT)
        psi = draw(st.one_of(st.none(), st.tuples(NUMBER, NUMBER)))
        # Each row's keys in its own order; the first row's fix the CSV header.
        meta = {key: draw(values) for key in draw(st.permutations(keys))
                if draw(st.integers(0, 5))}
        m = MeasurementRecord(rec_id, draw(NUMBER), draw(NUMBER), draw(NUMBER),
                              *(psi or (None, None)), meta)
        if draw(st.booleans()):
            s = SolutionRecord(rec_id, draw(NUMBER), draw(NUMBER), draw(NUMBER),
                               draw(NUMBER), STATUS_OK, draw(TEXT))
        else:
            s = SolutionRecord(rec_id, None, None, None, None, STATUS_INFEASIBLE,
                               draw(TEXT))
        rows.append((m, s))
    return rows


def text_row(rec_id: str, u1: float, meta: dict) -> tuple:
    """An ok row with the given metadata."""
    return (MeasurementRecord(rec_id, u1, 4.0, 5.0, meta=meta),
            SolutionRecord(rec_id, 1.5, 2.5, 3.5, 0.0, STATUS_OK))


@SETTINGS
@given(solved_rows())
@example([text_row("a", 3.0, {"site": "x", "note": "y"}),
          text_row("b", 3.0, {"note": "z", "site": "w"})])
@example([text_row('a,"b"', 3.0, {"site": "two\nlines", "note": [1]}),
          text_row("c", 3.0, {"note": math.nan, "site": "cr\r"})])
@example([text_row("a", 3.0, {'feeder,"bay"': "x", "site": [1, 2]})])
@example([(MeasurementRecord("cr\rid", 1.0, 1.0, 1.9),
           SolutionRecord("cr\rid", None, None, None, None, STATUS_ANGLE_GE_120,
                          "F1\rB2"))])
def test_csv_lines_are_the_csv_module_bytes(rows):
    expected = io.StringIO()
    by_csv_module = csv.writer(LineFeedEnded(expected), lineterminator="\r\n")
    fields = tuple(combined_row(*rows[0]))
    by_csv_module.writerow(fields)
    stream = io.StringIO()
    writer = RowWriter(stream, "csv")
    for m, s in rows:
        row = combined_row(m, s)
        by_csv_module.writerow([json.dumps(v) if type(v) in (dict, list, bool) else v
                                for v in map(row.get, fields)])
        writer.write_solution(m, s)
    assert stream.getvalue() == expected.getvalue()


@SETTINGS
@given(solved_rows())
@example([text_row("Z\xfcrich\\", 3.0, {"site": "\x1f\u2028"}),
          text_row("a", 3.0, {"n": 3, "flag": True, "gap": None, "list": [1],
                              "x": math.nan})])
def test_json_lines_are_the_json_module_bytes(rows):
    stream = io.StringIO()
    writer = RowWriter(stream, "jsonl")
    for m, s in rows:
        writer.write_solution(m, s)
    assert stream.getvalue() == "".join(json.dumps(combined_row(m, s)) + "\n"
                                        for m, s in rows)


def reference_number(value: object, key: str, line_no: int,
                     required: bool = True) -> float | None:
    """A field as a finite float, converted on its own; an absent one (None,
    empty or only whitespace) is an error if ``required``, else None."""
    if value is not None and value != "":
        try:
            number = float(value)
        except OverflowError:  # an integer beyond the float range
            raise ParseError(line_no, f"field {key!r} is not finite: {value!r}") from None
        except (TypeError, ValueError):
            if not (isinstance(value, str) and value.isspace()):
                raise ParseError(line_no, f"field {key!r} is not a number: "
                                          f"{value!r}") from None
        else:
            if not math.isfinite(number):
                raise ParseError(line_no, f"field {key!r} is not finite: {value!r}")
            return number
    if required:
        raise ParseError(line_no, f"missing required field {key!r}")
    return None


def reference_measurement(line_no, rec_id, u1, u2, u3, psi1, psi2, meta):
    """A measurement converted field by field, in field order."""
    rec_id = f"record-{line_no}" if rec_id is None or rec_id == "" else str(rec_id)
    u1 = reference_number(u1, "u1", line_no)
    u2 = reference_number(u2, "u2", line_no)
    u3 = reference_number(u3, "u3", line_no)
    psi1 = reference_number(psi1, "psi1", line_no, required=False)
    psi2 = reference_number(psi2, "psi2", line_no, required=False)
    if (psi1 is None) != (psi2 is None):
        raise ParseError(line_no, "psi1 and psi2 must both be present or both absent")
    return MeasurementRecord(rec_id, u1, u2, u3, psi1, psi2, meta)


def reference_solution(line_no, rec_id, u1p, u2p, u3p, max_residual, status, diagnostics):
    """A solution converted field by field, in field order; None when the
    row carries no voltages and no status."""
    u1p = reference_number(u1p, "u1p", line_no, required=False)
    u2p = reference_number(u2p, "u2p", line_no, required=False)
    u3p = reference_number(u3p, "u3p", line_no, required=False)
    max_residual = reference_number(max_residual, "max_residual", line_no, required=False)
    status = str(status or "").strip()
    if u1p is None and u2p is None and u3p is None and not status:
        return None
    if (u1p is None or u2p is None or u3p is None) and status in ("", STATUS_OK):
        raise ParseError(line_no, "incomplete solution: u1p, u2p, u3p required")
    return SolutionRecord(rec_id, u1p, u2p, u3p, max_residual, status or STATUS_OK,
                          str(diagnostics or ""))


def reference_measurements(lines: list, fmt: str) -> list:
    return [reference_measurement(line_no, *values, meta)
            for line_no, values, meta in _rows(lines, fmt, MEASUREMENT_FIELDS)]


def reference_pairs(lines: list, fmt: str) -> list:
    pairs = []
    for line_no, values, meta in _rows(lines, fmt, MEASUREMENT_FIELDS + SOLUTION_FIELDS):
        m = reference_measurement(line_no, *values[:6], meta)
        pairs.append((m, reference_solution(line_no, m.id, *values[6:])))
    return pairs


def as_read(records) -> tuple:
    """The records, a pair's two in turn, each as its class and its fields
    with every float as its exact hex text."""
    flat = []
    for record in records:
        flat.extend(record if type(record) is tuple else (record,))
    return tuple((type(r), hexed(tuple(r))) if r is not None else None for r in flat)


# A field as (CSV text, JSON text); a JSON text of None leaves the key out.
ABSENT = st.sampled_from([("", None), ("", "null"), ("", '""'), ("  ", '" "')])
FINITE = st.floats(allow_nan=False, allow_infinity=False)
INTEGER = st.integers(-10 ** 20, 10 ** 20)
NUMBER_FIELD = st.one_of(
    FINITE.map(lambda x: (repr(x), repr(x))),
    FINITE.map(lambda x: (f" {x!r} ", json.dumps(f" {x!r} "))),
    INTEGER.map(lambda i: (str(i), str(i))),
    INTEGER.map(lambda i: (str(i), json.dumps(str(i)))))
# A number field that is absent, not finite or not a number.
ODD_FIELD = st.one_of(ABSENT, st.sampled_from([
    ("nan", "NaN"), ("inf", "Infinity"), ("-inf", '"-inf"'), ("1e400", "1e400"),
    ("1" + "0" * 400, "1" + "0" * 400), ("x", '"x"'), ("1.5", "[1.5]")]))
STATUS_FIELD = st.sampled_from([(" ok ", '" ok "'), ("ok", '"ok"'), ("", '""'), ("", None),
                                ("0", "0"), ("5", "5"), ("infeasible", '"infeasible"')])
TEXT_FIELDS = {
    "id": st.sampled_from([("m", '"m"'), ("7", "7"), ("", '""'), ("", None)]),
    "diagnostics": st.sampled_from([("0", "0"), ("false", "false"), ("", '""'),
                                    ("", None), ("", "null"), ("note", '"note"')]),
}


@st.composite
def record_row(draw) -> dict:
    """A row's fields: numbers, psi present or absent, and a solution that
    is complete, a failure's or none. Now and then one number field is odd:
    absent, which leaves a lone psi or an incomplete solution, or not a
    finite number."""
    row = {key: draw(NUMBER_FIELD) for key in ("u1", "u2", "u3", "psi1", "psi2")}
    row.update((key, draw(strategy)) for key, strategy in TEXT_FIELDS.items())
    if draw(st.booleans()):
        row["psi1"], row["psi2"] = draw(ABSENT), draw(ABSENT)
    solution = ("u1p", "u2p", "u3p", "max_residual")
    shape = draw(st.sampled_from(["solved", "solved", "failure", "none"]))
    row.update((key, draw(NUMBER_FIELD if shape == "solved" else ABSENT)) for key in solution)
    if shape == "solved" and draw(st.booleans()):
        row["max_residual"] = draw(ABSENT)
    row["status"] = (draw(STATUS_FIELD) if shape != "failure"
                     else draw(st.sampled_from([("infeasible", '"infeasible"'),
                                                (" angle_ge_120", '" angle_ge_120"')])))
    odd = draw(st.one_of(st.none(), st.sampled_from(MEASUREMENT_FIELDS[1:] + solution)))
    if odd is not None:
        row[odd] = draw(ODD_FIELD)
    return row


@st.composite
def record_lines(draw) -> tuple[list, str]:
    """One to three rows as CSV, now and then a column left out of the
    header, or as JSON lines, with a metadata field each."""
    fmt = draw(st.sampled_from(["csv", "jsonl"]))
    fields = MEASUREMENT_FIELDS + SOLUTION_FIELDS
    rows = draw(st.lists(record_row(), min_size=1, max_size=3))
    if fmt == "csv":
        header = [key for key in fields if draw(st.integers(0, 15))]
        return [",".join(header + ["site"]) + "\n"] + [
            ",".join([row[key][0] for key in header] + ["s"]) + "\n" for row in rows], fmt
    return ["{" + "".join(f'"{key}": {row[key][1]}, ' for key in fields
                          if row[key][1] is not None) + '"site": "s"}\n' for row in rows], fmt


@SETTINGS
@given(record_lines())
# A psi of only whitespace is absent, and a lone psi an error; psi inf is
# not finite; padded text is a number, and a diagnostics of 0 is empty;
# u3p 1e400 is not finite.
@example((["id,u1,u2,u3,psi1,psi2\n", "m,1,1,1,  ,\n", "n,1,1,1,120,\n"], "csv"))
@example((["id,u1,u2,u3,psi1,psi2\n", "m,1,1,1,120,inf\n"], "csv"))
@example((['{"u1": 1, "u2": 1, "u3": 1, "u1p": " 1 ", "u2p": 1, "u3p": 1, "diagnostics": 0}\n'],
          "jsonl"))
@example((['{"u1": 1, "u2": 2, "u3": 2.5, "u1p": 1, "u2p": 1, "u3p": 1e400}\n'], "jsonl"))
def test_readers_are_the_per_field_route(case):
    lines, fmt = case
    for read, reference in ((read_measurements, reference_measurements),
                            (read_pairs, reference_pairs)):
        assert (outcome(lambda: as_read(read(lines, fmt)))
                == outcome(lambda: as_read(reference(lines, fmt))))
        try:  # every record read before a parse error, too
            for record in read(lines, fmt):
                assert_writer_takes(*(record if type(record) is tuple else (record, None)))
        except ParseError:
            pass


def reference_json_rows(lines, fields: tuple[str, ...]):
    """The JSON-lines records as ``json.loads`` reads each line, blank lines
    skipped, after a line that holds a NUL or is not UTF-8 text has raised;
    a record's metadata is every field of its object that names no record
    field."""
    known = set(MEASUREMENT_FIELDS + SOLUTION_FIELDS)
    for line_no, line in enumerate(lines, start=1):
        if reason := _not_text(line):
            raise ParseError(line_no, reason)
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
        for key in MEASUREMENT_FIELDS + SOLUTION_FIELDS:
            if isinstance(obj.get(key), (bool, dict, list)):
                raise ParseError(line_no, f"field {key!r} is not a number "
                                          f"or a string: {obj[key]!r}")
        yield (line_no, tuple(map(obj.get, fields)),
               {k: v for k, v in obj.items() if k not in known})


JSON_KEY = st.sampled_from(["id", "u1", "u2", "u3", "psi1", "psi2", "u1p", "status",
                            "diagnostics", "site", "note"])
JSON_VALUE = st.sampled_from([
    "400", "-0.0", "1.5e3", "1e400", "NaN", "Infinity", "-Infinity", "1" + "0" * 400,
    '"m"', '""', '" 7 "', '"Z\u00fcrich"', '"Z\\u00fcrich"', '"\\ud83d\\ude00"', "null"])
# Keys and values that some or every record refuses: escapes that make a NUL
# or a lone surrogate, values that only metadata takes, more digits than
# int() takes, nesting deeper than the recursion limit, text that is not JSON
# and no value at all.
ODD_JSON_KEY = st.sampled_from(["n\\u0000", "\\ud800", "u1\\u0000"])
ODD_JSON_VALUE = st.sampled_from([
    "true", "false", "[]", "[1, 2]", '{"a": {"b": [1, null]}}', "[" * 50 + "]" * 50,
    "1" + "0" * 5000, '"a\\u0000b"', '"\\ud800"', '"\\udc80x"',
    "[" * 100_000 + "]" * 100_000, '"tab\there"', "01", "1.", "+1", "", '"open'])
# What a line holds that is not an object, or only whitespace.
NOT_AN_OBJECT = st.sampled_from(["[1, 2]", '"text"', "7", "null", "", " ", "\f", "\t",
                                 "{", "}", "{}{}", "\ufeff{}", "[" * 100_000])
BEFORE_JSON = st.sampled_from([" ", "\t", "\r", "\ufeff"])
AFTER_JSON = st.sampled_from([" ", "\t", " 1", "}", "{}", "x"])
LINE_END = st.sampled_from(["\r\n", "\r", ""])
ODD_PARTS = ("key", "value", "body", "before", "after", "end")


@st.composite
def json_line(draw) -> str:
    """A JSON line of a kind the reader takes or rejects: an object of
    known and unknown fields, any of them repeated, ended by a line feed,
    with at most two parts odd: a key or a value that some record refuses,
    a line that is not an object, whitespace or a byte-order mark before
    it, whitespace or data after it, a CR before its line feed or no line
    feed at all."""
    odd = draw(st.sets(st.sampled_from(ODD_PARTS), max_size=2))
    if "body" in odd:
        body = draw(NOT_AN_OBJECT)
    else:
        keys = draw(st.lists(JSON_KEY, max_size=6))
        values = [draw(JSON_VALUE) for _ in keys]
        if keys and "key" in odd:
            keys[draw(st.integers(0, len(keys) - 1))] = draw(ODD_JSON_KEY)
        if keys and "value" in odd:
            values[draw(st.integers(0, len(keys) - 1))] = draw(ODD_JSON_VALUE)
        comma, colon = draw(st.sampled_from([(", ", ": "), (",", ":"), (" ,", " : ")]))
        body = "{" + comma.join(f'"{k}"{colon}{v}' for k, v in zip(keys, values)) + "}"
    return (draw(BEFORE_JSON) if "before" in odd else "") + body + (
        draw(AFTER_JSON) if "after" in odd else "") + (
        draw(LINE_END) if "end" in odd else "\n")


@SETTINGS
@given(st.lists(json_line(), min_size=1, max_size=4),
       st.sampled_from([MEASUREMENT_FIELDS, MEASUREMENT_FIELDS + SOLUTION_FIELDS]))
# Lines the scanner reads, and lines that go through json.loads: whitespace
# around the object, a CR, no line feed, data after it, and a blank line.
@example([' {"id": "a", "u1": 400}\n', '{"u1": 1}\r\n', "\n", "\f\n", '{"u1": 1}'],
         MEASUREMENT_FIELDS)
@example(['{"u1": 1} \n', '{"u1": 1}{}\n'], MEASUREMENT_FIELDS)
@example(['{"u1": 1}x'], MEASUREMENT_FIELDS)
# Solution fields in a solve input, a repeated key and metadata of every kind.
@example(['{"u1": 1, "u1p": 2, "site": {"a": [1]}, "u1": 3, "status": "x", "n": NaN}\n'],
         MEASUREMENT_FIELDS)
# A boolean in a known field, escapes that make a NUL or a lone surrogate,
# and an integer of more digits than int() takes.
@example(['{"u1": true}\n'], MEASUREMENT_FIELDS)
@example(['{"u1": 1, "n": "a\\u0000b"}\n', '{"\\ud800": 1}\n'], MEASUREMENT_FIELDS)
@example(['{"u1": 1' + "0" * 5000 + "}\n"], MEASUREMENT_FIELDS)
# A raw NUL, a byte that is not UTF-8 and a lone surrogate, each after a
# good line and in a line that is no object, so the line check comes first.
@example(['{"u1": 1}\n', '{"u1": 1, "n": "a\0b"}\n'], MEASUREMENT_FIELDS)
@example(['{"u1": 1}\n', '{"u1": 1, "n": "\udcff"}\n'], MEASUREMENT_FIELDS)
@example(['\ud800 [\n'], MEASUREMENT_FIELDS)
def test_json_reader_is_the_json_loads_route(lines, fields):
    # repr tells 1 from 1.0 and -0.0 from 0.0, keeps the metadata's order
    # and reads the same for a NaN on both sides.
    assert (outcome(lambda: repr(list(_json_rows(iter(lines), fields))))
            == outcome(lambda: repr(list(reference_json_rows(iter(lines), fields)))))


def assert_writer_takes(m: MeasurementRecord, s: SolutionRecord | None) -> None:
    """``m`` and ``s`` are the kind of record ``RowWriter`` takes: a text
    id, finite floats (None only where a field is optional), and metadata
    that names no record field."""
    def finite(value: object, optional: bool) -> bool:
        return (value is None and optional
                or type(value) is float and math.isfinite(value))

    assert type(m.id) is str
    assert all(finite(x, False) for x in (m.u1, m.u2, m.u3))
    assert all(finite(x, True) for x in (m.psi1, m.psi2))
    assert not set(m.meta) & set(MEASUREMENT_FIELDS + SOLUTION_FIELDS)
    if s is not None:
        assert type(s.id) is str
        assert all(finite(x, True) for x in (s.u1p, s.u2p, s.u3p, s.max_residual))


# cot(EPS_ANG_DEG) and cot(120 deg - EPS_ANG_DEG), as the predicate takes them.
COT_EPS = 1.0 / math.tan(math.radians(EPS_ANG_DEG))
COT_WIDE = 1.0 / math.tan(math.radians(120.0 - EPS_ANG_DEG))


def reference_predicate(edges: tuple, angles: tuple) -> None:
    """``check_interior_point`` written out vertex by vertex, the edges
    next to vertex i taken by index arithmetic: at 120 deg each, the first
    vertex not below 120 deg - eps is wide; otherwise a collinear triangle
    has no interior, and a vertex whose angle is not below psi + eps is
    too wide."""
    exponent, unit, unit_sq, theta_sq = edges
    psis, cot, _ = angles
    for i, vertex in enumerate("ABC"):
        j, k = (i + 1) % 3, (i + 2) % 3
        span = unit_sq[j] + unit_sq[k] - unit_sq[i]
        if psis == (120.0, 120.0, 120.0) and not COT_WIDE * theta_sq < span:
            cos_val = span / (2.0 * unit[j] * unit[k])
            angle = math.degrees(math.acos(max(-1.0, min(1.0, cos_val))))
            clamped = [0.0, 0.0, 0.0]
            clamped[j] = math.ldexp(unit[k], exponent)
            clamped[k] = math.ldexp(unit[j], exponent)
            raise AngleAtLeast120(vertex, angle, tuple(clamped))
    if psis == (120.0, 120.0, 120.0):
        return
    if theta_sq == 0.0:
        raise DegenerateTriangle("edges are collinear: no interior point")
    for i, vertex in enumerate("ABC"):
        j, k = (i + 1) % 3, (i + 2) % 3
        span = unit_sq[j] + unit_sq[k] - unit_sq[i]
        if (cot[i] + COT_EPS > 0.0
                and not (cot[i] * COT_EPS - 1.0) / (cot[i] + COT_EPS) * theta_sq < span):
            raise InfeasibleConfiguration(
                f"no interior point: the angle at vertex {vertex}, "
                f"{math.degrees(math.atan2(theta_sq, span)):.12g} deg, exceeds the "
                f"viewing angle {psis[i]:.12g} deg of edge {vertex.lower()}")


def reference_kernel(edges: tuple, angles: tuple, tolerance: float) -> tuple:
    """The closed form as helper calls, behind the predicate written out:
    the three vertex distances, the closure residual, and the scale back
    with the notes. ``line_voltage_kernel`` must return the same bits."""
    exponent, unit, unit_sq, theta_sq = edges
    _, (cot_a, cot_b, cot_c), cos = angles
    reference_predicate(edges, angles)
    a2, b2, c2 = unit_sq
    a_p = _joint_vertex_distance(b2, c2, a2, cot_b, cot_c, cot_a, theta_sq)
    b_p = _joint_vertex_distance(c2, a2, b2, cot_c, cot_a, cot_b, theta_sq)
    c_p = _joint_vertex_distance(a2, b2, c2, cot_a, cot_b, cot_c, theta_sq)
    residuals = closure_defects(unit_sq, cos, (a_p, b_p, c_p))
    if max(residuals) > tolerance:
        raise UnresolvedConfiguration(
            f"closure residuals {residuals} exceed {tolerance:g}; "
            "the closed form does not reach the star point within tolerance")
    distances = tuple(math.ldexp(d, exponent) for d in (a_p, b_p, c_p))
    ua, ub, uc = unit  # added left to right: sum() is compensated from Python 3.12 on
    floor = math.ldexp(1e-9 * (ua + ub + uc), exponent)
    notes = tuple(f"{name} is zero within tolerance: "
                  "the load star point sits on a phase terminal"
                  for name, value in zip(("u1p", "u2p", "u3p"), distances)
                  if value < floor)
    return distances, residuals, notes


def reference_edge_invariants(a: float, b: float, c: float) -> tuple:
    """``edge_invariants`` of positive finite edges, with the Heron pairs
    taken in the order ``sorted`` gives and the zero test by ``in``; a
    subnormal second pair is taken as the product of its factors' roots."""
    exponent = math.frexp(max(a, b, c))[1]
    ua, ub, uc = (math.ldexp(e, -exponent) for e in (a, b, c))
    x, y, z = sorted((ua, ub, uc), reverse=True)
    p_big = (x + (y + z)) * (x + (y - z))
    p_small = (z + (x - y)) * (z - (x - y))
    if p_small < -EPS_TRI_COEFF * (ua + ub + uc) ** 2:
        raise NotATriangle(f"edges ({a}, {b}, {c}) violate the triangle inequality")
    unit_sq = (ua * ua, ub * ub, uc * uc)
    if 0.0 in unit_sq:
        raise DegenerateTriangle(f"edges ({a}, {b}, {c}): the shortest squares "
                                 "to 0 beside the longest")
    if 0.0 < p_small < 2.0 ** -1022:
        return exponent, (ua, ub, uc), unit_sq, (math.sqrt(p_big) * math.sqrt(z + (x - y))
                                                 * math.sqrt(z - (x - y)))
    return exponent, (ua, ub, uc), unit_sq, math.sqrt(p_big * max(p_small, 0.0))


def reference_angle_invariants(*psis: float) -> tuple:
    """``angle_invariants`` of angles it accepts, each cosine and cotangent
    from its own call."""
    def cos_cot(psi):
        rad = math.radians(psi)
        return math.cos(rad), 0.0 if psi == 90.0 else math.cos(rad) / math.sin(rad)
    (cos_a, cot_a), (cos_b, cot_b), (cos_c, cot_c) = map(cos_cot, psis)
    return psis, (cot_a, cot_b, cot_c), (cos_a, cos_b, cos_c)


def hexed(value: object) -> object:
    """``value`` with every float, in any tuple, as its exact hex text."""
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, tuple):
        return tuple(map(hexed, value))
    return value


def outcome(function, *args) -> tuple:
    """What ``function`` returns, bit for bit, or the type and message of
    what it raises."""
    try:
        return "returned", hexed(function(*args))
    except Exception as exc:
        return type(exc), str(exc)


def law_of_cosines(distances: tuple, psis: tuple) -> tuple:
    """Edges of the triangle around a point at ``distances`` from A, B, C
    that sees the edges under ``psis``; written out here, no program code."""
    a_p, b_p, c_p = distances

    def edge(x, y, psi):
        cos = math.cos(math.radians(psi))
        return math.sqrt(max(x * x + y * y - 2.0 * x * y * cos, 0.0))
    return edge(b_p, c_p, psis[0]), edge(c_p, a_p, psis[1]), edge(a_p, b_p, psis[2])


@st.composite
def kernel_angles(draw) -> tuple:
    """General angles, 120 deg each, one angle near 180 deg, or one within
    1e-290 of 0 deg beside two as near 180 deg as floats go, which makes a
    cotangent's square overflow."""
    kind = draw(st.sampled_from(["general", "120", "near-180", "near-0"]))
    if kind == "120":
        return (120.0, 120.0, 120.0)
    if kind == "general":
        psi_a = draw(st.floats(min_value=60.0, max_value=179.0))
        psi_b = draw(st.floats(min_value=181.0 - psi_a, max_value=179.0))
        return psi_a, psi_b, 360.0 - psi_a - psi_b
    if kind == "near-180":
        widest = 180.0 - 10.0 ** draw(st.floats(-12.0, math.log10(60.0)))
        rest = 360.0 - widest
        other = draw(st.floats(max(1.0, rest - widest), min(widest, rest - 1.0)))
        psis = (widest, other, rest - other)
    else:
        gap = st.floats(1e-13, 4e-10)
        psis = (draw(st.floats(1e-305, 1e-290)), 180.0 - draw(gap), 180.0 - draw(gap))
    return tuple(draw(st.permutations(psis)))


@st.composite
def kernel_rows(draw, angles=kernel_angles()) -> tuple:
    """Edges and three angles drawn from ``angles``: a planted point,
    interior, on or near a terminal, or at a needle's tip, solved under its
    own angles or under other ones; or random edges. Scaled by
    2**U(-1000, 1000)."""
    psis = draw(angles)
    distances = [10.0 ** draw(st.floats(-3.0, 3.0)) for _ in range(3)]
    plant = draw(st.sampled_from(["interior", "terminal", "needle", "other-angles",
                                  "random-edges"]))
    if plant == "terminal":
        distances[draw(st.integers(0, 2))] *= draw(st.sampled_from([0.0, 1e-12, 1e-9]))
    elif plant == "needle":
        distances[draw(st.integers(0, 2))] *= 10.0 ** -draw(st.floats(5.0, 15.0))
    edges = law_of_cosines(distances, psis)
    if plant == "other-angles":
        psis = draw(angles)
    elif plant == "random-edges":
        edges = tuple(10.0 ** draw(st.floats(-3.0, 3.0)) for _ in range(3))
    scale = 2.0 ** draw(st.one_of(st.sampled_from([-1000, 0, 1000]),
                                  st.integers(-1000, 1000)))
    return tuple(e * scale for e in edges), psis


@SETTINGS
@given(kernel_rows())
# Each outcome once for sure: a star point at a terminal and at a needle's
# tip, within the slack of the predicate; an overflowing cotangent; a
# collinear triangle; a note; a wide vertex at 120 deg; a right angle; the
# scales 2**1000 and 2**-1000; a closure miss near 180 deg.
@example(((437.0972887677329, 437.0958891456522, 0.0019103551629673823),
          (137.1089465049667, 126.50358722231269, 96.38746627272062)))
@example(((482.32591353379297, 482.3286370640637, 0.020215816990328945),
          (82.25622258864489, 160.13932847840775, 117.60444893294735)))
@example(((3.0, 4.0, 5.0), (180.0 - 1e-12, 180.0 - 1e-12, 1e-300)))
@example(((0.5, 2.5, 3.0), (1e-300, 180.0 - 1e-12, 180.0 - 1e-12)))
@example(((2.7003498043774963, 1.5, 2.0), (100.0, 130.0, 130.0)))
@example(((1.0, 1.0, 1.9), (120.0, 120.0, 120.0)))
@example(((3.2392345835273004, 1.8027756377319946, 2.7979326519318133),
          (135.0, 90.0, 135.0)))
@example(((2.8934480578042405e+301, 2.438326744985293e+301, 2.9483334643936736e+301),
          (100.0, 130.0, 130.0)))
@example(((2.838410484760956e-301, 2.0340009003693133e-301, 2.469183442223775e-301),
          (120.0, 120.0, 120.0)))
# A needle whose Heron pair (z + (x - y))(z - (x - y)) is subnormal.
@example(((1.0, 1e-160, 1.0), (100.0, 150.0, 110.0)))
@example(((3.0, 4.0, 1.0), (106.6919676342695, 179.999999999,
                            360.0 - 106.6919676342695 - 179.999999999)))
@example(((117.45917376670758, 0.4169475734378701, 117.52180669988361),
          (81.26441457577114, 179.9940549532222,
           360.0 - 81.26441457577114 - 179.9940549532222)))
# The predicate names the vertex that is too wide: B, then C (A above).
# No two vertices can both be: on the unit triangle the spans of any two
# sum to at least 0 in floats, so their vertex angles to at most 180 deg.
@example(((3.0, 4.0, 5.0), (150.0, 50.0, 160.0)))
@example(((3.0, 4.0, 5.0), (100.0, 175.0, 85.0)))
# psi_a within EPS_ANG_DEG of 180 deg: cot(psi_a + eps)'s denominator is
# negative, so vertex A is skipped, and the planted point solves ok.
@example(((2.0, 1.0017848888625436, 0.9983120937095941),
          (180.0 - 5e-10, 100.0, 80.0 + 5e-10)))
def test_line_voltage_kernel_is_the_helper_route_bit_for_bit(row):
    u, psis = row
    if min(u) > 0.0:
        assert outcome(edge_invariants, *u) == outcome(reference_edge_invariants, *u)
    try:
        edges, angles = edge_invariants(*u), angle_invariants(*psis)
    except StarSolveError:
        return  # no triangle, or an angle out of range: the kernel is not reached
    assert hexed(angles) == hexed(reference_angle_invariants(*psis))
    assert (outcome(line_voltage_kernel, edges, angles, RESIDUAL_TOL)
            == outcome(reference_kernel, edges, angles, RESIDUAL_TOL))


def reference_chord_circles(a: float, vx: float, vy: float, cot_a: float,
                            cot_b: float) -> tuple[float, float, float, float, float, float]:
    """Centers and radii (center_r x, y, center_s x, y, rho_a, rho_b) of the
    circles through {C, B} and {C, A} from which the chords are seen under
    psi_a resp. psi_b, given the frame with C at the origin, B at (a, 0)
    and A at (vx, vy), and the cotangents of those two viewing angles.

    The center of the chord-CB circle sits at half the chord plus a
    cotangent-scaled perpendicular; an obtuse viewing angle puts it on the
    far side of the chord from X, a right angle on the chord itself. Only
    a zero area (vy <= 0) is degenerate, so a needle of any ratio passes.
    """
    if vy <= 0.0:
        raise DegenerateTriangle("spanning vectors are collinear")
    return (a * 0.5, a * cot_a * 0.5,
            (vx + vy * cot_b) * 0.5, (vy - vx * cot_b) * 0.5,
            0.5 * a * math.sqrt(1.0 + cot_a * cot_a),
            0.5 * math.hypot(vx, vy) * math.sqrt(1.0 + cot_b * cot_b))


def reference_circle_distances(edges: tuple, angles: tuple) -> tuple:
    """The circle route as helper calls: the smallest angle (the first of
    equal ones) rotated last by tuple slices, vertex A by the law of
    cosines with its cosine clamped by ``max`` and ``min``, the circles by
    :func:`reference_chord_circles`, the interior test by ``any`` over the
    edges, each cross product with X against the angle slack in radians
    times the perimeter and the edge, and the distances and the message's
    signed distances rotated back.
    ``circle_distances`` relabels by comparisons and writes the helpers out
    in one frame, and must return the same bits."""
    def rotated(triple, r):
        return triple[r:] + triple[:r]
    (_, unit, unit_sq, theta_sq), (psis, cot, _) = edges, angles
    rot = (1, 2, 0)[psis.index(min(psis))]
    (a, b, c), (a2, b2, c2) = rotated(unit, rot), rotated(unit_sq, rot)
    cot_a, cot_b, _ = rotated(cot, rot)
    ax = b * max(-1.0, min(1.0, (a2 + b2 - c2) / (2.0 * a * b)))
    ay = theta_sq / (2.0 * a)
    crx, cry, csx, csy, rho_a, rho_b = reference_chord_circles(a, ax, ay, cot_a, cot_b)
    dx, dy = csx - crx, csy - cry
    d = math.hypot(dx, dy)
    eps = 1e-12 * (rho_a + rho_b)
    if d <= eps:
        raise ConcentricCircles(
            f"centers coincide within {eps:g}; intersection undefined")
    scale = 2.0 * (crx * dy - cry * dx) / (d * d)
    px, py = scale * dy, -scale * dx
    perimeter, slack = a + b + c, math.radians(EPS_ANG_DEG)
    # X's distances from CB, CA and AB, the last two times their edges; the
    # last is twice the area less the other two.
    cross_b = px * ay - py * ax
    crosses, edges = (py, cross_b, a * (ay - py) - cross_b), (1.0, b, c)
    if any(cross < -slack * perimeter * edge for cross, edge in zip(crosses, edges)):
        depths = tuple(cross / edge / perimeter for cross, edge in zip(crosses, edges))
        raise NoInteriorIntersection(
            "circle intersection lies outside the triangle: its signed distances "
            f"from edges a, b, c are {rotated(depths, (3 - rot) % 3)} of the "
            f"perimeter, one below -{slack:.3g}, the angle slack in radians")
    distances = (math.hypot(px - ax, py - ay), math.hypot(px - a, py),
                 math.hypot(px, py))
    return rotated(distances, (3 - rot) % 3)


@st.composite
def tied_angles(draw) -> tuple:
    """Two equal angles and the third, in any order: the equal pair is
    the smallest below 120 deg and the largest above it."""
    psi = draw(st.floats(min_value=90.5, max_value=179.0))
    return tuple(draw(st.permutations((psi, psi, 360.0 - 2.0 * psi))))


@SETTINGS
@given(kernel_rows(st.one_of(kernel_angles(), tied_angles())))
# Each outcome once for sure: three equal angles, a tie of the two
# smallest, an exterior intersection and collinear edges.
@example(((1.0, 1.0, 1.9), (120.0, 120.0, 120.0)))
@example(((3.0, 4.0, 5.0), (130.0, 100.0, 130.0)))
@example(((437.0972887677329, 437.0958891456522, 0.0019103551629673823),
          (137.1089465049667, 126.50358722231269, 96.38746627272062)))
# A needle whose Heron pair (z + (x - y))(z - (x - y)) is subnormal.
@example(((1.0, 1e-160, 1.0), (100.0, 150.0, 110.0)))
@example(((3.0, 4.0, 1.0), (106.6919676342695, 179.999999999,
                            360.0 - 106.6919676342695 - 179.999999999)))
def test_circle_distances_is_the_slice_route_bit_for_bit(row):
    u, psis = row
    try:
        args = (edge_invariants(*u), angle_invariants(*psis))
    except StarSolveError:
        return  # no triangle, or an angle out of range: the route is not reached
    assert outcome(circle_distances, *args) == outcome(reference_circle_distances, *args)


@SETTINGS
@given(st.integers(-2 ** 63, 2 ** 63), st.booleans(),
       st.tuples(DISTANCE, DISTANCE, DISTANCE), kernel_angles())
def test_oracle_wrappers_are_their_float_entries_bit_for_bit(seed, symmetric, distances, psis):
    # The draw: the same values, and the generator left in the same state.
    wrapped_rng, float_rng = Random(seed), Random(seed)
    spec = random_synthesis_spec(wrapped_rng, seed, symmetric)
    assert hexed((spec.distances, spec.angles.as_tuple())) == \
        hexed(planted_draw(float_rng, symmetric))
    assert wrapped_rng.getstate() == float_rng.getstate()

    # The forward map, on the draw and on any planted point and angles.
    for plant, angles in ((spec.distances, spec.angles.as_tuple()), (distances, psis)):
        def wrapped():
            edges, expected = synthesize_triangle(SynthesisSpec(plant, PhaseAngles(*angles)))
            assert expected.distances() == plant
            return edges.as_tuple(), expected.residuals
        assert outcome(wrapped) == outcome(planted_edges, plant, angles)


def reference_distance_sum_minimum(a: float, b: float, c: float, max_iter: int) -> tuple:
    """The distance-sum minimum with f(X) summed in a pass of its own over
    the vertices, after the pass that gives its derivatives, and the corner
    tests run over slices of the corners. ``minimize_distance_sum`` sums f
    in its derivative pass and must return the same bits."""
    def distance_sum(x, y, vertices):
        (x1, y1), (x2, y2), (x3, y3) = vertices
        return (math.hypot(x - x1, y - y1) + math.hypot(x - x2, y - y2)
                + math.hypot(x - x3, y - y3))

    exponent = math.frexp(max(a, b, c))[1]
    edges = (math.ldexp(a, -exponent), math.ldexp(b, -exponent),
             math.ldexp(c, -exponent))
    vc, vb, va = _embed_for_oracle(*edges)
    corners = (va, vb, vc)
    for k, (cx, cy) in enumerate(corners):
        (ux, uy), (vx, vy) = corners[:k] + corners[k + 1:]
        du = math.hypot(cx - ux, cy - uy)
        dv = math.hypot(cx - vx, cy - vy)
        if du == 0.0 or dv == 0.0:
            raise DegenerateTriangle(f"edges ({a}, {b}, {c}): two vertices coincide "
                                     "on the unit triangle")
        inv_u, inv_v = 1.0 / du, 1.0 / dv
        if math.hypot((ux - cx) * inv_u + (vx - cx) * inv_v,
                      (uy - cy) * inv_u + (vy - cy) * inv_v) <= 1.0:
            return (math.ldexp(cx, exponent), math.ldexp(cy, exponent),
                    math.ldexp(du + dv, exponent), 0)

    ox, oy = corners[edges.index(max(edges))]
    vertices = [(vx - ox, vy - oy) for vx, vy in corners]
    x = y = 0.0
    fx = distance_sum(x, y, vertices)
    for iterations in range(max_iter + 1):
        px = py = hxx = hxy = hyy = wsum = wx = wy = farthest = 0.0
        on_vertex = False
        for vx, vy in vertices:
            d = math.hypot(vx - x, vy - y)
            if d == 0.0:
                on_vertex = True
                continue
            ux, uy = (vx - x) / d, (vy - y) / d
            px += ux
            py += uy
            hxx += (1.0 - ux * ux) / d
            hxy -= ux * uy / d
            hyy += (1.0 - uy * uy) / d
            wsum += 1.0 / d
            wx += vx / d
            wy += vy / d
            farthest = max(farthest, d)
        pull = math.hypot(px, py)
        if not on_vertex and pull * farthest <= GAP_CERTIFICATE * fx:
            return (math.ldexp(x + ox, exponent), math.ldexp(y + oy, exponent),
                    math.ldexp(fx, exponent), iterations)
        if iterations == max_iter:
            break
        det = hxx * hyy - hxy * hxy
        if not on_vertex and det > 0.0:
            nx = x + (hyy * px - hxy * py) / det
            ny = y + (hxx * py - hxy * px) / det
            fn = distance_sum(nx, ny, vertices)
            if fn <= fx * (1.0 + _ROUNDING_SLACK):
                x, y, fx = nx, ny, fn
                continue
        keep = 1.0 / max(pull, 1.0) if on_vertex else 0.0
        x = (1.0 - keep) * wx / wsum + keep * x
        y = (1.0 - keep) * wy / wsum + keep * y
        fx = distance_sum(x, y, vertices)
    raise NoConvergence(f"distance-sum gap not certified within {max_iter} iterations")


@st.composite
def oracle_inputs(draw) -> tuple:
    """Edges for the distance-sum minimum: around a planted 120-deg point;
    with a corner of 120 to 180 deg; or a wide or isosceles needle with a
    short edge down to 1e-170, its edges in any order. Any of them at a
    scale of 2**+-900."""
    kind = draw(st.sampled_from(("planted", "wide", "wide needle", "isosceles needle")))
    if kind == "planted":
        edges = law_of_cosines(draw(st.tuples(DISTANCE, DISTANCE, DISTANCE)),
                               (120.0, 120.0, 120.0))
    elif kind == "isosceles needle":
        edges = draw(st.permutations((1.0, 1.0, 10.0 ** -draw(st.floats(0.0, 170.0)))))
    else:
        # The corner between edges 1 and c, seeing edge a under psi.
        psi = draw(st.floats(120.0, 179.9))
        c = draw(DISTANCE) if kind == "wide" else 10.0 ** -draw(st.floats(0.0, 170.0))
        edges = draw(st.permutations(
            (math.sqrt(1.0 + c * c - 2.0 * c * math.cos(math.radians(psi))), 1.0, c)))
    scale = 2.0 ** draw(st.sampled_from([0, draw(st.integers(-900, 900))]))
    return tuple(edge * scale for edge in edges)


# A 150-deg corner at A, between edges 2 and 3.
WIDE_AT_A = (math.sqrt(13.0 - 12.0 * math.cos(math.radians(150.0))), 2.0, 3.0)
# A point at distances (1, 2, 1.5) from A, B, C that sees each edge under
# 120 deg, and the triangle around it.
PLANTED_120 = (1.0, 2.0, 1.5)
EDGES_120 = law_of_cosines(PLANTED_120, (120.0, 120.0, 120.0))


@SETTINGS
@given(oracle_inputs(), st.sampled_from([0, 1, 20, 10_000]))
@example(WIDE_AT_A, 0)
@example(WIDE_AT_A[2:] + WIDE_AT_A[:2], 0)
@example(WIDE_AT_A[1:] + WIDE_AT_A[:1], 0)
@example(EDGES_120, 1)
@example((0.75, math.nextafter(0.75, 0.0), 1e-20), 0)
@example((0.75, 0.75 - 2.0 ** -53, 2.0 ** -53), 10_000)
def test_distance_sum_minimum_is_the_two_pass_route_bit_for_bit(edges, max_iter):
    try:
        t = TriangleEdges(*edges)
    except StarSolveError:
        return  # a needle whose short edge squares to 0: no triangle to minimize over

    def minimized():
        result = minimize_distance_sum(t, max_iter)
        return result.point.x, result.point.y, result.value, result.iterations
    assert outcome(minimized) == outcome(reference_distance_sum_minimum, *edges, max_iter)
