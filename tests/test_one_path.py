"""Property tests that pin the solve path to one code path.

``cli.solve_record`` runs a measurement through the float kernel that the
library's value types wrap, so it must return, bit for bit, what the
library route returns: ``solve_general_star`` or ``solve_symmetric_star``
plus the status mapping written out below. ``cli.verify_record`` checks a
row on the same floats, so its verdict must be the one the value types,
the circle route and the oracle give, in the messages written out below.
``RowWriter.write_solution``
joins a CSV row into its line itself, so it must write the bytes that the
csv module writes through ``_LineFeedEnded`` for any id and metadata.
"""

from __future__ import annotations

import csv
import io
import json
import math

from hypothesis import HealthCheck, given, settings, strategies as st

from starsolve import (
    AngleAtLeast120,
    AngleOutOfRange,
    LineVoltages,
    NotATriangle,
    PhaseAngles,
    PhaseToPhaseVoltages,
    StarSolveError,
    SynthesisSpec,
    TriangleEdges,
    general_solve_by_circles,
    minimize_distance_sum,
    solve_general_star,
    solve_symmetric_star,
    synthesize_triangle,
    validate_angles,
    verify_solution,
)
from starsolve.cli import solve_record, verify_record
from starsolve.config import RESIDUAL_TOL
from starsolve.records import (
    STATUS_ANGLE_GE_120,
    STATUS_INCONSISTENT,
    STATUS_INFEASIBLE,
    STATUS_OK,
    MeasurementRecord,
    RowWriter,
    SolutionRecord,
    _LineFeedEnded,
    combined_row,
)

SETTINGS = settings(max_examples=300, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])

DISTANCE = st.floats(min_value=0.01, max_value=10.0)
SCALE = st.sampled_from([1.0, 3.7, 2.0 ** -600, 1e-150, 1e150])


def library_record(m: MeasurementRecord, tolerance: float) -> SolutionRecord:
    """The library route: the value types, the solver, the CLI's status
    mapping."""
    try:
        u = PhaseToPhaseVoltages(m.u1, m.u2, m.u3)
        if m.has_angles:
            lv = solve_general_star(u, m.psi1, m.psi2)
        else:
            lv = solve_symmetric_star(u)
    except AngleAtLeast120 as exc:
        return SolutionRecord(m.id, None, None, None, None, STATUS_ANGLE_GE_120, str(exc))
    except (NotATriangle, AngleOutOfRange) as exc:
        return SolutionRecord(m.id, None, None, None, None, STATUS_INCONSISTENT, str(exc))
    except StarSolveError as exc:
        return SolutionRecord(m.id, None, None, None, None, STATUS_INFEASIBLE, str(exc))
    worst = max(lv.residuals)
    notes = lv.diagnostics
    status = STATUS_OK
    if worst > tolerance:
        status = STATUS_INFEASIBLE
        notes += (f"closure residual {worst:.3e} exceeds tolerance {tolerance:g}",)
    return SolutionRecord(m.id, lv.u1p, lv.u2p, lv.u3p, worst, status, "; ".join(notes))


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
    """The library route of a verify row: the re-solve above for a failure
    row, else the closure report, the circle route and, at 120 deg, the
    distance-sum oracle, on the value types."""
    if not s.solved:
        fresh = library_record(m, tolerance)
        if fresh.status == s.status:
            return True, f"failure status {s.status!r} confirmed by re-solve"
        return False, (f"recorded status {s.status!r} but re-solve "
                       f"produced {fresh.status!r}")
    try:
        u = PhaseToPhaseVoltages(m.u1, m.u2, m.u3)
        angles = validate_angles(*((m.psi1, m.psi2) if m.has_angles else (120.0, 120.0)))
        lv = LineVoltages(s.u1p, s.u2p, s.u3p)
        report = verify_solution(u, lv, angles, tolerance)
        if not report.passed:
            return False, (f"closure residual {report.max_residual:.3e} "
                           f"exceeds tolerance {tolerance:g}")
        t = u.to_edges()
        floor = math.ldexp(1e-12 * sum(t.unit), t.exponent)
        circle = general_solve_by_circles(t, angles)
        for name, given, recomputed in zip(("u1p", "u2p", "u3p"), lv.as_tuple(),
                                           circle.distances()):
            if abs(given - recomputed) > max(tolerance * max(given, recomputed), floor):
                return False, (f"{name}={given!r} disagrees with circle-path "
                               f"value {recomputed!r}")
        if angles == validate_angles(120.0, 120.0):
            k = t.exponent
            claim = [math.ldexp(x, -k) for x in lv.as_tuple()]
            minimized = minimize_distance_sum(TriangleEdges(*t.unit), start=claim[1:])
            total = claim[0] + claim[1] + claim[2]
            if abs(minimized.value - total) > 1e-6 * total:
                return False, (f"line-voltage sum {total:.9g} disagrees with "
                               f"minimized distance sum {minimized.value:.9g} "
                               f"(both over 2**{k})")
    except StarSolveError as exc:
        return False, f"cross-check raised: {exc}"
    return True, f"max residual {report.max_residual:.3e}"


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
                                   STATUS_ANGLE_GE_120]))
    return edges, psi, status


@SETTINGS
@given(st.one_of(claimed(), failure_rows()), SCALE,
       st.sampled_from([RESIDUAL_TOL, 1e-14, 1e-3]))
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
    assert verify_record(m, s, tolerance) == library_verdict(m, s, tolerance)


# Text, now and then with one of the characters that decide CSV quoting
# or that the csv module handles by Python version.
PLAIN_TEXT = st.text(st.characters(exclude_characters=',"\r\n\x00'), max_size=6)
TEXT = st.one_of(PLAIN_TEXT, PLAIN_TEXT, st.tuples(
    PLAIN_TEXT, st.sampled_from(',"\r\n\x00'), PLAIN_TEXT).map("".join))
META_VALUE = st.one_of(TEXT, st.none(), st.integers(), st.floats(), st.booleans(),
                       st.lists(st.integers(), max_size=2))
NUMBER = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def solved_rows(draw) -> list[tuple[MeasurementRecord, SolutionRecord]]:
    keys = draw(st.lists(st.one_of(st.sampled_from(["site", "note", "status"]), TEXT),
                         max_size=3, unique=True))
    # Text alone, or any value now and then.
    values = draw(st.sampled_from([TEXT, META_VALUE]))
    rows = []
    for _ in range(draw(st.integers(1, 4))):
        rec_id = draw(st.one_of(TEXT, TEXT, TEXT, TEXT, st.integers()))
        psi = draw(st.one_of(st.none(), st.tuples(NUMBER, NUMBER)))
        meta = {key: draw(values) for key in keys if draw(st.integers(0, 5))}
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


def written(write) -> tuple[str, str | None]:
    """What ``write(stream)`` wrote, and the name of the csv error it raised."""
    stream = io.StringIO()
    try:
        write(stream)
    except csv.Error as exc:  # a NUL, on Python 3.10
        return stream.getvalue(), type(exc).__name__
    return stream.getvalue(), None


@SETTINGS
@given(solved_rows())
def test_csv_lines_are_the_csv_module_bytes(rows):
    def by_csv_module(stream):
        writer = csv.writer(_LineFeedEnded(stream), lineterminator="\r\n")
        fields = tuple(combined_row(*rows[0]))
        writer.writerow(fields)
        for m, s in rows:
            row = combined_row(m, s)
            writer.writerow([json.dumps(v) if type(v) in (dict, list, bool) else v
                             for v in map(row.get, fields)])

    def by_row_writer(stream):
        writer = RowWriter(stream, "csv")
        for m, s in rows:
            writer.write_solution(m, s)

    assert written(by_row_writer) == written(by_csv_module)
