"""Tests for the prescribed-viewing-angle solver (closed form and circles)."""

from __future__ import annotations

import math
from random import Random

import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import (
    E4_ANGLES,
    E4_EDGES,
    planted_fermat_instance,
    planted_general_instance,
    rel_err,
)
from starsolve import (
    AngleOutOfRange,
    InfeasibleConfiguration,
    PhaseAngles,
    PlaneVector,
    SynthesisSpec,
    TriangleEdges,
    embed_triangle,
    fermat_distances_closed_form,
    general_distances_closed_form,
    general_solve_by_circles,
    synthesize_triangle,
    validate_angles,
)
from starsolve.cli import solve_record, verify_record
from starsolve.config import RESIDUAL_TOL
from starsolve.general import _chord_circles
from starsolve.records import MeasurementRecord

ALL_120 = PhaseAngles(120.0, 120.0, 120.0)


def chord_circles(t: TriangleEdges, cot_a: float, cot_b: float):
    """Centers and radii of the inscribed-angle circles over edges a and b
    of ``t``, embedded at its own scale."""
    a_vec, b_vec = embed_triangle(t)
    crx, cry, csx, csy, rho_a, rho_b = _chord_circles(a_vec.x, a_vec.y, b_vec.x,
                                                      b_vec.y, cot_a, cot_b)
    return PlaneVector(crx, cry), PlaneVector(csx, csy), rho_a, rho_b


# -- validate_angles ----------------------------------------------------------

def test_validate_angles_all_120():
    assert validate_angles(120, 120).as_tuple() == (120.0, 120.0, 120.0)


def test_validate_angles_sum_rule():
    assert validate_angles(110, 130).as_tuple() == (110.0, 130.0, 120.0)


def test_validate_angles_rejects_out_of_range():
    with pytest.raises(AngleOutOfRange) as info:
        validate_angles(200, 100)
    assert info.value.name == "psi_a"
    with pytest.raises(AngleOutOfRange) as info:
        validate_angles(100, -5)
    assert info.value.name == "psi_b"
    with pytest.raises(AngleOutOfRange) as info:
        validate_angles(85, 85)  # psi_c would be 190
    assert info.value.name == "psi_c"


# -- inscribed-angle circles --------------------------------------------------

def test_right_angle_gives_thales_circle():
    t = TriangleEdges(1, 1, 1)
    center_r, _, rho_a, _ = chord_circles(t, *PhaseAngles(90, 150, 120).cot[:2])
    assert center_r.distance_to(0.5 * embed_triangle(t)[0]) < 1e-15
    assert rho_a == pytest.approx(0.5, rel=1e-15)


def test_120_deg_circle_radius():
    _, _, rho_a, rho_b = chord_circles(TriangleEdges(1, 1, 1), *ALL_120.cot[:2])
    assert rho_a == pytest.approx(1 / math.sqrt(3), rel=1e-14)
    assert rho_b == pytest.approx(1 / math.sqrt(3), rel=1e-14)


def test_circle_centers_equidistant_from_chord_ends():
    rng = Random(60)
    for _ in range(100):
        spec, t, _ = planted_general_instance(rng)
        a_vec, b_vec = embed_triangle(t)
        center_r, center_s, rho_a, rho_b = chord_circles(t, *spec.angles.cot[:2])
        origin = PlaneVector(0.0, 0.0)
        assert rel_err(center_r.distance_to(origin), rho_a) < 1e-12
        assert rel_err(center_r.distance_to(a_vec), rho_a) < 1e-12
        assert rel_err(center_s.distance_to(origin), rho_b) < 1e-12
        assert rel_err(center_s.distance_to(b_vec), rho_b) < 1e-12


def test_circles_pass_through_solution_point():
    equilateral = TriangleEdges(1, 1, 1)
    for t in (equilateral, planted_fermat_instance(Random(61))[0]):
        center_r, center_s, rho_a, rho_b = chord_circles(t, *ALL_120.cot[:2])
        x = fermat_distances_closed_form(t).point
        eps = 1e-9 * t.perimeter()
        assert abs(x.distance_to(center_r) - rho_a) < eps
        assert abs(x.distance_to(center_s) - rho_b) < eps


# -- closed form --------------------------------------------------------------

def test_reduction_to_120_solver():
    rng = Random(64)
    for _ in range(100):
        t, _ = planted_fermat_instance(rng)
        general = general_distances_closed_form(t, ALL_120).distances()
        dedicated = fermat_distances_closed_form(t).distances()
        for x, y in zip(general, dedicated):
            assert rel_err(x, y) < 1e-12


def test_closed_form_recovers_e4():
    s = general_distances_closed_form(E4_EDGES, E4_ANGLES)
    for value, expected in zip(s.distances(), (3.0, 4.0, 5.0)):
        assert rel_err(value, expected) < 1e-12


def test_isosceles_limiting_case_zero_distance():
    # cot(psi) = -Theta^2/c^2 parks the point on vertex C exactly.
    for c in (0.5, 1.0, 1.5):
        theta_sq = c * math.sqrt(4.0 - c * c)
        psi = math.degrees(math.atan2(1.0, -theta_sq / (c * c)))
        angles = PhaseAngles(psi, psi, 360.0 - 2.0 * psi)
        s = general_distances_closed_form(TriangleEdges(1, 1, c), angles)
        assert s.c_prime < 1e-8
        assert abs(s.a_prime - 1.0) < 1e-8
        assert abs(s.b_prime - 1.0) < 1e-8


def test_closed_form_cyclic_equivariance():
    rng = Random(65)
    for _ in range(100):
        spec, t, _ = planted_general_instance(rng)
        base = general_distances_closed_form(t, spec.angles).distances()
        rot_t = TriangleEdges(t.b, t.c, t.a)
        rot_ang = PhaseAngles(spec.angles.psi_b, spec.angles.psi_c, spec.angles.psi_a)
        rotated = general_distances_closed_form(rot_t, rot_ang).distances()
        for slot, source in enumerate((1, 2, 0)):
            assert rel_err(rotated[slot], base[source]) < 1e-10


def test_closed_form_homogeneous_in_lengths():
    rng = Random(66)
    spec, t, _ = planted_general_instance(rng)
    k = 314.159
    base = general_distances_closed_form(t, spec.angles).distances()
    scaled = general_distances_closed_form(t.scaled(k), spec.angles).distances()
    for x, y in zip(scaled, base):
        assert rel_err(x, k * y) < 1e-12


def test_closed_form_closure_property():
    rng = Random(67)
    for _ in range(200):
        spec, t, _ = planted_general_instance(rng)
        s = general_distances_closed_form(t, spec.angles)
        assert s.max_residual < 1e-8


def test_infeasible_configuration_detected():
    # A needle triangle cannot be seen from inside under near-equal angles.
    with pytest.raises(InfeasibleConfiguration):
        general_distances_closed_form(
            TriangleEdges(1.0, 1.0, 1.999), PhaseAngles(119.0, 120.0, 121.0))


# -- circle route -------------------------------------------------------------

def test_circles_equilateral_all_120():
    s = general_solve_by_circles(TriangleEdges(1, 1, 1), ALL_120)
    for d in s.distances():
        assert rel_err(d, 1 / math.sqrt(3)) < 1e-12
    centroid = PlaneVector(0.5, math.sqrt(3) / 6)
    assert s.point.distance_to(centroid) < 1e-14


def test_circles_recover_e4():
    s = general_solve_by_circles(E4_EDGES, E4_ANGLES)
    for value, expected in zip(s.distances(), (3.0, 4.0, 5.0)):
        assert rel_err(value, expected) < 1e-12


def test_circles_agree_with_closed_form_perturbed():
    angles = PhaseAngles(E4_ANGLES.psi_a + 30.0, E4_ANGLES.psi_b,
                         E4_ANGLES.psi_c - 30.0)
    closed = general_distances_closed_form(E4_EDGES, angles)
    circles = general_solve_by_circles(E4_EDGES, angles)
    for x, y in zip(closed.distances(), circles.distances()):
        assert rel_err(x, y, floor=1e-12 * E4_EDGES.perimeter()) < 1e-8


def test_circles_limiting_case():
    c = 1.0
    theta_sq = c * math.sqrt(4.0 - c * c)
    psi = math.degrees(math.atan2(1.0, -theta_sq / (c * c)))
    s = general_solve_by_circles(TriangleEdges(1, 1, c),
                                 PhaseAngles(psi, psi, 360 - 2 * psi))
    assert s.c_prime < 1e-8
    assert abs(s.a_prime - 1.0) < 1e-8


def test_circles_infeasible_raises():
    from starsolve.errors import NoInteriorIntersection
    with pytest.raises(NoInteriorIntersection) as info:
        general_solve_by_circles(
            TriangleEdges(1.0, 1.0, 1.999), PhaseAngles(119.0, 120.0, 121.0))
    assert info.type is NoInteriorIntersection
    assert str(info.value).startswith("circle intersection lies outside the triangle")


@pytest.mark.parametrize("edges", [(1.0, 1.0, 2.0), (1.0, 2.0, 1.0), (2.0, 1.0, 1.0)])
def test_circles_collinear_edges_raise_degenerate(edges):
    from starsolve.errors import DegenerateTriangle
    with pytest.raises(DegenerateTriangle) as info:
        general_solve_by_circles(TriangleEdges(*edges), ALL_120)
    assert info.type is DegenerateTriangle
    assert str(info.value) == "spanning vectors are collinear"


def test_both_routes_recover_plantings():
    rng = Random(68)
    for _ in range(300):
        spec, t, expected = planted_general_instance(rng)
        planted = expected.distances()
        closed = general_distances_closed_form(t, spec.angles).distances()
        circles = general_solve_by_circles(t, spec.angles).distances()
        floor = 1e-12 * t.perimeter()
        for x, y, ref in zip(closed, circles, planted):
            assert rel_err(x, ref, floor=floor) < 1e-8
            assert rel_err(y, ref, floor=floor) < 1e-8
            assert rel_err(x, y, floor=floor) < 1e-8


def test_recovered_point_on_both_circles():
    rng = Random(69)
    for _ in range(100):
        spec, t, _ = planted_general_instance(rng)
        s = general_solve_by_circles(t, spec.angles)
        center_r, center_s, rho_a, rho_b = chord_circles(t, *spec.angles.cot[:2])
        eps = 1e-9 * t.perimeter()
        assert abs(s.point.distance_to(center_r) - rho_a) < eps
        assert abs(s.point.distance_to(center_s) - rho_b) < eps


# -- circle route against the closed form at extreme angles --------------------

@st.composite
def planted_extreme(draw):
    """Distances over six decades, seen under angles in (0, 180): the largest
    up to 179.999 deg, its gap to 180 log-uniform, the smallest down to 1."""
    distances = tuple(10.0 ** draw(st.floats(-3.0, 3.0)) for _ in range(3))
    largest = 180.0 - 10.0 ** draw(st.floats(-3.0, math.log10(60.0)))
    low, high = max(1.0, 360.0 - 2.0 * largest), (360.0 - largest) / 2.0
    smallest = low + (high - low) * draw(st.floats(0.0, 1.0))
    psis = draw(st.permutations((largest, smallest, 360.0 - largest - smallest)))
    angles = PhaseAngles(psis[0], psis[1], 360.0 - psis[0] - psis[1])
    return synthesize_triangle(SynthesisSpec(distances, angles))[0], angles


@settings(max_examples=300, deadline=None)
@given(planted_extreme())
@example((TriangleEdges(95.3280037301223, 98.66903628441688, 3.3448837046922284),
          validate_angles(2.7046665368394143, 178.37393027680892)))
def test_circle_route_tracks_closed_form_at_extreme_angles(case):
    """Every ok row verifies, and the circle route agrees with the closed
    form per component. The example was a false FAIL of the route that
    intersected the circles by the radical line."""
    t, angles = case
    m = MeasurementRecord("x", t.a, t.b, t.c, angles.psi_a, angles.psi_b)
    _, s = solve_record(m, RESIDUAL_TOL)
    if s.solved:
        passed, detail = verify_record(m, s, RESIDUAL_TOL)
        assert passed, detail
    try:
        closed = general_distances_closed_form(t, angles)
    except InfeasibleConfiguration:
        return
    # The closed form is only as exact as its own closure residual: a
    # relative defect r in a squared edge moves the distances by ~r/2.
    rel = 1e-9 + max(closed.residuals)
    floor = 1e-12 * (t.a + t.b + t.c)
    for got, want in zip(general_solve_by_circles(t, angles).distances(),
                         closed.distances()):
        assert abs(got - want) <= max(rel * want, floor), (got, want)
