"""Tests for the verification oracles themselves."""

from __future__ import annotations

import math
from random import Random

import pytest
from hypothesis import given, strategies as st

from conftest import (
    E4_ANGLES,
    E4_EDGES,
    distances_at_120,
    planted_fermat_instance,
    planted_general_instance,
    rel_err,
)
from starsolve import (
    ConcentricCircles,
    DegenerateTriangle,
    NoConvergence,
    PhaseAngles,
    Phasor,
    PlaneVector,
    SynthesisSpec,
    TriangleEdges,
    embed_triangle,
    fermat_solve,
    minimize_distance_sum,
    phasor_difference,
    sample_waveform_amplitude,
    synthesize_triangle,
    theta_squared,
)
from starsolve import oracle
from starsolve.oracle import GAP_CERTIFICATE, random_synthesis_spec
from test_one_path import reference_chord_circles

ALL_120 = PhaseAngles(120.0, 120.0, 120.0)


# -- synthesize_triangle ------------------------------------------------------

def test_synthesize_equilateral_from_example_distances():
    spec = SynthesisSpec((1 / math.sqrt(3),) * 3, ALL_120)
    edges, expected = synthesize_triangle(spec)
    for e in edges.as_tuple():
        assert rel_err(e, 1.0) < 1e-14
    assert expected.max_residual < 1e-12


def test_synthesize_345_at_120():
    edges, _ = synthesize_triangle(SynthesisSpec((3.0, 4.0, 5.0), ALL_120))
    assert rel_err(edges.a, math.sqrt(61.0)) < 1e-15
    assert rel_err(edges.b, 7.0) < 1e-15
    assert rel_err(edges.c, math.sqrt(37.0)) < 1e-15


def test_synthesize_345_at_e4_angles():
    edges, _ = synthesize_triangle(SynthesisSpec((3.0, 4.0, 5.0), E4_ANGLES))
    # Direct law-of-cosines evaluation, written out once more by hand.
    assert rel_err(edges.a, math.sqrt(41.0 - 40.0 * math.cos(math.radians(110.0)))) < 1e-15
    assert rel_err(edges.b, math.sqrt(34.0 - 30.0 * math.cos(math.radians(130.0)))) < 1e-15
    assert rel_err(edges.c, math.sqrt(37.0)) < 1e-15
    assert edges.as_tuple() == E4_EDGES.as_tuple()


def test_synthesize_rejects_bad_distances():
    with pytest.raises(ValueError):
        SynthesisSpec((1.0, -1.0, 1.0), ALL_120)


@pytest.mark.parametrize("distance", [math.nan, math.inf])
def test_synthesis_spec_rejects_distances_that_are_not_finite(distance):
    # The spec names the planted distance, not an edge synthesis derives from it.
    with pytest.raises(ValueError, match="planted distances must be finite and positive"):
        SynthesisSpec((1.0, distance, 1.0), ALL_120)


def test_random_spec_distribution_bounds():
    rng = Random(90)
    for seed in range(200):
        spec = random_synthesis_spec(rng, seed=seed)
        assert all(0.1 <= d <= 10.0 for d in spec.distances)
        assert all(60.0 < p < 180.0 for p in spec.angles.as_tuple())
        assert sum(spec.angles.as_tuple()) == pytest.approx(360.0, abs=1e-9)


# -- minimize_distance_sum ----------------------------------------------------

def test_minimize_equilateral():
    result = minimize_distance_sum(TriangleEdges(1, 1, 1))
    assert rel_err(result.value, math.sqrt(3.0)) < 1e-9
    centroid = PlaneVector(0.5, math.sqrt(3.0) / 6.0)
    assert result.point.distance_to(centroid) < 1e-6 * 3.0


def test_minimize_planted_345():
    result = minimize_distance_sum(TriangleEdges(math.sqrt(61), 7, math.sqrt(37)))
    assert rel_err(result.value, 12.0) < 1e-9


def test_minimize_wide_triangle_parks_at_vertex():
    b, c = 2.0, 3.0
    a = math.sqrt(b * b + c * c - 2 * b * c * math.cos(math.radians(150.0)))
    t = TriangleEdges(a, b, c)
    result = minimize_distance_sum(t)
    # Minimum is the wide vertex A: the distance sum there is b + c.
    assert rel_err(result.value, b + c) < 1e-9
    ax = (t.a * t.a + t.b * t.b - t.c * t.c) / (2.0 * t.a)
    vertex_a = PlaneVector(ax, math.sqrt(max(t.b * t.b - ax * ax, 0.0)))
    assert result.point.distance_to(vertex_a) < 1e-6 * t.perimeter()


def test_minimize_matches_closed_form_batch():
    rng = Random(91)
    for _ in range(1000):
        t, _ = planted_fermat_instance(rng)
        solution = fermat_solve(t, "closed_form")
        total = sum(solution.distances())
        result = minimize_distance_sum(t)
        assert abs(result.value - total) <= 1e-6 * total
        assert result.value <= total + 1e-12 * total  # polled minimum is an upper bound


def fermat_sum(t: TriangleEdges) -> float:
    """Classical closed form of the minimal distance sum, valid while every
    angle is below 120 deg: S^2 = (a^2 + b^2 + c^2) / 2 + 2 sqrt(3) * area."""
    return math.sqrt((t.a ** 2 + t.b ** 2 + t.c ** 2) / 2.0
                     + math.sqrt(3.0) / 2.0 * theta_squared(t))


def rotations(edges):
    return [edges[k:] + edges[:k] for k in range(3)]


@pytest.mark.parametrize("edges", [
    rotated
    for c in (1.7, 1.73, 1.732, 1.7320508)  # 118.4 .. 119.9999985 deg
    for rotated in rotations((1.0, 1.0, c))
])
def test_minimize_near_120_ladder_within_iteration_cap(edges):
    t = TriangleEdges(*edges)
    result = minimize_distance_sum(t, max_iter=20)
    assert 0 < result.iterations <= 20
    assert rel_err(result.value, fermat_sum(t)) < 1e-12


@pytest.mark.parametrize("edges", rotations((1.0, 1e-6, 1.0))
                         + rotations((1.0, 1.0, 1e-4)))
def test_minimize_needle_within_iteration_cap(edges):
    t = TriangleEdges(*edges)
    result = minimize_distance_sum(t, max_iter=20)
    assert rel_err(result.value, fermat_sum(t)) < 1e-12


@pytest.mark.parametrize("angle", [121.0, 150.0])
def test_minimize_wide_vertex_returned_without_iterating(angle):
    b, c = 2.0, 3.0
    a = math.sqrt(b * b + c * c - 2 * b * c * math.cos(math.radians(angle)))
    for edges in rotations((a, b, c)):
        result = minimize_distance_sum(TriangleEdges(*edges), max_iter=0)
        assert result.iterations == 0
        assert rel_err(result.value, b + c) < 1e-12


@pytest.mark.parametrize("edges", rotations((1.0, 1.0, 1e-166)) + rotations((1.0, 1.0, 1e-200))
                         + rotations((1.0, 1.0, 5e-324)))
def test_distance_sum_minimum_rejects_vertices_that_coincide_in_floats(edges):
    # The short edge squares to 0 on the unit triangle, so two vertices of
    # the embedding would coincide: TriangleEdges, the minimizer's only
    # input, rejects the edges.
    with pytest.raises(DegenerateTriangle):
        TriangleEdges(*edges)


# Unit needles at the smallest short edge TriangleEdges accepts, about
# 3.1e-162 and 1.6e-162 as the long edges sit above or below 1: on the unit
# triangle its square is the smallest subnormal, 2**-1074.
THINNEST_NEEDLES = ((1.0, 1.0, float.fromhex("0x1.6a09e667f3bcdp-537")),
                    (0.75, 0.75, float.fromhex("0x1.6a09e667f3bcdp-538")))


@pytest.mark.parametrize("edges", [rotated for needle in THINNEST_NEEDLES
                                   for rotated in rotations(needle)]
                         + rotations((2.0, 1.0, 1.0)))
def test_minimize_on_the_thinnest_accepted_triangles_raises_only_no_convergence(edges):
    # No two vertices of the embedding coincide on these needles or on the
    # exactly collinear triple, so no step divides by a zero distance.
    t = TriangleEdges(*edges)
    if min(edges) < 1e-100:
        short = edges.index(min(edges))
        thinner = list(edges)
        thinner[short] = math.nextafter(edges[short], 0.0)
        with pytest.raises(DegenerateTriangle):
            TriangleEdges(*thinner)
    try:
        result = minimize_distance_sum(t)
    except NoConvergence:
        return
    assert result.value >= max(edges)


# Near-collinear needles that TriangleEdges accepts, on which the embedding
# once put A on B: with A's abscissa taken as (a^2 + b^2 - c^2) / (2a),
# 0.75**2 + fl(b**2) is a tie that rounds to even, 1.125, so it came out as
# 0.75 and the height clamped to 0. Taken as a/2 + (b - c)(b + c) / (2a),
# it is b, 2**-53 short of B, and the minimum, 0.75, is found at A.
ROUNDED_ONTO_ONE_POINT = ((0.75, math.nextafter(0.75, 0.0), 1e-20),
                          (0.75, 0.75 - 2.0 ** -53, 2.0 ** -53))


@pytest.mark.parametrize("edges", [rotated for needle in ROUNDED_ONTO_ONE_POINT
                                   for rotated in rotations(needle)])
def test_minimize_rejects_vertices_that_the_embedding_rounds_together(edges):
    # The minimum of f lies between the longest edge and the sum of the
    # other two, f at the wide vertex; the first needle misses the triangle
    # inequality by 2**-53 - 1e-20, so there the bounds swap.
    result = minimize_distance_sum(TriangleEdges(*edges))
    longest = max(edges)
    others = sum(edges) - longest
    slack = GAP_CERTIFICATE * result.value
    assert min(longest, others) - slack <= result.value <= max(longest, others) + slack
    if edges in ROUNDED_ONTO_ONE_POINT:
        assert abs(result.value - 0.75) <= slack


def test_minimize_rejects_vertices_that_coincide_in_its_embedding(monkeypatch):
    # No accepted triangle is known to put two vertices on one point; an
    # embedding that does must raise, and not divide by their distance.
    monkeypatch.setattr(oracle, "_embed_for_oracle",
                        lambda a, b, c: ((0.0, 0.0), (a, 0.0), (a, 0.0)))
    with pytest.raises(DegenerateTriangle, match="two vertices coincide"):
        minimize_distance_sum(TriangleEdges(1.0, 1.0, 1.0))


def test_distance_sum_minimum_is_the_same_bits_on_every_python():
    # f(X) is added left to right; sum(), compensated from Python 3.12 on,
    # gave 0x1.b75a2934b4ec4p-1 there.
    value = minimize_distance_sum(TriangleEdges(0.3903717016735131, 0.49596413323846344,
                                                0.6353833802367614)).value
    assert value.hex() == "0x1.b75a2934b4ec5p-1"


def test_minimize_iteration_cap_raises():
    with pytest.raises(NoConvergence):
        minimize_distance_sum(TriangleEdges(1.0, 1.0, 1.7320508), max_iter=1)


@given(st.floats(0.01, 100.0), st.floats(0.01, 100.0), st.floats(0.01, 100.0))
def test_minimize_symmetric_planted_property(a_p, b_p, c_p):
    total = a_p + b_p + c_p
    result = minimize_distance_sum(distances_at_120(a_p, b_p, c_p), max_iter=50)
    assert rel_err(result.value, total) < 1e-9
    assert result.value >= total * (1.0 - 1e-12)


# -- circle_intersections -----------------------------------------------------

# The reference for the circle route of starsolve.general: plain radical-line
# arithmetic, which shares nothing with the route's reflection in the line of
# centres.
def circle_intersections(c1x: float, c1y: float, r1: float,
                         c2x: float, c2y: float, r2: float
                         ) -> tuple[tuple[float, float], ...]:
    """Intersection points of two circles, as (x, y) pairs ordered by x then y.

    Returns an empty tuple for separated or nested circles, one point at
    (near-)tangency, two points otherwise. The window around tangency, and
    around coincident centres, is 1e-12 of the radius scale.

    The half-chord height is the altitude of the triangle with sides
    (d, r1, r2), evaluated as a factored product; the naive
    sqrt(r1^2 - along^2) form loses everything to cancellation when both
    radii dwarf the center distance gap.
    """
    if r1 <= 0.0 or r2 <= 0.0:
        raise ValueError(f"radii must be positive, got {r1} and {r2}")
    eps = 1e-12 * (r1 + r2)
    d = math.hypot(c1x - c2x, c1y - c2y)
    if d <= eps:
        raise ConcentricCircles(
            f"centers coincide within {eps:g}; intersection undefined")

    f_sep = r1 + r2 - d            # negative: circles separated
    f_nest = d - abs(r1 - r2)      # negative: one circle inside the other
    if f_sep < -eps or f_nest < -eps:
        return ()
    pair_sep = (d + r1 + r2) * max(f_sep, 0.0)
    pair_nest = (d + r1 - r2) * (d - r1 + r2)
    h = math.sqrt(pair_sep * max(pair_nest, 0.0)) / (2.0 * d)

    along = (d * d + (r1 - r2) * (r1 + r2)) / (2.0 * d)
    inv_d = 1.0 / d
    ux, uy = (c2x - c1x) * inv_d, (c2y - c1y) * inv_d   # unit axis c1 -> c2
    bx, by = c1x + ux * along, c1y + uy * along
    if h <= eps:
        return ((bx, by),)
    ox, oy = -uy * h, ux * h                             # h * perp(axis)
    first, second = (bx + ox, by + oy), (bx - ox, by - oy)
    return (second, first) if second < first else (first, second)


def test_tangent_circles_single_point():
    points = circle_intersections(0.0, 0.0, 1.0, 2.0, 0.0, 1.0)
    assert len(points) == 1
    assert math.dist(points[0], (1.0, 0.0)) < 1e-12


def test_unit_circles_classic_intersection():
    points = circle_intersections(0.0, 0.0, 1.0, 1.0, 0.0, 1.0)
    assert len(points) == 2
    lower, upper = points
    assert math.dist(lower, (0.5, -math.sqrt(3) / 2)) < 1e-12
    assert math.dist(upper, (0.5, math.sqrt(3) / 2)) < 1e-12


def test_separated_and_nested_circles():
    assert circle_intersections(0.0, 0.0, 1.0, 5.0, 0.0, 1.0) == ()
    assert circle_intersections(0.0, 0.0, 3.0, 0.5, 0.0, 1.0) == ()


def test_concentric_circles_rejected():
    with pytest.raises(ConcentricCircles):
        circle_intersections(1.0, 1.0, 1.0, 1.0, 1.0, 2.0)


def test_bad_radius_rejected():
    with pytest.raises(ValueError):
        circle_intersections(0.0, 0.0, 0.0, 1.0, 0.0, 1.0)


def test_points_satisfy_both_circle_equations():
    rng = Random(92)
    for _ in range(200):
        c1 = (rng.uniform(-5, 5), rng.uniform(-5, 5))
        c2 = (rng.uniform(-5, 5), rng.uniform(-5, 5))
        r1 = rng.uniform(0.1, 6.0)
        r2 = rng.uniform(0.1, 6.0)
        if math.dist(c1, c2) < 1e-6:
            continue
        for pt in circle_intersections(*c1, r1, *c2, r2):
            assert abs(math.dist(pt, c1) - r1) < 1e-9 * (r1 + r2)
            assert abs(math.dist(pt, c2) - r2) < 1e-9 * (r1 + r2)


def _inscribed_angle_circles(t: TriangleEdges, angles: PhaseAngles):
    """The solver's two circles over edges a and b of ``t``, at its scale,
    in the original labels, as (center x, y, radius) twice."""
    _, (cot_a, cot_b, _), _ = angles.invariants
    a_vec, b_vec = embed_triangle(t)
    crx, cry, csx, csy, rho_a, rho_b = reference_chord_circles(
        a_vec.x, b_vec.x, b_vec.y, cot_a, cot_b)
    return crx, cry, rho_a, csx, csy, rho_b


def test_e4_circumcircles_intersect_at_planted_point():
    points = circle_intersections(*_inscribed_angle_circles(E4_EDGES, E4_ANGLES))
    assert len(points) == 2
    planted = synthesize_triangle(SynthesisSpec((3.0, 4.0, 5.0), E4_ANGLES))[1].point
    assert min(PlaneVector(*p).distance_to(planted) for p in points) \
        < 1e-9 * E4_EDGES.perimeter()


# -- waveform sampling --------------------------------------------------------

def test_single_cosine_amplitude():
    assert sample_waveform_amplitude([Phasor(1.0, 0.0)]) == pytest.approx(1.0, rel=1e-6)


def test_symmetric_difference_sqrt3():
    value = sample_waveform_amplitude([Phasor(1.0, 120.0), Phasor(1.0, 0.0)], [1, -1])
    assert rel_err(value, math.sqrt(3.0)) < 1e-6


def test_mixed_amplitude_difference_sqrt5():
    value = sample_waveform_amplitude([Phasor(2.0, 90.0), Phasor(1.0, 0.0)], [1, -1])
    assert rel_err(value, math.sqrt(5.0)) < 1e-6


def test_waveform_agrees_with_phasor_arithmetic():
    rng = Random(93)
    for _ in range(100):
        p1 = Phasor(rng.uniform(0.1, 10.0), rng.uniform(0.0, 360.0))
        p2 = Phasor(rng.uniform(0.1, 10.0), rng.uniform(0.0, 360.0))
        analytic = phasor_difference(p1, p2).amplitude
        if analytic < 1e-3:
            continue
        sampled = sample_waveform_amplitude([p1, p2], [1, -1])
        assert rel_err(sampled, analytic) < 1e-6


def test_waveform_amplitude_is_the_same_bits_on_every_python():
    # The cosines are added left to right; sum() gave 0x1.143e5fd1c3c40p+4
    # on Python 3.12 and later.
    phasors = [Phasor(8.627593579432016, 133.02235263126914),
               Phasor(6.832432811688521, 207.99226362725858),
               Phasor(6.215523464940565, 141.87012284913067),
               Phasor(2.9907537933493593, 270.0170545085405)]
    value = sample_waveform_amplitude(phasors, n_samples=1024)
    assert value.hex() == "0x1.143e5fd1c3c42p+4"


def test_waveform_input_validation():
    with pytest.raises(ValueError):
        sample_waveform_amplitude([])
    with pytest.raises(ValueError):
        sample_waveform_amplitude([Phasor(1.0, 0.0)], [1, -1])
    with pytest.raises(ValueError):
        sample_waveform_amplitude([Phasor(1.0, 0.0)], [1], n_samples=100)


@pytest.mark.parametrize("sign", [math.nan, math.inf, -math.inf])
def test_waveform_refuses_a_sign_that_is_not_finite(sign):
    # A NaN sign once made every sample NaN, and the amplitude -inf.
    with pytest.raises(ValueError, match="signs must be finite"):
        sample_waveform_amplitude([Phasor(1.0, 0.0)], [sign])
    with pytest.raises(ValueError, match="signs must be finite"):
        sample_waveform_amplitude([Phasor(1.0, 0.0), Phasor(1.0, 90.0)], [1, sign])


# -- route independence, spot check -------------------------------------------

def test_planted_instances_recovered_by_oracle_routes():
    rng = Random(94)
    for _ in range(100):
        spec, t, expected = planted_general_instance(rng)
        a_vec, b_vec = embed_triangle(t)
        # Canonical labels may differ inside the solver; here we drive the
        # kernel directly in the original labels.
        points = circle_intersections(*_inscribed_angle_circles(t, spec.angles))
        assert points
        x = PlaneVector(*max(points, key=lambda p: math.hypot(*p)))
        planted = expected.distances()
        floor = 1e-12 * t.perimeter()
        assert rel_err(x.distance_to(b_vec), planted[0], floor=floor) < 1e-8
        assert rel_err(x.distance_to(a_vec), planted[1], floor=floor) < 1e-8
        assert rel_err(math.hypot(x.x, x.y), planted[2], floor=floor) < 1e-8
