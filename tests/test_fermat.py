"""Tests for the 120-deg interior point solver (both routes)."""

from __future__ import annotations

import math
from decimal import Decimal
from random import Random

import pytest

from conftest import E1_DISTANCES, E1_EDGES, planted_fermat_instance, rel_err
from reference import fermat_distances
from starsolve import (
    AngleAtLeast120,
    PlaneVector,
    TriangleEdges,
    embed_triangle,
    fermat_distances_closed_form,
    fermat_solve,
)
from starsolve.fermat import fermat_construction
from starsolve.geometry import star_solution

SQRT3 = math.sqrt(3.0)


# -- embedding ----------------------------------------------------------------

def test_embed_equilateral():
    a_vec, b_vec = embed_triangle(TriangleEdges(1, 1, 1))
    assert a_vec == PlaneVector(1.0, 0.0)
    assert b_vec.x == pytest.approx(0.5, abs=1e-15)
    assert b_vec.y == pytest.approx(SQRT3 / 2, abs=1e-15)


def test_embed_right_triangle():
    a_vec, b_vec = embed_triangle(TriangleEdges(3, 4, 5))
    assert (a_vec.x, a_vec.y) == (3.0, 0.0)
    assert b_vec.x == pytest.approx(0.0, abs=1e-14)
    assert b_vec.y == pytest.approx(4.0, rel=1e-15)


def test_embed_preserves_lengths():
    t = E1_EDGES
    a_vec, b_vec = embed_triangle(t)
    assert math.hypot(a_vec.x, a_vec.y) == pytest.approx(t.a, rel=1e-15)
    assert math.hypot(b_vec.x, b_vec.y) == pytest.approx(t.b, rel=1e-14)
    assert a_vec.distance_to(b_vec) == pytest.approx(t.c, rel=1e-14)
    assert b_vec.y > 0


# -- cevian intersection ------------------------------------------------------

def _cevian_params(t, point):
    """Parameters of ``point`` along the cevians A->P and B->Q, where P and
    Q are the apexes of the outward equilateral triangles on CB and CA,
    together with the point's distances from the two lines."""
    a_vec, b_vec = embed_triangle(t)
    p = PlaneVector(0.5 * a_vec.x, -(SQRT3 / 2.0) * a_vec.x)
    q = PlaneVector(0.5 * b_vec.x - (SQRT3 / 2.0) * b_vec.y,
                    (SQRT3 / 2.0) * b_vec.x + 0.5 * b_vec.y)
    out = []
    for start, apex in ((b_vec, p), (a_vec, q)):
        d, m = apex - start, point - start
        out.append(((m.x * d.x + m.y * d.y) / (d.x * d.x + d.y * d.y),
                    abs(d.x * m.y - d.y * m.x) / math.hypot(d.x, d.y)))
    return out


def test_line_solution_equilateral_is_centroid():
    t = TriangleEdges(1, 1, 1)
    s = fermat_construction(t)
    (tau0, _), (sigma0, _) = _cevian_params(t, s.point)
    assert tau0 == pytest.approx(sigma0, rel=1e-14)
    a_vec, b_vec = embed_triangle(t)
    centroid = PlaneVector((1.0 / 3.0) * (a_vec.x + b_vec.x),
                           (1.0 / 3.0) * (a_vec.y + b_vec.y))
    assert s.point.distance_to(centroid) < 1e-15


def test_line_solution_345_lines_agree():
    t = TriangleEdges(3, 4, 5)
    s = fermat_construction(t)
    for _, off_line in _cevian_params(t, s.point):
        assert off_line < 1e-9 * t.perimeter()


def test_line_solution_forward_synthesis_norm():
    s = fermat_construction(E1_EDGES)
    assert math.hypot(s.point.x, s.point.y) == pytest.approx(5.0, rel=1e-12)


def test_line_solution_invariants():
    rng = Random(314)
    for _ in range(200):
        t, _ = planted_fermat_instance(rng)
        s = fermat_construction(t)
        for param, off_line in _cevian_params(t, s.point):
            assert 0.0 < param < 1.0
            assert off_line < 1e-9 * t.perimeter()


# -- closed form --------------------------------------------------------------

def test_closed_form_equilateral():
    s = fermat_distances_closed_form(TriangleEdges(1, 1, 1))
    for d in s.distances():
        assert rel_err(d, 1.0 / SQRT3) < 1e-14
    assert s.point.x == pytest.approx(0.5, abs=1e-14)
    assert s.point.y == pytest.approx(SQRT3 / 6, abs=1e-14)


def test_closed_form_recovers_planted_345():
    s = fermat_distances_closed_form(E1_EDGES)
    for value, expected in zip(s.distances(), E1_DISTANCES):
        assert rel_err(value, expected) < 1e-12


def test_closed_form_scales_linearly():
    k = 230.94
    s = fermat_distances_closed_form(TriangleEdges(*(e * k for e in E1_EDGES.as_tuple())))
    for value, expected in zip(s.distances(), E1_DISTANCES):
        assert rel_err(value, k * expected) < 1e-12


def test_closed_form_permutation_equivariant():
    rng = Random(41)
    for _ in range(50):
        t, _ = planted_fermat_instance(rng)
        base = fermat_distances_closed_form(t).distances()
        perms = {
            (0, 1, 2): (t.a, t.b, t.c), (0, 2, 1): (t.a, t.c, t.b),
            (1, 0, 2): (t.b, t.a, t.c), (1, 2, 0): (t.b, t.c, t.a),
            (2, 0, 1): (t.c, t.a, t.b), (2, 1, 0): (t.c, t.b, t.a),
        }
        for order, edges in perms.items():
            permuted = fermat_distances_closed_form(TriangleEdges(*edges)).distances()
            for slot, source in enumerate(order):
                assert rel_err(permuted[slot], base[source]) < 1e-12


def test_closed_form_120_closure():
    rng = Random(42)
    for _ in range(300):
        t, _ = planted_fermat_instance(rng)
        a_p, b_p, c_p = fermat_distances_closed_form(t).distances()
        assert rel_err(b_p * b_p + c_p * c_p + b_p * c_p, t.a * t.a) < 1e-9
        assert rel_err(c_p * c_p + a_p * a_p + c_p * a_p, t.b * t.b) < 1e-9
        assert rel_err(a_p * a_p + b_p * b_p + a_p * b_p, t.c * t.c) < 1e-9


def test_rays_meet_at_120_degrees():
    rng = Random(43)
    for _ in range(100):
        t, _ = planted_fermat_instance(rng)
        s = fermat_solve(t)
        a_vec, b_vec = embed_triangle(t)
        to_a = b_vec - s.point
        to_b = a_vec - s.point
        to_c = PlaneVector(0.0, 0.0) - s.point
        for u, v in ((to_a, to_c), (to_c, to_b), (to_b, to_a)):
            turn = math.degrees(math.atan2(u.x * v.y - u.y * v.x,
                                           u.x * v.x + u.y * v.y)) % 360.0
            assert turn == pytest.approx(120.0, abs=1e-7)


def test_minimality_against_sampled_points():
    rng = Random(44)
    t, _ = planted_fermat_instance(rng)
    s = fermat_solve(t)
    best = sum(s.distances())
    a_vec, b_vec = embed_triangle(t)
    origin = PlaneVector(0.0, 0.0)
    eps_pt = 1e-9 * t.perimeter()
    for _ in range(10_000):
        # Uniform barycentric sample of the interior.
        r1, r2 = rng.random(), rng.random()
        if r1 + r2 > 1.0:
            r1, r2 = 1.0 - r1, 1.0 - r2
        x = PlaneVector(r1 * a_vec.x + r2 * b_vec.x, r1 * a_vec.y + r2 * b_vec.y)
        total = x.distance_to(b_vec) + x.distance_to(a_vec) + x.distance_to(origin)
        assert total >= best - 1e-12 * best
        if x.distance_to(s.point) > eps_pt:
            assert total > best


def test_point_collinear_with_third_apex():
    # The cevian from the origin through the apex over edge c also passes
    # through the solution point; checked as a cross-product residual.
    rng = Random(45)
    for _ in range(100):
        t, _ = planted_fermat_instance(rng)
        a_vec, b_vec = embed_triangle(t)
        # (-y, x) turns (x, y) by +90 deg; this is turn(a_vec) - turn(b_vec).
        tx, ty = b_vec.y - a_vec.y, a_vec.x - b_vec.x
        rx = 0.5 * (a_vec.x + b_vec.x + SQRT3 * tx)
        ry = 0.5 * (a_vec.y + b_vec.y + SQRT3 * ty)
        m = fermat_solve(t).point
        assert abs(m.x * ry - m.y * rx) <= 1e-10 * math.hypot(m.x, m.y) * math.hypot(rx, ry)


def test_wide_triangle_rejected_with_diagnostics():
    # 150 deg at vertex A: a^2 = b^2 + c^2 - 2 b c cos(150).
    b, c = 2.0, 3.0
    a = math.sqrt(b * b + c * c - 2 * b * c * math.cos(math.radians(150)))
    with pytest.raises(AngleAtLeast120) as info:
        fermat_distances_closed_form(TriangleEdges(a, b, c))
    err = info.value
    assert err.vertex == "A"
    assert err.angle_deg == pytest.approx(150.0, abs=1e-9)
    assert err.clamped == (0.0, c, b)


def test_wide_vertex_b_named():
    a, c = 2.0, 3.0
    b = math.sqrt(a * a + c * c - 2 * a * c * math.cos(math.radians(130)))
    with pytest.raises(AngleAtLeast120) as info:
        fermat_solve(TriangleEdges(a, b, c))
    assert info.value.vertex == "B"
    assert info.value.clamped == (c, 0.0, a)


def test_construction_matches_closed_form_batch():
    rng = Random(46)
    mismatches = 0
    for _ in range(1000):
        t, expected = planted_fermat_instance(rng)
        closed = fermat_distances_closed_form(t).distances()
        constructed = fermat_construction(t).distances()
        for x, y in zip(closed, constructed):
            if rel_err(x, y, floor=1e-12 * t.perimeter()) > 1e-8:
                mismatches += 1
        for value, planted in zip(closed, expected.distances()):
            assert rel_err(value, planted) < 1e-9
    assert mismatches == 0


def test_construction_on_needles_matches_the_reference():
    """Every rotation of (10**-e, 1, 1) and (1, 1, 10**-e), e = 6 ... 150,
    against the 60-digit reference. With vertex A's abscissa taken as
    (a^2 + b^2 - c^2) / (2a), the construction missed by 1.5e-5 at e = 12,
    and raised DegenerateTriangle on (1, 1, 10**-e) from e = 15 on. The
    bound is 36u of the longest edge, 1: the 18u within which
    tests/test_placement.py shows ``place`` puts vertex A, and as much
    again for the construction's own steps. It gates the placement; it is
    no error analysis of the cevian system."""
    bound = Decimal(36 * 2.0 ** -53)
    for e in range(6, 151):
        for needle in ((10.0 ** -e, 1.0, 1.0), (1.0, 1.0, 10.0 ** -e)):
            for r in range(3):
                edges = needle[r:] + needle[:r]
                constructed = fermat_construction(TriangleEdges(*edges)).distances()
                for value, exact in zip(constructed, fermat_distances(*edges)):
                    assert abs(Decimal(value) - exact) <= bound, edges


def test_solve_unknown_method():
    with pytest.raises(ValueError):
        fermat_solve(TriangleEdges(1, 1, 1), "newton")


def test_residuals_reported_small():
    s = fermat_solve(E1_EDGES)
    assert s.max_residual < 1e-12
    assert len(s.residuals) == 3


def test_point_from_distances_roundtrip():
    t = E1_EDGES
    k = t.exponent
    unit = tuple(math.ldexp(d, -k) for d in E1_DISTANCES)
    pt = star_solution(t, unit, (0.0, 0.0, 0.0)).point
    assert math.hypot(pt.x, pt.y) == pytest.approx(5.0, rel=1e-14)
    a_vec, b_vec = embed_triangle(t)
    assert pt.distance_to(b_vec) == pytest.approx(3.0, rel=1e-12)
    assert pt.distance_to(a_vec) == pytest.approx(4.0, rel=1e-12)
