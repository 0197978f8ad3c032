"""Triangle primitive tests."""

from __future__ import annotations

import math
from random import Random

import pytest
from hypothesis import given, strategies as st

from conftest import rel_err, shoelace_area
from starsolve import (
    AngleOutOfRange,
    NotATriangle,
    PhaseAngles,
    TriangleEdges,
    theta_squared,
)
from starsolve.geometry import PlaneVector, StarSolution
from starsolve.kernel import angle_invariants, edge_invariants
from test_one_path import hexed

# -- theta_squared ------------------------------------------------------------

def test_theta_equilateral_is_sqrt3():
    assert theta_squared(TriangleEdges(1, 1, 1)) == pytest.approx(math.sqrt(3.0), rel=1e-15)


def test_theta_degenerate_collinear():
    assert theta_squared(TriangleEdges(2, 1, 1)) == 0.0


def test_theta_345_matches_shoelace_oracle():
    # Right triangle placed at (0,0), (3,0), (3,4): area 6, so 4*area = 24.
    oracle = 4.0 * shoelace_area((0, 0), (3, 0), (3, 4))
    assert oracle == 24.0
    assert theta_squared(TriangleEdges(3, 4, 5)) == pytest.approx(oracle, rel=1e-14)


def test_theta_permutation_invariant_within_4_ulps():
    rng = Random(7)
    for _ in range(200):
        base = sorted(rng.uniform(0.1, 10.0) for _ in range(3))
        # Force a valid triangle by shrinking the largest edge if needed.
        a, b, c = base
        c = min(c, a + b - 1e-6)
        reference = theta_squared(TriangleEdges(a, b, c))
        for perm in ((a, b, c), (a, c, b), (b, a, c), (b, c, a), (c, a, b), (c, b, a)):
            value = theta_squared(TriangleEdges(*perm))
            assert abs(value - reference) <= 4 * math.ulp(reference)


@given(st.floats(min_value=1e-6, max_value=1e6))
def test_theta_scales_quadratically(k):
    t = TriangleEdges(3, 4, 5)
    scaled = theta_squared(TriangleEdges(3 * k, 4 * k, 5 * k))
    assert rel_err(scaled, k * k * theta_squared(t)) < 1e-12


def test_theta_sin_identity():
    # (Theta^2)^2 + (a^2+b^2-c^2)^2 = 4 a^2 b^2
    rng = Random(11)
    for _ in range(500):
        a = rng.uniform(0.1, 10)
        b = rng.uniform(0.1, 10)
        lo, hi = abs(a - b) * 1.001 + 1e-6, (a + b) * 0.999
        if lo >= hi:
            continue
        c = rng.uniform(lo, hi)
        t = TriangleEdges(a, b, c)
        th = theta_squared(t)
        lhs = th * th + (a * a + b * b - c * c) ** 2
        assert rel_err(lhs, 4 * a * a * b * b) < 1e-10


def test_triangle_rejects_violations():
    with pytest.raises(NotATriangle):
        TriangleEdges(10, 1, 1)
    with pytest.raises(NotATriangle):
        TriangleEdges(1, -2, 1)
    with pytest.raises(NotATriangle):
        TriangleEdges(0, 1, 1)
    with pytest.raises(NotATriangle):
        TriangleEdges(1, 1, float("nan"))


def test_collinearity_clamp_window():
    # Tiny overshoot from measurement noise clamps to zero area...
    assert theta_squared(TriangleEdges(1, 1, 2 + 1e-13)) == 0.0
    # ...a real violation is rejected.
    with pytest.raises(NotATriangle):
        TriangleEdges(1, 1, 2 + 1e-8)


def test_theta_needle_accuracy():
    # Right needle with exact-double legs: 4*area = 2h exactly.
    for k in (4, 10, 16, 20):
        h = 2.0 ** (-k)
        hyp = math.sqrt(1.0 + h * h)
        value = theta_squared(TriangleEdges(1.0, h, hyp))
        assert rel_err(value, 2.0 * h) < 1e-10


# -- PhaseAngles --------------------------------------------------------------

def test_phase_angles_valid():
    angles = PhaseAngles(110, 130, 120)
    assert angles.as_tuple() == (110, 130, 120)


def test_phase_angles_sum_enforced():
    with pytest.raises(AngleOutOfRange):
        PhaseAngles(120, 120, 121)


def test_phase_angles_range_enforced():
    with pytest.raises(AngleOutOfRange) as info:
        PhaseAngles(190, 100, 70)
    assert info.value.name == "psi_a"


@pytest.mark.parametrize("position", range(3))
def test_star_solution_max_residual_keeps_a_nan_in_any_position(position):
    # max() keeps a NaN only in the first position.
    residuals = [0.0, 0.0, 0.0]
    residuals[position] = math.nan
    solution = StarSolution(1.0, 1.0, 1.0, PlaneVector(0.0, 0.0), tuple(residuals))
    assert math.isnan(solution.max_residual)


# -- the invariants the value types keep ---------------------------------------

@pytest.mark.parametrize("edges", [(3, 4, 5), (3.0, 4.0, 5.0), (2, 1, 1), (1.0, 1e-160, 1.0),
                                   (1e300, 1e300, 1e300), (5e-324, 5e-324, 5e-324)])
def test_triangle_edges_keep_the_kernel_invariants_bit_for_bit(edges):
    assert hexed(TriangleEdges(*edges).invariants) == hexed(edge_invariants(*edges))


@pytest.mark.parametrize("psis", [(120, 120, 120), (110.0, 130.0, 120.0), (90.0, 150.0, 120.0),
                                  (179.5, 90.25, 90.25), (0.5, 179.75, 179.75)])
def test_phase_angles_keep_the_kernel_invariants_bit_for_bit(psis):
    assert hexed(PhaseAngles(*psis).invariants) == hexed(angle_invariants(*psis))
