"""Scale invariance: the solvers are homogeneous of degree one in voltage.

A measurement scaled by any finite positive factor must solve to the
scaled answer, and verify must accept it, down to the smallest and up to
the largest scales a float holds.
"""

from __future__ import annotations

import math
from random import Random

import pytest
from hypothesis import given, settings, strategies as st

from conftest import rel_err
from starsolve import (
    PhaseToPhaseVoltages,
    TriangleEdges,
    fermat_solve,
    general_solve_by_circles,
    solve_general_star,
    solve_symmetric_star,
)
from starsolve.cli import main, solve_record, verify_record
from starsolve.oracle import (
    minimize_distance_sum,
    random_synthesis_spec,
    synthesize_triangle,
)
from starsolve.records import STATUS_INFEASIBLE, STATUS_OK, MeasurementRecord

SCALES = (1e-200, 1e-160, 1e150, 1e160)


def forward_edges(d, psi):
    """Phase-to-phase voltages of line voltages ``d`` at phase differences
    ``psi`` (degrees), by the law of cosines; u_i lies across from d_i."""
    d1, d2, d3 = d
    c1, c2, c3 = (math.cos(math.radians(p)) for p in psi)
    return (math.sqrt(d2 * d2 + d3 * d3 - 2.0 * d2 * d3 * c1),
            math.sqrt(d3 * d3 + d1 * d1 - 2.0 * d3 * d1 * c2),
            math.sqrt(d1 * d1 + d2 * d2 - 2.0 * d1 * d2 * c3))


# The 3-4-5 triangle at 120 deg, and line voltages (1, 2, 1.5) seen under
# phase differences (100, 130, 130) deg.
CASES = {
    "345-at-120": ((3.0, 4.0, 5.0), None),
    "general": (forward_edges((1.0, 2.0, 1.5), (100.0, 130.0, 130.0)), (100.0, 130.0)),
}


@pytest.mark.parametrize("scale", SCALES)
@pytest.mark.parametrize("case", sorted(CASES))
def test_extreme_scale_solves_and_verifies(case, scale):
    u, psi = CASES[case]
    psi = psi or (None, None)
    _, unit = solve_record(MeasurementRecord("unit", *u, *psi), 1e-8)
    m = MeasurementRecord("scaled", *(x * scale for x in u), *psi)
    _, s = solve_record(m, 1e-8)
    assert unit.status == s.status == STATUS_OK, s.diagnostics
    for got, want in zip((s.u1p, s.u2p, s.u3p), (unit.u1p, unit.u2p, unit.u3p)):
        assert rel_err(got, want * scale) <= 1e-12
    passed, detail = verify_record(m, s, 1e-8)
    assert passed, detail


def test_extreme_scale_pipeline(tmp_path, capsys):
    lines = ["id,u1,u2,u3,psi1,psi2"]
    for case, (u, psi) in sorted(CASES.items()):
        for scale in SCALES:
            angles = [repr(p) for p in psi] if psi else ["", ""]
            lines.append(",".join([f"{case}-x{scale:g}",
                                   *(repr(x * scale) for x in u), *angles]))
    batch = tmp_path / "scaled.csv"
    batch.write_text("\n".join(lines) + "\n")
    assert main(["solve", str(batch)]) == 0
    solved = tmp_path / "solved.csv"
    solved.write_text(capsys.readouterr().out)
    assert main(["verify", str(solved)]) == 0
    assert capsys.readouterr().out.endswith("8 records, 0 failed\n")


def _solve(u, psi):
    voltages = PhaseToPhaseVoltages(*u)
    if psi is None:
        return solve_symmetric_star(voltages)
    return solve_general_star(voltages, *psi)


def _planted(seed: int, symmetric: bool):
    spec = random_synthesis_spec(Random(seed), symmetric=symmetric)
    edges, _ = synthesize_triangle(spec)
    psi = None if symmetric else (spec.angles.psi_a, spec.angles.psi_b)
    return edges.as_tuple(), psi


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), e=st.integers(-300, 300),
       symmetric=st.booleans())
def test_decimal_scale_property(seed, e, symmetric):
    u, psi = _planted(seed, symmetric)
    k = 10.0 ** e
    unit = _solve(u, psi)
    scaled = _solve(tuple(x * k for x in u), psi)
    for got, want in zip(scaled.as_tuple(), unit.as_tuple()):
        assert rel_err(got, want * k) <= 1e-12


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), e=st.integers(-1000, 1000),
       symmetric=st.booleans())
def test_power_of_two_scale_is_exact(seed, e, symmetric):
    u, psi = _planted(seed, symmetric)
    unit = _solve(u, psi)
    scaled = _solve(tuple(math.ldexp(x, e) for x in u), psi)
    assert scaled.as_tuple() == tuple(math.ldexp(x, e) for x in unit.as_tuple())
    assert scaled.residuals == unit.residuals


def _scaled_edges(u, e):
    return TriangleEdges(*(math.ldexp(x, e) for x in u))


def _scaled_point(point, e):
    return (math.ldexp(point.x, e), math.ldexp(point.y, e))


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), e=st.integers(-1000, 1000),
       symmetric=st.booleans())
def test_circle_route_power_of_two_scale_is_exact(seed, e, symmetric):
    spec = random_synthesis_spec(Random(seed), symmetric=symmetric)
    edges, _ = synthesize_triangle(spec)
    unit = general_solve_by_circles(edges, spec.angles)
    scaled = general_solve_by_circles(_scaled_edges(edges.as_tuple(), e), spec.angles)
    assert scaled.distances() == tuple(math.ldexp(x, e) for x in unit.distances())
    assert (scaled.point.x, scaled.point.y) == _scaled_point(unit.point, e)
    assert scaled.residuals == unit.residuals


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), e=st.integers(-1000, 1000),
       symmetric=st.booleans())
def test_oracle_power_of_two_scale_is_exact(seed, e, symmetric):
    # General plantings include triangles with an angle >= 120 deg, whose
    # minimum is a vertex found by the Kuhn test.
    u, _ = _planted(seed, symmetric)
    unit = minimize_distance_sum(TriangleEdges(*u))
    scaled = minimize_distance_sum(_scaled_edges(u, e))
    assert scaled.value == math.ldexp(unit.value, e)
    assert (scaled.point.x, scaled.point.y) == _scaled_point(unit.point, e)
    assert scaled.iterations == unit.iterations


# The 3-4-5 triangle at 120 deg times 3e307: its line voltages sum past
# the largest float.
BEYOND_FLOAT_SUM = [tuple(x * 3e307 for x in u)
                    for u in ((3.0, 4.0, 5.0), (4.0, 5.0, 3.0), (5.0, 3.0, 4.0))]


@pytest.mark.parametrize("u", BEYOND_FLOAT_SUM)
def test_verify_line_voltage_sum_beyond_float_range(u):
    m = MeasurementRecord("huge", *u)
    _, s = solve_record(m, 1e-8)
    assert s.status == STATUS_OK, s.diagnostics
    assert math.isinf(s.u1p + s.u2p + s.u3p)
    passed, detail = verify_record(m, s, 1e-8)
    assert passed, detail


def test_verify_line_voltage_sum_beyond_float_range_pipeline(tmp_path, capsys):
    lines = ["id,u1,u2,u3"] + [f"huge-{i},{','.join(map(repr, u))}"
                               for i, u in enumerate(BEYOND_FLOAT_SUM)]
    batch = tmp_path / "huge.csv"
    batch.write_text("\n".join(lines) + "\n")
    assert main(["solve", str(batch)]) == 0
    solved = tmp_path / "solved.csv"
    solved.write_text(capsys.readouterr().out)
    assert main(["verify", str(solved)]) == 0
    assert capsys.readouterr().out.endswith("3 records, 0 failed\n")


@pytest.mark.parametrize("scale", SCALES)
def test_construction_matches_closed_form_at_extreme_scale(scale):
    t = TriangleEdges(3.0 * scale, 4.0 * scale, 5.0 * scale)
    constructed = fermat_solve(t, "construction").distances()
    closed = fermat_solve(t).distances()
    for got, want in zip(constructed, closed):
        assert rel_err(got, want) <= 1e-12


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), e=st.integers(-1000, 1000))
def test_construction_power_of_two_scale_is_exact(seed, e):
    u, _ = _planted(seed, symmetric=True)
    unit = fermat_solve(TriangleEdges(*u), "construction")
    scaled = fermat_solve(_scaled_edges(u, e), "construction")
    assert scaled.distances() == tuple(math.ldexp(x, e) for x in unit.distances())


# Needles whose short edge squares to 0 on the unit triangle: every closure
# defect divides by that square, so the row is infeasible, not an error.
NEEDLES = [((1.0, 1.0, 1e-162), None), ((1.0, 1.0, 1e-162), (100.0, 130.0)),
           ((1e300, 1e300, 1e-24), None), ((1.0, 1.0, 5e-324), (170.0, 170.0))]


@pytest.mark.parametrize("u, psi", NEEDLES)
def test_needle_whose_short_edge_squares_to_zero_is_infeasible(u, psi):
    m = MeasurementRecord("needle", *u, *(psi or (None, None)))
    _, s = solve_record(m, 1e-8)
    assert s.status == STATUS_INFEASIBLE, s.diagnostics
    assert "squares to 0" in s.diagnostics
    passed, detail = verify_record(m, s, 1e-8)
    assert passed, detail
