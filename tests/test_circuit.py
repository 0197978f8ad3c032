"""Tests for the electrical front end."""

from __future__ import annotations

import math
from random import Random

import pytest

from conftest import E1_EDGES, E4_ANGLES, E4_EDGES, rel_err
from starsolve import (
    InconsistentMeasurement,
    LineVoltages,
    PhaseAngles,
    PhaseDiagnostic,
    PhaseToPhaseVoltages,
    Phasor,
    UnresolvedConfiguration,
    kernel,
    line_voltage_phasors,
    phasor_difference,
    sample_waveform_amplitude,
    solve_general_star,
    solve_symmetric_star,
    verify_solution,
)
from starsolve.cli import verify_record
from starsolve.config import residual_tolerance
from starsolve.fermat import ALL_120
from starsolve.records import STATUS_OK, MeasurementRecord, SolutionRecord

SQRT3 = math.sqrt(3.0)


# -- phasors ------------------------------------------------------------------

def test_symmetric_difference_amplitude():
    d = phasor_difference(Phasor(1.0, 120.0), Phasor(1.0, 0.0))
    assert d.amplitude == pytest.approx(SQRT3, rel=1e-15)


def test_difference_of_equal_phasors_vanishes():
    d = phasor_difference(Phasor(1.0, 0.0), Phasor(1.0, 0.0))
    assert d.amplitude == 0.0


def test_difference_against_time_domain_oracle():
    # 2 cos(wt + 90) - cos(wt) has amplitude sqrt(5).
    d = phasor_difference(Phasor(2.0, 90.0), Phasor(1.0, 0.0))
    sampled = sample_waveform_amplitude([Phasor(2.0, 90.0), Phasor(1.0, 0.0)], [1, -1])
    assert d.amplitude == pytest.approx(math.sqrt(5.0), rel=1e-15)
    assert rel_err(sampled, d.amplitude) < 1e-6


def test_equal_amplitude_difference_formula():
    rng = Random(80)
    for _ in range(100):
        amp = rng.uniform(0.1, 100.0)
        ph1, ph2 = rng.uniform(0, 360), rng.uniform(0, 360)
        d = phasor_difference(Phasor(amp, ph1), Phasor(amp, ph2))
        expected = 2.0 * amp * abs(math.sin(math.radians(ph1 - ph2) / 2.0))
        assert d.amplitude == pytest.approx(expected, abs=1e-12 * amp)


def test_phasor_normalizes_phase():
    assert Phasor(1.0, 370.0).phase == pytest.approx(10.0)
    assert Phasor(1.0, -90.0).phase == pytest.approx(270.0)
    with pytest.raises(ValueError):
        Phasor(-1.0, 0.0)


@pytest.mark.parametrize("amplitude, phase", [
    (math.nan, 0.0), (math.inf, 0.0), (1.0, math.nan), (1.0, math.inf)])
def test_phasor_rejects_values_that_are_not_finite(amplitude, phase):
    # Every comparison with a NaN is false, and inf % 360 is a NaN phase.
    with pytest.raises(ValueError, match="finite"):
        Phasor(amplitude, phase)


# -- symmetric solve ----------------------------------------------------------

def test_symmetric_star_balanced_400v():
    lv = solve_symmetric_star(PhaseToPhaseVoltages(400.0, 400.0, 400.0))
    for u in lv.as_tuple():
        assert rel_err(u, 400.0 / SQRT3) < 1e-12


def test_symmetric_star_planted_345():
    u = PhaseToPhaseVoltages(E1_EDGES.a * 100, E1_EDGES.b * 100, E1_EDGES.c * 100)
    lv = solve_symmetric_star(u)
    for value, expected in zip(lv.as_tuple(), (300.0, 400.0, 500.0)):
        assert rel_err(value, expected) < 1e-12


def test_symmetric_star_rejects_bad_triangle():
    with pytest.raises(InconsistentMeasurement):
        PhaseToPhaseVoltages(10.0, 1.0, 1.0)


def test_symmetric_star_wide_phasor_diagnostic():
    b, c = 2.0, 3.0
    a = math.sqrt(b * b + c * c - 2 * b * c * math.cos(math.radians(150)))
    with pytest.raises(PhaseDiagnostic) as info:
        solve_symmetric_star(PhaseToPhaseVoltages(a, b, c))
    assert info.value.vertex == "A"
    assert info.value.clamped == (0.0, c, b)


# -- general solve ------------------------------------------------------------

def test_general_star_reduces_at_120():
    u = PhaseToPhaseVoltages(400.0, 400.0, 400.0)
    general = solve_general_star(u, 120.0, 120.0)
    symmetric = solve_symmetric_star(u)
    for x, y in zip(general.as_tuple(), symmetric.as_tuple()):
        assert rel_err(x, y) < 1e-12


def test_general_star_planted_345():
    u = PhaseToPhaseVoltages(E4_EDGES.a * 100, E4_EDGES.b * 100, E4_EDGES.c * 100)
    lv = solve_general_star(u, 110.0, 130.0)
    for value, expected in zip(lv.as_tuple(), (300.0, 400.0, 500.0)):
        assert rel_err(value, expected) < 1e-12


def test_general_star_limiting_case_flags_zero_voltage():
    c = 1.0
    theta_sq = c * math.sqrt(4.0 - c * c)
    psi = math.degrees(math.atan2(1.0, -theta_sq / (c * c)))
    lv = solve_general_star(PhaseToPhaseVoltages(1.0, 1.0, c), psi, psi)
    assert lv.u3p < 1e-8
    assert rel_err(lv.u1p, 1.0) < 1e-8
    assert any("u3p" in note for note in lv.diagnostics)


def test_index_convention_swap():
    # Swapping u2 <-> u3 together with psi2 <-> psi3 swaps u2p <-> u3p.
    u = PhaseToPhaseVoltages(E4_EDGES.a, E4_EDGES.b, E4_EDGES.c)
    psi1, psi2 = E4_ANGLES.psi_a, E4_ANGLES.psi_b
    psi3 = 360.0 - psi1 - psi2
    base = solve_general_star(u, psi1, psi2)
    swapped = solve_general_star(
        PhaseToPhaseVoltages(u.u1, u.u3, u.u2), psi1, psi3)
    assert rel_err(swapped.u1p, base.u1p) < 1e-12
    assert rel_err(swapped.u2p, base.u3p) < 1e-12
    assert rel_err(swapped.u3p, base.u2p) < 1e-12


def test_unit_homogeneity():
    u = PhaseToPhaseVoltages(E4_EDGES.a, E4_EDGES.b, E4_EDGES.c)
    k = 230.94
    uk = PhaseToPhaseVoltages(u.u1 * k, u.u2 * k, u.u3 * k)
    base = solve_general_star(u, 110.0, 130.0)
    scaled = solve_general_star(uk, 110.0, 130.0)
    for x, y in zip(scaled.as_tuple(), base.as_tuple()):
        assert rel_err(x, k * y) < 1e-12


def test_round_trip_from_planted_line_voltages():
    rng = Random(81)
    for _ in range(200):
        planted = tuple(math.exp(rng.uniform(math.log(0.1), math.log(10))) for _ in range(3))
        while True:
            draws = [rng.uniform(61, 179) for _ in range(2)]
            psi3 = 360.0 - sum(draws)
            if 60.0 < psi3 < 180.0:
                break
        psi1, psi2 = draws
        cos1, cos2, cos3 = (math.cos(math.radians(p)) for p in (psi1, psi2, psi3))
        u1p, u2p, u3p = planted
        u = PhaseToPhaseVoltages(
            math.sqrt(u2p * u2p + u3p * u3p - 2 * u2p * u3p * cos1),
            math.sqrt(u3p * u3p + u1p * u1p - 2 * u3p * u1p * cos2),
            math.sqrt(u1p * u1p + u2p * u2p - 2 * u1p * u2p * cos3),
        )
        lv = solve_general_star(u, psi1, psi2)
        for value, expected in zip(lv.as_tuple(), planted):
            assert rel_err(value, expected) < 1e-8


# -- verification -------------------------------------------------------------

def test_verify_exact_solution():
    u = PhaseToPhaseVoltages(400.0, 400.0, 400.0)
    report = verify_solution(u, solve_symmetric_star(u))
    assert report.passed
    assert report.max_residual < 1e-12
    assert report.detail == f"max residual {report.max_residual:.3e}"


def test_verify_flags_percent_error():
    u = PhaseToPhaseVoltages(400.0, 400.0, 400.0)
    lv = solve_symmetric_star(u)
    bad = LineVoltages(lv.u1p * 1.01, lv.u2p, lv.u3p)
    report = verify_solution(u, bad)
    assert not report.passed
    assert 1e-3 < report.max_residual < 1e-1


def test_verify_e4_solution():
    u = PhaseToPhaseVoltages(E4_EDGES.a, E4_EDGES.b, E4_EDGES.c)
    lv = solve_general_star(u, 110.0, 130.0)
    report = verify_solution(u, lv, PhaseAngles(110.0, 130.0, 120.0))
    assert report.passed


def test_verify_claim_beyond_the_float_range_of_the_unit_triangle():
    # The unit triangle is these edges times about 2**996, and so is the
    # claim, which then overflows: every residual reads inf, as in verify.
    report = verify_solution(PhaseToPhaseVoltages(1e-300, 1e-300, 1e-300),
                             LineVoltages(1e300, 1e300, 1e300))
    assert report.residuals == (math.inf, math.inf, math.inf)
    assert not report.passed
    m = MeasurementRecord("o", 1e-300, 1e-300, 1e-300)
    s = SolutionRecord("o", 1e300, 1e300, 1e300, 0.0, STATUS_OK)
    assert verify_record(m, s, report.tolerance) == (
        False, "closure residual inf exceeds tolerance 1e-08")


def test_a_nan_residual_fails_in_any_position():
    # A NaN claim leaves the residual of its own edge a number and makes the
    # other two NaN: max() keeps a NaN only in first position. LineVoltages
    # refuses a NaN, so the claim goes to the kernel check and to verify.
    d = 400.0 / SQRT3
    edges = kernel.edge_invariants(400.0, 400.0, 400.0)
    for position in range(3):
        claim = tuple(math.nan if i == position else d for i in range(3))
        passed, detail, defects = kernel.check_claim(edges, kernel.ANGLES_120, claim, 1e-8)
        assert defects[position] < 1e-15
        assert all(math.isnan(r) for i, r in enumerate(defects) if i != position)
        assert (passed, detail) == (False, "closure residual nan exceeds tolerance 1e-08")
        m = MeasurementRecord("n", 400.0, 400.0, 400.0)
        s = SolutionRecord("n", *claim, 0.0, STATUS_OK)
        assert verify_record(m, s, 1e-8) == (passed, detail)


def test_the_library_fails_a_claim_that_only_the_circle_route_refutes():
    # Near a terminal, the short distance a thousandth off still closes
    # within 1e-8; the circle route refutes it, in the library as in verify.
    edges = (2.0000005000001875, 1.000000500000375, 2.6457513110645903)
    u = PhaseToPhaseVoltages(*edges)
    lv = solve_symmetric_star(u)
    claim = (lv.u1p, lv.u2p, lv.u3p * 1.001)
    report = verify_solution(u, LineVoltages(*claim))
    assert report.max_residual < report.tolerance and not report.passed
    assert report.detail.startswith(f"u3p={claim[2]!r} disagrees with circle-path value")
    m = MeasurementRecord("v", *edges)
    assert verify_record(m, SolutionRecord("v", *claim, 0.0, STATUS_OK), 1e-8) == (
        False, report.detail)


@pytest.mark.parametrize("tolerance", [math.inf, math.nan, 0.0, -1.0])
def test_verify_solution_refuses_a_tolerance_the_cli_refuses(tolerance):
    # Under an infinite tolerance neither the closure nor the circle route
    # could fail a claim: the library refuses what the CLI refuses, in the
    # same words.
    with pytest.raises(ValueError) as cli_error:
        residual_tolerance(tolerance)
    with pytest.raises(ValueError) as library_error:
        verify_solution(PhaseToPhaseVoltages(3, 4, 5), LineVoltages(1e9, 1e9, 1e9),
                        ALL_120, tolerance)
    assert str(library_error.value) == str(cli_error.value)


@pytest.mark.parametrize("bad", [-1.0, -0.5e-300, math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("position", range(3))
def test_line_voltages_refuse_a_negative_or_non_finite_amplitude(bad, position):
    with pytest.raises(ValueError, match="finite and nonnegative"):
        LineVoltages(*(bad if i == position else 1.0 for i in range(3)))


def test_line_voltages_take_a_zero_amplitude():
    assert LineVoltages(0.0, -0.0, 1).as_tuple() == (0.0, 0.0, 1)


@pytest.mark.parametrize("position", range(3))
def test_the_kernel_refuses_a_nan_residual_in_any_position(monkeypatch, position):
    residuals = tuple(math.nan if i == position else 0.0 for i in range(3))
    monkeypatch.setattr(kernel, "closure_defects", lambda *args: residuals)
    with pytest.raises(UnresolvedConfiguration) as info:
        solve_symmetric_star(PhaseToPhaseVoltages(400.0, 400.0, 400.0))
    assert str(info.value).startswith(f"closure residuals {residuals} exceed")


# -- supplementary phasor output ----------------------------------------------

def test_line_voltage_phasors_frame_dependent_but_consistent():
    u = PhaseToPhaseVoltages(400.0, 400.0, 400.0)
    phasors = line_voltage_phasors(u)
    lv = solve_symmetric_star(u)
    for ph, amp in zip(phasors, lv.as_tuple()):
        assert rel_err(ph.amplitude, amp) < 1e-12
    # Pairwise phase differences are physical: 120 deg here.
    diffs = sorted((phasors[i].phase - phasors[j].phase) % 360.0
                   for i, j in ((0, 1), (1, 2), (2, 0)))
    for d in diffs:
        assert d == pytest.approx(120.0, abs=1e-9) or d == pytest.approx(240.0, abs=1e-9)
