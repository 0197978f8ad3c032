"""Electrical front end: voltages in, voltages out.

Maps measured phase-to-phase voltages (and, for the general problem, the
load's phase differences) onto the plane-geometry solvers and returns the
recovered line voltages. Index convention, frozen here and nowhere else:
voltage index = opposite triangle edge, so U1' is the distance from the
vertex across edge u1 and is built from u2^2 + u3^2 - u1^2. Swapping
u2 <-> u3 together with psi2 <-> psi3 therefore swaps u2p <-> u3p.

Amplitude versus RMS: the solvers are homogeneous of degree one in
voltage, so feeding RMS values yields RMS results; no conversion is done.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .config import RESIDUAL_TOL
from .fermat import ALL_120, fermat_distances_closed_form
from .general import general_distances_closed_form, validate_angles
from .geometry import (
    ORIGIN,
    PhaseAngles,
    StarSolution,
    TriangleEdges,
    closure_residuals,
    embed_triangle,
)


@dataclass(frozen=True)
class Phasor:
    """A sinusoid at the common grid frequency: amplitude and phase (degrees).

    The phase is normalized into [0, 360). Frequency never enters: all
    phasor arithmetic is frequency-independent.
    """

    amplitude: float
    phase: float = 0.0

    def __post_init__(self):
        if self.amplitude < 0.0:
            raise ValueError(f"amplitude must be nonnegative, got {self.amplitude}")
        object.__setattr__(self, "phase", self.phase % 360.0)

    def to_complex(self) -> complex:
        rad = math.radians(self.phase)
        return complex(self.amplitude * math.cos(rad),
                       self.amplitude * math.sin(rad))


def phasor_difference(p1: Phasor, p2: Phasor) -> Phasor:
    """Phasor of the voltage p1 - p2 (e.g. a phase-to-phase voltage from two
    line voltages). For equal amplitudes the result has amplitude
    2*A*|sin((phase1 - phase2)/2)|."""
    z = p1.to_complex() - p2.to_complex()
    amplitude = abs(z)
    if amplitude == 0.0:
        return Phasor(0.0, 0.0)
    return Phasor(amplitude, math.degrees(math.atan2(z.imag, z.real)))


@dataclass(frozen=True)
class PhaseToPhaseVoltages:
    """The three measurable voltages between phase terminals (volts).

    They are the edges of the phasor triangle, so they must satisfy the
    triangle inequality; a violating triple fits no phasor diagram and is
    rejected with :class:`InconsistentMeasurement`. The validated
    :class:`TriangleEdges`, with its invariants, is kept for the solvers.
    """

    u1: float
    u2: float
    u3: float
    _edges: TriangleEdges = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "_edges", TriangleEdges(self.u1, self.u2, self.u3))

    def to_edges(self) -> TriangleEdges:
        return self._edges


@dataclass(frozen=True)
class LineVoltages:
    """The recovered (unmeasurable) line voltages between each phase terminal
    and the load star point, plus free-form diagnostics notes and the
    solver's relative closure residuals, one per measured voltage (empty
    when the voltages did not come from a solver)."""

    u1p: float
    u2p: float
    u3p: float
    diagnostics: tuple[str, ...] = field(default=(), compare=False)
    residuals: tuple[float, ...] = field(default=(), compare=False)

    def as_tuple(self) -> tuple[float, float, float]:
        return (self.u1p, self.u2p, self.u3p)


def _star_solution(u: PhaseToPhaseVoltages, angles: PhaseAngles) -> StarSolution:
    """At 120 deg each the gated 120-deg solver, else the general kernel."""
    if angles == ALL_120:
        return fermat_distances_closed_form(u.to_edges())
    return general_distances_closed_form(u.to_edges(), angles)


def _line_voltages(u: PhaseToPhaseVoltages, angles: PhaseAngles) -> LineVoltages:
    """The kernel's distances as line voltages, noting each that is zero."""
    solution = _star_solution(u, angles)
    t = u.to_edges()
    # 1e-9 of the perimeter, which itself may exceed the float range.
    floor = math.ldexp(1e-9 * sum(t.unit), t.exponent)
    notes = []
    for name, value in zip(("u1p", "u2p", "u3p"), solution.distances()):
        if value < floor:
            notes.append(f"{name} is zero within tolerance: "
                         "the load star point sits on a phase terminal")
    return LineVoltages(*solution.distances(), diagnostics=tuple(notes),
                        residuals=solution.residuals)


def solve_symmetric_star(u: PhaseToPhaseVoltages) -> LineVoltages:
    """Line voltages of a load with all phase differences at 120 deg.

    This is the star circuit fed by a (possibly non-symmetric) generator
    whose line-voltage phases still sit 120 deg apart. Delegates to the
    120-deg interior point: U1' = (1/sqrt 6) * (sqrt3*(U2^2+U3^2-U1^2) +
    Theta^2) / sqrt(U1^2+U2^2+U3^2 + sqrt3*Theta^2), cyclically, where
    Theta^2 is the Heron radical of the voltage triangle.
    """
    return _line_voltages(u, ALL_120)


def solve_general_star(u: PhaseToPhaseVoltages, psi1: float, psi2: float) -> LineVoltages:
    """Line voltages of a load with prescribed phase differences.

    ``psi1`` and ``psi2`` are the phase differences of the line voltages
    (degrees); the third is 360 - psi1 - psi2. With both at 120 deg this
    is :func:`solve_symmetric_star`, wide-angle gate included.
    """
    return _line_voltages(u, validate_angles(psi1, psi2))


def line_voltage_phasors(u: PhaseToPhaseVoltages, psi1: float = 120.0,
                         psi2: float = 120.0) -> tuple[Phasor, Phasor, Phasor]:
    """Supplementary output: full phasors of the recovered line voltages.

    The magnitudes are measurement-grade; the phases are frame-dependent
    (measured in the canonical triangle frame, from the load star point
    toward each phase terminal) because only phase differences are
    physical.
    """
    solution = _star_solution(u, validate_angles(psi1, psi2))
    a_vec, b_vec = embed_triangle(u.to_edges())
    x = solution.point
    result = []
    for amplitude, vertex in zip(solution.distances(), (b_vec, a_vec, ORIGIN)):
        direction = vertex - x
        phase = math.degrees(math.atan2(direction.y, direction.x)) % 360.0
        result.append(Phasor(amplitude, phase))
    return tuple(result)


@dataclass(frozen=True)
class ResidualReport:
    """Closure check of a proposed solution against the measurement."""

    residuals: tuple[float, float, float]
    max_residual: float
    tolerance: float
    passed: bool


def verify_solution(u: PhaseToPhaseVoltages, lv: LineVoltages,
                    angles: PhaseAngles = ALL_120,
                    tolerance: float = RESIDUAL_TOL) -> ResidualReport:
    """Check the mesh-rule closure: each measured voltage must close the
    triangle over its two line voltages and phase difference.

    u1^2 = u2p^2 + u3p^2 - 2 u2p u3p cos(psi1), cyclically. Passes iff
    every relative residual is below ``tolerance``.
    """
    residuals = closure_residuals((u.u1, u.u2, u.u3), angles, lv.as_tuple())
    worst = max(residuals)
    return ResidualReport(residuals=residuals, max_residual=worst,
                          tolerance=tolerance, passed=worst <= tolerance)
