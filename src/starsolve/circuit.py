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

from .config import RESIDUAL_TOL, residual_tolerance
from .fermat import ALL_120
from .general import general_distances_closed_form, validate_angles
from .geometry import ORIGIN, PhaseAngles, TriangleEdges, embed_triangle
from .kernel import check_claim, line_voltage_kernel, worst_defect


@dataclass(frozen=True)
class Phasor:
    """A sinusoid at the common grid frequency: amplitude and phase (degrees).

    The phase is normalized into [0, 360). Frequency never enters: all
    phasor arithmetic is frequency-independent.
    """

    amplitude: float
    phase: float = 0.0

    def __post_init__(self):
        if not (0.0 <= self.amplitude < math.inf and math.isfinite(self.phase)):
            raise ValueError("amplitude must be finite and nonnegative and phase finite, "
                             f"got {self.amplitude} and {self.phase}")
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


@dataclass(frozen=True, init=False)
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

    def __init__(self, u1: float, u2: float, u3: float):
        # Frozen, so every field is set here, in one step.
        self.__dict__.update(u1=u1, u2=u2, u3=u3, _edges=TriangleEdges(u1, u2, u3))

    def to_edges(self) -> TriangleEdges:
        return self._edges


@dataclass(frozen=True)
class LineVoltages:
    """The recovered (unmeasurable) line voltages between each phase terminal
    and the load star point, each a finite nonnegative amplitude, plus
    free-form diagnostics notes and the solver's relative closure
    residuals, one per measured voltage (empty when the voltages did not
    come from a solver)."""

    u1p: float
    u2p: float
    u3p: float
    diagnostics: tuple[str, ...] = field(default=(), compare=False)
    residuals: tuple[float, ...] = field(default=(), compare=False)

    def __post_init__(self):
        if not (0.0 <= self.u1p < math.inf and 0.0 <= self.u2p < math.inf
                and 0.0 <= self.u3p < math.inf):
            raise ValueError("line voltages must be finite and nonnegative, "
                             f"got {self.as_tuple()}")

    def as_tuple(self) -> tuple[float, float, float]:
        return (self.u1p, self.u2p, self.u3p)


def _line_voltages(u: PhaseToPhaseVoltages, angles: PhaseAngles) -> LineVoltages:
    """:func:`~starsolve.kernel.line_voltage_kernel` on the invariants of
    ``u`` and ``angles``."""
    distances, residuals, notes = line_voltage_kernel(
        u.to_edges().invariants, angles.invariants, RESIDUAL_TOL)
    return LineVoltages(*distances, notes, residuals)


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
    is :func:`solve_symmetric_star`, its 120-deg feasibility test included.
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
    solution = general_distances_closed_form(u.to_edges(), validate_angles(psi1, psi2))
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
    """Verify's check of a proposed solution, its text in ``detail``."""

    residuals: tuple[float, float, float]
    max_residual: float
    tolerance: float
    passed: bool
    detail: str = ""


def verify_solution(u: PhaseToPhaseVoltages, lv: LineVoltages,
                    angles: PhaseAngles = ALL_120,
                    tolerance: float = RESIDUAL_TOL) -> ResidualReport:
    """``star-solve verify``'s check, :func:`~starsolve.kernel.check_claim`:
    the mesh-rule closure, u1^2 = u2p^2 + u3p^2 - 2 u2p u3p cos(psi1)
    cyclically, and the circle route; ``max_residual`` is a NaN if one is.
    The ``tolerance`` is checked as the CLI checks its own, by
    :func:`~starsolve.config.residual_tolerance`: one that is not finite
    and positive, under which no claim could fail, raises ValueError."""
    tolerance = residual_tolerance(tolerance)
    passed, detail, residuals = check_claim(
        u.to_edges().invariants, angles.invariants, lv.as_tuple(), tolerance)
    return ResidualReport(residuals, worst_defect(residuals), tolerance, passed, detail)
