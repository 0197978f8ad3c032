"""starsolve: line voltages of three-phase star circuits from phase-to-phase
measurements, by solving the equivalent plane-geometry problems.

Library entry points:

* :func:`solve_symmetric_star` / :func:`solve_general_star` for the
  electrical formulation (voltages in volts, phase differences in degrees);
* :func:`fermat_solve` (closed form or cevian construction) and
  :func:`general_distances_closed_form` / :func:`general_solve_by_circles`
  for the geometric formulation;
* :mod:`starsolve.oracle` for the independent verification machinery.

Every operation is a pure function; the package is thread-safe throughout.
"""

from .circuit import (
    LineVoltages,
    Phasor,
    PhaseToPhaseVoltages,
    ResidualReport,
    line_voltage_phasors,
    phasor_difference,
    solve_general_star,
    solve_symmetric_star,
    verify_solution,
)
from .errors import (
    AmbiguousIntersection,
    AngleAtLeast120,
    AngleOutOfRange,
    ConcentricCircles,
    DegenerateTriangle,
    InconsistentMeasurement,
    InfeasibleConfiguration,
    NoConvergence,
    NoInteriorIntersection,
    NotATriangle,
    PhaseDiagnostic,
    StarSolveError,
)
from .fermat import (
    fermat_distances_closed_form,
    fermat_solve,
)
from .general import (
    general_distances_closed_form,
    general_solve_by_circles,
    validate_angles,
)
from .geometry import (
    PhaseAngles,
    PlaneVector,
    StarSolution,
    TriangleEdges,
    embed_triangle,
    theta_squared,
)
from .oracle import (
    MinimizationResult,
    SynthesisSpec,
    minimize_distance_sum,
    sample_waveform_amplitude,
    synthesize_triangle,
)

__version__ = "0.1.0"

__all__ = [
    "AmbiguousIntersection",
    "AngleAtLeast120",
    "AngleOutOfRange",
    "ConcentricCircles",
    "DegenerateTriangle",
    "InconsistentMeasurement",
    "InfeasibleConfiguration",
    "LineVoltages",
    "MinimizationResult",
    "NoConvergence",
    "NoInteriorIntersection",
    "NotATriangle",
    "PhaseAngles",
    "PhaseDiagnostic",
    "PhaseToPhaseVoltages",
    "Phasor",
    "PlaneVector",
    "ResidualReport",
    "StarSolution",
    "StarSolveError",
    "SynthesisSpec",
    "TriangleEdges",
    "embed_triangle",
    "fermat_distances_closed_form",
    "fermat_solve",
    "general_distances_closed_form",
    "general_solve_by_circles",
    "line_voltage_phasors",
    "minimize_distance_sum",
    "phasor_difference",
    "sample_waveform_amplitude",
    "solve_general_star",
    "solve_symmetric_star",
    "synthesize_triangle",
    "theta_squared",
    "validate_angles",
    "verify_solution",
]
