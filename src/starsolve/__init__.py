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
Each public name, and the module that defines it, is imported on first
use (PEP 562). ``star-solve`` runs on the float kernels of
:mod:`starsolve.kernel`, and ``synth`` on its planted draw and forward map
in :mod:`starsolve.oracle_kernel` too, so no CLI path loads a value type.
"""

from importlib import import_module

__version__ = "0.1.0"

# Each public name by the module that defines it.
_EXPORTS = {
    "circuit": ("LineVoltages", "Phasor", "PhaseToPhaseVoltages", "ResidualReport",
                "line_voltage_phasors", "phasor_difference", "solve_general_star",
                "solve_symmetric_star", "verify_solution"),
    "errors": ("AngleAtLeast120", "AngleOutOfRange", "ConcentricCircles",
               "DegenerateTriangle", "InconsistentMeasurement",
               "InfeasibleConfiguration", "NoConvergence", "NoInteriorIntersection",
               "NotATriangle", "PhaseDiagnostic", "StarSolveError",
               "UnresolvedConfiguration"),
    "fermat": ("fermat_distances_closed_form", "fermat_solve"),
    "general": ("general_distances_closed_form", "general_solve_by_circles",
                "validate_angles"),
    "geometry": ("PhaseAngles", "PlaneVector", "StarSolution", "TriangleEdges",
                 "embed_triangle", "theta_squared"),
    "oracle": ("MinimizationResult", "SynthesisSpec", "minimize_distance_sum",
               "random_synthesis_spec", "sample_waveform_amplitude",
               "synthesize_triangle"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str) -> object:
    """A public name or one of the submodules in ``_EXPORTS``, imported on
    first use and then kept as a module attribute."""
    if name in _EXPORTS:
        value = import_module(f"{__name__}.{name}")
    elif name in _MODULE_OF:
        value = getattr(import_module(f"{__name__}.{_MODULE_OF[name]}"), name)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__, *_EXPORTS})
