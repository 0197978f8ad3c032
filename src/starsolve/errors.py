"""Exception hierarchy for the star-circuit solvers.

Batch tooling maps failures to record statuses by class, without string
matching. Two classes also go by a measurement-domain name, as aliases:
:data:`InconsistentMeasurement` is :class:`NotATriangle` and
:data:`PhaseDiagnostic` is :class:`AngleAtLeast120`.
"""

from __future__ import annotations


class StarSolveError(Exception):
    """Base class for all errors raised by this package."""


# -- plane-geometry ----------------------------------------------------------

class NotATriangle(StarSolveError):
    """Three lengths violate the triangle inequality or are non-positive."""


class DegenerateTriangle(StarSolveError):
    """Two spanning vectors are collinear, or an edge is too short beside the
    longest to square: the triangle has no interior a float can resolve."""


# -- fermat-solver -----------------------------------------------------------

class AngleAtLeast120(StarSolveError):
    """Some interior angle is >= 120 deg, so no interior three-ray point exists.

    ``vertex`` names the wide corner ("A", "B" or "C"); ``clamped`` holds the
    vertex-degenerate distances (zero at the wide corner, adjacent edge
    lengths elsewhere) for diagnostic use only. In the circuit picture this
    is a phasor-diagram angle >= 120 deg, which for a symmetric-load solve
    points at faulty data rather than an unusual but valid circuit.
    """

    def __init__(self, vertex: str, angle_deg: float,
                 clamped: tuple[float, float, float]):
        self.vertex = vertex
        self.angle_deg = angle_deg
        self.clamped = clamped
        super().__init__(
            f"phasor-triangle angle at vertex {vertex} is {angle_deg:.6g} deg "
            f"(>= 120 deg); advisory vertex-clamped line voltages {clamped}"
        )


# -- general-solver ----------------------------------------------------------

class AngleOutOfRange(StarSolveError):
    """A viewing angle falls outside the open interval (0 deg, 180 deg)."""

    def __init__(self, name: str, value_deg: float, reason: str = ""):
        self.name = name
        self.value_deg = value_deg
        msg = f"{name} = {value_deg:.6g} deg is outside (0, 180)"
        if reason:
            msg = f"{name} = {value_deg:.6g} deg: {reason}"
        super().__init__(msg)


class InfeasibleConfiguration(StarSolveError):
    """No interior point realizes the requested edge lengths and angles."""


class UnresolvedConfiguration(StarSolveError):
    """An interior point realizes the edge lengths and angles, but the closed
    form does not reach it within the tolerance."""


class NoInteriorIntersection(StarSolveError):
    """The two viewing-angle circles do not intersect inside the triangle."""


# -- circuit-adapter ---------------------------------------------------------

# Measured voltages that fit no phasor diagram (triangle inequality fails).
InconsistentMeasurement = NotATriangle

# A phasor-diagram angle >= 120 deg.
PhaseDiagnostic = AngleAtLeast120


# -- oracle ------------------------------------------------------------------

class ConcentricCircles(StarSolveError):
    """Circle intersection is undefined for (near-)concentric circles."""


class NoConvergence(StarSolveError):
    """The distance-sum minimizer hit its iteration cap before certifying its gap."""
