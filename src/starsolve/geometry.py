"""Plane-vector and triangle value types shared by every solver.

Each type validates and computes through the float kernels of
:mod:`starsolve.kernel` and keeps what they return: :class:`TriangleEdges`
and :class:`PhaseAngles` keep it whole, as ``invariants``, the ``(edges,
angles)`` that every solver kernel takes. Every position the
library reports lies in one frame, C at the origin and B on +x, placed by
:func:`~starsolve.kernel.place` on the unit triangle: vertex A by
:func:`embed_triangle`, and each solver's point by :func:`star_solution`.
Everything here is a pure function of its inputs; no state, safe to call
from any number of threads. Angles cross the API in degrees, lengths in
whatever unit the caller uses (the solvers are homogeneous of degree one
in length, so volts work as well as metres).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .kernel import (AngleInvariants, EdgeInvariants, angle_invariants, edge_invariants,
                     place, worst_defect)


@dataclass(frozen=True)
class PlaneVector:
    """A 2-D Euclidean vector (also used for point positions)."""

    x: float
    y: float

    def __sub__(self, other: "PlaneVector") -> "PlaneVector":
        return PlaneVector(self.x - other.x, self.y - other.y)

    def distance_to(self, other: "PlaneVector") -> float:
        return math.hypot(self.x - other.x, self.y - other.y)


ORIGIN = PlaneVector(0.0, 0.0)


@dataclass(frozen=True, init=False)
class TriangleEdges:
    """Three edge lengths (equivalently: three phase-to-phase voltage amplitudes).

    Edge ``a`` is opposite vertex A, ``b`` opposite B, ``c`` opposite C.
    Construction validates the edges by
    :func:`~starsolve.kernel.edge_invariants` and keeps what it returns,
    whole, as ``invariants``: the ``edges`` argument of every solver kernel.
    """

    a: float
    b: float
    c: float
    invariants: EdgeInvariants = field(init=False, repr=False, compare=False)

    def __init__(self, a: float, b: float, c: float):
        # Frozen, so every field is set here, in one step.
        self.__dict__.update(a=float(a), b=float(b), c=float(c),
                             invariants=edge_invariants(a, b, c))

    def perimeter(self) -> float:
        return self.a + self.b + self.c

    def as_tuple(self) -> tuple[float, float, float]:
        return (self.a, self.b, self.c)


def theta_squared(t: TriangleEdges) -> float:
    """sqrt((a+b+c)(a+c-b)(b+c-a)(a+b-c)): four times the triangle area.

    Symmetric in the edges, zero exactly for collinear triples. Evaluated
    with the sorted factored product, so needle triangles keep nearly full
    relative accuracy instead of losing everything to cancellation. This
    is the cached unit-triangle value scaled back, which raises
    OverflowError when the area itself exceeds the float range.
    """
    k, _, _, theta_sq = t.invariants
    return math.ldexp(theta_sq, 2 * k)


@dataclass(frozen=True, init=False)
class PhaseAngles:
    """Viewing angles (degrees) subtended at the interior point by the three edges.

    ``psi_a`` subtends edge a, and so on; the three sum to a full turn. They
    equal the load's phase differences in the circuit picture. Each must lie
    strictly inside (0, 180); at least two are then automatically >= 90.
    Construction validates them by
    :func:`~starsolve.kernel.angle_invariants` and keeps what it returns,
    whole, as ``invariants``: the ``angles`` argument of every solver kernel.
    """

    psi_a: float
    psi_b: float
    psi_c: float
    invariants: AngleInvariants = field(init=False, repr=False, compare=False)

    def __init__(self, psi_a: float, psi_b: float, psi_c: float):
        invariants = angle_invariants(psi_a, psi_b, psi_c)
        a, b, c = invariants[0]
        # Frozen, so every field is set here, in one step.
        self.__dict__.update(psi_a=a, psi_b=b, psi_c=c, invariants=invariants)

    def as_tuple(self) -> tuple[float, float, float]:
        return (self.psi_a, self.psi_b, self.psi_c)


@dataclass(frozen=True)
class StarSolution:
    """Distances from the recovered interior point to the vertices A, B, C.

    ``point`` is the position of the interior point in the canonical frame
    (C at origin, B on +x, A above). ``residuals`` are the relative
    law-of-cosines closure defects, one per edge.
    """

    a_prime: float
    b_prime: float
    c_prime: float
    point: PlaneVector
    residuals: tuple[float, float, float]

    def distances(self) -> tuple[float, float, float]:
        return (self.a_prime, self.b_prime, self.c_prime)

    @property
    def max_residual(self) -> float:
        return worst_defect(self.residuals)


def star_solution(t: TriangleEdges, unit_distances: tuple[float, float, float],
                  residuals: tuple[float, float, float]) -> StarSolution:
    """The solution at ``unit_distances`` from the vertices of the unit
    triangle of ``t``: the point placed by :func:`~starsolve.kernel.place`
    from its distances to B and C, and all of it scaled back by
    2**exponent, a power of two, so no bit changes."""
    k, unit, _, _ = t.invariants
    a_p, b_p, c_p = unit_distances
    x, y = place(unit[0], b_p, c_p)
    return StarSolution(math.ldexp(a_p, k), math.ldexp(b_p, k), math.ldexp(c_p, k),
                        PlaneVector(math.ldexp(x, k), math.ldexp(y, k)), residuals)


def embed_triangle(t: TriangleEdges) -> tuple[PlaneVector, PlaneVector]:
    """Place the triangle in the canonical frame; return the spanning vectors.

    The first vector has length ``a`` and runs from C along +x to B; the
    second has length ``b`` and runs from C to A in the upper half-plane,
    A placed by :func:`~starsolve.kernel.place` on the unit triangle and
    scaled back, so that it holds on needles too.
    """
    k, (a, b, c), _, _ = t.invariants
    x, y = place(a, c, b)
    return PlaneVector(t.a, 0.0), PlaneVector(math.ldexp(x, k), math.ldexp(y, k))
