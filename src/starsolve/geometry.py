"""Plane-vector and triangle value types shared by every solver.

Each type validates and computes through the float kernels of
:mod:`starsolve.kernel` and keeps what they return. Everything here is a
pure function of its inputs; no state, safe to call from any number of
threads. Angles cross the API in degrees, lengths in whatever unit the
caller uses (the solvers are homogeneous of degree one in length, so
volts work as well as metres).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .kernel import angle_invariants, apex_position, edge_invariants, point_position


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
    :func:`~starsolve.kernel.edge_invariants` and keeps what it computes:
    ``exponent``, ``unit``, ``unit_sq`` and, as ``unit_theta_sq``, the unit
    triangle's Theta^2.
    """

    a: float
    b: float
    c: float
    exponent: int = field(init=False, repr=False, compare=False)
    unit: tuple[float, float, float] = field(init=False, repr=False, compare=False)
    unit_sq: tuple[float, float, float] = field(init=False, repr=False, compare=False)
    unit_theta_sq: float = field(init=False, repr=False, compare=False)

    def __init__(self, a: float, b: float, c: float):
        exponent, unit, unit_sq, theta_sq = edge_invariants(a, b, c)
        # Frozen, so every field is set here, in one step.
        self.__dict__.update(a=float(a), b=float(b), c=float(c), exponent=exponent,
                             unit=unit, unit_sq=unit_sq, unit_theta_sq=theta_sq)

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
    return math.ldexp(t.unit_theta_sq, 2 * t.exponent)


@dataclass(frozen=True, init=False)
class PhaseAngles:
    """Viewing angles (degrees) subtended at the interior point by the three edges.

    ``psi_a`` subtends edge a, and so on; the three sum to a full turn. They
    equal the load's phase differences in the circuit picture. Each must lie
    strictly inside (0, 180); at least two are then automatically >= 90.
    Construction also keeps what :func:`~starsolve.kernel.angle_invariants`
    computes: their cotangents ``cot`` and cosines ``cos``, in the same
    order.
    """

    psi_a: float
    psi_b: float
    psi_c: float
    cot: tuple[float, float, float] = field(init=False, repr=False, compare=False)
    cos: tuple[float, float, float] = field(init=False, repr=False, compare=False)

    def __init__(self, psi_a: float, psi_b: float, psi_c: float):
        (a, b, c), cot, cos = angle_invariants(psi_a, psi_b, psi_c)
        # Frozen, so every field is set here, in one step.
        self.__dict__.update(psi_a=a, psi_b=b, psi_c=c, cot=cot, cos=cos)

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
        return max(self.residuals)


def solution_at_scale(k: int, distances: tuple[float, float, float], px: float,
                      py: float, residuals: tuple[float, float, float]) -> StarSolution:
    """A unit-triangle solution scaled back by 2**k; a power of two, so no
    bit changes."""
    a_p, b_p, c_p = distances
    return StarSolution(math.ldexp(a_p, k), math.ldexp(b_p, k), math.ldexp(c_p, k),
                        PlaneVector(math.ldexp(px, k), math.ldexp(py, k)), residuals)


def embed_triangle(t: TriangleEdges) -> tuple[PlaneVector, PlaneVector]:
    """Place the triangle in the canonical frame; return the spanning vectors.

    The first vector has length ``a`` and runs from C along +x to B; the
    second has length ``b`` and runs from C to A in the upper half-plane.
    """
    (a, b, _), (a2, b2, c2) = t.unit, t.unit_sq
    x, y = apex_position(a, b, a2, b2, c2, t.unit_theta_sq)
    k = t.exponent
    return PlaneVector(t.a, 0.0), PlaneVector(math.ldexp(x, k), math.ldexp(y, k))


def point_from_distances(t: TriangleEdges, a_prime: float, b_prime: float,
                         c_prime: float) -> PlaneVector:
    """Position (canonical frame) of the upper-half-plane point at the given
    distances from C and B; the distance to A is implied by consistency.
    Evaluated on the unit triangle of ``t`` and scaled back by 2**exponent."""
    k = t.exponent
    x, y = point_position(t.unit[0], t.unit_sq[0], math.ldexp(b_prime, -k),
                          math.ldexp(c_prime, -k))
    return PlaneVector(math.ldexp(x, k), math.ldexp(y, k))


