"""Plane-vector and triangle primitives shared by every solver.

Everything here is a pure function of its inputs; no state, safe to call
from any number of threads. Angles cross the API in degrees, lengths in
whatever unit the caller uses (the solvers are homogeneous of degree one
in length, so volts work as well as metres).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .config import EPS_ANG_DEG, EPS_TRI_COEFF
from .errors import AngleOutOfRange, DegenerateTriangle, NotATriangle


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

Triple = tuple[float, float, float]
# What edge_invariants returns: exponent, unit edges, their squares, Theta^2.
EdgeInvariants = tuple[int, Triple, Triple, float]
# What angle_invariants returns: the angles, their cotangents and cosines.
AngleInvariants = tuple[Triple, Triple, Triple]


def _cos_cot(angle_deg: float) -> tuple[float, float]:
    """Cosine and cotangent of an angle given in degrees; the cotangent is
    exactly zero at 90 deg."""
    rad = math.radians(angle_deg)
    cos = math.cos(rad)
    return cos, 0.0 if angle_deg == 90.0 else cos / math.sin(rad)


def _stable_heron_pairs(a: float, b: float, c: float) -> tuple[float, float]:
    """Factor pairs of the Heron radicand, evaluated cancellation-free.

    With x >= y >= z the radicand (a+b+c)(a+c-b)(b+c-a)(a+b-c) is grouped as
    [ (x+(y+z)) * (x+(y-z)) ] * [ (z+(x-y)) * (z-(x-y)) ].  The first pair is
    always positive; the second carries the sign of the triangle inequality
    and stays accurate for needle triangles because no large terms cancel.
    """
    x, y, z = sorted((a, b, c), reverse=True)
    p_big = (x + (y + z)) * (x + (y - z))
    p_small = (z + (x - y)) * (z - (x - y))
    return p_big, p_small


def _edge_length(name: str, value: object) -> float:
    """``value`` as an edge length; raises :class:`NotATriangle` unless it
    is a finite positive number."""
    if not (isinstance(value, (int, float)) and math.isfinite(value)):
        raise NotATriangle(f"edge {name} is not a finite number: {value!r}")
    if value <= 0.0:
        raise NotATriangle(f"edge {name} must be positive, got {value}")
    return float(value)


def edge_invariants(a: float, b: float, c: float) -> EdgeInvariants:
    """What every solver reads of three edge lengths, computed once:
    ``(exponent, unit, unit_sq, theta_sq)``.

    The solvers are homogeneous in the edges, so they work on the unit
    triangle ``unit`` = edges / 2**``exponent``, ``exponent`` being the
    binary exponent of the longest edge, and scale back by 2**``exponent``.
    That is exact, so no bit changes, and no square under- or overflows at
    any scale (Higham, Accuracy and Stability of Numerical Algorithms, 27).
    ``unit_sq`` holds the squared unit edges and ``theta_sq`` the unit
    triangle's Theta^2 (see :func:`theta_squared`).

    Raises :class:`NotATriangle` for a length that is not a finite positive
    number and for a triple that violates the triangle inequality beyond
    the collinearity clamp window; an exactly (or near-)collinear triple is
    allowed and has zero area. A needle whose short edge squares to zero on
    the unit triangle raises :class:`DegenerateTriangle`: every closure
    defect divides by that square.
    """
    if not (type(a) is type(b) is type(c) is float
            and 0.0 < a < math.inf and 0.0 < b < math.inf and 0.0 < c < math.inf):
        a, b, c = map(_edge_length, "abc", (a, b, c))
    exponent = math.frexp(max(a, b, c))[1]
    ua = math.ldexp(a, -exponent)
    ub = math.ldexp(b, -exponent)
    uc = math.ldexp(c, -exponent)
    p_big, p_small = _stable_heron_pairs(ua, ub, uc)
    if p_small < -EPS_TRI_COEFF * (ua + ub + uc) ** 2:
        raise NotATriangle(f"edges ({a}, {b}, {c}) violate the triangle inequality")
    unit_sq = (ua * ua, ub * ub, uc * uc)
    if 0.0 in unit_sq:
        raise DegenerateTriangle(f"edges ({a}, {b}, {c}): the shortest squares "
                                 "to 0 beside the longest")
    # A negative p_small inside the clamp window is a collinear triple.
    return exponent, (ua, ub, uc), unit_sq, math.sqrt(p_big * max(p_small, 0.0))


@dataclass(frozen=True, init=False)
class TriangleEdges:
    """Three edge lengths (equivalently: three phase-to-phase voltage amplitudes).

    Edge ``a`` is opposite vertex A, ``b`` opposite B, ``c`` opposite C.
    Construction validates the edges by :func:`edge_invariants` and keeps
    what it computes: ``exponent``, ``unit``, ``unit_sq`` and, as
    ``unit_theta_sq``, the unit triangle's Theta^2.
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


def _viewing_angle(name: str, value: float) -> float:
    """``value`` as a viewing angle; raises :class:`AngleOutOfRange` unless
    it lies strictly inside (0, 180) deg."""
    if not math.isfinite(value):
        raise AngleOutOfRange(name, value, "not a finite number")
    if not 0.0 < value < 180.0:
        raise AngleOutOfRange(name, value)
    return float(value)


def angle_invariants(psi_a: float, psi_b: float, psi_c: float) -> AngleInvariants:
    """Three viewing angles (degrees), their cotangents and their cosines,
    each a triple in the order a, b, c.

    Raises :class:`AngleOutOfRange` unless every angle lies strictly inside
    (0, 180) and the three sum to a full turn.
    """
    a, b, c = psi_a, psi_b, psi_c
    if not (type(a) is type(b) is type(c) is float
            and 0.0 < a < 180.0 and 0.0 < b < 180.0 and 0.0 < c < 180.0):
        a, b, c = map(_viewing_angle, ("psi_a", "psi_b", "psi_c"), (a, b, c))
    total = a + b + c
    if abs(total - 360.0) > EPS_ANG_DEG:
        raise AngleOutOfRange("psi_c", c, f"angles sum to {total!r} deg, expected 360")
    (cos_a, cot_a), (cos_b, cot_b), (cos_c, cot_c) = map(_cos_cot, (a, b, c))
    return (a, b, c), (cot_a, cot_b, cot_c), (cos_a, cos_b, cos_c)


@dataclass(frozen=True, init=False)
class PhaseAngles:
    """Viewing angles (degrees) subtended at the interior point by the three edges.

    ``psi_a`` subtends edge a, and so on; the three sum to a full turn. They
    equal the load's phase differences in the circuit picture. Each must lie
    strictly inside (0, 180); at least two are then automatically >= 90.
    Construction also keeps what :func:`angle_invariants` computes: their
    cotangents ``cot`` and cosines ``cos``, in the same order.
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


def apex_position(a: float, b: float, a2: float, b2: float, c2: float,
                  theta_sq: float) -> tuple[float, float]:
    """Coordinates of vertex A in the canonical frame (C at the origin, B at
    (a, 0)), from the edges a, b, the squared edges and Theta^2. The
    height is taken from the stable area evaluation, so the embedding
    agrees with :func:`theta_squared` to the last bit even for needles."""
    cos_phi = (a2 + b2 - c2) / (2.0 * a * b)
    cos_phi = max(-1.0, min(1.0, cos_phi))
    return b * cos_phi, theta_sq / (2.0 * a)


def embed_triangle(t: TriangleEdges) -> tuple[PlaneVector, PlaneVector]:
    """Place the triangle in the canonical frame; return the spanning vectors.

    The first vector has length ``a`` and runs from C along +x to B; the
    second has length ``b`` and runs from C to A in the upper half-plane.
    """
    (a, b, _), (a2, b2, c2) = t.unit, t.unit_sq
    x, y = apex_position(a, b, a2, b2, c2, t.unit_theta_sq)
    k = t.exponent
    return PlaneVector(t.a, 0.0), PlaneVector(math.ldexp(x, k), math.ldexp(y, k))


def point_position(a: float, a2: float, b_prime: float,
                   c_prime: float) -> tuple[float, float]:
    """Coordinates (canonical frame, edge a of length ``a`` with square
    ``a2``) of the upper-half-plane point at the given distances from B and
    C; the distance to A is implied by consistency."""
    px = (c_prime * c_prime - b_prime * b_prime + a2) / (2.0 * a)
    py_sq = c_prime * c_prime - px * px
    return px, math.sqrt(max(py_sq, 0.0))


def point_from_distances(t: TriangleEdges, a_prime: float, b_prime: float,
                         c_prime: float) -> PlaneVector:
    """Position (canonical frame) of the upper-half-plane point at the given
    distances from C and B; the distance to A is implied by consistency.
    Evaluated on the unit triangle of ``t`` and scaled back by 2**exponent."""
    k = t.exponent
    x, y = point_position(t.unit[0], t.unit_sq[0], math.ldexp(b_prime, -k),
                          math.ldexp(c_prime, -k))
    return PlaneVector(math.ldexp(x, k), math.ldexp(y, k))


def closure_defects(squares: tuple[float, float, float],
                    cosines: tuple[float, float, float],
                    distances: tuple[float, float, float]) -> tuple[float, float, float]:
    """:func:`closure_residuals` from the squared edges and the cosines of
    the viewing angles; every length on one scale."""
    a2, b2, c2 = squares
    cos_a, cos_b, cos_c = cosines
    a_p, b_p, c_p = distances
    r_a = abs(b_p * b_p + c_p * c_p - 2.0 * b_p * c_p * cos_a - a2) / a2
    r_b = abs(c_p * c_p + a_p * a_p - 2.0 * c_p * a_p * cos_b - b2) / b2
    r_c = abs(a_p * a_p + b_p * b_p - 2.0 * a_p * b_p * cos_c - c2) / c2
    return (r_a, r_b, r_c)


def closure_residuals(edges: tuple[float, float, float],
                      cosines: tuple[float, float, float],
                      distances: tuple[float, float, float]) -> tuple[float, float, float]:
    """Relative defects of the three law-of-cosines closure equations.

    Edge a must satisfy a^2 = b'^2 + c'^2 - 2 b' c' cos(psi_a), cyclically;
    ``cosines`` holds cos(psi_a), cos(psi_b), cos(psi_c).
    In the circuit picture this is the mesh rule: each phase-to-phase
    voltage closes the triangle over its two line voltages. The defects
    are dimensionless, so the lengths are first divided by one power of
    two, which leaves their bits unchanged and keeps the squares in range
    at any scale.
    """
    (a, b, c), (a_p, b_p, c_p) = edges, distances
    k = -math.frexp(max(a, b, c, a_p, b_p, c_p))[1]
    a, b, c = math.ldexp(a, k), math.ldexp(b, k), math.ldexp(c, k)
    unit_distances = (math.ldexp(a_p, k), math.ldexp(b_p, k), math.ldexp(c_p, k))
    return closure_defects((a * a, b * b, c * c), cosines, unit_distances)
