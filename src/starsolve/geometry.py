"""Plane-vector and triangle primitives shared by every solver.

Everything here is a pure function of its inputs; no state, safe to call
from any number of threads. Angles cross the API in degrees, lengths in
whatever unit the caller uses (the solvers are homogeneous of degree one
in length, so volts work as well as metres).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .config import EPS_ANG_DEG, EPS_LEN, EPS_TRI_COEFF
from .errors import AngleOutOfRange, NotATriangle, ZeroVector


@dataclass(frozen=True)
class PlaneVector:
    """A 2-D Euclidean vector (also used for point positions)."""

    x: float
    y: float

    def __add__(self, other: "PlaneVector") -> "PlaneVector":
        return PlaneVector(self.x + other.x, self.y + other.y)

    def __sub__(self, other: "PlaneVector") -> "PlaneVector":
        return PlaneVector(self.x - other.x, self.y - other.y)

    def __mul__(self, k: float) -> "PlaneVector":
        return PlaneVector(self.x * k, self.y * k)

    __rmul__ = __mul__

    def __neg__(self) -> "PlaneVector":
        return PlaneVector(-self.x, -self.y)

    def dot(self, other: "PlaneVector") -> float:
        return self.x * other.x + self.y * other.y

    def cross(self, other: "PlaneVector") -> float:
        """Signed parallelogram area; positive when ``other`` is counterclockwise."""
        return self.x * other.y - self.y * other.x

    def norm_sq(self) -> float:
        return self.x * self.x + self.y * self.y

    def norm(self) -> float:
        return math.hypot(self.x, self.y)

    def distance_to(self, other: "PlaneVector") -> float:
        return math.hypot(self.x - other.x, self.y - other.y)


ORIGIN = PlaneVector(0.0, 0.0)


def perp(v: PlaneVector) -> PlaneVector:
    """Rotate ``v`` by +90 deg: same norm, zero dot product, {v, perp(v)} positively oriented."""
    return PlaneVector(-v.y, v.x)


def angle_between(u: PlaneVector, v: PlaneVector, eps_len: float = EPS_LEN) -> float:
    """Counterclockwise angle from ``u`` to ``v`` in degrees, in [0, 360).

    Satisfies u.dot(v) = |u||v| cos(phi) and perp(u).dot(v) = |u||v| sin(phi).

    Raises:
        ZeroVector: if either argument has norm below ``eps_len``.
    """
    if u.norm() < eps_len:
        raise ZeroVector("angle_between: first argument is a zero vector")
    if v.norm() < eps_len:
        raise ZeroVector("angle_between: second argument is a zero vector")
    deg = math.degrees(math.atan2(u.cross(v), u.dot(v)))
    return deg % 360.0


def cot_deg(angle_deg: float) -> float:
    """Cotangent of an angle given in degrees; exact zero at 90 deg."""
    if angle_deg == 90.0:
        return 0.0
    rad = math.radians(angle_deg)
    return math.cos(rad) / math.sin(rad)


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


@dataclass(frozen=True)
class TriangleEdges:
    """Three edge lengths (equivalently: three phase-to-phase voltage amplitudes).

    Edge ``a`` is opposite vertex A, ``b`` opposite B, ``c`` opposite C.
    Construction rejects non-positive lengths and triples that violate the
    triangle inequality beyond the collinearity clamp window; an exactly
    (or near-)collinear triple is allowed and has zero area.
    """

    a: float
    b: float
    c: float

    def __post_init__(self):
        for name, value in (("a", self.a), ("b", self.b), ("c", self.c)):
            if not (isinstance(value, (int, float)) and math.isfinite(value)):
                raise NotATriangle(f"edge {name} is not a finite number: {value!r}")
            if value <= 0.0:
                raise NotATriangle(f"edge {name} must be positive, got {value}")
            object.__setattr__(self, name, float(value))
        _, p_small = _stable_heron_pairs(self.a, self.b, self.c)
        if p_small < -EPS_TRI_COEFF * self.perimeter() ** 2:
            raise NotATriangle(
                f"edges ({self.a}, {self.b}, {self.c}) violate the triangle inequality"
            )

    def perimeter(self) -> float:
        return self.a + self.b + self.c

    def as_tuple(self) -> tuple[float, float, float]:
        return (self.a, self.b, self.c)

    def scaled(self, k: float) -> "TriangleEdges":
        return TriangleEdges(self.a * k, self.b * k, self.c * k)


def theta_squared(t: TriangleEdges) -> float:
    """sqrt((a+b+c)(a+c-b)(b+c-a)(a+b-c)): four times the triangle area.

    Symmetric in the edges, zero exactly for collinear triples. Evaluated
    with the sorted factored product, so needle triangles keep nearly full
    relative accuracy instead of losing everything to cancellation.
    """
    p_big, p_small = _stable_heron_pairs(t.a, t.b, t.c)
    if p_small < 0.0:
        if p_small < -EPS_TRI_COEFF * t.perimeter() ** 2:
            raise NotATriangle(
                f"edges ({t.a}, {t.b}, {t.c}) violate the triangle inequality"
            )
        p_small = 0.0
    return math.sqrt(p_big * p_small)


_EDGE_LABELS = ("a", "b", "c")


def law_of_cosines_angle(t: TriangleEdges, which: str) -> float:
    """Interior angle (degrees) opposite the named edge, from 2rs*cos = r^2+s^2-opp^2."""
    if which not in _EDGE_LABELS:
        raise ValueError(f"edge label must be one of {_EDGE_LABELS}, got {which!r}")
    opp, r, s = {
        "a": (t.a, t.b, t.c),
        "b": (t.b, t.c, t.a),
        "c": (t.c, t.a, t.b),
    }[which]
    cos_val = (r * r + s * s - opp * opp) / (2.0 * r * s)
    cos_val = max(-1.0, min(1.0, cos_val))
    return math.degrees(math.acos(cos_val))


@dataclass(frozen=True)
class PhaseAngles:
    """Viewing angles (degrees) subtended at the interior point by the three edges.

    ``psi_a`` subtends edge a, and so on; the three sum to a full turn. They
    equal the load's phase differences in the circuit picture. Each must lie
    strictly inside (0, 180); at least two are then automatically >= 90.
    """

    psi_a: float
    psi_b: float
    psi_c: float

    def __post_init__(self):
        for name, value in (("psi_a", self.psi_a), ("psi_b", self.psi_b),
                            ("psi_c", self.psi_c)):
            if not math.isfinite(value):
                raise AngleOutOfRange(name, value, "not a finite number")
            if not 0.0 < value < 180.0:
                raise AngleOutOfRange(name, value)
            object.__setattr__(self, name, float(value))
        total = self.psi_a + self.psi_b + self.psi_c
        if abs(total - 360.0) > EPS_ANG_DEG:
            raise AngleOutOfRange(
                "psi_c", self.psi_c,
                f"angles sum to {total!r} deg, expected 360",
            )
        # Provable from sum=360 with each < 180; documents the geometry.
        assert sum(1 for v in (self.psi_a, self.psi_b, self.psi_c) if v >= 90.0) >= 2

    def as_tuple(self) -> tuple[float, float, float]:
        return (self.psi_a, self.psi_b, self.psi_c)

    def cotangents(self) -> tuple[float, float, float]:
        return (cot_deg(self.psi_a), cot_deg(self.psi_b), cot_deg(self.psi_c))


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


def embed_triangle(t: TriangleEdges) -> tuple[PlaneVector, PlaneVector]:
    """Place the triangle in the canonical frame; return the spanning vectors.

    The first vector has length ``a`` and runs from C along +x to B; the
    second has length ``b`` and runs from C to A in the upper half-plane.
    Its height is taken from the stable area evaluation, so the embedding
    agrees with :func:`theta_squared` to the last bit even for needles.
    """
    cos_phi = (t.a * t.a + t.b * t.b - t.c * t.c) / (2.0 * t.a * t.b)
    cos_phi = max(-1.0, min(1.0, cos_phi))
    height = theta_squared(t) / (2.0 * t.a)
    a_vec = PlaneVector(t.a, 0.0)
    b_vec = PlaneVector(t.b * cos_phi, height)
    return a_vec, b_vec


def point_from_distances(t: TriangleEdges, a_prime: float, b_prime: float,
                         c_prime: float) -> PlaneVector:
    """Position (canonical frame) of the upper-half-plane point at the given
    distances from C and B; the distance to A is implied by consistency."""
    px = (c_prime * c_prime - b_prime * b_prime + t.a * t.a) / (2.0 * t.a)
    py_sq = c_prime * c_prime - px * px
    return PlaneVector(px, math.sqrt(max(py_sq, 0.0)))


def closure_residuals(edges: tuple[float, float, float], angles: PhaseAngles,
                      distances: tuple[float, float, float]) -> tuple[float, float, float]:
    """Relative defects of the three law-of-cosines closure equations.

    Edge a must satisfy a^2 = b'^2 + c'^2 - 2 b' c' cos(psi_a), cyclically.
    In the circuit picture this is the mesh rule: each phase-to-phase
    voltage closes the triangle over its two line voltages.
    """
    a, b, c = edges
    a_p, b_p, c_p = distances
    cos_a = math.cos(math.radians(angles.psi_a))
    cos_b = math.cos(math.radians(angles.psi_b))
    cos_c = math.cos(math.radians(angles.psi_c))
    r_a = abs(b_p * b_p + c_p * c_p - 2.0 * b_p * c_p * cos_a - a * a) / (a * a)
    r_b = abs(c_p * c_p + a_p * a_p - 2.0 * c_p * a_p * cos_b - b * b) / (b * b)
    r_c = abs(a_p * a_p + b_p * b_p - 2.0 * a_p * b_p * cos_c - c * c) / (c * c)
    return (r_a, r_b, r_c)
