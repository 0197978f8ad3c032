"""The plain-float kernels that ``solve`` and ``verify`` run.

Every formula a CLI row passes through lives here once, on plain floats:
the triangle and angle invariants, the closed form and the circle route
on the unit triangle, the one feasibility predicate,
:func:`check_interior_point`, and the one residual function,
:func:`closure_defects`; and, on no CLI path, :func:`place`, for every
position the library reports. The value types of
:mod:`starsolve.geometry`, :mod:`starsolve.general`, :mod:`starsolve.fermat`
and :mod:`starsolve.circuit` wrap these kernels.
This module imports nothing but :mod:`math`, :mod:`sys`,
:mod:`starsolve.config` and :mod:`starsolve.errors`, so a CLI start loads
no value type.

Everything here is a pure function of its inputs; no state, safe to call
from any number of threads. Angles cross the API in degrees, lengths in
whatever unit the caller uses (the solvers are homogeneous of degree one
in length, so volts work as well as metres).
"""

from __future__ import annotations

import math
import sys

from .config import ANGLE_LIMIT_DEG, EPS_ANG_DEG, EPS_TRI_COEFF
from .errors import (
    AngleAtLeast120,
    AngleOutOfRange,
    ConcentricCircles,
    DegenerateTriangle,
    InfeasibleConfiguration,
    NoInteriorIntersection,
    NotATriangle,
    UnresolvedConfiguration,
)

Triple = tuple[float, float, float]
# What edge_invariants returns: exponent, unit edges, their squares, Theta^2.
EdgeInvariants = tuple[int, Triple, Triple, float]
# What angle_invariants returns: the angles, their cotangents and cosines.
AngleInvariants = tuple[Triple, Triple, Triple]


# =========================================================================
# Triangle and angle invariants
# =========================================================================

def _edge_length(name: str, value: object) -> float:
    """``value`` as an edge length; raises :class:`NotATriangle` unless it
    is a finite positive number."""
    if not (isinstance(value, (int, float)) and math.isfinite(value)):
        raise NotATriangle(f"edge {name} is not a finite number: {value!r}")
    if value <= 0.0:
        raise NotATriangle(f"edge {name} must be positive, got {value}")
    return float(value)


# The smallest normal float; below it a product keeps fewer digits.
_NORMAL_MIN = sys.float_info.min


def edge_invariants(a: float, b: float, c: float) -> EdgeInvariants:
    """What every solver reads of three edge lengths, computed once:
    ``(exponent, unit, unit_sq, theta_sq)``.

    The solvers are homogeneous in the edges, so they work on the unit
    triangle ``unit`` = edges / 2**``exponent``, ``exponent`` being the
    binary exponent of the longest edge, and scale back by 2**``exponent``.
    That is exact, so no bit changes, and no square under- or overflows at
    any scale (Higham, Accuracy and Stability of Numerical Algorithms, 27).
    ``unit_sq`` holds the squared unit edges and ``theta_sq`` the unit
    triangle's Theta^2 (see :func:`~starsolve.geometry.theta_squared`).

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
    # The Heron radicand (a+b+c)(a+c-b)(b+c-a)(a+b-c), with x >= y >= z,
    # grouped as [(x+(y+z)) * (x+(y-z))] * [(z+(x-y)) * (z-(x-y))]. The
    # first pair is always positive; the second carries the sign of the
    # triangle inequality and stays accurate for needles, because no large
    # terms cancel.
    x, y, z = ua, ub, uc
    if x < y:
        x, y = y, x
    if y < z:
        y, z = z, y
        if x < y:
            x, y = y, x
    p_big = (x + (y + z)) * (x + (y - z))
    p_small = (z + (x - y)) * (z - (x - y))
    if p_small < -EPS_TRI_COEFF * (ua + ub + uc) ** 2:
        raise NotATriangle(f"edges ({a}, {b}, {c}) violate the triangle inequality")
    a2, b2, c2 = ua * ua, ub * ub, uc * uc
    if a2 == 0.0 or b2 == 0.0 or c2 == 0.0:
        raise DegenerateTriangle(f"edges ({a}, {b}, {c}): the shortest squares "
                                 "to 0 beside the longest")
    if 0.0 < p_small < _NORMAL_MIN:
        # A subnormal p_small keeps only a few digits; its factors do not.
        theta_sq = math.sqrt(p_big) * math.sqrt(z + (x - y)) * math.sqrt(z - (x - y))
    else:
        # A negative p_small inside the clamp window is a collinear triple.
        theta_sq = math.sqrt(p_big * (0.0 if 0.0 > p_small else p_small))
    return exponent, (ua, ub, uc), (a2, b2, c2), theta_sq


def _viewing_angle(name: str, value: float) -> float:
    """``value`` as a viewing angle; raises :class:`AngleOutOfRange` unless
    it lies strictly inside (0, 180) deg."""
    if not math.isfinite(value):
        raise AngleOutOfRange(name, value, "not a finite number")
    if not 0.0 < value < 180.0:
        raise AngleOutOfRange(name, value)
    return float(value)


# What math.radians multiplies by, to the bit.
_RADIANS = math.pi / 180.0


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
    rad_a, rad_b, rad_c = a * _RADIANS, b * _RADIANS, c * _RADIANS
    cos_a, cos_b, cos_c = math.cos(rad_a), math.cos(rad_b), math.cos(rad_c)
    # A right angle's cotangent is exactly zero; cos(radians(90)) is 6e-17.
    cot = (0.0 if a == 90.0 else cos_a / math.sin(rad_a),
           0.0 if b == 90.0 else cos_b / math.sin(rad_b),
           0.0 if c == 90.0 else cos_c / math.sin(rad_c))
    return (a, b, c), cot, (cos_a, cos_b, cos_c)


# Every phase difference at 120 deg, as angle_invariants gives it.
ANGLES_120 = angle_invariants(120.0, 120.0, 120.0)


# =========================================================================
# Positions and closure
# =========================================================================

def place(a: float, to_b: float, to_c: float) -> tuple[float, float]:
    """The point above edge a at ``to_b`` from B and ``to_c`` from C, with C
    at the origin and B at (a, 0).

    Its abscissa, a/2 + (to_c - to_b)(to_c + to_b) / (2a), does not cancel
    on a needle whose short edge is a (Sterbenz), and is clamped to
    [-to_c, to_c] for triples that miss the triangle inequality by rounding.
    Its height is Theta^2 / (2a), with Theta^2 from Kahan's sorted product,
    each factor under its own root and the one that carries the sign
    clamped at 0 (Kahan, Miscalculating Area and Angles of a Needle-like
    Triangle, 2014).
    """
    px = max(-to_c, min(to_c, a * 0.5 + (to_c - to_b) * (to_c + to_b) / (2.0 * a)))
    x, y, z = sorted((a, to_b, to_c), reverse=True)
    theta_sq = (math.sqrt(x + (y + z)) * math.sqrt(x + (y - z))
                * math.sqrt(z + (x - y)) * math.sqrt(max(z - (x - y), 0.0)))
    return px, theta_sq / (2.0 * a)


def closure_defects(squares: tuple[float, float, float],
                    cosines: tuple[float, float, float],
                    distances: tuple[float, float, float]) -> tuple[float, float, float]:
    """Relative defects of the three law-of-cosines closure equations, from
    the squared edges, the cosines of the viewing angles and the distances,
    every length on one scale.

    Edge a must satisfy a^2 = b'^2 + c'^2 - 2 b' c' cos(psi_a), cyclically;
    ``cosines`` holds cos(psi_a), cos(psi_b), cos(psi_c).
    In the circuit picture this is the mesh rule: each phase-to-phase
    voltage closes the triangle over its two line voltages. The defects
    are dimensionless, so callers pass the unit triangle of
    :func:`edge_invariants` and the distances divided by the same power of
    two, which leaves their bits unchanged and keeps the squares in range
    at any scale.
    """
    a2, b2, c2 = squares
    cos_a, cos_b, cos_c = cosines
    a_p, b_p, c_p = distances
    aa, bb, cc = a_p * a_p, b_p * b_p, c_p * c_p
    r_a = abs(bb + cc - 2.0 * b_p * c_p * cos_a - a2) / a2
    r_b = abs(cc + aa - 2.0 * c_p * a_p * cos_b - b2) / b2
    r_c = abs(aa + bb - 2.0 * a_p * b_p * cos_c - c2) / c2
    return (r_a, r_b, r_c)


# =========================================================================
# Inscribed-angle circles
# =========================================================================

# Interiority slack for barycentric coordinates (dimensionless).
BARY_TOL = 1e-9


def circle_distances(unit: Triple, unit_sq: Triple, theta_sq: float, psis: Triple,
                     cot: Triple) -> Triple:
    """Constructive route on plain floats: the distances from X, the second
    common point of the two inscribed-angle circles, to the vertices of the
    unit triangle of :func:`edge_invariants`, from the angles and
    cotangents of :func:`angle_invariants`.

    The triangle is relabeled cyclically so that the smallest viewing
    angle (the first of equal ones) comes last, and the two largest, both
    >= 90 deg, drive the construction; the distances are labeled back
    before they are returned. All is written out in one frame: C at the
    origin, B at (a, 0), A by the law of cosines. Each circle's
    centre is half its chord (CB, seen under psi_a; CA, under psi_b) plus a
    cotangent-scaled perpendicular; an obtuse angle puts it on the far side
    of the chord from X, a right angle on the chord. Only a zero area is
    degenerate, so a needle of any ratio passes. Both circles pass through
    C, so X is C reflected in the line of centres, d = c_s - c_r:
    X = 2 (c_r x d) / |d|^2 (d_y, -d_x). It must land inside the triangle
    (within barycentric slack); a line of centres through C is tangency at
    C, the legitimate boundary case of a vanishing vertex distance.
    """
    psi_a, psi_b, psi_c = psis
    # Theta^2 is symmetric and needs no relabeling.
    if psi_a <= psi_b and psi_a <= psi_c:
        rot = 1
        _, a, b = unit
        c2, a2, b2 = unit_sq
        _, cot_a, cot_b = cot
    elif psi_b <= psi_c:
        rot = 2
        b, _, a = unit
        b2, c2, a2 = unit_sq
        cot_b, _, cot_a = cot
    else:
        rot = 0
        a, b, _ = unit
        a2, b2, c2 = unit_sq
        cot_a, cot_b, _ = cot
    # Vertex A by the law of cosines, its clamp written out.
    cos_phi = (a2 + b2 - c2) / (2.0 * a * b)
    ax = b * (cos_phi if -1.0 < cos_phi < 1.0 else -1.0 if cos_phi <= -1.0 else 1.0)
    ay = theta_sq / (2.0 * a)
    if ay <= 0.0:
        raise DegenerateTriangle("spanning vectors are collinear")
    crx, cry = a * 0.5, a * cot_a * 0.5
    csx, csy = (ax + ay * cot_b) * 0.5, (ay - ax * cot_b) * 0.5
    rho_a = 0.5 * a * math.sqrt(1.0 + cot_a * cot_a)
    rho_b = 0.5 * math.hypot(ax, ay) * math.sqrt(1.0 + cot_b * cot_b)

    dx, dy = csx - crx, csy - cry
    d = math.hypot(dx, dy)
    eps = 1e-12 * (rho_a + rho_b)
    if d <= eps:
        raise ConcentricCircles(
            f"centers coincide within {eps:g}; intersection undefined")
    scale = 2.0 * (crx * dy - cry * dx) / (d * d)
    px, py = scale * dy, -scale * dx
    # Barycentric (u, v, w) of X = v*B + w*A, tested as min(u, v, w) would be:
    # a NaN u (v or w a NaN, or both infinite) passes.
    area = a * ay
    v = (px * ay - py * ax) / area
    w = a * py / area
    u = 1.0 - v - w
    if u < -BARY_TOL or (v < -BARY_TOL or w < -BARY_TOL) and u == u:
        raise NoInteriorIntersection(
            f"circle intersection lies outside the triangle: barycentric {(u, v, w)}")

    # Distances to A = (ax, ay), B = (a, 0) and C at the origin, labeled back.
    to_a = math.hypot(px - ax, py - ay)
    to_b = math.hypot(px - a, py)
    to_c = math.hypot(px, py)
    if rot == 1:
        return to_c, to_a, to_b
    if rot == 2:
        return to_b, to_c, to_a
    return to_a, to_b, to_c


# =========================================================================
# The feasibility predicate
# =========================================================================

# cot(EPS_ANG_DEG), and the cotangent of a wide vertex at 120 deg each.
_COT_EPS = 1.0 / math.tan(math.radians(EPS_ANG_DEG))
_COT_WIDE = 1.0 / math.tan(math.radians(ANGLE_LIMIT_DEG - EPS_ANG_DEG))


def _no_interior_point(vertex: str, psi: float, theta_sq: float,
                       span: float) -> InfeasibleConfiguration:
    """A vertex wider than ``psi``, with b^2 + c^2 - a^2 there as ``span``."""
    return InfeasibleConfiguration(
        f"no interior point: the angle at vertex {vertex}, "
        f"{math.degrees(math.atan2(theta_sq, span)):.12g} deg, exceeds the "
        f"viewing angle {psi:.12g} deg of edge {vertex.lower()}")


def check_interior_point(edges: EdgeInvariants, angles: AngleInvariants) -> None:
    """Raise unless a point inside the triangle sees its edges under the
    angles, as :func:`edge_invariants` and :func:`angle_invariants` give
    them.

    Such a point sees each edge under a wider angle than the vertex across
    (Euclid, Elements I.21), and one exists if each angle is the wider
    (III.21). As cot(angle at A) = (b^2 + c^2 - a^2) / Theta^2 on the unit
    triangle, psi_a is the wider iff cot(psi_a) Theta^2 < b^2 + c^2 - a^2,
    cyclically. At 120 deg each, the first vertex of 120 deg - EPS_ANG_DEG
    or more, in the order A, B, C, raises :class:`AngleAtLeast120`. Other
    angles may fall EPS_ANG_DEG short, so that a star point on a terminal
    solves: each is tested as cot(psi + eps) = (cot psi cot eps - 1) /
    (cot psi + cot eps), and not where psi + eps reaches 180 deg, as the
    denominator's sign tells. The first wider vertex, in the order A, B, C,
    raises :class:`InfeasibleConfiguration`, and so does the NaN of an
    overflowing cotangent; collinear edges raise :class:`DegenerateTriangle`.
    """
    exponent, unit, (a2, b2, c2), theta_sq = edges
    psis, (cot_a, cot_b, cot_c), _ = angles
    span_a, span_b, span_c = b2 + c2 - a2, c2 + a2 - b2, a2 + b2 - c2
    if psis == ANGLES_120[0]:
        limit = _COT_WIDE * theta_sq
        if limit < span_a and limit < span_b and limit < span_c:
            return
        for vertex, (x, y), span in zip("ABC", ((1, 2), (2, 0), (0, 1)),
                                        (span_a, span_b, span_c)):
            if not limit < span:
                # The minimizing point degenerates onto the vertex: zero there,
                # the adjacent edges at the other two corners, scaled back
                # exactly (a unit edge whose square is not zero is normal).
                cos_val = max(-1.0, min(1.0, span / (2.0 * unit[x] * unit[y])))
                a, b, c = (math.ldexp(e, exponent) for e in unit)
                raise AngleAtLeast120(vertex, math.degrees(math.acos(cos_val)),
                                      (0.0, c, b) if vertex == "A" else
                                      (c, 0.0, a) if vertex == "B" else (b, a, 0.0))
    if theta_sq == 0.0:
        raise DegenerateTriangle("edges are collinear: no interior point")
    denom = cot_a + _COT_EPS
    if denom > 0.0 and not (cot_a * _COT_EPS - 1.0) / denom * theta_sq < span_a:
        raise _no_interior_point("A", psis[0], theta_sq, span_a)
    denom = cot_b + _COT_EPS
    if denom > 0.0 and not (cot_b * _COT_EPS - 1.0) / denom * theta_sq < span_b:
        raise _no_interior_point("B", psis[1], theta_sq, span_b)
    denom = cot_c + _COT_EPS
    if denom > 0.0 and not (cot_c * _COT_EPS - 1.0) / denom * theta_sq < span_c:
        raise _no_interior_point("C", psis[2], theta_sq, span_c)


# =========================================================================
# The closed form: line voltages
# =========================================================================

def _joint_vertex_distance(s1: float, s2: float, s_opp: float,
                           cot1: float, cot2: float, cot_opp: float,
                           theta_sq: float) -> float:
    """Distance from the vertex where edges e1 and e2 meet (e_opp across),
    from their squares s1, s2 and s_opp.

    cot1/cot2 belong to the viewing angles of e1/e2, cot_opp to the edge
    across. A non-positive radicand in the denominator, or a distance that
    is not finite, as when a cotangent near 0 deg overflows both terms, is
    a star point the closed form cannot resolve.
    """
    core = s1 + s2 - s_opp
    numerator = 0.5 * abs((cot1 + cot2) * (core - theta_sq * cot_opp))
    denom = (s1 * (1.0 + cot1 * cot1) + s2 * (1.0 + cot2 * cot2)
             - (cot1 + cot2) * (core * cot_opp + theta_sq))
    if denom <= 0.0:
        raise UnresolvedConfiguration(
            f"distance denominator {denom:.3e} (unit triangle) is not positive; "
            "the closed form cannot resolve the star point")
    distance = numerator / math.sqrt(denom)
    if not distance < math.inf:  # a NaN, as inf / inf gives, fails too
        raise UnresolvedConfiguration(
            f"distance {distance!r} (unit triangle) is not finite; "
            "the closed form cannot resolve the star point")
    return distance


def line_voltage_kernel(edges: EdgeInvariants, angles: AngleInvariants,
                        tolerance: float) -> tuple[Triple, Triple, tuple[str, ...]]:
    """The closed form: line voltages, closure residuals and notes, on plain
    floats.

    ``edges`` is what :func:`edge_invariants` returns and ``angles`` what
    :func:`angle_invariants` returns. :func:`check_interior_point` decides
    first whether a star point exists. Each distance on the unit triangle
    then comes from :func:`_joint_vertex_distance` under the cyclic
    relabeling (a,b,c; psi_a,psi_b,psi_c) -> (b,c,a; psi_b,psi_c,psi_a).
    They are scaled back if the law-of-cosines closure holds to the
    ``tolerance`` given (the one acceptance test of a solve), and else
    raise :class:`UnresolvedConfiguration`. A note names each voltage that
    is zero within tolerance.
    """
    check_interior_point(edges, angles)
    exponent, unit, unit_sq, theta_sq = edges
    _, (cot_a, cot_b, cot_c), cos = angles
    a2, b2, c2 = unit_sq
    a_p = _joint_vertex_distance(b2, c2, a2, cot_b, cot_c, cot_a, theta_sq)
    b_p = _joint_vertex_distance(c2, a2, b2, cot_c, cot_a, cot_b, theta_sq)
    c_p = _joint_vertex_distance(a2, b2, c2, cot_a, cot_b, cot_c, theta_sq)
    residuals = closure_defects(unit_sq, cos, (a_p, b_p, c_p))
    if max(residuals) > tolerance:
        raise UnresolvedConfiguration(
            f"closure residuals {residuals} exceed {tolerance:g}; "
            "the closed form does not reach the star point within tolerance")

    distances = (math.ldexp(a_p, exponent), math.ldexp(b_p, exponent),
                 math.ldexp(c_p, exponent))
    # 1e-9 of the perimeter, which itself may exceed the float range, added
    # left to right: sum() rounds differently from Python 3.12 on.
    ua, ub, uc = unit
    floor = math.ldexp(1e-9 * (ua + ub + uc), exponent)
    notes = ()
    if min(distances) < floor:
        notes = tuple(f"{name} is zero within tolerance: "
                      "the load star point sits on a phase terminal"
                      for name, value in zip(("u1p", "u2p", "u3p"), distances)
                      if value < floor)
    return distances, residuals, notes
