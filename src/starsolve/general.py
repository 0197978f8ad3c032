"""Interior point with prescribed viewing angles.

Generalizes the 120-deg problem: given the triangle's edge lengths and the
angles under which an unknown interior point X sees two of the edges (the
third follows, the three summing to a full turn), recover the distances
from X to the vertices. Two independent routes:

* a closed form in the edges and the angle cotangents, evaluated once per
  vertex through a cyclic relabeling, and
* the constructive route: X is where the two circles meet that each carry
  all points seeing one edge under its prescribed angle (inscribed-angle
  locus). Both circles pass through vertex C, so their other common point
  is C reflected in the line through their centres, which
  :func:`_chord_circles` gives.

Both routes run on plain floats over the unit triangle of the edges and
build a vector only for the point they return.

With every angle at 120 deg the closed form is the 120-deg solver of
:mod:`starsolve.fermat`, which calls it behind its wide-angle gate.
"""

from __future__ import annotations

import math

from .config import RESIDUAL_TOL
from .errors import (
    ConcentricCircles,
    DegenerateTriangle,
    InfeasibleConfiguration,
    NoInteriorIntersection,
)
from .geometry import (
    PhaseAngles,
    StarSolution,
    TriangleEdges,
    apex_position,
    closure_defects,
    point_position,
    solution_at_scale,
)

# Interiority slack for barycentric coordinates (dimensionless).
BARY_TOL = 1e-9

__all__ = [
    "PhaseAngles",
    "validate_angles",
    "general_distances_closed_form",
    "general_solve_by_circles",
]


def validate_angles(psi_a: float, psi_b: float) -> PhaseAngles:
    """Complete (psi_a, psi_b) with psi_c = 360 - psi_a - psi_b and validate."""
    return PhaseAngles(psi_a, psi_b, 360.0 - psi_a - psi_b)


# =========================================================================
# Inscribed-angle circles
# =========================================================================

def _chord_circles(ux: float, uy: float, vx: float, vy: float, cot_a: float,
                   cot_b: float) -> tuple[float, float, float, float, float, float]:
    """Centers and radii (center_r x, y, center_s x, y, rho_a, rho_b) of the
    circles through {C, B} and {C, A} from which the chords are seen under
    psi_a resp. psi_b, given the spanning vectors u = C->B and v = C->A and
    the cotangents of those two viewing angles.

    The center of the chord-CB circle sits at half the chord plus a
    cotangent-scaled perpendicular; an obtuse viewing angle puts it on the
    far side of the chord from X, a right angle on the chord itself.
    """
    a = math.hypot(ux, uy)
    b = math.hypot(vx, vy)
    if ux * vy - uy * vx <= 1e-15 * a * b:
        raise DegenerateTriangle("spanning vectors are collinear")
    return ((ux - uy * cot_a) * 0.5, (uy + ux * cot_a) * 0.5,
            (vx + vy * cot_b) * 0.5, (vy - vx * cot_b) * 0.5,
            0.5 * a * math.sqrt(1.0 + cot_a * cot_a),
            0.5 * b * math.sqrt(1.0 + cot_b * cot_b))


# =========================================================================
# Closed-form distances
# =========================================================================

def _joint_vertex_distance(s1: float, s2: float, s_opp: float,
                           cot1: float, cot2: float, cot_opp: float,
                           theta_sq: float) -> float:
    """Distance from the vertex where edges e1 and e2 meet (e_opp across),
    from their squares s1, s2 and s_opp.

    cot1/cot2 belong to the viewing angles of e1/e2, cot_opp to the edge
    across. A non-positive radicand in the denominator means no point
    realizes the configuration.
    """
    core = s1 + s2 - s_opp
    numerator = 0.5 * abs((cot1 + cot2) * (core - theta_sq * cot_opp))
    denom = (s1 * (1.0 + cot1 * cot1) + s2 * (1.0 + cot2 * cot2)
             - (cot1 + cot2) * (core * cot_opp + theta_sq))
    if denom <= 0.0:
        raise InfeasibleConfiguration(
            f"distance denominator {denom:.3e} (unit triangle) is not positive; "
            "no point sees the edges under these angles")
    return numerator / math.sqrt(denom)


def _rot3(triple: tuple, r: int) -> tuple:
    """``triple`` rotated left by ``r`` places: (x, y, z) -> (y, z, x) for 1."""
    r %= 3
    return triple[r:] + triple[:r]


# Rotation count by the index of the smallest viewing angle.
_ROTATION_OF_SMALLEST = (1, 2, 0)


def canonical_rotation(angles: PhaseAngles) -> int:
    """Cyclic rotation count placing the smallest viewing angle last, so the
    two largest (hence both >= 90 deg) drive the chord-circle construction."""
    psis = angles.as_tuple()
    return _ROTATION_OF_SMALLEST[psis.index(min(psis))]


def _barycentric(px: float, py: float, a: float, ax: float,
                 ay: float) -> tuple[float, float, float]:
    """Coordinates (u, v, w) of (px, py) = v*B + w*A, u = 1 - v - w, with
    C at the origin, B at (a, 0) and A at (ax, ay)."""
    area = a * ay
    v = (px * ay - py * ax) / area
    w = a * py / area
    return (1.0 - v - w, v, w)


def general_distances_closed_form(t: TriangleEdges,
                                  angles: PhaseAngles) -> StarSolution:
    """Closed-form distances from X to the three vertices.

    Each distance comes from the same expression under the cyclic
    relabeling (a,b,c; psi_a,psi_b,psi_c) -> (b,c,a; psi_b,psi_c,psi_a).
    The solution is accepted only if the law-of-cosines closure holds to
    ``RESIDUAL_TOL`` and the point, rebuilt from the distances in the
    original frame, lands inside the triangle. Everything is evaluated on
    the unit triangle of ``t`` and scaled back.
    """
    (a, b, _), (a2, b2, c2) = t.unit, t.unit_sq
    theta_sq = t.unit_theta_sq
    cot_a, cot_b, cot_c = angles.cot

    a_p = _joint_vertex_distance(b2, c2, a2, cot_b, cot_c, cot_a, theta_sq)
    b_p = _joint_vertex_distance(c2, a2, b2, cot_c, cot_a, cot_b, theta_sq)
    c_p = _joint_vertex_distance(a2, b2, c2, cot_a, cot_b, cot_c, theta_sq)

    residuals = closure_defects(t.unit_sq, angles.cos, (a_p, b_p, c_p))
    if max(residuals) > RESIDUAL_TOL:
        raise InfeasibleConfiguration(
            f"closure residuals {residuals} exceed {RESIDUAL_TOL:g}; "
            "no interior point realizes these edges and angles")

    px, py = point_position(a, a2, b_p, c_p)
    bary = _barycentric(px, py, a, *apex_position(a, b, a2, b2, c2, theta_sq))
    if min(bary) < -BARY_TOL:
        raise InfeasibleConfiguration(
            f"recovered point lies outside the triangle: barycentric {bary}")
    return solution_at_scale(t.exponent, (a_p, b_p, c_p), px, py, residuals)


def general_solve_by_circles(t: TriangleEdges, angles: PhaseAngles) -> StarSolution:
    """Constructive route: X as the second common point of the two
    inscribed-angle circles.

    Both circles pass through vertex C at the origin, so X is C reflected
    in the line of centres: with d = c_s - c_r, X = 2 (c_r x d) / |d|^2
    * (d_y, -d_x). It must land inside the triangle (within barycentric
    slack); a line of centres through C is tangency at C, the legitimate
    boundary case of a vanishing vertex distance. The construction runs on
    the unit triangle of ``t`` and its distances are scaled back.
    """
    rot = canonical_rotation(angles)
    # Theta^2 is symmetric and needs no relabeling.
    (a, b, _), (a2, b2, c2) = _rot3(t.unit, rot), _rot3(t.unit_sq, rot)
    cot_a, cot_b, _ = _rot3(angles.cot, rot)
    ax, ay = apex_position(a, b, a2, b2, c2, t.unit_theta_sq)
    crx, cry, csx, csy, rho_a, rho_b = _chord_circles(a, 0.0, ax, ay, cot_a, cot_b)

    dx, dy = csx - crx, csy - cry
    d = math.hypot(dx, dy)
    eps = 1e-12 * (rho_a + rho_b)
    if d <= eps:
        raise ConcentricCircles(
            f"centers coincide within {eps:g}; intersection undefined")
    scale = 2.0 * (crx * dy - cry * dx) / (d * d)
    px, py = scale * dy, -scale * dx
    bary = _barycentric(px, py, a, ax, ay)
    if min(bary) < -BARY_TOL:
        raise NoInteriorIntersection(
            f"circle intersection lies outside the triangle: barycentric {bary}")

    # Distances to A = (ax, ay), B = (a, 0) and C at the origin.
    rotated_distances = (math.hypot(px - ax, py - ay), math.hypot(px - a, py),
                         math.hypot(px, py))
    a_p, b_p, c_p = _rot3(rotated_distances, (3 - rot) % 3)
    residuals = closure_defects(t.unit_sq, angles.cos, (a_p, b_p, c_p))
    px, py = point_position(t.unit[0], t.unit_sq[0], b_p, c_p)
    return solution_at_scale(t.exponent, (a_p, b_p, c_p), px, py, residuals)
