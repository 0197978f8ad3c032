"""Interior point whose three vertex rays meet at 120 deg mutual angles.

Given the edge lengths of a triangle (all interior angles below 120 deg),
recover the distances from that point to the vertices. Two independent
routes are provided and can be cross-checked against each other:

* the closed form, which is the general viewing-angle kernel of
  :mod:`starsolve.general` with every angle at 120 deg, behind a gate that
  names the wide vertex of a triangle with an angle >= 120 deg, and
* the constructive route: erect outward equilateral triangles on two
  edges, intersect the two cevians to their apexes, and measure.

Coordinate frame for all reported point positions: vertex C at the origin,
vertex B on the positive x-axis (so the spanning vector of edge a lies
along +x), vertex A in the upper half-plane.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Literal

from .config import ANGLE_LIMIT_DEG, EPS_ANG_DEG
from .errors import AngleAtLeast120, DegenerateTriangle
from .general import general_distances_closed_form
from .geometry import (
    PhaseAngles,
    PlaneVector,
    StarSolution,
    TriangleEdges,
    apex_position,
    closure_defects,
    perp,
    solution_at_scale,
)

SQRT3 = math.sqrt(3.0)

ALL_120 = PhaseAngles(120.0, 120.0, 120.0)

SolveMethod = Literal["closed_form", "construction"]


@dataclass(frozen=True)
class FermatIntermediate:
    """Intermediate quantities of the constructive route: the cevian line
    parameters ``tau0`` and ``sigma0`` and their intersection point ``m``."""

    tau0: float
    sigma0: float
    m: PlaneVector


def vertex_clamped_distances(t: TriangleEdges, vertex: str) -> tuple[float, float, float]:
    """Distances when the minimizing point degenerates onto the named vertex:
    zero there, adjacent edge lengths at the other two corners."""
    return {
        "A": (0.0, t.c, t.b),
        "B": (t.c, 0.0, t.a),
        "C": (t.b, t.a, 0.0),
    }[vertex]


# Cosine of an angle two EPS_ANG_DEG below the limit. A vertex whose
# cosine is above it lies below the gate by far more than acos and the
# degree conversion can round, so the angle itself is only evaluated near
# the gate, where it decides, and for the diagnostic of a wide vertex.
_COS_CLEAR = math.cos(math.radians(ANGLE_LIMIT_DEG - 2.0 * EPS_ANG_DEG))


def require_angles_below_120(t: TriangleEdges) -> None:
    """Raise :class:`AngleAtLeast120` (with diagnostics) for wide triangles.

    The cosines come from the squared unit edges, as in
    :func:`law_of_cosines_angle`, vertex by vertex in the order A, B, C.
    """
    (a, b, c), (a2, b2, c2) = t.unit, t.unit_sq
    cosines = ((b2 + c2 - a2) / (2.0 * b * c),
               (c2 + a2 - b2) / (2.0 * c * a),
               (a2 + b2 - c2) / (2.0 * a * b))
    if min(cosines) > _COS_CLEAR:
        return
    for vertex, cos_val in zip("ABC", cosines):
        angle = math.degrees(math.acos(max(-1.0, min(1.0, cos_val))))
        if angle >= ANGLE_LIMIT_DEG - EPS_ANG_DEG:
            raise AngleAtLeast120(vertex, angle, vertex_clamped_distances(t, vertex))


def fermat_apexes(a_vec: PlaneVector, b_vec: PlaneVector) -> tuple[PlaneVector, PlaneVector]:
    """Apexes of the outward equilateral triangles erected on the two spanning edges.

    The apex over edge a sits below the x-axis (outside), the apex over
    edge b beyond it; each forms an equilateral triangle with its base.
    """
    cross = a_vec.cross(b_vec)
    if cross <= 1e-15 * a_vec.norm() * b_vec.norm():
        raise DegenerateTriangle("spanning vectors are collinear")
    p = 0.5 * a_vec - (SQRT3 / 2.0) * perp(a_vec)
    q = 0.5 * b_vec + (SQRT3 / 2.0) * perp(b_vec)
    return p, q


def fermat_line_solution(a_vec: PlaneVector, b_vec: PlaneVector,
                         p: PlaneVector, q: PlaneVector) -> FermatIntermediate:
    """Intersect the cevians A->P and B->Q.

    The intersection parameters solve a symmetric 2x2 system; they are
    evaluated from the explicit solution whose common denominator is
    strictly positive for every non-degenerate triangle, so the route has
    no spurious singularity even for needle shapes.
    """
    a = a_vec.norm()
    b = b_vec.norm()
    sin_phi = a_vec.cross(b_vec) / (a * b)
    cos_phi = a_vec.dot(b_vec) / (a * b)
    cos_p60 = cos_phi * 0.5 - sin_phi * (SQRT3 / 2.0)   # cos(phi + 60)
    sin_m60 = sin_phi * 0.5 - cos_phi * (SQRT3 / 2.0)   # sin(phi - 60)

    denom = SQRT3 * (a * a + b * b) - 2.0 * SQRT3 * a * b * cos_p60
    if denom <= 1e-14 * (a * a + b * b):
        raise DegenerateTriangle("cevian system is singular (degenerate triangle)")

    tau0 = (SQRT3 * b * b + 2.0 * a * b * sin_m60) / denom
    sigma0 = (SQRT3 * a * a + 2.0 * a * b * sin_m60) / denom
    m = b_vec + tau0 * (p - b_vec)
    return FermatIntermediate(tau0=tau0, sigma0=sigma0, m=m)


def fermat_distances_closed_form(t: TriangleEdges) -> StarSolution:
    """Closed-form distances from the 120-deg interior point to the vertices.

    Requires every interior angle strictly below 120 deg; otherwise the
    point degenerates onto the wide vertex and an :class:`AngleAtLeast120`
    carrying the vertex-clamped distances is raised instead of guessing.
    Past that gate this is the general kernel at 120 deg, whose distances
    reduce to (sqrt3*(b^2+c^2-a^2) + Theta^2) / sqrt(6*(a^2+b^2+c^2 +
    sqrt3*Theta^2)), cyclically, with Theta^2 the Heron radical.
    """
    require_angles_below_120(t)
    return general_distances_closed_form(t, ALL_120)


def fermat_construction(t: TriangleEdges) -> tuple[StarSolution, FermatIntermediate]:
    """Constructive route: distances measured from the cevian intersection.

    The construction runs on the unit triangle of ``t``; its distances and
    point (also the intersection ``m``) are scaled back by 2**exponent.
    """
    require_angles_below_120(t)
    (a, b, _), (a2, b2, c2) = t.unit, t.unit_sq
    a_vec = PlaneVector(a, 0.0)
    b_vec = PlaneVector(*apex_position(a, b, a2, b2, c2, t.unit_theta_sq))
    p, q = fermat_apexes(a_vec, b_vec)
    inter = fermat_line_solution(a_vec, b_vec, p, q)
    m = inter.m
    distances = (m.distance_to(b_vec),   # A sits at b_vec
                 m.distance_to(a_vec),   # B sits at a_vec
                 m.norm())               # C is the origin
    residuals = closure_defects(t.unit_sq, ALL_120.cos, distances)
    solution = solution_at_scale(t.exponent, distances, m.x, m.y, residuals)
    return solution, FermatIntermediate(inter.tau0, inter.sigma0, solution.point)


def fermat_solve(t: TriangleEdges, method: SolveMethod = "closed_form") -> StarSolution:
    """Solve by the requested route: the closed form or the construction."""
    if method == "closed_form":
        return fermat_distances_closed_form(t)
    if method == "construction":
        return fermat_construction(t)[0]
    raise ValueError(f"unknown method {method!r}")
