"""Interior point whose three vertex rays meet at 120 deg mutual angles.

Given the edge lengths of a triangle (all interior angles below 120 deg),
recover the distances from that point to the vertices. Two independent
routes are provided and can be cross-checked against each other:

* the closed form, which is the general viewing-angle kernel of
  :mod:`starsolve.general` with every angle at 120 deg, behind the
  feasibility predicate :func:`~starsolve.kernel.check_interior_point`,
  which at 120 deg names the wide vertex of a triangle with an angle
  >= 120 deg, and
* the constructive route: erect an outward equilateral triangle on edge
  a, intersect the cevian to its apex with the cevian from B, and measure
  the distances from that intersection, on plain floats.

Coordinate frame for all reported point positions: vertex C at the origin,
vertex B on the positive x-axis (so the spanning vector of edge a lies
along +x), vertex A in the upper half-plane. Vertex A and the point are
placed by :func:`~starsolve.kernel.place`, which holds on needles too.
"""

from __future__ import annotations

import math
from typing import Literal

from .errors import DegenerateTriangle
from .general import general_distances_closed_form
from .geometry import PhaseAngles, StarSolution, TriangleEdges, star_solution
from .kernel import ANGLES_120, check_interior_point, closure_defects, place

SQRT3 = math.sqrt(3.0)

ALL_120 = PhaseAngles(120.0, 120.0, 120.0)

SolveMethod = Literal["closed_form", "construction"]


def fermat_distances_closed_form(t: TriangleEdges) -> StarSolution:
    """Closed-form distances from the 120-deg interior point to the vertices.

    Requires every interior angle strictly below 120 deg; otherwise the
    point degenerates onto the wide vertex and an :class:`AngleAtLeast120`
    carrying the vertex-clamped distances is raised instead of guessing.
    This is the general kernel at 120 deg, which runs that predicate
    first, and whose distances reduce to (sqrt3*(b^2+c^2-a^2) + Theta^2) /
    sqrt(6*(a^2+b^2+c^2 + sqrt3*Theta^2)), cyclically, with Theta^2 the
    Heron radical.
    """
    return general_distances_closed_form(t, ALL_120)


def fermat_construction(t: TriangleEdges) -> StarSolution:
    """Constructive route: distances measured from the cevian intersection.

    With C at the origin, B at (a, 0) and A at (ax, ay), placed by
    :func:`~starsolve.kernel.place`, the apex of the outward equilateral
    triangle on edge a is P = (a/2, -(sqrt3/2) a). The star point is where
    the cevian A->P meets the cevian from B to the apex over edge b; its
    parameter along A->P solves a symmetric 2x2 system, evaluated from the
    explicit solution whose common denominator is strictly positive for
    every triangle of nonzero area, so the route has no spurious
    singularity even for needle shapes. The construction runs on the unit
    triangle of ``t``, and :func:`~starsolve.geometry.star_solution` places
    the point from its distances and scales all back by 2**exponent.
    """
    check_interior_point(t.invariants, ANGLES_120)
    _, (a, b, c), unit_sq, _ = t.invariants
    ax, ay = place(a, c, b)
    if ay <= 0.0:
        raise DegenerateTriangle("spanning vectors are collinear")
    b = math.hypot(ax, ay)   # |CA| as embedded

    sin_phi = ay / b
    cos_phi = ax / b
    cos_p60 = cos_phi * 0.5 - sin_phi * (SQRT3 / 2.0)   # cos(phi + 60)
    sin_m60 = sin_phi * 0.5 - cos_phi * (SQRT3 / 2.0)   # sin(phi - 60)
    # sin(phi) > 0 makes cos(phi + 60) < 1/2, so denom > (sqrt3/2)(a^2 + b^2).
    denom = SQRT3 * (a * a + b * b) - 2.0 * SQRT3 * a * b * cos_p60

    tau0 = (SQRT3 * b * b + 2.0 * a * b * sin_m60) / denom
    mx = ax + (0.5 * a - ax) * tau0
    my = ay + (-(a * (SQRT3 / 2.0)) - ay) * tau0
    distances = (math.hypot(mx - ax, my - ay),   # A
                 math.hypot(mx - a, my),         # B
                 math.hypot(mx, my))             # C, the origin
    residuals = closure_defects(unit_sq, ANGLES_120[2], distances)
    return star_solution(t, distances, residuals)


def fermat_solve(t: TriangleEdges, method: SolveMethod = "closed_form") -> StarSolution:
    """Solve by the requested route: the closed form or the construction."""
    if method == "closed_form":
        return fermat_distances_closed_form(t)
    if method == "construction":
        return fermat_construction(t)
    raise ValueError(f"unknown method {method!r}")
