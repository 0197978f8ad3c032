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
  is C reflected in the line through their centres.

Each route is a float kernel of :mod:`starsolve.kernel` on the unit
triangle of the edges (:func:`~starsolve.kernel.closed_form_distances`,
:func:`~starsolve.kernel.circle_distances`), which the CLI calls directly
and the value-type functions here wrap.

With every angle at 120 deg the closed form is the 120-deg solver of
:mod:`starsolve.fermat`, which calls it behind its wide-angle gate.
"""

from __future__ import annotations

from .geometry import PhaseAngles, StarSolution, TriangleEdges, solution_at_scale
from .kernel import (
    circle_distances,
    closed_form_distances,
    closure_defects,
    point_position,
)


def validate_angles(psi_a: float, psi_b: float) -> PhaseAngles:
    """Complete (psi_a, psi_b) with psi_c = 360 - psi_a - psi_b and validate."""
    return PhaseAngles(psi_a, psi_b, 360.0 - psi_a - psi_b)


def general_distances_closed_form(t: TriangleEdges,
                                  angles: PhaseAngles) -> StarSolution:
    """Closed-form distances from X to the three vertices:
    :func:`~starsolve.kernel.closed_form_distances` on the unit triangle of ``t``, scaled
    back."""
    distances, (px, py), residuals = closed_form_distances(
        t.unit, t.unit_sq, t.unit_theta_sq, angles.cot, angles.cos)
    return solution_at_scale(t.exponent, distances, px, py, residuals)


def general_solve_by_circles(t: TriangleEdges, angles: PhaseAngles) -> StarSolution:
    """Constructive route: :func:`~starsolve.kernel.circle_distances` on
    the unit triangle of ``t``, scaled back."""
    distances = circle_distances(t.unit, t.unit_sq, t.unit_theta_sq,
                                 angles.as_tuple(), angles.cot)
    residuals = closure_defects(t.unit_sq, angles.cos, distances)
    px, py = point_position(t.unit[0], t.unit_sq[0], distances[1], distances[2])
    return solution_at_scale(t.exponent, distances, px, py, residuals)
