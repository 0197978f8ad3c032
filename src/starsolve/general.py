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
triangle of the edges (:func:`~starsolve.kernel.line_voltage_kernel`, the
one closed form, and :func:`~starsolve.kernel.circle_distances`), which
the CLI calls directly and the value-type functions here wrap: each takes
``(edges, angles)``, the ``invariants`` that :class:`TriangleEdges` and
:class:`PhaseAngles` keep, passed through as they are. Either
route's point is placed from its distances by
:func:`~starsolve.geometry.star_solution`, in the frame with C at the
origin and B on +x.

With every angle at 120 deg the closed form is the 120-deg solver of
:mod:`starsolve.fermat`: the kernel's feasibility predicate names the
wide vertex of a triangle with an angle >= 120 deg.
"""

from __future__ import annotations

import math

from .config import RESIDUAL_TOL
from .geometry import PhaseAngles, StarSolution, TriangleEdges, star_solution
from .kernel import circle_distances, closure_defects, line_voltage_kernel


def validate_angles(psi_a: float, psi_b: float) -> PhaseAngles:
    """Complete (psi_a, psi_b) with psi_c = 360 - psi_a - psi_b and validate."""
    return PhaseAngles(psi_a, psi_b, 360.0 - psi_a - psi_b)


def general_distances_closed_form(t: TriangleEdges,
                                  angles: PhaseAngles) -> StarSolution:
    """Closed-form distances from X to the three vertices:
    :func:`~starsolve.kernel.line_voltage_kernel` on the invariants of
    ``t`` and ``angles``, so at 120 deg each a wide triangle raises
    :class:`~starsolve.errors.AngleAtLeast120`.

    The kernel's distances go back to the unit triangle for
    :func:`~starsolve.geometry.star_solution`, which places the point from
    them and scales all back; the distances keep the kernel's bits. Where
    one is subnormal, its unit value is not the kernel's, and the point may
    differ in its last bits.
    """
    distances, residuals, _ = line_voltage_kernel(t.invariants, angles.invariants,
                                                  RESIDUAL_TOL)
    k = t.invariants[0]
    return star_solution(t, tuple(math.ldexp(d, -k) for d in distances), residuals)


def general_solve_by_circles(t: TriangleEdges, angles: PhaseAngles) -> StarSolution:
    """Constructive route: :func:`~starsolve.kernel.circle_distances` on
    the unit triangle of ``t``, and the point placed from them by
    :func:`~starsolve.geometry.star_solution`."""
    _, _, unit_sq, _ = t.invariants
    _, _, cos = angles.invariants
    distances = circle_distances(t.invariants, angles.invariants)
    return star_solution(t, distances, closure_defects(unit_sq, cos, distances))
