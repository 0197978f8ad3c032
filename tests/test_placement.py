"""Property tests for the one placement, ``kernel.place``, through what the
library reports: the vertices of ``embed_triangle`` and the points of
``general_distances_closed_form`` and ``synthesize_triangle``.

Each places a point above edge a, with C at the origin and B at (a, 0), at
distances p from C and q from B, on the unit triangle, and scales it back
by a power of two, which is exact. The bound on how far the placed point's
distances to B and C miss q and p follows from the operations ``place``
runs, in units of u = 2**-53 times L, the longest of a, p and q, to first
order:

* abscissa a/2 + (p - q)(p + q) / (2a): the difference, the sum, the
  product and the quotient round once each, 4u relative on a term no
  larger than L while the triangle inequality holds; a/2 is exact, and the
  sum rounds once on a value no larger than L: 5uL in all;
* height Theta^2 / (2a): of Kahan's four factors over x >= y >= z,
  x + (y + z) and x + (y - z) round twice, z + (x - y) and z - (x - y) once
  (x - y is exact by Sterbenz); a square root halves its factor's error
  and rounds once, so the roots carry 2u, 2u, 1.5u and 1.5u; three products
  and the quotient add 4u, 11u relative on a height no larger than L;
* the test's own measurement rounds a - x once and each ``hypot`` once.

So each distance is within (5 + 11 + 2)u L = 18uL. A triple that misses
the triangle inequality by v has no such point: the clamps put it on the
x-axis at -p or p, where its distance to B misses q by v exactly. The
bound is 18uL + v.
"""

from __future__ import annotations

import math
from fractions import Fraction

from hypothesis import assume, example, given, settings, strategies as st

from starsolve import (
    PhaseAngles,
    StarSolveError,
    SynthesisSpec,
    TriangleEdges,
    embed_triangle,
    general_distances_closed_form,
    synthesize_triangle,
)

U = 2.0 ** -53
SETTINGS = settings(max_examples=300, deadline=None)
SCALE = st.sampled_from([1.0, 3.7, 2.0 ** -600, 1e-150, 1e150])


def placement_bound(a: float, to_b: float, to_c: float) -> float:
    """18uL beyond the triple's own miss of the triangle inequality."""
    x, y, z = sorted(map(Fraction, (a, to_b, to_c)), reverse=True)
    return 18.0 * U * float(x) + float(max(x - y - z, Fraction(0)))


def placement_misses(a: float, point, to_b: float, to_c: float) -> tuple[float, float]:
    """How far ``point`` misses ``to_b`` from B = (a, 0) and ``to_c`` from C."""
    return (abs(math.hypot(point.x - a, point.y) - to_b),
            abs(math.hypot(point.x, point.y) - to_c))


@st.composite
def accepted_triangles(draw) -> TriangleEdges:
    """Edges that ``TriangleEdges`` accepts, in any order and at any scale:
    a triangle from collinear to collinear, or a needle whose short edge
    is 10**-1 to 10**-150 of the long one and whose middle edge may sit a
    few roundings off, so that the triple misses the triangle inequality
    inside the collinearity window."""
    if draw(st.booleans()):
        x, y = draw(st.floats(0.01, 1.0)), draw(st.floats(0.01, 1.0))
        z = abs(x - y) + draw(st.floats(0.0, 1.0)) * (x + y - abs(x - y))
    else:
        x = draw(st.floats(0.5, 1.0))
        z = x * 10.0 ** -draw(st.floats(1.0, 150.0))
        y = x - draw(st.floats(0.0, 1.0)) * z
        toward = draw(st.sampled_from((0.0, 2.0)))
        for _ in range(draw(st.integers(0, 3))):
            y = math.nextafter(y, toward)
    scale = draw(SCALE)
    edges = [e * scale for e in draw(st.permutations((x, y, z)))]
    try:
        return TriangleEdges(*edges)
    except StarSolveError:
        assume(False)


@SETTINGS
@given(accepted_triangles())
# The needle whose short edge is a: the abscissa (a^2 + b^2 - c^2) / (2a)
# cancels there, and put A 0.26 of the longest edge off.
@example(TriangleEdges(1e-16, 0.75, math.nextafter(0.75, 0.0)))
@example(TriangleEdges(1e-15, 0.75, math.nextafter(0.75, 0.0)))
@example(TriangleEdges(2.0 ** -53, 0.75, 0.75 - 2.0 ** -53))
@example(TriangleEdges(2.0, 1.0, 1.0))
def test_embedded_vertices_reproduce_the_edges(t):
    a_vec, b_vec = embed_triangle(t)
    assert (a_vec.x, a_vec.y) == (t.a, 0.0)
    assert b_vec.y >= 0.0
    bound = placement_bound(t.a, t.c, t.b)
    assert max(placement_misses(t.a, b_vec, t.c, t.b)) <= bound


@st.composite
def planted_points(draw) -> tuple:
    """Distances from 1e-6 to 1 and viewing angles of 60 to 180 deg, or all
    of 120 deg, at any scale."""
    scale = draw(SCALE)
    distances = tuple(scale * 10.0 ** -draw(st.floats(0.0, 6.0)) for _ in range(3))
    if draw(st.booleans()):
        return distances, (120.0, 120.0, 120.0)
    psi_a = draw(st.floats(60.5, 179.0))
    psi_b = draw(st.floats(max(60.5, 181.0 - psi_a), min(179.0, 299.5 - psi_a)))
    return distances, (psi_a, psi_b, 360.0 - psi_a - psi_b)


@SETTINGS
@given(planted_points())
def test_star_points_reproduce_their_distances(plant):
    distances, psis = plant
    try:
        t, planted = synthesize_triangle(SynthesisSpec(distances, PhaseAngles(*psis)))
    except StarSolveError:
        assume(False)
    solutions = [planted]
    try:
        solutions.append(general_distances_closed_form(t, PhaseAngles(*psis)))
    except StarSolveError:
        pass  # a star point the closed form does not resolve: the plant alone
    for solution in solutions:
        _, to_b, to_c = solution.distances()
        bound = placement_bound(t.a, to_b, to_c)
        assert max(placement_misses(t.a, solution.point, to_b, to_c)) <= bound
