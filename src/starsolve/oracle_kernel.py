"""The oracle's plain-float entries: the distance-sum minimum, an
independent check of the 120-deg solvers for the library and the
acceptance tests, and the planted draw and forward map that ``synth``
writes.

This module is to :mod:`starsolve.oracle` what :mod:`starsolve.kernel` is
to the solvers: the oracle's value types wrap these functions, and
``synth`` calls its two directly; ``verify`` calls none of them. It
imports nothing but :mod:`math`, :mod:`sys`, :mod:`starsolve.errors` and
:mod:`starsolve.kernel`, so no CLI path loads a value type, and not
:mod:`random` either: the draw takes the caller's generator. Of
:mod:`starsolve.kernel` it reads the invariants, a position and the
residual function, never a solver formula, so it stays an independent
check on the solvers.
"""

from __future__ import annotations

import math
import sys
from typing import TYPE_CHECKING

from .errors import DegenerateTriangle, NoConvergence
from .kernel import Triple, angle_invariants, closure_defects, edge_invariants, point_position

if TYPE_CHECKING:  # pragma: no cover - the draw takes the caller's generator
    from random import Random


# =========================================================================
# Forward synthesis: plant the answer, derive the measurement
# =========================================================================

# Planted distances are log-uniform in [0.1, 10].
_LOG_LO = math.log(0.1)
_LOG_SPAN = math.log(10.0) - _LOG_LO


def planted_draw(rng: Random, symmetric: bool = False) -> tuple[Triple, Triple]:
    """Draw a planted instance as ``(distances, psis)``: distances
    log-uniform in [0.1, 10], angles uniform on the 360-deg simplex,
    rejected until each lies in (60, 180).

    Only ``rng.random()`` is consumed, three calls for the distances and
    then three per angle draw, keeping the draws stable across Python
    versions. With ``symmetric=True`` all angles are 120 deg and no angle
    is drawn.
    """
    random = rng.random
    distances = (math.exp(_LOG_LO + _LOG_SPAN * random()),
                 math.exp(_LOG_LO + _LOG_SPAN * random()),
                 math.exp(_LOG_LO + _LOG_SPAN * random()))
    if symmetric:
        return distances, (120.0, 120.0, 120.0)
    while True:
        # Three unit-rate exponentials normalized to the simplex, summed by
        # two plain additions: sum() is compensated from Python 3.12 on.
        d_a = -math.log(1.0 - random())
        d_b = -math.log(1.0 - random())
        d_c = -math.log(1.0 - random())
        total = d_a + d_b + d_c
        psi_a = 360.0 * d_a / total
        psi_b = 360.0 * d_b / total
        psi_c = 360.0 * d_c / total
        if 60.0 < psi_a < 180.0 and 60.0 < psi_b < 180.0 and 60.0 < psi_c < 180.0:
            return distances, (psi_a, psi_b, 360.0 - psi_a - psi_b)


def planted_edges(distances: Triple, psis: Triple) -> tuple[Triple, Triple]:
    """``(edges, residuals)``: the edges of the triangle whose interior
    point lies at ``distances`` from its vertices and sees the edges under
    ``psis``, and the closure residuals of that plant on them.

    Each edge follows from the law of cosines across its viewing angle:
    a^2 = b'^2 + c'^2 - 2 b' c' cos(psi_a), cyclically. The angles are
    validated by :func:`~starsolve.kernel.angle_invariants` and the edges
    by :func:`~starsolve.kernel.edge_invariants`, whose errors propagate.
    """
    _, _, cos = angle_invariants(*psis)
    a_p, b_p, c_p = distances
    cos_a, cos_b, cos_c = cos
    edges = (math.sqrt(b_p * b_p + c_p * c_p - 2.0 * b_p * c_p * cos_a),
             math.sqrt(c_p * c_p + a_p * a_p - 2.0 * c_p * a_p * cos_b),
             math.sqrt(a_p * a_p + b_p * b_p - 2.0 * a_p * b_p * cos_c))
    exponent, _, unit_sq, _ = edge_invariants(*edges)
    # An interior point lies nearer each vertex than the longest edge, so no
    # distance overflows on the unit triangle.
    unit_distances = (math.ldexp(a_p, -exponent), math.ldexp(b_p, -exponent),
                      math.ldexp(c_p, -exponent))
    return edges, closure_defects(unit_sq, cos, unit_distances)


# =========================================================================
# Weiszfeld-Newton minimization of the vertex-distance sum
# =========================================================================

# Stop once the convexity bound on the relative gap to the minimum is this small.
GAP_CERTIFICATE = 1e-12

# A Newton step may raise the sum by this much relative rounding and still count.
_ROUNDING_SLACK = 4.0 * sys.float_info.epsilon


def _embed_for_oracle(a: float, b: float, c: float
                      ) -> tuple[tuple[float, float], ...]:
    """Vertices (C, B, A), as (x, y) pairs, placed independently of the
    solver embedding.

    A's height is twice the area over a, from Kahan's sorted-edge product
    (x >= y >= z): b^2 - ax^2 would cancel on a needle whose short edge is c.
    """
    ax = (a * a + b * b - c * c) / (2.0 * a)
    x, y, z = sorted((a, b, c), reverse=True)
    radicand = (x + (y + z)) * (z - (x - y)) * (z + (x - y)) * (x + (y - z))
    return ((0.0, 0.0), (a, 0.0), (ax, math.sqrt(max(radicand, 0.0)) / (2.0 * a)))


def _coincident(a: float, b: float, c: float) -> DegenerateTriangle:
    return DegenerateTriangle(f"edges ({a}, {b}, {c}): two vertices coincide "
                              "on the unit triangle")


def distance_sum_minimum(a: float, b: float, c: float, max_iter: int = 10_000,
                         start: tuple[float, float] | None = None
                         ) -> tuple[float, float, float, int]:
    """The minimum of f(X) = |XA| + |XB| + |XC| (Fermat-Weber) over the
    triangle with edges ``a``, ``b``, ``c``, on plain floats, to a
    certified gap: ``(x, y, value, iterations)``, the minimizing point in
    the frame with C at the origin and B on +x, f there, and the steps
    taken.

    A vertex is the minimum exactly when the unit vectors from it toward
    the other two sum to a length <= 1 (Kuhn's subgradient condition: an
    interior angle >= 120 deg); it is returned with 0 iterations, before a
    start is placed. All three corners are tested: only the one across the
    longest edge can be that wide, but an isosceles needle ties its two
    longest edges in floats, and rounding in the embedding can make the
    other corner of the tie the one that passes.

    Otherwise the iteration starts on the vertex opposite the longest edge,
    the one nearest the minimum, moved to the origin where floats are
    densest: near 120 deg the minimum sits within a hair of it. Each step
    is the Newton step of the 2x2 gradient and Hessian of f if it does not
    raise f beyond rounding, else Weiszfeld's step to the inverse-distance-
    weighted mean of the vertices (Tohoku Math. J. 43, 1937). On a vertex
    the Vardi-Zhang step (PNAS 97(4), 2000) moves (1 - 1/r) of the way to
    the weighted mean of the other two, r > 1 being the length of the sum
    of unit vectors toward them. ``iterations`` counts these steps. At each
    X a first pass over the vertices gives the distances from X, f(X) and
    the gradient, and so the certificate below; only if that fails does a
    second pass form the Hessian and Weiszfeld's weights for the step.

    ``start`` = (distance to B, distance to C), in the units of the edges,
    starts the iteration instead at the point at those distances on A's
    side of edge a; the origin stays where it was. A start that is not
    finite, or not once divided by 2**e (see below), is ignored. A good
    start only saves steps: the stopping rule below bounds the gap
    wherever the iteration began.

    It stops when |grad f(X)| * max_k |X - V_k| <= GAP_CERTIFICATE * f(X).
    By convexity f(X) - f(X*) <= grad f(X) . (X - X*), and X* lies in the
    triangle, so this bounds the relative gap of ``value`` to the minimum.
    :class:`NoConvergence` is raised if ``max_iter`` steps do not reach
    the certificate, and :class:`DegenerateTriangle` if two vertices
    coincide in floats, as on a needle whose short edge squares to 0.

    The sum is homogeneous in the edges, so the search runs on the edges
    divided by 2**e, e the binary exponent of the longest edge (taken here,
    not from the solver's invariants), and the point and value are scaled
    back: no bit changes, and no square under- or overflows at any scale.
    On the unit triangle that :func:`~starsolve.kernel.edge_invariants`
    returns, e is 0.
    """
    exponent = math.frexp(max(a, b, c))[1]
    edges = (math.ldexp(a, -exponent), math.ldexp(b, -exponent),
             math.ldexp(c, -exponent))
    if 0.0 in edges:
        raise _coincident(a, b, c)
    vc, vb, va = _embed_for_oracle(*edges)
    for (cx, cy), (ux, uy), (vx, vy) in ((va, vb, vc), (vb, va, vc), (vc, va, vb)):
        du = math.hypot(cx - ux, cy - uy)
        dv = math.hypot(cx - vx, cy - vy)
        if du == 0.0 or dv == 0.0:
            raise _coincident(a, b, c)
        inv_u, inv_v = 1.0 / du, 1.0 / dv
        if math.hypot((ux - cx) * inv_u + (vx - cx) * inv_v,
                      (uy - cy) * inv_u + (vy - cy) * inv_v) <= 1.0:
            return (math.ldexp(cx, exponent), math.ldexp(cy, exponent),
                    math.ldexp(du + dv, exponent), 0)

    ox, oy = (va, vb, vc)[edges.index(max(edges))]
    vertices = [(vx - ox, vy - oy) for vx, vy in (va, vb, vc)]
    (x1, y1), (x2, y2), (x3, y3) = vertices
    x = y = 0.0
    if start is not None:
        try:
            sx, sy = point_position(edges[0], edges[0] * edges[0],
                                    math.ldexp(start[0], -exponent),
                                    math.ldexp(start[1], -exponent))
        except OverflowError:  # a start far beyond the scale of the edges
            sx = sy = math.nan
        if math.isfinite(sx) and math.isfinite(sy):
            x, y = sx - ox, sy - oy
    for iterations in range(max_iter + 1):
        distances = [math.hypot(vx - x, vy - y) for vx, vy in vertices]
        # Added left to right, here and below: sum() rounds otherwise on 3.12+.
        fx = distances[0] + distances[1] + distances[2]
        on_vertex = 0.0 in distances
        # Minus the gradient: the sum of the unit vectors toward the
        # vertices X is not on.
        px = py = 0.0
        for (vx, vy), d in zip(vertices, distances):
            if d != 0.0:
                px += (vx - x) / d
                py += (vy - y) / d
        pull = math.hypot(px, py)
        if not on_vertex and pull * max(distances) <= GAP_CERTIFICATE * fx:
            return (math.ldexp(x + ox, exponent), math.ldexp(y + oy, exponent),
                    math.ldexp(fx, exponent), iterations)
        if iterations == max_iter:
            break

        # The Hessian and Weiszfeld's weights, over the same vertices.
        hxx = hxy = hyy = wsum = wx = wy = 0.0
        for (vx, vy), d in zip(vertices, distances):
            if d != 0.0:
                ux, uy = (vx - x) / d, (vy - y) / d
                hxx += (1.0 - ux * ux) / d
                hxy -= ux * uy / d
                hyy += (1.0 - uy * uy) / d
                wsum += 1.0 / d
                wx += vx / d
                wy += vy / d
        det = hxx * hyy - hxy * hxy
        if not on_vertex and det > 0.0:
            nx = x + (hyy * px - hxy * py) / det
            ny = y + (hxx * py - hxy * px) / det
            if (math.hypot(x1 - nx, y1 - ny) + math.hypot(x2 - nx, y2 - ny)
                    + math.hypot(x3 - nx, y3 - ny) <= fx * (1.0 + _ROUNDING_SLACK)):
                x, y = nx, ny
                continue
        keep = 1.0 / max(pull, 1.0) if on_vertex else 0.0
        x = (1.0 - keep) * wx / wsum + keep * x
        y = (1.0 - keep) * wy / wsum + keep * y

    raise NoConvergence(
        f"distance-sum gap not certified within {max_iter} iterations")
