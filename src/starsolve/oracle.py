"""Independent verification machinery.

Nothing here reuses solver formulas: the minimizer works on the
distance-sum objective and its derivatives alone, and waveform sampling
works in the time domain. The minimizer checks the 120-deg solvers for
library callers and the acceptance tests; no CLI path runs it. The
synthesis backs ``synth``: it wraps in value types the plain-float entries
of :mod:`starsolve.oracle_kernel`, which ``synth`` calls directly.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

from .geometry import PhaseAngles, PlaneVector, StarSolution, TriangleEdges, star_solution
from .errors import DegenerateTriangle, NoConvergence
from .oracle_kernel import planted_draw, planted_edges

if TYPE_CHECKING:  # pragma: no cover - type-only, avoids a runtime cycle
    from random import Random

    from .circuit import Phasor


# =========================================================================
# Forward synthesis: plant the answer, derive the measurement
# =========================================================================

@dataclass(frozen=True)
class SynthesisSpec:
    """A planted test instance: known distances and viewing angles.

    ``seed`` records which random draw produced the instance so failures
    reproduce bit-exactly; it plays no role in the synthesis itself.
    """

    distances: tuple[float, float, float]
    angles: PhaseAngles
    seed: int = 0

    def __post_init__(self):
        if any(d <= 0.0 for d in self.distances):
            raise ValueError(f"planted distances must be positive: {self.distances}")


def synthesize_triangle(spec: SynthesisSpec) -> tuple[TriangleEdges, StarSolution]:
    """Edges of the triangle whose interior point realizes the planted spec:
    :func:`~starsolve.oracle_kernel.planted_edges` of its distances and
    angles. The returned expected solution carries the planted distances,
    the canonical-frame point that :func:`~starsolve.geometry.star_solution`
    places from them, and the closure residuals."""
    edges, residuals = planted_edges(spec.distances, spec.angles.as_tuple())
    t = TriangleEdges(*edges)
    k = t.exponent
    return t, star_solution(t, tuple(math.ldexp(d, -k) for d in spec.distances),
                            residuals)


def random_synthesis_spec(rng: Random, seed: int = 0,
                          symmetric: bool = False) -> SynthesisSpec:
    """:func:`~starsolve.oracle_kernel.planted_draw` as a spec: distances
    log-uniform in [0.1, 10], angles uniform on the 360-deg simplex,
    rejected until each lies in (60, 180), or all 120 deg with
    ``symmetric=True``. Only ``rng.random()`` is consumed."""
    distances, psis = planted_draw(rng, symmetric)
    return SynthesisSpec(distances, PhaseAngles(*psis), seed)


# =========================================================================
# Weiszfeld-Newton minimization of the vertex-distance sum
# =========================================================================

# Stop once the convexity bound on the relative gap to the minimum is this small.
GAP_CERTIFICATE = 1e-12

# A Newton step may raise the sum by this much relative rounding and still count.
_ROUNDING_SLACK = 4.0 * sys.float_info.epsilon


@dataclass(frozen=True)
class MinimizationResult:
    point: PlaneVector
    value: float
    iterations: int
    converged: bool


def _embed_for_oracle(a: float, b: float, c: float
                      ) -> tuple[tuple[float, float], ...]:
    """Vertices (C, B, A), as (x, y) pairs, placed independently of the
    solver embedding.

    A's abscissa is a/2 + (b - c)(b + c) / (2a), clamped to [-b, b]:
    (a^2 + b^2 - c^2) / (2a) would cancel on a needle whose short edge is
    a, and b - c is exact when b and c lie within a factor of 2 (Sterbenz).
    Its height is twice the area over a, from Kahan's sorted-edge product
    (x >= y >= z): b^2 - ax^2 would cancel on a needle whose short edge is c.
    """
    ax = max(-b, min(b, a * 0.5 + (b - c) * (b + c) / (2.0 * a)))
    x, y, z = sorted((a, b, c), reverse=True)
    radicand = (x + (y + z)) * (z - (x - y)) * (z + (x - y)) * (x + (y - z))
    return ((0.0, 0.0), (a, 0.0), (ax, math.sqrt(max(radicand, 0.0)) / (2.0 * a)))


def minimize_distance_sum(t: TriangleEdges, max_iter: int = 10_000) -> MinimizationResult:
    """Minimize f(X) = |XA| + |XB| + |XC| (Fermat-Weber) over ``t`` to a
    certified gap. The result holds the minimizing point, in the frame
    with C at the origin and B on +x, f there, and the steps taken;
    ``converged`` is true on every return.

    A vertex is the minimum exactly when the unit vectors from it toward
    the other two sum to a length <= 1 (Kuhn's subgradient condition: an
    interior angle >= 120 deg); it is returned with 0 iterations. All three
    corners are tested: only the one across the longest edge can be that
    wide, but an isosceles needle ties its two longest edges in floats, and
    rounding in the embedding can make the other corner of the tie the one
    that passes.

    Otherwise the iteration begins on the vertex opposite the longest edge,
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

    It stops when |grad f(X)| * max_k |X - V_k| <= GAP_CERTIFICATE * f(X).
    By convexity f(X) - f(X*) <= grad f(X) . (X - X*), and X* lies in the
    triangle, so this bounds the relative gap of ``value`` to the minimum.
    :class:`NoConvergence` is raised if ``max_iter`` steps do not reach
    the certificate.

    The sum is homogeneous in the edges, so the search runs on the edges
    divided by 2**e, e the binary exponent of the longest edge (taken here,
    not from the solver's invariants), and the point and value are scaled
    back: no bit changes, and no square under- or overflows at any scale.
    ``TriangleEdges`` rejects every triangle whose short edge squares to 0
    at that scale. Should the embedding still put two vertices on one
    point, where every step would divide by their distance,
    :class:`DegenerateTriangle` is raised; no accepted triangle is known to
    do so.
    """
    a, b, c = t.a, t.b, t.c
    exponent = math.frexp(max(a, b, c))[1]
    edges = (math.ldexp(a, -exponent), math.ldexp(b, -exponent),
             math.ldexp(c, -exponent))
    vc, vb, va = _embed_for_oracle(*edges)
    for (cx, cy), (ux, uy), (vx, vy) in ((va, vb, vc), (vb, va, vc), (vc, va, vb)):
        du = math.hypot(cx - ux, cy - uy)
        dv = math.hypot(cx - vx, cy - vy)
        if du == 0.0 or dv == 0.0:
            raise DegenerateTriangle(f"edges ({a}, {b}, {c}): two vertices coincide "
                                     "on the unit triangle")
        inv_u, inv_v = 1.0 / du, 1.0 / dv
        if math.hypot((ux - cx) * inv_u + (vx - cx) * inv_v,
                      (uy - cy) * inv_u + (vy - cy) * inv_v) <= 1.0:
            return MinimizationResult(
                PlaneVector(math.ldexp(cx, exponent), math.ldexp(cy, exponent)),
                math.ldexp(du + dv, exponent), 0, True)

    ox, oy = (va, vb, vc)[edges.index(max(edges))]
    vertices = [(vx - ox, vy - oy) for vx, vy in (va, vb, vc)]
    (x1, y1), (x2, y2), (x3, y3) = vertices
    x = y = 0.0
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
            return MinimizationResult(
                PlaneVector(math.ldexp(x + ox, exponent), math.ldexp(y + oy, exponent)),
                math.ldexp(fx, exponent), iterations, True)
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


# =========================================================================
# Time-domain waveform sampling
# =========================================================================

def sample_waveform_amplitude(phasors: Sequence["Phasor"],
                              signs: Sequence[int] | None = None,
                              n_samples: int = 8192) -> float:
    """Amplitude of a signed sum of equal-frequency cosines, by brute sampling.

    Evaluates sum_i sign_i * A_i * cos(theta + phase_i) over ``n_samples``
    uniform points of one period and returns (max - min) / 2. Sampling
    error is below (pi/n)^2 / 2 relative, about 7e-8 at the default.
    """
    if not phasors:
        raise ValueError("at least one phasor is required")
    if signs is None:
        signs = [1] * len(phasors)
    if len(signs) != len(phasors):
        raise ValueError("sign pattern length must match the phasor count")
    if n_samples < 1024:
        raise ValueError("need at least 1024 samples for the stated accuracy")

    terms = [(sign * ph.amplitude, math.radians(ph.phase))
             for sign, ph in zip(signs, phasors)]
    hi = -math.inf
    lo = math.inf
    step = 2.0 * math.pi / n_samples
    for k in range(n_samples):
        theta = k * step
        value = 0.0  # added left to right, as sum() does before Python 3.12
        for amp, shift in terms:
            value += amp * math.cos(theta + shift)
        hi = max(hi, value)
        lo = min(lo, value)
    return (hi - lo) / 2.0
