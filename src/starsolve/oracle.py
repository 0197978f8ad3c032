"""Independent verification machinery.

Nothing here reuses solver formulas: the minimizer works on the
distance-sum objective and its derivatives alone, and waveform sampling
works in the time domain. The minimizer backs ``verify`` and the
synthesis ``synth``.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from random import Random
from typing import TYPE_CHECKING, Sequence

from .errors import NoConvergence
from .geometry import (
    PhaseAngles,
    PlaneVector,
    StarSolution,
    TriangleEdges,
    point_from_distances,
)
from .kernel import closure_residuals, point_position

if TYPE_CHECKING:  # pragma: no cover - type-only, avoids a runtime cycle
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
    """Edges of the triangle whose interior point realizes the planted spec.

    Each edge follows from the law of cosines across its viewing angle:
    a^2 = b'^2 + c'^2 - 2 b' c' cos(psi_a), cyclically. The returned
    expected solution carries the planted distances and the corresponding
    canonical-frame point.
    """
    a_p, b_p, c_p = spec.distances
    cos_a = math.cos(math.radians(spec.angles.psi_a))
    cos_b = math.cos(math.radians(spec.angles.psi_b))
    cos_c = math.cos(math.radians(spec.angles.psi_c))
    a = math.sqrt(b_p * b_p + c_p * c_p - 2.0 * b_p * c_p * cos_a)
    b = math.sqrt(c_p * c_p + a_p * a_p - 2.0 * c_p * a_p * cos_b)
    c = math.sqrt(a_p * a_p + b_p * b_p - 2.0 * a_p * b_p * cos_c)
    edges = TriangleEdges(a, b, c)
    point = point_from_distances(edges, a_p, b_p, c_p)
    residuals = closure_residuals(edges.as_tuple(), spec.angles.cos, spec.distances)
    return edges, StarSolution(a_p, b_p, c_p, point, residuals)


def random_synthesis_spec(rng: Random, seed: int = 0,
                          symmetric: bool = False) -> SynthesisSpec:
    """Draw a planted instance: distances log-uniform in [0.1, 10], angles
    uniform on the 360-deg simplex, rejected until each lies in (60, 180).

    Only ``rng.random()`` is consumed, keeping draws stable across Python
    versions. With ``symmetric=True`` all angles are fixed at 120 deg.
    """
    log_lo, log_hi = math.log(0.1), math.log(10.0)
    distances = tuple(
        math.exp(log_lo + (log_hi - log_lo) * rng.random()) for _ in range(3)
    )
    if symmetric:
        return SynthesisSpec(distances, PhaseAngles(120.0, 120.0, 120.0), seed)
    while True:
        # Three unit-rate exponentials normalized to the simplex.
        draws = [-math.log(1.0 - rng.random()) for _ in range(3)]
        # Two plain additions: sum() is compensated from Python 3.12 on.
        total = draws[0] + draws[1] + draws[2]
        psis = [360.0 * d / total for d in draws]
        if all(60.0 < psi < 180.0 for psi in psis):
            psi_a, psi_b = psis[0], psis[1]
            return SynthesisSpec(
                distances, PhaseAngles(psi_a, psi_b, 360.0 - psi_a - psi_b), seed
            )


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

    A's height is twice the area over a, from Kahan's sorted-edge product
    (x >= y >= z): b^2 - ax^2 would cancel on a needle whose short edge is c.
    """
    ax = (a * a + b * b - c * c) / (2.0 * a)
    x, y, z = sorted((a, b, c), reverse=True)
    radicand = (x + (y + z)) * (z - (x - y)) * (z + (x - y)) * (x + (y - z))
    return ((0.0, 0.0), (a, 0.0), (ax, math.sqrt(max(radicand, 0.0)) / (2.0 * a)))


def _distance_sum(x: float, y: float, vertices: list[tuple[float, float]]) -> float:
    return sum(math.hypot(x - vx, y - vy) for vx, vy in vertices)


def minimize_distance_sum(t: TriangleEdges, max_iter: int = 10_000,
                          start: tuple[float, float] | None = None
                          ) -> MinimizationResult:
    """Minimize f(X) = |XA| + |XB| + |XC| (Fermat-Weber) to a certified gap:
    :func:`distance_sum_minimum` on the edges of ``t``, with its point as
    a :class:`~starsolve.geometry.PlaneVector`. ``converged`` is true on
    every return; :class:`NoConvergence` is raised if ``max_iter`` steps
    do not reach the certificate."""
    x, y, value, iterations = distance_sum_minimum(t.a, t.b, t.c, max_iter, start)
    return MinimizationResult(PlaneVector(x, y), value, iterations, True)


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
    interior angle >= 120 deg); it is returned with 0 iterations.

    Otherwise the iteration starts on the vertex opposite the longest edge,
    the one nearest the minimum, moved to the origin where floats are
    densest: near 120 deg the minimum sits within a hair of it. Each step
    is the Newton step of the 2x2 gradient and Hessian of f if it does not
    raise f beyond rounding, else Weiszfeld's step to the inverse-distance-
    weighted mean of the vertices (Tohoku Math. J. 43, 1937). On a vertex
    the Vardi-Zhang step (PNAS 97(4), 2000) moves (1 - 1/r) of the way to
    the weighted mean of the other two, r > 1 being the length of the sum
    of unit vectors toward them. ``iterations`` counts these steps.

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
    the certificate.

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
    vc, vb, va = _embed_for_oracle(*edges)
    corners = (va, vb, vc)
    for k, (cx, cy) in enumerate(corners):
        (ux, uy), (vx, vy) = corners[:k] + corners[k + 1:]
        du = math.hypot(cx - ux, cy - uy)
        dv = math.hypot(cx - vx, cy - vy)
        inv_u, inv_v = 1.0 / du, 1.0 / dv
        if math.hypot((ux - cx) * inv_u + (vx - cx) * inv_v,
                      (uy - cy) * inv_u + (vy - cy) * inv_v) <= 1.0:
            return (math.ldexp(cx, exponent), math.ldexp(cy, exponent),
                    math.ldexp(du + dv, exponent), 0)

    ox, oy = corners[edges.index(max(edges))]
    vertices = [(vx - ox, vy - oy) for vx, vy in corners]
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
    fx = _distance_sum(x, y, vertices)
    for iterations in range(max_iter + 1):
        # Over the vertices X is not on: the unit vectors toward them (their
        # sum is minus the gradient), the Hessian, and Weiszfeld's weights.
        px = py = hxx = hxy = hyy = wsum = wx = wy = farthest = 0.0
        on_vertex = False
        for vx, vy in vertices:
            d = math.hypot(vx - x, vy - y)
            if d == 0.0:
                on_vertex = True
                continue
            ux, uy = (vx - x) / d, (vy - y) / d
            px += ux
            py += uy
            hxx += (1.0 - ux * ux) / d
            hxy -= ux * uy / d
            hyy += (1.0 - uy * uy) / d
            wsum += 1.0 / d
            wx += vx / d
            wy += vy / d
            farthest = max(farthest, d)
        pull = math.hypot(px, py)
        if not on_vertex and pull * farthest <= GAP_CERTIFICATE * fx:
            return (math.ldexp(x + ox, exponent), math.ldexp(y + oy, exponent),
                    math.ldexp(fx, exponent), iterations)
        if iterations == max_iter:
            break

        det = hxx * hyy - hxy * hxy
        if not on_vertex and det > 0.0:
            nx = x + (hyy * px - hxy * py) / det
            ny = y + (hxx * py - hxy * px) / det
            fn = _distance_sum(nx, ny, vertices)
            if fn <= fx * (1.0 + _ROUNDING_SLACK):
                x, y, fx = nx, ny, fn
                continue
        keep = 1.0 / max(pull, 1.0) if on_vertex else 0.0
        x = (1.0 - keep) * wx / wsum + keep * x
        y = (1.0 - keep) * wy / wsum + keep * y
        fx = _distance_sum(x, y, vertices)

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
        value = sum(amp * math.cos(theta + shift) for amp, shift in terms)
        hi = max(hi, value)
        lo = min(lo, value)
    return (hi - lo) / 2.0
