"""Independent verification machinery.

Nothing here reuses solver formulas: the minimizer works on the
distance-sum objective and its derivatives alone, the circle kernel is
plain radical-line arithmetic, and waveform sampling works in the time
domain. The minimizer backs ``verify`` and the synthesis ``synth``; the
circle kernel, which no solver calls, is the tests' reference for the
circle route of :mod:`starsolve.general`.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from random import Random
from typing import TYPE_CHECKING, Sequence

from .errors import ConcentricCircles, NoConvergence
from .geometry import (
    PhaseAngles,
    PlaneVector,
    StarSolution,
    TriangleEdges,
    closure_residuals,
    point_from_distances,
)

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
    residuals = closure_residuals(edges.as_tuple(), spec.angles, spec.distances)
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
        total = sum(draws)
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


def minimize_distance_sum(t: TriangleEdges, max_iter: int = 10_000) -> MinimizationResult:
    """Minimize f(X) = |XA| + |XB| + |XC| (Fermat-Weber) to a certified gap.

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

    It stops when |grad f(X)| * max_k |X - V_k| <= GAP_CERTIFICATE * f(X).
    By convexity f(X) - f(X*) <= grad f(X) . (X - X*), and X* lies in the
    triangle, so this bounds the relative gap of ``value`` to the minimum.
    ``converged`` is true on every return; :class:`NoConvergence` is raised
    if ``max_iter`` steps do not reach the certificate.

    The sum is homogeneous in the edges, so the search runs on the edges
    divided by 2**e, e the binary exponent of the longest edge (taken here,
    not from the solver's invariants), and the point and value are scaled
    back: no bit changes, and no square under- or overflows at any scale.
    """
    exponent = math.frexp(max(t.a, t.b, t.c))[1]
    edges = (math.ldexp(t.a, -exponent), math.ldexp(t.b, -exponent),
             math.ldexp(t.c, -exponent))
    vc, vb, va = _embed_for_oracle(*edges)
    corners = (va, vb, vc)
    for k, (cx, cy) in enumerate(corners):
        (ux, uy), (vx, vy) = corners[:k] + corners[k + 1:]
        du = math.hypot(cx - ux, cy - uy)
        dv = math.hypot(cx - vx, cy - vy)
        inv_u, inv_v = 1.0 / du, 1.0 / dv
        if math.hypot((ux - cx) * inv_u + (vx - cx) * inv_v,
                      (uy - cy) * inv_u + (vy - cy) * inv_v) <= 1.0:
            return _scaled_back(exponent, cx, cy, du + dv, 0)

    ox, oy = corners[edges.index(max(edges))]
    vertices = [(vx - ox, vy - oy) for vx, vy in corners]
    x = y = 0.0
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
            return _scaled_back(exponent, x + ox, y + oy, fx, iterations)
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


def _scaled_back(exponent: int, x: float, y: float, value: float,
                 iterations: int) -> MinimizationResult:
    point = PlaneVector(math.ldexp(x, exponent), math.ldexp(y, exponent))
    return MinimizationResult(point, math.ldexp(value, exponent), iterations, True)


# =========================================================================
# Circle-circle intersection kernel
# =========================================================================

def circle_intersections(c1x: float, c1y: float, r1: float,
                         c2x: float, c2y: float, r2: float
                         ) -> tuple[tuple[float, float], ...]:
    """Intersection points of two circles, as (x, y) pairs ordered by x then y.

    Returns an empty tuple for separated or nested circles, one point at
    (near-)tangency, two points otherwise. The window around tangency, and
    around coincident centres, is 1e-12 of the radius scale.

    The half-chord height is the altitude of the triangle with sides
    (d, r1, r2), evaluated as a factored product; the naive
    sqrt(r1^2 - along^2) form loses everything to cancellation when both
    radii dwarf the center distance gap.
    """
    if r1 <= 0.0 or r2 <= 0.0:
        raise ValueError(f"radii must be positive, got {r1} and {r2}")
    eps = 1e-12 * (r1 + r2)
    d = math.hypot(c1x - c2x, c1y - c2y)
    if d <= eps:
        raise ConcentricCircles(
            f"centers coincide within {eps:g}; intersection undefined")

    f_sep = r1 + r2 - d            # negative: circles separated
    f_nest = d - abs(r1 - r2)      # negative: one circle inside the other
    if f_sep < -eps or f_nest < -eps:
        return ()
    pair_sep = (d + r1 + r2) * max(f_sep, 0.0)
    pair_nest = (d + r1 - r2) * (d - r1 + r2)
    h = math.sqrt(pair_sep * max(pair_nest, 0.0)) / (2.0 * d)

    along = (d * d + (r1 - r2) * (r1 + r2)) / (2.0 * d)
    inv_d = 1.0 / d
    ux, uy = (c2x - c1x) * inv_d, (c2y - c1y) * inv_d   # unit axis c1 -> c2
    bx, by = c1x + ux * along, c1y + uy * along
    if h <= eps:
        return ((bx, by),)
    ox, oy = -uy * h, ux * h                             # h * perp(axis)
    first, second = (bx + ox, by + oy), (bx - ox, by - oy)
    return (second, first) if second < first else (first, second)


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
