"""Independent verification machinery.

Nothing here reuses solver formulas: the minimizer works on the
distance-sum objective and its derivatives alone, and waveform sampling
works in the time domain. The minimizer checks the 120-deg solvers for
library callers and the acceptance tests, and the synthesis backs
``synth``. Both run on the plain-float entries of
:mod:`starsolve.oracle_kernel`, which ``synth`` calls directly; the
functions here wrap them in value types for library callers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

from .geometry import (
    PhaseAngles,
    PlaneVector,
    StarSolution,
    TriangleEdges,
    point_from_distances,
)
from .oracle_kernel import distance_sum_minimum, planted_draw, planted_edges

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
    the corresponding canonical-frame point and the closure residuals."""
    edges, residuals = planted_edges(spec.distances, spec.angles.as_tuple())
    t = TriangleEdges(*edges)
    a_p, b_p, c_p = spec.distances
    return t, StarSolution(a_p, b_p, c_p, point_from_distances(t, a_p, b_p, c_p),
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
# Minimization of the vertex-distance sum
# =========================================================================

@dataclass(frozen=True)
class MinimizationResult:
    point: PlaneVector
    value: float
    iterations: int
    converged: bool


def minimize_distance_sum(t: TriangleEdges, max_iter: int = 10_000,
                          start: tuple[float, float] | None = None
                          ) -> MinimizationResult:
    """Minimize f(X) = |XA| + |XB| + |XC| (Fermat-Weber) to a certified gap:
    :func:`~starsolve.oracle_kernel.distance_sum_minimum` on the edges of
    ``t``, with its point as a :class:`~starsolve.geometry.PlaneVector`.
    ``converged`` is true on every return; :class:`NoConvergence` is
    raised if ``max_iter`` steps do not reach the certificate."""
    x, y, value, iterations = distance_sum_minimum(t.a, t.b, t.c, max_iter, start)
    return MinimizationResult(PlaneVector(x, y), value, iterations, True)


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
