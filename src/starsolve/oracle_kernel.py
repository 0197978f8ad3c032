"""``synth``'s plain-float entries: the planted draw and the forward map
from a planted point to the triangle around it.

This module is to :mod:`starsolve.oracle`'s synthesis what
:mod:`starsolve.kernel` is to the solvers: the oracle's value types wrap
these functions, and ``synth`` calls them directly. It imports nothing but
:mod:`math` and :mod:`starsolve.kernel`, so ``synth`` loads no value type,
and not :mod:`random` either: the draw takes the caller's generator. Of
:mod:`starsolve.kernel` it reads the invariants and the residual function,
never a solver formula, so a planted row stays an independent check on
the solvers.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING

from .kernel import Triple, angle_invariants, closure_defects, edge_invariants

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
