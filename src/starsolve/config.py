"""Tolerance constants.

All tolerances are relative to a problem scale unless the name says
absolute. The solvers use these values as they are; only the CLI residual
tolerance can be set, by flag or environment variable. Voltages are
carried in IEEE-754 binary64, which holds far more precision than any
voltage measurement, so the defaults are chosen well below measurement
noise but above accumulated rounding of the short formula pipelines.
"""

from __future__ import annotations

import math
import os

# Angle-sum and angle-comparison slack, in degrees.
EPS_ANG_DEG = 1e-9

# Clamp window for the sign-carrying product in the stable Heron evaluation:
# values in [-EPS_TRI_COEFF * (a+b+c)^2, 0] are treated as exactly collinear.
EPS_TRI_COEFF = 1e-12

# Default relative closure-residual tolerance for solution acceptance.
RESIDUAL_TOL = 1e-8

# Interior angles at or above this (minus EPS_ANG_DEG) have no interior
# three-ray point; the solvers refuse rather than guess.
ANGLE_LIMIT_DEG = 120.0

# Environment variable that overrides RESIDUAL_TOL for the CLI.
TOLERANCE_ENV_VAR = "STAR_SOLVE_TOLERANCE"


def residual_tolerance(override: float | None = None) -> float:
    """Resolve the residual tolerance: explicit value, else env var, else default.

    Raises ValueError unless the result is finite and positive: a tolerance
    of zero, below zero or NaN would mark every solution infeasible.
    """
    if override is not None:
        value, source = float(override), "tolerance"
    else:
        raw = os.environ.get(TOLERANCE_ENV_VAR)
        if raw is None:
            return RESIDUAL_TOL
        try:
            value, source = float(raw), TOLERANCE_ENV_VAR
        except ValueError as exc:
            raise ValueError(
                f"{TOLERANCE_ENV_VAR} must be a number, got {raw!r}"
            ) from exc
    if not (math.isfinite(value) and value > 0.0):
        raise ValueError(f"{source} must be finite and positive, got {value!r}")
    return value
