"""Gamma function with its domain checked.

The discrete fractional operators only ever need gamma on (0, 2]
(weights involve gamma(1-alpha), gamma(2-alpha), gamma(beta) and
gamma(beta+1) with 0 < alpha, beta <= 1).
"""

import math


def gamma(x: float) -> float:
    """Euler gamma function for real x > 0."""
    if not math.isfinite(x) or x <= 0.0:
        raise ValueError(f"gamma requires a finite positive argument, got {x}")
    return math.gamma(x)
