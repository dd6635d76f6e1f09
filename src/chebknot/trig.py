"""Exact signs of sines at rational multiples of pi.

All crossing-sign logic in this package reduces to signs of sin(p*pi/q)
with integer p, q.  Evaluating these with integer arithmetic removes every
floating-point near-zero hazard from the combinatorial core.  The one
floating-point evaluator of T_n lives here too.
"""

from __future__ import annotations

import math


def chebyshev(n: int, t: float) -> float:
    """T_n(t) = cos(n*acos(t)), with t clamped to [-1, 1]."""
    return math.cos(n * math.acos(max(-1.0, min(1.0, t))))


def sin_sign(p: int, q: int) -> int:
    """Sign of sin(p*pi/q) for integers p and q > 0 (0 when q divides p)."""
    if q <= 0:
        raise ValueError("q must be positive")
    r = p % (2 * q)
    if r % q == 0:
        return 0
    return 1 if r < q else -1

