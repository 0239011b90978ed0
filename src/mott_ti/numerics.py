"""Small numerical helpers: finite-difference curvature and bisection."""

from __future__ import annotations

import math
from typing import Callable

from .errors import RootNotFoundError

# Most points an angle grid or a critical-kR scan may have; both check the
# count before building or evaluating anything.
MAX_POINTS = 100_000


def second_derivative(f: Callable[[float], float], x0: float, step: float) -> float:
    """Second derivative by the 5-point central stencil with Richardson extrapolation.

    The stencil is evaluated at step and step/2 and extrapolated, removing
    the leading O(step^4) error term.
    """

    def stencil(h: float) -> float:  # O(h^4)
        m2, m1, mid, p1, p2 = (f(x0 + k * h) for k in (-2, -1, 0, 1, 2))
        return (-m2 + 16.0 * m1 - 30.0 * mid + 16.0 * p1 - p2) / (12.0 * h * h)

    coarse = stencil(step)
    fine = stencil(step / 2.0)
    return (16.0 * fine - coarse) / 15.0


def half_angle_curvature(d2_per_deg2: float) -> float:
    """Convert d^2(sigma)/d(theta)^2 in per-degree^2 to the half-angle curvature.

    The half-angle convention differentiates with respect to theta/2 in
    radians, which is 4 times d^2(sigma)/d(theta)^2 per radian^2.
    """
    return 4.0 * d2_per_deg2 / math.radians(1.0) ** 2


def bisect_root(f: Callable[[float], float], lo: float, hi: float, xtol: float) -> float:
    """Locate a root of f in [lo, hi] by bisection to absolute xtol.

    Halves the bracket until it is narrower than xtol or its midpoint no
    longer lies strictly inside, so the root is accurate to xtol or to float
    resolution.
    Raises RootNotFoundError when f(lo) and f(hi) do not change sign.
    """
    if not lo < hi:
        raise ValueError(f"invalid bracket [{lo}, {hi}]")
    f_lo = f(lo)
    f_hi = f(hi)
    if f_lo == 0.0:
        return lo
    if f_hi == 0.0:
        return hi
    if (f_lo > 0.0) == (f_hi > 0.0):
        raise RootNotFoundError(f"no sign change in [{lo}, {hi}]")
    while True:
        mid = 0.5 * (lo + hi)
        if hi - lo < xtol or not lo < mid < hi:
            return mid
        f_mid = f(mid)
        if f_mid == 0.0:
            return mid
        if (f_mid > 0.0) == (f_lo > 0.0):
            lo, f_lo = mid, f_mid
        else:
            hi = mid
