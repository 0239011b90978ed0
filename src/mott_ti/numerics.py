"""Small numerical helpers: finite-difference curvature and a bracketing root finder."""

from __future__ import annotations

import math
from collections.abc import Callable

from .errors import RootNotFoundError

# Most points an angle grid or a critical-kR scan may have; both check the
# count before building or evaluating anything.
MAX_POINTS = 100_000

# The half-angle curvature is d^2(sigma)/d(theta/2)^2 = 4 d^2(sigma)/d(theta)^2.
HALF_ANGLE_FACTOR = 4.0

# Most evaluations bisect_root spends inside its bracket.  The searches here
# need at most 43 (critical_eta_numeric on the bracket (1e-6, 1e6), at
# 2s = 88 of the even 2s whose root it holds) and a critical-kR search at
# most 29 (in 6,000 random scans); bisection takes 52 to split a one-binade
# bracket down to its last ulp.
MAX_EVALS = 64


def stencil(x0: float, step: float) -> tuple[float, ...]:
    """The 7 points x0 + k step/2, k = -4, -2, -1, 0, 1, 2, 4, in second_derivative's order."""
    h = step / 2.0
    return (x0 - 4.0 * h, x0 - 2.0 * h, x0 - h, x0, x0 + h, x0 + 2.0 * h, x0 + 4.0 * h)


def second_derivative(values: tuple[float, ...], step: float) -> float:
    """Second derivative by the 5-point central stencil with Richardson extrapolation.

    `values` are f at the 7 points of stencil(x0, step), in its order: the
    stencils at step and at h = step/2 share 3 of their points.
    Extrapolating the two removes the leading O(step^4) error term.
    """
    h = step / 2.0
    m4, m2, m1, mid, p1, p2, p4 = values
    coarse = (-m4 + 16.0 * m2 - 30.0 * mid + 16.0 * p2 - p4) / (12.0 * step * step)
    fine = (-m2 + 16.0 * m1 - 30.0 * mid + 16.0 * p1 - p2) / (12.0 * h * h)
    return (16.0 * fine - coarse) / 15.0


def half_angle_curvature(d2_per_deg2: float) -> float:
    """Convert d^2(sigma)/d(theta)^2 in per-degree^2 to the half-angle curvature.

    The half-angle convention differentiates with respect to theta/2 in
    radians, which is 4 times d^2(sigma)/d(theta)^2 per radian^2.
    """
    return HALF_ANGLE_FACTOR * d2_per_deg2 / math.radians(1.0) ** 2


def bisect_root(
    f: Callable[[float], float], lo: float, hi: float, f_lo: float, f_hi: float
) -> float:
    """Locate a root of f in [lo, hi], given f_lo = f(lo) and f_hi = f(hi).

    Illinois regula falsi (Dowell & Jarratt, BIT 11 (1971) 168): secant
    steps on the bracket, where the value at an end that stays put for a
    second step in a row is halved, and halved again at every further one.
    Every iterate lies strictly inside the bracket: a secant point within
    2 ulps of an end moves 2 ulps in, so the step after the root is met
    crosses it.  One that rounds onto an end (the secant puts the root
    within half an ulp of it) moves 2 ulps in, once per search and only
    while the denominator g_hi - g_lo is finite; a second such point, one
    from an overflowed denominator, and one that is nan, inf or outside
    fall back to the midpoint.  Ends at an exact zero, or at a bracket at
    most 4 ulps wide or after MAX_EVALS evaluations of f (a noisy f) with
    the end of smaller |f|.  End values of very different size cost about
    log2 of their ratio in extra steps, while the halvings balance them.
    Raises RootNotFoundError when f_lo and f_hi do not change sign.
    """
    if not lo < hi:
        raise ValueError(f"invalid bracket [{lo}, {hi}]")
    if f_lo == 0.0:
        return lo
    if f_hi == 0.0:
        return hi
    if (f_lo > 0.0) == (f_hi > 0.0):
        raise RootNotFoundError(f"no sign change in [{lo}, {hi}]")
    g_lo, g_hi = f_lo, f_hi  # secant weights: f at each end, halved while it is kept
    kept = None  # the end that stayed put in the last step
    probe = True  # a secant point on an end may still move 2 ulps in once
    for _ in range(MAX_EVALS):
        tiny = 2.0 * math.ulp(max(abs(lo), abs(hi)))
        if hi - lo <= 2.0 * tiny:
            break
        denominator = g_hi - g_lo
        x = hi - g_hi * (hi - lo) / denominator
        if lo < x < hi:
            x = min(max(x, lo + tiny), hi - tiny)
        elif probe and (x == lo or x == hi) and math.isfinite(denominator):
            probe = False
            x = lo + tiny if x == lo else hi - tiny
        else:
            x = 0.5 * (lo + hi)
        f_x = f(x)
        if f_x == 0.0:
            return x
        if (f_x > 0.0) == (f_lo > 0.0):
            lo, f_lo, g_lo = x, f_x, f_x
            if kept == "hi":
                g_hi *= 0.5
            kept = "hi"
        else:
            hi, f_hi, g_hi = x, f_x, f_x
            if kept == "lo":
                g_lo *= 0.5
            kept = "lo"
    return lo if abs(f_lo) <= abs(f_hi) else hi
