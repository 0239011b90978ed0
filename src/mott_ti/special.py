"""Spherical Bessel functions and Legendre polynomials by recurrence."""

from __future__ import annotations

import math

from .errors import DomainError


def spherical_bessel_y_table(l_max: int, x: float) -> list[float]:
    """y_0..y_{l_max} at x > 0.  Upward recurrence (stable for y); -inf once it overflows."""
    if x <= 0.0:
        raise DomainError(f"x must be positive, got {x}")
    if l_max < 0:
        raise DomainError(f"l_max must be >= 0, got {l_max}")
    y = [0.0] * (l_max + 1)
    y[0] = -math.cos(x) / x
    if l_max >= 1:
        y[1] = -math.cos(x) / (x * x) - math.sin(x) / x
    for l in range(1, l_max):
        if math.isinf(y[l]):  # overflowed; going on would give inf - inf = nan
            y[l + 1 :] = [y[l]] * (l_max - l)
            break
        y[l + 1] = (2 * l + 1) / x * y[l] - y[l - 1]
    return y


def spherical_bessel_j_table(l_max: int, x: float) -> list[float]:
    """j_0..j_{l_max} at x > 0.

    Upward recurrence while l_max <= x; otherwise downward (Miller)
    recurrence from a seed well above l_max, normalized against the
    closed-form j_0 (or j_1 when x >= 1 sits near a zero of sin).
    """
    if x <= 0.0:
        raise DomainError(f"x must be positive, got {x}")
    if l_max < 0:
        raise DomainError(f"l_max must be >= 0, got {l_max}")
    j0 = math.sin(x) / x
    j1 = math.sin(x) / (x * x) - math.cos(x) / x
    if l_max == 0:
        return [j0]
    if l_max <= x:
        j = [0.0] * (l_max + 1)
        j[0], j[1] = j0, j1
        for l in range(1, l_max):
            j[l + 1] = (2 * l + 1) / x * j[l] - j[l - 1]
        return j
    # downward: values grow toward l=0, so the recurrence is stable
    start = l_max + max(16, int(2.0 * math.sqrt(l_max)))
    table = [0.0] * (l_max + 1)
    above, here = 0.0, 1e-30
    for l in range(start, -1, -1):
        below = (2 * l + 3) / x * here - above
        above, here = here, below
        if abs(here) > 1e250:
            scale = 1e-250
            above *= scale
            here *= scale
            for i in range(l_max + 1):
                table[i] *= scale
        if l <= l_max:
            table[l] = here
    # normalize on whichever closed form is farther from a zero; below x = 1
    # that is j0, while the closed-form j1 cancels to noise as x -> 0
    if x < 1.0 or abs(j0) >= abs(j1):
        norm = j0 / table[0]
    else:
        norm = j1 / table[1]
    return [t * norm for t in table]


def spherical_bessel_j(l: int, x: float) -> float:
    """Regular spherical Bessel function j_l(x), x > 0."""
    if l < 0:
        raise DomainError(f"l must be >= 0, got {l}")
    return spherical_bessel_j_table(l, x)[l]


def spherical_bessel_y(l: int, x: float) -> float:
    """Irregular spherical Bessel function y_l(x), x > 0."""
    if l < 0:
        raise DomainError(f"l must be >= 0, got {l}")
    return spherical_bessel_y_table(l, x)[l]


def legendre_p_table(l_max: int, x: float) -> list[float]:
    """P_0..P_{l_max} at x in [-1, 1] by the three-term recurrence."""
    if abs(x) > 1.0:
        raise DomainError(f"|x| must be <= 1, got {x}")
    if l_max < 0:
        raise DomainError(f"l_max must be >= 0, got {l_max}")
    p = [0.0] * (l_max + 1)
    p[0] = 1.0
    if l_max >= 1:
        p[1] = x
    for l in range(1, l_max):
        p[l + 1] = ((2 * l + 1) * x * p[l] - l * p[l - 1]) / (l + 1)
    return p


def legendre_p(l: int, x: float) -> float:
    """Legendre polynomial P_l(x), |x| <= 1."""
    if l < 0:
        raise DomainError(f"l must be >= 0, got {l}")
    return legendre_p_table(l, x)[l]
