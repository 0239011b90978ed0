"""Closed-form Coulomb cross sections for identical particles.

All angles enter in degrees and must lie strictly inside (0, 180): the
Rutherford pole at the endpoints is a physical divergence and is rejected
rather than returned as inf.  Cross sections are fm^2/sr for a in fm.
Overflow is checked once per value, by the entry points sigma_inc_coulomb,
sigma_int_coulomb and mott_cross_sections; the terms return +-inf, not raise.

Curvature convention: curvature_at_90 is the second derivative of the
cross section with respect to the HALF-angle theta/2, i.e. 4 times
d^2(sigma)/d(theta)^2.  One closed form covers both statistics and both
polarizations, 16 a^2 [3 + eps w (1 - 2 eta^2)] (eps = +1 for bosons, -1
for fermions; w = 1 aligned, 1/(2s+1) unpolarized); its sign classifies
90 degrees as a local minimum (> 0) or maximum (< 0).  Finite differences
(curvature_at_90_fd) serve only as the independent check of that form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DivergenceError, DomainError
from .numerics import bisect_root, half_angle_curvature, second_derivative
from .species import Polarization, Spin, Statistics, check_statistics, exchange_weight

# Angle step (degrees) of the finite-difference cross-check curvature_at_90_fd.
CURVATURE_STEP_DEG = 0.25

# Largest accepted eta.  The interference phase 2 eta ln tan(theta/2) carries
# a rounding error of a few 1e-16 eta rad: ~1e-9 at 1e6, while beyond ~1e15
# the interference term is noise (and eta^2 overflows past 1e154).
ETA_MAX = 1e6

# Largest accepted a (fm): the curvature 16 a^2 [3 + eps w (1 - 2 eta^2)]
# stays finite up to ETA_MAX while a < ~2.4e147.
A_MAX = 1e147

# Smallest accepted a (fm): a^2/4 stays a normal float, so no cross section
# underflows and sigma/a^2 never divides by 0 (a * a is 0 below ~1.5e-162).
A_MIN = 3e-154


@dataclass(frozen=True)
class MottParams:
    """Inputs of the closed-form Coulomb curves."""

    a: float                  # fm, half closest-approach distance
    eta: float                # Sommerfeld parameter
    spin: Spin
    polarization: Polarization = Polarization.UNPOLARIZED

    def __post_init__(self) -> None:
        check_eta(self.eta)
        if not A_MIN <= self.a <= A_MAX:  # also false for nan
            raise DomainError(f"a must lie in [{A_MIN:g}, {A_MAX:g}] fm, got {self.a}")


def check_eta(eta: float) -> float:
    """`eta` itself if it lies in (0, ETA_MAX]; DomainError otherwise."""
    if not 0.0 < eta <= ETA_MAX:  # also false for nan
        raise DomainError(f"eta must lie in (0, {ETA_MAX:g}], got {eta}")
    return eta


def check_eta_bracket(bracket: tuple[float, float]) -> tuple[float, float]:
    """`bracket` itself if 0 < lo < hi <= ETA_MAX; DomainError otherwise."""
    lo, hi = bracket
    if not check_eta(lo) < check_eta(hi):
        raise DomainError(f"invalid eta bracket {bracket}")
    return lo, hi


def _half_angle(theta_deg: float) -> float:
    if not 0.0 < theta_deg < 180.0:
        raise DivergenceError(
            f"theta = {theta_deg} deg: Coulomb cross section diverges at 0/180"
        )
    return math.radians(theta_deg) / 2.0


def _overflow(theta_deg: float, a: float) -> DivergenceError:
    return DivergenceError(
        f"theta = {theta_deg} deg, a = {a} fm: Coulomb cross section overflows"
    )


def _incoherent(a2_4: float, s: float, c: float) -> float:
    """(a^2/4)[sin^-4 + cos^-4](theta/2) from a2_4 = a^2/4, s = sin(theta/2), c = cos(theta/2)."""
    try:
        return a2_4 * (s**-4 + c**-4)  # inf for a * a beyond float range
    except (OverflowError, ZeroDivisionError):  # s tiny or rounded to 0
        return math.inf


def _interference(a2_2: float, two_eta: float, t: float, s: float, c: float) -> float:
    """(a^2/2) / (sin^2 cos^2)(t) * cos(2 eta ln tan t) from a2_2 = (a^2/4) * 2, t = theta/2."""
    try:
        prefactor = a2_2 / (s**2 * c**2)  # inf next to the pole, or a * a beyond float range
    except ZeroDivisionError:
        return math.inf
    return prefactor * math.cos(two_eta * math.log(math.tan(t)))


def sigma_inc_coulomb(theta_deg: float, a: float) -> float:
    """Incoherent (distinguishable-particle) sum, (a^2/4)[sin^-4 + cos^-4](theta/2)."""
    if not a >= A_MIN:  # also true for nan
        raise DomainError(f"a must be at least {A_MIN:g} fm, got {a}")
    t = _half_angle(theta_deg)
    value = _incoherent(a * a / 4.0, math.sin(t), math.cos(t))
    if not math.isfinite(value):  # next to the pole, or a * a beyond float range
        raise _overflow(theta_deg, a)
    return value


def sigma_int_coulomb(theta_deg: float, a: float, eta: float) -> float:
    """Interference term; may be negative.

    (a^2/4) * [2 / (sin^2(theta/2) cos^2(theta/2))] * cos(2 eta ln tan(theta/2))
    """
    if not a >= A_MIN:  # also true for nan
        raise DomainError(f"a must be at least {A_MIN:g} fm, got {a}")
    check_eta(eta)
    t = _half_angle(theta_deg)
    value = _interference(a * a / 4.0 * 2.0, 2.0 * eta, t, math.sin(t), math.cos(t))
    if not math.isfinite(value):  # next to the pole, or a * a beyond float range
        raise _overflow(theta_deg, a)
    return value


def mott_cross_sections(thetas: tuple[float, ...], params: MottParams) -> tuple[float, ...]:
    """Symmetrized Coulomb cross sections of an identical pair at `thetas` (degrees), fm^2/sr.

    sigma_inc + eps w sigma_int, with a^2/4, 2 eta and eps w taken once per
    curve and sin, cos of theta/2 once per angle; the same operations in the
    same order as sigma_inc_coulomb + exchange_weight * sigma_int_coulomb,
    so every value has their bits.  It checks each value once, where it is
    appended: an overflowing term or sum raises DivergenceError instead.
    """
    a = params.a
    a2_4 = a * a / 4.0
    a2_2 = a2_4 * 2.0
    two_eta = 2.0 * params.eta
    eps_w = exchange_weight(params.spin, params.polarization)
    inf = math.inf
    values = []
    for theta in thetas:
        t = _half_angle(theta)
        s, c = math.sin(t), math.cos(t)
        value = _incoherent(a2_4, s, c) + eps_w * _interference(a2_2, two_eta, t, s, c)
        if not -inf < value < inf:  # a term or their sum past float range; also nan
            raise _overflow(theta, a)
        values.append(value)
    return tuple(values)


def identical_cross_section(theta_deg: float, params: MottParams) -> float:
    """Symmetrized Coulomb cross section at one angle, fm^2/sr; see mott_cross_sections."""
    return mott_cross_sections((theta_deg,), params)[0]


def curvature_at_90_fd(params: MottParams) -> float:
    """Half-angle curvature at 90 deg from finite differences of the cross section.

    The independent check of curvature_at_90; production paths use the
    closed form.
    """

    def f(theta_deg: float) -> float:
        return identical_cross_section(theta_deg, params)

    return half_angle_curvature(second_derivative(f, 90.0, CURVATURE_STEP_DEG))


def curvature_at_90(params: MottParams, statistics: Statistics) -> float:
    """Half-angle curvature of the cross section at 90 deg, 16 a^2 [3 + eps w (1 - 2 eta^2)].

    At 90 deg the incoherent sum has half-angle curvature 48 a^2 and the
    interference term 16 a^2 (1 - 2 eta^2); they combine with the same
    sign eps and weight w as the cross sections themselves.  `statistics`
    must match the spin; the sign itself comes from the spin.
    """
    check_statistics(params.spin, statistics)
    a2 = params.a**2
    eps_w = exchange_weight(params.spin, params.polarization)
    return 48.0 * a2 + eps_w * (16.0 * a2 * (1.0 - 2.0 * params.eta**2))


def critical_eta_numeric(spin: Spin, bracket: tuple[float, float] = (0.5, 4.0)) -> float:
    """Locate the critical eta as a root of the finite-difference curvature.

    Deliberately ignores the closed forms for both the curvature and the
    critical value, so it cross-checks the interference formula end to end.
    numerics.bisect_root searches the bracket; near the root the
    finite-difference curvature is noise (about 1e-11 in eta), and the
    finder's evaluation cap ends a search that noise keeps open.
    Raises RootNotFoundError when the bracket contains no transition
    (always the case for fermions).
    """
    lo, hi = check_eta_bracket(bracket)

    def curv(eta: float) -> float:
        return curvature_at_90_fd(MottParams(a=1.0, eta=eta, spin=spin))

    return bisect_root(curv, lo, hi, curv(lo), curv(hi))
