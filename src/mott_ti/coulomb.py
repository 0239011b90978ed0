"""Closed-form Coulomb cross sections for identical particles.

All angles enter in degrees and must lie strictly inside (0, 180): the
Rutherford pole at the endpoints is a physical divergence and is rejected
rather than returned as inf.  Cross sections are fm^2/sr for a in fm.

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
from .species import Polarization, Spin, Statistics, check_statistics, symmetrized_combination

# Angle step (degrees) of the finite-difference cross-check curvature_at_90_fd.
CURVATURE_STEP_DEG = 0.25

# Largest accepted eta.  The interference phase 2 eta ln tan(theta/2) carries
# a rounding error of a few 1e-16 eta rad: ~1e-9 at 1e6, while beyond ~1e15
# the interference term is noise (and eta^2 overflows past 1e154).
ETA_MAX = 1e6

# Largest accepted a (fm): the curvature 16 a^2 [3 + eps w (1 - 2 eta^2)]
# stays finite up to ETA_MAX while a < ~2.4e147.
A_MAX = 1e147


@dataclass(frozen=True)
class MottParams:
    """Inputs of the closed-form Coulomb curves."""

    a: float                  # fm, half closest-approach distance
    eta: float                # Sommerfeld parameter
    spin: Spin
    polarization: Polarization = Polarization.UNPOLARIZED

    def __post_init__(self) -> None:
        if not 0.0 < self.eta <= ETA_MAX:  # also false for nan
            raise DomainError(f"eta must lie in (0, {ETA_MAX:g}], got {self.eta}")
        if not 0.0 < self.a <= A_MAX:  # also false for nan
            raise DomainError(f"a must lie in (0, {A_MAX:g}] fm, got {self.a}")


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


def sigma_inc_coulomb(theta_deg: float, a: float) -> float:
    """Incoherent (distinguishable-particle) sum, (a^2/4)[sin^-4 + cos^-4](theta/2)."""
    if not a > 0.0:  # also true for nan
        raise DomainError(f"a must be positive, got {a}")
    t = _half_angle(theta_deg)
    try:
        value = (a * a / 4.0) * (math.sin(t) ** -4 + math.cos(t) ** -4)
    except (OverflowError, ZeroDivisionError):  # sin(t) tiny or rounded to 0
        value = math.inf
    if value == math.inf:  # next to the pole, or a * a beyond float range
        raise _overflow(theta_deg, a)
    return value


def sigma_int_coulomb(theta_deg: float, a: float, eta: float) -> float:
    """Interference term; may be negative.

    (a^2/4) * [2 / (sin^2(theta/2) cos^2(theta/2))] * cos(2 eta ln tan(theta/2))
    """
    if not a > 0.0:  # also true for nan
        raise DomainError(f"a must be positive, got {a}")
    if not eta > 0.0:  # also true for nan
        raise DomainError(f"eta must be positive, got {eta}")
    t = _half_angle(theta_deg)
    try:
        prefactor = (a * a / 4.0) * 2.0 / (math.sin(t) ** 2 * math.cos(t) ** 2)
    except ZeroDivisionError:
        prefactor = math.inf
    if prefactor == math.inf:  # next to the pole, or a * a beyond float range
        raise _overflow(theta_deg, a)
    return prefactor * math.cos(2.0 * eta * math.log(math.tan(t)))


def identical_cross_section(theta_deg: float, params: MottParams) -> float:
    """Symmetrized Coulomb cross section of an identical pair, fm^2/sr."""
    inc = sigma_inc_coulomb(theta_deg, params.a)
    intf = sigma_int_coulomb(theta_deg, params.a, params.eta)
    return symmetrized_combination(inc, intf, params.spin, params.polarization)


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
    return symmetrized_combination(
        48.0 * a2,
        16.0 * a2 * (1.0 - 2.0 * params.eta**2),
        params.spin,
        params.polarization,
    )


def critical_eta(
    spin: Spin,
    polarization: Polarization = Polarization.UNPOLARIZED,
) -> float:
    """Critical Sommerfeld parameter at which the boson 90 deg curvature vanishes.

    eta_C^2 = (1 + 3/w)/2: sqrt(3s+2) for unpolarized pairs (w = 1/(2s+1))
    and sqrt(2) for aligned pairs (w = 1), whatever the spin.
    """
    if polarization is Polarization.ALIGNED:
        return math.sqrt(2.0)
    return math.sqrt(3.0 * spin.value + 2.0)


def critical_eta_numeric(spin: Spin, bracket: tuple[float, float] = (0.5, 4.0)) -> float:
    """Locate the critical eta as a root of the finite-difference curvature.

    Deliberately ignores the closed forms for both the curvature and the
    critical value, so it cross-checks the interference formula end to end.
    Raises RootNotFoundError when the bracket contains no transition
    (always the case for fermions).
    """
    lo, hi = bracket
    if not 0.0 < lo < hi:
        raise DomainError(f"invalid eta bracket {bracket}")

    def curv(eta: float) -> float:
        return curvature_at_90_fd(MottParams(a=1.0, eta=eta, spin=spin))

    return bisect_root(curv, lo, hi, xtol=1e-8)
