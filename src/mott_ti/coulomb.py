"""Closed-form Coulomb cross sections for identical particles.

All angles enter in degrees and must lie strictly inside (0, 180): the
Rutherford pole at the endpoints is a physical divergence and is rejected
rather than returned as inf.  Cross sections are fm^2/sr for a in fm.

Every Coulomb cross section is one evaluation in S = cos(theta) and
C = sin(theta), a sum of non-negative terms taken once per folded angle
min(theta, 180 - theta): it is never negative and exactly even about 90
degrees, and a value past float range raises DivergenceError.  Three calls
share it: mott_cross_sections, sigma_inc + eps w sigma_int for an identical
pair, which takes eps w once per call; incoherent_cross_sections, sigma_inc
alone (eps w = 0); and the finite-difference kernel below.  check_a and
check_eta bound a and eta for all three.  identical_cross_section makes one
mott_cross_sections call.

Curvature convention: curvature_at_90 is the second derivative of the
cross section with respect to the HALF-angle theta/2, i.e. 4 times
d^2(sigma)/d(theta)^2.  One closed form covers both statistics and both
polarizations, 16 a^2 [3 + eps w (1 - 2 eta^2)] (eps = +1 for bosons, -1
for fermions; w = 1 aligned, 1/(2s+1) unpolarized); its sign classifies
90 degrees as a local minimum (> 0) or maximum (< 0).  Finite differences
serve only as the independent check of that form, through one kernel,
_fd_curvature: one _cross_sections call at the module-level 7-angle stencil
_STENCIL, then second_derivative.  curvature_at_90_fd applies it to one
MottParams; critical_eta_numeric checks eta at its bracket and takes eps w
once per search, then applies it at each eta with no MottParams.
"""

from __future__ import annotations

import math
import sys

from .constants import Record
from .errors import DivergenceError, DomainError
from .numerics import HALF_ANGLE_FACTOR, bisect_root, half_angle_curvature, second_derivative
from .species import Polarization, Spin, Statistics, check_statistics, exchange_weight

# Angle step (degrees) of the finite-difference cross-check curvature_at_90_fd.
CURVATURE_STEP_DEG = 0.25

# Largest accepted eta.  The interference phase 2 eta atanh(cos theta) carries
# a rounding error of a few 1e-16 eta rad, which bounds the cross section's
# error to about 2^-52 (8 + 2 eta) relative: ~4e-13 at eta = 1e3, ~4e-10 at
# 1e6, while beyond ~1e15 the interference term is noise (and eta^2
# overflows past 1e154).
ETA_MAX = 1e6

# Largest accepted a (fm): the curvature 16 a^2 [3 + eps w (1 - 2 eta^2)]
# stays finite up to ETA_MAX while a < ~2.4e147.
A_MAX = 1e147

# Smallest accepted a (fm): a^2/4 stays a normal float, so no cross section
# underflows and sigma/a^2 never divides by 0 (a * a is 0 below ~1.5e-162).
A_MIN = 3e-154

# Degrees to radians, as math.radians multiplies.
_TO_RAD = math.pi / 180.0

# The 7 angles 90 + k h, h = CURVATURE_STEP_DEG/2, at which
# numerics.second_derivative reads f: the stencil of _fd_curvature.
_STENCIL = tuple(90.0 + k * (CURVATURE_STEP_DEG / 2.0) for k in (-4, -2, -1, 0, 1, 2, 4))

# Smallest normal float: a C^2 below it puts sigma past float range (see
# mott_cross_sections).
_TINY = sys.float_info.min


class MottParams(Record):
    """Inputs of the closed-form Coulomb curves."""

    __slots__ = ("a", "eta", "spin", "polarization")

    def __init__(
        self,
        a: float,    # fm, half closest-approach distance
        eta: float,  # Sommerfeld parameter
        spin: Spin,
        polarization: Polarization = Polarization.UNPOLARIZED,
    ) -> None:
        check_eta(eta)
        check_a(a)
        self._store(a, eta, spin, polarization)


def check_a(a: float) -> float:
    """`a` itself if it lies in [A_MIN, A_MAX] fm; DomainError otherwise."""
    if not A_MIN <= a <= A_MAX:  # also false for nan
        raise DomainError(f"a must lie in [{A_MIN:g}, {A_MAX:g}] fm, got {a}")
    return a


def check_eta(eta: float) -> float:
    """`eta` itself if it lies in (0, ETA_MAX]; DomainError otherwise."""
    if not 0.0 < eta <= ETA_MAX:  # also false for nan
        raise DomainError(f"eta must lie in (0, {ETA_MAX:g}], got {eta}")
    return eta


def _pole(theta_deg: float) -> DivergenceError:
    return DivergenceError(f"theta = {theta_deg} deg: Coulomb cross section diverges at 0/180")


def _overflow(theta_deg: float, a: float) -> DivergenceError:
    return DivergenceError(
        f"theta = {theta_deg} deg, a = {a} fm: Coulomb cross section overflows"
    )


def _cross_sections(thetas: tuple[float, ...], a: float, eta: float,
                    eps_w: float) -> tuple[float, ...]:
    """The one evaluation behind the two public calls below; see mott_cross_sections.

    `a` and `eta` are checked by the caller; eps_w = 0 gives sigma_inc and
    takes no interference phase.
    """
    a2_2 = 2.0 * a * a
    if eps_w < 0.0:
        base, weight, trig = 1.0 + eps_w, -2.0 * eps_w, math.sin
    else:
        base, weight, trig = 1.0 - eps_w, 2.0 * eps_w, math.cos
    sin, cos = math.sin, math.cos
    sigma = {}
    values = []
    for theta in thetas:
        if not 0.0 < theta < 180.0:
            raise _pole(theta)
        m = theta if theta < 90.0 else 180.0 - theta
        value = sigma.get(m)
        if value is None:
            if m < 45.0:
                c, s = sin(m * _TO_RAD), cos(m * _TO_RAD)
            else:
                c, s = cos((90.0 - m) * _TO_RAD), sin((90.0 - m) * _TO_RAD)
            c2 = c * c
            if c2 < _TINY:  # sigma > 4 a^2 S^2 / C^4 is past float range for a >= A_MIN
                raise _overflow(theta, a)
            g = base
            if weight:  # 0 for sigma_inc alone, where base + 0 t^2 is base itself
                t = trig(eta * (math.atanh(s) if s < 0.5 else math.log((1.0 + s) / c)))
                g += weight * t * t
            value = sigma[m] = a2_2 / c2 * (2.0 * s * s / c2 + g)
            if value == math.inf:
                raise _overflow(theta, a)
        values.append(value)
    return tuple(values)


def mott_cross_sections(thetas: tuple[float, ...], params: MottParams) -> tuple[float, ...]:
    """Symmetrized Coulomb cross sections of an identical pair at `thetas` (degrees), fm^2/sr.

    sigma_inc + eps w sigma_int in S = cos(theta) and C = sin(theta):

        sigma = (2 a^2 / C^2) [2 S^2 / C^2 + g],  g = 1 + eps w cos(2 eta atanh S),

    with g written as a sum of non-negative terms, (1 + eps w) +
    2 |eps w| sin^2(eta atanh S) for eps w < 0 and (1 - eps w) +
    2 eps w cos^2(eta atanh S) otherwise: nothing cancels, and no value is
    negative.  a^2, eps w and the branch of g are taken once per curve, and
    the form runs once per distinct folded angle m = min(theta, 180 - theta)
    (180 - theta is exact), so sigma(theta) and sigma(180 - theta) are the
    same float.  C and S are sin and cos of m below 45 degrees and cos and
    sin of 90 - m (exact) above, so S is exactly 0 at 90 degrees; atanh S
    is taken as ln((1 + S)/C) from S = 0.5 on.  Against 60-digit values the
    error relative to sigma is at most about 2^-52 (8 + 2 eta); see ETA_MAX.
    The first angle in grid order at a pole, or whose value is past float
    range (C^2 below the normal floats included), raises DivergenceError.
    """
    eps_w = exchange_weight(params.spin, params.polarization)
    return _cross_sections(thetas, params.a, params.eta, eps_w)


def identical_cross_section(theta_deg: float, params: MottParams) -> float:
    """Symmetrized Coulomb cross section at one angle, fm^2/sr; see mott_cross_sections."""
    return mott_cross_sections((theta_deg,), params)[0]


def incoherent_cross_sections(thetas: tuple[float, ...], a: float) -> tuple[float, ...]:
    """Distinguishable-particle (incoherent) cross sections at `thetas` (degrees), fm^2/sr.

    The form of mott_cross_sections at eps w = 0, where g = 1 exactly:
    sigma_inc = 2 a^2 (1 + S^2) / C^4, the (a^2/4)[sin^-4 + cos^-4] of the
    half angle.  eta does not enter; `a` must lie in [A_MIN, A_MAX].
    """
    return _cross_sections(thetas, check_a(a), 0.0, 0.0)


def _fd_curvature(a: float, eta: float, eps_w: float) -> float:
    """The one finite-difference kernel: curvature_at_90_fd at a, eta and eps w.

    `a` and `eta` are checked by the caller.  One _cross_sections call takes
    the 7 stencil angles _STENCIL; second_derivative reads its values back.
    """
    sigma = dict(zip(_STENCIL, _cross_sections(_STENCIL, a, eta, eps_w)))
    return half_angle_curvature(second_derivative(sigma.__getitem__, 90.0, CURVATURE_STEP_DEG))


def curvature_at_90_fd(params: MottParams) -> float:
    """Half-angle curvature at 90 deg from finite differences of the cross section.

    The independent check of curvature_at_90; production paths use the
    closed form.  It is the one kernel _fd_curvature at the params' a, eta
    and eps w: the 7 stencil angles 90 + k h of second_derivative (h =
    CURVATURE_STEP_DEG/2, module-level in _STENCIL) go through one
    _cross_sections call, whose fold makes 90 - k h and 90 + k h one value:
    4 of the 7 are computed, each with the bits of identical_cross_section.
    """
    eps_w = exchange_weight(params.spin, params.polarization)
    return _fd_curvature(params.a, params.eta, eps_w)


def curvature_at_90(params: MottParams, statistics: Statistics | None = None) -> float:
    """Half-angle curvature of the cross section at 90 deg, 16 a^2 [3 + eps w (1 - 2 eta^2)].

    HALF_ANGLE_FACTOR times the curvature in theta at 90 deg: 12 a^2 from the
    incoherent sum and 4 a^2 (1 - 2 eta^2) from the interference term, which
    combine with the sign eps and weight w of the cross sections, both from the
    spin.  `statistics` is optional and only checked: a mismatch raises DomainError.
    """
    check_statistics(params.spin, statistics)
    a2 = params.a**2
    eps_w = exchange_weight(params.spin, params.polarization)
    return HALF_ANGLE_FACTOR * (12.0 * a2 + eps_w * (4.0 * a2 * (1.0 - 2.0 * params.eta**2)))


def critical_eta_numeric(spin: Spin, bracket: tuple[float, float] = (0.5, 4.0)) -> float:
    """Locate the critical eta as a root of the finite-difference curvature.

    Deliberately ignores the closed forms for both the curvature and the
    critical value, so it cross-checks the interference formula end to end.
    The bracket must satisfy 0 < lo < hi <= ETA_MAX (DomainError otherwise);
    eta is checked there, at the bracket, and eps w is taken once per search.
    numerics.bisect_root searches the bracket, and each of its iterates lies
    strictly inside it, so every evaluation is the one kernel _fd_curvature
    at a = 1 (the root does not depend on a), with no per-point MottParams:
    the bits of curvature_at_90_fd at each eta.  Near the root the
    finite-difference curvature is noise (about 1e-11 in eta), and the
    finder's evaluation cap ends a search that noise keeps open.  Raises
    RootNotFoundError when the bracket contains no transition (always the
    case for fermions).
    """
    lo, hi = bracket
    if not check_eta(lo) < check_eta(hi):
        raise DomainError(f"invalid eta bracket {bracket}")
    eps_w = exchange_weight(spin, Polarization.UNPOLARIZED)

    def curv(eta: float) -> float:
        return _fd_curvature(1.0, eta, eps_w)

    return bisect_root(curv, lo, hi, curv(lo), curv(hi))
