"""Partial-wave hard-sphere scattering for identical particles.

The only physical parameter is kR (R = sum of the two radii).  Phase
shifts follow tan(delta_l) = j_l(kR)/y_l(kR); cross sections are reported
in units of R^2, i.e. with R = 1 and k = kR.

The 90 deg curvature is exact: with x = cos(theta), f and its theta
derivatives at 90 deg are partial-wave sums over P_l(0), P_l'(0) =
l P_{l-1}(0) and P_l''(0) = -l(l+1) P_l(0) (DLMF 14.10, 18.9), so no
finite differences enter the critical-kR scan.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import lru_cache

from .errors import DomainError
from .numerics import bisect_root
from .species import Polarization, Spin, Statistics, check_statistics, symmetrized_combination
from .special import legendre_p_table, spherical_bessel_j_table, spherical_bessel_y_table

DEFAULT_TRUNCATION_TOL = 1e-12
AUTO_L_MARGIN = 15  # phase shifts decay super-exponentially for l > kR


@dataclass(frozen=True)
class PhaseShiftSet:
    """Hard-sphere phase shifts delta_0..delta_{l_max} (radians) at fixed kR."""

    kR: float
    l_max: int
    deltas: tuple[float, ...]

    def __post_init__(self) -> None:
        if self.kR <= 0.0:
            raise DomainError(f"kR must be positive, got {self.kR}")
        if len(self.deltas) != self.l_max + 1:
            raise DomainError("deltas length must be l_max + 1")


@dataclass(frozen=True)
class HardSphereParams:
    kR: float
    spin: Spin
    statistics: Statistics
    polarization: Polarization = Polarization.UNPOLARIZED
    l_max: int | None = None          # None = auto-truncate
    truncation_tol: float = DEFAULT_TRUNCATION_TOL

    def __post_init__(self) -> None:
        if not (math.isfinite(self.kR) and self.kR > 0.0):
            raise DomainError(f"kR must be positive and finite, got {self.kR}")
        if not (math.isfinite(self.truncation_tol) and self.truncation_tol > 0.0):
            raise DomainError("truncation_tol must be positive and finite")
        check_statistics(self.spin, self.statistics)


@lru_cache(maxsize=512)
def hard_sphere_phase_shifts(
    kR: float,
    l_max: int | None = None,
    tol: float = DEFAULT_TRUNCATION_TOL,
) -> PhaseShiftSet:
    """Phase shifts delta_l = atan2(j_l, y_l) at x = kR, folded to (-pi/2, pi/2].

    delta_0 is set to -kR exactly (its closed form; shifts only matter
    mod pi in observables).  With l_max=None the ladder stops at the first
    l > kR where |sin delta_l| < tol; an explicit l_max disables that
    truncation so convergence can be probed.
    """
    if kR <= 0.0:
        raise DomainError(f"kR must be positive, got {kR}")
    cap = l_max if l_max is not None else math.ceil(kR) + AUTO_L_MARGIN
    j = spherical_bessel_j_table(cap, kR)
    y = spherical_bessel_y_table(cap, kR)
    deltas = [-kR]
    for l in range(1, cap + 1):
        d = math.atan2(j[l], y[l])
        if d > math.pi / 2.0:
            d -= math.pi
        elif d <= -math.pi / 2.0:
            d += math.pi
        deltas.append(d)
        if l_max is None and l > kR and abs(math.sin(d)) < tol:
            break
    return PhaseShiftSet(kR=kR, l_max=len(deltas) - 1, deltas=tuple(deltas))


def hs_amplitude(theta_deg: float, shifts: PhaseShiftSet, k: float = 1.0) -> complex:
    """Partial-wave amplitude f(theta) = (1/k) sum (2l+1) e^{i d_l} sin(d_l) P_l(cos theta).

    Endpoints are allowed (no Coulomb pole).  With k=1 the returned value
    is the dimensionless k*f.
    """
    if not 0.0 <= theta_deg <= 180.0:
        raise DomainError(f"theta must be in [0, 180], got {theta_deg}")
    p = legendre_p_table(shifts.l_max, math.cos(math.radians(theta_deg)))
    total = 0.0 + 0.0j
    for l, d in enumerate(shifts.deltas):
        total += (2 * l + 1) * cmath.exp(1j * d) * math.sin(d) * p[l]
    return total / k


def hs_total_cross_section(shifts: PhaseShiftSet, k: float) -> float:
    """sigma_total = (4 pi / k^2) sum (2l+1) sin^2(delta_l)."""
    return (
        4.0
        * math.pi
        / (k * k)
        * sum((2 * l + 1) * math.sin(d) ** 2 for l, d in enumerate(shifts.deltas))
    )


def _shifts_for(params: HardSphereParams) -> PhaseShiftSet:
    return hard_sphere_phase_shifts(params.kR, params.l_max, params.truncation_tol)


def hs_identical_cross_section(theta_deg: float, params: HardSphereParams) -> float:
    """Symmetrized hard-sphere cross section in units of R^2.

    Aligned pairs are evaluated as |f(theta) +- f(180-theta)|^2 directly,
    so the fermion zero at 90 degrees is exact; the unpolarized average
    combines the incoherent and interference terms with weight 1/(2s+1).
    """
    if not 0.0 < theta_deg < 180.0:
        raise DomainError(f"theta must be in (0, 180), got {theta_deg}")
    shifts = _shifts_for(params)
    k = params.kR  # R = 1
    f1 = hs_amplitude(theta_deg, shifts, k)
    f2 = hs_amplitude(180.0 - theta_deg, shifts, k)
    if params.polarization is Polarization.ALIGNED:
        combined = f1 + f2 if params.statistics is Statistics.BOSON else f1 - f2
        return abs(combined) ** 2
    inc = abs(f1) ** 2 + abs(f2) ** 2
    intf = 2.0 * (f1.conjugate() * f2).real
    return symmetrized_combination(inc, intf, params.spin, params.statistics, params.polarization)


def hs_curvature_at_90(params: HardSphereParams) -> float:
    """Half-angle curvature of the symmetrized cross section at 90 deg (exact).

    Same convention as the Coulomb module, 4 x d^2(sigma)/d(theta)^2.  At
    90 deg f(180 - theta) has the value and second derivative of f(theta)
    and the opposite slope, so the incoherent and interference terms have
    second derivatives 4 (Re f'' f* + |f'|^2) and 4 (Re f'' f* - |f'|^2),
    combined like the cross sections themselves.
    """
    shifts = _shifts_for(params)
    p = legendre_p_table(shifts.l_max, 0.0)
    f = df = d2f = 0.0 + 0.0j  # k f and its x-derivatives at x = 0
    for l, d in enumerate(shifts.deltas):
        c = (2 * l + 1) * cmath.exp(1j * d) * math.sin(d)
        f += c * p[l]
        if l > 0:
            df += c * l * p[l - 1]
        d2f -= c * l * (l + 1) * p[l]
    re_f2f = (d2f * f.conjugate()).real
    slope2 = abs(df) ** 2
    d2 = symmetrized_combination(
        4.0 * (re_f2f + slope2),
        4.0 * (re_f2f - slope2),
        params.spin,
        params.statistics,
        params.polarization,
    )
    return 4.0 * d2 / params.kR**2


def find_critical_kR(
    spin: Spin,
    statistics: Statistics,
    scan: tuple[float, float] = (0.2, 3.0),
    step: float = 0.05,
    polarization: Polarization = Polarization.UNPOLARIZED,
) -> float | None:
    """Smallest kR in `scan` where the 90 deg curvature changes sign, or None.

    Scans on a grid of `step`, then bisects the first bracketing pair to
    1e-6.  Absence of a transition is a valid result, not an error.
    """
    lo, hi = scan
    if not 0.0 < lo < hi <= 10.0:
        raise DomainError(f"scan range must lie within (0, 10], got {scan}")
    if not (math.isfinite(step) and step > 0.0):
        raise DomainError(f"step must be positive and finite, got {step}")

    def curv(kR: float) -> float:
        return hs_curvature_at_90(
            HardSphereParams(kR=kR, spin=spin, statistics=statistics, polarization=polarization)
        )

    x_prev = lo
    f_prev = curv(x_prev)
    x = lo + step
    while x < hi + step / 2.0:
        x = min(x, hi)
        f_here = curv(x)
        if f_prev == 0.0:
            return x_prev
        if (f_prev > 0.0) != (f_here > 0.0):
            return bisect_root(curv, x_prev, x, xtol=1e-6)
        x_prev, f_prev = x, f_here
        if x >= hi:
            break
        x += step
    return None
