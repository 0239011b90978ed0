"""Partial-wave hard-sphere scattering for identical particles.

The only physical parameter is kR (R = sum of the two radii).  Phase
shifts follow tan(delta_l) = j_l(kR)/y_l(kR); cross sections are reported
in units of R^2 and amplitudes in units of R, i.e. with R = 1 and k = kR.
kR must lie in [KR_MIN, KR_MAX]; there the partial-wave ladder always
stops below its cap with finite shifts (see hard_sphere_phase_shifts).

Identical pairs combine f(theta) and f(180 - theta).  As P_l(-x) = (-1)^l P_l(x),
k f is E + O at theta and E - O at 180 - theta, E and O being the even-l
(symmetric channel) and odd-l (antisymmetric channel) partial-wave sums.  A
curve takes the ladder's weights once and makes one pass over the waves per
distinct |x| (_channels), stepping P_l(x) in local variables, two waves at a
time; no row or table of P_l is built.

The 90 deg curvature is exact: with x = cos(theta), f and its theta
derivatives at 90 deg are partial-wave sums over P_l(0), P_l'(0) =
l P_{l-1}(0) and P_l''(0) = -l(l+1) P_l(0) (DLMF 14.10, 18.9), so no
finite differences enter the critical-kR scan.  P_l(0) is 0 at odd l, so
the sums step P_{l+2}(0) = -(l+1) P_l(0)/(l+2) once per even l, the
operations of special's one Legendre recurrence at x = 0, with float
coefficients as in special (same bits), and build no table.  A critical-kR
scan checks its inputs and takes eps w once, then calls the per-kR
curvature per point.  It evaluates no point below its certified bound in
CERTIFIED_BOUNDS.  The curvature is linear in eps w, and in a row (e, b)
interval arithmetic proves it positive on [KR_MIN, b] at eps w = e and at
-1, so at every eps w in between (the certificate tests are named in
find_critical_kR).  A scan that ends at or below its bound returns None
before any point: with the first row's b at 10, the top of the scan
domain, that is every scan of an aligned fermion or of an unpolarized
fermion with 2s <= 7.

There is one phase-shift ladder, the generator _waves: one pass per kR over
one j table (special.spherical_bessel_j_table), with y_l stepped upward in
the same loop, yielding each shift and its weight (2l+1) e^{i delta_l}
sin(delta_l), one sin(delta_l) per wave for the weight and the stop test
alike.  The 90 deg curvature sums its weights as they come and keeps none
of them; a curve keeps them in one tuple, as it passes over them once per
|x|; hard_sphere_phase_shifts collects the ladder into a PhaseShiftSet.
"""

from __future__ import annotations

import cmath
import math
from collections.abc import Iterable, Iterator

from .constants import Record
from .errors import DomainError
from .numerics import HALF_ANGLE_FACTOR, MAX_POINTS, bisect_root
from .species import Polarization, Spin, Statistics, check_statistics, exchange_weight
from .special import spherical_bessel_j_table

TRUNCATION_TOL = 1e-12  # the ladder stops at |sin delta_l| below this times min(1, kR^5/45)
KR_MIN = 1e-6  # smallest accepted kR; the ladder still takes l = 0..3, and far below it y_l overflows
KR_MAX = 1000.0  # largest accepted kR; the ladder then needs about 1060 waves

# Certified bounds of the critical-kR scan: in a row (e, b) the 90 deg
# curvature is positive at every kR in [KR_MIN, b] for every eps w in [-1, e]
# (see find_critical_kR).  Sorted by e, with b falling, so the first row
# that covers eps w is the tightest; the last e is 1, so one row covers
# every preparation.  Each comment names the row's first root.
CERTIFIED_BOUNDS = (
    (-0.125, 10.0),     # none up to 10: aligned fermions, unpolarized 2s <= 7
    (-0.1, 2.46),       # 2.46965: unpolarized 2s = 9
    (0.0, 2.22),        # 2.2328: unpolarized fermions with 2s >= 11
    (1.0 / 9.0, 2.08),  # 2.09002: unpolarized 2s = 8 and bosons with 2s >= 10
    (1.0 / 7.0, 2.05),  # 2.05610: unpolarized 2s = 6
    (0.2, 1.99),        # 1.99969: unpolarized 2s = 4
    (1.0 / 3.0, 1.88),  # 1.88402: unpolarized 2s = 2
    (1.0, 1.44),        # 1.44677: spin 0 and every aligned boson
)


class PhaseShiftSet(Record):
    """Phase shifts delta_0..delta_{l_max} (radians) at fixed kR and the weights of k f."""

    __slots__ = ("kR", "deltas", "weights")

    def __init__(
        self,
        kR: float,
        deltas: tuple[float, ...],
        weights: tuple[complex, ...],  # (2l+1) e^{i d_l} sin d_l
    ) -> None:
        self._store(kR, deltas, weights)

    @property
    def l_max(self) -> int:
        return len(self.deltas) - 1


class HardSphereParams(Record):
    """Hard-sphere curve inputs; `statistics` is optional, only checked, and stored as the spin's."""

    __slots__ = ("kR", "spin", "statistics", "polarization")

    def __init__(
        self,
        kR: float,
        spin: Spin,
        statistics: Statistics | None = None,
        polarization: Polarization = Polarization.UNPOLARIZED,
    ) -> None:
        _check_kR(kR)
        check_statistics(spin, statistics)
        self._store(kR, spin, spin.statistics, polarization)


def _check_kR(kR: float) -> None:
    if not KR_MIN <= kR <= KR_MAX:  # also false for nan
        raise DomainError(f"kR must lie in [{KR_MIN:g}, {KR_MAX:g}], got {kR}")


def hard_sphere_phase_shifts(kR: float) -> PhaseShiftSet:
    """Phase shifts delta_l with tan(delta_l) = j_l(kR)/y_l(kR).

    delta_0 is -kR exactly (its closed form; shifts only matter mod pi in
    observables).  Every other shift is one atan2 that lands in [-pi/2, pi/2]
    with no subtraction of pi, so tiny shifts keep their digits.  The shifts
    and weights are those of the one ladder, _waves: a j table to the cap
    ceil(kR + 8 max(kR, 1)^(1/3)) + 4, with y_l stepped in the same loop.
    The ladder stops at the first l > max(kR, 2) where |sin delta_l| <
    TRUNCATION_TOL min(1, kR^5/45); kR^5/45 is the threshold-law size of
    delta_2 (DLMF 10.52), the leading wave of the 90 deg curvature.  On
    [KR_MIN, KR_MAX] the stop lies at least 5 waves below the cap.  Against
    40-digit mpmath the 90 deg curvature is then within 2e-15 up to kR =
    0.2, where it vanishes like kR^4, and within 1e-12 up to kR = 30,
    relative to the larger of it and its values at eps w = +-1.
    """
    _check_kR(kR)
    deltas, weights = zip(*_waves(kR))
    return PhaseShiftSet(kR=kR, deltas=deltas, weights=weights)


def _waves(kR: float) -> Iterator[tuple[float, complex]]:
    """Yield (delta_l, (2l+1) e^{i delta_l} sin delta_l) for l = 0, 1, ... up to the stop.

    The one phase-shift ladder (see hard_sphere_phase_shifts); kR is checked
    by the caller.  y_l runs upward in the loop, with the operations of
    special.spherical_bessel_y_table in order (same bits), so only the j
    table is built.  On [KR_MIN, KR_MAX] y stays finite up to the cap (about
    1e97 at KR_MIN), so the table's overflow guard is not needed here.
    """
    cap = math.ceil(kR + 8.0 * max(kR, 1.0) ** (1.0 / 3.0)) + 4
    stop, tol = max(kR, 2.0), TRUNCATION_TOL * min(1.0, kR**5 / 45.0)
    j = spherical_bessel_j_table(cap, kR)
    atan2, sin, rect = math.atan2, math.sin, cmath.rect
    yield -kR, rect(sin(-kR), -kR)
    cos_x = math.cos(kR)
    y_prev, yl = -cos_x / kR, -cos_x / (kR * kR) - sin(kR) / kR  # y_0, y_1
    c = 1.0  # 2l + 1
    for l in range(1, cap + 1):
        jl = j[l]
        d = atan2(-jl, -yl) if yl < 0.0 else atan2(jl, yl)
        s = sin(d)
        c += 2.0
        yield d, rect(c * s, d)
        if l > stop and abs(s) < tol:
            return
        y_prev, yl = yl, c / kR * yl - y_prev
    raise AssertionError(f"the phase-shift ladder at kR = {kR} reached its cap {cap}")


def _channels(xs: list[float], weights: Iterable[complex]) -> tuple[list, list]:
    """(E, O), the even-l and odd-l sums of k f at each cos(theta) in xs.

    One pass over the weights w_l, l = 0, 1, ..., per x, two waves (an even
    and an odd l) per step: P_l(x) runs in local variables with the
    operations of special.legendre_p_table (same bits), and each sum runs
    left to right from the int 0, as sum() does.  No row of P_l is kept.
    """
    w = tuple(weights)
    if len(w) < 2:  # l = 0 alone: E = w_0 P_0, O = 0
        return [sum(v * 1.0 for v in w)] * len(xs), [0] * len(xs)
    # per pair (l, l + 1), l = 2, 4, ...: its weights and the c, k, d of the
    # steps to l and to l + 1, i.e. 2l - 1, l - 1, l and 2l + 1, l, l + 1
    steps, k = [], 1.0  # l - 1
    for l in range(2, len(w) - 1, 2):
        c, d = k + k + 1.0, k + 1.0
        steps.append((w[l], w[l + 1], c, k, d, c + 2.0, d, d + 1.0))
        k = d + 1.0
    # an odd count leaves one even wave after the pairs, l = k + 1
    w0, w1, wl, last = w[0], w[1], w[-1], len(w) % 2
    c, d = k + k + 1.0, k + 1.0
    even, odd = [], []
    for x in xs:
        q, p = 1.0, x  # P_{l-2}, P_{l-1} before the step to an even l
        e, o = 0 + w0 * q, 0 + w1 * p
        for we, wo, c0, k0, d0, c1, k1, d1 in steps:
            q = (c0 * x * p - k0 * q) / d0
            p = (c1 * x * q - k1 * p) / d1
            e = e + we * q
            o = o + wo * p
        if last:
            e = e + wl * ((c * x * p - k * q) / d)
        even.append(e)
        odd.append(o)
    return even, odd


def _cos(theta_deg: float) -> float:
    """cos(theta) as sin(90 - theta): exactly odd about 90 deg and exactly 0 there."""
    return math.sin(math.radians(90.0 - theta_deg))


def hs_amplitude(theta_deg: float, shifts: PhaseShiftSet) -> complex:
    """Partial-wave amplitude f(theta) = (1/kR) sum w_l P_l(cos theta), in units of R.

    Endpoints are allowed (no Coulomb pole).
    """
    if not 0.0 <= theta_deg <= 180.0:
        raise DomainError(f"theta must be in [0, 180], got {theta_deg}")
    (even,), (odd,) = _channels([_cos(theta_deg)], shifts.weights)
    return (even + odd) / shifts.kR


def hs_cross_sections(thetas: tuple[float, ...], params: HardSphereParams) -> tuple[float, ...]:
    """Symmetrized hard-sphere cross sections at `thetas` (degrees), in units of R^2.

    (2/kR^2) [(1 + eps w)|E|^2 + (1 - eps w)|O|^2] with E, O the even- and
    odd-wave parts of k f(theta); no terms cancel, and the aligned-fermion
    zero at 90 degrees is exact.  The ladder runs once, eps w and kR^2 are
    taken once, and _channels makes one pass over the waves per distinct
    |x| = |cos(theta)|.  The recurrence gives P_l(-x) = (-1)^l P_l(x) bit for
    bit, so |E|^2 and |O|^2 at -x are those at |x|, and the result equals
    point-by-point evaluation (one legendre_p_table per angle) on any grid.
    Against 40-digit mpmath at the same float |x|, each value on [KR_MIN,
    KR_MAX] lies within 5e-12 of the larger of sigma at eps w = +-1 at that
    angle (1.8e-12 measured at kR = 1000); near 0 and 180 degrees the
    rounding of x itself moves sigma by up to about l_max^2 2^-53 relative.
    """
    eps_w = exchange_weight(params.spin, params.polarization)
    kr2 = params.kR**2
    for theta in thetas:
        if not 0.0 < theta < 180.0:
            raise DomainError(f"theta must be in (0, 180), got {theta}")
    abs_xs = [abs(_cos(theta)) for theta in thetas]
    distinct = list(dict.fromkeys(abs_xs))
    sigma = {}
    weights = (w for _, w in _waves(params.kR))
    for x, even, odd in zip(distinct, *_channels(distinct, weights)):
        e2, o2 = abs(even) ** 2, abs(odd) ** 2
        # e2 + eps_w * e2, not (1 + eps_w) * e2: the bits of inc + eps_w * int
        sigma[x] = 2.0 * ((e2 + eps_w * e2) + (o2 - eps_w * o2)) / kr2
    return tuple(map(sigma.__getitem__, abs_xs))


def hs_identical_cross_section(theta_deg: float, params: HardSphereParams) -> float:
    """Symmetrized hard-sphere cross section at one angle in units of R^2; see hs_cross_sections."""
    return hs_cross_sections((theta_deg,), params)[0]


def hs_curvature_at_90(params: HardSphereParams) -> float:
    """Half-angle curvature of the symmetrized cross section at 90 deg (exact).

    Same convention as the Coulomb module, 4 x d^2(sigma)/d(theta)^2.  At
    90 deg f(180 - theta) has the value and second derivative of f(theta)
    and the opposite slope, so the incoherent and interference terms have
    second derivatives 4 (Re f'' f* + |f'|^2) and 4 (Re f'' f* - |f'|^2),
    combined like the cross sections themselves.
    """
    return _curvature_at_90(params.kR, exchange_weight(params.spin, params.polarization))


def _curvature_at_90(kR: float, eps_w: float) -> float:
    """hs_curvature_at_90 at kR for exchange weight eps w; kR is checked by the caller.

    k f and its x-derivatives at x = 0 are summed as the ladder yields each
    weight, every sum left to right: f over even l with P_l(0), f' over odd
    l with l P_{l-1}(0), f'' over even l with -l(l+1) P_l(0).
    """
    f = df = d2f = 0.0 + 0.0j  # k f and its x-derivatives at x = 0
    p = 1.0  # P_l(0) at the last even l; P_l(0) = 0 at odd l
    k = k1 = 0.0  # l and l + 1 at the last even l
    odd = False
    for _, w in _waves(kR):
        if odd:
            df += w * k1 * p
            p = -k1 * p / (k + 2.0)  # the Legendre recurrence's step to l + 2 at x = 0
            k += 2.0
        else:
            k1 = k + 1.0
            f += w * p
            d2f -= w * k * k1 * p
        odd = not odd
    re_f2f = (d2f * f.conjugate()).real
    slope2 = abs(df) ** 2
    d2 = 4.0 * (re_f2f + slope2) + eps_w * (4.0 * (re_f2f - slope2))
    return HALF_ANGLE_FACTOR * d2 / kR**2


def find_critical_kR(
    spin: Spin,
    statistics: Statistics | None = None,
    scan: tuple[float, float] = (0.2, 3.0),
    step: float = 0.05,
    polarization: Polarization = Polarization.UNPOLARIZED,
) -> float | None:
    """Smallest kR in `scan` where the 90 deg curvature changes sign, or None.

    `statistics` is optional and only checked against the spin.  Scans lo,
    lo + step, ... (at most MAX_POINTS points; a step of at most half the
    float spacing below hi, which could not advance, raises DomainError), then
    hands the first bracketing pair and its two curvatures to
    numerics.bisect_root, which ends a few ulps from the root.  Absence of a
    transition is a valid result, not an error.  A point less than step/2
    past hi moves onto hi and one further out ends the scan, so a sign
    change up to step/2 short of hi can be missed: spin 0 on (0.23, 1.45)
    stops at 1.43 and returns None, though the curvature changes sign at
    1.44677.  Two sign changes in one cell cancel, so the scan then returns
    a later root or None: spin 9/2 on (2.3, 3.0) at step 0.5 returns None,
    though the roots 2.46965 and 2.70435 both lie in the cell [2.3, 2.8].
    At the default step that blinds every eps w in (-0.111175, about
    -0.1107), whose first two roots share a cell near kR 2.584 (the upper
    end moves with lo); no spin has such an eps w.

    The scan steps through the same grid points, but of those at or below a
    certified bound b it evaluates only the last, as that point may open the
    bracket; b is that of the first row (e, b) of CERTIFIED_BOUNDS with
    eps w <= e.  A scan that ends at or below b returns None before any
    point; at eps w <= -1/8 (the first row, b = 10) that is every scan.
    Otherwise b lies below hi, so every grid point up to b is x + step: once
    the inputs are checked and eps w taken, a bare walk adds the step up to
    the last point at or below b, the same floats without the main loop's
    tests, and the main loop starts there.  Every bracket, every value
    handed to bisect_root and so every root is that of the scan that
    evaluates every point.

    The bounds rest on linearity.  With r = Re f'' f* and s = |f'|^2 at
    90 deg, the curvature is HALF_ANGLE_FACTOR [4 (r + s) + eps w 4 (r - s)]
    / kR^2 (_curvature_at_90), linear in eps w.  Interval arithmetic over
    the exact partial-wave sums proves it positive on [KR_MIN, 10] at eps w
    = -1 (tests/test_hardsphere.py::test_certify_no_critical_kR_up_to_eps_w_minus_one_eighth)
    and on [KR_MIN, b] at eps w = e for each row
    (::test_certify_the_scan_bounds), so it is positive on [KR_MIN, b] at
    every eps w in [-1, e].  The float value there keeps at least 0.1% of
    the larger of |its value at eps w = +1| and its value at -1, far above
    its rounding error (::test_curvature_keeps_a_margin_below_each_scan_bound),
    so the full scan could never see a sign change below b.
    """
    lo, hi = scan
    if not 0.0 < lo < hi <= 10.0:
        raise DomainError(f"scan range must lie within (0, 10], got {scan}")
    if not (math.isfinite(step) and step > 0.0):
        raise DomainError(f"step must be positive and finite, got {step}")
    if (hi - lo) / step + 1 > MAX_POINTS:
        raise DomainError(f"step {step} gives more than {MAX_POINTS} scan points")
    # x + step rounds back to x below hi once step is at most half the float
    # spacing there, so the scan never ends unless its second point is hi
    if step <= math.ulp(math.nextafter(hi, 0.0)) / 2.0 and lo + step < hi:
        raise DomainError(f"step {step} is at most half the float spacing below hi = {hi}")
    _check_kR(lo)  # every point lies in [lo, hi], and hi <= 10 < KR_MAX
    check_statistics(spin, statistics)
    eps_w = exchange_weight(spin, polarization)
    bound = next(b for e, b in CERTIFIED_BOUNDS if eps_w <= e)
    if hi <= bound:
        return None  # every grid point lies at or below the bound

    def curv(kR: float) -> float:
        return _curvature_at_90(kR, eps_w)

    # f stays None while x lies at or below the bound, where C > 0 (see above)
    x, f = lo, (curv(lo) if lo > bound else None)
    while x + step <= bound:  # below the bound < hi, the next grid point is x + step
        x += step
    while f != 0.0 and x + step < hi + step / 2.0:  # every x_next lies above the bound
        x_next = min(x + step, hi)
        if f is None:
            f = curv(x)  # the last point at or below the bound may open the bracket
        f_next = curv(x_next)
        if (f > 0.0) != (f_next > 0.0):
            return bisect_root(curv, x, x_next, f, f_next)
        x, f = x_next, f_next
    return x if f == 0.0 else None
