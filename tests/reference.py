"""Reference formulas that only the tests use.

Importable as `reference`: tests/ has no __init__.py, so pytest puts this
directory on sys.path.
"""

import cmath
import math

from mott_ti import hardsphere
from mott_ti.errors import DomainError
from mott_ti.numerics import HALF_ANGLE_FACTOR, MAX_POINTS, bisect_root
from mott_ti.special import spherical_bessel_j_table, spherical_bessel_y_table
from mott_ti.species import Polarization, check_statistics, exchange_weight


def hs_total_cross_section(shifts):
    """sigma_total = (4 pi / kR^2) sum (2l+1) sin^2(delta_l), in units of R^2.

    The optical theorem's other side: the forward amplitude gives the same
    total as 4 pi Im f(0) / kR.
    """
    return (
        4.0
        * math.pi
        / (shifts.kR * shifts.kR)
        * sum((2 * l + 1) * math.sin(d) ** 2 for l, d in enumerate(shifts.deltas))
    )


def scan_reference(spin, statistics, scan=(0.2, 3.0), step=0.05,
                   polarization=Polarization.UNPOLARIZED):
    """find_critical_kR as it was before any preparation skipped its scan.

    Every preparation, those with eps w <= -1/8 included, scans lo,
    lo + step, ... and takes the curvature at each point through
    hardsphere._curvature_at_90, looked up at call time, so a test that
    wraps that name sees these points too.
    """
    lo, hi = scan
    if not 0.0 < lo < hi <= 10.0:
        raise DomainError(f"scan range must lie within (0, 10], got {scan}")
    if not (math.isfinite(step) and step > 0.0):
        raise DomainError(f"step must be positive and finite, got {step}")
    if (hi - lo) / step + 1 > MAX_POINTS:
        raise DomainError(f"step {step} gives more than {MAX_POINTS} scan points")
    hardsphere._check_kR(lo)  # every point lies in [lo, hi], and hi <= 10 < KR_MAX
    check_statistics(spin, statistics)
    eps_w = exchange_weight(spin, polarization)

    def curv(kR: float) -> float:
        return hardsphere._curvature_at_90(kR, eps_w)

    x, f = lo, curv(lo)
    while f != 0.0 and x + step < hi + step / 2.0:
        x_next = min(x + step, hi)
        f_next = curv(x_next)
        if (f > 0.0) != (f_next > 0.0):
            return bisect_root(curv, x, x_next, f, f_next)
        x, f = x_next, f_next
    return x if f == 0.0 else None


def evaluated_points(visited, eps_w):
    """The part of a full scan's evaluations that find_critical_kR makes at eps w.

    The full scan evaluates its grid in increasing order, then the finder's
    points inside the bracket.  find_critical_kR evaluates them from the last
    grid point at or below its bound on (the bound of the first row of
    hardsphere.CERTIFIED_BOUNDS that covers eps w), and none when no point
    lies above the bound.
    """
    bound = next(b for e, b in hardsphere.CERTIFIED_BOUNDS if eps_w <= e)
    above = next((i for i, x in enumerate(visited) if x > bound), None)
    if above is None:
        return []
    return visited[max(above - 1, 0):]


def two_table_phase_shifts(kR):
    """hard_sphere_phase_shifts as it was with a j and a y table to the cap."""
    hardsphere._check_kR(kR)
    cap = math.ceil(kR + 8.0 * max(kR, 1.0) ** (1.0 / 3.0)) + 4
    stop, tol = max(kR, 2.0), hardsphere.TRUNCATION_TOL * min(1.0, kR**5 / 45.0)
    j = spherical_bessel_j_table(cap, kR)
    y = spherical_bessel_y_table(cap, kR)
    atan2, sin, rect = math.atan2, math.sin, cmath.rect
    deltas, weights = [-kR], [rect(sin(-kR), -kR)]
    c = 1.0  # 2l + 1
    for l in range(1, cap + 1):
        jl, yl = j[l], y[l]
        d = atan2(-jl, -yl) if yl < 0.0 else atan2(jl, yl)
        s = sin(d)
        c += 2.0
        deltas.append(d)
        weights.append(rect(c * s, d))
        if l > stop and abs(s) < tol:
            return hardsphere.PhaseShiftSet(kR=kR, deltas=tuple(deltas), weights=tuple(weights))
    raise AssertionError(f"the phase-shift ladder at kR = {kR} reached its cap {cap}")


def two_pass_curvature_at_90(kR, eps_w):
    """hardsphere._curvature_at_90 as it was: the weights of a two-table ladder, then one loop."""
    w = two_table_phase_shifts(kR).weights
    n = len(w)
    f = df = d2f = 0.0 + 0.0j  # k f and its x-derivatives at x = 0
    p = 1.0  # P_l(0) at even l; P_l(0) = 0 at odd l, whose terms are skipped
    k = 0.0  # l
    for l in range(0, n, 2):
        wl, k1 = w[l], k + 1.0
        f += wl * p
        if l + 1 < n:
            df += w[l + 1] * k1 * p
        d2f -= wl * k * k1 * p
        p = -k1 * p / (k + 2.0)  # the Legendre recurrence's step to l + 2 at x = 0
        k += 2.0
    re_f2f = (d2f * f.conjugate()).real
    slope2 = abs(df) ** 2
    d2 = 4.0 * (re_f2f + slope2) + eps_w * (4.0 * (re_f2f - slope2))
    return HALF_ANGLE_FACTOR * d2 / kR**2
