"""Reference formulas that only the tests use.

Importable as `reference`: tests/ has no __init__.py, so pytest puts this
directory on sys.path.
"""

import math

from mott_ti import hardsphere
from mott_ti.errors import DomainError
from mott_ti.numerics import MAX_POINTS, bisect_root
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
    """find_critical_kR as it was before aligned fermions skipped their scan.

    Every preparation, aligned fermions included, scans lo, lo + step, ...
    and takes the curvature at each point through hardsphere._curvature_at_90,
    looked up at call time, so a test that wraps that name sees these points
    too.
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
