"""Reference formulas that only the tests use.

Importable as `reference`: tests/ has no __init__.py, so pytest puts this
directory on sys.path.
"""

import math


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
