"""Independent reference values for checking the benchmark's outputs.

Nothing here calls mott_ti.  The hard-sphere references sum the partial
waves with scipy's spherical Bessel functions and Legendre polynomials up
to an order where the series has converged to double precision
(l = kR + 4.05 kR^(1/3) + 20, Wiscombe's bound plus a margin); the Coulomb
references are the closed forms at 90 degrees.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import eval_legendre, spherical_jn, spherical_yn

# A hard-sphere cross section passes when it is within HS_RTOL of the
# reference, relative to max(|reference|, sum (2l+1) sin^2(delta_l) / k^2).
# 1e-9 is the precision of the 9 significant digits the CLI prints.
HS_RTOL = 1e-9

# sigma(90) of a Mott curve must equal 2 a^2 (1 + eps w) to rounding,
# relative to 2 a^2.
MOTT_RTOL = 1e-12

# critical_eta_numeric must land within this of sqrt(3s+2).
ETA_ATOL = 1e-6

# A reported critical kR must have a sign change of the reference
# curvature within this distance.
KR_ATOL = 1e-5


def _order(kR: float) -> int:
    return math.ceil(kR + 4.05 * kR ** (1.0 / 3.0)) + 20


def hs_coefficients(kR: float):
    """(2l+1) e^{i d_l} sin(d_l) / k for l up to _order(kR), and the scale sum (2l+1) sin^2 d_l / k^2."""
    l = np.arange(_order(kR) + 1)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        delta = np.arctan(spherical_jn(l, kR) / spherical_yn(l, kR))
    delta = np.nan_to_num(delta)
    sin = np.sin(delta)
    coeff = (2 * l + 1) * np.exp(1j * delta) * sin / kR
    scale = float(np.sum((2 * l + 1) * sin * sin)) / (kR * kR)
    return coeff, scale


def _sign(twice_s: int) -> float:
    return 1.0 if twice_s % 2 == 0 else -1.0


def _combine(f1, f2, twice_s: int, aligned: bool):
    eps = _sign(twice_s)
    if aligned:
        return np.abs(f1 + eps * f2) ** 2
    w = 1.0 / (twice_s + 1)
    return np.abs(f1) ** 2 + np.abs(f2) ** 2 + eps * w * 2.0 * np.real(np.conj(f1) * f2)


def hs_sigma(kR: float, twice_s: int, aligned: bool, thetas_deg):
    """Symmetrized hard-sphere cross sections (units of R^2) at the given angles."""
    coeff, scale = hs_coefficients(kR)
    l = np.arange(len(coeff))
    x = np.cos(np.radians(np.asarray(thetas_deg, dtype=float)))
    f1 = eval_legendre(l[None, :], x[:, None]) @ coeff
    f2 = eval_legendre(l[None, :], -x[:, None]) @ coeff
    return _combine(f1, f2, twice_s, aligned), scale


def hs_curvature90(kRs, twice_s: int, aligned: bool):
    """Exact d^2 sigma / d theta^2 at 90 deg for each kR (only its sign is used).

    With x = cos(theta): d/dtheta P_l = -P_l'(0) and d^2/dtheta^2 P_l = P_l''(0)
    at 90 deg, where P_l'(0) = l P_{l-1}(0) and P_l''(0) = -l(l+1) P_l(0).
    """
    kRs = np.atleast_1d(np.asarray(kRs, dtype=float))
    l = np.arange(_order(float(kRs.max())) + 1)
    p0 = eval_legendre(l, 0.0)
    p1 = l * np.concatenate(([0.0], p0[:-1]))
    p2 = -l * (l + 1) * p0
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        delta = np.arctan(spherical_jn(l[None, :], kRs[:, None])
                          / spherical_yn(l[None, :], kRs[:, None]))
    delta = np.nan_to_num(delta)
    coeff = (2 * l + 1) * np.exp(1j * delta) * np.sin(delta)
    f, d1, d2 = coeff @ p0, -(coeff @ p1), coeff @ p2
    # f(180 - theta) at 90 deg: value f, first derivative -f', second f''
    g, g1, g2 = f, -d1, d2

    def second(a, a1, a2, b, b1, b2):   # d^2/dtheta^2 of 2 Re(conj(a) b)
        return 2.0 * np.real(np.conj(a2) * b + 2.0 * np.conj(a1) * b1 + np.conj(a) * b2)

    eps = _sign(twice_s)
    if aligned:
        h, h1, h2 = f + eps * g, d1 + eps * g1, d2 + eps * g2
        return second(h, h1, h2, h, h1, h2) / 2.0
    w = 1.0 / (twice_s + 1)
    inc = (second(f, d1, d2, f, d1, d2) + second(g, g1, g2, g, g1, g2)) / 2.0
    return inc + eps * w * second(f, d1, d2, g, g1, g2)


def scan_grid(lo: float, hi: float, step: float) -> list[float]:
    """The kR points find_critical_kR visits, built with the same float steps."""
    xs = [lo]
    x = lo + step
    while x < hi + step / 2.0:
        x = min(x, hi)
        xs.append(x)
        if x >= hi:
            break
        x += step
    return xs


def first_root_bracket(lo, hi, step, twice_s, aligned):
    """(x_prev, x) of the first reference sign change on the scan grid, or None."""
    xs = scan_grid(lo, hi, step)
    c = hs_curvature90(xs, twice_s, aligned)
    for i in range(1, len(xs)):
        if (c[i - 1] > 0.0) != (c[i] > 0.0):
            return xs[i - 1], xs[i]
    return None


def mott_sigma90(a: float, twice_s: int, aligned: bool) -> float:
    """sigma(90) = 2 a^2 (1 + eps w): eps by statistics, w = 1 aligned or 1/(2s+1)."""
    w = 1.0 if aligned else 1.0 / (twice_s + 1)
    return 2.0 * a * a * (1.0 + _sign(twice_s) * w)


def mott_curvature90(a: float, eta: float, twice_s: int, aligned: bool) -> float:
    """Half-angle curvature at 90 deg, 16 a^2 [3 + eps w (1 - 2 eta^2)]."""
    w = 1.0 if aligned else 1.0 / (twice_s + 1)
    return 16.0 * a * a * (3.0 + _sign(twice_s) * w * (1.0 - 2.0 * eta * eta))


def expected_class(curvature: float, a: float) -> str | None:
    """'min' or 'max' by sign; None when too close to zero to call."""
    if abs(curvature) < 1e-3 * 16.0 * a * a:
        return None
    return "min" if curvature > 0.0 else "max"


def table_row(z: int, mass: float, twice_s: int, constants) -> tuple[float, float, float]:
    """(E_C keV, V_B keV, direct sigma(90) barn) of an identical pair at eta_C."""
    q2 = z * z * constants.e_squared
    eta2 = 1.5 * twice_s + 2.0
    e_c = mass * q2 * q2 / (4.0 * constants.hbar_c ** 2 * eta2)        # MeV
    radius = 2.0 * constants.r0 * (mass / constants.nucleon_mass) ** (1.0 / 3.0)
    a = q2 / (2.0 * e_c)
    sigma90 = 2.0 * a * a * (1.0 + 1.0 / (twice_s + 1)) / 100.0
    return e_c * 1000.0, q2 / radius * 1000.0, sigma90
