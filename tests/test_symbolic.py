"""The Coulomb closed forms, derived in sympy from the cross section itself.

With S = cos(theta) and C = sin(theta), the symmetrized Mott cross section of
an identical pair is

    sigma = 2 a^2 [(1 + S^2)/C^4 + eps w cos(2 eta atanh S)/C^2].

From it alone this module derives the half-angle curvature at 90 degrees,
the critical eta where it vanishes and the quartic coefficient of
sigma/sigma(90) there, then holds curvature_at_90 and critical_eta to them:
exactly where the float arithmetic is exact, and within a few float steps at
random inputs.  sympy is a test-only oracle: without it the module skips.
"""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mott_ti import MottParams, Polarization, Spin, critical_eta, curvature_at_90
from mott_ti.coulomb import A_MIN, ETA_MAX

sp = pytest.importorskip("sympy")

a, eta, w, S, phi = sp.symbols("a eta w S phi", positive=True)  # w: the boson eps w
eps_w = sp.Symbol("eps_w", real=True)


def sigma(cos_theta, sin_theta_squared):
    return 2 * a**2 * ((1 + cos_theta**2) / sin_theta_squared**2
                       + eps_w * sp.cos(2 * eta * sp.atanh(cos_theta)) / sin_theta_squared)


@pytest.fixture(scope="module")
def forms():
    """The curvature, eta_C^2 and c4(eta_C) derived from sigma, with no closed form put in."""
    # half-angle curvature: d^2 sigma / d(theta/2)^2 at theta/2 = 45 degrees
    half = sigma(sp.cos(2 * phi), sp.sin(2 * phi) ** 2)
    curvature = sp.simplify(sp.diff(half, phi, 2).subs(phi, sp.pi / 4))
    # the critical eta of a boson pair, eps w = w > 0: the positive root
    roots = sp.solve(curvature.subs(eps_w, w), eta)
    assert len(roots) == 1
    eta_c2 = sp.simplify(roots[0] ** 2)
    # sigma/sigma(90) = 1 + c2 S^2 + c4 S^4 + O(S^6), in S = cos(theta)
    ratio = sigma(S, 1 - S**2) / sigma(sp.Integer(0), sp.Integer(1))
    series = sp.series(ratio, S, 0, 6).removeO()
    c2, c4 = (sp.simplify(series.coeff(S, k)) for k in (2, 4))
    return {"curvature": curvature, "eta_c2": eta_c2, "c2": c2, "c4": c4}


def test_curvature_is_the_documented_closed_form(forms):
    assert sp.simplify(forms["curvature"] - 16 * a**2 * (3 + eps_w * (1 - 2 * eta**2))) == 0


def test_critical_eta_is_the_documented_closed_form(forms):
    assert sp.simplify(forms["eta_c2"] - (1 + 3 / w) / 2) == 0


def test_quadratic_coefficient_is_the_curvature_over_sixteen_sigma90(forms):
    # sigma(90) = 2 a^2 (1 + eps w), and c2 vanishes with the curvature
    expected = forms["curvature"] / (16 * a**2 * (1 + eps_w))
    assert sp.simplify(forms["c2"] - expected) == 0


def test_quartic_coefficient_at_the_critical_eta(forms):
    c4 = forms["c4"].subs({eps_w: w, eta: sp.sqrt(forms["eta_c2"])})
    assert sp.simplify(c4 - (3 - w) / (2 * w)) == 0


def _exact_eps_w(twice_s, polarization):
    sign = 1 if twice_s % 2 == 0 else -1
    return Fraction(sign, 1 if polarization is Polarization.ALIGNED else twice_s + 1)


def _exact_curvature(forms, a_value, eta_value, exact_eps_w):
    value = forms["curvature"].subs({a: sp.Rational(a_value), eta: sp.Rational(eta_value),
                                     eps_w: sp.Rational(exact_eps_w)})
    return Fraction(int(value.p), int(value.q))


def _exact_eta_c2(forms, exact_w):
    value = forms["eta_c2"].subs(w, sp.Rational(exact_w))
    return Fraction(int(value.p), int(value.q))


# eps w is a dyadic float for these: aligned, or 2s + 1 a power of two
DYADIC = [(twice_s, pol) for twice_s in (0, 1, 3, 7) for pol in Polarization] + \
         [(twice_s, Polarization.ALIGNED) for twice_s in (2, 5, 88)]


@pytest.mark.parametrize("twice_s, polarization", DYADIC,
                         ids=[f"{t}-{p.value}" for t, p in DYADIC])
def test_curvature_is_exact_at_dyadic_inputs(forms, twice_s, polarization):
    for a_value in (0.5, 1.0, 1.25, 3.0, 1024.0):
        for eta_value in (0.25, 0.5, 1.0, 1.25, 1.5, 2.0, 7.75):
            params = MottParams(a=a_value, eta=eta_value, spin=Spin(twice_s),
                                polarization=polarization)
            exact = _exact_curvature(forms, a_value, eta_value,
                                     _exact_eps_w(twice_s, polarization))
            assert Fraction(curvature_at_90(params)) == exact


def _is_correctly_rounded_sqrt(x, square):
    """Whether float x is the float nearest sqrt(square), by exact squares of its neighbours."""
    half_ulp = Fraction(math.ulp(x)) / 2
    return (Fraction(x) - half_ulp) ** 2 <= square <= (Fraction(x) + half_ulp) ** 2


@pytest.mark.parametrize("twice_s, polarization", DYADIC,
                         ids=[f"{t}-{p.value}" for t, p in DYADIC])
def test_critical_eta_is_correctly_rounded_at_dyadic_weights(forms, twice_s, polarization):
    exact_w = abs(_exact_eps_w(twice_s, polarization))
    assert _is_correctly_rounded_sqrt(critical_eta(Spin(twice_s), polarization),
                                      _exact_eta_c2(forms, exact_w))


# float steps (2^-53 relative) of the largest term that the float form may be off:
# it rounds 7 times, each by at most half a step of a term no larger than `scale`
ULPS = 8


@settings(max_examples=200, deadline=None, derandomize=True)
@given(twice_s=st.integers(0, 88), polarization=st.sampled_from(list(Polarization)),
       a_value=st.floats(min_value=A_MIN, max_value=1e6),
       eta_value=st.floats(min_value=1e-6, max_value=ETA_MAX))
def test_curvature_within_a_few_steps_at_random_inputs(forms, twice_s, polarization,
                                                       a_value, eta_value):
    exact_eps_w = _exact_eps_w(twice_s, polarization)
    params = MottParams(a=a_value, eta=eta_value, spin=Spin(twice_s), polarization=polarization)
    exact = _exact_curvature(forms, a_value, eta_value, exact_eps_w)
    # the terms' scale: 3 + eps w (1 - 2 eta^2) may cancel, the error cannot exceed it
    a2, eta2 = Fraction(a_value) ** 2, Fraction(eta_value) ** 2
    scale = 16 * a2 * (3 + abs(exact_eps_w) * (1 + 2 * eta2))
    assert abs(Fraction(curvature_at_90(params)) - exact) <= ULPS * scale * Fraction(2) ** -53


def test_critical_eta_within_two_steps_at_every_spin(forms):
    for twice_s in range(89):
        for polarization in Polarization:
            x = critical_eta(Spin(twice_s), polarization)
            square = _exact_eta_c2(forms, abs(_exact_eps_w(twice_s, polarization)))
            steps = 2 * Fraction(math.ulp(x))
            assert (Fraction(x) - steps) ** 2 <= square <= (Fraction(x) + steps) ** 2, twice_s
