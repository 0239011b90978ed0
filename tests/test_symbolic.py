"""The Coulomb closed forms, derived in sympy from the cross section itself.

With S = cos(theta) and C = sin(theta), the symmetrized Mott cross section of
an identical pair is

    sigma = 2 a^2 [(1 + S^2)/C^4 + eps w cos(2 eta atanh S)/C^2].

From it alone this module derives the half-angle curvature at 90 degrees,
the critical eta where it vanishes and the quartic coefficient of
sigma/sigma(90) there, then holds curvature_at_90 and critical_eta to them:
exactly where the float arithmetic is exact, and within a few float steps at
random inputs.  From the non-relativistic kinematics of the pair it derives
eta(E), the half closest approach a and the critical energy E_C, and holds
sommerfeld_eta, half_closest_approach and critical_energy to them at random
inputs.  It derives the value of sigma_int(60 deg) that test_coulomb freezes,
and from the threshold phase shifts of a hard sphere the kR^4 law of its 90
degree curvature, whose coefficients test_hardsphere types in.  sympy is a
test-only oracle: without it the module skips.
"""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mott_ti import (CollisionSystem, MottParams, ParticleSpecies, PhysicalConstants, Polarization,
                     Spin, critical_energy, critical_eta, curvature_at_90, half_closest_approach,
                     sommerfeld_eta)
from mott_ti.coulomb import A_MIN, ETA_MAX
from test_coulomb import SIGMA_INT_60_SQRT2
from test_hardsphere import THRESHOLD_LIMITS

sp = pytest.importorskip("sympy")

a, eta, w, S, phi = sp.symbols("a eta w S phi", positive=True)  # w: the boson eps w
eps_w = sp.Symbol("eps_w", real=True)
# E and M in MeV, q^2 = Z^2 e^2 and hbar c in MeV fm, the distance d in fm, v in units of c
E, M, q2, hbar_c, v, d = sp.symbols("E M q2 hbar_c v d", positive=True)
kR, X = sp.symbols("kR X", positive=True)  # X: cos(theta) of a hard-sphere amplitude


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


@pytest.fixture(scope="module")
def kinematics(forms):
    """eta(E), a and E_C derived from E = mu v^2/2, mu = M/2, and eta = q^2/(hbar v)."""
    [speed] = sp.solve(sp.Eq(E, (M / 2) * v**2 / 2), v)
    eta_of_e = q2 / (hbar_c * speed)
    # head on, the pair stops where the Coulomb energy q^2/d has taken all of E
    [closest] = sp.solve(sp.Eq(E, q2 / d), d)
    # eta(E_C) = eta_C, with the eta_C^2 = (w + 3)/(2w) that forms derived
    [e_c] = sp.solve(sp.Eq(eta_of_e**2, forms["eta_c2"]), E)
    return {"eta": eta_of_e, "a": closest / 2, "e_c": 1000 * e_c}  # E_C in keV


def _relative_error(x, exact):
    """|x - exact|/exact, in float steps of 2^-53, for a positive sympy expression exact."""
    return float((abs(sp.Rational(x) - exact) / exact * 2**53).evalf(30))


# Each bound adds up, to first order, the roundings of the function's float
# operations, each at most half a float step (2^-53 relative): one under a
# square root counts half, and one in a value that enters squared (q^2, and
# eta_C in E_C) counts twice.
KINEMATIC_STEPS = {"eta": 5, "a": 3, "e_c": 14}


@settings(max_examples=100, deadline=None, derandomize=True)
@given(z=st.integers(1, 120), mass=st.floats(min_value=1e-3, max_value=1e6),
       energy=st.floats(min_value=1e-6, max_value=1e6), twice_s=st.integers(0, 88),
       hbar_c_value=st.floats(min_value=1.0, max_value=1e3),
       inverse_alpha=st.floats(min_value=136.6, max_value=137.4))
def test_kinematics_within_a_few_steps_at_random_inputs(kinematics, z, mass, energy, twice_s,
                                                        hbar_c_value, inverse_alpha):
    constants = PhysicalConstants(hbar_c_value, hbar_c_value / inverse_alpha)
    species = ParticleSpecies("x", z, mass, Spin(twice_s))
    system = CollisionSystem(species, energy)  # in keV, E in MeV
    exact = {M: sp.Rational(mass), E: sp.Rational(energy) / 1000,
             q2: z * z * sp.Rational(constants.e_squared), hbar_c: sp.Rational(hbar_c_value),
             w: sp.Rational(1, twice_s + 1)}  # the unpolarized w of critical_energy
    got = {"eta": sommerfeld_eta(system, constants),
           "a": half_closest_approach(system, constants),
           "e_c": critical_energy(species, constants)}
    for name, x in got.items():
        assert _relative_error(x, kinematics[name].subs(exact)) <= KINEMATIC_STEPS[name], name


def test_sigma_int_60_sqrt2_is_the_derived_value():
    # sigma is linear in eps w, and sigma_int is its coefficient; the frozen
    # value is the float nearest the derived one
    derived = sp.diff(sigma(sp.Rational(1, 2), sp.Rational(3, 4)), eps_w)
    assert float(derived.subs({a: 1, eta: sp.sqrt(2)}).evalf(40)) == SIGMA_INT_60_SQRT2


@pytest.fixture(scope="module")
def threshold():
    """The hard-sphere 90 degree half-angle curvature as kR -> 0, through kR^5.

    In units of R, k f = sum_l (2l+1) e^{i delta_l} sin(delta_l) P_l(cos theta),
    with delta_0 = -kR exactly and delta_l ~ -kR^{2l+1}/((2l+1)!! (2l-1)!!)
    for l = 1, 2 (DLMF 10.52): the next orders of delta_1 and delta_2, and
    the waves past l = 2, enter the curvature at kR^6 and beyond.  The pair's
    cross section is |f(theta)|^2 + |f(180 - theta)|^2 + 2 eps w
    Re f(theta) f*(180 - theta), taken in the real and imaginary parts of f;
    at 90 degrees its second derivative in theta/2 takes P_l(0), P_l'(0)
    and P_l''(0).
    """
    deltas = [-kR] + [-kR ** (2 * l + 1) / (sp.factorial2(2 * l + 1) * sp.factorial2(2 * l - 1))
                      for l in (1, 2)]
    parts = [sum((2 * l + 1) * sp.sin(delta) * trig(delta) * sp.legendre(l, X)
                 for l, delta in enumerate(deltas)) / kR for trig in (sp.cos, sp.sin)]
    cos_theta = sp.cos(2 * phi)
    xs = sum(p.subs(X, cos_theta) ** 2 + p.subs(X, -cos_theta) ** 2
             + 2 * eps_w * p.subs(X, cos_theta) * p.subs(X, -cos_theta) for p in parts)
    curvature = sp.diff(xs, phi, 2).subs(phi, sp.pi / 4)
    return sp.expand(sp.series(curvature, kR, 0, 6).removeO())


def test_threshold_curvature_is_16_kR4_times_4_3_less_2_eps_w_3(threshold):
    assert sp.simplify(threshold - 16 * (sp.Rational(4, 3) - 2 * eps_w / 3) * kR**4) == 0


@pytest.mark.parametrize("twice_s, polarization, limit", THRESHOLD_LIMITS)
def test_threshold_limits_are_the_derived_coefficient(threshold, twice_s, polarization, limit):
    # the limits of test_hardsphere's test_curvature_follows_the_threshold_law
    exact = threshold.coeff(kR, 4).subs(eps_w, sp.Rational(_exact_eps_w(twice_s, polarization)))
    assert float(exact) == limit
