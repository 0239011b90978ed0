import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mott_ti import (
    DivergenceError,
    DomainError,
    MottParams,
    Polarization,
    RootNotFoundError,
    Spin,
    Statistics,
    critical_eta,
    critical_eta_numeric,
    curvature_at_90,
    curvature_at_90_fd,
    identical_cross_section,
    sigma_inc_coulomb,
    sigma_int_coulomb,
)
from mott_ti.coulomb import A_MAX, ETA_MAX
from mott_ti.numerics import bisect_root

SQRT2 = math.sqrt(2.0)
SQRT5 = math.sqrt(5.0)


# ---------------------------------------------------------------- closed forms

def test_sigma_inc_90_is_2a2():
    for a in (1.0, 7.25):
        assert sigma_inc_coulomb(90.0, a) == pytest.approx(2.0 * a * a, rel=1e-10)


def test_sigma_inc_60_value():
    # (1/4)(1/0.25^2 + 1/0.75^2) = 40/9
    assert sigma_inc_coulomb(60.0, 1.0) == pytest.approx(40.0 / 9.0, rel=1e-12)


def test_sigma_inc_symmetric_pairs():
    for d in (5.0, 20.0, 44.5):
        assert sigma_inc_coulomb(90.0 - d, 1.0) == pytest.approx(
            sigma_inc_coulomb(90.0 + d, 1.0), rel=1e-12
        )


def test_sigma_int_90_is_2a2_for_any_eta():
    for eta in (0.5, SQRT2, 5.0, 17.3):
        for a in (1.0, 3.0):
            assert sigma_int_coulomb(90.0, a, eta) == pytest.approx(2.0 * a * a, rel=1e-10)


def test_sigma_int_60_sqrt2_value():
    # frozen from mpmath: prefactor 8/3 times cos(2 sqrt2 ln tan30)
    assert sigma_int_coulomb(60.0, 1.0, SQRT2) == pytest.approx(
        0.045661577363025778, rel=1e-10
    )


def test_sigma_int_symmetric_pairs():
    # tan(theta/2) <-> cot flips the log sign inside an even cosine
    for d in (10.0, 30.0, 60.0):
        assert sigma_int_coulomb(90.0 - d, 1.0, SQRT2) == pytest.approx(
            sigma_int_coulomb(90.0 + d, 1.0, SQRT2), rel=1e-10
        )


def test_overflow_next_to_pole_diverges():
    with pytest.raises(DivergenceError):
        sigma_inc_coulomb(1e-80, 1.0)
    with pytest.raises(DivergenceError):
        sigma_int_coulomb(1e-170, 1.0, 1.0)


def test_overflow_of_a_squared_diverges():
    # a * a, or its product with the pole term, beyond float range: an error, never inf
    for theta, a in ((30.0, 1e200), (0.01, 1e147)):
        with pytest.raises(DivergenceError):
            sigma_inc_coulomb(theta, a)
    for theta, a in ((30.0, 1e200), (1e-6, 1e147)):
        with pytest.raises(DivergenceError):
            sigma_int_coulomb(theta, a, 1.0)


@pytest.mark.parametrize("theta", [0.0, 180.0, -5.0, 200.0])
def test_endpoint_angles_diverge(theta):
    with pytest.raises(DivergenceError):
        sigma_inc_coulomb(theta, 1.0)
    with pytest.raises(DivergenceError):
        sigma_int_coulomb(theta, 1.0, 1.0)


def test_bad_parameters():
    with pytest.raises(DomainError):
        sigma_inc_coulomb(90.0, -1.0)
    with pytest.raises(DomainError):  # not a silent nan
        sigma_inc_coulomb(90.0, math.nan)
    with pytest.raises(DomainError):
        sigma_int_coulomb(90.0, math.nan, 1.0)
    with pytest.raises(DomainError):
        sigma_int_coulomb(60.0, 1.0, math.nan)
    with pytest.raises(DomainError):
        sigma_int_coulomb(90.0, 1.0, 0.0)
    with pytest.raises(DomainError):
        MottParams(a=0.0, eta=1.0, spin=Spin(0))
    with pytest.raises(DomainError):
        MottParams(a=1.0, eta=-2.0, spin=Spin(0))
    for bad in (math.nan, math.inf):
        with pytest.raises(DomainError):
            MottParams(a=bad, eta=1.0, spin=Spin(0))
        with pytest.raises(DomainError):
            MottParams(a=1.0, eta=bad, spin=Spin(0))
    with pytest.raises(DomainError):
        MottParams(a=1.0, eta=math.nextafter(ETA_MAX, math.inf), spin=Spin(0))
    with pytest.raises(DomainError):
        MottParams(a=math.nextafter(A_MAX, math.inf), eta=1.0, spin=Spin(0))


@pytest.mark.parametrize("theta,expected", [
    (1.0, 43112094.397445881441),
    (10.0, 4351.8023373425256286),
    (70.0, 3.582214899251902292),
])
def test_cross_section_accurate_at_eta_max(theta, expected):
    # frozen from a 50-digit mpmath sum, boson spin 0 at eta = 1e6
    params = MottParams(a=1.0, eta=ETA_MAX, spin=Spin(0))
    assert identical_cross_section(theta, params) == pytest.approx(
        expected, rel=1e-8
    )


# ------------------------------------------------------- symmetrized combination

def test_identical_cross_section_90_values():
    # s=0 boson: 2 + 2 = 4
    p0 = MottParams(a=1.0, eta=SQRT2, spin=Spin(0))
    assert identical_cross_section(90.0, p0) == pytest.approx(4.0, rel=1e-10)
    # s=1 boson unpolarized: 2 + 2/3
    p1 = MottParams(a=1.0, eta=1.0, spin=Spin(2))
    assert identical_cross_section(90.0, p1) == pytest.approx(
        8.0 / 3.0, rel=1e-10
    )
    # s=1/2 fermion unpolarized: 2 - 2/2 = 1
    ph = MottParams(a=1.0, eta=1.0, spin=Spin(1))
    assert identical_cross_section(90.0, ph) == pytest.approx(1.0, rel=1e-10)


def test_statistics_spin_mismatch_raises():
    p = MottParams(a=1.0, eta=1.0, spin=Spin(0))
    with pytest.raises(DomainError):
        curvature_at_90(p, Statistics.FERMION)


def test_aligned_equals_unpolarized_for_spin0():
    unpol = MottParams(a=1.0, eta=SQRT2, spin=Spin(0))
    aligned = MottParams(a=1.0, eta=SQRT2, spin=Spin(0), polarization=Polarization.ALIGNED)
    for theta in (10.0, 45.0, 90.0, 133.0):
        assert identical_cross_section(theta, aligned) == pytest.approx(
            identical_cross_section(theta, unpol), rel=0
        )


@settings(max_examples=60, deadline=None)
@given(
    theta=st.floats(min_value=1.0, max_value=89.9),
    eta=st.floats(min_value=0.1, max_value=10.0),
    twice_s=st.integers(min_value=0, max_value=6),
)
def test_symmetry_about_90(theta, eta, twice_s):
    spin = Spin(twice_s)
    p = MottParams(a=1.0, eta=eta, spin=spin)
    left = identical_cross_section(theta, p)
    right = identical_cross_section(180.0 - theta, p)
    assert right == pytest.approx(left, rel=1e-10)


@settings(max_examples=60, deadline=None)
@given(
    theta=st.floats(min_value=1.0, max_value=179.0),
    eta=st.floats(min_value=0.1, max_value=10.0),
)
def test_boson_positivity_and_am_gm_bound(theta, eta):
    # sigma_inc >= |sigma_int| for every angle (AM-GM), so bosons stay positive
    inc = sigma_inc_coulomb(theta, 1.0)
    intf = sigma_int_coulomb(theta, 1.0, eta)
    assert inc >= abs(intf) * (1.0 - 1e-12)
    p = MottParams(a=1.0, eta=eta, spin=Spin(0))
    assert identical_cross_section(theta, p) > 0.0


def test_classical_limit_suppresses_interference():
    # at 2s = 200 the interference weight is 1/201 < 1%
    spin = Spin(200)
    p = MottParams(a=1.0, eta=SQRT2, spin=spin)
    theta = 1.0
    while theta < 180.0:
        inc = sigma_inc_coulomb(theta, 1.0)
        full = identical_cross_section(theta, p)
        assert abs(full - inc) / inc < 0.01
        theta += 3.7


# ------------------------------------------------------------------- curvature

def test_curvature_closed_form_values():
    # 16 a^2 [(1 - 2 eta^2)/(2s+1) + 3]
    p = MottParams(a=1.0, eta=1.0, spin=Spin(0))
    assert curvature_at_90(p, Statistics.BOSON) == pytest.approx(32.0, rel=1e-12)
    p = MottParams(a=1.0, eta=SQRT2, spin=Spin(0))
    assert abs(curvature_at_90(p, Statistics.BOSON)) < 1e-12
    p = MottParams(a=1.0, eta=SQRT5, spin=Spin(2))
    assert abs(curvature_at_90(p, Statistics.BOSON)) < 1e-12
    p = MottParams(a=2.0, eta=1.0, spin=Spin(0))
    assert curvature_at_90(p, Statistics.BOSON) == pytest.approx(128.0, rel=1e-12)


@pytest.mark.parametrize("eta", [0.5, SQRT2, 3.0])
@pytest.mark.parametrize("twice_s", [0, 1, 2, 3, 9])
def test_curvature_closed_form_matches_finite_differences(eta, twice_s):
    spin = Spin(twice_s)
    for polarization in Polarization:
        p = MottParams(a=1.0, eta=eta, spin=spin, polarization=polarization)
        closed = curvature_at_90(p, spin.statistics)
        fd = curvature_at_90_fd(p)
        if abs(closed) < 1e-9:
            assert abs(fd - closed) < 1e-9
        else:
            assert fd == pytest.approx(closed, rel=1e-6)


@pytest.mark.parametrize(
    "twice_s,eta,expected",
    [(1, 1.0, 56.0), (3, 2.0, 76.0)],  # 16[3 - (1-2 eta^2)/(2s+1)], derived by hand
)
def test_fermion_curvature_matches_analytic(twice_s, eta, expected):
    p = MottParams(a=1.0, eta=eta, spin=Spin(twice_s))
    assert curvature_at_90(p, Statistics.FERMION) == pytest.approx(expected, rel=1e-6)


def test_fermion_curvature_always_positive():
    # no transverse isotropy for identical fermions in the Coulomb case
    for twice_s in (1, 3):
        spin = Spin(twice_s)
        for i in range(100):
            eta = 0.1 + i * (10.0 - 0.1) / 99.0
            p = MottParams(a=1.0, eta=eta, spin=spin)
            assert curvature_at_90(p, Statistics.FERMION) > 0.0


def test_curvature_finite_at_a_max_and_eta_max():
    for twice_s in (0, 1):
        spin = Spin(twice_s)
        for polarization in Polarization:
            p = MottParams(a=A_MAX, eta=ETA_MAX, spin=spin, polarization=polarization)
            assert math.isfinite(curvature_at_90(p, spin.statistics))


def test_curvature_sign_flips_across_critical():
    spin = Spin(0)
    below = MottParams(a=1.0, eta=0.9 * SQRT2, spin=spin)
    above = MottParams(a=1.0, eta=1.1 * SQRT2, spin=spin)
    assert curvature_at_90(below, Statistics.BOSON) > 0.0   # minimum at 90
    assert curvature_at_90(above, Statistics.BOSON) < 0.0   # maximum at 90


# ---------------------------------------------------------------- critical eta

def test_critical_eta_formula():
    assert critical_eta(Spin(0)) == pytest.approx(SQRT2, rel=1e-15)
    assert critical_eta(Spin(2)) == pytest.approx(SQRT5, rel=1e-15)
    assert critical_eta(Spin(4)) == pytest.approx(math.sqrt(8.0), rel=1e-15)


@pytest.mark.parametrize("twice_s", [0, 2, 4, 8])
def test_critical_eta_aligned_zeroes_the_curvature(twice_s):
    spin = Spin(twice_s)
    eta_c = critical_eta(spin, Polarization.ALIGNED)
    assert eta_c == SQRT2  # eta_C^2 = (1 + 3/w)/2 with w = 1
    p = MottParams(a=1.0, eta=eta_c, spin=spin, polarization=Polarization.ALIGNED)
    assert abs(curvature_at_90(p, Statistics.BOSON)) < 1e-12
    assert abs(curvature_at_90_fd(p)) < 1e-6


def test_critical_eta_numeric_matches_closed_form():
    # the numeric root ignores the closed forms entirely, so agreement
    # cross-checks the sign/argument conventions of the interference term
    assert abs(critical_eta_numeric(Spin(0), (0.5, 3.0)) - SQRT2) < 1e-6
    assert abs(critical_eta_numeric(Spin(2), (0.5, 4.0)) - SQRT5) < 1e-6


def test_critical_eta_numeric_no_root():
    with pytest.raises(RootNotFoundError):
        critical_eta_numeric(Spin(0), (3.0, 4.0))
    with pytest.raises(RootNotFoundError):
        critical_eta_numeric(Spin(1), (0.5, 4.0))  # fermions have no transition


def test_bisect_root_ends_at_float_resolution():
    # xtol = 0 is never met, and no float squares to exactly 2, so bisection
    # must stop once the bracket cannot be split (about 52 halvings)
    calls = []
    root = bisect_root(lambda x: calls.append(x) or x * x - 2.0, 1.0, 2.0, xtol=0.0)
    assert abs(root - SQRT2) <= math.ulp(SQRT2)
    assert len(calls) < 64
