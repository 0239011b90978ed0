import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mott_ti import (
    CollisionSystem,
    DEFAULT_CONSTANTS,
    DomainError,
    ParticleSpecies,
    Spin,
    critical_energy,
    critical_eta,
    energy_from_eta,
    half_closest_approach,
    sommerfeld_eta,
    wavenumber,
)

# Species with the masses used in the worked examples (not the A x amu defaults).
ALPHA_EX = ParticleSpecies(name="alpha", z=2, mass=3727.4, spin=Spin(0))
DEUTERON_EX = ParticleSpecies(name="d", z=1, mass=1876.0, spin=Spin(2))
ALPHA = ParticleSpecies(name="alpha", z=2, mass=4 * DEFAULT_CONSTANTS.amu, spin=Spin(0))
LI6 = ParticleSpecies(name="6Li", z=3, mass=6 * DEFAULT_CONSTANTS.amu, spin=Spin(2))
DEUTERON = ParticleSpecies(name="d", z=1, mass=2 * DEFAULT_CONSTANTS.amu, spin=Spin(2))


def test_sommerfeld_eta_alpha_400kev():
    # frozen from (q^2/hbar_c) sqrt(M/4E) evaluated at 30 digits with mpmath
    eta = sommerfeld_eta(CollisionSystem(ALPHA_EX, 400.0))
    assert eta == pytest.approx(1.4088615466713580, rel=1e-12)


def test_sommerfeld_eta_equals_sqrt2_at_critical_energy():
    e_c = critical_energy(ALPHA_EX)
    eta = sommerfeld_eta(CollisionSystem(ALPHA_EX, e_c))
    assert eta == pytest.approx(math.sqrt(2.0), rel=1e-12)


def test_sommerfeld_eta_dd_5kev_near_sqrt5():
    eta = sommerfeld_eta(CollisionSystem(DEUTERON_EX, 5.0))
    assert eta == pytest.approx(2.2349444568258354, rel=1e-12)  # frozen, mpmath
    assert abs(eta - math.sqrt(5.0)) / math.sqrt(5.0) < 0.01


def test_energy_from_eta_alpha_sqrt2():
    # frozen: M q^4 / (4 hbar_c^2 eta^2) with M=3727.4, q^2=5.759858
    e = energy_from_eta(ALPHA_EX, math.sqrt(2.0))
    assert e == pytest.approx(396.97817153784223, rel=1e-12)
    assert e == pytest.approx(400.0, rel=0.01)  # published rounding


def test_energy_from_eta_li6_sqrt5():
    e = energy_from_eta(LI6, math.sqrt(5.0))
    assert e == pytest.approx(1205.3606586596284, rel=1e-12)
    assert e == pytest.approx(1200.0, rel=0.01)


@pytest.mark.parametrize("eta0", [0.1, 1.0, math.sqrt(2.0), math.sqrt(5.0), 10.0])
def test_eta_energy_round_trip(eta0):
    e = energy_from_eta(ALPHA, eta0)
    eta = sommerfeld_eta(CollisionSystem(ALPHA, e))
    assert eta == pytest.approx(eta0, rel=1e-12)


@settings(max_examples=50, deadline=None)
@given(eta0=st.floats(min_value=0.05, max_value=50.0))
def test_eta_energy_round_trip_property(eta0):
    e = energy_from_eta(DEUTERON, eta0)
    assert sommerfeld_eta(CollisionSystem(DEUTERON, e)) == pytest.approx(eta0, rel=1e-12)


def test_half_closest_approach_values():
    assert half_closest_approach(
        CollisionSystem(ALPHA_EX, 397.0)
    ) == pytest.approx(7.2542292191435768, rel=1e-12)  # frozen: q^2/(2E)
    assert half_closest_approach(
        CollisionSystem(DEUTERON_EX, 5.0)
    ) == pytest.approx(143.99645, rel=1e-12)  # = e^2 / 0.01 exactly


def test_half_closest_approach_arithmetic_identity():
    # q^2 = 2 MeV fm, E = 1 MeV gives a = 1 fm; build q^2 via a fake constant set
    sp = ParticleSpecies(name="x", z=1, mass=1000.0, spin=Spin(0))
    a = half_closest_approach(CollisionSystem(sp, 1000.0))
    assert a == pytest.approx(sp.charge_squared() / 2.0, rel=1e-15)


def test_wavenumber_alpha_397kev():
    k = wavenumber(CollisionSystem(ALPHA_EX, 397.0))
    assert k == pytest.approx(0.19494485766709173, rel=1e-12)  # frozen: sqrt(ME)/hbar_c


def test_wavenumber_vanishes_with_energy():
    ks = [wavenumber(CollisionSystem(ALPHA, e)) for e in (1e-6, 1e-3, 1.0, 1e3)]
    assert all(k1 < k2 for k1, k2 in zip(ks, ks[1:]))
    assert ks[0] < 1e-5


def test_coulomb_identity_eta_equals_a_times_k():
    # eta = a k: (q^2/2E) sqrt(ME)/hbar_c = (q^2/hbar_c) sqrt(M/4E)
    energies = [1.0 * 1.7**i for i in range(19)] + [10_000.0]  # 1 keV .. 10 MeV
    for e in energies:
        sys = CollisionSystem(LI6, min(e, 10_000.0))
        eta = sommerfeld_eta(sys)
        ak = half_closest_approach(sys) * wavenumber(sys)
        assert ak == pytest.approx(eta, rel=1e-10)


def test_monotonicity_in_energy():
    energies = [1.0 * 1.5**i for i in range(20)]
    etas = [sommerfeld_eta(CollisionSystem(ALPHA, e)) for e in energies]
    a_s = [half_closest_approach(CollisionSystem(ALPHA, e)) for e in energies]
    ks = [wavenumber(CollisionSystem(ALPHA, e)) for e in energies]
    assert all(x > y for x, y in zip(etas, etas[1:]))
    assert all(x > y for x, y in zip(a_s, a_s[1:]))
    assert all(x < y for x, y in zip(ks, ks[1:]))


def test_critical_energy_matches_energy_from_eta():
    for sp in (ALPHA, LI6, DEUTERON):
        direct = critical_energy(sp)
        via_eta = energy_from_eta(sp, critical_eta(sp.spin))
        assert direct == pytest.approx(via_eta, rel=1e-12)


def test_critical_energy_table_values():
    # frozen from mpmath with A x amu masses
    assert critical_energy(DEUTERON) == pytest.approx(4.9603319286404460, rel=1e-12)
    assert critical_energy(ALPHA) == pytest.approx(396.82655429123568, rel=1e-12)
    assert critical_energy(LI6) == pytest.approx(1205.3606586596284, rel=1e-12)
    # published values: 5.0, 400, 1200 keV
    assert critical_energy(DEUTERON) == pytest.approx(5.0, rel=0.05)
    assert critical_energy(ALPHA) == pytest.approx(400.0, rel=0.05)
    assert critical_energy(LI6) == pytest.approx(1200.0, rel=0.05)


def test_domain_errors():
    with pytest.raises(DomainError):
        CollisionSystem(ALPHA, 0.0)
    with pytest.raises(DomainError):
        CollisionSystem(ALPHA, -4.0)
    with pytest.raises(DomainError):
        energy_from_eta(ALPHA, 0.0)
    with pytest.raises(DomainError):
        energy_from_eta(ALPHA, -1.0)


@pytest.mark.parametrize("eta", [math.nan, math.inf, -math.inf, 0.0, 1e-200,
                                 math.nextafter(0.0, 1.0), 1e-154, 1e154, 1e200])
def test_energy_from_eta_rejects_edges_of_its_domain(eta):
    # nan and inf used to come back as nan and 0.0; a tiny eta raised
    # ZeroDivisionError (eta**2 underflows), a huge one OverflowError, and
    # 1e-154 / 1e154 gave an infinite / zero energy
    with pytest.raises(DomainError):
        energy_from_eta(ALPHA, eta)
