"""Acceptance suite: one test (and one printed pass/fail line) per criterion.

Run with `pytest -s tests/test_acceptance.py` to see the report lines.
"""

import cmath
import math

import pytest

from mott_ti import (
    HardSphereParams,
    MottParams,
    Polarization,
    Spin,
    Statistics,
    angle_grid,
    build_curve,
    critical_eta,
    critical_eta_numeric,
    curvature_at_90,
    curvature_at_90_fd,
    find_critical_kR,
    hard_sphere_phase_shifts,
    hs_amplitude,
    hs_identical_cross_section,
    identical_cross_section,
    incoherent_cross_sections,
    legendre_p_table,
    plateau,
    sensitivity_sweep,
    spherical_bessel_j_table,
    spherical_bessel_y_table,
    table_one,
    builtin_catalog,
)
from reference import hs_total_cross_section

SQRT2 = math.sqrt(2.0)
SQRT5 = math.sqrt(5.0)


def report(name):
    """Print a pass/fail line for a criterion as the test finishes."""

    def decorator(fn):
        def wrapper():
            try:
                fn()
            except BaseException:
                print(f"[acceptance] {name}: FAIL")
                raise
            print(f"[acceptance] {name}: PASS")

        wrapper.__name__ = fn.__name__
        return wrapper

    return decorator


@report("1 critical-parameter")
def test_criterion_1_critical_parameter():
    assert critical_eta(Spin(0)) == pytest.approx(SQRT2, rel=1e-12)
    assert critical_eta(Spin(2)) == pytest.approx(SQRT5, rel=1e-12)
    # numeric root of the finite-difference curvature; also validates the
    # argument convention inside the interference cosine
    assert abs(critical_eta_numeric(Spin(0), (0.5, 3.0)) - SQRT2) < 1e-6
    assert abs(critical_eta_numeric(Spin(2), (0.5, 4.0)) - SQRT5) < 1e-6


@report("2 ninety-degree-values")
def test_criterion_2_ninety_degree_values():
    # sigma_inc(90) = sigma_int(90) = 2 a^2 for every eta: sigma_int is the
    # aligned spin-0 cross section (eps w = 1) less sigma_inc
    for eta in (0.5, SQRT2, 5.0):
        for a in (1.0, 7.25):
            (inc,) = incoherent_cross_sections((90.0,), a)
            aligned = MottParams(a=a, eta=eta, spin=Spin(0), polarization=Polarization.ALIGNED)
            sigma_int = identical_cross_section(90.0, aligned) - inc
            assert inc == pytest.approx(2 * a * a, rel=1e-10)
            assert sigma_int == pytest.approx(2 * a * a, rel=1e-10)
    params = MottParams(a=1.0, eta=SQRT2, spin=Spin(0))
    assert identical_cross_section(90.0, params) == pytest.approx(
        4.0, rel=1e-10
    )


@report("3 table-reproduction")
def test_criterion_3_table_reproduction():
    rows = {r.name: r for r in table_one(builtin_catalog())}
    published_ec = {"d": 5.0, "6Li": 1200.0, "alpha": 400.0}
    published_vb = {"d": 400.0, "6Li": 2500.0, "alpha": 1260.0}
    published_sigma90 = {"6Li": 1.17, "alpha": 2.3}
    for name, value in published_ec.items():
        assert rows[name].e_critical_kev == pytest.approx(value, rel=0.05)
    for name, value in published_vb.items():
        assert rows[name].barrier_kev == pytest.approx(value, rel=0.05)
    for name, value in published_sigma90.items():
        assert rows[name].sigma90_scaling_barn == pytest.approx(value, rel=0.10)
    # the d sigma90 entry is a documented inconsistency: excluded, but flagged
    assert rows["d"].note != ""
    assert rows["6Li"].note == "" and rows["alpha"].note == ""


@report("4 flatness")
def test_criterion_4_flatness():
    grid = angle_grid(1.0, 179.0, 0.5)
    curve0 = build_curve(MottParams(a=1.0, eta=SQRT2, spin=Spin(0)), grid)
    v90 = curve0.values[curve0.thetas.index(90.0)]
    for theta, value in zip(curve0.thetas, curve0.values):
        if 60.0 <= theta <= 120.0:
            assert abs(value / v90 - 1.0) <= 0.13
        if 66.0 <= theta <= 114.0:
            assert abs(value / v90 - 1.0) <= 0.05
    curve1 = build_curve(MottParams(a=1.0, eta=SQRT5, spin=Spin(2)), grid)
    rep = plateau(curve1, 0.05)
    assert rep.theta_lo <= 72.0 and rep.theta_hi >= 108.0


@report("5 sensitivity")
def test_criterion_5_sensitivity():
    below = MottParams(a=1.0, eta=0.95 * SQRT2, spin=Spin(0))
    at = MottParams(a=1.0, eta=SQRT2, spin=Spin(0))
    above = MottParams(a=1.0, eta=1.05 * SQRT2, spin=Spin(0))
    for params, sign in ((below, 1.0), (above, -1.0)):  # minimum, then maximum at 90
        assert sign * curvature_at_90(params, Statistics.BOSON) > 0.0
        assert sign * curvature_at_90_fd(params) > 0.0
    assert abs(curvature_at_90_fd(at)) < 1e-6  # a = 1
    result = sensitivity_sweep(Spin(0), 0.05, angle_grid(80.0, 100.0, 1.0))
    assert result.classifications == ("min", "flat", "max")
    assert result.energy_shift_first_order == pytest.approx(0.10)
    assert 0.08 < abs(result.energy_ratio_below) < 0.12
    assert 0.08 < abs(result.energy_ratio_above) < 0.12


@report("6 fermion-no-transverse-isotropy")
def test_criterion_6_fermion_no_ti():
    for twice_s in (1, 3):
        spin = Spin(twice_s)
        for i in range(100):
            eta = 0.1 + i * (10.0 - 0.1) / 99.0
            params = MottParams(a=1.0, eta=eta, spin=spin)
            assert curvature_at_90(params, Statistics.FERMION) > 0.0


@report("7 hard-sphere")
def test_criterion_7_hard_sphere():
    for kR in (0.5, 1.5, 3.0):
        shifts = hard_sphere_phase_shifts(kR)
        forward = 4.0 * math.pi / kR * hs_amplitude(0.0, shifts).imag
        assert forward == pytest.approx(hs_total_cross_section(shifts), rel=1e-8)
    aligned_fermions = HardSphereParams(
        kR=1.0, spin=Spin(1), statistics=Statistics.FERMION,
        polarization=Polarization.ALIGNED,
    )
    assert hs_identical_cross_section(90.0, aligned_fermions) == 0.0
    kr_boson = find_critical_kR(Spin(0), Statistics.BOSON, scan=(0.2, 3.0), step=0.05)
    assert kr_boson is not None and 1.0 <= kr_boson <= 2.0
    kr_fermion = find_critical_kR(Spin(9), Statistics.FERMION, scan=(0.2, 4.0), step=0.05)
    assert kr_fermion is not None and 1.7 <= kr_fermion <= 3.3
    assert find_critical_kR(Spin(1), Statistics.FERMION, scan=(0.2, 3.0), step=0.05) is None


@report("8 property-suites")
def test_criterion_8_property_suites():
    # theta <-> 180 - theta symmetry, Coulomb and hard sphere
    thetas = [1.0 + 2.5 * i for i in range(36)]  # up to 88.5, paired with 180-theta
    coulomb_cases = [
        MottParams(a=1.0, eta=0.7, spin=Spin(0)),
        MottParams(a=2.0, eta=SQRT2, spin=Spin(2)),
        MottParams(a=1.0, eta=3.0, spin=Spin(1)),
        MottParams(a=1.0, eta=1.2, spin=Spin(3), polarization=Polarization.ALIGNED),
    ]
    for params in coulomb_cases:
        for theta in thetas:
            left = identical_cross_section(theta, params)
            right = identical_cross_section(180.0 - theta, params)
            assert right == pytest.approx(left, rel=1e-10)
    hs_cases = [
        HardSphereParams(kR=1.5, spin=Spin(0), statistics=Statistics.BOSON),
        HardSphereParams(kR=2.5, spin=Spin(9), statistics=Statistics.FERMION),
    ]
    for params in hs_cases:
        for theta in thetas:
            left = hs_identical_cross_section(theta, params)
            right = hs_identical_cross_section(180.0 - theta, params)
            assert right == pytest.approx(left, rel=1e-10, abs=1e-14)

    # unpolarized average equals the (2s+1)-weighted channel mix (hard sphere),
    # with f(theta) and f(180 - theta) summed from two independent Legendre tables
    for kR in (0.8, 2.0):
        deltas = hard_sphere_phase_shifts(kR).deltas

        def f(theta):
            p = legendre_p_table(len(deltas) - 1, math.cos(math.radians(theta)))
            return sum((2 * l + 1) * cmath.exp(1j * d) * math.sin(d) * p[l]
                       for l, d in enumerate(deltas)) / kR

        for twice_s, stats in ((2, Statistics.BOSON), (9, Statistics.FERMION)):
            spin = Spin(twice_s)
            s, mult = spin.value, spin.multiplicity
            params = HardSphereParams(kR=kR, spin=spin, statistics=stats)
            for theta in (30.0, 75.0, 90.0):
                f1, f2 = f(theta), f(180.0 - theta)
                sym, anti = abs(f1 + f2) ** 2, abs(f1 - f2) ** 2
                if stats is Statistics.BOSON:
                    weighted = ((s + 1) * sym + s * anti) / mult
                else:
                    weighted = ((s + 1) * anti + s * sym) / mult
                assert hs_identical_cross_section(theta, params) == pytest.approx(
                    weighted, rel=1e-10, abs=1e-14
                )

    # classical limit: interference below 1% at 2s = 200
    big_spin = MottParams(a=1.0, eta=SQRT2, spin=Spin(200))
    for theta, inc in zip(thetas, incoherent_cross_sections(tuple(thetas), 1.0)):
        full = identical_cross_section(theta, big_spin)
        assert abs(full - inc) / inc < 0.01

    # Bessel Wronskian j y' - j' y = 1/x^2 and Legendre endpoint identities
    for x in (0.5, 1.0, 5.0):
        j = spherical_bessel_j_table(11, x)
        y = spherical_bessel_y_table(11, x)
        jm1, ym1 = math.cos(x) / x, math.sin(x) / x
        for l in range(11):
            jp = (jm1 if l == 0 else j[l - 1]) - (l + 1) / x * j[l]
            yp = (ym1 if l == 0 else y[l - 1]) - (l + 1) / x * y[l]
            assert (j[l] * yp - jp * y[l]) * x * x == pytest.approx(1.0, rel=1e-10)
    for p_l in legendre_p_table(20, 1.0):
        assert p_l == pytest.approx(1.0, rel=1e-10)
    at_zero = legendre_p_table(3, 0.0)
    assert at_zero[2] == pytest.approx(-0.5, rel=1e-12)
    assert at_zero[3] == 0.0
