import cmath
import math
from fractions import Fraction
from functools import cache, reduce
from operator import add, mul

import mpmath
import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import iv

from mott_ti import (
    DomainError,
    HardSphereParams,
    Polarization,
    Spin,
    Statistics,
    find_critical_kR,
    hard_sphere_phase_shifts,
    hs_amplitude,
    hs_cross_sections,
    hs_curvature_at_90,
    hs_identical_cross_section,
    legendre_p_table,
    spherical_bessel_j_table,
    spherical_bessel_y_table,
)
from mott_ti import hardsphere
from mott_ti.analysis import angle_grid, build_curve
from mott_ti.cli import main
from mott_ti.hardsphere import KR_MAX, KR_MIN, TRUNCATION_TOL
from mott_ti.numerics import (
    HALF_ANGLE_FACTOR,
    MAX_POINTS,
    bisect_root,
    half_angle_curvature,
    second_derivative,
)
from mott_ti.species import exchange_weight
from reference import (
    evaluated_points,
    hs_total_cross_section,
    scan_reference,
    two_pass_curvature_at_90,
    two_table_phase_shifts,
)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(log_kR=st.floats(math.log(KR_MIN), math.log(KR_MAX)))
def test_ladder_weights_have_the_bits_of_the_formula(log_kR):
    # the ladder builds w_l = (2l+1) e^{i d_l} sin(d_l) in its own loop, with
    # the bits of the formula applied to each shift afterwards
    shifts = hard_sphere_phase_shifts(min(max(math.exp(log_kR), KR_MIN), KR_MAX))
    assert shifts.weights == tuple(
        cmath.rect((2 * l + 1) * math.sin(d), d) for l, d in enumerate(shifts.deltas))


def test_s_wave_shift_is_minus_kR():
    for kR in (0.3, 1.0, 2.5, 7.0):
        shifts = hard_sphere_phase_shifts(kR)
        assert shifts.deltas[0] == -kR


def test_p_wave_shift_at_kR_1():
    # atan(j1(1)/y1(1)) = atan(0.301169/-1.381773), frozen from scipy
    shifts = hard_sphere_phase_shifts(1.0)
    assert shifts.deltas[1] == pytest.approx(-0.21460183660255172, rel=1e-12)


def test_truncation_reached_quickly_at_small_kR():
    shifts = hard_sphere_phase_shifts(0.5)
    assert shifts.l_max <= 15
    assert abs(math.sin(shifts.deltas[-1])) < 1e-12  # convergence witness


def test_shift_magnitudes_decay_in_truncation_tail():
    shifts = hard_sphere_phase_shifts(2.0)
    tail = [abs(d) for d in shifts.deltas[int(math.ceil(2.0)) + 1 :]]
    assert all(a > b for a, b in zip(tail, tail[1:]))


def test_phase_shifts_domain_error():
    with pytest.raises(DomainError):
        hard_sphere_phase_shifts(0.0)
    with pytest.raises(DomainError):
        hard_sphere_phase_shifts(-1.0)


@pytest.mark.parametrize("kR", [0.5, 1.5, 3.0])
def test_optical_theorem(kR):
    shifts = hard_sphere_phase_shifts(kR)
    sigma_from_forward = 4.0 * math.pi / kR * hs_amplitude(0.0, shifts).imag
    sigma_from_sum = hs_total_cross_section(shifts)
    assert sigma_from_forward == pytest.approx(sigma_from_sum, rel=1e-8)


def test_small_kR_isotropic_s_wave_limit():
    kR = 1e-3
    shifts = hard_sphere_phase_shifts(kR)
    expected = -math.sin(kR) * cmath.exp(-1j * kR)
    for theta in (30.0, 90.0, 150.0):
        kf = kR * hs_amplitude(theta, shifts)  # f is in units of R
        assert abs(kf - expected) < 1e-5 * abs(expected)


def test_total_cross_section_approaches_2piR2():
    shifts = hard_sphere_phase_shifts(10.0)
    sigma = hs_total_cross_section(shifts)
    assert abs(sigma - 2.0 * math.pi) <= 0.2 * 2.0 * math.pi  # within 20% at kR=10


def test_aligned_fermions_vanish_at_90_exactly():
    params = HardSphereParams(
        kR=1.0, spin=Spin(1), statistics=Statistics.FERMION,
        polarization=Polarization.ALIGNED,
    )
    assert hs_identical_cross_section(90.0, params) == 0.0


def test_aligned_bosons_equal_even_wave_sum():
    # |f(theta) + f(180-theta)|^2 = 4 |sum over even l|^2
    kR = 1.5
    shifts = hard_sphere_phase_shifts(kR)
    k = kR
    params = HardSphereParams(
        kR=kR, spin=Spin(0), statistics=Statistics.BOSON,
        polarization=Polarization.ALIGNED,
    )
    for theta in (20.0, 60.0, 90.0, 140.0):
        p = legendre_p_table(shifts.l_max, math.cos(math.radians(theta)))
        even = sum(
            (2 * l + 1) * cmath.exp(1j * d) * math.sin(d) * p[l]
            for l, d in enumerate(shifts.deltas)
            if l % 2 == 0
        ) / k
        direct = hs_identical_cross_section(theta, params)
        assert direct == pytest.approx(4.0 * abs(even) ** 2, rel=1e-10)


@pytest.mark.parametrize("twice_s,statistics", [
    (0, Statistics.BOSON),
    (2, Statistics.BOSON),
    (4, Statistics.BOSON),
    (1, Statistics.FERMION),
    (3, Statistics.FERMION),
    (9, Statistics.FERMION),
])
@pytest.mark.parametrize("kR", [0.8, 1.5, 2.5])
def test_unpolarized_equals_weighted_channel_sum(twice_s, statistics, kR):
    # (2s+1)-weighted mix of |f1+f2|^2 and |f1-f2|^2, roles set by statistics
    spin = Spin(twice_s)
    shifts = hard_sphere_phase_shifts(kR)
    s = spin.value
    mult = spin.multiplicity
    params = HardSphereParams(kR=kR, spin=spin, statistics=statistics)
    for theta in (25.0, 90.0, 117.5):
        # f(theta) and f(180 - theta) from one table, as P_l(-x) = (-1)^l P_l(x)
        p = legendre_p_table(shifts.l_max, math.cos(math.radians(theta)))
        terms = [(2 * l + 1) * cmath.exp(1j * d) * math.sin(d) * p[l]
                 for l, d in enumerate(shifts.deltas)]
        f1 = sum(terms) / kR
        f2 = sum(t if l % 2 == 0 else -t for l, t in enumerate(terms)) / kR
        sym = abs(f1 + f2) ** 2
        anti = abs(f1 - f2) ** 2
        if statistics is Statistics.BOSON:
            weighted = ((s + 1.0) * sym + s * anti) / mult
        else:
            weighted = ((s + 1.0) * anti + s * sym) / mult
        assert hs_identical_cross_section(theta, params) == pytest.approx(
            weighted, rel=1e-10, abs=1e-14
        )


def test_cross_section_symmetry_about_90():
    for params in (
        HardSphereParams(kR=1.5, spin=Spin(0), statistics=Statistics.BOSON),
        HardSphereParams(kR=2.5, spin=Spin(9), statistics=Statistics.FERMION),
        HardSphereParams(kR=0.7, spin=Spin(1), statistics=Statistics.FERMION,
                         polarization=Polarization.ALIGNED),
    ):
        for theta in (10.0, 35.5, 60.0, 89.0):
            # exact: these angles have exact float mirrors and the kernel is
            # exactly even in x = sin(90 - theta), which hs_cross_sections relies on
            assert hs_identical_cross_section(180.0 - theta, params) == \
                hs_identical_cross_section(theta, params)


def _point_channels(theta, shifts):
    """(E, O) at one signed x = sin(90 - theta): one Legendre table, sums left to right."""
    p, w = legendre_p_table(shifts.l_max, math.sin(math.radians(90.0 - theta))), shifts.weights
    return reduce(add, map(mul, w[0::2], p[0::2]), 0), reduce(add, map(mul, w[1::2], p[1::2]), 0)


@pytest.mark.parametrize("kR", [KR_MIN, 0.3, 1.5, 2.0, 25.0, 300.0, KR_MAX])
@pytest.mark.parametrize("grid", [
    angle_grid(),
    angle_grid(1.0, 179.0, 0.1),   # 503 of 890 pairs are not exact float mirrors
    angle_grid(60.0, 120.0, 0.3),  # 25 of 100 pairs are not exact float mirrors
    angle_grid(10.0, 80.0, 0.5),   # no mirrors at all
    angle_grid(100.0, 170.0, 0.5),  # only x < 0: the kernel steps |x|, the reference x
], ids=["default", "step0.1", "60-120", "10-80", "100-170"])
def test_curve_kernel_is_bit_identical_to_point_by_point(monkeypatch, grid, kR):
    # kR = 25 takes 43 waves from tables of 54.
    # The reference is one Legendre table per angle at the signed x, its sums
    # taken once per (grid, kR) and combined for all 8 spin/polarization cases.
    # The kernel's channel sums are memoized on the same key to keep the test
    # fast; each case still combines them on its own.
    kernel = hardsphere._channels
    memo = cache(lambda xs, weights: kernel(list(xs), weights))
    monkeypatch.setattr(hardsphere, "_channels",
                        lambda xs, weights: memo(tuple(xs), tuple(weights)))
    shifts = hard_sphere_phase_shifts(kR)
    squares = [(abs(e) ** 2, abs(o) ** 2) for e, o in (_point_channels(t, shifts) for t in grid)]
    for twice_s in (0, 1, 2, 9):
        for polarization in Polarization:
            spin = Spin(twice_s)
            params = HardSphereParams(kR=kR, spin=spin, statistics=spin.statistics,
                                      polarization=polarization)
            eps_w = exchange_weight(spin, polarization)
            reference = tuple(2.0 * ((e2 + eps_w * e2) + (o2 - eps_w * o2)) / kR**2
                              for e2, o2 in squares)
            assert build_curve(params, grid).values == reference
    for theta in (0.0, 30.0, 90.0, 150.0, 180.0):
        even, odd = _point_channels(theta, shifts)
        assert hs_amplitude(theta, shifts) == (even + odd) / kR


@pytest.mark.parametrize("waves", [1, 2, 3])
def test_amplitude_of_a_hand_built_set_with_fewer_waves_than_a_ladder(waves):
    # every ladder yields at least 4 waves; a PhaseShiftSet built by hand may
    # hold an s wave alone (O = 0), one pair, or one pair and an even wave
    shifts = hard_sphere_phase_shifts(0.3)
    few = hardsphere.PhaseShiftSet(kR=0.3, deltas=shifts.deltas[:waves],
                                   weights=shifts.weights[:waves])
    for theta in (0.0, 60.0, 90.0, 150.0, 180.0):
        even, odd = _point_channels(theta, few)
        assert hs_amplitude(theta, few) == (even + odd) / 0.3


@pytest.mark.parametrize("grid, columns", [
    (angle_grid(), 179),                 # 178 exact mirror pairs and 90 deg
    (angle_grid(1.0, 179.0, 0.1), 1394),  # one column per distinct |cos theta|
    (angle_grid(10.0, 80.0, 0.5), 141),   # no mirrors: every point
])
def test_curve_kernel_evaluation_counts(monkeypatch, grid, columns):
    # one ladder (one j table) and one kernel call per curve: no
    # PhaseShiftSet is built
    calls = {"columns": [], "tables": 0, "shifts": 0, "ladders": 0}
    kernel, shifts = hardsphere._channels, hardsphere.hard_sphere_phase_shifts
    j_table = hardsphere.spherical_bessel_j_table

    def counted_kernel(xs, weights):
        calls["columns"].append(len(xs))
        return kernel(xs, weights)

    def counted_ladder(l_max, x):
        calls["ladders"] += 1
        return j_table(l_max, x)

    def counted_table(l_max, x):
        calls["tables"] += 1
        return legendre_p_table(l_max, x)

    def counted_shifts(kR):
        calls["shifts"] += 1
        return shifts(kR)

    monkeypatch.setattr(hardsphere, "_channels", counted_kernel)
    # hardsphere imports no legendre_p_table; set one anyway, so a table call that
    # comes back into the module is counted
    monkeypatch.setattr(hardsphere, "legendre_p_table", counted_table, raising=False)
    monkeypatch.setattr(hardsphere, "hard_sphere_phase_shifts", counted_shifts)
    monkeypatch.setattr(hardsphere, "spherical_bessel_j_table", counted_ladder)
    build_curve(HardSphereParams(kR=1.5, spin=Spin(0), statistics=Statistics.BOSON), grid)
    assert calls == {"columns": [columns], "tables": 0, "shifts": 0, "ladders": 1}


def test_truncation_robustness_doubling_l_max():
    # the reference sums twice as many waves, delta_l = atan2(j_l, y_l)
    for kR in (0.5, 1.5, 3.0, 30.0, 100.0, 300.0):
        auto = hard_sphere_phase_shifts(kR)
        assert abs(math.sin(auto.deltas[-1])) < TRUNCATION_TOL
        l_max = 2 * auto.l_max
        j = spherical_bessel_j_table(l_max, kR)
        y = spherical_bessel_y_table(l_max, kR)
        weights = [cmath.rect((2 * l + 1) * math.sin(d), d)
                   for l, d in enumerate(map(math.atan2, j, y))]

        def f(theta):
            p = legendre_p_table(l_max, math.cos(math.radians(theta)))
            return sum(w * pl for w, pl in zip(weights, p)) / kR

        params = HardSphereParams(kR=kR, spin=Spin(0), statistics=Statistics.BOSON)
        for theta in (30.0, 90.0):
            reference = abs(f(theta) + f(180.0 - theta)) ** 2
            assert hs_identical_cross_section(theta, params) == pytest.approx(reference, rel=1e-9)


def test_automatic_ladder_converges_up_to_kR_max():
    # log grid from KR_MIN to KR_MAX, both ends included
    n = 36
    grid = [KR_MIN] + [KR_MIN * (KR_MAX / KR_MIN) ** (i / n) for i in range(1, n)] + [KR_MAX]
    for kR in grid:
        shifts = hard_sphere_phase_shifts(kR)
        assert shifts.l_max > kR
        assert abs(math.sin(shifts.deltas[-1])) < TRUNCATION_TOL
        assert all(math.isfinite(d) for d in shifts.deltas)


# the zeros of j_1 and j_2, where the threshold kR^5/45 does not vanish
_J1_J2_ZEROS = [4.4934094579090642, 5.76345919689455, 7.7252518369377072, 9.0950113304763552]


def test_ladder_stops_below_its_cap(monkeypatch):
    # one j table per call, to the cap ceil(kR + 8 max(kR, 1)^(1/3)) + 4, and
    # no y table; the stop lies at least 5 waves below the cap on a dense log
    # grid and at the zeros of j_1 and j_2, where the threshold kR^5/45 does
    # not vanish
    caps = {"j": [], "y": []}
    j_table = hardsphere.spherical_bessel_j_table
    monkeypatch.setattr(hardsphere, "spherical_bessel_j_table",
                        lambda l_max, x: caps["j"].append(l_max) or j_table(l_max, x))
    # hardsphere imports no y table; set one anyway, so a y table that comes
    # back into the module is counted
    y_table = spherical_bessel_y_table
    monkeypatch.setattr(hardsphere, "spherical_bessel_y_table",
                        lambda l_max, x: caps["y"].append(l_max) or y_table(l_max, x),
                        raising=False)
    n = 2000
    grid = [min(KR_MIN * (KR_MAX / KR_MIN) ** (i / n), KR_MAX) for i in range(n + 1)]
    for kR in grid + _J1_J2_ZEROS:
        caps["j"].clear()
        shifts = hard_sphere_phase_shifts(kR)
        (cap,) = caps["j"]
        assert cap == math.ceil(kR + 8.0 * max(kR, 1.0) ** (1.0 / 3.0)) + 4
        assert caps["y"] == []
        assert cap - shifts.l_max >= 5, kR
        assert shifts.l_max >= 3


def test_ladder_has_the_bits_of_the_two_table_ladder():
    # stepping y_l inside the ladder keeps every shift and weight of the
    # j and y tables it replaced
    n = 2000
    grid = [min(KR_MIN * (KR_MAX / KR_MIN) ** (i / n), KR_MAX) for i in range(n + 1)]
    for kR in grid + _J1_J2_ZEROS:
        shifts, reference = hard_sphere_phase_shifts(kR), two_table_phase_shifts(kR)
        assert shifts.deltas == reference.deltas, kR
        assert shifts.weights == reference.weights, kR


def test_curvature_has_the_bits_of_the_two_pass_sum():
    # summing f, f' and f'' as the waves arrive keeps each sum's order
    eps_ws = (1.0, 1.0 / 3.0, 1.0 / 5.0, 1.0 / 10.0, -1.0 / 4.0, -1.0 / 2.0, -1.0 / 10.0, -1.0)
    n = 1000
    grid = [min(KR_MIN * (10.0 / KR_MIN) ** (i / n), 10.0) for i in range(n + 1)]
    for kR in grid + _J1_J2_ZEROS:
        for eps_w in eps_ws:
            assert hardsphere._curvature_at_90(kR, eps_w) == two_pass_curvature_at_90(kR, eps_w)


def test_ladder_y_stays_finite_up_to_its_cap():
    # the ladder steps y_l with the operations of spherical_bessel_y_table
    # (the shifts above have its bits); up to the cap the table stays finite
    # on all of [KR_MIN, KR_MAX], its largest value being about 1e97 at
    # KR_MIN, so the table's overflow guard has nothing to catch there
    n = 200
    largest = {}
    for kR in [min(KR_MIN * (KR_MAX / KR_MIN) ** (i / n), KR_MAX) for i in range(n + 1)]:
        y = spherical_bessel_y_table(math.ceil(kR + 8.0 * max(kR, 1.0) ** (1.0 / 3.0)) + 4, kR)
        assert all(map(math.isfinite, y)), kR
        largest[kR] = max(map(abs, y))
    assert max(largest, key=largest.get) == KR_MIN
    assert 1e96 < largest[KR_MIN] < 1e98


def _mp_shifts(kR, l_max):
    """delta_0..delta_{l_max} at kR from mpmath's half-integer Bessel functions, in (-pi/2, pi/2)."""
    x = mpmath.mpf(kR)
    return [mpmath.atan(mpmath.besselj(l + 0.5, x) / mpmath.bessely(l + 0.5, x))
            for l in range(l_max + 1)]


def _mp_curvature(kR, eps_w):
    """_curvature_at_90 at 40 digits from the mpmath shifts, up to 10 waves past the ladder."""
    with mpmath.workdps(40):
        f = df = d2f = mpmath.mpc(0)
        for l, d in enumerate(_mp_shifts(kR, hard_sphere_phase_shifts(kR).l_max + 10)):
            w = (2 * l + 1) * mpmath.expj(d) * mpmath.sin(d)
            f += w * mpmath.legendre(l, 0)
            if l > 0:
                df += w * l * mpmath.legendre(l - 1, 0)
            d2f -= w * l * (l + 1) * mpmath.legendre(l, 0)
        re_f2f, slope2 = mpmath.re(d2f * mpmath.conj(f)), abs(df) ** 2
        d2 = 4 * (re_f2f + slope2) + eps_w * 4 * (re_f2f - slope2)
        return HALF_ANGLE_FACTOR * d2 / mpmath.mpf(kR) ** 2


_ORACLE_KR = [KR_MIN * (30.0 / KR_MIN) ** (i / 29) for i in range(30)]


@pytest.mark.parametrize("kR", _ORACLE_KR, ids=[f"{kR:.3g}" for kR in _ORACLE_KR])
def test_phase_shifts_and_curvature_match_mpmath(kR):
    # every shift to a few ulps (relative below kR = 1, where none is near a
    # zero of j_l); the curvature relative to the larger of it and its values
    # at eps w = +-1, its A +- B, so a kR near a zero of one mix does not blow
    # the ratio up.  Below kR = 0.2 the curvature's leading waves are shifts
    # far below ulp(pi), which only an atan2 that lands in range keeps.
    shifts = hard_sphere_phase_shifts(kR)
    with mpmath.workdps(40):
        exact = _mp_shifts(kR, shifts.l_max)
    for d, e in zip(shifts.deltas[1:], exact[1:]):
        assert abs(d - e) <= 1e-15 * (abs(e) if kR < 1.0 else 1.0)
    reference = {eps_w: _mp_curvature(kR, eps_w) for eps_w in (1.0, -1.0, 1.0 / 3.0, -0.5)}
    scale = max(abs(reference[1.0]), abs(reference[-1.0]))
    for eps_w, value in reference.items():
        error = abs(hardsphere._curvature_at_90(kR, eps_w) - value) / max(abs(value), scale)
        assert error <= (2e-15 if kR <= 0.2 else 1e-12), eps_w


_XS_THETAS = (1.0, 30.0, 60.0, 89.5, 90.0, 150.0)


@cache
def _mp_cross_sections(kR):
    """{theta: (sigma at eps w = +1, at -1)} at 40 digits, at hardsphere._cos(theta) itself.

    The shifts, 10 waves past the ladder, come from the upward recurrences
    of j_l and y_l at 80 digits: from kR = 10 on, j_l/y_l keeps 40 digits to
    there.  P_l steps by its three-term recurrence, as mpmath.legendre takes
    seconds per call at l ~ 1000.
    """
    with mpmath.workdps(80):
        x = mpmath.mpf(kR)
        sin_x, cos_x = mpmath.sin(x), mpmath.cos(x)
        j = (sin_x / x, sin_x / x**2 - cos_x / x)  # j_l, j_{l+1}
        y = (-cos_x / x, -cos_x / x**2 - sin_x / x)
        deltas = []
        for l in range(hard_sphere_phase_shifts(kR).l_max + 11):
            deltas.append(mpmath.atan(j[0] / y[0]))
            j = (j[1], (2 * l + 3) / x * j[1] - j[0])
            y = (y[1], (2 * l + 3) / x * y[1] - y[0])
    out = {}
    with mpmath.workdps(40):
        for theta in _XS_THETAS:
            c = mpmath.mpf(abs(hardsphere._cos(theta)))
            even = odd = mpmath.mpc(0)
            q, p = mpmath.mpf(0), mpmath.mpf(1)  # P_{l-1}, P_l
            for l, d in enumerate(deltas):
                term = (2 * l + 1) * mpmath.expj(d) * mpmath.sin(d) * p
                if l % 2:
                    odd += term
                else:
                    even += term
                q, p = p, ((2 * l + 1) * c * p - l * q) / (l + 1)
            e2, o2 = abs(even) ** 2, abs(odd) ** 2
            out[theta] = tuple(2 * ((1 + s) * e2 + (1 - s) * o2) / mpmath.mpf(kR) ** 2
                               for s in (1, -1))
    return out


@pytest.mark.parametrize("kR", [10.0, 30.0, 100.0, 300.0, 1000.0])
@pytest.mark.parametrize("spin,polarization,eps_w", [
    (Spin(0), Polarization.UNPOLARIZED, 1),
    (Spin(1), Polarization.ALIGNED, -1),
], ids=["eps_w+1", "eps_w-1"])
def test_cross_sections_match_mpmath_up_to_kr_max(kR, spin, polarization, eps_w):
    # the bound stated in hs_cross_sections, relative to the larger of the
    # values at eps w = +-1 at that angle
    params = HardSphereParams(kR=kR, spin=spin, statistics=spin.statistics,
                              polarization=polarization)
    reference = _mp_cross_sections(kR)
    for theta, value in zip(_XS_THETAS, hardsphere.hs_cross_sections(_XS_THETAS, params)):
        plus, minus = reference[theta]
        exact = plus if eps_w == 1 else minus
        assert abs(value - exact) <= 5e-12 * max(plus, minus), theta


@pytest.mark.parametrize("twice_s, polarization, limit", [
    (0, Polarization.UNPOLARIZED, 32.0 / 3.0),  # eps w = 1
    (1, Polarization.ALIGNED, 32.0),            # eps w = -1
    (1, Polarization.UNPOLARIZED, 80.0 / 3.0),  # eps w = -1/2
])
def test_curvature_follows_the_threshold_law(twice_s, polarization, limit):
    # delta_l ~ -x^{2l+1}/((2l+1)!! (2l-1)!!) (DLMF 10.52) gives the curvature
    # kR^4 [16 (1 - eps w) + (16/3)(1 + eps w)] as kR -> 0, up to O(kR^2)
    spin = Spin(twice_s)
    for kR in (KR_MIN, 1e-5, 1e-4):
        params = HardSphereParams(kR=kR, spin=spin, statistics=spin.statistics,
                                  polarization=polarization)
        assert hs_curvature_at_90(params) / kR**4 == pytest.approx(limit, rel=1e-7)


def test_critical_kR_does_not_depend_on_a_small_lo():
    # spin 0's root 1.44677067 from every lo up to the bracket, to a few ulps
    root = find_critical_kR(Spin(0), Statistics.BOSON, scan=(0.2, 3.0))
    for i in range(41):
        lo = KR_MIN * (1.4 / KR_MIN) ** (i / 40)
        assert abs(find_critical_kR(Spin(0), Statistics.BOSON, scan=(lo, 3.0)) - root) \
            <= 4 * math.ulp(root), lo


@pytest.mark.parametrize("argv, line", [
    (["plateau", "--kr", "0.0001", "--spin", "0"], "# curvature_90=1.06666666e-15"),
    (["hardsphere", "--spin", "0", "--critical-scan", "0.001", "3"], "# critical_kR=1.44677067"),
    (["hardsphere", "--spin", "0", "--critical-scan", "0.00001", "3"], "# critical_kR=1.44677067"),
])
def test_cli_keeps_the_small_kR_digits(argv, line):
    # mpmath: curvature 1.0666666570e-15 at kR = 1e-4 (the kR^4 term alone
    # would round to ...67), and the scans find the root, not their lo
    result = CliRunner().invoke(main, argv, env={"MOTT_TI_CONSTANTS": None})
    assert result.exit_code == 0
    assert line in result.stdout.splitlines()


def test_kR_above_bound_rejected():
    for outside in (math.nextafter(KR_MAX, math.inf), math.nextafter(KR_MIN, 0.0)):
        with pytest.raises(DomainError):
            HardSphereParams(kR=outside, spin=Spin(0), statistics=Statistics.BOSON)
        with pytest.raises(DomainError):
            hard_sphere_phase_shifts(outside)
    HardSphereParams(kR=KR_MAX, spin=Spin(0), statistics=Statistics.BOSON)
    HardSphereParams(kR=KR_MIN, spin=Spin(0), statistics=Statistics.BOSON)


def _reference_cross_section(theta, kR, spin, polarization):
    """|f1 +- f2|^2 or its (2s+1)-weighted mix from two independent Legendre tables."""
    shifts = hard_sphere_phase_shifts(kR)

    def f(t):
        p = legendre_p_table(shifts.l_max, math.cos(math.radians(t)))
        return sum(
            (2 * l + 1) * cmath.exp(1j * d) * math.sin(d) * p[l]
            for l, d in enumerate(shifts.deltas)
        ) / kR

    f1, f2 = f(theta), f(180.0 - theta)
    sign = 1.0 if spin.statistics is Statistics.BOSON else -1.0
    if polarization is Polarization.ALIGNED:
        return abs(f1 + sign * f2) ** 2
    interference = 2.0 * (f1.conjugate() * f2).real
    return abs(f1) ** 2 + abs(f2) ** 2 + sign * interference / (2 * spin.value + 1)


@pytest.mark.parametrize("kR", [0.3, 1.5, 8.0, 16.0])
@pytest.mark.parametrize("twice_s", [0, 1, 2, 9])
@pytest.mark.parametrize("polarization", list(Polarization))
def test_channel_kernel_matches_two_table_reference(kR, twice_s, polarization):
    spin = Spin(twice_s)
    params = HardSphereParams(kR=kR, spin=spin, statistics=spin.statistics,
                              polarization=polarization)
    scale = 4.0 * _reference_cross_section(90.0, kR, Spin(0), Polarization.UNPOLARIZED)
    for theta in (0.5, 30.0, 89.99, 90.0, 150.0, 179.5):
        ref = _reference_cross_section(theta, kR, spin, polarization)
        value = hs_identical_cross_section(theta, params)
        assert abs(value - ref) <= 1e-12 * max(abs(ref), scale), theta


@pytest.mark.parametrize("theta", [-1e-9, 180.0000001, math.nan])
def test_amplitude_rejects_angles_outside_0_180(theta):
    with pytest.raises(DomainError, match=r"\[0, 180\]"):
        hs_amplitude(theta, hard_sphere_phase_shifts(1.0))


def test_endpoints_rejected_for_symmetrized_cross_section():
    params = HardSphereParams(kR=1.0, spin=Spin(0), statistics=Statistics.BOSON)
    with pytest.raises(DomainError):
        hs_identical_cross_section(0.0, params)
    with pytest.raises(DomainError):
        hs_identical_cross_section(180.0, params)


def test_statistics_mismatch_raises():
    with pytest.raises(DomainError):
        HardSphereParams(kR=1.0, spin=Spin(0), statistics=Statistics.FERMION)
    with pytest.raises(DomainError):
        find_critical_kR(Spin(0), Statistics.FERMION)


@pytest.mark.parametrize("polarization", list(Polarization))
@pytest.mark.parametrize("twice_s", range(10))
def test_omitting_statistics_changes_no_result(twice_s, polarization):
    # the statistics argument is optional and only checked: the record stores
    # the spin's, so every cross section and root keeps its bits
    spin = Spin(twice_s)
    grid = (30.0, 89.5, 90.0, 151.0)
    for kR in (0.3, 1.5, 4.0):
        given = HardSphereParams(kR, spin, spin.statistics, polarization)
        omitted = HardSphereParams(kR, spin, polarization=polarization)
        assert omitted == given and omitted.statistics is spin.statistics
        assert hs_cross_sections(grid, omitted) == hs_cross_sections(grid, given)
    scan = {"scan": (0.2, 3.0), "step": 0.05, "polarization": polarization}
    assert find_critical_kR(spin, **scan) == find_critical_kR(spin, spin.statistics, **scan)


@pytest.mark.parametrize("kR", [math.nan, math.inf, -1.0])
def test_params_reject_bad_kR(kR):
    with pytest.raises(DomainError):
        HardSphereParams(kR=kR, spin=Spin(0), statistics=Statistics.BOSON)


@pytest.mark.parametrize("kR", [0.2, 0.5, 1.0, 1.447, 2.47, 4.0, 7.0, 10.0])
@pytest.mark.parametrize("twice_s", [0, 1, 2, 9])
@pytest.mark.parametrize("polarization", list(Polarization))
def test_exact_curvature_matches_finite_differences(kR, twice_s, polarization):
    spin = Spin(twice_s)
    params = HardSphereParams(kR=kR, spin=spin, statistics=spin.statistics,
                              polarization=polarization)
    exact = hs_curvature_at_90(params)
    fd = half_angle_curvature(second_derivative(
        lambda t: hs_identical_cross_section(t, params), 90.0, 0.25))
    scale = max(abs(exact), 4.0 * hs_identical_cross_section(90.0, params))
    assert abs(exact - fd) <= 1e-7 * scale


def _curvature_from_the_table(params):
    """hs_curvature_at_90 as it was written with a legendre_p_table at x = 0 and all l."""
    shifts = hard_sphere_phase_shifts(params.kR)
    p = legendre_p_table(shifts.l_max, 0.0)
    f = df = d2f = 0.0 + 0.0j
    for l, w in enumerate(shifts.weights):
        f += w * p[l]
        if l > 0:
            df += w * l * p[l - 1]
        d2f -= w * l * (l + 1) * p[l]
    re_f2f = (d2f * f.conjugate()).real
    slope2 = abs(df) ** 2
    eps_w = exchange_weight(params.spin, params.polarization)
    d2 = 4.0 * (re_f2f + slope2) + eps_w * (4.0 * (re_f2f - slope2))
    return HALF_ANGLE_FACTOR * d2 / params.kR**2


@settings(max_examples=150, deadline=None, derandomize=True)
@given(log_kR=st.floats(math.log(KR_MIN), math.log(KR_MAX)))
def test_curvature_keeps_the_bits_of_the_table_form(log_kR):
    # the even-l loop steps P_l(0) with the table's own operations and skips
    # only terms that are exactly 0, so every value keeps its bits
    kR = min(max(math.exp(log_kR), KR_MIN), KR_MAX)
    for twice_s in range(10):
        spin = Spin(twice_s)
        for polarization in Polarization:
            params = HardSphereParams(kR=kR, spin=spin, statistics=spin.statistics,
                                      polarization=polarization)
            assert hs_curvature_at_90(params) == _curvature_from_the_table(params)


@pytest.mark.parametrize("twice_s", [0, 2, 4, 9, 19])
@pytest.mark.parametrize("polarization", list(Polarization))
def test_critical_kR_has_the_digits_of_a_long_bisection(monkeypatch, twice_s, polarization):
    spin = Spin(twice_s)

    def curv(kR):
        return hs_curvature_at_90(HardSphereParams(kR=kR, spin=spin, statistics=spin.statistics,
                                                   polarization=polarization))

    brackets = []
    finder = hardsphere.bisect_root
    monkeypatch.setattr(hardsphere, "bisect_root",
                        lambda f, lo, hi, f_lo, f_hi: brackets.append((lo, hi))
                        or finder(f, lo, hi, f_lo, f_hi))
    root = find_critical_kR(spin, spin.statistics, scan=(0.2, 3.0), step=0.05,
                            polarization=polarization)
    if root is None:  # aligned fermions: sigma(90) = 0 is a minimum at every kR
        assert spin.statistics is Statistics.FERMION and polarization is Polarization.ALIGNED
        assert brackets == []
        return
    (lo, hi), = brackets
    f_lo = curv(lo)
    for _ in range(60):  # 60 halvings of a step of 0.05 reach float resolution
        mid = 0.5 * (lo + hi)
        if (curv(mid) > 0.0) == (f_lo > 0.0):
            lo = mid
        else:
            hi = mid
    assert abs(root - lo) <= 1e-13
    assert f"{root:.9g}" == f"{lo:.9g}"


def test_critical_kR_search_evaluates_each_kR_once(monkeypatch):
    # spin 0 on (0.2, 3.0): nothing up to 1.40, the last scan point at or
    # below the certified bound 1.44, then the bracket (1.40, 1.45) and the
    # finder, which takes both bracket ends from the scan
    visited = []
    curvature = hardsphere._curvature_at_90
    monkeypatch.setattr(hardsphere, "_curvature_at_90",
                        lambda kR, eps_w: visited.append(kR) or curvature(kR, eps_w))
    root = find_critical_kR(Spin(0), Statistics.BOSON, scan=(0.2, 3.0), step=0.05)
    assert 1.4 < root < 1.45
    assert visited[:2] == pytest.approx([1.4, 1.45], abs=1e-12)
    assert 2 < len(visited) <= 2 + 10
    assert len(set(visited)) == len(visited)


@pytest.mark.parametrize("twice_s, evaluations", [(0, 8), (2, 8), (4, 7), (6, 7), (8, 8), (9, 12)])
def test_critical_kR_search_evaluation_counts(monkeypatch, twice_s, evaluations):
    # unpolarized on (0.2, 3.0), step 0.05: the bracket's two ends, the first
    # grid points past the certified bound, and the finder's points; before
    # the rows for 2s = 4, 6, 8 and 9 and the finder's probe these were 8, 8,
    # 9, 24, 12 and 17
    visited = _count_calls(monkeypatch, "_curvature_at_90")
    spin = Spin(twice_s)
    assert find_critical_kR(spin, spin.statistics, scan=(0.2, 3.0), step=0.05) is not None
    assert len(visited) == evaluations


def test_finder_probes_once_where_the_secant_lands_on_an_end():
    # spin 3 unpolarized (eps w = 1/7): the third iterate meets the root to
    # C = -2.5e-15 and the next secant point rounds onto hi.  One probe 2 ulps
    # in ends the search, where 33 midpoints from the far side took 36
    # evaluations
    lo, hi = 2.014972284467493, 2.0697368502619695
    calls = []

    def curv(kR):
        calls.append(kR)
        return hardsphere._curvature_at_90(kR, 1.0 / 7.0)

    f_lo, f_hi = curv(lo), curv(hi)
    calls.clear()
    root = bisect_root(curv, lo, hi, f_lo, f_hi)
    assert repr(root) == "2.056097993741009"
    assert len(calls) <= 6


def test_critical_kR_bosons_spin0():
    root = find_critical_kR(Spin(0), Statistics.BOSON, scan=(0.2, 3.0), step=0.05)
    assert root is not None
    assert 1.0 <= root <= 2.0          # published one-significant-figure value: 1.5


def test_critical_kR_fermions_spin_9_2():
    root = find_critical_kR(Spin(9), Statistics.FERMION, scan=(0.2, 4.0), step=0.05)
    assert root is not None
    assert 1.7 <= root <= 3.3          # published order-of-magnitude value: 2.5


def test_no_critical_kR_for_spin_half_fermions():
    assert find_critical_kR(Spin(1), Statistics.FERMION, scan=(0.2, 3.0), step=0.05) is None


def test_find_critical_kR_returns_smallest_root():
    # the s=9/2 scan has a second sign change near kR ~ 2.7
    root = find_critical_kR(Spin(9), Statistics.FERMION, scan=(0.2, 4.0), step=0.05)
    assert root == pytest.approx(2.47, abs=0.05)
    assert hs_curvature_at_90(
        HardSphereParams(kR=root - 0.1, spin=Spin(9), statistics=Statistics.FERMION)
    ) > 0.0


@pytest.mark.xfail(strict=True, reason="ROADMAP item 18: two roots in one scan cell cancel")
def test_scan_finds_the_first_of_two_roots_in_one_cell():
    # the curvature changes sign at 2.46965 and back at 2.70435, both in the
    # cell [2.3, 2.8] of a step-0.5 scan, which sees no sign change and
    # returns None; the step-0.05 scan finds 2.46965055
    root = find_critical_kR(Spin(9), Statistics.FERMION, scan=(2.3, 3.0), step=0.5)
    assert root is not None and f"{root:.8f}" == "2.46965055"


@pytest.mark.xfail(strict=True, reason="ROADMAP item 1B: the scan stops short of hi")
def test_scan_sees_a_sign_change_next_to_hi():
    # the grid 0.23, 0.28, ... ends at 1.43, since 1.48 lies more than step/2
    # past hi, so the sign change at 1.44677 is never bracketed; the scan
    # (0.23, 1.46) moves 1.48 onto hi and returns 1.4467706740563588
    root = find_critical_kR(Spin(0), scan=(0.23, 1.45))
    assert root == pytest.approx(1.44677, abs=1e-5)


def test_scan_validation():
    with pytest.raises(DomainError):
        find_critical_kR(Spin(0), Statistics.BOSON, scan=(0.0, 3.0))
    with pytest.raises(DomainError):
        find_critical_kR(Spin(0), Statistics.BOSON, scan=(0.5, 12.0))
    for step in (-0.1, math.nan, math.inf):
        with pytest.raises(DomainError):
            find_critical_kR(Spin(0), Statistics.BOSON, scan=(0.5, 3.0), step=step)
    with pytest.raises(DomainError, match=r"kR must lie in \[1e-06, 1000\]"):
        find_critical_kR(Spin(0), Statistics.BOSON, scan=(1e-7, 1.0))


def test_a_step_that_cannot_advance_is_refused_before_the_scan():
    # x + step would round back to x below hi, so the scan would never reach
    # hi, while (hi - lo) / step stays under MAX_POINTS; the check raises
    # before eps w is taken, so before any loop runs.  A step of one float
    # spacing just below a power of two, and one whose second point rounds
    # onto hi, advance and still scan as the full scan does
    with pytest.MonkeyPatch.context() as monkeypatch:
        def no_scan(*args):
            raise AssertionError("the scan started")

        monkeypatch.setattr(hardsphere, "exchange_weight", no_scan)
        for scan, step in [((2.0, 2.0000000000000004), 1e-20), ((1.5, 1.5000000000000004), 1e-17),
                           ((1.4399999999999999, 1.4400000000000002), 1e-17),
                           ((2.0, 2.0000000000000004), math.ulp(2.0000000000000004) / 2.0),
                           ((1.9999999999999991, 2.0), math.ulp(1.9999999999999998) / 2.0)]:
            assert (scan[1] - scan[0]) / step + 1 <= MAX_POINTS
            with pytest.raises(DomainError, match=f"step {step} is at most half the float spacing"):
                find_critical_kR(Spin(0), scan=scan, step=step)
    for scan, step in [((1.9999999999999991, 2.0), math.ulp(1.9999999999999998)),
                       ((2.4999999999999996, 2.5), math.ulp(2.4999999999999996) / 2.0)]:
        assert repr(find_critical_kR(Spin(0), scan=scan, step=step)) \
            == repr(scan_reference(Spin(0), None, scan=scan, step=step))


def test_scan_point_cap_checked_before_any_evaluation(monkeypatch):
    # the scan checks its inputs once, at its boundary: the point count, lo
    # against KR_MIN and the statistics, before any curvature is taken; the
    # fermions that skip their scan (eps w <= -1/8) raise the same errors first
    calls = []
    monkeypatch.setattr(hardsphere, "_curvature_at_90", lambda kR, eps_w: calls.append(kR))
    monkeypatch.setattr(hardsphere, "spherical_bessel_j_table", lambda l_max, x: calls.append(x))
    boson, fermion = Statistics.BOSON, Statistics.FERMION
    unpolarized, aligned = Polarization.UNPOLARIZED, Polarization.ALIGNED
    rows = [
        (Spin(0), boson, (0.2, 3.0), 2.8 / MAX_POINTS, unpolarized, "scan points"),
        (Spin(0), boson, (1e-7, 1.0), 0.05, unpolarized, "kR must lie in"),
        (Spin(1), boson, (0.2, 3.0), 0.05, unpolarized, "spin 1/2 implies fermion"),
        (Spin(1), fermion, (0.2, 3.0), 2.8 / MAX_POINTS, aligned, "scan points"),
        (Spin(9), fermion, (1e-7, 1.0), 0.05, aligned, "kR must lie in"),
        (Spin(1), fermion, (0.0, 3.0), 0.05, aligned, "scan range"),
        (Spin(1), fermion, (0.5, 12.0), 0.05, aligned, "scan range"),
        (Spin(1), boson, (0.2, 3.0), 0.05, aligned, "spin 1/2 implies fermion"),
        (Spin(1), fermion, (0.2, 3.0), 2.8 / MAX_POINTS, unpolarized, "scan points"),
        (Spin(3), fermion, (1e-7, 1.0), 0.05, unpolarized, "kR must lie in"),
        (Spin(5), fermion, (0.0, 3.0), 0.05, unpolarized, "scan range"),
        (Spin(7), fermion, (0.5, 12.0), 0.05, unpolarized, "scan range"),
        (Spin(7), boson, (0.2, 3.0), 0.05, unpolarized, "spin 7/2 implies fermion"),
    ] + [(Spin(twice_s), fermion, (0.5, 3.0), step, polarization, "step must be")
         for twice_s, polarization in [(3, aligned), (5, unpolarized)]
         for step in (math.nan, -0.1, math.inf)]
    for spin, statistics, scan, step, polarization, match in rows:
        assert (exchange_weight(spin, polarization) <= -0.125) == (spin.statistics is fermion)
        with pytest.raises(DomainError, match=match):
            find_critical_kR(spin, statistics, scan=scan, step=step, polarization=polarization)
    assert calls == []


def test_aligned_fermion_curvature_is_positive_over_the_scan_domain():
    # at eps w = -1 the curvature is 8 |f'(90)|^2 times the half-angle factor
    # over kR^2; over every kR a scan may visit it stays at least 0.75 times
    # |the eps w = +1 curvature, 8 Re f'' f*| (the smallest ratio is 0.80,
    # near kR 2.584), far from any rounding to <= 0
    for i in range(4001):
        kR = min(KR_MIN * (10.0 / KR_MIN) ** (i / 4000), 10.0)
        aligned = hardsphere._curvature_at_90(kR, -1.0)
        assert aligned > 0.0, kR
        assert aligned >= 0.75 * abs(hardsphere._curvature_at_90(kR, 1.0)), kR


def test_curvature_at_minus_one_eighth_keeps_a_one_percent_margin():
    # the float companion of the certificate below: at eps w = -1/8 the float
    # curvature keeps at least 1% of |its value at eps w = +1| on every kR a
    # scan may visit (the smallest ratio is 0.0124, near kR 2.584).  C is
    # linear in eps w and positive at -1, so that is also 1% of the larger of
    # |C(+1)| and C(-1), the scale within which the curvature is 1e-12 from
    # 40-digit mpmath (test_phase_shifts_and_curvature_match_mpmath): no
    # rounding can give it a sign the full scan would see
    for i in range(4001):
        kR = min(KR_MIN * (10.0 / KR_MIN) ** (i / 4000), 10.0)
        value = hardsphere._curvature_at_90(kR, -0.125)
        assert value >= 0.01 * abs(hardsphere._curvature_at_90(kR, 1.0)), kR


def _check_bound_table(table):
    es = [e for e, _ in table]
    bs = [b for _, b in table]
    assert all(e1 < e2 for e1, e2 in zip(es, es[1:]))
    assert all(b1 > b2 for b1, b2 in zip(bs, bs[1:]))
    assert es[-1] >= 1.0  # eps w <= 1 always, so next() finds a row for aligned bosons too
    assert bs[0] == 10.0  # the top of the scan domain: the lowest eps w scan nothing


def test_scan_bounds_rise_in_eps_w_and_fall_in_kR():
    # sorted by e with b strictly falling: each row is the tightest for the
    # eps w between the e before it and its own, so no row is dead and the
    # first row that covers eps w is the tightest.  The last row covers every
    # eps w and the first reaches the top of the scan domain; a table
    # without either end fails
    table = hardsphere.CERTIFIED_BOUNDS
    _check_bound_table(table)
    for cut in (table[1:], table[:-1]):
        with pytest.raises(AssertionError):
            _check_bound_table(cut)


@pytest.mark.parametrize("eps_w, bound", hardsphere.CERTIFIED_BOUNDS)
def test_curvature_keeps_a_margin_below_each_scan_bound(eps_w, bound):
    # the float companion of test_certify_the_scan_bounds: on [KR_MIN, b] the
    # float curvature at eps w = e keeps at least 0.1% of the larger of
    # |C(+1)| and C(-1), the scale within which it is 1e-12 from 40-digit
    # mpmath (the smallest ratios: 0.0124 for e = -1/8, near kR 2.58, and at
    # the bounds 0.0018 for -1/10, 0.0084 for 0, 0.0082 for 1/9, 0.0052 for
    # 1/7, 0.0085 for 1/5, 0.0037 for 1/3 and 0.0059 for 1).  C is linear in
    # eps w, so no eps w in [-1, e] rounds to a sign the full scan would see
    # below the bound
    for i in range(4001):
        kR = min(KR_MIN * (bound / KR_MIN) ** (i / 4000), bound)
        scale = max(abs(hardsphere._curvature_at_90(kR, 1.0)),
                    hardsphere._curvature_at_90(kR, -1.0))
        assert hardsphere._curvature_at_90(kR, eps_w) >= 1e-3 * scale, kR


# A certificate that the 90 deg curvature C(kR, eps w) is positive on [KR_MIN,
# 10].  Up to the factor 4 HALF_ANGLE_FACTOR / kR^2 it is
# Q = (1 + eps w) Re(H conj F) + (1 - eps w) |G|^2, with F, G and H the sums
# of _curvature_at_90 (k f and its first and second x-derivatives at x = 0)
# over every wave, w_l = (2l+1) e^{i delta_l} sin delta_l.  A kR cell [a, b]
# is bounded through facts about the exact functions:
# - delta_l' = -1/(kR^2 (j_l^2 + y_l^2)) (the Wronskian, DLMF 10.50), and
#   kR^2 (j_l^2 + y_l^2) is a polynomial in 1/kR^2 with positive coefficients
#   and constant term 1 (DLMF 10.49), so delta_l falls, by at most b - a,
#   and the values at a and b bound delta_l and delta_l' over the cell;
# - past a wave L, |sin delta_l| <= kR^(2l+1)/((2l+1)!! (2l-1)!!), from
#   |j_l| <= kR^l/(2l+1)!! (DLMF 10.14) and that polynomial's leading term,
#   and |delta_l'| <= kR^(2l)/((2l-1)!!)^2: geometric tails.
# The cell's lower bound is the larger of Q over the cell's delta_l and of
# Q(m) + Q'(cell) (kR - m), m its middle (the mean value theorem); a cell
# without a positive bound is halved.  mpmath.iv rounds every operation
# outward, so the bounds hold for the exact Q.
# What it proves: the exact Q, every wave included, is positive at every real
# kR in [KR_MIN, 10], not only at the points it evaluates.  What it only
# evaluates: nothing of the library runs here; the float value that
# _curvature_at_90 returns is checked by the test above, on a grid.


def _iv(q):
    """The rational q as an interval."""
    q = Fraction(q)
    return iv.mpf(q.numerator) / q.denominator


def _double_factorial(n):
    return math.prod(range(n, 0, -2))  # 1 for n <= 0


@cache
def _legendre_at_0(l):
    """(P_l(0), l P_{l-1}(0), -l(l+1) P_l(0)): the weights of wave l in F, G and H."""
    p = [Fraction(1), Fraction(0)]  # P_n(0), stepped by P_{n+1}(0) = -n P_{n-1}(0)/(n+1)
    for n in range(1, l):
        p.append(-Fraction(n, n + 1) * p[n - 1])
    return _iv(p[l]), _iv(l * p[l - 1]), _iv(-l * (l + 1) * p[l])


def _iv_j(l, x):
    """j_l(x) at the point interval x: its power series (DLMF 10.53) and alternating remainder."""
    t = -x * x / 2
    term = total = iv.mpf(1)
    k = 0
    while True:
        k += 1
        term = term * t / (k * (2 * l + 2 * k + 1))
        total += term
        # from here on |term| falls at every step, so the rest is within the next term
        if x.b**2 < 2 * (k + 1) * (2 * l + 2 * k + 3) and abs(term).b < 1e-25 * abs(total).a:
            rest = abs(term * t / ((k + 1) * (2 * l + 2 * k + 3))).b
            return x**l / _double_factorial(2 * l + 1) * (total + iv.mpf([-rest, rest]))


@cache
def _iv_waves(kR, L):
    """(delta_l mod pi, kR^2 (j_l^2 + y_l^2)) for l = 0..L at the float kR, as intervals."""
    x = iv.mpf(kR)
    sin, cos = iv.sin(x), iv.cos(x)
    y = [-cos / x, -cos / (x * x) - sin / x]
    for l in range(1, L):
        y.append((2 * l + 1) / x * y[l] - y[l - 1])
    j = [iv.mpf(0)] * (L + 2)
    j[L + 1], j[L] = _iv_j(L + 1, x), _iv_j(L, x)
    for l in range(L, 0, -1):  # downward, the stable direction for j
        j[l - 1] = (2 * l + 1) / x * j[l] - j[l + 1]
    waves = []
    for jl, yl in zip(j, y):
        assert yl.a > 0 or yl.b < 0, kR
        delta = iv.atan2(-jl, -yl) if yl.b < 0 else iv.atan2(jl, yl)
        waves.append((delta, x * x * (jl * jl + yl * yl)))
    return waves


def _geometric_tail(term, L):
    """A bound on the sum over l > L of term(l), whose ratio term(l + 1)/term(l) falls with l."""
    first, ratio = term(L + 1), term(L + 2) / term(L + 1)
    assert ratio < 1
    return first / (1 - ratio)


def _truncation(b):
    """(L, the waves past L, their kR-derivatives): sums bounded over kR <= b as intervals.

    Past L each weight |P_l(0)|, |l P_{l-1}(0)|, |l(l+1) P_l(0)| is at most l(l+1).
    """
    q = Fraction(b)
    L = max(3, math.ceil(b))
    while True:
        waves = _geometric_tail(lambda l: (2 * l + 1) * l * (l + 1) * q ** (2 * l + 1)
                                / (_double_factorial(2 * l + 1) * _double_factorial(2 * l - 1)), L)
        slopes = _geometric_tail(lambda l: (2 * l + 1) * l * (l + 1) * q ** (2 * l)
                                 / _double_factorial(2 * l - 1) ** 2, L)
        if waves <= Fraction(1, 10**9) * min(1, q) ** 5 and slopes <= Fraction(1, 10**6):
            return L, _iv(waves) * iv.mpf([-1, 1]), _iv(slopes) * iv.mpf([-1, 1])
        L += 1


def _sums(waves, tail):
    """F, G and H as (re, im) pairs of intervals from each wave's (re, im), tail included."""
    F, G, H = [tail, tail], [tail, tail], [tail, tail]
    for l, (re, im) in enumerate(waves):
        p, q, r = _legendre_at_0(l)
        if l % 2:
            G = [G[0] + q * re, G[1] + q * im]
        else:
            F = [F[0] + p * re, F[1] + p * im]
            H = [H[0] + r * re, H[1] + r * im]
    return F, G, H


def _weights(deltas):
    """(re, im) of (2l+1) e^{i delta} sin delta and of its delta-derivative (2l+1) e^{2i delta}."""
    out = []
    for l, d in enumerate(deltas):
        c, s, s2 = 2 * l + 1, iv.sin(d), iv.sin(2 * d)
        out.append(((c * s2 / 2, c * s**2), (c * (1 - 2 * s**2), c * s2)))
    return out


def _q(F, G, H, eps_w):
    r = H[0] * F[0] + H[1] * F[1]
    return (1 + eps_w) * r + (1 - eps_w) * (G[0] ** 2 + G[1] ** 2), r


def _cell(a, b, eps_w):
    """(lower bound of Q over kR in [a, b], upper bound of Q at the middle, bound of |r|)."""
    L, tail, slope_tail = _truncation(b)
    m = 0.5 * (a + b)
    width, reach = iv.mpf(b) - a, iv.mpf([(iv.mpf(a) - m).a, (iv.mpf(b) - m).b])  # kR - m
    deltas, slopes = [], []
    for (da, ta), (db, tb) in zip(_iv_waves(a, L), _iv_waves(b, L)):
        # delta_l falls by at most b - a < 1 over the cell, so by da - db
        # mod pi (1e-20 allows for the widths of da and db), and it spans
        # [da - fall, da]
        fall = da - db if (da - db).a >= 0 else da - db + iv.pi
        assert fall.a >= 0 and fall.b <= width.b + 1e-20, (a, b)
        deltas.append(iv.mpf([da.a - fall.b, da.b]))
        slopes.append(iv.mpf([-(1 / tb).b, -(1 / ta).a]))
    weights = _weights(deltas)
    F, G, H = _sums([w for w, _ in weights], tail)
    over_cell, r = _q(F, G, H, eps_w)
    dF, dG, dH = _sums([(dre * d, dim * d) for (_, (dre, dim)), d in zip(weights, slopes)],
                       slope_tail)
    slope = (1 + eps_w) * (dH[0] * F[0] + H[0] * dF[0] + dH[1] * F[1] + H[1] * dF[1]) \
        + (1 - eps_w) * 2 * (dG[0] * G[0] + dG[1] * G[1])
    middle_weights = _weights([delta for delta, _ in _iv_waves(m, L)])
    middle, _ = _q(*_sums([w for w, _ in middle_weights], tail), eps_w)
    lower = max(over_cell.a, (middle + slope * reach).a)
    return lower, middle.b, abs(r).b


def _certify_positive_curvature(eps_w, hi=10.0, cells=30, max_depth=40):
    """(cells certified, smallest lower bound of C(kR, eps w)/|C(kR, +1)|) over [KR_MIN, hi].

    Fails where the curvature is negative at a cell's middle, or when
    halving max_depth times gives no positive bound.
    """
    eps_w = _iv(eps_w)
    edges = [KR_MIN * (hi / KR_MIN) ** (i / cells) for i in range(cells + 1)]
    edges[0], edges[-1] = KR_MIN, hi
    todo = [(a, b, 0) for a, b in zip(edges, edges[1:])][::-1]  # popped from small kR up
    certified, smallest = 0, math.inf
    while todo:
        a, b, depth = todo.pop()
        if b - a < 1.0:
            lower, middle, r = _cell(a, b, eps_w)
            assert middle >= 0, f"the curvature is negative at kR = {0.5 * (a + b)}"
            if lower > 0:
                certified += 1
                smallest = min(smallest, float((lower / (2 * r)).a))  # |C(+1)| ~ 2 |r|
                continue
            assert depth < max_depth, f"no positive bound on [{a}, {b}]"
        m = 0.5 * (a + b)
        todo += [(m, b, depth + 1), (a, m, depth + 1)]
    return certified, smallest


@cache
def _certificate(eps_w, hi):
    """_certify_positive_curvature(eps_w, hi) at 100 bits, run once per (eps w, hi).

    The table's first row, (-1/8, 10), and the -1/8 certificate below share
    one run (about 2.4 s).
    """
    precision = iv.prec
    iv.prec = 100
    try:
        return _certify_positive_curvature(eps_w, hi=hi)
    finally:
        iv.prec = precision


@pytest.mark.parametrize("eps_w, minimum", [
    (Fraction(-1, 8), 0.0124),  # C/|C(+1)| on 40,001 log-spaced kR: 0.01244 near kR 2.584
    (Fraction(-1), 0.79),       # 0.80, at the same kR
], ids=["minus-one-eighth", "minus-one"])
def test_certify_no_critical_kR_up_to_eps_w_minus_one_eighth(eps_w, minimum):
    # proves C(kR, eps w) > 0 on [KR_MIN, 10] at eps w = -1/8 and -1; C is
    # linear in eps w, so it is then positive for every eps w in [-1, -1/8]:
    # no aligned fermion and no unpolarized fermion with 2s <= 7 has a
    # critical kR, and find_critical_kR skips those scans.  A smallest lower
    # bound above the measured minimum would be no bound.
    cells, smallest = _certificate(eps_w, 10.0)
    print(f"eps w = {eps_w}: {cells} cells, smallest bound on C/|C(+1)| {smallest:.3g}")
    assert 0.0 < smallest <= minimum


@pytest.mark.parametrize("eps_w, bound", hardsphere.CERTIFIED_BOUNDS)
def test_certify_the_scan_bounds(eps_w, bound):
    # proves C(kR, e) > 0 on [KR_MIN, b] for each row (e, b) of the scan's
    # table; with C(kR, -1) > 0 on [KR_MIN, 10] (the certificate above) and
    # C linear in eps w, C is positive there at every eps w in [-1, e], so
    # find_critical_kR evaluates no grid point below the last one at or below
    # b.  A row added or moved without a proof fails here.  The first row,
    # (-1/8, 10), is the certificate above at -1/8 (94 cells, one run for
    # both tests); every other row takes 34-38 cells in about 0.2 s.  The
    # smallest lower bounds of C/|C(+1)| are 6.3e-3 (e = -1/8), 1.2e-4
    # (-1/10), 5.1e-4 (0), 2.3e-3 (1/9), 4.8e-3 (1/7), 4.7e-3 (1/5), 5.2e-3
    # (1/3) and 0.059 (1)
    cells, smallest = _certificate(Fraction(eps_w), bound)
    print(f"eps w <= {eps_w:.6g}, kR <= {bound}: {cells} cells, "
          f"smallest bound on C/|C(+1)| {smallest:.3g}")
    assert cells >= 30 and smallest > 0.0


@pytest.mark.parametrize("eps_w, bound", hardsphere.CERTIFIED_BOUNDS)
def test_each_scan_bound_lies_below_its_rows_first_root(eps_w, bound):
    # eps w_C(kR) (ROADMAP item 12) falls through 1 at 1.44677 (spin 0 and
    # every aligned boson), 1/3 at 1.88402 (spin 1 unpolarized), 1/5 at
    # 1.99969 (spin 2), 1/7 at 2.05610 (spin 3), 1/9 at 2.09002 (spin 4), 0
    # at 2.2328 and -1/10 at 2.46965 (spin 9/2), each a little past its row's
    # bound: no bound cuts off a root.  Below kR 10 it stays above -1/8, so
    # the first row has none: the curvature at -1/8 keeps its sign on the
    # grid, and full scans of unpolarized spin 7/2 (eps w = -1/8) find none
    def curv(kR):
        return hardsphere._curvature_at_90(kR, eps_w)

    if bound == 10.0:
        assert eps_w == -0.125
        xs = [0.2 + 0.01 * i for i in range(981)]
        assert all(curv(x) > 0.0 for x in xs)
        assert scan_reference(Spin(7), Statistics.FERMION, scan=(0.2, 10.0), step=0.01) is None
        assert scan_reference(Spin(7), Statistics.FERMION) is None
        return
    first_root = {1.0: 1.44677067, 1.0 / 3.0: 1.88401581, 0.2: 1.99968632,
                  1.0 / 7.0: 2.05609799, 1.0 / 9.0: 2.09001646, 0.0: 2.23282368,
                  -0.1: 2.46965055}[eps_w]
    xs = [0.2 + 0.01 * i for i in range(281)]
    lo, hi = next((a, b) for a, b in zip(xs, xs[1:]) if (curv(a) > 0.0) != (curv(b) > 0.0))
    root = bisect_root(curv, lo, hi, curv(lo), curv(hi))
    assert f"{root:.9g}" == f"{first_root:.9g}"
    assert bound < root < bound + 0.015
    for twice_s in range(20):
        spin = Spin(twice_s)
        for polarization in Polarization:
            if exchange_weight(spin, polarization) == eps_w:
                full = scan_reference(spin, spin.statistics, scan=(0.2, 3.0), step=0.05,
                                      polarization=polarization)
                assert abs(full - root) <= 4 * math.ulp(root)  # another bracket, a few ulps


def _count_calls(monkeypatch, name):
    calls = []
    original = getattr(hardsphere, name)
    monkeypatch.setattr(hardsphere, name, lambda *args: calls.append(args) or original(*args))
    return calls


# every preparation with eps w <= -1/8: aligned fermions and unpolarized 2s <= 7
_SKIPPED = [(twice_s, Polarization.ALIGNED) for twice_s in range(1, 20, 2)] \
    + [(twice_s, Polarization.UNPOLARIZED) for twice_s in (1, 3, 5, 7)]


@settings(max_examples=60, deadline=None, derandomize=True)
@given(preparation=st.sampled_from(_SKIPPED),
       lo=st.floats(KR_MIN, 9.0),
       width=st.floats(1e-3, 1.0),
       points=st.integers(1, 1999))
def test_aligned_fermions_scan_nothing(preparation, lo, width, points):
    # at eps w <= -1/8 the curvature is positive at every kR (the certificate
    # above), so the scan returns None before its first point, as the full
    # scan does; the 60 derandomized draws take each skipped preparation
    twice_s, polarization = preparation
    hi = min(lo + width * (10.0 - lo), 10.0)
    step = (hi - lo) / points
    spin = Spin(twice_s)
    assert exchange_weight(spin, polarization) <= -0.125
    with pytest.MonkeyPatch.context() as monkeypatch:
        curvatures = _count_calls(monkeypatch, "_curvature_at_90")
        ladders = _count_calls(monkeypatch, "spherical_bessel_j_table")
        assert find_critical_kR(spin, spin.statistics, scan=(lo, hi), step=step,
                                polarization=polarization) is None
        assert curvatures == [] and ladders == []
    assert scan_reference(spin, spin.statistics, scan=(lo, hi), step=step,
                          polarization=polarization) is None


@pytest.mark.parametrize("twice_s, polarization", [
    (twice_s, polarization) for twice_s in range(10) for polarization in Polarization
    if twice_s % 2 == 0 or polarization is Polarization.UNPOLARIZED
])
def test_other_scans_visit_the_points_of_the_full_scan(monkeypatch, twice_s, polarization):
    # every preparation with eps w > -1/8 (bosons, unpolarized 2s >= 9) finds
    # the full scan's root, same bits, and evaluates the full scan's points
    # from its last grid point at or below its certified bound on.  The
    # unpolarized fermions with 2s <= 7 visit no point, and the full scan
    # over the whole of each range finds no root for them either
    spin = Spin(twice_s)
    eps_w = exchange_weight(spin, polarization)
    visited = _count_calls(monkeypatch, "_curvature_at_90")
    for scan, step in [((0.2, 3.0), 0.05), ((KR_MIN, 10.0), 0.01), ((1.3, 2.6), 0.0137)]:
        runs = []
        for search in (find_critical_kR, scan_reference):
            visited.clear()
            root = search(spin, spin.statistics, scan=scan, step=step, polarization=polarization)
            runs.append(([kR for kR, _ in visited], repr(root)))
        (points, root), (full, full_root) = runs
        assert root == full_root, scan
        assert points == evaluated_points(full, eps_w), scan
        if (twice_s, polarization) in _SKIPPED:
            assert points == [] and root == "None", scan
            assert len(full) == round((scan[1] - scan[0]) / step) + 1, scan
        else:  # every range starts two or more grid points below the bound
            assert 0 < len(points) < len(full), scan


# every preparation with eps w > -1/8, whose certified bound lies below 10
_BOUNDED = [(twice_s, polarization) for twice_s in range(20) for polarization in Polarization
            if (twice_s, polarization) not in _SKIPPED]


@settings(max_examples=200, deadline=None, derandomize=True)
@given(preparation=st.sampled_from(_BOUNDED),
       kind=st.sampled_from(["below", "above", "tail", "under"]),
       start=st.floats(0.0, 1.0),
       width=st.floats(1e-3, 8.0),
       points=st.integers(1, 400),
       short=st.floats(0.01, 0.49),
       past=st.floats(0.01, 0.99))
def test_scans_keep_the_full_scans_roots_and_its_points_from_the_bound(
        preparation, kind, start, width, points, short, past):
    # a scan from lo in [KR_MIN, b] ("below") or in [b, 10) ("above"), b the
    # preparation's own certified bound, returns the full scan's root, same
    # repr, and evaluates exactly the full scan's points from its last grid
    # point at or below b on.  A "tail" scan's last grid point lies `short`
    # steps below b and its successor past hi + step/2 (hi lies `past` of the
    # way from b to that point + step/2), so the scan ends there having
    # evaluated nothing, as the full scan sees no point above b; an "under"
    # scan ends at or below b and returns None before any point
    twice_s, polarization = preparation
    spin = Spin(twice_s)
    eps_w = exchange_weight(spin, polarization)
    bound = next(b for e, b in hardsphere.CERTIFIED_BOUNDS if eps_w <= e)
    if kind == "below":
        lo = KR_MIN + start * (bound - KR_MIN)
        hi = min(bound + width, 10.0)
        step = (hi - lo) / points
    elif kind == "above":
        lo = bound + start * (10.0 - bound - 1e-3)
        hi = min(lo + width, 10.0)
        step = (hi - lo) / points
    elif kind == "tail":
        step = max(start, 1e-3) * (bound - KR_MIN) / (points + short)
        lo = bound - (points + short) * step
        hi = bound + past * (0.5 - short) * step
    else:
        lo = KR_MIN + start * (bound - KR_MIN) / 2.0
        hi = lo + min(width / 8.0, 1.0) * (bound - lo)
        step = (hi - lo) / points
    runs = []
    with pytest.MonkeyPatch.context() as monkeypatch:
        visited = _count_calls(monkeypatch, "_curvature_at_90")
        for search in (find_critical_kR, scan_reference):
            visited.clear()
            root = search(spin, spin.statistics, scan=(lo, hi), step=step,
                          polarization=polarization)
            runs.append(([kR for kR, _ in visited], repr(root)))
    (points_evaluated, root), (full, full_root) = runs
    assert root == full_root
    assert points_evaluated == evaluated_points(full, eps_w)
    if kind == "tail":
        assert max(full) <= bound < hi and points_evaluated == [] and root == "None"
    if kind == "under":
        assert hi <= bound and points_evaluated == [] and root == "None"
