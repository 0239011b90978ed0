import math
import random
import sys

import mpmath
import pytest
from hypothesis import example, given, settings
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
    angle_grid,
    identical_cross_section,
    incoherent_cross_sections,
    mott_cross_sections,
)
from mott_ti import coulomb
from mott_ti.coulomb import A_MAX, A_MIN, CURVATURE_STEP_DEG, ETA_MAX
from mott_ti.numerics import MAX_EVALS, bisect_root, half_angle_curvature, second_derivative
from mott_ti.species import exchange_weight

SQRT2 = math.sqrt(2.0)
SQRT5 = math.sqrt(5.0)


# ---------------------------------------------------------------- closed forms

def test_sigma_inc_90_is_2a2():
    for a in (1.0, 7.25):
        assert incoherent_cross_sections((90.0,), a) == (2.0 * a * a,)


def test_sigma_inc_60_value():
    # (1/4)(1/0.25^2 + 1/0.75^2) = 40/9
    assert incoherent_cross_sections((60.0,), 1.0)[0] == pytest.approx(40.0 / 9.0, rel=1e-12)


def test_sigma_inc_symmetric_pairs():
    for d in (5.0, 20.0, 44.5):
        left, right = incoherent_cross_sections((90.0 - d, 90.0 + d), 1.0)
        assert left == right


def _sigma_int(theta, a, eta):
    """The interference term, as the aligned spin-0 cross section (eps w = 1) less sigma_inc."""
    boson = MottParams(a=a, eta=eta, spin=Spin(0), polarization=Polarization.ALIGNED)
    return identical_cross_section(theta, boson) - incoherent_cross_sections((theta,), a)[0]


def test_sigma_int_90_is_2a2_for_any_eta():
    for eta in (0.5, SQRT2, 5.0, 17.3):
        for a in (1.0, 3.0):
            assert _sigma_int(90.0, a, eta) == pytest.approx(2.0 * a * a, rel=1e-10)


def test_sigma_int_60_sqrt2_value():
    # frozen from mpmath: prefactor 8/3 times cos(2 sqrt2 ln tan30)
    assert _sigma_int(60.0, 1.0, SQRT2) == pytest.approx(0.045661577363025778, rel=1e-10)


def test_sigma_int_symmetric_pairs():
    # tan(theta/2) <-> cot flips the log sign inside an even cosine
    for d in (10.0, 30.0, 60.0):
        assert _sigma_int(90.0 - d, 1.0, SQRT2) == _sigma_int(90.0 + d, 1.0, SQRT2)


def test_overflow_next_to_pole_diverges():
    boson = MottParams(a=1.0, eta=1.0, spin=Spin(0), polarization=Polarization.ALIGNED)
    with pytest.raises(DivergenceError, match="overflows"):
        incoherent_cross_sections((1e-80,), 1.0)
    with pytest.raises(DivergenceError, match="overflows"):
        identical_cross_section(1e-170, boson)


def test_overflow_of_a_squared_diverges():
    # a * a times the pole term beyond float range: an error, never inf
    # (a beyond A_MAX is a DomainError, in test_bad_parameters)
    boson = MottParams(a=A_MAX, eta=1.0, spin=Spin(0), polarization=Polarization.ALIGNED)
    with pytest.raises(DivergenceError, match="overflows"):
        incoherent_cross_sections((0.01,), A_MAX)
    with pytest.raises(DivergenceError, match="overflows"):
        identical_cross_section(1e-6, boson)


def test_overflow_of_the_combined_value_diverges():
    # sigma_inc is finite here (the largest float), the aligned-boson sum is beyond float range
    theta = 0.02212884480368955
    params = MottParams(a=A_MAX, eta=0.3673411776627898, spin=Spin(0),
                        polarization=Polarization.ALIGNED)
    assert math.isfinite(incoherent_cross_sections((theta,), params.a)[0])
    with pytest.raises(DivergenceError, match="overflows"):
        identical_cross_section(theta, params)
    with pytest.raises(DivergenceError, match="overflows"):
        mott_cross_sections((30.0, theta, 90.0), params)


# theta in (0, 180): near either pole, and the angles where sigma overflows
THETAS = st.one_of(
    st.floats(min_value=0.0, max_value=180.0, exclude_min=True, exclude_max=True),
    st.sampled_from([5e-324, 1e-300, 1e-170, 1e-100, 1e-80, 180.0 - 1e-13]),
)
ETAS = st.floats(min_value=0.0, max_value=ETA_MAX, exclude_min=True)
MESSAGES = (" deg: Coulomb cross section diverges at 0/180",
            " fm: Coulomb cross section overflows")


def _finite_or_diverges(call, *args):
    """`call(*args)` returns only finite floats, or raises DivergenceError with its message."""
    try:
        values = call(*args)
    except DivergenceError as exc:
        assert str(exc).startswith("theta = ") and str(exc).endswith(MESSAGES), exc
        return
    values = values if isinstance(values, tuple) else (values,)
    assert all(type(v) is float and math.isfinite(v) for v in values), (args, values)


@settings(max_examples=300, deadline=None)
@given(
    thetas=st.lists(THETAS, min_size=1, max_size=6).map(tuple),
    a=st.floats(min_value=A_MIN, max_value=A_MAX),
    eta=ETAS,
    twice_s=st.integers(min_value=0, max_value=9),
    polarization=st.sampled_from(Polarization),
)
@example(thetas=(1e-100,), a=1.0, eta=1.0, twice_s=0, polarization=Polarization.ALIGNED)
@example(thetas=(0.02212884480368955,), a=A_MAX, eta=0.3673411776627898, twice_s=0,
         polarization=Polarization.ALIGNED)
def test_curve_kernel_returns_finite_floats_or_diverges(thetas, a, eta, twice_s, polarization):
    params = MottParams(a=a, eta=eta, spin=Spin(twice_s), polarization=polarization)
    _finite_or_diverges(mott_cross_sections, thetas, params)
    _finite_or_diverges(incoherent_cross_sections, thetas, a)


@settings(max_examples=300, deadline=None)
@given(theta=THETAS, a=st.floats(min_value=A_MIN, max_value=A_MAX), eta=ETAS)
@example(theta=1e-100, a=1.0, eta=1.0)
@example(theta=30.0, a=A_MAX, eta=1.0)
def test_point_terms_return_finite_floats_or_diverge(theta, a, eta):
    # the one-point calls: sigma_inc alone, and the aligned-boson sigma
    boson = MottParams(a=a, eta=eta, spin=Spin(0), polarization=Polarization.ALIGNED)
    _finite_or_diverges(incoherent_cross_sections, (theta,), a)
    _finite_or_diverges(identical_cross_section, theta, boson)


@pytest.mark.parametrize("theta", [0.0, 180.0, -5.0, 200.0])
def test_endpoint_angles_diverge(theta):
    params = MottParams(a=1.0, eta=1.0, spin=Spin(1))
    with pytest.raises(DivergenceError, match="diverges at 0/180"):
        incoherent_cross_sections((theta,), 1.0)
    with pytest.raises(DivergenceError, match="diverges at 0/180"):
        identical_cross_section(theta, params)


def test_bad_parameters():
    # MottParams and incoherent_cross_sections bound a by the same check_a
    below = math.nextafter(A_MIN, 0.0)  # a^2/4 would leave the normal floats
    above = math.nextafter(A_MAX, math.inf)
    for bad in (-1.0, 0.0, below, above, math.nan, math.inf):  # nan: not a silent nan
        with pytest.raises(DomainError, match="^a must lie in "):
            MottParams(a=bad, eta=1.0, spin=Spin(0))
        with pytest.raises(DomainError, match="^a must lie in "):
            incoherent_cross_sections((90.0,), bad)
    for bad in (-2.0, 0.0, math.nextafter(ETA_MAX, math.inf), math.nan, math.inf):
        with pytest.raises(DomainError, match="^eta must lie in "):
            MottParams(a=1.0, eta=bad, spin=Spin(0))
    assert incoherent_cross_sections((90.0,), A_MAX) == (2.0 * A_MAX * A_MAX,)


def test_a_min_keeps_a_squared_normal():
    # from A_MIN up a^2/4 is a normal float, so sigma/a^2 never divides by 0
    params = MottParams(a=A_MIN, eta=1.0, spin=Spin(0))
    assert params.a * params.a / 4.0 >= sys.float_info.min
    assert identical_cross_section(90.0, params) / (A_MIN * A_MIN) == pytest.approx(4.0)


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


def _mp_sigma(theta, a, eta, eps_w):
    """sigma_inc + eps_w sigma_int in the half-angle form, at 60 digits (an mpf)."""
    with mpmath.workdps(60):
        t = mpmath.mpf(theta) * mpmath.pi / 360
        s2, c2 = mpmath.sin(t) ** 2, mpmath.cos(t) ** 2
        a2_4 = mpmath.mpf(a) ** 2 / 4
        inc = a2_4 * (1 / s2**2 + 1 / c2**2)
        intf = a2_4 * 2 / (s2 * c2) * mpmath.cos(2 * eta * mpmath.log(mpmath.tan(t)))
        return +(inc + eps_w * intf)


def _kernel_rtol(eta):
    """Error bound of mott_cross_sections relative to sigma: a few ulps plus the phase's own rounding."""
    return 2.0**-52 * (8.0 + 2.0 * eta)


def _log_uniform(lo, hi):
    return st.floats(min_value=math.log10(lo), max_value=math.log10(hi)).map(
        lambda e: min(max(10.0**e, lo), hi))


# theta in (0, 180), weighted toward the poles and 90 deg; subnormal offsets included
_OFFSETS = st.one_of(_log_uniform(5e-324, 80.0), st.just(5e-324))
KERNEL_THETAS = st.one_of(
    st.floats(min_value=0.0, max_value=180.0, exclude_min=True, exclude_max=True),
    _OFFSETS,
    _OFFSETS.map(lambda d: 90.0 - d),
    _OFFSETS.map(lambda d: 90.0 + d),
    _OFFSETS.map(lambda d: 180.0 - d),
).filter(lambda theta: 0.0 < theta < 180.0)


@settings(max_examples=400, deadline=None)
@given(
    theta=KERNEL_THETAS,
    a=st.one_of(_log_uniform(A_MIN, A_MAX), st.sampled_from([A_MIN, 1.0, A_MAX])),
    eta=st.one_of(_log_uniform(5e-324, ETA_MAX), ETAS),
    twice_s=st.integers(min_value=0, max_value=9),
    polarization=st.sampled_from(Polarization),
    incoherent=st.booleans(),
)
@example(theta=89.99999999, a=1.0, eta=1e-3, twice_s=1, polarization=Polarization.ALIGNED,
         incoherent=False)
@example(theta=90.00000001, a=1.0, eta=1.0, twice_s=9, polarization=Polarization.ALIGNED,
         incoherent=False)
@example(theta=89.999, a=1.0, eta=1.0, twice_s=1, polarization=Polarization.ALIGNED,
         incoherent=False)
@example(theta=5e-324, a=A_MIN, eta=1.0, twice_s=0, polarization=Polarization.ALIGNED,
         incoherent=False)
@example(theta=0.02212884480368955, a=A_MAX, eta=0.3673411776627898, twice_s=0,
         polarization=Polarization.ALIGNED, incoherent=False)
@example(theta=179.9999999, a=1.0, eta=1.0, twice_s=0, polarization=Polarization.ALIGNED,
         incoherent=True)
def test_curve_kernel_matches_mpmath_relative_to_sigma(theta, a, eta, twice_s, polarization,
                                                       incoherent):
    # sigma >= 0 everywhere, within _kernel_rtol(eta) of the 60-digit value
    # relative to sigma itself (plus the spacing of the subnormals, where
    # sigma underflows); an overflow error only where sigma is past float range
    if incoherent:  # one more model: eps w = 0, where eta does not enter
        eps_w, eta = 0.0, 0.0
    else:
        params = MottParams(a=a, eta=eta, spin=Spin(twice_s), polarization=polarization)
        eps_w = exchange_weight(params.spin, params.polarization)
    reference = _mp_sigma(theta, a, eta, eps_w)
    rtol = _kernel_rtol(eta)
    try:
        if incoherent:
            (value,) = incoherent_cross_sections((theta,), a)
        else:
            (value,) = mott_cross_sections((theta,), params)
    except DivergenceError as exc:
        assert str(exc) == f"theta = {theta} deg, a = {a} fm: Coulomb cross section overflows"
        assert reference > sys.float_info.max * (1.0 - rtol), (reference, a, eps_w)
        return
    assert value >= 0.0
    assert abs(value - reference) <= rtol * reference + 2.0**-1074, (value, reference)


def test_point_call_is_the_curve_value():
    # identical_cross_section is the curve at one angle, bit for bit
    rng = random.Random(8)
    asymmetric = tuple(sorted(rng.uniform(0.01, 179.99) for _ in range(200)))
    grids = (angle_grid(), angle_grid(1.0, 179.0, 0.1), asymmetric)
    # (eta, a) pairs from 1e-3 to the upper bounds, cycled over spins and polarizations
    models = [(1e-3, 1e-3), (0.7, 1.0), (math.sqrt(5.0), 20.0), (31.6, 1e3),
              (1e3, 1e-2), (ETA_MAX, A_MAX), (2.0, A_MAX), (ETA_MAX, 0.5)]
    i = 0
    for grid in grids:
        for twice_s in range(10):
            for polarization in Polarization:
                eta, a = models[i % len(models)]
                i += 1
                params = MottParams(a=a, eta=eta, spin=Spin(twice_s), polarization=polarization)
                values = mott_cross_sections(grid, params)
                assert values == tuple(identical_cross_section(t, params) for t in grid)


@pytest.mark.parametrize("bad,message", [
    (1e-10, "theta = 1e-10 deg, a = 1e+147 fm: Coulomb cross section overflows"),
    (180.0 - 1e-10, "theta = 179.9999999999 deg, a = 1e+147 fm: Coulomb cross section overflows"),
    (0.0, "theta = 0.0 deg: Coulomb cross section diverges at 0/180"),
    (180.0, "theta = 180.0 deg: Coulomb cross section diverges at 0/180"),
    (-1.0, "theta = -1.0 deg: Coulomb cross section diverges at 0/180"),
    (math.nan, "theta = nan deg: Coulomb cross section diverges at 0/180"),
])
def test_curve_kernel_raises_at_the_first_bad_angle(bad, message):
    # at a = A_MAX, 1e-10 deg from either pole sigma overflows, for both curves
    params = MottParams(a=A_MAX, eta=1.0, spin=Spin(1))
    grid = (30.0, bad, 90.0, 1e-10, 180.0 - 1e-10)
    with pytest.raises(DivergenceError) as got:
        mott_cross_sections(grid, params)
    assert str(got.value) == message
    with pytest.raises(DivergenceError) as got:
        incoherent_cross_sections(grid, A_MAX)
    assert str(got.value) == message


def test_statistics_spin_mismatch_raises():
    p = MottParams(a=1.0, eta=1.0, spin=Spin(0))
    with pytest.raises(DomainError):
        curvature_at_90(p, Statistics.FERMION)


@pytest.mark.parametrize("polarization", list(Polarization))
@pytest.mark.parametrize("twice_s", range(10))
def test_omitting_statistics_changes_no_curvature(twice_s, polarization):
    # the statistics argument is optional and only checked: the sign is the spin's
    spin = Spin(twice_s)
    for eta in (0.3, 1.0, SQRT2, 3.0):
        params = MottParams(a=1.5, eta=eta, spin=spin, polarization=polarization)
        assert curvature_at_90(params) == curvature_at_90(params, spin.statistics)


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
    (inc,) = incoherent_cross_sections((theta,), 1.0)
    assert inc >= abs(_sigma_int(theta, 1.0, eta)) * (1.0 - 1e-12)
    p = MottParams(a=1.0, eta=eta, spin=Spin(0))
    assert identical_cross_section(theta, p) > 0.0


def test_classical_limit_suppresses_interference():
    # at 2s = 200 the interference weight is 1/201 < 1%
    spin = Spin(200)
    p = MottParams(a=1.0, eta=SQRT2, spin=spin)
    theta = 1.0
    while theta < 180.0:
        (inc,) = incoherent_cross_sections((theta,), 1.0)
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
            # At a zero the stencil's own rounding is all that is left: the
            # reference is the same stencil on the 60-digit values rounded to
            # floats, and each value of the kernel is within an ulp of those
            points, rounded = [], []
            eps_w = exchange_weight(spin, polarization)

            def f(theta):
                points.append(theta)
                rounded.append(float(_mp_sigma(theta, p.a, p.eta, eps_w)))
                return rounded[-1]

            reference = half_angle_curvature(second_derivative(f, 90.0, CURVATURE_STEP_DEG))
            values = mott_cross_sections(tuple(points), p)
            assert all(abs(v - r) <= math.ulp(r) for v, r in zip(values, rounded))
            spread = _stencil_spread(max(rounded))
            assert abs(fd - reference) <= spread
            assert abs(reference - closed) <= spread
        else:
            assert fd == pytest.approx(closed, rel=1e-6)


def _stencil_spread(top):
    """Most that values off by one ulp of `top` each move curvature_at_90_fd.

    The 5-point numerator (-1, 16, -30, 16, -1) weighs each value by at most
    64 in all; Richardson's (16 fine - coarse)/15 with fine = step/2 weighs
    the coarse stencil's 1/(12 h^2) by (16 * 4 + 1)/15.
    """
    h = CURVATURE_STEP_DEG
    return half_angle_curvature((16.0 * 4.0 + 1.0) / 15.0 * 64.0 * math.ulp(top) / (12.0 * h * h))


def _two_stencil_second_derivative(f, x0, step):
    """second_derivative as it was written: two 5-point stencils, 10 calls of f."""

    def stencil(h):
        m2, m1, mid, p1, p2 = (f(x0 + k * h) for k in (-2, -1, 0, 1, 2))
        return (-m2 + 16.0 * m1 - 30.0 * mid + 16.0 * p1 - p2) / (12.0 * h * h)

    coarse = stencil(step)
    fine = stencil(step / 2.0)
    return (16.0 * fine - coarse) / 15.0


@settings(max_examples=300, deadline=None, derandomize=True)
@given(x0=st.floats(-200.0, 200.0), step=st.floats(1e-6, 10.0))
@example(x0=90.0, step=CURVATURE_STEP_DEG)
def test_second_derivative_calls_f_at_7_distinct_points_with_the_two_stencils_bits(x0, step):
    calls, reference_calls = [], []

    def smooth(x):
        return math.sin(x) * math.exp(0.01 * x)

    got = second_derivative(lambda x: calls.append(x) or smooth(x), x0, step)
    expected = _two_stencil_second_derivative(
        lambda x: reference_calls.append(x) or smooth(x), x0, step)
    assert len(calls) == len(set(calls)) == 7
    assert set(calls) == set(reference_calls)
    assert repr(got) == repr(expected)


def _seven_call_curvature_at_90_fd(params):
    """curvature_at_90_fd as it was: one identical_cross_section call per stencil angle."""
    return half_angle_curvature(second_derivative(
        lambda theta: identical_cross_section(theta, params), 90.0, CURVATURE_STEP_DEG))


def test_fd_curvature_keeps_the_bits_of_the_seven_call_form(monkeypatch):
    # one _cross_sections call takes the 7 stencil angles, whose fold computes
    # 4 values; every value, and so every curvature and every critical_eta_numeric
    # root, keeps its bits
    kernel, calls = coulomb._cross_sections, []
    monkeypatch.setattr(coulomb, "_cross_sections",
                        lambda thetas, *args: calls.append(thetas) or kernel(thetas, *args))
    rng = random.Random(29)
    for _ in range(1000):
        a = 10.0 ** rng.uniform(math.log10(A_MIN), math.log10(A_MAX))
        params = MottParams(a=min(max(a, A_MIN), A_MAX),
                            eta=min(10.0 ** rng.uniform(-3.0, 6.0), ETA_MAX),
                            spin=Spin(rng.randrange(20)),
                            polarization=rng.choice(list(Polarization)))
        expected = _seven_call_curvature_at_90_fd(params)
        calls.clear()
        assert repr(curvature_at_90_fd(params)) == repr(expected)
        (thetas,) = calls
        assert len(set(thetas)) == 7 and len({min(t, 180.0 - t) for t in thetas}) == 4
    for twice_s, bracket in [(0, (0.5, 4.0)), (2, (0.5, 4.0)), (4, (0.5, 4.0)),
                             (0, (1e-6, 1e6)), (4, (1e-6, 1e6)), (88, (1e-6, 1e6))]:
        expected = _seven_call_search(Spin(twice_s), bracket)
        assert repr(critical_eta_numeric(Spin(twice_s), bracket)) == repr(expected)


def _seven_call_search(spin, bracket):
    """critical_eta_numeric as it was: a MottParams and the seven-call form at each eta."""
    lo, hi = bracket
    if not coulomb.check_eta(lo) < coulomb.check_eta(hi):
        raise DomainError(f"invalid eta bracket {bracket}")

    def curv(eta):
        return _seven_call_curvature_at_90_fd(MottParams(a=1.0, eta=eta, spin=spin))

    return bisect_root(curv, lo, hi, curv(lo), curv(hi))


def _outcome(search, *args):
    """The repr of a search's root, or the type and text of the error it raises."""
    try:
        return repr(search(*args))
    except (DomainError, RootNotFoundError) as error:
        return f"{type(error).__name__}: {error}"


_ETA = st.one_of(st.floats(0.0, ETA_MAX, exclude_min=True),
                 st.floats(-6.0, 6.0).map(lambda e: 10.0 ** e))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(twice_s=st.integers(0, 88), lo=_ETA, hi=_ETA)
@example(twice_s=2, lo=0.7, hi=3.3)
@example(twice_s=88, lo=1e-6, hi=1e6)
@example(twice_s=1, lo=0.5, hi=4.0)
@example(twice_s=0, lo=4.0, hi=0.5)
def test_eta_search_evaluates_one_kernel_inside_its_bracket(twice_s, lo, hi):
    # the search checks eta at its bracket and takes eps w once; each
    # evaluation is then one _cross_sections call at the 7 stencil angles and
    # an eta in [lo, hi], with no MottParams, and the search keeps the root,
    # or the error, of the seven-call form
    spin = Spin(twice_s)
    expected = _outcome(_seven_call_search, spin, (lo, hi))
    built, weights, kernel_calls, iterates = [], [], [], []
    init, weight, kernel, finder = (MottParams.__init__, coulomb.exchange_weight,
                                    coulomb._cross_sections, coulomb.bisect_root)

    def construct(self, *args, **kwargs):
        built.append(args)
        init(self, *args, **kwargs)

    def bisect(f, *args):
        return finder(lambda eta: iterates.append(eta) or f(eta), *args)

    with pytest.MonkeyPatch.context() as monkeypatch:
        monkeypatch.setattr(MottParams, "__init__", construct)
        monkeypatch.setattr(coulomb, "exchange_weight",
                            lambda *args: weights.append(args) or weight(*args))
        monkeypatch.setattr(coulomb, "_cross_sections",
                            lambda *args: kernel_calls.append(args) or kernel(*args))
        monkeypatch.setattr(coulomb, "bisect_root", bisect)
        got = _outcome(critical_eta_numeric, spin, (lo, hi))
    assert got == expected
    assert built == []
    if expected.startswith("DomainError"):  # refused at the bracket, before any evaluation
        assert weights == [] and kernel_calls == []
        return
    assert len(weights) == 1
    h = CURVATURE_STEP_DEG / 2.0
    stencil = sorted(90.0 + k * h for k in (-4, -2, -1, 0, 1, 2, 4))
    assert all(sorted(thetas) == stencil for thetas, _, _, _ in kernel_calls)
    etas = [eta for _, _, eta, _ in kernel_calls]
    assert etas == [lo, hi, *iterates]  # one call per evaluation: both ends, then the finder's
    assert all(lo <= eta <= hi for eta in etas)


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


def test_aligned_fermion_curvature_is_32a2_1_plus_eta2():
    # eps w = -1 leaves 48 a^2 - 16 a^2 (1 - 2 eta^2) = 32 a^2 (1 + eta^2) > 0:
    # never flat, as the hard sphere's 8 |f'(90)|^2 at eps w = -1
    for twice_s in (1, 9, 19):
        spin = Spin(twice_s)
        for a in (1.0, 7.25):
            for i in range(2001):  # eta log-spaced over [1e-6, ETA_MAX]
                eta = min(1e-6 * (ETA_MAX / 1e-6) ** (i / 2000), ETA_MAX)
                p = MottParams(a=a, eta=eta, spin=spin, polarization=Polarization.ALIGNED)
                expected = 32.0 * a * a * (1.0 + eta * eta)
                assert abs(curvature_at_90(p, spin.statistics) - expected) <= 1e-15 * expected, eta


def test_curvature_finite_at_a_max_and_eta_max():
    for twice_s in (0, 1):
        spin = Spin(twice_s)
        for polarization in Polarization:
            p = MottParams(a=A_MAX, eta=ETA_MAX, spin=spin, polarization=polarization)
            assert math.isfinite(curvature_at_90(p, spin.statistics))


def test_curvature_half_angle_factor_keeps_the_bits():
    # HALF_ANGLE_FACTOR [12 a^2 + eps w 4 a^2 (1 - 2 eta^2)] scales by an exact 4,
    # so it is 48 a^2 + eps w 16 a^2 (1 - 2 eta^2) bit for bit while both stay normal
    rng = random.Random(26)
    for _ in range(2000):
        a, eta = 10.0 ** rng.uniform(-100.0, 147.0), 10.0 ** rng.uniform(-3.0, 6.0)
        spin, polarization = Spin(rng.randrange(10)), rng.choice(list(Polarization))
        eps_w = exchange_weight(spin, polarization)
        expected = 48.0 * a**2 + eps_w * (16.0 * a**2 * (1.0 - 2.0 * eta**2))
        p = MottParams(a=a, eta=eta, spin=spin, polarization=polarization)
        assert curvature_at_90(p, spin.statistics) == expected, (a, eta, spin, polarization)


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


def test_eta_bracket_lies_inside_the_eta_domain():
    try:  # the widest bracket is accepted: the search runs, whether or not it finds a root
        critical_eta_numeric(Spin(0), (0.5, ETA_MAX))
    except RootNotFoundError:
        pass
    for bad in ((5.0, 1.0), (1.0, 1.0), (0.0, 1.0), (-1.0, 4.0), (math.nan, math.inf),
                (0.5, math.nan), (0.5, math.nextafter(ETA_MAX, math.inf))):
        with pytest.raises(DomainError):
            critical_eta_numeric(Spin(0), bad)


def test_critical_eta_numeric_no_root():
    with pytest.raises(RootNotFoundError):
        critical_eta_numeric(Spin(0), (3.0, 4.0))
    with pytest.raises(RootNotFoundError):
        critical_eta_numeric(Spin(1), (0.5, 4.0))  # fermions have no transition


def _bisection_evals(f, lo, hi, f_lo):
    """Evaluations plain bisection spends to split [lo, hi] down to adjacent floats."""
    n = 0
    while lo < 0.5 * (lo + hi) < hi:  # an exact zero at a midpoint does not end it
        mid = 0.5 * (lo + hi)
        n += 1
        f_mid = f(mid)
        if (f_mid > 0.0) == (f_lo > 0.0):
            lo, f_lo = mid, f_mid
        else:
            hi = mid
    return n


# smooth monotone shapes g(u) with g(0) = 0 whose sign is the sign of u in
# floats, so the float root of g(x - r) is r itself.  The expm1 rate stays
# at or below 2: end values e^8 apart cost the finder about 12 halvings, and
# at rate 7 (e^28 apart) it takes 56 evaluations where bisection takes 55.
SHAPES = {
    "cubic": lambda c: lambda u: u * (1.0 + c * u * u),
    "tanh": lambda c: lambda u: math.tanh(c * u),
    "expm1": lambda c: lambda u: math.expm1(min(c, 2.0) * u),
}


@settings(max_examples=300, deadline=None, derandomize=True)
@given(shape=st.sampled_from(sorted(SHAPES)),
       c=st.floats(0.1, 100.0),
       sign=st.sampled_from([1.0, -1.0]),
       r=st.floats(0.5, 8.0),
       below=st.floats(1e-6, 4.0),
       above=st.floats(1e-6, 4.0))
def test_bisect_root_converges_in_fewer_evaluations_than_bisection(shape, c, sign, r, below,
                                                                   above):
    g = SHAPES[shape](c)
    lo, hi = r - below, r + above

    def f(x):
        return sign * g(x - r)

    calls = []
    root = bisect_root(lambda x: calls.append(x) or f(x), lo, hi, f(lo), f(hi))
    assert abs(root - r) <= 8 * math.ulp(r)
    assert all(lo < x < hi for x in calls)
    assert len(calls) <= _bisection_evals(f, lo, hi, f(lo))


def test_bisect_root_ends_at_float_resolution():
    # no float squares to exactly 2, so the finder ends on a bracket a few
    # ulps wide; bisection takes 52 halvings to get there
    calls = []
    root = bisect_root(lambda x: calls.append(x) or x * x - 2.0, 1.0, 2.0, -1.0, 2.0)
    assert abs(root - SQRT2) <= math.ulp(SQRT2)
    assert len(calls) <= 10


def test_bisect_root_stops_at_the_cap_on_a_noisy_function():
    # within 1e-200 of its root at 0 the sign of f is noise: hundreds of
    # halvings would not bring the bracket to a few ulps
    calls = []

    def noisy(x):
        calls.append(x)
        return x + 1e-200 * random.Random(x).choice((-1.0, 1.0))

    root = bisect_root(noisy, -1.0, 2.0, -1.0, 2.0)
    assert len(calls) == MAX_EVALS
    assert all(-1.0 < x < 2.0 for x in calls)
    assert root in calls and abs(root) < 1e-100


def test_bisect_root_rejects_ends_without_a_sign_change():
    calls = []
    for f_lo, f_hi in ((1.0, 2.0), (-1.0, -2.0), (math.nan, -1.0)):
        with pytest.raises(RootNotFoundError):
            bisect_root(calls.append, 1.0, 2.0, f_lo, f_hi)
    assert calls == []


def test_bisect_root_rejects_an_invalid_bracket():
    for lo, hi in ((2.0, 1.0), (1.0, 1.0)):
        with pytest.raises(ValueError, match="invalid bracket"):
            bisect_root(lambda x: x - 1.5, lo, hi, lo - 1.5, hi - 1.5)


def test_bisect_root_returns_an_exact_zero_where_it_meets_one():
    # a zero at an end returns that end unevaluated; one at an iterate ends the search
    calls = []
    assert bisect_root(calls.append, 1.0, 2.0, 0.0, 1.0) == 1.0
    assert bisect_root(calls.append, 1.0, 2.0, -1.0, 0.0) == 2.0
    assert calls == []
    assert bisect_root(lambda x: calls.append(x) or x - 1.5, 1.0, 2.0, -0.5, 0.5) == 1.5
    assert calls == [1.5]
    calls.clear()

    def flat(x):  # zero on all of [1.2, 1.3]; the first secant point falls short of it
        calls.append(x)
        return 0.0 if 1.2 <= x <= 1.3 else (x - 1.25) ** 3

    root = bisect_root(flat, 1.0, 2.0, flat(1.0), flat(2.0))
    assert 1.2 <= root <= 1.3 and root == calls[-1] and len(calls) > 3


def test_bisect_root_falls_back_to_the_midpoint_near_overflow():
    # f_hi - f_lo overflows to inf, so the secant point lands on hi
    calls = []
    root = bisect_root(lambda x: calls.append(x) or x - 1.2, 1.0, 2.0, -1.5e308, 1.5e308)
    assert calls[0] == 1.5
    assert abs(root - 1.2) <= 2 * math.ulp(1.2)


def test_bisect_root_probes_2_ulps_in_where_the_secant_lands_on_an_end():
    # the root lies 1e-17 below 2, within half an ulp of hi, so the first
    # secant point rounds onto hi: one probe 2 ulps in ends the search,
    # where the midpoint fallback took 49 evaluations; the same at lo
    tiny = 2.0 * math.ulp(2.0)
    calls = []
    root = bisect_root(lambda x: calls.append(x) or (x - 2.0) + 1e-17, 1.0, 2.0, -1.0, 1e-17)
    assert calls == [2.0 - tiny] and root == 2.0
    calls.clear()
    root = bisect_root(lambda x: calls.append(x) or (x - 1.0) - 1e-17, 1.0, 2.0, -1e-17, 1.0)
    assert calls == [1.0 + tiny] and root == 1.0


def test_bisect_root_probes_an_end_once():
    # f_hi = 1e-30 against f_lo = -1 puts the secant point on hi: the first
    # landing probes 2 ulps in, and the second, on the probe that became hi,
    # falls back to the midpoint
    calls = []

    def step(x):
        calls.append(x)
        return 1e-30 if x >= 1.5 else -1.0

    root = bisect_root(step, 1.0, 2.0, -1.0, 1e-30)
    probe = 2.0 - 2.0 * math.ulp(2.0)
    assert calls[:2] == [probe, 0.5 * (1.0 + probe)]
    assert all(1.0 < x < 2.0 for x in calls)
    assert abs(root - 1.5) <= 4 * math.ulp(1.5) and step(root) > 0.0
