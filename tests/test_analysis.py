import math
import sys

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mott_ti import (
    CollisionSystem,
    CrossSectionCurve,
    DEFAULT_CONSTANTS,
    DomainError,
    HardSphereParams,
    MottParams,
    ParticleSpecies,
    PhysicalConstants,
    Polarization,
    Spin,
    Statistics,
    angle_grid,
    barrier_height,
    barrier_radius,
    build_curve,
    classify_curvature,
    critical_energy,
    critical_eta,
    curvature_at_90,
    half_closest_approach,
    hs_curvature_at_90,
    plateau,
    sensitivity_sweep,
    table_one,
    builtin_catalog,
)
from mott_ti import coulomb
from mott_ti.constants import BARN_PER_FM2
from mott_ti.coulomb import ETA_MAX
from mott_ti.hardsphere import KR_MAX, KR_MIN
from mott_ti.numerics import MAX_POINTS
from mott_ti.species import MASS_MAX, MASS_MIN, TWICE_S_MAX, Z_MAX

SQRT2 = math.sqrt(2.0)
SQRT5 = math.sqrt(5.0)

ALPHA = ParticleSpecies(name="alpha", z=2, mass=4 * DEFAULT_CONSTANTS.amu, spin=Spin(0))
LI6 = ParticleSpecies(name="6Li", z=3, mass=6 * DEFAULT_CONSTANTS.amu, spin=Spin(2))
DEUTERON = ParticleSpecies(name="d", z=1, mass=2 * DEFAULT_CONSTANTS.amu, spin=Spin(2))
CARBON12 = ParticleSpecies(name="12C", z=6, mass=12 * DEFAULT_CONSTANTS.amu, spin=Spin(0))
HELIUM3 = ParticleSpecies(name="he3", z=2, mass=3 * DEFAULT_CONSTANTS.amu, spin=Spin(1))


# ------------------------------------------------------------------ angle grid

def test_angle_grid_default():
    grid = angle_grid()
    assert grid[0] == 1.0 and grid[-1] == 179.0
    assert len(grid) == 357
    assert 90.0 in grid


def test_angle_grid_rejects_endpoints():
    with pytest.raises(DomainError):
        angle_grid(0.0, 179.0, 0.5)
    with pytest.raises(DomainError):
        angle_grid(1.0, 180.0, 0.5)
    for step in (math.nan, math.inf):
        with pytest.raises(DomainError):
            angle_grid(1.0, 179.0, step)


def test_angle_grid_point_cap():
    # MAX_POINTS + 1 points: rejected before the tuple is built
    with pytest.raises(DomainError):
        angle_grid(1.0, 179.0, 178.0 / MAX_POINTS)
    assert len(angle_grid(1.0, 179.0, 178.0 / (MAX_POINTS - 1))) == MAX_POINTS


# ----------------------------------------------------------------- build_curve

def test_build_curve_symmetric_179_points():
    grid = angle_grid(1.0, 179.0, 1.0)
    curve = build_curve(MottParams(a=1.0, eta=SQRT2, spin=Spin(0)), grid)
    assert len(curve.thetas) == 179
    assert curve.is_symmetric_grid()


def test_build_curve_spin1_90_value():
    curve = build_curve(MottParams(a=1.0, eta=SQRT5, spin=Spin(2)), angle_grid())
    i90 = curve.thetas.index(90.0)
    assert curve.values[i90] == pytest.approx(8.0 / 3.0, rel=1e-10)


def test_build_curve_hard_sphere():
    params = HardSphereParams(kR=1.5, spin=Spin(0), statistics=Statistics.BOSON)
    curve = build_curve(params, angle_grid(5.0, 175.0, 1.0))
    assert all(v > 0.0 for v in curve.values)


def test_build_curve_aligned_fermions_next_to_90_are_not_negative():
    # sigma_inc and sigma_int cancel here; summed apart they gave -4.4e-16
    mott = MottParams(a=1.0, eta=0.001, spin=Spin(1), polarization=Polarization.ALIGNED)
    sigmas = build_curve(mott, angle_grid(89.99999998, 90.00000002, 0.00000001)).values
    # frozen from a 60-digit sum at the five grid angles (89.99999998 + i 1e-8)
    expected = [4.87388439699996e-19, 1.21847283080204e-19, 0.0, 1.21846936769917e-19,
                4.87388439699996e-19]
    assert sigmas == pytest.approx(expected, rel=1e-8)
    assert min(sigmas) == 0.0


def test_build_curve_carries_its_model():
    mott = MottParams(a=1.0, eta=SQRT2, spin=Spin(0))
    hs = HardSphereParams(kR=1.5, spin=Spin(0), statistics=Statistics.BOSON)
    for model in (mott, hs):
        assert build_curve(model, angle_grid(80.0, 100.0, 5.0)).model is model


def test_curve_validation_compares_only_exact_float_mirrors():
    # 88.6 and 91.39999999999999 are not equally far from 90 deg in floats; at
    # kR = 1000 sigma, near a zero there, differs between them by 2.8e-10 relative
    params = HardSphereParams(kR=1000.0, spin=Spin(0), statistics=Statistics.BOSON)
    assert build_curve(params, angle_grid(6.0, 174.0, 0.7)).is_symmetric_grid()


CURVE_GRIDS = (angle_grid(), angle_grid(1.0, 179.0, 0.1), angle_grid(6.0, 174.0, 0.7))


@settings(max_examples=150, deadline=None)
@given(
    log_eta=st.floats(min_value=-3.0, max_value=math.log10(ETA_MAX)),
    a=st.floats(min_value=1e-3, max_value=1e3),
    twice_s=st.integers(min_value=0, max_value=9),
    polarization=st.sampled_from(Polarization),
    grid=st.sampled_from(CURVE_GRIDS),
)
@example(log_eta=5.0, a=1.0, twice_s=0, polarization=Polarization.UNPOLARIZED,
         grid=CURVE_GRIDS[0])
@example(log_eta=6.0, a=1.0, twice_s=9, polarization=Polarization.ALIGNED,
         grid=CURVE_GRIDS[1])
def test_mott_curves_are_even_about_90(log_eta, a, twice_s, polarization, grid):
    # mott_cross_sections folds theta_j above 90 deg to 180 - theta_j, exactly,
    # so wherever that is the angle theta_i of the grid both are the same float
    eta = min(10.0**log_eta, ETA_MAX)
    curve = build_curve(
        MottParams(a=a, eta=eta, spin=Spin(twice_s), polarization=polarization), grid
    )
    index = {theta: i for i, theta in enumerate(grid)}
    pairs = [(index[180.0 - theta], j) for j, theta in enumerate(grid)
             if theta > 90.0 and 180.0 - theta in index]
    assert pairs
    for i, j in pairs:
        assert curve.values[i] == curve.values[j], (grid[i], grid[j])


def _mott_spin0_curve(grid):
    return build_curve(MottParams(a=1.0, eta=SQRT2, spin=Spin(0)), grid).values


def _incoherent_curve(grid):
    return coulomb.incoherent_cross_sections(grid, 1.0)


@pytest.mark.parametrize("curve,grid,evaluations", [
    pytest.param(_mott_spin0_curve, angle_grid(), 179, id="grid0-179"),
    pytest.param(_mott_spin0_curve, angle_grid(1.0, 179.0, 0.1), 1550, id="grid1-1550"),
    pytest.param(_mott_spin0_curve, angle_grid(80.0, 100.0, 5.0), 3, id="grid2-3"),
    pytest.param(_incoherent_curve, angle_grid(), 0, id="incoherent-0"),
])
def test_mott_curve_kernel_evaluation_counts(monkeypatch, curve, grid, evaluations):
    # the closed form takes one atanh or one log per evaluation, and none for
    # sigma_inc alone, whose interference phase has weight 0
    calls = []

    class CountingMath:
        def __getattr__(self, name):
            return getattr(math, name)

        def atanh(self, x):
            calls.append(x)
            return math.atanh(x)

        def log(self, x):
            calls.append(x)
            return math.log(x)

    monkeypatch.setattr(coulomb, "math", CountingMath())
    curve(grid)
    assert len(calls) == evaluations


@settings(max_examples=50, deadline=None)
@given(
    log_eta=st.floats(min_value=-3.0, max_value=math.log10(ETA_MAX)),
    a=st.floats(min_value=1e-3, max_value=1e3),
    log_kr=st.floats(min_value=math.log10(KR_MIN), max_value=math.log10(KR_MAX)),
    twice_s=st.sampled_from([0, 2, 4, 6, 8]),
    polarization=st.sampled_from(Polarization),
    grid=st.sampled_from(CURVE_GRIDS),
)
@example(log_eta=6.0, a=1e3, log_kr=3.0, twice_s=0, polarization=Polarization.ALIGNED,
         grid=CURVE_GRIDS[2])
@example(log_eta=-3.0, a=1e-3, log_kr=-6.0, twice_s=8, polarization=Polarization.UNPOLARIZED,
         grid=CURVE_GRIDS[0])
def test_boson_curves_are_non_negative(log_eta, a, log_kr, twice_s, polarization, grid):
    # Mott: sigma_inc - |sigma_int| = (a^2/4)(sin^-2 - cos^-2)^2(theta/2) >= 0, far above
    # rounding; hard sphere: (1 + eps w)|E|^2 + (1 - eps w)|O|^2 with 0 < eps w <= 1
    spin = Spin(twice_s)
    mott = MottParams(a=a, eta=min(10.0**log_eta, ETA_MAX), spin=spin, polarization=polarization)
    hs = HardSphereParams(kR=min(max(10.0**log_kr, KR_MIN), KR_MAX), spin=spin,
                          statistics=Statistics.BOSON, polarization=polarization)
    for model in (mott, hs):
        values = build_curve(model, grid).values
        assert min(values) >= 0.0, model


def test_curve_validation_rejects_bad_grid():
    # an angle or value out of range: test_curve_names_the_first_offender
    model = MottParams(a=1.0, eta=SQRT2, spin=Spin(0))
    with pytest.raises(DomainError, match="same length"):
        CrossSectionCurve(thetas=(10.0, 20.0), values=(1.0,), model=model)
    with pytest.raises(DomainError, match="at least one point"):
        CrossSectionCurve(thetas=(), values=(), model=model)


def _first_offender(thetas, values):
    """The DomainError message of the per-item checks, angles first, or None if none fails."""
    prev = 0.0
    for t in thetas:
        if not prev < t < 180.0:
            return f"angles must be strictly increasing inside (0, 180): {t}"
        prev = t
    for v in values:
        if not math.isfinite(v):
            return f"non-finite cross section {v}"
    return None


def _check_curve(thetas, values):
    model = MottParams(a=1.0, eta=SQRT2, spin=Spin(0))
    expected = _first_offender(thetas, values)
    if expected is None:
        assert CrossSectionCurve(thetas, values, model).thetas == thetas
    else:
        with pytest.raises(DomainError) as info:
            CrossSectionCurve(thetas, values, model)
        assert str(info.value) == expected


_ANGLE = "angles must be strictly increasing inside (0, 180): "


@pytest.mark.parametrize("thetas, values, message", [
    ((10.0, 5.0), (1.0, 1.0), _ANGLE + "5.0"),
    ((10.0, 190.0), (1.0, 1.0), _ANGLE + "190.0"),
    ((10.0, math.nan, 20.0), (1.0, 1.0, 1.0), _ANGLE + "nan"),
    ((0.0, 10.0), (1.0, 1.0), _ANGLE + "0.0"),
    ((10.0, 180.0), (1.0, 1.0), _ANGLE + "180.0"),
    ((10.0, 20.0, 179.5, 180.0), (1.0,) * 4, _ANGLE + "180.0"),
    ((10.0, 20.0, 20.0, 30.0), (1.0,) * 4, _ANGLE + "20.0"),
    ((10.0, 30.0, 20.0, 25.0), (1.0,) * 4, _ANGLE + "20.0"),
    ((10.0, 20.0, 15.0, 200.0), (math.inf,) * 4, _ANGLE + "15.0"),  # the angles come first
    ((10.0,), (math.inf,), "non-finite cross section inf"),
    ((10.0, 20.0, 30.0), (1.0, math.inf, math.nan), "non-finite cross section inf"),
    ((10.0, 20.0), (-math.inf, 1.0), "non-finite cross section -inf"),
    ((10.0, 20.0, 30.0), (1e308, 1e308, math.nan), "non-finite cross section nan"),
], ids=["decreasing-pair", "past-180", "nan-angle", "zero", "180", "180-last", "repeated",
        "decreasing", "angles-first", "inf-alone", "inf-value", "minus-inf-value",
        "nan-after-overflow"])
def test_curve_names_the_first_offender(thetas, values, message):
    with pytest.raises(DomainError) as info:
        CrossSectionCurve(thetas, values, MottParams(a=1.0, eta=SQRT2, spin=Spin(0)))
    assert str(info.value) == message == _first_offender(thetas, values)


def test_finite_values_whose_sum_overflows_make_a_curve():
    # the sum of the values is inf, but each value is finite
    _check_curve((10.0, 20.0, 30.0), (1e308, 1.7976931348623157e308, 1e308))


_OFFENDERS = st.sampled_from([math.nan, 0.0, -0.0, 180.0, 1e300, math.inf, -math.inf, "repeat",
                              "decrease"])


@settings(max_examples=300, deadline=None, derandomize=True)
@given(angles=st.lists(st.floats(min_value=1e-300, max_value=179.99999999999997), min_size=1,
                       max_size=40, unique=True),
       values=st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=40,
                       max_size=40),
       angle_faults=st.lists(st.tuples(st.integers(0, 39), _OFFENDERS), max_size=3),
       value_faults=st.lists(st.tuples(st.integers(0, 39),
                                       st.sampled_from([math.nan, math.inf, -math.inf])),
                             max_size=3))
def test_curve_checks_agree_with_the_per_item_checks(angles, values, angle_faults, value_faults):
    thetas = sorted(angles)
    for i, fault in angle_faults:
        i %= len(thetas)
        if fault == "repeat":
            thetas[i] = thetas[i - 1]
        elif fault == "decrease":
            thetas[i] = thetas[i - 1] / 2.0
        else:
            thetas[i] = fault
    values = values[:len(thetas)]
    for i, fault in value_faults:
        values[i % len(values)] = fault
    _check_curve(tuple(thetas), tuple(values))


def _mirrored(thetas):
    return all(abs(thetas[i] + thetas[len(thetas) - 1 - i] - 180.0) < 1e-9
               for i in range(len(thetas) // 2 + 1))


# Offsets of a mirror from 180 - theta: exact, a few float steps either side
# of the 1e-9 tolerance, and far past it
_SKEWS = st.one_of(st.just(0.0), st.sampled_from([1e-9, -1e-9]).flatmap(
    lambda tol: st.integers(-3, 3).map(lambda k: tol + k * math.ulp(180.0))),
    st.sampled_from([1e-6, -1e-6, 1e-12]))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(steps=st.lists(st.integers(1, 89_999), min_size=1, max_size=30, unique=True),
       skews=st.lists(_SKEWS, min_size=31, max_size=31), middle=st.booleans())
@example(steps=[45_000], skews=[1e-9] * 31, middle=True)
@example(steps=[45_000], skews=[0.0] * 30 + [1e-9], middle=True)
def test_symmetric_grid_agrees_with_the_per_pair_form(steps, skews, middle):
    # the left half at multiples of 0.001 deg, each mirrored about 90 deg
    # with a skew; the middle angle, if any, is 90 deg with the last skew
    left = [k / 1000.0 for k in sorted(steps)]
    right = [180.0 - t + skew for t, skew in zip(left, skews)]
    thetas = (*left, *([90.0 + skews[-1] / 2.0] if middle else []), *reversed(right))
    curve = CrossSectionCurve(thetas, (1.0,) * len(thetas), MottParams(1.0, SQRT2, Spin(0)))
    assert curve.is_symmetric_grid() == _mirrored(thetas)


# --------------------------------------------------------------------- plateau

def critical_curve(twice_s, epsilon_grid_step=0.5):
    spin = Spin(twice_s)
    return build_curve(
        MottParams(a=1.0, eta=critical_eta(spin), spin=spin),
        angle_grid(1.0, 179.0, epsilon_grid_step),
    )


def test_plateau_spin0_5_percent():
    report = plateau(critical_curve(0), 0.05)
    assert report.theta_lo <= 66.0 and report.theta_hi >= 114.0
    assert report.theta_lo + report.theta_hi == pytest.approx(180.0)
    assert report.width == report.theta_hi - report.theta_lo
    assert report.reference_value == pytest.approx(4.0, rel=1e-10)
    assert classify_curvature(report.curvature_90) == "flat"  # at the critical point


def test_plateau_spin0_13_percent():
    report = plateau(critical_curve(0), 0.13)
    assert report.theta_lo <= 60.0 and report.theta_hi >= 120.0


def test_plateau_spin1_5_percent():
    report = plateau(critical_curve(2), 0.05)
    assert report.theta_lo <= 72.0 and report.theta_hi >= 108.0


def test_plateau_far_from_critical_is_narrow():
    curve = build_curve(MottParams(a=1.0, eta=0.5, spin=Spin(0)), angle_grid())
    report = plateau(curve, 0.05)
    assert report.width < 30.0
    assert report.curvature_90 > 0.0  # incoherent-dominated minimum


# aligned fermions vanish at 90 deg, where plateau refuses the ratio
@pytest.mark.parametrize("twice_s,polarization", [
    (twice_s, pol) for twice_s in range(10) for pol in Polarization
    if twice_s % 2 == 0 or pol is Polarization.UNPOLARIZED
])
def test_plateau_classifies_critical_eta_like_sweep(twice_s, polarization):
    # bosons are flat at eta_C; fermions never are (16 a^2 (3 + 3) there)
    spin = Spin(twice_s)
    params = MottParams(a=1.0, eta=critical_eta(spin, polarization), spin=spin,
                        polarization=polarization)
    label = classify_curvature(plateau(build_curve(params, angle_grid()), 0.05).curvature_90)
    assert label == ("flat" if spin.statistics is Statistics.BOSON else "min")
    if polarization is Polarization.UNPOLARIZED:
        assert label == sensitivity_sweep(spin, 0.05).classifications[1]


@pytest.mark.parametrize("grid", [(10.0, 170.0, 20.0), (88.0, 92.0, 2.0), (1.0, 179.0, 0.1)])
def test_plateau_curvature_is_the_models_whatever_the_grid(grid):
    mott = MottParams(a=1.0, eta=2.0, spin=Spin(0))
    assert plateau(build_curve(mott, angle_grid(*grid)), 0.05).curvature_90 == (
        curvature_at_90(mott, Statistics.BOSON))  # 16 (3 + 1 - 8) = -64
    hs = HardSphereParams(kR=1.447, spin=Spin(0), statistics=Statistics.BOSON)
    assert plateau(build_curve(hs, angle_grid(*grid)), 0.05).curvature_90 == (
        hs_curvature_at_90(hs))


def test_plateau_requires_90_on_grid():
    curve = build_curve(
        MottParams(a=1.0, eta=SQRT2, spin=Spin(0)), angle_grid(0.75, 179.25, 0.5)
    )
    with pytest.raises(DomainError, match="90"):
        plateau(curve, 0.05)


@pytest.mark.parametrize("epsilon", [0.0, math.nan, math.inf])
def test_plateau_rejects_bad_epsilon(epsilon):
    with pytest.raises(DomainError):
        plateau(critical_curve(0), epsilon)


def test_plateau_widest_near_critical_eta():
    # With a tight band the flat-at-critical shape wins; at loose epsilon an
    # above-critical curve can ride its central dip inside the band, so the
    # comparison is made at eps = 0.02.
    eps = 0.02
    eta_c = critical_eta(Spin(0))

    def width(factor):
        curve = build_curve(MottParams(a=1.0, eta=factor * eta_c, spin=Spin(0)),
                            angle_grid())
        return plateau(curve, eps).width

    near = [width(f) for f in (0.98, 1.0, 1.02)]
    far = [width(f) for f in (0.90, 1.10)]
    assert min(near) > max(far)


# ------------------------------------------------------------------- sweep

def test_sweep_classifications_min_flat_max():
    result = sensitivity_sweep(Spin(0), 0.05)
    assert result.classifications == ("min", "flat", "max")
    assert result.etas[1] == pytest.approx(SQRT2, rel=1e-15)
    assert result.etas[0] == pytest.approx(0.95 * SQRT2, rel=1e-15)


def test_sweep_delta_zero_identical_curves():
    result = sensitivity_sweep(Spin(0), 0.0)
    assert result.curves[0].values == result.curves[1].values == result.curves[2].values
    assert result.classifications == ("flat", "flat", "flat")


def test_sweep_energy_mapping():
    # E ~ eta^-2: a 5% eta shift is ~10% in energy
    result = sensitivity_sweep(Spin(0), 0.05)
    assert result.energy_shift_first_order == pytest.approx(0.10)
    assert result.energy_ratio_below == pytest.approx(0.95**-2 - 1.0, rel=1e-12)
    assert result.energy_ratio_above == pytest.approx(1.05**-2 - 1.0, rel=1e-12)
    assert 0.08 < abs(result.energy_ratio_below) < 0.12
    assert 0.08 < abs(result.energy_ratio_above) < 0.12


def test_sweep_classification_antisymmetric_near_critical():
    eta_c = critical_eta(Spin(0))
    for delta in (0.01, 0.05, 0.1, 0.2):
        lo = curvature_at_90(MottParams(a=1.0, eta=eta_c * (1 - delta), spin=Spin(0)),
                             Statistics.BOSON)
        hi = curvature_at_90(MottParams(a=1.0, eta=eta_c * (1 + delta), spin=Spin(0)),
                             Statistics.BOSON)
        assert lo > 0.0 > hi


def test_sweep_rejects_large_delta():
    with pytest.raises(DomainError):
        sensitivity_sweep(Spin(0), 0.5)


def test_classify_curvature():
    assert classify_curvature(5.0) == "min"
    assert classify_curvature(-5.0) == "max"
    assert classify_curvature(1e-9) == "flat"


# --------------------------------------------------------- barrier, feasibility

def test_barrier_heights_frozen():
    # frozen from mpmath: q^2 / (2 r0 (M/m0)^(1/3)) with A x amu masses
    assert barrier_height(DEUTERON) == pytest.approx(409.26039173245789, rel=1e-12)
    assert barrier_height(LI6) == pytest.approx(2553.8877607757127, rel=1e-12)
    assert barrier_height(ALPHA) == pytest.approx(1299.3207527300421, rel=1e-12)


def test_barrier_heights_near_published():
    assert barrier_height(DEUTERON) == pytest.approx(400.0, rel=0.05)
    assert barrier_height(LI6) == pytest.approx(2500.0, rel=0.05)
    assert barrier_height(ALPHA) == pytest.approx(1260.0, rel=0.05)


@pytest.mark.parametrize("field,value,mass", [
    ("r0", 1e308, 4 * DEFAULT_CONSTANTS.amu),           # R_B = inf, V_B = 0
    ("nucleon_mass", 5e-324, 4 * DEFAULT_CONSTANTS.amu),  # (M/m0)^(1/3) = inf
    ("r0", 5e-324, 4 * DEFAULT_CONSTANTS.amu),          # R_B subnormal, V_B = inf
    ("r0", 5e-324, MASS_MIN),                           # R_B rounds to 0
])
def test_barrier_out_of_float_range_raises(field, value, mass):
    constants = PhysicalConstants(**{field: value})  # the other constants keep their defaults
    species = ParticleSpecies(name="x", z=2, mass=mass, spin=Spin(0))
    with pytest.raises(DomainError, match="Coulomb barrier of x"):
        barrier_height(species, constants)
    with pytest.raises(DomainError):
        table_one([species], constants)


def test_barrier_radius_scale():
    # touching radius of two A=4 clusters is about 4.4 fm with r0 = 1.4
    assert barrier_radius(ALPHA) == pytest.approx(4.4330, abs=0.001)


def test_feasibility_shipped_systems():
    for res in table_one([DEUTERON, ALPHA, LI6]):
        assert res.feasible
        assert res.e_critical_kev < res.barrier_kev
    (li,) = table_one([LI6])
    assert li.condition_lhs == pytest.approx(3.0 ** (10.0 / 3.0), rel=1e-12)  # 38.94
    assert li.condition_rhs == pytest.approx(76.2, rel=1e-12)
    assert li.condition_lhs < li.condition_rhs


def test_feasibility_carbon12_fails():
    (res,) = table_one([CARBON12])
    assert not res.feasible
    assert res.e_critical_kev > res.barrier_kev
    assert res.condition_lhs == pytest.approx(6.0 ** (10.0 / 3.0), rel=1e-12)  # ~392
    assert res.condition_lhs > res.condition_rhs


# -------------------------------------------------------------------- sigma90

def sigma90(species):
    """(scaling, direct) sigma(90) forms of the table row of `species`."""
    (row,) = table_one([species])
    return row.sigma90_scaling_barn, row.sigma90_direct_barn


def test_sigma90_scaling_values():
    # 33.7 (3s+2)^2 / Z^6
    scaling_li, _ = sigma90(LI6)
    assert scaling_li == pytest.approx(33.7 * 25.0 / 729.0, rel=1e-12)   # 1.1557
    assert scaling_li == pytest.approx(1.17, rel=0.10)                    # published
    scaling_a, _ = sigma90(ALPHA)
    assert scaling_a == pytest.approx(2.10625, rel=1e-12)
    assert scaling_a == pytest.approx(2.3, rel=0.10)                      # published
    scaling_d, _ = sigma90(DEUTERON)
    assert scaling_d == pytest.approx(842.5, rel=1e-12)


def test_sigma90_direct_values():
    # frozen from mpmath: 2 a^2 (1 + 1/(2s+1)) at E_C, A x amu masses
    assert sigma90(DEUTERON)[1] == pytest.approx(561.81177040701159, rel=1e-12)
    assert sigma90(LI6)[1] == pytest.approx(0.77066086475584580, rel=1e-12)
    assert sigma90(ALPHA)[1] == pytest.approx(2.1067941390262936, rel=1e-12)


def test_sigma90_spin0_scaling_matches_direct():
    scaling, direct = sigma90(ALPHA)
    assert direct == pytest.approx(scaling, rel=0.02)  # prefactor exact only at s=0


# ------------------------------------------------------------------- table_one

def test_table_one_builtin_rows():
    rows = table_one(builtin_catalog())
    assert [r.name for r in rows] == ["d", "6Li", "alpha"]
    by_name = {r.name: r for r in rows}
    assert by_name["alpha"].e_critical_kev == pytest.approx(400.0, rel=0.05)
    assert by_name["alpha"].barrier_kev == pytest.approx(1260.0, rel=0.05)
    assert by_name["d"].e_critical_kev == pytest.approx(5.0, rel=0.05)
    assert by_name["6Li"].barrier_kev == pytest.approx(2500.0, rel=0.05)
    assert all(r.feasible for r in rows)


def test_table_one_flags_deuteron_sigma90():
    rows = {r.name: r for r in table_one(builtin_catalog())}
    assert rows["d"].sigma90_reference_barn == 135.0
    assert "inconsistent" in rows["d"].note
    assert rows["alpha"].note == ""
    assert rows["6Li"].note == ""


def test_table_one_empty_catalog():
    assert table_one([]) == []


@pytest.mark.parametrize("z", [1, Z_MAX])
@pytest.mark.parametrize("mass", [MASS_MIN, MASS_MAX])
@pytest.mark.parametrize("twice_s", [0, 1, TWICE_S_MAX])
def test_table_one_corners_of_the_domain(z, mass, twice_s):
    # at every corner of the Z, mass and 2s bounds each column is a finite
    # non-zero float and a at E_C keeps a^2 a normal float
    sp = ParticleSpecies(name="x", z=z, mass=mass, spin=Spin(twice_s))
    (row,) = table_one([sp])
    a = half_closest_approach(CollisionSystem(species=sp, energy_cm=row.e_critical_kev))
    assert sys.float_info.min <= a * a < math.inf
    for value in (row.e_critical_kev, row.barrier_kev, row.sigma90_scaling_barn,
                  row.sigma90_direct_barn, row.condition_lhs, row.condition_rhs):
        assert 0.0 < value < math.inf


def test_table_one_fermion_sigma90_direct():
    # unpolarized fermions at 90 deg: 2 a^2 (1 - 1/(2s+1)) = a^2 for s = 1/2
    (row,) = table_one([HELIUM3])
    system = CollisionSystem(species=HELIUM3, energy_cm=critical_energy(HELIUM3))
    a = half_closest_approach(system)
    assert row.sigma90_direct_barn == pytest.approx(a * a * BARN_PER_FM2, rel=1e-12)
    assert row.sigma90_direct_barn == pytest.approx(2.87, abs=0.005)


def test_table_one_extra_species():
    rows = table_one([CARBON12])
    assert len(rows) == 1
    assert not rows[0].feasible
    assert rows[0].sigma90_reference_barn is None
    assert rows[0].note == ""
