import math

import pytest

from mott_ti import (
    CollisionSystem,
    CrossSectionCurve,
    DEFAULT_CONSTANTS,
    DomainError,
    HardSphereParams,
    MottParams,
    ParticleSpecies,
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
    feasibility,
    half_closest_approach,
    hs_curvature_at_90,
    plateau,
    sensitivity_sweep,
    sigma90,
    table_one,
    builtin_catalog,
)
from mott_ti.constants import BARN_PER_FM2
from mott_ti.numerics import MAX_POINTS

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


def test_build_curve_carries_its_model():
    mott = MottParams(a=1.0, eta=SQRT2, spin=Spin(0))
    hs = HardSphereParams(kR=1.5, spin=Spin(0), statistics=Statistics.BOSON)
    for model in (mott, hs):
        assert build_curve(model, angle_grid(80.0, 100.0, 5.0)).model is model


def test_curve_validation_rejects_asymmetric_values():
    model = MottParams(a=1.0, eta=SQRT2, spin=Spin(0))
    with pytest.raises(DomainError, match="symmetry"):
        CrossSectionCurve(thetas=(80.0, 90.0, 100.0), values=(1.0, 2.0, 1.5), model=model)


def test_curve_validation_rejects_bad_grid():
    model = MottParams(a=1.0, eta=SQRT2, spin=Spin(0))
    with pytest.raises(DomainError):
        CrossSectionCurve(thetas=(10.0, 5.0), values=(1.0, 1.0), model=model)
    with pytest.raises(DomainError):
        CrossSectionCurve(thetas=(10.0, 190.0), values=(1.0, 1.0), model=model)
    with pytest.raises(DomainError):
        CrossSectionCurve(thetas=(10.0,), values=(math.inf,), model=model)


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


def test_barrier_radius_scale():
    # touching radius of two A=4 clusters is about 4.4 fm with r0 = 1.4
    assert barrier_radius(ALPHA) == pytest.approx(4.4330, abs=0.001)


def test_feasibility_shipped_systems():
    for sp in (DEUTERON, ALPHA, LI6):
        res = feasibility(sp)
        assert res.feasible
        assert res.e_critical_kev < res.barrier_kev
    li = feasibility(LI6)
    assert li.condition_lhs == pytest.approx(3.0 ** (10.0 / 3.0), rel=1e-12)  # 38.94
    assert li.condition_rhs == pytest.approx(76.2, rel=1e-12)
    assert li.condition_lhs < li.condition_rhs


def test_feasibility_carbon12_fails():
    res = feasibility(CARBON12)
    assert not res.feasible
    assert res.e_critical_kev > res.barrier_kev
    assert res.condition_lhs == pytest.approx(6.0 ** (10.0 / 3.0), rel=1e-12)  # ~392
    assert res.condition_lhs > res.condition_rhs


# -------------------------------------------------------------------- sigma90

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
