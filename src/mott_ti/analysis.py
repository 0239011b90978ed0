"""Derived observables: curves, plateau detection, sensitivity, feasibility.

The headline observable is "transverse isotropy": near-constancy of the
identical-particle cross section around 90 degrees at the critical
Sommerfeld parameter (Coulomb) or critical kR (hard sphere).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .constants import BARN_PER_FM2, DEFAULT_CONSTANTS, PhysicalConstants
from .coulomb import MottParams, critical_eta, curvature_at_90, identical_cross_section
from .errors import DomainError
from .hardsphere import HardSphereParams, hs_curvature_at_90, hs_identical_cross_section
from .kinematics import critical_energy, half_closest_approach
from .numerics import MAX_POINTS
from .species import (
    CollisionSystem,
    ParticleSpecies,
    Polarization,
    Spin,
    Statistics,
    symmetrized_combination,
)

# |curvature| below 1e-6 a^2 counts as flat when classifying 90 degrees.
FLAT_CURVATURE_TOL = 1e-6

# Coefficient of the approximate feasibility shorthand Z^(10/3) < 25.4 (2s+1).
# Reported informationally; the authoritative criterion is E_C < V_B.
FEASIBILITY_COEFFICIENT = 25.4

# Prefactor (barn) of the Z^-6 scaling shorthand for sigma(90 deg) at the
# critical energy: sigma90 = SIGMA90_SCALING_BARN * (3s+2)^2 / Z^6.
SIGMA90_SCALING_BARN = 33.7

# Published 90-degree cross sections (barn) for the shipped systems, used
# only to sanity-flag report rows.  The d value is known to be inconsistent
# with both computed forms and is excluded from validation.
REFERENCE_SIGMA90_BARN: dict[str, float] = {"d": 135.0, "6Li": 1.17, "alpha": 2.3}

_SYMMETRY_RTOL = 1e-10


@dataclass(frozen=True)
class CrossSectionCurve:
    """Sampled angular distribution of one model."""

    thetas: tuple[float, ...]   # degrees, strictly increasing, inside (0, 180)
    values: tuple[float, ...]   # fm^2/sr (Coulomb) or units of R^2 (hard sphere)
    model: MottParams | HardSphereParams  # the model that was sampled

    def __post_init__(self) -> None:
        if len(self.thetas) != len(self.values):
            raise DomainError("thetas and values must have the same length")
        if not self.thetas:
            raise DomainError("curve must contain at least one point")
        prev = 0.0
        for t in self.thetas:
            if not prev < t < 180.0:
                raise DomainError(f"angles must be strictly increasing inside (0, 180): {t}")
            prev = t
        for v in self.values:
            if not math.isfinite(v):
                raise DomainError(f"non-finite cross section {v}")
        if self.is_symmetric_grid():
            n = len(self.thetas)
            for i in range(n // 2):
                a, b = self.values[i], self.values[n - 1 - i]
                if abs(a - b) > _SYMMETRY_RTOL * max(abs(a), abs(b)) + 1e-30:
                    raise DomainError(
                        f"values break the 180-theta symmetry at {self.thetas[i]} deg"
                    )

    def is_symmetric_grid(self) -> bool:
        n = len(self.thetas)
        return all(
            abs(self.thetas[i] + self.thetas[n - 1 - i] - 180.0) < 1e-9
            for i in range(n // 2 + 1)
        )


@dataclass(frozen=True)
class PlateauReport:
    """Largest symmetric band around 90 deg staying within epsilon of sigma(90)."""

    theta_lo: float        # degrees
    theta_hi: float        # degrees
    width: float           # degrees
    curvature_90: float    # half-angle convention, exact for the curve's model
    reference_value: float # sigma(90)


@dataclass(frozen=True)
class SweepResult:
    """Cross-section shapes just below, at, and just above the critical eta."""

    etas: tuple[float, float, float]
    curves: tuple[CrossSectionCurve, CrossSectionCurve, CrossSectionCurve]
    classifications: tuple[str, str, str]   # each "min", "flat" or "max"
    energy_shift_first_order: float         # |dE/E| ~ 2 delta
    energy_ratio_below: float               # E(eta_low)/E(eta_C) - 1
    energy_ratio_above: float               # E(eta_high)/E(eta_C) - 1


@dataclass(frozen=True)
class FeasibilityResult:
    feasible: bool          # authoritative: E_C < V_B
    e_critical_kev: float
    barrier_kev: float
    condition_lhs: float    # Z^(10/3)
    condition_rhs: float    # 25.4 (2s+1)


@dataclass(frozen=True)
class SystemReportRow:
    name: str
    spin: Spin
    e_critical_kev: float
    barrier_kev: float
    sigma90_scaling_barn: float
    sigma90_direct_barn: float
    feasible: bool
    condition_lhs: float
    condition_rhs: float
    sigma90_reference_barn: float | None
    note: str


def angle_grid(start: float = 1.0, stop: float = 179.0, step: float = 0.5) -> tuple[float, ...]:
    """Uniform angle grid in degrees; endpoints must stay inside (0, 180), at most MAX_POINTS."""
    if not 0.0 < start < stop < 180.0:
        raise DomainError(f"grid must lie strictly inside (0, 180): [{start}, {stop}]")
    if not (math.isfinite(step) and step > 0.0):
        raise DomainError(f"step must be positive and finite, got {step}")
    count = (stop - start) / step  # inf for a subnormal step
    if count >= MAX_POINTS - 0.5:  # round(count) + 1 would exceed MAX_POINTS
        raise DomainError(f"step {step} gives more than {MAX_POINTS} points")
    n = round(count)
    if abs(start + n * step - stop) > 1e-9:
        raise DomainError(f"step {step} does not divide [{start}, {stop}] evenly")
    return tuple(start + i * step for i in range(n + 1))


def _kernels(model: MottParams | HardSphereParams):
    """The model's cross section sigma(theta, model) and exact 90 deg curvature(model)."""
    if isinstance(model, MottParams):
        return identical_cross_section, lambda m: curvature_at_90(m, m.spin.statistics)
    if isinstance(model, HardSphereParams):
        return hs_identical_cross_section, hs_curvature_at_90
    raise TypeError(f"unsupported model type {type(model).__name__}")


def build_curve(
    model: MottParams | HardSphereParams,
    grid: tuple[float, ...],
) -> CrossSectionCurve:
    """Sample the symmetrized cross section of `model` on `grid` (degrees)."""
    sigma, _ = _kernels(model)
    values = tuple(sigma(t, model) for t in grid)
    if model.spin.statistics is Statistics.BOSON:
        for t, v in zip(grid, values):
            if v < 0.0:
                raise DomainError(f"negative boson cross section {v} at {t} deg")
    return CrossSectionCurve(thetas=tuple(grid), values=values, model=model)


def _index_of_90(curve: CrossSectionCurve) -> int:
    for i, t in enumerate(curve.thetas):
        if abs(t - 90.0) < 1e-9:
            return i
    raise DomainError("curve grid does not contain 90 degrees")


def plateau(curve: CrossSectionCurve, epsilon: float) -> PlateauReport:
    """Scan outward from 90 deg for the largest band with |sigma/sigma90 - 1| <= eps.

    The 90 deg curvature is the closed form of the curve's model, whatever the grid.
    """
    if not (math.isfinite(epsilon) and epsilon > 0.0):
        raise DomainError(f"epsilon must be positive and finite, got {epsilon}")
    if not curve.is_symmetric_grid():
        raise DomainError("plateau needs a grid symmetric about 90 degrees")
    i90 = _index_of_90(curve)
    v90 = curve.values[i90]
    if v90 == 0.0:
        raise DomainError("sigma(90) is zero; plateau ratio undefined")
    j = 0
    while i90 - (j + 1) >= 0 and i90 + (j + 1) < len(curve.thetas):
        nxt = j + 1
        lo_ok = abs(curve.values[i90 - nxt] / v90 - 1.0) <= epsilon
        hi_ok = abs(curve.values[i90 + nxt] / v90 - 1.0) <= epsilon
        if not (lo_ok and hi_ok):
            break
        j = nxt
    _, curvature = _kernels(curve.model)
    return PlateauReport(
        theta_lo=curve.thetas[i90 - j],
        theta_hi=curve.thetas[i90 + j],
        width=curve.thetas[i90 + j] - curve.thetas[i90 - j],
        curvature_90=curvature(curve.model),
        reference_value=v90,
    )


def classify_curvature(curvature: float, a: float = 1.0) -> str:
    """Classify the 90 deg point as 'min', 'flat' or 'max' by curvature sign."""
    if abs(curvature) < FLAT_CURVATURE_TOL * a * a:
        return "flat"
    return "min" if curvature > 0.0 else "max"


def sensitivity_sweep(
    spin: Spin,
    delta: float,
    grid: tuple[float, ...] | None = None,
) -> SweepResult:
    """Curves at eta_C (1-delta), eta_C, eta_C (1+delta) with a = 1 and shape classification.

    Since E scales as eta^-2, a fractional eta shift of delta maps to a
    first-order energy shift of 2 delta.
    """
    if not 0.0 <= delta < 0.5:
        raise DomainError(f"delta must lie in [0, 0.5), got {delta}")
    if grid is None:
        grid = angle_grid()
    eta_c = critical_eta(spin)
    etas = (eta_c * (1.0 - delta), eta_c, eta_c * (1.0 + delta))
    curves = []
    labels = []
    for eta in etas:
        params = MottParams(a=1.0, eta=eta, spin=spin)
        curves.append(build_curve(params, grid))
        labels.append(classify_curvature(curvature_at_90(params, spin.statistics)))
    return SweepResult(
        etas=etas,
        curves=tuple(curves),
        classifications=tuple(labels),
        energy_shift_first_order=2.0 * delta,
        energy_ratio_below=(1.0 - delta) ** -2 - 1.0,
        energy_ratio_above=(1.0 + delta) ** -2 - 1.0,
    )


def barrier_radius(
    species: ParticleSpecies,
    constants: PhysicalConstants = DEFAULT_CONSTANTS,
) -> float:
    """Touching radius of the identical pair, 2 r0 (M/m0)^(1/3), in fm."""
    return 2.0 * constants.r0 * (species.mass / constants.nucleon_mass) ** (1.0 / 3.0)


def barrier_height(
    species: ParticleSpecies,
    constants: PhysicalConstants = DEFAULT_CONSTANTS,
) -> float:
    """Coulomb barrier V_B = q^2 / R_B in keV."""
    q2 = species.charge_squared(constants)
    return q2 / barrier_radius(species, constants) * 1000.0


def feasibility(
    species: ParticleSpecies,
    constants: PhysicalConstants = DEFAULT_CONSTANTS,
) -> FeasibilityResult:
    """Can the critical energy be reached below the Coulomb barrier?

    The decision compares E_C and V_B directly.  The Z^(10/3) < 25.4 (2s+1)
    shorthand is evaluated alongside for reporting only.
    """
    e_c = critical_energy(species, constants)
    v_b = barrier_height(species, constants)
    return FeasibilityResult(
        feasible=e_c < v_b,
        e_critical_kev=e_c,
        barrier_kev=v_b,
        condition_lhs=float(species.z) ** (10.0 / 3.0),
        condition_rhs=FEASIBILITY_COEFFICIENT * species.spin.multiplicity,
    )


def sigma90(
    species: ParticleSpecies,
    constants: PhysicalConstants = DEFAULT_CONSTANTS,
) -> tuple[float, float]:
    """(scaling, direct) 90-degree cross sections at the critical energy, in barn.

    scaling: SIGMA90_SCALING_BARN (3s+2)^2 / Z^6, the printed shorthand
             whose prefactor is exact only for s = 0.
    direct:  2 a^2 (1 +- 1/(2s+1)) with a evaluated at E_C: sigma_inc = 2 a^2
             and sigma_int = 2 a^2 at 90 deg, combined as an unpolarized pair.
    """
    s = species.spin.value
    scaling = SIGMA90_SCALING_BARN * (3.0 * s + 2.0) ** 2 / float(species.z) ** 6
    system = CollisionSystem(species=species, energy_cm=critical_energy(species, constants))
    a = half_closest_approach(system, constants)
    two_a2 = 2.0 * a * a
    direct = symmetrized_combination(two_a2, two_a2, species.spin,
                                     Polarization.UNPOLARIZED) * BARN_PER_FM2
    return scaling, direct


def table_one(
    catalog: list[ParticleSpecies],
    constants: PhysicalConstants = DEFAULT_CONSTANTS,
) -> list[SystemReportRow]:
    """Report E_C, V_B, both sigma(90) forms and feasibility per species."""
    rows = []
    for sp in catalog:
        feas = feasibility(sp, constants)
        scaling, direct = sigma90(sp, constants)
        reference = REFERENCE_SIGMA90_BARN.get(sp.name)
        note = ""
        if reference is not None and abs(scaling - reference) / reference > 0.10:
            note = (
                f"published sigma90 reference {reference:g} barn is inconsistent "
                "with both computed forms; excluded from validation"
            )
        rows.append(
            SystemReportRow(
                name=sp.name,
                spin=sp.spin,
                e_critical_kev=feas.e_critical_kev,
                barrier_kev=feas.barrier_kev,
                sigma90_scaling_barn=scaling,
                sigma90_direct_barn=direct,
                feasible=feas.feasible,
                condition_lhs=feas.condition_lhs,
                condition_rhs=feas.condition_rhs,
                sigma90_reference_barn=reference,
                note=note,
            )
        )
    return rows
