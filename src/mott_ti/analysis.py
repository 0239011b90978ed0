"""Derived observables: curves, plateau detection, sensitivity, feasibility.

The headline observable is "transverse isotropy": near-constancy of the
identical-particle cross section around 90 degrees at the critical
Sommerfeld parameter (Coulomb) or critical kR (hard sphere).
"""

from __future__ import annotations

import math

from .constants import BARN_PER_FM2, DEFAULT_CONSTANTS, PhysicalConstants, Record
from .coulomb import MottParams, curvature_at_90, mott_cross_sections
from .errors import DomainError
from .hardsphere import HardSphereParams, hs_cross_sections, hs_curvature_at_90
from .kinematics import KEV_PER_MEV, critical_energy, half_closest_approach
from .numerics import MAX_POINTS
from .species import (
    CollisionSystem,
    ParticleSpecies,
    Polarization,
    Spin,
    critical_eta,
    exchange_weight,
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
# only to sanity-flag report rows: a row is flagged when both computed forms
# differ from its reference by more than 10%, as the shipped d row does.
REFERENCE_SIGMA90_BARN: dict[str, float] = {"d": 135.0, "6Li": 1.17, "alpha": 2.3}


class CrossSectionCurve(Record):
    """Sampled angular distribution of one model.

    The constructor checks the angles in one pass, each against the one
    before (0 first) and 180, and the values in one C-level sum: a finite sum
    means every value is finite, and only a sum that is not walks the values
    again, to name the first non-finite one in the DomainError.
    """

    __slots__ = ("thetas", "values", "model")

    def __init__(
        self,
        thetas: tuple[float, ...],  # degrees, strictly increasing, inside (0, 180)
        values: tuple[float, ...],  # fm^2/sr (Coulomb) or units of R^2 (hard sphere)
        model: MottParams | HardSphereParams,  # the model that was sampled
    ) -> None:
        if len(thetas) != len(values):
            raise DomainError("thetas and values must have the same length")
        if not thetas:
            raise DomainError("curve must contain at least one point")
        prev = 0.0
        for t in thetas:
            if not prev < t < 180.0:
                raise DomainError(f"angles must be strictly increasing inside (0, 180): {t}")
            prev = t
        if not math.isfinite(sum(values)):  # a nan or an inf in values, or a sum past float range
            for v in values:
                if not math.isfinite(v):
                    raise DomainError(f"non-finite cross section {v}")
        self._store(thetas, values, model)

    def is_symmetric_grid(self) -> bool:
        """Whether each angle and its mirror image in the grid sum to 180 within 1e-9."""
        thetas = self.thetas
        for t, mirror in zip(thetas[:len(thetas) // 2 + 1], reversed(thetas)):
            if not abs(t + mirror - 180.0) < 1e-9:
                return False
        return True


class PlateauReport(Record):
    """Largest symmetric band around 90 deg staying within epsilon of sigma(90)."""

    __slots__ = ("theta_lo", "theta_hi", "width", "curvature_90", "reference_value")

    def __init__(
        self,
        theta_lo: float,         # degrees
        theta_hi: float,         # degrees
        width: float,            # degrees
        curvature_90: float,     # half-angle convention, exact for the curve's model
        reference_value: float,  # sigma(90)
    ) -> None:
        self._store(theta_lo, theta_hi, width, curvature_90, reference_value)


class SweepResult(Record):
    """Cross-section shapes just below, at, and just above the critical eta."""

    __slots__ = ("etas", "curves", "classifications", "energy_shift_first_order",
                 "energy_ratio_below", "energy_ratio_above")

    def __init__(
        self,
        etas: tuple[float, float, float],
        curves: tuple[CrossSectionCurve, CrossSectionCurve, CrossSectionCurve],
        classifications: tuple[str, str, str],  # each "min", "flat" or "max"
        energy_shift_first_order: float,        # |dE/E| ~ 2 delta
        energy_ratio_below: float,              # E(eta_low)/E(eta_C) - 1
        energy_ratio_above: float,              # E(eta_high)/E(eta_C) - 1
    ) -> None:
        self._store(etas, curves, classifications, energy_shift_first_order,
                    energy_ratio_below, energy_ratio_above)


class SystemReportRow(Record):
    """One species of the feasibility table; its fields are the table's columns."""

    __slots__ = ("name", "spin", "e_critical_kev", "barrier_kev", "sigma90_scaling_barn",
                 "sigma90_direct_barn", "feasible", "condition_lhs", "condition_rhs",
                 "sigma90_reference_barn", "note")

    def __init__(
        self,
        name: str,
        spin: Spin,
        e_critical_kev: float,
        barrier_kev: float,
        sigma90_scaling_barn: float,
        sigma90_direct_barn: float,
        feasible: bool,        # authoritative: E_C < V_B
        condition_lhs: float,  # Z^(10/3)
        condition_rhs: float,  # 25.4 (2s+1)
        sigma90_reference_barn: float | None,
        note: str,
    ) -> None:
        self._store(name, spin, e_critical_kev, barrier_kev, sigma90_scaling_barn,
                    sigma90_direct_barn, feasible, condition_lhs, condition_rhs,
                    sigma90_reference_barn, note)


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
    return tuple([start + step * i for i in range(n + 1)])


def _kernels(model: MottParams | HardSphereParams):
    """The model's cross sections sigmas(grid, model) and exact 90 deg curvature(model)."""
    if isinstance(model, MottParams):
        return mott_cross_sections, curvature_at_90
    if isinstance(model, HardSphereParams):
        return hs_cross_sections, hs_curvature_at_90
    raise TypeError(f"unsupported model type {type(model).__name__}")


def build_curve(
    model: MottParams | HardSphereParams,
    grid: tuple[float, ...],
) -> CrossSectionCurve:
    """Sample the symmetrized cross section of `model` on `grid` (degrees)."""
    sigmas, _ = _kernels(model)
    return CrossSectionCurve(thetas=tuple(grid), values=sigmas(grid, model), model=model)


def plateau(curve: CrossSectionCurve, epsilon: float) -> PlateauReport:
    """Scan outward from 90 deg for the largest band with |sigma/sigma90 - 1| <= eps.

    The grid must have odd length and be symmetric about 90 deg, its centre.
    The 90 deg curvature is the closed form of the curve's model, whatever the grid.
    """
    if not (math.isfinite(epsilon) and epsilon > 0.0):
        raise DomainError(f"epsilon must be positive and finite, got {epsilon}")
    n = len(curve.thetas)
    if n % 2 == 0 or not curve.is_symmetric_grid():
        raise DomainError("plateau needs an odd-length grid symmetric about 90 degrees")
    i90, values = n // 2, curve.values
    v90 = values[i90]
    if v90 == 0.0:
        raise DomainError("sigma(90) is zero; plateau ratio undefined")
    j = 0
    while (j < i90 and abs(values[i90 - j - 1] / v90 - 1.0) <= epsilon
           and abs(values[i90 + j + 1] / v90 - 1.0) <= epsilon):
        j += 1
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
        labels.append(classify_curvature(curvature_at_90(params)))
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
    """Coulomb barrier V_B = q^2 / R_B in keV; DomainError unless 0 < V_B < inf."""
    r_b = barrier_radius(species, constants)
    v_b = species.charge_squared(constants) / r_b * KEV_PER_MEV if r_b > 0.0 else math.inf
    if not 0.0 < v_b < math.inf:  # constants far from their usual size, e.g. r0 1e308
        raise DomainError(f"Coulomb barrier of {species.name} is out of float range: R_B = "
                          f"{r_b} fm, V_B = {v_b} keV (check the constants r0 and nucleon_mass)")
    return v_b


def table_one(
    catalog: list[ParticleSpecies],
    constants: PhysicalConstants = DEFAULT_CONSTANTS,
) -> list[SystemReportRow]:
    """Report E_C, V_B, both sigma(90) forms and feasibility per species.

    Feasibility compares E_C and V_B directly.  The Z^(10/3) < 25.4 (2s+1)
    shorthand is evaluated alongside for reporting only.  The two sigma(90)
    forms, in barn at E_C:

    scaling: SIGMA90_SCALING_BARN (3s+2)^2 / Z^6, the printed shorthand
             whose prefactor is exact only for s = 0.
    direct:  2 a^2 (1 +- 1/(2s+1)) with a evaluated at E_C: sigma_inc = 2 a^2
             and sigma_int = 2 a^2 at 90 deg, combined as an unpolarized pair.
    """
    rows = []
    for sp in catalog:
        e_c = critical_energy(sp, constants)
        v_b = barrier_height(sp, constants)
        scaling = SIGMA90_SCALING_BARN * (3.0 * sp.spin.value + 2.0) ** 2 / float(sp.z) ** 6
        a = half_closest_approach(CollisionSystem(species=sp, energy_cm=e_c), constants)
        two_a2 = 2.0 * a * a
        eps_w = exchange_weight(sp.spin, Polarization.UNPOLARIZED)
        direct = (two_a2 + eps_w * two_a2) * BARN_PER_FM2
        reference = REFERENCE_SIGMA90_BARN.get(sp.name)
        note = ""
        if reference is not None and all(abs(form - reference) / reference > 0.10
                                         for form in (scaling, direct)):
            note = (
                f"published sigma90 reference {reference:g} barn is inconsistent "
                "with both computed forms; excluded from validation"
            )
        rows.append(
            SystemReportRow(
                name=sp.name,
                spin=sp.spin,
                e_critical_kev=e_c,
                barrier_kev=v_b,
                sigma90_scaling_barn=scaling,
                sigma90_direct_barn=direct,
                feasible=e_c < v_b,
                condition_lhs=float(sp.z) ** (10.0 / 3.0),
                condition_rhs=FEASIBILITY_COEFFICIENT * sp.spin.multiplicity,
                sigma90_reference_barn=reference,
                note=note,
            )
        )
    return rows
