"""Kinematic maps between CM energy, Sommerfeld parameter, length scales.

Non-relativistic throughout; the reduced mass of an identical pair is M/2,
so the relative velocity is v = sqrt(2E/mu) = sqrt(4E/M) (units of c).
"""

from __future__ import annotations

import math

from .constants import DEFAULT_CONSTANTS, PhysicalConstants
from .errors import DomainError
from .species import CollisionSystem, ParticleSpecies, critical_eta

KEV_PER_MEV = 1000.0


def sommerfeld_eta(
    system: CollisionSystem,
    constants: PhysicalConstants = DEFAULT_CONSTANTS,
) -> float:
    """Sommerfeld parameter eta = q^2/(hbar v) = (q^2/hbar_c) sqrt(M/(4E))."""
    e_mev = system.energy_cm / KEV_PER_MEV
    q2 = system.species.charge_squared(constants)
    return (q2 / constants.hbar_c) * math.sqrt(system.species.mass / (4.0 * e_mev))


def energy_from_eta(
    species: ParticleSpecies,
    eta: float,
    constants: PhysicalConstants = DEFAULT_CONSTANTS,
) -> float:
    """CM energy (keV) at which the pair has Sommerfeld parameter eta.

    E = M q^4 / (4 hbar^2 eta^2); exact inverse of sommerfeld_eta.  Raises
    DomainError unless eta is positive and finite and E is a finite positive
    float (eta^2 leaves the float range below ~1e-154 and above ~1e154).
    """
    if not 0.0 < eta < math.inf:  # also false for nan
        raise DomainError(f"eta must be positive and finite, got {eta}")
    q2 = species.charge_squared(constants)
    try:
        e_kev = species.mass * q2 * q2 / (4.0 * constants.hbar_c**2 * eta**2) * KEV_PER_MEV
    except (OverflowError, ZeroDivisionError):  # eta**2 overflowed or underflowed to 0
        e_kev = math.nan
    if not 0.0 < e_kev < math.inf:
        raise DomainError(f"eta {eta} gives no finite positive energy")
    return e_kev


def half_closest_approach(
    system: CollisionSystem,
    constants: PhysicalConstants = DEFAULT_CONSTANTS,
) -> float:
    """Half the head-on closest-approach distance, a = q^2/(2E), in fm."""
    e_mev = system.energy_cm / KEV_PER_MEV
    return system.species.charge_squared(constants) / (2.0 * e_mev)


def wavenumber(
    system: CollisionSystem,
    constants: PhysicalConstants = DEFAULT_CONSTANTS,
) -> float:
    """Relative-motion wavenumber k = sqrt(2 mu E)/hbar = sqrt(M E)/hbar_c, fm^-1."""
    e_mev = system.energy_cm / KEV_PER_MEV
    return math.sqrt(system.species.mass * e_mev) / constants.hbar_c


def critical_energy(
    species: ParticleSpecies,
    constants: PhysicalConstants = DEFAULT_CONSTANTS,
) -> float:
    """CM energy (keV) at which eta reaches its critical value sqrt(3s+2)."""
    return energy_from_eta(species, critical_eta(species.spin), constants)
