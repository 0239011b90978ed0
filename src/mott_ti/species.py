"""Particle species, spin/statistics bookkeeping, and the species catalog.

Spin is stored as twice its value so half-integers stay exact.  Exchange
statistics is always derived from the spin: integer spin pairs symmetrize
(bosons), half-integer spin pairs antisymmetrize (fermions).
"""

from __future__ import annotations

import math
import os
from enum import Enum

from .constants import DEFAULT_CONSTANTS, PhysicalConstants, Record, table_rows
from .errors import DomainError

# Smallest accepted CM energy (keV): E in MeV stays a normal float above it,
# so the kinematic quotients q^2/(2E) and M/(4E) never divide by zero.
ENERGY_MIN_KEV = 1e-300

# Largest accepted atomic number: q^2 = Z^2 e^2 and the table's shorthands
# Z^(10/3) and Z^6 all stay floats (Z^6 would overflow from Z ~ 2.4e51).
Z_MAX = 10**50

# Largest accepted 2s: up to 2**53 every integer is an exact float, so s =
# 2s/2 is exact and 2s+1 and 3s+2 are off by at most one rounding.
TWICE_S_MAX = 2**53

# Accepted mass range (MeV).  At E_C, a = 2 (hbar_c eta_C)^2 / (M q^2) ~ 5.4e4
# eta_C^2 / (M Z^2) fm with 2 <= eta_C^2 <= 1.4e16 (2s <= TWICE_S_MAX) and Z in
# [1, Z_MAX], so a lies in [1e-145, 1e141] fm and a^2 is a finite normal float;
# R_B = 2 r0 (M/m0)^(1/3) stays above 1e-41 fm, so V_B = q^2/R_B is finite.
MASS_MIN = 1e-120
MASS_MAX = 1e50


class Statistics(Enum):
    BOSON = "boson"
    FERMION = "fermion"


class Polarization(Enum):
    """Spin preparation of the colliding pair.

    ALIGNED means both spins are prepared parallel, so the spin state is
    symmetric and the spatial amplitudes combine as a pure plus (bosons)
    or minus (fermions) channel.  UNPOLARIZED averages over orientations,
    which damps the interference term by 1/(2s+1).
    """

    UNPOLARIZED = "unpolarized"
    ALIGNED = "aligned"


class Spin(Record):
    """Spin stored as 2s, an integer in [0, TWICE_S_MAX]."""

    __slots__ = ("twice_s",)

    def __init__(self, twice_s: int) -> None:
        if not isinstance(twice_s, int) or not 0 <= twice_s <= TWICE_S_MAX:
            raise DomainError(f"2s must be an integer in [0, {TWICE_S_MAX}], got {twice_s!r}")
        self._store(twice_s)

    @classmethod
    def parse(cls, text: str) -> "Spin":
        """Parse '0', '1', '1/2', '9/2' into a Spin."""
        text = text.strip()
        if "/" in text:
            num, _, den = text.partition("/")
            if den.strip() != "2":
                raise ValueError(f"spin denominator must be 2: {text!r}")
            return cls(int(num))
        return cls(2 * int(text))

    @property
    def value(self) -> float:
        return self.twice_s / 2.0

    @property
    def multiplicity(self) -> int:
        """Number of magnetic substates, 2s+1."""
        return self.twice_s + 1

    @property
    def statistics(self) -> Statistics:
        return Statistics.BOSON if self.twice_s % 2 == 0 else Statistics.FERMION

    def __str__(self) -> str:
        return str(self.twice_s // 2) if self.twice_s % 2 == 0 else f"{self.twice_s}/2"


def check_statistics(spin: Spin, statistics: Statistics | None) -> None:
    """Raise DomainError unless a caller's statistics, if given, matches the spin's parity."""
    if statistics is not None and statistics is not spin.statistics:
        raise DomainError(
            f"spin {spin} implies {spin.statistics.value}, got {statistics.value}"
        )


def exchange_weight(spin: Spin, polarization: Polarization) -> float:
    """eps w, the factor of the interference term for an identical pair.

    eps = +1 for bosons and -1 for fermions (by the spin's statistics);
    w = 1 for an aligned pair and 1/(2s+1) for an unpolarized one.  Every
    cross section and curvature is sigma_inc + eps w sigma_int:

    sigma_inc + sigma_int          aligned bosons
    sigma_inc - sigma_int          aligned fermions
    sigma_inc +- sigma_int/(2s+1)  unpolarized (sign by the spin's statistics)
    """
    sign = 1.0 if spin.statistics is Statistics.BOSON else -1.0
    weight = 1.0 if polarization is Polarization.ALIGNED else 1.0 / spin.multiplicity
    return sign * weight


def critical_eta(
    spin: Spin,
    polarization: Polarization = Polarization.UNPOLARIZED,
) -> float:
    """Critical Sommerfeld parameter at which the boson 90 deg curvature vanishes.

    eta_C^2 = (1 + 3/w)/2 with w = |exchange_weight|: sqrt(3s+2) for
    unpolarized pairs and sqrt(2) for aligned pairs, whatever the spin.
    """
    return math.sqrt((1.0 + 3.0 / abs(exchange_weight(spin, polarization))) / 2.0)


class ParticleSpecies(Record):
    """One collision partner: charge number, mass (MeV), and spin."""

    __slots__ = ("name", "z", "mass", "spin")

    def __init__(self, name: str, z: int, mass: float, spin: Spin) -> None:
        if not 1 <= z <= Z_MAX:
            raise DomainError(f"atomic number z must lie in [1, {Z_MAX:.0e}], got {z}")
        if not MASS_MIN <= mass <= MASS_MAX:  # also false for nan
            raise DomainError(f"mass must lie in [{MASS_MIN:g}, {MASS_MAX:g}] MeV, "
                              f"got {mass}")
        self._store(name, z, mass, spin)

    def charge_squared(self, constants: PhysicalConstants = DEFAULT_CONSTANTS) -> float:
        """q^2 = Z^2 e^2 in MeV fm."""
        return self.z * self.z * constants.e_squared


class CollisionSystem(Record):
    """An identical pair of `species` colliding at `energy_cm` (keV, CM frame).

    The reduced mass of an identical pair is M/2, which is what every
    kinematic formula here uses.
    """

    __slots__ = ("species", "energy_cm")

    def __init__(self, species: ParticleSpecies, energy_cm: float) -> None:
        if not ENERGY_MIN_KEV <= energy_cm < math.inf:  # also false for nan
            raise DomainError(f"energy_cm must be finite and >= {ENERGY_MIN_KEV:g} keV, "
                              f"got {energy_cm}")
        self._store(species, energy_cm)


def _read_catalog(
    path: str | os.PathLike[str],
    constants: PhysicalConstants,
    source: str,
) -> list[ParticleSpecies]:
    out: list[ParticleSpecies] = []
    for _, (name, z_text, mass_text, twice_s_text) in table_rows(
        path, source, "name Z A-or-mass 2s"
    ):
        # integer third column = mass number A (mass = A x amu);
        # a decimal literal is an exact mass in MeV
        try:
            mass = int(mass_text) * constants.amu
        except (ValueError, OverflowError):  # an A past float range reads as inf
            mass = float(mass_text)
        out.append(
            ParticleSpecies(
                name=name,
                z=int(z_text),
                mass=mass,
                spin=Spin(int(twice_s_text)),
            )
        )
    return out


def load_species_catalog(
    path: str | os.PathLike[str],
    constants: PhysicalConstants = DEFAULT_CONSTANTS,
) -> list[ParticleSpecies]:
    """Load a plain-text species table: ``name  Z  A-or-mass  2s`` per line."""
    return _read_catalog(path, constants, str(path))


def builtin_catalog(
    constants: PhysicalConstants = DEFAULT_CONSTANTS,
) -> list[ParticleSpecies]:
    """The shipped catalog: d, alpha, 6Li."""
    path = os.path.join(os.path.dirname(__file__), "data", "species.txt")
    return _read_catalog(path, constants, "data/species.txt")


def find_species(name: str, catalog: list[ParticleSpecies]) -> ParticleSpecies:
    for sp in catalog:
        if sp.name == name:
            return sp
    known = ", ".join(sp.name for sp in catalog)
    raise DomainError(f"unknown species {name!r} (catalog has: {known})")
