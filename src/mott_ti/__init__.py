"""Identical-particle elastic scattering and transverse-isotropy analysis.

Library layout:

- constants, species, kinematics: data types and kinematic maps; species
  also holds the exchange weight eps w and the critical Sommerfeld
  parameter eta_C derived from it
- coulomb: closed-form Coulomb cross sections, symmetrized (Mott) and
  incoherent, from one evaluation
- hardsphere: partial-wave hard-sphere scattering and the critical kR
- analysis: curves, flatness plateaus, sensitivity sweeps, feasibility
- cli: the `mott-ti` command line
"""

__version__ = "0.1.0"

from .analysis import (
    CrossSectionCurve,
    PlateauReport,
    SweepResult,
    SystemReportRow,
    angle_grid,
    barrier_height,
    barrier_radius,
    build_curve,
    classify_curvature,
    plateau,
    sensitivity_sweep,
    table_one,
)
from .constants import DEFAULT_CONSTANTS, PhysicalConstants, load_constants
from .coulomb import (
    MottParams,
    critical_eta_numeric,
    curvature_at_90,
    curvature_at_90_fd,
    identical_cross_section,
    incoherent_cross_sections,
    mott_cross_sections,
)
from .errors import DivergenceError, DomainError, RootNotFoundError
from .hardsphere import (
    HardSphereParams,
    PhaseShiftSet,
    find_critical_kR,
    hard_sphere_phase_shifts,
    hs_amplitude,
    hs_cross_sections,
    hs_curvature_at_90,
    hs_identical_cross_section,
)
from .kinematics import (
    critical_energy,
    energy_from_eta,
    half_closest_approach,
    sommerfeld_eta,
    wavenumber,
)
from .species import (
    CollisionSystem,
    ParticleSpecies,
    Polarization,
    Spin,
    Statistics,
    builtin_catalog,
    critical_eta,
    find_species,
    load_species_catalog,
)
from .special import legendre_p_table, spherical_bessel_j_table, spherical_bessel_y_table
