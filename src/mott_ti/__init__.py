"""Identical-particle elastic scattering and transverse-isotropy analysis.

Library layout:

- constants, species, kinematics: data types and kinematic maps
- coulomb: closed-form symmetrized Coulomb (Mott) cross sections and the
  critical Sommerfeld parameter
- hardsphere: partial-wave hard-sphere scattering and the critical kR
- analysis: curves, flatness plateaus, sensitivity sweeps, feasibility
- cli: the `mott-ti` command line
"""

__version__ = "0.1.0"

from .analysis import (
    CrossSectionCurve,
    FeasibilityResult,
    PlateauReport,
    SweepResult,
    SystemReportRow,
    angle_grid,
    barrier_height,
    barrier_radius,
    build_curve,
    classify_curvature,
    feasibility,
    plateau,
    sensitivity_sweep,
    sigma90,
    table_one,
)
from .constants import DEFAULT_CONSTANTS, PhysicalConstants, load_constants
from .coulomb import (
    MottParams,
    critical_eta,
    critical_eta_numeric,
    curvature_at_90,
    curvature_at_90_fd,
    identical_cross_section,
    sigma_inc_coulomb,
    sigma_int_coulomb,
)
from .errors import DivergenceError, DomainError, RootNotFoundError
from .hardsphere import (
    HardSphereParams,
    PhaseShiftSet,
    find_critical_kR,
    hard_sphere_phase_shifts,
    hs_amplitude,
    hs_curvature_at_90,
    hs_identical_cross_section,
    hs_total_cross_section,
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
    find_species,
    load_species_catalog,
)
from .special import legendre_p_table, spherical_bessel_j_table, spherical_bessel_y_table
