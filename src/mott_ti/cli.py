"""Command-line interface.

Every command writes one CSV (default) or JSON document to stdout and
embeds the parameters that produced it.  Exit codes: 0 success (including
a scan that finds nothing), 2 usage or validation error, 3 numerical
failure (a root was asserted but the bracket holds no sign change).

Set MOTT_TI_CONSTANTS to a constants file (same plain-text format as the
species catalog, rows of ``name value``) to override the built-in
physical constants.
"""

from __future__ import annotations

import os

import click

from . import __version__
from .analysis import angle_grid, build_curve, plateau as plateau_op, sensitivity_sweep, table_one
from .constants import BARN_PER_FM2, DEFAULT_CONSTANTS, PhysicalConstants, load_constants
from .coulomb import MottParams, critical_eta, critical_eta_numeric, sigma_inc_coulomb
from .errors import DomainError, RootNotFoundError
from .hardsphere import HardSphereParams, find_critical_kR
from .kinematics import half_closest_approach, sommerfeld_eta
from .output import OutputEnvelope
from .species import (
    CollisionSystem,
    Polarization,
    Spin,
    Statistics,
    builtin_catalog,
    check_statistics,
    find_species,
    load_species_catalog,
)

CONSTANTS_ENV_VAR = "MOTT_TI_CONSTANTS"

EXIT_NUMERICAL_FAILURE = 3


class SpinType(click.ParamType):
    name = "spin"

    def convert(self, value, param, ctx):
        if isinstance(value, Spin):
            return value
        try:
            return Spin.parse(str(value))
        except (ValueError, DomainError) as exc:
            self.fail(f"invalid spin {value!r}: {exc}", param, ctx)


SPIN = SpinType()

format_option = click.option(
    "--format", "fmt", type=click.Choice(["csv", "json"]), default="csv",
    show_default=True, help="Output format.",
)


def _constants() -> PhysicalConstants:
    path = os.environ.get(CONSTANTS_ENV_VAR)
    if path:
        try:
            return load_constants(path)
        except (OSError, ValueError) as exc:
            raise click.UsageError(f"cannot load constants from {CONSTANTS_ENV_VAR}: {exc}")
    return DEFAULT_CONSTANTS


def _catalog(path: str | None, constants: PhysicalConstants):
    if path is None:
        return builtin_catalog(constants)
    try:
        return load_species_catalog(path, constants)
    except (OSError, ValueError) as exc:
        raise click.UsageError(f"cannot load catalog {path}: {exc}")


def _statistics(spin: Spin, stat: str | None) -> Statistics:
    if stat is not None:
        check_statistics(spin, Statistics(stat))
    return spin.statistics


def _emit(envelope: OutputEnvelope, fmt: str) -> None:
    click.echo(envelope.render(fmt), nl=False)


grid_options = [
    click.option("--theta-min", type=float, default=1.0, show_default=True,
                 help="Grid start (degrees)."),
    click.option("--theta-max", type=float, default=179.0, show_default=True,
                 help="Grid end (degrees)."),
    click.option("--theta-step", type=float, default=0.5, show_default=True,
                 help="Grid step (degrees)."),
]


def add_options(options):
    def wrap(fn):
        for option in reversed(options):
            fn = option(fn)
        return fn
    return wrap


class _Command(click.Command):
    """A subcommand whose library errors become the documented exit codes.

    DomainError and an unknown catalog species exit 2
    with the subcommand's usage line; RootNotFoundError exits 3.
    """

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except DomainError as exc:
            raise click.UsageError(str(exc), ctx) from exc
        except KeyError as exc:  # find_species: name not in the catalog
            raise click.UsageError(str(exc.args[0]), ctx) from exc
        except RootNotFoundError as exc:
            click.echo(f"error: {exc}", err=True)
            ctx.exit(EXIT_NUMERICAL_FAILURE)


class _Group(click.Group):
    command_class = _Command


@click.group(cls=_Group)
@click.version_option(__version__, prog_name="mott-ti")
def main():
    """Identical-particle scattering cross sections and transverse isotropy."""


@main.command()
@click.option("--spin", type=SPIN, required=True, help="Spin as 0, 1, 1/2, 9/2, ...")
@click.option("--numeric", is_flag=True,
              help="Also locate the critical eta numerically and report the difference.")
@click.option("--bracket", type=float, nargs=2, default=(0.5, 4.0), show_default=True,
              help="Eta bracket for the numeric root search.")
@format_option
def critical(spin: Spin, numeric: bool, bracket, fmt: str):
    """Critical Sommerfeld parameter sqrt(3s+2) for the given spin."""
    constants = _constants()
    eta_c = critical_eta(spin)
    scalars = {"eta_critical": eta_c}
    if numeric:
        eta_num = critical_eta_numeric(spin, bracket)
        scalars["eta_critical_numeric"] = eta_num
        scalars["difference"] = eta_num - eta_c
    params = {"command": "critical", "spin": str(spin), "numeric": numeric,
              "bracket_lo": bracket[0], "bracket_hi": bracket[1]}
    _emit(OutputEnvelope(params=params, constants=constants, scalars=scalars), fmt)


@main.command()
@click.option("--system", "system_name", type=str, default=None,
              help="Species name or pair, e.g. 'alpha' or 'alpha-alpha'.")
@click.option("--energy", type=float, default=None, help="CM energy in keV (with --system).")
@click.option("--eta", type=float, default=None, help="Sommerfeld parameter (with --spin; a=1 fm).")
@click.option("--spin", type=SPIN, default=None, help="Spin (with --eta).")
@click.option("--stat", type=click.Choice(["boson", "fermion"]), default=None,
              help="Statistics; must match the spin parity.")
@click.option("--polarization", type=click.Choice(["unpolarized", "aligned"]),
              default="unpolarized", show_default=True)
@click.option("--incoherent-only", is_flag=True,
              help="Emit only the distinguishable-particle (incoherent) sum.")
@click.option("--normalize", type=click.Choice(["rutherford90"]), default=None,
              help="Divide by the 90-degree Rutherford value a^2.")
@add_options(grid_options)
@click.option("--catalog", type=click.Path(exists=True, dir_okay=False), default=None,
              help="Species catalog file (defaults to the built-in one).")
@format_option
def angular(system_name, energy, eta, spin, stat, polarization, incoherent_only,
            normalize, theta_min, theta_max, theta_step, catalog, fmt):
    """Angular distribution of the symmetrized Coulomb cross section."""
    constants = _constants()
    grid = angle_grid(theta_min, theta_max, theta_step)
    params = {"command": "angular"}

    if system_name is not None:
        if energy is None:
            raise click.UsageError("--system requires --energy")
        if eta is not None:
            raise click.UsageError("--system and --eta are mutually exclusive")
        parts = system_name.split("-")
        if len(parts) == 2:
            if parts[0] != parts[1]:
                raise click.UsageError(
                    f"only identical pairs are supported, got {system_name!r}"
                )
            system_name = parts[0]
        species = find_species(system_name, _catalog(catalog, constants))
        system = CollisionSystem(species=species, energy_cm=energy)
        a = half_closest_approach(system, constants)
        eta_val = sommerfeld_eta(system, constants)
        spin = species.spin
        params.update(system=species.name, energy_kev=energy,
                      mass_mev=species.mass, z=species.z)
    elif eta is not None:
        if spin is None and not incoherent_only:
            raise click.UsageError("--eta requires --spin")
        a, eta_val = 1.0, eta
    else:
        raise click.UsageError("provide either --system/--energy or --eta/--spin")

    pol = Polarization(polarization)
    params.update(eta=eta_val, a_fm=a, polarization=pol.value,
                  incoherent_only=incoherent_only,
                  normalize=normalize or "none",
                  theta_min=theta_min, theta_max=theta_max, theta_step=theta_step)

    if incoherent_only:
        values = tuple(sigma_inc_coulomb(t, a) for t in grid)
    else:
        statistics = _statistics(spin, stat)
        mott = MottParams(a=a, eta=eta_val, spin=spin, polarization=pol)
        values = build_curve(mott, grid).values
        params.update(spin=str(spin), statistics=statistics.value)

    if normalize == "rutherford90":
        columns = ["theta_deg", "sigma_over_ruth90"]
        rows = [(t, v / (a * a)) for t, v in zip(grid, values)]
    else:
        columns = ["theta_deg", "sigma_fm2_per_sr", "sigma_barn_per_sr"]
        rows = [(t, v, v * BARN_PER_FM2) for t, v in zip(grid, values)]
    _emit(OutputEnvelope(params=params, constants=constants,
                         columns=columns, rows=rows), fmt)


@main.command()
@click.option("--catalog", type=click.Path(exists=True, dir_okay=False), default=None,
              help="Species catalog file (defaults to the built-in one).")
@format_option
def table(catalog, fmt):
    """Critical energies, barriers, sigma(90) and feasibility per species."""
    constants = _constants()
    rows = table_one(_catalog(catalog, constants), constants)
    columns = ["name", "spin", "e_critical_kev", "barrier_kev",
               "sigma90_scaling_barn", "sigma90_direct_barn", "feasible",
               "condition_lhs", "condition_rhs", "sigma90_reference_barn", "note"]
    data = [
        (r.name, str(r.spin), r.e_critical_kev, r.barrier_kev,
         r.sigma90_scaling_barn, r.sigma90_direct_barn, r.feasible,
         r.condition_lhs, r.condition_rhs, r.sigma90_reference_barn, r.note)
        for r in rows
    ]
    params = {"command": "table", "catalog": catalog or "builtin"}
    _emit(OutputEnvelope(params=params, constants=constants,
                         columns=columns, rows=data), fmt)


@main.command()
@click.option("--spin", type=SPIN, required=True)
@click.option("--eta", type=float, default=None, help="Sommerfeld parameter (Coulomb mode).")
@click.option("--eta-critical", is_flag=True, help="Use the critical eta for this spin.")
@click.option("--kr", type=float, default=None, help="Hard-sphere mode: kR value.")
@click.option("--stat", type=click.Choice(["boson", "fermion"]), default=None)
@click.option("--polarization", type=click.Choice(["unpolarized", "aligned"]),
              default="unpolarized", show_default=True)
@click.option("--epsilon", type=float, default=0.05, show_default=True,
              help="Flatness tolerance |sigma/sigma(90) - 1|.")
@add_options(grid_options)
@format_option
def plateau(spin, eta, eta_critical, kr, stat, polarization, epsilon,
            theta_min, theta_max, theta_step, fmt):
    """Flatness plateau around 90 degrees for a Coulomb or hard-sphere curve."""
    constants = _constants()
    grid = angle_grid(theta_min, theta_max, theta_step)
    pol = Polarization(polarization)
    params = {"command": "plateau", "spin": str(spin), "polarization": pol.value,
              "epsilon": epsilon, "theta_min": theta_min, "theta_max": theta_max,
              "theta_step": theta_step}
    statistics = _statistics(spin, stat)
    if kr is not None:
        if eta is not None or eta_critical:
            raise click.UsageError("--kr and --eta/--eta-critical are mutually exclusive")
        model = HardSphereParams(kR=kr, spin=spin, statistics=statistics,
                                 polarization=pol)
        params.update(model="hard-sphere", kR=kr)
    else:
        if eta_critical == (eta is not None):
            raise click.UsageError("provide exactly one of --eta or --eta-critical")
        eta_val = critical_eta(spin, pol) if eta_critical else eta
        model = MottParams(a=1.0, eta=eta_val, spin=spin, polarization=pol)
        params.update(model="mott-coulomb", eta=eta_val, a_fm=1.0)
    report = plateau_op(build_curve(model, grid), epsilon)
    scalars = {
        "theta_lo_deg": report.theta_lo,
        "theta_hi_deg": report.theta_hi,
        "width_deg": report.width,
        "curvature_90": report.curvature_90,
        "reference_value": report.reference_value,
    }
    _emit(OutputEnvelope(params=params, constants=constants, scalars=scalars), fmt)


@main.command()
@click.option("--spin", type=SPIN, required=True)
@click.option("--delta", type=float, default=0.05, show_default=True,
              help="Fractional eta shift around the critical value.")
@add_options(grid_options)
@format_option
def sweep(spin, delta, theta_min, theta_max, theta_step, fmt):
    """Shape sensitivity: curves at eta_C (1 +- delta) with min/flat/max labels."""
    constants = _constants()
    result = sensitivity_sweep(spin, delta, angle_grid(theta_min, theta_max, theta_step))
    params = {"command": "sweep", "spin": str(spin), "delta": delta,
              "theta_min": theta_min, "theta_max": theta_max, "theta_step": theta_step}
    scalars = {
        "classification": ",".join(result.classifications),
        "eta_below": result.etas[0],
        "eta_critical": result.etas[1],
        "eta_above": result.etas[2],
        "energy_shift_first_order": result.energy_shift_first_order,
        "energy_ratio_below": result.energy_ratio_below,
        "energy_ratio_above": result.energy_ratio_above,
    }
    columns = ["branch", "eta", "theta_deg", "sigma_over_ruth90"]
    rows = []
    for branch, eta_val, curve in zip(("below", "critical", "above"),
                                      result.etas, result.curves):
        rows.extend((branch, eta_val, t, v) for t, v in zip(curve.thetas, curve.values))
    _emit(OutputEnvelope(params=params, constants=constants, scalars=scalars,
                         columns=columns, rows=rows), fmt)


@main.command()
@click.option("--kr", type=float, default=None, help="kR for a single angular curve.")
@click.option("--spin", type=SPIN, required=True)
@click.option("--stat", type=click.Choice(["boson", "fermion"]), default=None)
@click.option("--polarization", type=click.Choice(["unpolarized", "aligned"]),
              default="unpolarized", show_default=True)
@click.option("--critical-scan", type=float, nargs=2, default=None,
              help="Scan [LO, HI] for the critical kR; prints 'none' when absent.")
@click.option("--step", type=float, default=0.05, show_default=True,
              help="Scan step in kR.")
@add_options(grid_options)
@format_option
def hardsphere(kr, spin, stat, polarization, critical_scan, step,
               theta_min, theta_max, theta_step, fmt):
    """Hard-sphere cross sections (units of R^2) and the critical-kR scan."""
    constants = _constants()
    pol = Polarization(polarization)
    statistics = _statistics(spin, stat)
    if critical_scan is not None and kr is not None:
        raise click.UsageError("--kr and --critical-scan are mutually exclusive")
    if critical_scan is not None:
        params = {"command": "hardsphere", "spin": str(spin),
                  "statistics": statistics.value, "polarization": pol.value,
                  "scan_lo": critical_scan[0], "scan_hi": critical_scan[1],
                  "step": step}
        root = find_critical_kR(spin, statistics, tuple(critical_scan), step,
                                polarization=pol)
        _emit(OutputEnvelope(params=params, constants=constants,
                             scalars={"critical_kR": root}), fmt)
        return
    if kr is None:
        raise click.UsageError("provide either --kr or --critical-scan")
    grid = angle_grid(theta_min, theta_max, theta_step)
    model = HardSphereParams(kR=kr, spin=spin, statistics=statistics,
                             polarization=pol)
    curve = build_curve(model, grid)
    params = {"command": "hardsphere", "kR": kr, "spin": str(spin),
              "statistics": statistics.value, "polarization": pol.value,
              "theta_min": theta_min, "theta_max": theta_max,
              "theta_step": theta_step}
    rows = list(zip(curve.thetas, curve.values))
    _emit(OutputEnvelope(params=params, constants=constants,
                         columns=["theta_deg", "sigma_over_R2"], rows=rows), fmt)


if __name__ == "__main__":
    main()
