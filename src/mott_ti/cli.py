"""Command-line interface.

Every command writes one CSV (default) or JSON document to stdout and
embeds the parameters that produced it.  Exit codes: 0 success (including
a scan that finds nothing), 2 usage or validation error, 3 numerical
failure (a root was asserted but the bracket holds no sign change).

One rule, declared once in MODES, says which options go together, and
README's "Command line" section shows it as a table.  An option is given
when its parsed value differs from its default.  The selectors given pick
the command's mode.  A missing requirement exits 2, and so does any option
given that the mode neither selects, requires nor reads; --format is always
read.  A command that MODES does not list has one mode, which reads every
option the command takes.

Under --incoherent-only, --eta only picks the mode: the incoherent sum at
a = 1 fm does not depend on eta, which is still range-checked.  critical
--numeric searches critical_eta_numeric's default bracket (0.5, 4), which
holds eta_C for bosons up to 2s = 8; above that, and for every fermion, it
exits 3.

A command reads the parsed options (args.spin, args.theta_step, ...) and
returns its parameter echo and its payload (columns, rows, scalars).  main
loads the constants into args.constants and then checks the mode, both
before any command runs, so a bad constants file wins over every error the
mode check or a command reports, and writes the one document.

The parser is the standard library's argparse, and no parser takes an
abbreviated option.  An option value that starts with '-' is read as a
value only if it is a plain negative number (-1, -0.5); write any other
as --option=VALUE (--eta=-1e3).  No numeric option takes a negative value
anyway (the grid lies inside (0, 180); eta, kR, steps and tolerances are
> 0), so either form exits 2.

Set MOTT_TI_CONSTANTS to a constants file (same plain-text format as the
species catalog, rows of ``name value``) to override the built-in
physical constants.
"""

from __future__ import annotations

import os
import sys
from argparse import ArgumentParser, ArgumentTypeError

from . import __version__
from .analysis import (SystemReportRow, angle_grid, build_curve, plateau as plateau_op,
                       sensitivity_sweep, table_one)
from .constants import BARN_PER_FM2, DEFAULT_CONSTANTS, PhysicalConstants, load_constants
from .coulomb import MottParams, check_eta, critical_eta_numeric, incoherent_cross_sections
from .errors import DomainError, RootNotFoundError
from .hardsphere import HardSphereParams, find_critical_kR
from .kinematics import half_closest_approach, sommerfeld_eta
from .output import OutputEnvelope, format_number
from .species import (
    CollisionSystem,
    Polarization,
    Spin,
    builtin_catalog,
    critical_eta,
    find_species,
    load_species_catalog,
)

CONSTANTS_ENV_VAR = "MOTT_TI_CONSTANTS"

EXIT_NUMERICAL_FAILURE = 3


def _constants() -> PhysicalConstants:
    path = os.environ.get(CONSTANTS_ENV_VAR)
    if path:
        try:
            return load_constants(path)
        except (OSError, ValueError) as exc:
            raise DomainError(f"cannot load constants from {CONSTANTS_ENV_VAR}: {exc}")
    return DEFAULT_CONSTANTS


def _catalog(args):
    """The built-in catalog, or the one in --catalog; a missing file or a directory exits 2."""
    if args.catalog is None:
        return builtin_catalog(args.constants)
    try:
        return load_species_catalog(args.catalog, args.constants)
    except (OSError, ValueError) as exc:
        raise DomainError(f"cannot load catalog {args.catalog}: {exc}")


def _spin(text: str) -> Spin:
    try:
        return Spin.parse(text)
    except ValueError as exc:  # DomainError included
        raise ArgumentTypeError(f"invalid spin {text!r}: {exc}") from exc


# Options shared by several subcommands, declared once here as a flag and its
# add_argument keywords.
SPIN = ("--spin", {"type": _spin, "required": True, "metavar": "SPIN",
                   "help": "Spin as 0, 1, 1/2, 9/2, ..."})
POLARIZATION = ("--polarization", {
    "type": Polarization, "default": Polarization.UNPOLARIZED.value,
    "metavar": "{" + ",".join(p.value for p in Polarization) + "}",
    "help": "Spin preparation of the pair. [default: %(default)s]",
})
ETA = ("--eta", {"type": float, "help": "Sommerfeld parameter (a = 1 fm)."})
KR = ("--kr", {"type": float, "help": "kR of a hard-sphere curve."})
CATALOG = ("--catalog", {"help": "Species catalog file (defaults to the built-in one)."})
FORMAT = ("--format", {"choices": ("csv", "json"), "default": "csv",
                       "help": "Output format. [default: %(default)s]"})
# --theta-min, --theta-max and --theta-step, in that order, defaulting to angle_grid's
GRID = tuple((f"--theta-{suffix}", {"type": float, "default": default,
                                    "help": f"Grid {noun} (degrees). [default: %(default)s]"})
             for suffix, default, noun in zip(("min", "max", "step"), angle_grid.__defaults__,
                                              ("start", "end", "step")))


def _flag(name: str, text: str):
    return (name, {"action": "store_true", "default": False, "help": text})


def _grid(args) -> tuple[tuple[float, ...], dict[str, float]]:
    """angle_grid's points and the grid options' echo, refused in CSV (9 digits) when
    two adjacent points print alike; JSON writes each float's repr, which tells them apart.
    """
    theta = {name: getattr(args, name) for name in ("theta_min", "theta_max", "theta_step")}
    grid = angle_grid(*theta.values())
    texts = list(map(format_number, grid)) if args.format == "csv" else []
    for i in range(1, len(texts)):
        if texts[i - 1] == texts[i]:
            raise DomainError(f"theta grid points {grid[i - 1]} and {grid[i]} both print as "
                              f"{texts[i]}; use a coarser --theta-step")
    return grid, theta


def critical(args):
    """Critical Sommerfeld parameter sqrt(3s+2) for the given spin."""
    eta_c = critical_eta(args.spin)
    scalars = {"eta_critical": eta_c}
    if args.numeric:
        eta_num = critical_eta_numeric(args.spin)
        scalars["eta_critical_numeric"] = eta_num
        scalars["difference"] = eta_num - eta_c
    return {"spin": str(args.spin), "numeric": args.numeric}, {"scalars": scalars}


def angular(args):
    """Angular distribution of the symmetrized Coulomb cross section."""
    grid, theta = _grid(args)
    name, eta, spin, a = args.system, args.eta, args.spin, 1.0  # a = 1 fm under --eta
    params = {}

    if name is not None:
        parts = name.split("-")
        if len(parts) == 2:
            if parts[0] != parts[1]:
                raise DomainError(f"only identical pairs are supported, got {name!r}")
            name = parts[0]
        species = find_species(name, _catalog(args))
        system = CollisionSystem(species=species, energy_cm=args.energy)
        a = half_closest_approach(system, args.constants)
        eta = sommerfeld_eta(system, args.constants)
        spin = species.spin
        params.update(system=species.name, energy_kev=args.energy,
                      mass_mev=species.mass, z=species.z)
    check_eta(eta)

    params.update(eta=eta, a_fm=a, polarization=args.polarization.value,
                  incoherent_only=args.incoherent_only,
                  normalize=args.normalize or "none", **theta)

    if args.incoherent_only:
        del params["polarization"]  # the incoherent sum does not read it
        values = incoherent_cross_sections(grid, a)
    else:
        mott = MottParams(a=a, eta=eta, spin=spin, polarization=args.polarization)
        values = build_curve(mott, grid).values
        params.update(spin=str(spin), statistics=spin.statistics.value)

    if args.normalize == "rutherford90":
        columns = ["theta_deg", "sigma_over_ruth90"]
        rows = [(t, v / (a * a)) for t, v in zip(grid, values)]
    else:
        columns = ["theta_deg", "sigma_fm2_per_sr", "sigma_barn_per_sr"]
        rows = [(t, v, v * BARN_PER_FM2) for t, v in zip(grid, values)]
    return params, {"columns": columns, "rows": rows}


def table(args):
    """Critical energies, barriers, sigma(90) and feasibility per species."""
    rows = table_one(_catalog(args), args.constants)
    columns = list(SystemReportRow.__slots__)
    data = [[str(getattr(r, c)) if c == "spin" else getattr(r, c) for c in columns] for r in rows]
    return {"catalog": args.catalog or "builtin"}, {"columns": columns, "rows": data}


def plateau(args):
    """Flatness plateau around 90 degrees for a Coulomb or hard-sphere curve."""
    grid, theta = _grid(args)
    spin, polarization = args.spin, args.polarization
    params = {"spin": str(spin), "polarization": polarization.value, "epsilon": args.epsilon,
              **theta}
    if args.kr is not None:
        model = HardSphereParams(kR=args.kr, spin=spin, polarization=polarization)
        params.update(model="hard-sphere", kR=args.kr)
    else:
        eta = critical_eta(spin, polarization) if args.eta_critical else args.eta
        model = MottParams(a=1.0, eta=eta, spin=spin, polarization=polarization)
        params.update(model="mott-coulomb", eta=eta, a_fm=1.0)
    report = plateau_op(build_curve(model, grid), args.epsilon)
    scalars = {
        "theta_lo_deg": report.theta_lo,
        "theta_hi_deg": report.theta_hi,
        "width_deg": report.width,
        "curvature_90": report.curvature_90,
        "reference_value": report.reference_value,
    }
    return params, {"scalars": scalars}


def sweep(args):
    """Shape sensitivity: curves at eta_C (1 +- delta) with min/flat/max labels."""
    grid, theta = _grid(args)
    result = sensitivity_sweep(args.spin, args.delta, grid)
    params = {"spin": str(args.spin), "delta": args.delta, **theta}
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
    for branch, eta, curve in zip(("below", "critical", "above"), result.etas, result.curves):
        rows.extend((branch, eta, t, v) for t, v in zip(curve.thetas, curve.values))
    return params, {"scalars": scalars, "columns": columns, "rows": rows}


def hardsphere(args):
    """Hard-sphere cross sections (units of R^2) and the critical-kR scan."""
    kr, spin, polarization, scan = args.kr, args.spin, args.polarization, args.critical_scan
    pair = {"spin": str(spin), "statistics": spin.statistics.value,
            "polarization": polarization.value}
    if scan is not None:
        root = find_critical_kR(spin, scan=tuple(scan), step=args.step, polarization=polarization)
        params = {**pair, "scan_lo": scan[0], "scan_hi": scan[1], "step": args.step}
        return params, {"scalars": {"critical_kR": root}}
    grid, theta = _grid(args)
    model = HardSphereParams(kR=kr, spin=spin, polarization=polarization)
    curve = build_curve(model, grid)
    rows = list(zip(curve.thetas, curve.values))
    return {"kR": kr, **pair, **theta}, {"columns": ["theta_deg", "sigma_over_R2"], "rows": rows}


# Each subcommand with its options, in the order that --help lists them.  A
# command takes the parsed namespace, where each option is the attribute its
# flag names, and returns (params, payload) for main to write.
COMMANDS = (
    (critical, (
        SPIN,
        _flag("--numeric", "Also locate the critical eta numerically and report the difference."),
        FORMAT,
    )),
    (angular, (
        ("--system", {"metavar": "SYSTEM",
                      "help": "Species name or pair, e.g. 'alpha' or 'alpha-alpha'."}),
        ("--energy", {"type": float, "help": "CM energy in keV (with --system)."}),
        ETA, ("--spin", {**SPIN[1], "required": False}), POLARIZATION,
        _flag("--incoherent-only", "Emit only the distinguishable-particle (incoherent) sum."),
        ("--normalize", {"choices": ("rutherford90",),
                         "help": "Divide by the 90-degree Rutherford value a^2."}),
        *GRID, CATALOG, FORMAT,
    )),
    (table, (CATALOG, FORMAT)),
    (plateau, (
        SPIN, ETA, _flag("--eta-critical", "Use the critical eta for this spin."), KR, POLARIZATION,
        ("--epsilon", {"type": float, "default": 0.05, "help": "Flatness tolerance "
                       "|sigma/sigma(90) - 1|. [default: %(default)s]"}),
        *GRID, FORMAT,
    )),
    (sweep, (
        SPIN,
        ("--delta", {"type": float, "default": 0.05, "help": "Fractional eta shift around "
                     "the critical value. [default: %(default)s]"}),
        *GRID, FORMAT,
    )),
    (hardsphere, (
        KR, SPIN, POLARIZATION,
        ("--critical-scan", {"type": float, "nargs": 2, "metavar": ("LO", "HI"), "help":
                             "Scan [LO, HI] for the critical kR; prints 'none' when absent."}),
        ("--step", {"type": float, "default": find_critical_kR.__defaults__[-2],  # its step
                    "help": "Scan step in kR. [default: %(default)s]"}),
        *GRID, FORMAT,
    )),
)

THETA = tuple(flag for flag, _ in GRID)
# Each command's modes as (selectors, requires, reads), by flag, which
# _check_mode enforces before any command runs.  A command with one mode,
# which reads every option it takes, has no entry.
MODES = {
    "angular": (
        (("--system",), ("--energy",), ("--polarization", "--normalize", *THETA, "--catalog")),
        (("--system", "--incoherent-only"), ("--energy",), ("--normalize", *THETA, "--catalog")),
        (("--eta",), ("--spin",), ("--polarization", "--normalize", *THETA)),
        (("--eta", "--incoherent-only"), (), ("--normalize", *THETA)),
    ),
    "plateau": tuple(((flag,), (), ("--spin", "--polarization", "--epsilon", *THETA))
                     for flag in ("--eta", "--eta-critical", "--kr")),
    "hardsphere": ((("--kr",), (), ("--spin", "--polarization", *THETA)),
                   (("--critical-scan",), (), ("--spin", "--polarization", "--step"))),
}


def _check_mode(name: str, options, args) -> None:
    """DomainError unless the options given are one mode of MODES[name], whole.

    A command without an entry has one mode, which reads every option, so
    there is nothing to check.  An option is given when its parsed value
    differs from its default, which argparse passes through the option's
    type when it is a string.
    """
    modes = MODES.get(name)
    if modes is None:
        return
    given = []
    for flag, spec in options:
        default = spec.get("default")
        if isinstance(default, str) and "type" in spec:
            default = spec["type"](default)
        if getattr(args, flag[2:].replace("-", "_")) != default:
            given.append(flag)
    picks = [flag for flag in given if any(flag in mode[0] for mode in modes)]
    found = [mode for mode in modes if set(mode[0]) == set(picks)]
    if not found:
        choices = " | ".join(" ".join(mode[0]) for mode in modes)
        raise DomainError(f"{name} needs exactly one mode of {choices}; "
                          f"got {' '.join(picks) or 'none'}")
    [(selectors, requires, reads)] = found
    mode = " ".join((name, *selectors))
    missing = [flag for flag in requires if flag not in given]
    if missing:
        raise DomainError(f"{mode} requires {', '.join(missing)}")
    unread = [flag for flag in given if flag not in (*selectors, *requires, *reads, "--format")]
    if unread:
        raise DomainError(f"{mode} takes no {', '.join(unread)}")


def build_parser(prog: str) -> ArgumentParser:
    """One parser with a subparser per entry of COMMANDS."""
    parser = ArgumentParser(prog=prog, description=main.__doc__, allow_abbrev=False)
    parser.add_argument("--version", action="version", version=f"%(prog)s, version {__version__}")
    subparsers = parser.add_subparsers(metavar="COMMAND", required=True)
    for command, options in COMMANDS:
        sub = subparsers.add_parser(command.__name__, help=command.__doc__,
                                    description=command.__doc__, allow_abbrev=False)
        for flag, spec in options:
            sub.add_argument(flag, **spec)
        sub.set_defaults(command=(command, sub))
    return parser


def main(args=None, prog_name=None):
    """Identical-particle scattering cross sections and transverse isotropy."""
    args = build_parser(prog_name or "mott-ti").parse_args(args)
    command, parser = args.command
    try:
        args.constants = _constants()
        _check_mode(command.__name__, dict(COMMANDS)[command], args)
        params, payload = command(args)
        envelope = OutputEnvelope({"command": command.__name__, **params}, args.constants,
                                  **payload)
        sys.stdout.write(envelope.render(args.format))
    except DomainError as exc:
        parser.error(str(exc))
    except RootNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        sys.exit(EXIT_NUMERICAL_FAILURE)
    sys.exit(0)


# main ends in SystemExit, as click's standalone mode does: click.testing.CliRunner,
# the in-process oracle of bench/, calls main.main and reads main.name.  Both
# attributes go once that oracle calls main itself (ROADMAP item 1).
main.name = "mott-ti"
main.main = main


if __name__ == "__main__":
    main()
