import argparse
import inspect
import json
import math
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mott_ti import hardsphere
from mott_ti.analysis import angle_grid
from mott_ti.cli import COMMANDS, MODES, THETA, build_parser
from mott_ti.constants import DEFAULT_CONSTANTS, load_constants
from mott_ti.hardsphere import find_critical_kR
from mott_ti.species import MASS_MAX, MASS_MIN, TWICE_S_MAX, Z_MAX
from test_golden import run, strict_json

SQRT2 = math.sqrt(2.0)
SRC = Path(__file__).resolve().parents[1] / "src"
BUILTIN_CATALOG = SRC / "mott_ti" / "data" / "species.txt"
README = SRC.parent / "README.md"


def parse_csv(text):
    """Split a CSV document into (comments dict, header list, rows of str)."""
    comments, header, rows = {}, None, []
    for line in text.splitlines():
        if line.startswith("# "):
            key, _, value = line[2:].partition("=")
            comments[key] = value
        elif header is None:
            header = line.split(",")
        else:
            rows.append(line.split(","))
    return comments, header, rows


def csv_table(text):
    comments, header, rows = parse_csv(text)
    return [dict(zip(header, row)) for row in rows]


# -------------------------------------------------------------------- critical

def test_critical_spin0():
    code, stdout, _ = run(["critical", "--spin", "0"])
    assert code == 0
    table = csv_table(stdout)
    assert float(table[0]["eta_critical"]) == pytest.approx(SQRT2, rel=1e-8)
    assert "1.41421356" in stdout


def test_critical_numeric_agrees():
    code, stdout, _ = run(["critical", "--spin", "1", "--numeric"])
    assert code == 0
    row = csv_table(stdout)[0]
    assert abs(float(row["difference"])) < 1e-6
    assert float(row["eta_critical"]) == pytest.approx(math.sqrt(5.0), rel=1e-8)


def test_critical_negative_spin_usage_error():
    code, _, _ = run(["critical", "--spin", "-1"])
    assert code == 2


def test_critical_numeric_bad_bracket_exits_3():
    # eta_C = sqrt(17) lies past the one bracket the search takes, (0.5, 4)
    code, stdout, stderr = run(["critical", "--spin", "5", "--numeric"])
    assert code == 3
    assert stdout == ""
    assert "[0.5, 4.0]" in stderr


def test_critical_numeric_fermion_exits_3():
    # fermions have no Coulomb transition; asserting a root is a numerical failure
    code, _, _ = run(["critical", "--spin", "1/2", "--numeric"])
    assert code == 3


@pytest.mark.xfail(strict=True, reason="ROADMAP item 1B: a fermion has no critical eta")
@pytest.mark.parametrize("argv", [
    ["critical", "--spin", "1/2"],
    ["plateau", "--spin", "1/2", "--eta-critical"],
    ["sweep", "--spin", "1/2"],
])
def test_no_critical_eta_for_fermions(argv):
    # each exits 0 today, and critical prints eta_C 1.87082869
    assert run(argv)[0] == 2


# --------------------------------------------------------------------- angular

def test_angular_normalized_90_is_4():
    code, stdout, _ = run([
        "angular", "--eta", "1.4142135623730951", "--spin", "0",
        "--normalize", "rutherford90",
        "--theta-min", "89", "--theta-max", "91", "--theta-step", "1",
    ])
    assert code == 0
    table = {row["theta_deg"]: row for row in csv_table(stdout)}
    assert float(table["90"]["sigma_over_ruth90"]) == pytest.approx(4.0, rel=1e-8)


def test_angular_incoherent_only_90_is_2():
    code, stdout, _ = run([
        "angular", "--eta", "1.0", "--incoherent-only", "--normalize", "rutherford90",
        "--theta-min", "90", "--theta-max", "91", "--theta-step", "0.5",
    ])
    assert code == 0
    table = csv_table(stdout)
    assert float(table[0]["sigma_over_ruth90"]) == pytest.approx(2.0, rel=1e-8)


def test_angular_incoherent_only_keeps_its_digits_next_to_180():
    # 1e-7 deg from the pole, against 50-digit values; JSON, since CSV prints both angles as 180
    code, stdout, _ = run([
        "angular", "--eta", "1", "--incoherent-only", "--theta-min", "179.9999998",
        "--theta-max", "179.9999999", "--theta-step", "0.0000001", "--format", "json",
    ])
    assert code == 0
    rows = json.loads(stdout)["data"]["rows"]
    assert [row[0] for row in rows] == [179.9999998, 179.9999999]
    for row, expected in zip(rows, (2.6942050227194535e+34, 4.3107280363511256e+35)):
        assert row[1] == pytest.approx(expected, rel=1e-14, abs=0.0)


def test_angular_dimensional_alpha_system():
    code, stdout, _ = run([
        "angular", "--system", "alpha-alpha", "--energy", "397",
        "--theta-min", "60", "--theta-max", "120", "--theta-step", "30",
    ])
    assert code == 0
    comments, header, rows = parse_csv(stdout)
    assert header == ["theta_deg", "sigma_fm2_per_sr", "sigma_barn_per_sr"]
    a = 4 * 1.4399645 / (2 * 0.397)  # q^2/(2E) ~ 7.254 fm
    assert float(comments["a_fm"]) == pytest.approx(a, rel=1e-8)
    table = {row[0]: row for row in rows}
    # eta at 397 keV is within a whisker of critical, so sigma(90) ~ 4 a^2
    sigma90_fm2 = float(table["90"][1])
    assert sigma90_fm2 == pytest.approx(4 * a * a, rel=1e-4)
    assert float(table["90"][2]) == pytest.approx(sigma90_fm2 / 100.0, rel=1e-8)
    assert float(table["60"][1]) == pytest.approx(float(table["120"][1]), rel=1e-10)


def test_angular_aligned_fermions_next_to_90_are_not_negative():
    # all five angles print as 90 in CSV, so the grid is refused; the five
    # values themselves are checked on build_curve in test_analysis.py
    args = ["angular", "--eta", "0.001", "--spin", "1/2", "--polarization", "aligned",
            "--theta-min", "89.99999998", "--theta-max", "90.00000002",
            "--theta-step", "0.00000001"]
    code, stdout, stderr = run(args)
    assert code == 2
    assert stdout == ""
    assert ("mott-ti angular: error: theta grid points 89.99999998 and 89.99999998999999 "
            "both print as 90; use a coarser --theta-step\n") in stderr
    # JSON writes each angle's repr, so the same grid prints five distinct angles
    code, stdout, _ = run(args + ["--format", "json"])
    assert code == 0
    assert len({row[0] for row in json.loads(stdout)["data"]["rows"]}) == 5


@pytest.mark.parametrize("command", [
    ["angular", "--eta", "1", "--spin", "0"],
    ["plateau", "--eta", "1", "--spin", "0"],
    ["sweep", "--spin", "0"],
    ["hardsphere", "--kr", "1", "--spin", "0"],
])
def test_grids_that_print_repeated_angles_are_refused(command):
    # 1e-8 apart next to 30 deg: at 9 significant digits every point prints as 30
    code, stdout, stderr = run(command + ["--theta-min", "29.99999999", "--theta-max",
                               "30.00000001", "--theta-step", "0.00000001"])
    assert code == 2
    assert stdout == ""
    assert "both print as 30" in stderr


def test_angular_endpoint_grid_rejected():
    code, _, _ = run(["angular", "--eta", "1", "--spin", "0",
                     "--theta-min", "0", "--theta-max", "90"])
    assert code == 2


@pytest.mark.parametrize("command", [
    ["angular", "--eta", "1"],
    ["plateau", "--eta", "1"],
    ["hardsphere", "--kr", "1"],
    ["hardsphere", "--critical-scan", "0.2", "3"],
])
@pytest.mark.parametrize("spin,stat", [("0", "fermion"), ("1/2", "boson"),
                                       ("0", "boson"), ("1/2", "fermion")])
def test_angular_stat_mismatch_rejected(command, spin, stat):
    # the spin decides the statistics: no command takes --stat, matching or not
    code, stdout, stderr = run(command + ["--spin", spin, "--stat", stat])
    assert code == 2
    assert stdout == ""
    assert f"mott-ti: error: unrecognized arguments: --stat {stat}\n" in stderr


def test_angular_unknown_species():
    code, stdout, stderr = run(["angular", "--system", "muon", "--energy", "10"])
    assert code == 2
    assert stdout == ""
    assert ("mott-ti angular: error: unknown species 'muon' (catalog has: d, 6Li, alpha)\n"
            in stderr)


def test_a_stray_key_error_is_a_bug_not_a_usage_error(monkeypatch):
    # only DomainError and RootNotFoundError map to exit codes; anything else
    # surfaces as the exception it is (exit 1)
    def broken(*args):
        raise KeyError("spin")

    monkeypatch.setattr("mott_ti.cli.table_one", broken)
    with pytest.raises(KeyError) as caught:
        run(["table"])
    assert caught.value.args == ("spin",)


def test_angular_custom_catalog(tmp_path):
    cat = tmp_path / "cat.txt"
    cat.write_text("t 1 3 1\n")
    code, _, _ = run([
        "angular", "--system", "t", "--energy", "10", "--catalog", str(cat),
        "--theta-min", "89", "--theta-max", "91", "--theta-step", "1",
    ])
    assert code == 0


# ----------------------------------------------------------------------- table

def test_table_output():
    code, stdout, _ = run(["table"])
    assert code == 0
    table = {row["name"]: row for row in csv_table(stdout)}
    assert set(table) == {"d", "alpha", "6Li"}
    assert float(table["alpha"]["e_critical_kev"]) == pytest.approx(400.0, rel=0.05)
    assert float(table["alpha"]["barrier_kev"]) == pytest.approx(1260.0, rel=0.05)
    assert table["alpha"]["feasible"] == "true"
    assert "inconsistent" in table["d"]["note"]
    assert table["6Li"]["note"] == ""


def test_table_note_needs_both_forms_off_the_reference(tmp_path):
    # a d of mass number 4: the scaling form gives 842.5 barn, but the direct
    # one lies 4% from the reference 135
    cat = tmp_path / "cat.txt"
    cat.write_text("d 1 4 2\n")
    code, stdout, _ = run(["table", "--catalog", str(cat)])
    assert code == 0
    [row] = csv_table(stdout)
    assert float(row["sigma90_direct_barn"]) == pytest.approx(140.45, rel=1e-4)
    assert row["note"] == ""


# --------------------------------------------------------------------- plateau

def test_plateau_critical_spin0():
    code, stdout, _ = run(["plateau", "--spin", "0", "--eta-critical",
                          "--epsilon", "0.05"])
    assert code == 0
    row = csv_table(stdout)[0]
    assert float(row["theta_lo_deg"]) <= 66.0
    assert float(row["theta_hi_deg"]) >= 114.0


def test_plateau_requires_eta_choice():
    assert run(["plateau", "--spin", "0"])[0] == 2
    assert run(["plateau", "--spin", "0", "--eta", "1", "--eta-critical"])[0] == 2


def test_plateau_hard_sphere_mode():
    code, stdout, _ = run(["plateau", "--spin", "0", "--kr", "1.447",
                          "--epsilon", "0.05"])
    assert code == 0
    row = csv_table(stdout)[0]
    assert float(row["width_deg"]) > 30.0  # near-critical kR is flat


# ----------------------------------------------------------------------- sweep

def test_sweep_classification_line():
    code, stdout, _ = run(["sweep", "--spin", "0", "--delta", "0.05",
                          "--theta-min", "80", "--theta-max", "100",
                          "--theta-step", "1"])
    assert code == 0
    comments, header, rows = parse_csv(stdout)
    assert comments["classification"] == "min,flat,max"
    assert float(comments["energy_shift_first_order"]) == pytest.approx(0.10)
    branches = {row[0] for row in rows}
    assert branches == {"below", "critical", "above"}
    assert len(rows) == 3 * 21


# ------------------------------------------------------------------ hardsphere

def test_hardsphere_scan_boson():
    code, stdout, _ = run(["hardsphere", "--critical-scan", "0.2", "3",
                          "--spin", "0"])
    assert code == 0
    row = csv_table(stdout)[0]
    assert float(row["critical_kR"]) == pytest.approx(1.5, abs=0.5)


def test_hardsphere_scan_none_result():
    code, stdout, _ = run(["hardsphere", "--critical-scan", "0.2", "3",
                          "--spin", "1/2"])
    assert code == 0  # absence is a result, not a failure
    row = csv_table(stdout)[0]
    assert row["critical_kR"] == "none"


def test_hardsphere_scan_step_below_the_float_spacing_exits_2(monkeypatch):
    # the scan could not advance past 2: refused before eps w is taken, so
    # before any loop runs
    def no_scan(*args):
        raise AssertionError("the scan started")

    monkeypatch.setattr(hardsphere, "exchange_weight", no_scan)
    code, stdout, stderr = run(["hardsphere", "--spin", "0", "--critical-scan", "2",
                               "2.0000000000000004", "--step", "1e-20"])
    assert code == 2, stderr
    assert stdout == ""
    assert "step 1e-20 is at most half the float spacing" in stderr


def test_hardsphere_curve():
    code, stdout, _ = run(["hardsphere", "--kr", "1.5", "--spin", "0",
                          "--theta-min", "30", "--theta-max", "150",
                          "--theta-step", "30"])
    assert code == 0
    table = {row["theta_deg"]: row for row in csv_table(stdout)}
    assert float(table["60"]["sigma_over_R2"]) == pytest.approx(
        float(table["120"]["sigma_over_R2"]), rel=1e-9
    )


@pytest.mark.parametrize("argv", [
    ["angular", "--eta", "1e5", "--spin", "0"],
    ["plateau", "--spin", "0", "--eta", "1e6"],
])
def test_large_eta_curves_exit_0(argv):
    # inside the documented eta domain; the two halves agree only to a few 1e-16 eta
    code, _, stderr = run(argv)
    assert code == 0, stderr


@pytest.mark.parametrize("argv,message", [
    (["angular", "--system", "alpha"], "--system requires --energy"),
    (["angular", "--system", "alpha-d", "--energy", "400"], "only identical pairs"),
    (["angular", "--eta", "1"], "--eta requires --spin"),
    (["angular"], "angular needs exactly one mode of --system | --system --incoherent-only"
     " | --eta | --eta --incoherent-only; got none"),
    (["plateau", "--spin", "0", "--kr", "1", "--eta", "1"],
     "plateau needs exactly one mode of --eta | --eta-critical | --kr; got --eta --kr"),
    (["hardsphere", "--spin", "0", "--kr", "1", "--critical-scan", "0.2", "3"],
     "hardsphere needs exactly one mode of --kr | --critical-scan; got --kr --critical-scan"),
    (["plateau", "--spin", "0", "--eta", "2", "--theta-min", "10", "--theta-max", "100",
      "--theta-step", "10"], "odd-length grid symmetric about 90"),
    (["plateau", "--spin", "0", "--eta", "2", "--theta-min", "5", "--theta-max", "175",
      "--theta-step", "10"], "odd-length grid symmetric about 90"),
    (["angular", "--eta", "1", "--spin", "0", "--energy", "5"], "angular --eta takes no --energy"),
    (["angular", "--eta", "1", "--spin", "0", "--catalog", str(BUILTIN_CATALOG)],
     "angular --eta takes no --catalog"),
    # an option of the other mode is refused, not ignored
    (["hardsphere", "--kr", "1.5", "--spin", "0", "--step", "7"], "--kr takes no --step"),
    (["hardsphere", "--critical-scan", "0.2", "3", "--spin", "0", "--theta-step", "1e-9"],
     "hardsphere --critical-scan takes no --theta-step"),
    (["angular", "--eta", "1", "--spin", "1", "--incoherent-only"],
     "--incoherent-only takes no --spin"),
    # options that played no part in the numbers, not echoed as if they had
    (["angular", "--eta", "1", "--incoherent-only", "--polarization", "aligned"],
     "angular --eta --incoherent-only takes no --polarization"),
    (["angular", "--system", "d", "--energy", "400", "--incoherent-only", "--polarization",
      "aligned"], "angular --system --incoherent-only takes no --polarization"),
])
def test_mode_conflicts_and_plateau_grids_exit_2(argv, message):
    code, stdout, stderr = run(argv)
    assert code == 2, stderr
    assert stdout == ""
    assert message in stderr


def mode_flags(names):
    """The flags of a mode table cell, with --theta-* expanded."""
    return tuple(flag for name in names for flag in (THETA if name == "--theta-*" else (name,)))


def readme_modes():
    """MODES as README's "Command line" table states it, with --theta-* expanded.

    A row's selectors cell is alternatives in backquotes, each one mode of the
    row's requires and reads.
    """
    lines = README.read_text().splitlines()
    start = lines.index("| command | selectors | requires | reads |") + 2
    modes = {}
    for line in lines[start:lines.index("", start)]:
        cells = [re.findall(r"`([^`]+)`", cell) for cell in line.strip("|").split("|")]
        [command], selectors, requires, reads = cells
        modes[command] = modes.get(command, ()) + tuple(
            (tuple(group.split()), mode_flags(requires), mode_flags(reads))
            for group in selectors)
    return modes


def test_readme_states_the_mode_table():
    assert readme_modes() == MODES
    # and names the commands it leaves out, each with one mode
    rest = [f"`{command.__name__}`" for command, _ in COMMANDS if command.__name__ not in MODES]
    text = " ".join(README.read_text().split())
    assert f"{', '.join(rest[:-1])} and {rest[-1]} have one mode each," in text


def readme_examples():
    """Each `mott-ti` line of README's sh blocks, as its argv and the result
    that its comment quotes ("none" or a decimal number), or None.
    """
    out = []
    for block in README.read_text().split("```sh\n")[1:]:
        for line in block[:block.index("```")].splitlines():
            command, _, comment = line.partition("#")
            if command.startswith("mott-ti "):
                quoted = re.search(r'"(\w+)"|\d+\.\d+', comment)
                out.append((shlex.split(command)[1:], quoted and (quoted[1] or quoted[0])))
    return out


README_EXAMPLES = readme_examples()


@pytest.mark.parametrize("argv,quoted", README_EXAMPLES,
                         ids=[" ".join(argv) for argv, _ in README_EXAMPLES])
def test_readme_examples_run(argv, quoted):
    code, stdout, stderr = run(argv)
    assert code == 0, stderr
    if quoted:
        assert data_lines(stdout)[-1] == quoted


def test_hardsphere_requires_mode():
    assert run(["hardsphere", "--spin", "0"])[0] == 2


# The probe: from one baseline per mode of cli.MODES, and one per command it
# does not list, each option given alone with a valid value other than its
# default must exit 2 or change the document's data lines, so no document
# echoes an option that played no part in its numbers.
# Each baseline has spin != 0: at spin 0 the exchange weight is 1 under both
# polarizations, and --polarization could change nothing.
PROBE_BASELINES = [
    ["critical", "--spin", "1"],
    ["angular", "--system", "d", "--energy", "400"],
    ["angular", "--system", "d", "--energy", "400", "--incoherent-only"],
    ["angular", "--eta", "1", "--spin", "1"],
    ["angular", "--eta", "1", "--incoherent-only"],
    ["table"],
    ["plateau", "--spin", "1", "--eta", "2"],
    ["plateau", "--spin", "1", "--eta-critical"],
    ["plateau", "--spin", "1", "--kr", "1.5"],
    ["sweep", "--spin", "1"],
    ["hardsphere", "--spin", "1", "--kr", "1.5"],
    # every step that finds the first root finds it to the same digits; --step 0.5
    # puts both roots 2.46965 and 2.70435 in one cell and finds none (ROADMAP item 18)
    ["hardsphere", "--spin", "9/2", "--critical-scan", "2.3", "3"],
]
# One probe value per option; CATALOG stands for a catalog whose d has Z = 2.
# --theta-step 0.89 moves every plateau edge, where 0.25 or 1 can keep one.
PROBE_VALUES = {
    "--spin": ["2"], "--numeric": [], "--format": ["json"],
    "--system": ["alpha"], "--energy": ["500"], "--eta": ["1.5"], "--polarization": ["aligned"],
    "--incoherent-only": [], "--normalize": ["rutherford90"], "--theta-min": ["30"],
    "--theta-max": ["150"], "--theta-step": ["0.89"], "--catalog": ["CATALOG"],
    "--eta-critical": [], "--kr": ["2"], "--epsilon": ["0.01"], "--delta": ["0.1"],
    "--critical-scan": ["2.5", "3"], "--step": ["0.5"],
}
# (baseline, option) pairs whose data lines stay the baseline's, with the reason
PROBE_COINCIDENCES = {
    ("angular --eta 1 --incoherent-only", "--eta"):
        "--eta only picks the mode: the incoherent sum at a = 1 fm does not depend on eta",
}
PROBE_CASES = [(baseline, flag) for baseline in PROBE_BASELINES
               for flag, _ in {c.__name__: o for c, o in COMMANDS}[baseline[0]]
               if PROBE_VALUES[flag] or flag not in baseline]


def data_lines(text):
    return [line for line in text.splitlines() if not line.startswith("# ")]


def test_the_probe_covers_every_mode_and_option():
    for command, options in COMMANDS:
        modes = MODES.get(command.__name__, [((), (), ())])  # no entry: one mode, no selectors
        selectors = {flag for mode in modes for flag in mode[0]}
        picked = sorted(sorted(selectors.intersection(argv))
                        for argv in PROBE_BASELINES if argv[0] == command.__name__)
        assert picked == sorted(sorted(mode[0]) for mode in modes)
        assert {flag for flag, _ in options} <= PROBE_VALUES.keys()


@pytest.mark.parametrize("baseline,flag", PROBE_CASES,
                         ids=[f"{' '.join(b)} + {f}" for b, f in PROBE_CASES])
def test_an_option_given_exits_2_or_changes_the_data(tmp_path, baseline, flag):
    catalog = tmp_path / "cat.txt"
    catalog.write_text("d 2 2 2\n")
    values = [str(catalog) if v == "CATALOG" else v for v in PROBE_VALUES[flag]]
    argv = list(baseline)
    if flag in argv:
        start = argv.index(flag) + 1
        argv[start:start + len(values)] = values
    else:
        argv += [flag, *values]
    base_code, base, base_stderr = run(baseline)
    assert base_code == 0, base_stderr
    code, stdout, stderr = run(argv)
    assert code in (0, 2), stderr
    same = code == 0 and data_lines(stdout) == data_lines(base)
    assert same == ((" ".join(baseline), flag) in PROBE_COINCIDENCES), stdout + stderr


@pytest.mark.parametrize("argv", [
    ["angular", "--eta", "inf", "--spin", "0"],
    ["angular", "--eta", "1", "--spin", "0", "--theta-step", "nan"],
    ["angular", "--system", "alpha", "--energy", "nan", "--incoherent-only"],
    ["angular", "--system", "alpha", "--energy", "1e-300", "--incoherent-only"],
    ["angular", "--eta", "1", "--spin", "0", "--theta-step", "0.00178"],
    ["hardsphere", "--kr", "1000.001", "--spin", "0"],
    ["hardsphere", "--spin", "0", "--critical-scan", "0.2", "3", "--step", "2.8e-05"],
    ["hardsphere", "--kr", "nan", "--spin", "0"],
    ["hardsphere", "--spin", "0", "--critical-scan", "0.2", "3", "--step", "nan"],
    ["plateau", "--spin", "0", "--kr", "inf"],
    ["plateau", "--spin", "0", "--eta", "1", "--epsilon", "nan"],
    ["hardsphere", "--kr", "1e-100", "--spin", "0"],
    ["plateau", "--spin", "0", "--kr", "1e-100"],
    ["hardsphere", "--spin", "0", "--critical-scan", "1e-100", "1"],
    ["angular", "--spin", "0", "--eta", "1.7e308"],
    ["plateau", "--spin", "0", "--eta", "1.7e308"],
    ["angular", "--system", "alpha", "--energy", "5e-324"],
    ["angular", "--spin", "0", "--eta", "1", "--theta-min", "5e-324"],
    ["angular", "--eta", "1", "--incoherent-only", "--theta-min", "5e-324"],
    ["angular", "--spin", "0", "--eta", "1", "--theta-step", "5e-324"],
    # checked even where the mode ignores the value
    ["angular", "--eta", "-1", "--incoherent-only"],
    ["angular", "--eta", "2e6", "--incoherent-only"],
    ["angular", "--eta", "nan", "--incoherent-only", "--format", "json"],
    ["angular", "--system", "alpha", "--energy", "397", "--spin", "1/2"],
    # the eta derived from --energy is checked in every mode: 2.8e6 here
    ["angular", "--system", "alpha", "--energy", "1e-10", "--incoherent-only"],
    # a = q^2/(2E) below coulomb.A_MIN: a * a would underflow to 0
    *(["angular", "--system", "alpha", "--energy", energy, *mode, "--format", fmt]
      + normalize
      for energy in ("1e300", "1e308")
      for mode in ([], ["--incoherent-only"])
      for fmt in ("csv", "json")
      for normalize in ([], ["--normalize", "rutherford90"])),
    # 2s past 2**53, where it stops being an exact float
    ["critical", "--spin", "1" * 400],
    ["critical", "--spin", f"{2**53 + 1}/2", "--format", "json"],
])
def test_invalid_numbers_exit_2(argv):
    code, stdout, _ = run(argv)
    assert code == 2
    assert stdout == ""


# Each case runs one subcommand with one numeric option drawn ("X"); the other
# options stay at cheap values (coarse grids, small kR).
GRID = ["--theta-min", "30", "--theta-max", "150", "--theta-step", "30"]


def grid_cases(argv):
    """argv + GRID three times, with the grid start, end and step drawn in turn."""
    return [argv + GRID[:i] + ["X"] + GRID[i + 1:] for i in (1, 3, 5)]


GUARD_CASES = [
    ["angular", "--system", "alpha", "--energy", "X"] + GRID,
    ["angular", "--system", "alpha", "--incoherent-only", "--energy", "X"] + GRID,
    ["angular", "--system", "alpha", "--normalize", "rutherford90", "--energy", "X"] + GRID,
    ["angular", "--system", "alpha", "--normalize", "rutherford90", "--incoherent-only",
     "--energy", "X"] + GRID,
    ["angular", "--spin", "0", "--eta", "X"] + GRID,
    ["angular", "--eta", "X", "--incoherent-only"] + GRID,
    *grid_cases(["angular", "--spin", "0", "--eta", "1"]),
    *grid_cases(["angular", "--eta", "1", "--incoherent-only"]),
    ["plateau", "--spin", "0", "--eta", "X"] + GRID,
    ["plateau", "--spin", "0", "--kr", "X"] + GRID,
    ["plateau", "--spin", "0", "--eta-critical", "--epsilon", "X"] + GRID,
    *grid_cases(["plateau", "--spin", "0", "--eta-critical"]),
    ["sweep", "--spin", "0", "--delta", "X"] + GRID,
    *grid_cases(["sweep", "--spin", "0"]),
    ["hardsphere", "--spin", "0", "--kr", "X"] + GRID,
    *grid_cases(["hardsphere", "--spin", "0", "--kr", "0.5"]),
    ["hardsphere", "--spin", "0", "--critical-scan", "X", "3"],
    ["hardsphere", "--spin", "0", "--critical-scan", "0.2", "X"],
    ["hardsphere", "--spin", "0", "--critical-scan", "0.2", "3", "--step", "X"],
]


@pytest.mark.parametrize("argv", GUARD_CASES, ids=lambda argv: " ".join(argv[:argv.index("X") + 1]))
@settings(max_examples=20, deadline=None, derandomize=True)
@given(value=st.floats())
@example(value=math.nan)
@example(value=math.inf)
@example(value=-math.inf)
@example(value=0.0)
@example(value=-0.0)
@example(value=5e-324)
@example(value=1e300)
@example(value=1e-300)
@example(value=-1e300)
def test_numeric_options_never_traceback(argv, value):
    # any exception but SystemExit propagates from run, and fails the test
    code, _, stderr = run([repr(value) if a == "X" else a for a in argv])
    assert code in {0, 2, 3}, stderr


# ------------------------------------------------------- values read from files

FILE_COMMANDS = [
    ["table", "--format", "json"],
    ["angular", "--system", "x", "--energy", "400", "--format", "json"] + GRID,
]


def assert_refused(argv, field):
    # exit 2 with no document and a message naming the field; never a traceback
    code, stdout, stderr = run(argv)
    assert code == 2, stderr
    assert stdout == ""
    assert field in stderr


@pytest.mark.parametrize("argv", FILE_COMMANDS, ids=lambda argv: argv[0])
@pytest.mark.parametrize("field", DEFAULT_CONSTANTS.__slots__)
@pytest.mark.parametrize("value", ["nan", "inf", "-inf", "0", "-1"])
def test_constants_file_values_are_checked(monkeypatch, tmp_path, argv, field, value):
    consts = tmp_path / "consts.txt"
    consts.write_text(f"{field} {value}\n")
    catalog = tmp_path / "cat.txt"
    catalog.write_text("x 2 4 0\n")
    monkeypatch.setenv("MOTT_TI_CONSTANTS", str(consts))
    assert_refused(argv + ["--catalog", str(catalog)], f"constant {field}")


@pytest.mark.parametrize("field,value", [
    ("r0", "1e308"),            # R_B overflows to inf, so V_B = 0
    ("nucleon_mass", "5e-324"), # (M/m0)^(1/3) overflows to inf, so V_B = 0
    ("r0", "5e-324"),           # R_B is subnormal, so V_B = inf
])
def test_constants_that_push_the_barrier_out_of_range_are_checked(monkeypatch, tmp_path,
                                                                  field, value):
    consts = tmp_path / "consts.txt"
    consts.write_text(f"{field} {value}\n")
    monkeypatch.setenv("MOTT_TI_CONSTANTS", str(consts))
    assert_refused(["table", "--format", "json"], "Coulomb barrier")


@pytest.mark.parametrize("argv", FILE_COMMANDS, ids=lambda argv: argv[0])
@pytest.mark.parametrize("z,mass,field", [
    *(("2", mass, "mass") for mass in ("nan", "inf", "0", "-1", "0.0", "1e400", "9" * 400)),
    ("92", "5e-324", "mass"),  # the barrier radius would round to 0
    ("1", "1e-297", "mass"),   # a^2 at E_C would overflow
    ("0", "4", "atomic number"),
    (str(10**160), "4", "atomic number"),
], ids=lambda text: text if len(text) < 16 else f"{text[0]}x{len(text)}")
def test_catalog_file_values_are_checked(tmp_path, argv, z, mass, field):
    catalog = tmp_path / "cat.txt"
    catalog.write_text(f"x {z} {mass} 0\n")
    assert_refused(argv + ["--catalog", str(catalog)], field)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(z=st.sampled_from([1, 2, 92, Z_MAX]),
       mass=st.floats(allow_nan=False) | st.sampled_from([MASS_MIN, MASS_MAX]),
       twice_s=st.integers(-1, 2**60) | st.sampled_from([0, TWICE_S_MAX]))
@example(z=2, mass=4.0, twice_s=int("1" * 400))
@example(z=2, mass=4.0, twice_s=TWICE_S_MAX + 1)
@example(z=2, mass=4.0, twice_s=-1)
@example(z=92, mass=5e-324, twice_s=0)
@example(z=1, mass=1e-297, twice_s=0)
@example(z=1, mass=MASS_MIN, twice_s=TWICE_S_MAX)
@example(z=Z_MAX, mass=MASS_MIN, twice_s=0)
@example(z=1, mass=MASS_MAX, twice_s=TWICE_S_MAX)
@example(z=Z_MAX, mass=MASS_MAX, twice_s=0)
@example(z=Z_MAX, mass=MASS_MAX, twice_s=TWICE_S_MAX)
def test_species_extremes_exit_2_or_give_strict_json(tmp_path_factory, z, mass, twice_s):
    # inside the bounds every number is finite; outside them the value is
    # refused by name, the catalog's 2s column and --spin alike
    catalog = tmp_path_factory.mktemp("cat") / "cat.txt"
    catalog.write_text(f"x {z} {mass!r} {twice_s}\n")
    spin_field = None if 0 <= twice_s <= TWICE_S_MAX else "2s"
    row_field = spin_field or (None if MASS_MIN <= mass <= MASS_MAX else "mass")
    for argv, field in (
        (["table", "--format", "json", "--catalog", str(catalog)], row_field),
        (["critical", f"--spin={twice_s}/2", "--format", "json"], spin_field),
    ):
        if field:
            assert_refused(argv, field)
        else:
            code, stdout, stderr = run(argv)
            assert code == 0, stderr
            strict_json(stdout)


# --------------------------------------------------------------- option vocabulary

def test_shared_options_agree():
    # an option that several subcommands take means the same in each; only
    # whether --spin is required may differ
    parser = build_parser("mott-ti")
    subparsers, = (a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    assert list(subparsers.choices) == ["critical", "angular", "table", "plateau", "sweep",
                                        "hardsphere"]
    seen = {}
    for name, command in subparsers.choices.items():
        for action in command._actions:
            spec = (type(action), action.dest, action.help, action.default, action.type,
                    action.choices, action.nargs, action.metavar,
                    None if action.dest == "spin" else action.required)
            for opt in action.option_strings:
                first, first_spec = seen.setdefault(opt, (name, spec))
                assert spec == first_spec, (opt, first, name)
    assert len(seen) > 10


def test_option_defaults_are_the_library_defaults():
    # each option that feeds a library parameter takes that parameter's default
    def default(function, name):
        return inspect.signature(function).parameters[name].default

    parser = build_parser("mott-ti")
    grid = parser.parse_args(["plateau", "--spin", "0"])
    assert (grid.theta_min, grid.theta_max, grid.theta_step) == tuple(
        default(angle_grid, name) for name in ("start", "stop", "step"))
    assert parser.parse_args(["hardsphere", "--spin", "0"]).step == default(find_critical_kR,
                                                                             "step")


# ------------------------------------------- the subprocess and the in-process run

# The in-process side is cli.main itself, through run: each argv gives the
# same exit code and the same stdout bytes as `python -m mott_ti.cli`.  bench/
# makes the same check of every op of its cli workload.
PARITY_CASES = [
    *((argv + ["--format", fmt], 0) for argv in (
        ["critical", "--spin", "1"],
        ["angular", "--eta", "1.5", "--spin", "0"] + GRID,
        ["table"],
        ["plateau", "--spin", "1/2", "--eta-critical"],
        ["sweep", "--spin", "2", "--theta-step", "2"],
        ["hardsphere", "--kr", "1.5", "--spin", "0"] + GRID,
    ) for fmt in ("csv", "json")),
    (["plateau", "--spin", "0"], 2),
    (["hardsphere", "--kr", "1.5", "--spin", "0", "--step", "7"], 2),
    (["critical", "--spin", "1", "--bracket", "1", "3"], 2),
    (["critical", "--spin", "1/2", "--numeric"], 3),
    (["--version"], 0),
]


@pytest.mark.parametrize("argv,code", PARITY_CASES, ids=[" ".join(c[0]) for c in PARITY_CASES])
def test_subprocess_and_in_process_run_agree(argv, code):
    env = {"PATH": os.environ.get("PATH", "/usr/bin:/bin"), "PYTHONPATH": str(SRC)}
    proc = subprocess.run([sys.executable, "-m", "mott_ti.cli", *argv], cwd=SRC.parent, env=env,
                          capture_output=True, check=False)
    in_process, stdout, _ = run(argv)
    assert (proc.returncode, in_process) == (code, code), proc.stderr
    assert stdout.encode() == proc.stdout
    assert bool(proc.stdout) == (code == 0)


# ----------------------------------------------- where argparse differs from click

@pytest.mark.parametrize("argv,message", [
    # no parser takes an abbreviated option
    (["plateau", "--spin", "0", "--eta-crit"], "unrecognized arguments: --eta-crit"),
    (["critical", "--spin", "1", "--num"], "unrecognized arguments: --num"),
    # the numeric search takes one bracket, critical_eta_numeric's default
    (["critical", "--spin", "1", "--bracket", "1", "3"], "unrecognized arguments: --bracket 1 3"),
    # only a plain negative number is read as a value; --option=VALUE takes any
    (["angular", "--eta", "-1e3", "--spin", "0"], "argument --eta: expected one argument"),
    (["angular", "--eta=-1e3", "--spin", "0"], "eta must lie in (0, 1e+06], got -1000.0"),
    (["angular", "--eta", "-1", "--spin", "0"], "eta must lie in (0, 1e+06], got -1.0"),
    ([], "the following arguments are required: COMMAND"),
])
def test_argparse_usage_errors_exit_2(argv, message):
    code, stdout, stderr = run(argv)
    assert code == 2
    assert stdout == ""
    assert message in stderr


def test_version_line():
    code, stdout, _ = run(["--version"])
    assert code == 0
    assert stdout == "mott-ti, version 0.1.0\n"


@pytest.mark.parametrize("name", ["missing.txt", "."])
def test_catalog_that_is_no_file_exits_2(tmp_path, name):
    path = tmp_path / name
    for argv in (["table"], ["angular", "--system", "alpha", "--energy", "400"]):
        code, stdout, stderr = run(argv + ["--catalog", str(path)])
        assert code == 2
        assert stdout == ""
        assert f"cannot load catalog {path}: " in stderr


# ------------------------------------------------------- envelope and formats

def test_outputs_are_deterministic():
    args = ["table"]
    assert run(args) == run(args)
    args = ["angular", "--eta", "2", "--spin", "1", "--theta-min", "10",
            "--theta-max", "170", "--theta-step", "10"]
    assert run(args) == run(args)


def test_json_and_csv_agree_numerically():
    base = ["critical", "--spin", "0", "--numeric"]
    csv_out = run(base)[1]
    json_out = json.loads(run(base + ["--format", "json"])[1])
    row = csv_table(csv_out)[0]
    assert float(row["eta_critical"]) == pytest.approx(
        json_out["data"]["eta_critical"], rel=1e-8
    )
    assert float(row["eta_critical_numeric"]) == pytest.approx(
        json_out["data"]["eta_critical_numeric"], rel=1e-8
    )


def test_json_envelope_structure():
    out = run(["table", "--format", "json"])[1]
    doc = json.loads(out)
    assert set(doc) == {"metadata", "params", "data"}
    assert doc["metadata"]["tool"] == "mott-ti"
    assert "constants_fingerprint" in doc["metadata"]
    assert doc["params"]["command"] == "table"
    assert doc["data"]["columns"][0] == "name"


def test_csv_embeds_parameters():
    out = run(["angular", "--eta", "2.5", "--spin", "0", "--theta-min", "45", "--theta-max",
               "135", "--theta-step", "45"])[1]
    comments, _, _ = parse_csv(out)
    assert comments["eta"] == "2.5"
    assert comments["command"] == "angular"
    assert "constants_fingerprint" in comments


def test_constants_env_override(monkeypatch, tmp_path):
    consts = tmp_path / "alt.txt"
    consts.write_text("e_squared 1.44\n")
    args = ["angular", "--system", "alpha", "--energy", "400",
            "--theta-min", "90", "--theta-max", "91", "--theta-step", "1"]
    plain_code, plain, _ = run(args)
    monkeypatch.setenv("MOTT_TI_CONSTANTS", str(consts))
    alt_code, alt, _ = run(args)
    assert plain_code == 0 and alt_code == 0
    c_plain, _, _ = parse_csv(plain)
    c_alt, _, _ = parse_csv(alt)
    assert c_plain["constants_fingerprint"] != c_alt["constants_fingerprint"]
    # a = q^2/(2E) scales with e_squared
    assert float(c_alt["a_fm"]) == pytest.approx(
        float(c_plain["a_fm"]) * 1.44 / 1.4399645, rel=1e-6
    )


# One argv per command and mode, each beside an argv that the command itself
# refuses with exit 2, or that fails with exit 3 (critical has no option to refuse)
CONSTANTS_CASES = [
    (["critical", "--spin", "0"], ["critical", "--spin", "1/2", "--numeric"]),
    (["angular", "--system", "alpha", "--energy", "400"] + GRID, ["angular", "--eta", "1"]),
    (["table"], ["table", "--catalog", "."]),
    (["plateau", "--spin", "0", "--eta-critical"], ["plateau", "--spin", "0"]),
    (["sweep", "--spin", "0", "--theta-step", "2"], ["sweep", "--spin", "0", "--delta", "1"]),
    (["hardsphere", "--kr", "1.5", "--spin", "0"] + GRID,
     ["hardsphere", "--spin", "0", "--kr", "1", "--critical-scan", "0.2", "3"]),
    (["hardsphere", "--critical-scan", "0.2", "3", "--spin", "0"],
     ["hardsphere", "--spin", "0"]),
]


@pytest.mark.parametrize("argv,refused", CONSTANTS_CASES,
                         ids=[" ".join(c[0][:2]) for c in CONSTANTS_CASES])
def test_every_command_runs_on_the_constants_file(monkeypatch, tmp_path, argv, refused):
    # the document fingerprints the file's constants, and a file that does not
    # load is the error reported even when the command would refuse its options
    consts = tmp_path / "alt.txt"
    consts.write_text("e_squared 1.44\n")
    fingerprint = load_constants(consts).fingerprint()
    assert fingerprint != DEFAULT_CONSTANTS.fingerprint()
    monkeypatch.setenv("MOTT_TI_CONSTANTS", str(consts))
    code, stdout, stderr = run(argv + ["--format", "json"])
    assert code == 0, stderr
    assert json.loads(stdout)["metadata"]["constants_fingerprint"] == fingerprint

    monkeypatch.delenv("MOTT_TI_CONSTANTS")
    code, _, stderr = run(refused)
    assert code in (2, 3) and "cannot load constants" not in stderr
    (tmp_path / "bad.txt").write_text("nonsense 1 2 3\n")
    monkeypatch.setenv("MOTT_TI_CONSTANTS", str(tmp_path / "bad.txt"))
    code, _, stderr = run(refused)
    assert code == 2
    assert "cannot load constants from MOTT_TI_CONSTANTS" in stderr


def test_constants_env_bad_file(monkeypatch, tmp_path):
    consts = tmp_path / "bad.txt"
    consts.write_text("nonsense 1 2 3\n")
    monkeypatch.setenv("MOTT_TI_CONSTANTS", str(consts))
    assert run(["critical", "--spin", "0"])[0] == 2
