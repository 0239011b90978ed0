"""Every module of the package uses each name it imports, none imports upward,
every module-level name is used, nothing is cached between calls, no record
is a dataclass, only constants.Record stores fields past Record.__setattr__,
one phase-shift ladder builds the only Bessel table, one finite-difference
kernel makes the only stencil call, on the values of one cross-section call
with no dict or callback, every CLI command takes the parsed options alone,
one mode table covers every option of each CLI command with a choice of
modes, no call passes a statistics that the spin decides,
importing the CLI loads only what it uses, rendering a document loads no
hashlib, though its constants fingerprint equals hashlib's SHA-256, and no
test module imports click.

The package __init__ is exempt from the first two: its imports are the
public re-exports.  For the third, a re-export is not a use: a name that
only __init__ imports must be on the allowlist REEXPORT_ONLY.
"""

import ast
import inspect
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mott_ti import DEFAULT_CONSTANTS, DomainError, PhysicalConstants

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "mott_ti"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
TESTS = sorted(Path(__file__).resolve().parent.glob("*.py"))


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_uses_every_import(path):
    assert unused_imports(path.read_text()) == []


def test_the_check_sees_an_unused_import():
    source = "import math\nfrom .species import Spin, Statistics\n\nx = Spin(math.pi)\n"
    assert unused_imports(source) == ["Statistics (line 2)"]


def unused_module_names(sources: dict[str, str]) -> list[str]:
    """Module-level defs and assignments that no module loads or imports.

    `sources` maps module names to their text.  A name counts as used if any
    module loads it, or any module but __init__ imports it by name: a
    re-export alone is not a use.
    """
    trees = {module: ast.parse(source) for module, source in sources.items()}
    used = set()
    for module, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add(node.id)
            elif isinstance(node, ast.ImportFrom) and module != "__init__":
                used.update(alias.name for alias in node.names)
    out = []
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, ast.Assign):
                names = [t.id for t in node.targets if isinstance(t, ast.Name)]
            elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                names = [node.target.id]
            else:
                continue
            out += [f"{module}.{name} (line {node.lineno})" for name in names if name not in used]
    return out


# Names that only __init__ re-exports, each with the reason it stays.  The
# check fails when one of them gains a caller in the package or disappears.
REEXPORT_ONLY = {
    "coulomb.identical_cross_section": "traced by bench/",
    "coulomb.curvature_at_90_fd": "traced by bench/; the tests' FD oracle",
    "hardsphere.hard_sphere_phase_shifts": "traced by bench/; the tests' ladder entry",
    "hardsphere.hs_amplitude": "traced by bench/",
    "hardsphere.hs_identical_cross_section": "traced by bench/",
    "special.legendre_p_table": "traced by bench/",
    "special.spherical_bessel_y_table": "traced by bench/; scipy oracle of the ladder's y",
    "kinematics.wavenumber": "traced by bench/",
}


def test_every_module_level_name_is_used():
    sources = {p.stem: p.read_text() for p in sorted(PACKAGE.glob("*.py"))}
    unused = [entry.split(" (line ")[0] for entry in unused_module_names(sources)]
    assert sorted(unused) == sorted(REEXPORT_ONLY)


def test_the_check_sees_an_unused_module_name():
    # Row is used by output's import, STEP only re-exported by __init__
    sources = {
        "cli": ("OPTIONS = [1]\n\n\ndef add_options(options):\n"
                "    return options\n\n\ndef table():\n    return OPTIONS\n\n\n"
                "COMMANDS = [table]\n"),
        "analysis": "LIMIT: int = 3\nSTEP = 0.5\n\n\nclass Row:\n    pass\n",
        "__init__": "from .analysis import Row, STEP\n",
        "output": "from .analysis import Row\n",
    }
    assert unused_module_names(sources) == [
        "cli.add_options (line 4)", "cli.COMMANDS (line 12)", "analysis.LIMIT (line 1)",
        "analysis.STEP (line 2)",
    ]


def call_sites(sources: dict[str, str], name: str, where=lambda call: True) -> list[str]:
    """Calls of `name`, bare or as an attribute, that satisfy `where`, in each module."""
    out = []
    for module, source in sources.items():
        for node in ast.walk(ast.parse(source)):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            called = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
            if called == name and where(node):
                out.append(f"{module} (line {node.lineno})")
    return out


def test_one_phase_shift_ladder():
    # hardsphere._waves builds the one j table and steps y_l itself
    sources = {p.stem: p.read_text() for p in sorted(PACKAGE.glob("*.py"))}
    assert len(call_sites(sources, "spherical_bessel_j_table")) == 1
    assert call_sites(sources, "spherical_bessel_y_table") == []


def fd_kernel_faults(source: str) -> list[str]:
    """How coulomb._fd_curvature in `source` departs from one _cross_sections
    call whose values second_derivative takes: a count other than one of
    either call, and each dict it builds, by line.
    """
    kernel = next(node for node in ast.parse(source).body
                  if isinstance(node, ast.FunctionDef) and node.name == "_fd_curvature")
    body = {"_fd_curvature": ast.get_source_segment(source, kernel)}
    out = [f"{name}: {count} calls" for name in ("_cross_sections", "second_derivative")
           if (count := len(call_sites(body, name))) != 1]
    return out + [f"dict (line {node.lineno})" for node in ast.walk(kernel)
                  if isinstance(node, (ast.Dict, ast.DictComp))
                  or isinstance(node, ast.Call) and getattr(node.func, "id", None) == "dict"]


def test_one_finite_difference_kernel():
    # coulomb._fd_curvature makes the one stencil call, through which
    # curvature_at_90_fd and critical_eta_numeric both evaluate, and hands
    # it the values of one cross-section call: no callback, no dict
    from mott_ti.numerics import second_derivative

    sources = {p.stem: p.read_text() for p in sorted(PACKAGE.glob("*.py"))}
    assert len(call_sites(sources, "second_derivative")) == 1
    assert list(inspect.signature(second_derivative).parameters) == ["values", "step"]
    assert fd_kernel_faults(sources["coulomb"]) == []


def test_the_check_sees_a_dict_kernel():
    # the form that looked its values up by angle in a dict, a literal dict,
    # and a second pair of calls
    head = "def _fd_curvature(a, eta, eps_w):\n"
    by_dict = head + (
        "    sigma = dict(zip(_STENCIL, _cross_sections(_STENCIL, a, eta, eps_w)))\n"
        "    return half_angle_curvature(second_derivative(sigma.__getitem__, 90.0, STEP))\n")
    values = head + (
        "    sigma = _cross_sections(_STENCIL, a, eta, eps_w)\n"
        "    return half_angle_curvature(second_derivative(sigma, STEP))\n")
    literal = values.replace("    sigma =", "    seen = {}\n    sigma =")
    twice = values + "    second_derivative(_cross_sections(_STENCIL, a, eta, 0.0), STEP)\n"
    assert fd_kernel_faults(by_dict) == ["dict (line 2)"]
    assert fd_kernel_faults(values) == []
    assert fd_kernel_faults(literal) == ["dict (line 2)"]
    assert fd_kernel_faults(twice) == ["_cross_sections: 2 calls", "second_derivative: 2 calls"]


def test_one_command_shape():
    # each command takes the parsed namespace and returns its parameters and
    # payload; cli.main alone loads the constants and builds the envelope
    from mott_ti.cli import COMMANDS

    cli = {"cli": (PACKAGE / "cli.py").read_text()}
    assert len(call_sites(cli, "_constants")) == 1
    assert len(call_sites(cli, "OutputEnvelope")) == 1
    assert [command.__name__ for command, _ in COMMANDS
            if len(inspect.signature(command).parameters) != 1] == []


def test_one_mode_table():
    # cli.MODES declares the modes of each command that has a choice as
    # (selectors, requires, reads), naming only that command's options; each
    # option but --format has a use.  A command with one mode has no entry,
    # so every mode in the table has selectors to name it by
    from mott_ti.cli import COMMANDS, MODES

    names = [command.__name__ for command, _ in COMMANDS]
    assert list(MODES) == [name for name in names if name in MODES]
    for command, options in COMMANDS:
        modes = MODES.get(command.__name__)
        if modes is None:
            continue
        assert len(modes) >= 2, command.__name__
        flags = {flag for flag, _ in options}
        named = {flag for mode in modes for part in mode for flag in part}
        assert named <= flags, command.__name__
        assert flags - named == {"--format"}, command.__name__
        selectors = [frozenset(mode[0]) for mode in modes]
        assert all(selectors), command.__name__
        assert len(set(selectors)) == len(selectors), command.__name__


def test_the_check_sees_a_call_site():
    sources = {
        "hardsphere": ("from . import special\nfrom .special import spherical_bessel_j_table\n\n"
                       "j = spherical_bessel_j_table(4, 1.0)\n"
                       "y = special.spherical_bessel_y_table(4, 1.0)\n"),
        "analysis": "table = spherical_bessel_j_table\nx = table(2, 0.5)\n",
    }
    assert call_sites(sources, "spherical_bessel_j_table") == ["hardsphere (line 4)"]
    assert call_sites(sources, "spherical_bessel_y_table") == ["hardsphere (line 5)"]


# The callables that still take an optional statistics, each with the number of
# arguments before it.  The spin decides the statistics, so no call passes one.
STATISTICS_AFTER = {"HardSphereParams": 2, "find_critical_kR": 1, "curvature_at_90": 1}


def statistics_arguments(sources: dict[str, str]) -> list[str]:
    """Calls of STATISTICS_AFTER's callables that pass a statistics, by keyword or position."""
    return [site for name, before in STATISTICS_AFTER.items()
            for site in call_sites(sources, name, lambda call: len(call.args) > before
                                   or any(k.arg == "statistics" for k in call.keywords))]


def test_no_call_passes_a_statistics():
    sources = {p.stem: p.read_text() for p in sorted(PACKAGE.glob("*.py"))}
    assert statistics_arguments(sources) == []


def test_the_check_sees_a_statistics_argument():
    sources = {
        "cli": ("model = HardSphereParams(kR=1.0, spin=spin, statistics=spin.statistics)\n"
                "root = hardsphere.find_critical_kR(spin, spin.statistics)\n"
                "none = find_critical_kR(spin, scan=(0.2, 3.0), step=0.05)\n"),
        "analysis": ("c = curvature_at_90(params)\n"
                     "d = curvature_at_90(params, Statistics.BOSON)\n"
                     "hs = HardSphereParams(1.5, spin, polarization=polarization)\n"
                     "bad = HardSphereParams(1.5, spin, None, polarization)\n"),
    }
    assert statistics_arguments(sources) == [
        "cli (line 1)", "analysis (line 4)", "cli (line 2)", "analysis (line 2)",
    ]


# functools' memoizing decorators: the package keeps no state between calls
CACHE_DECORATORS = {"cache", "lru_cache", "cached_property"}


def decorator_name(decorator: ast.expr) -> str | None:
    """The last name of a decorator, bare or dotted, called or not."""
    target = decorator.func if isinstance(decorator, ast.Call) else decorator
    return target.attr if isinstance(target, ast.Attribute) else getattr(target, "id", None)


def cache_decorators(source: str) -> list[str]:
    """Functions, methods and classes under a CACHE_DECORATORS decorator."""
    out = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            for decorator in node.decorator_list:
                if decorator_name(decorator) in CACHE_DECORATORS:
                    out.append(f"{node.name} (line {decorator.lineno})")
    return out


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_module_caches_nothing(path):
    assert cache_decorators(path.read_text()) == []


def test_the_check_sees_a_cache():
    source = ("import functools\nfrom functools import lru_cache\n\n\n"
              "@lru_cache(maxsize=8)\ndef shifts(kR):\n    return kR\n\n\n"
              "@functools.cache\ndef table(l):\n    return l\n\n\n"
              "class Ladder:\n    @functools.cached_property\n    def deltas(self):\n"
              "        return ()\n\n    @property\n    def l_max(self):\n        return 0\n")
    assert cache_decorators(source) == [
        "shifts (line 5)", "table (line 10)", "deltas (line 16)",
    ]


def dataclass_uses(source: str) -> list[str]:
    """Imports of dataclasses and classes under a decorator named dataclass.

    Records are constants.Record subclasses: a dataclass compiles its
    generated methods when its module is imported, in every CLI process.
    """
    out = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            out += [f"import {a.name} (line {node.lineno})" for a in node.names
                    if a.name.split(".")[0] == "dataclasses"]
        elif isinstance(node, ast.ImportFrom) and node.module == "dataclasses":
            out.append(f"from dataclasses (line {node.lineno})")
        elif isinstance(node, ast.ClassDef):
            for decorator in node.decorator_list:
                if decorator_name(decorator) == "dataclass":
                    out.append(f"{node.name} (line {decorator.lineno})")
    return out


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_module_defines_no_dataclass(path):
    assert dataclass_uses(path.read_text()) == []


def test_the_check_sees_a_dataclass():
    source = ("import dataclasses\nfrom dataclasses import dataclass, field\n\n\n"
              "@dataclass\nclass A:\n    x: int\n\n\n"
              "@dataclasses.dataclass(frozen=True)\nclass B:\n    y: int\n\n\n"
              "class C:\n    __slots__ = ('z',)\n")
    assert dataclass_uses(source) == [
        "import dataclasses (line 1)", "from dataclasses (line 2)",
        "A (line 5)", "B (line 10)",
    ]


def setattr_bypasses(sources: dict[str, str]) -> list[str]:
    """Uses of object.__setattr__ outside constants.Record.

    Record._store is the one place that fills a record's fields; every
    other assignment to a record raises AttributeError.
    """
    out = []
    for module, source in sources.items():
        tree = ast.parse(source)
        home = set()
        for node in tree.body:
            if module == "constants" and isinstance(node, ast.ClassDef) and node.name == "Record":
                home = set(map(id, ast.walk(node)))
        lines = [node.lineno for node in ast.walk(tree)
                 if isinstance(node, ast.Attribute) and node.attr == "__setattr__"
                 and isinstance(node.value, ast.Name) and node.value.id == "object"
                 and id(node) not in home]
        out += [f"{module} (line {line})" for line in sorted(lines)]
    return out


def test_only_record_bypasses_setattr():
    sources = {p.stem: p.read_text() for p in sorted(PACKAGE.glob("*.py"))}
    assert setattr_bypasses(sources) == []


def test_the_check_sees_a_setattr_bypass():
    record = ("class Record:\n    def _store(self, *values):\n"
              "        for name, value in zip(self.__slots__, values, strict=True):\n"
              "            object.__setattr__(self, name, value)\n\n\n")
    spin = ("class Spin(Record):\n    __slots__ = ('twice_s',)\n\n"
            "    def __init__(self, twice_s):\n"
            "        object.__setattr__(self, 'twice_s', twice_s)\n")
    sources = {
        "constants": record + spin,
        "species": record + "store = object.__setattr__\n",
    }
    assert setattr_bypasses(sources) == ["constants (line 11)", "species (line 4)",
                                         "species (line 7)"]


# Bottom to top: a module imports only from its own layer or the ones below.
# `from . import __version__` reads the package itself, which sets that name
# before it imports any module, so it is not ranked.
LAYERS = [
    {"errors", "constants"},
    {"numerics", "special"},
    {"species"},
    {"kinematics"},
    {"coulomb", "hardsphere"},
    {"analysis"},
    {"output"},
    {"cli"},
]
RANK = {name: rank for rank, layer in enumerate(LAYERS) for name in layer}


def upward_imports(module: str, source: str) -> list[str]:
    out = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            targets = [node.module] if node.module else [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("mott_ti."):
            targets = [node.module.split(".")[1]]
        elif isinstance(node, ast.Import):
            targets = [a.name.split(".")[1] for a in node.names if a.name.startswith("mott_ti.")]
        else:
            continue
        out += [f"{t} (line {node.lineno})" for t in targets
                if t in RANK and RANK[t] > RANK[module]]
    return out


def test_every_module_has_a_layer():
    assert {p.stem for p in MODULES} == set(RANK)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_imports_only_downward(path):
    assert upward_imports(path.stem, path.read_text()) == []


def test_the_check_sees_an_upward_import():
    source = ("from . import __version__\nfrom .species import Spin\n"
              "from .coulomb import A_MAX\nimport mott_ti.analysis\n")
    assert upward_imports("kinematics", source) == ["coulomb (line 3)", "analysis (line 4)"]


def click_imports(source: str) -> list[str]:
    """Each import of click or of a module in it, by name and line."""
    out = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        else:
            continue
        out += [f"{name} (line {node.lineno})" for name in names if name.split(".")[0] == "click"]
    return out


@pytest.mark.parametrize("path", TESTS, ids=lambda p: p.name)
def test_no_test_module_imports_click(path):
    # the suite runs the CLI through test_golden.run, which calls cli.main
    # itself, so it runs without click; only bench/'s in-process oracle uses it
    assert click_imports(path.read_text()) == []


def test_the_check_sees_a_click_import():
    source = ("import clickhouse\nfrom click.testing import CliRunner\nimport os, click\n"
              "from .click import x\n")
    assert click_imports(source) == ["click.testing (line 2)", "click (line 3)"]


def test_cli_import_leaves_hashlib_unloaded():
    # no module imports hashlib (the constants fingerprint takes CPython's
    # builtin SHA-256 when a document is rendered), and the envelope imports
    # json when it renders JSON, so a command that exits before rendering
    # never pays for json, nor a CSV command; no module imports dataclasses,
    # and the CLI is argparse's, so neither click nor the inspect it pulls in loads
    env = {**os.environ, "PYTHONPATH": str(PACKAGE.parent)}
    names = ("hashlib", "dataclasses", "json", "click", "inspect")
    code = f"import sys, mott_ti.cli; print([m in sys.modules for m in {names}])"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out == f"{[False] * len(names)}\n"


def test_cli_import_loads_only_what_it_uses():
    # python -S: no site hook preloads a module, so this sees what the package
    # itself pulls in.  The shipped catalog and user files are read with open(),
    # and no module imports typing, so beyond argparse only the package and
    # four small modules load
    env = {**os.environ, "PYTHONPATH": str(PACKAGE.parent)}
    code = ("import argparse, sys\nbefore = set(sys.modules)\nimport mott_ti.cli\n"
            "print(*sorted(set(sys.modules) - before))")
    loaded = set(subprocess.run([sys.executable, "-S", "-c", code], env=env, capture_output=True,
                                text=True, check=True).stdout.split())
    assert loaded.isdisjoint({"pathlib", "importlib.resources", "tempfile", "typing"})
    package = {"mott_ti"} | {f"mott_ti.{p.stem}" for p in MODULES}
    assert loaded - package <= {"__future__", "cmath", "collections.abc", "math"}


def test_a_rendered_document_leaves_hashlib_unloaded():
    # python -S, so no site hook loads it either: the fingerprint of the
    # rendered document hashes with the builtin _sha2 (3.12+) or _sha256
    # module, not hashlib and the OpenSSL _hashlib it loads (~2.5 ms)
    env = {**os.environ, "PYTHONPATH": str(PACKAGE.parent)}
    env.pop("MOTT_TI_CONSTANTS", None)
    proc = subprocess.run([sys.executable, "-S", "-X", "importtime", "-m", "mott_ti.cli",
                           "critical", "--spin", "1"], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert "# constants_fingerprint=1446ed781204\n" in proc.stdout
    imported = {line.rsplit("|", 1)[1].strip() for line in proc.stderr.splitlines()
                if line.startswith("import time:")}
    assert "mott_ti.output" in imported
    assert imported.isdisjoint({"hashlib", "_hashlib"})


def _fingerprint_oracle(constants):
    """sha256 of the name=repr(value) list in slot order, from hashlib: a test-only oracle."""
    import hashlib

    text = ",".join(f"{name}={getattr(constants, name)!r}"
                    for name in PhysicalConstants.__slots__)
    return hashlib.sha256(text.encode()).hexdigest()[:12]


def test_default_fingerprint_equals_hashlib():
    assert DEFAULT_CONSTANTS.fingerprint() == _fingerprint_oracle(DEFAULT_CONSTANTS)


def test_fingerprint_without_the_builtin_module_takes_hashlib(monkeypatch):
    # an interpreter built without its builtin SHA-256: a None entry makes the import fail
    monkeypatch.setitem(sys.modules, "_sha2", None)
    monkeypatch.setitem(sys.modules, "_sha256", None)
    assert DEFAULT_CONSTANTS.fingerprint() == "1446ed781204"


_POSITIVE = st.floats(min_value=5e-324, max_value=1.7976931348623157e308)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(hbar_c=st.floats(min_value=1e-300, max_value=1e300),
       inverse_alpha=st.floats(min_value=136.6, max_value=137.4),
       amu=_POSITIVE, nucleon_mass=_POSITIVE, r0=_POSITIVE)
def test_fingerprint_equals_hashlib_for_any_constants(hbar_c, inverse_alpha, amu,
                                                      nucleon_mass, r0):
    constants = PhysicalConstants(hbar_c, hbar_c / inverse_alpha, amu, nucleon_mass, r0)
    assert constants.fingerprint() == _fingerprint_oracle(constants)


def _python313():
    """The path of a working python3.13, or None: a pyenv shim may name no installed version."""
    path = shutil.which("python3.13")
    if path is None:
        return None
    ok = subprocess.run([path, "-S", "-c", "pass"], capture_output=True).returncode == 0
    return path if ok else None


PYTHON313 = _python313()


@pytest.mark.skipif(PYTHON313 is None, reason="python3.13 is not installed")
def test_python313_takes_sha2_for_the_same_fingerprint_and_golden():
    # on 3.12+ the builtin SHA-256 lives in _sha2, not _sha256
    env = {**os.environ, "PYTHONPATH": str(PACKAGE.parent)}
    env.pop("MOTT_TI_CONSTANTS", None)
    code = ("import sys\nfrom mott_ti import DEFAULT_CONSTANTS\n"
            "print(DEFAULT_CONSTANTS.fingerprint(), *[m in sys.modules for m in "
            "('_sha2', 'hashlib', '_hashlib')])")
    out = subprocess.run([PYTHON313, "-S", "-c", code], env=env, capture_output=True, text=True,
                         check=True).stdout
    assert out == "1446ed781204 True False False\n"
    golden = Path(__file__).parent / "golden"
    case = "angular-6Li-json"  # a JSON table, with the fingerprint in its metadata
    cases = json.loads((golden / "cases.json").read_text())
    argv = next(c["argv"] for c in cases if c["name"] == case)
    proc = subprocess.run([PYTHON313, "-m", "mott_ti.cli", *argv], env=env, capture_output=True)
    assert proc.returncode == int((golden / f"{case}.exit").read_text())
    assert proc.stdout == (golden / f"{case}.out").read_bytes()
