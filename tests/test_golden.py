"""Byte-compare CLI stdout and exit codes against the files in tests/golden/.

Each case in golden/cases.json names an argv; golden/<name>.out holds the
expected stdout and golden/<name>.exit the expected exit code.  After an
intended output change, rewrite the files of the named cases with

    PYTHONPATH=src python tests/test_golden.py NAME...

(no names: every case) and review the diff: every changed file is a
behaviour change.

run(argv) is the suite's one way to run the CLI in-process.
"""

import io
import json
import os
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from mott_ti.cli import main

GOLDEN = Path(__file__).parent / "golden"
CASES = json.loads((GOLDEN / "cases.json").read_text())


def run(argv):
    """main(argv) as `python -m mott_ti.cli` runs it: (exit code, stdout, stderr).

    main always ends in SystemExit, whose code is the exit code.  Any other
    exception propagates, where `python -m` would print its traceback and
    exit 1.  MOTT_TI_CONSTANTS is read as it stands: conftest.py unsets it
    for the session.
    """
    stdout, stderr = io.StringIO(), io.StringIO()
    with redirect_stdout(stdout), redirect_stderr(stderr):
        try:
            main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, stdout.getvalue(), stderr.getvalue()


@pytest.mark.parametrize("case", CASES, ids=[c["name"] for c in CASES])
def test_golden_output(case):
    code, stdout, _ = run(case["argv"])
    assert code == int((GOLDEN / f"{case['name']}.exit").read_text())
    assert stdout.encode() == (GOLDEN / f"{case['name']}.out").read_bytes()


def test_every_golden_file_belongs_to_a_case():
    # each case has its .out and .exit, and no file outlives its case
    names = [c["name"] for c in CASES]
    assert len(set(names)) == len(names)
    files = {f"{name}{suffix}" for name in names for suffix in (".out", ".exit")}
    assert {path.name for path in GOLDEN.iterdir()} == files | {"cases.json"}


def strict_json(text):
    """json.loads that refuses NaN and Infinity, which are not JSON."""
    def refuse(name):
        raise ValueError(f"{name} is not JSON")
    return json.loads(text, parse_constant=refuse)


@pytest.mark.parametrize("name", [c["name"] for c in CASES if c["name"].endswith("-json")])
def test_json_goldens_are_strict_json(name):
    strict_json((GOLDEN / f"{name}.out").read_text())


@pytest.mark.parametrize("argv", [
    ["angular", "--eta", "nan", "--incoherent-only", "--format", "json"],
    ["hardsphere", "--spin", "0", "--critical-scan", "0.2", "nan", "--format", "json"],
])
def test_json_output_is_strict_json(argv):
    # a non-finite input is refused (exit 2, no document), never echoed as NaN
    code, stdout, _ = run(argv)
    if stdout:
        strict_json(stdout)
    assert code == 2


if __name__ == "__main__":
    names = sys.argv[1:]
    unknown = set(names) - {c["name"] for c in CASES}
    if unknown:
        sys.exit(f"no such case: {', '.join(sorted(unknown))}")
    os.environ.pop("MOTT_TI_CONSTANTS", None)  # the goldens hold the built-in constants
    for case in CASES:
        if names and case["name"] not in names:
            continue
        code, stdout, _ = run(case["argv"])
        (GOLDEN / f"{case['name']}.out").write_bytes(stdout.encode())
        (GOLDEN / f"{case['name']}.exit").write_text(f"{code}\n")
