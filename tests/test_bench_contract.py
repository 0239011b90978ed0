"""The library surface that the benchmark in bench/ reaches into.

bench/tracing.py wraps the (module, function) pairs in TRACED by name,
bench/workloads.py calls a few functions with fixed argument shapes, and
bench/oracle.py rebuilds the kR grid that find_critical_kR scans.  Files
under bench/ change only together with the benchmark, so a library change
that breaks one of these names or shapes must fail here first.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

from mott_ti import (
    HardSphereParams,
    MottParams,
    Polarization,
    Spin,
    angle_grid,
    build_curve,
    curvature_at_90,
    find_critical_kR,
    plateau,
    sensitivity_sweep,
)
from mott_ti import hardsphere
from mott_ti.species import exchange_weight
from reference import evaluated_points

BENCH = Path(__file__).resolve().parent.parent / "bench"
_PREFIX = {0: "", 2: "spin1-", 4: "spin2-", 6: "spin3-", 8: "spin4-", 9: "spin9h-"}  # ids by 2s


def _bench_module(name):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _traced():
    return _bench_module("tracing").TRACED


@pytest.mark.parametrize("module,function", _traced())
def test_traced_name_resolves(module, function):
    assert callable(getattr(importlib.import_module(f"mott_ti.{module}"), function))


def test_pinned_call_shapes():
    spin = Spin(0)
    params = MottParams(a=2.0, eta=1.0, spin=spin, polarization=Polarization.UNPOLARIZED)
    assert curvature_at_90(params, spin.statistics) == pytest.approx(128.0, rel=1e-12)

    hs = HardSphereParams(kR=1.5, spin=spin, statistics=spin.statistics,
                          polarization=Polarization.ALIGNED)
    assert len(build_curve(hs, angle_grid()).values) == 357

    root = find_critical_kR(spin, spin.statistics, (0.2, 3.0), 0.05,
                            polarization=Polarization.UNPOLARIZED)
    assert root is not None and 1.0 <= root <= 2.0

    assert sensitivity_sweep(spin, 0.05).classifications == ("min", "flat", "max")

    curve = build_curve(params, angle_grid(1.0, 179.0, 0.5))
    assert plateau(curve, 0.05).curvature_90 == pytest.approx(128.0, rel=1e-6)


@pytest.mark.parametrize("twice_s,lo,hi,step,evaluated", [
    pytest.param(twice_s, lo, hi, step, evaluated,
                 id=f"{_PREFIX[twice_s]}{lo}-{hi}-{step}")
    for twice_s, lo, hi, step, evaluated in [
        # spin 0 changes sign at 1.44677: (0.23, 1.45) stops at 1.43 and misses
        # it, (0.2, 1.43) moves its last point onto hi; all three lie at or
        # below its certified bound 1.44, and (1.3, 1.446) crosses it
        (0, 0.2, 1.4, 0.05, 0), (0, 0.23, 1.45, 0.05, 0), (0, 0.2, 1.43, 0.05, 0),
        (0, 1.3, 1.446, 0.003, 4),
        # spin 1 unpolarized changes sign at 1.88402, past its bound 1.88
        (2, 1.7, 1.883, 0.002, 3),
        # spin 2, 3 and 4 unpolarized change sign at 1.99969, 2.05610 and
        # 2.09002, past their bounds 1.99, 2.05 and 2.08
        (4, 1.9, 1.999, 0.002, 5), (6, 1.98, 2.055, 0.002, 4), (8, 2.0, 2.089, 0.002, 6),
        # spin 9/2 unpolarized changes sign at 2.46965, so its scans end short
        # of it; all but (2.40, 2.469) lie at or below its bound 2.46
        (9, 0.2, 2.42, 0.05, 0), (9, 0.23, 1.45, 0.05, 0), (9, 1.1, 2.4, 0.013, 0),
        (9, 2.0, 2.46, 0.01, 0), (9, 2.40, 2.469, 0.002, 6),
    ]
])
def test_scan_visits_the_oracle_grid(monkeypatch, twice_s, lo, hi, step, evaluated):
    # bench/oracle.py scan_grid copies the grid of a scan with no root; the
    # critical-scan check compares roots against brackets on that grid.  The
    # scan walks that grid and evaluates it from its last point at or below
    # the certified bound on, none when the whole grid lies at or below it
    visited = []
    curvature = hardsphere._curvature_at_90
    monkeypatch.setattr(hardsphere, "_curvature_at_90",
                        lambda kR, eps_w: visited.append(kR) or curvature(kR, eps_w))
    spin = Spin(twice_s)
    assert find_critical_kR(spin, spin.statistics, (lo, hi), step) is None
    grid = _bench_module("oracle").scan_grid(lo, hi, step)
    assert visited == evaluated_points(grid, exchange_weight(spin, Polarization.UNPOLARIZED))
    assert len(visited) == evaluated and visited == grid[len(grid) - evaluated:]


@pytest.mark.parametrize("twice_s", [1, 3, 5, 7, 9])
@pytest.mark.parametrize("lo,hi,points", [(0.2, 1.7, 20), (0.8, 3.8, 70), (1.4, 5.9, 120)])
def test_oracle_finds_no_aligned_fermion_bracket(twice_s, lo, hi, points):
    # the critical-scan check passes the None a skipped scan returns (aligned
    # fermions, and unpolarized ones with 2s <= 7) only while the reference
    # curvature has no sign change on its grid
    step = (hi - lo) / points  # CriticalScan's shape: lo in [0.2, 1.4], hi - lo in [1.5, 4.5]
    oracle = _bench_module("oracle")
    spin = Spin(twice_s)
    for polarization in Polarization if twice_s <= 7 else [Polarization.ALIGNED]:
        aligned = polarization is Polarization.ALIGNED
        assert oracle.first_root_bracket(lo, hi, step, twice_s, aligned=aligned) is None
        assert find_critical_kR(spin, spin.statistics, (lo, hi), step,
                                polarization=polarization) is None
