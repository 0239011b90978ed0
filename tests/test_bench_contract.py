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

BENCH = Path(__file__).resolve().parent.parent / "bench"


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


@pytest.mark.parametrize("lo,hi,step", [(0.2, 3.0, 0.05), (0.23, 1.45, 0.05), (0.2, 3.02, 0.05)])
def test_scan_visits_the_oracle_grid(monkeypatch, lo, hi, step):
    # bench/oracle.py scan_grid copies the points a scan with no root visits;
    # the critical-scan check compares roots against brackets on that grid
    visited = []
    curvature = hardsphere._curvature_at_90
    monkeypatch.setattr(hardsphere, "_curvature_at_90",
                        lambda kR, eps_w: visited.append(kR) or curvature(kR, eps_w))
    spin = Spin(1)
    assert find_critical_kR(spin, spin.statistics, (lo, hi), step) is None
    assert visited == _bench_module("oracle").scan_grid(lo, hi, step)
