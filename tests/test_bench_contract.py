"""The library surface that the benchmark in bench/ reaches into.

bench/tracing.py wraps the (module, function) pairs in TRACED by name, and
bench/workloads.py calls a few functions with fixed argument shapes.  Files
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

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def _traced():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TRACED


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
