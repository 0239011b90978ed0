"""Spans around the calls into each mott_ti module, recorded from outside.

The tracer wraps module-level functions and replaces every reference to
them in the loaded ``mott_ti`` modules, so a call is traced wherever the
caller looks the name up (``mott_ti.hardsphere.legendre_p_table``,
``mott_ti.cli.plateau_op``, ...).  No file of the package is changed.

Spans are kept in memory as (name, start_ns, end_ns, parent, op) and
written out once, after the run.  Self time is a span's duration minus the
time its direct children cover.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict

# (module, function) pairs wrapped in a traced run; the span name is
# "<module>.<function>".
TRACED = [
    ("special", "legendre_p_table"),
    ("special", "spherical_bessel_j_table"),
    ("special", "spherical_bessel_y_table"),
    ("hardsphere", "hard_sphere_phase_shifts"),
    ("hardsphere", "hs_amplitude"),
    ("hardsphere", "hs_identical_cross_section"),
    ("hardsphere", "hs_curvature_at_90"),
    ("hardsphere", "find_critical_kR"),
    ("numerics", "second_derivative"),
    ("numerics", "bisect_root"),
    ("coulomb", "identical_cross_section"),
    ("coulomb", "curvature_at_90"),
    ("coulomb", "curvature_at_90_fd"),
    ("coulomb", "critical_eta_numeric"),
    ("analysis", "build_curve"),
    ("analysis", "plateau"),
    ("analysis", "sensitivity_sweep"),
    ("analysis", "table_one"),
    ("species", "builtin_catalog"),
    ("species", "load_species_catalog"),
    ("kinematics", "sommerfeld_eta"),
    ("kinematics", "energy_from_eta"),
    ("kinematics", "half_closest_approach"),
    ("kinematics", "wavenumber"),
    ("kinematics", "critical_energy"),
]


class Tracer:
    """Installs wrappers, records spans, derives the per-layer metrics."""

    def __init__(self) -> None:
        self.spans: list = []
        self._stack: list[int] = []
        self.op = -1
        self.points = 0
        self.render_bytes = 0
        self.bisect_evals = 0
        self._shift_keys: set = set()
        self._keys_op = -1
        self.shift_new = 0
        self.shift_seen = 0
        self.partial_waves = 0
        self._undo: list = []

    # -- recording -------------------------------------------------------

    def _wrap(self, name, fn, before=None, after=None):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            if before is not None:
                args, kwargs = before(args, kwargs)
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent, self.op)
            if after is not None:
                after(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def span(self, name, fn, *args):
        """Call fn(*args) inside a span of its own (used for whole ops)."""
        return self._wrap(name, fn)(*args)

    # -- per-call accounting hooks --------------------------------------

    def _count_evals(self, args, kwargs):
        f = args[0]

        def counted(x):
            self.bisect_evals += 1
            return f(x)

        return (counted,) + tuple(args[1:]), kwargs

    def _count_points(self, args, kwargs, result):
        self.points += len(result.thetas)

    def _count_bytes(self, args, kwargs, result):
        self.render_bytes += len(result.encode())

    def _count_shifts(self, args, kwargs, result):
        kR = args[0] if args else kwargs["kR"]
        l_max = args[1] if len(args) > 1 else kwargs.get("l_max")
        tol = args[2] if len(args) > 2 else kwargs.get("tol", "default")
        key = (kR, l_max, tol)
        if self.op != self._keys_op:  # the run empties the cache before every op
            self._shift_keys.clear()
            self._keys_op = self.op
        if key in self._shift_keys:
            self.shift_seen += 1
        else:
            self._shift_keys.add(key)
            self.shift_new += 1
            self.partial_waves += result.l_max + 1

    # -- install / remove ------------------------------------------------

    def install(self) -> None:
        modules = [m for n, m in sys.modules.items()
                   if m is not None and (n == "mott_ti" or n.startswith("mott_ti."))]
        hooks = {
            "numerics.bisect_root": (self._count_evals, None),
            "analysis.build_curve": (None, self._count_points),
            "hardsphere.hard_sphere_phase_shifts": (None, self._count_shifts),
        }
        for mod_name, fn_name in TRACED:
            name = f"{mod_name}.{fn_name}"
            fn = getattr(sys.modules[f"mott_ti.{mod_name}"], fn_name)
            wrapper = self._wrap(name, fn, *hooks.get(name, (None, None)))
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is fn:
                        self._undo.append((mod, attr, fn))
                        setattr(mod, attr, wrapper)
        envelope = sys.modules["mott_ti.output"].OutputEnvelope
        render = envelope.render
        self._undo.append((envelope, "render", render))
        envelope.render = self._wrap("output.render", render, None, self._count_bytes)

    def remove(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    # -- derived metrics -------------------------------------------------

    def self_times(self):
        """Per span name: (count, total self time in ns)."""
        child_ns = [0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        count: dict[str, int] = defaultdict(int)
        self_ns: dict[str, int] = defaultdict(int)
        for i, (name, start, end, _, _) in enumerate(self.spans):
            count[name] += 1
            self_ns[name] += end - start - child_ns[i]
        return count, self_ns

    def closed_curvature_calls(self) -> int:
        """curvature_at_90 calls that did not fall back to finite differences."""
        fd_parents = {s[3] for s in self.spans if s[0] == "coulomb.curvature_at_90_fd"}
        return sum(1 for i, s in enumerate(self.spans)
                   if s[0] == "coulomb.curvature_at_90" and i not in fd_parents)

    def layer_metrics(self, n_ops: int) -> dict[str, float]:
        """Counts are totals over the traced ops; times are ms per op."""
        count, self_ns = self.self_times()

        def ms(*names):
            return sum(self_ns[n] for n in names) / 1e6 / n_ops

        shift_calls = self.shift_new + self.shift_seen
        return {
            "special.legendre_tables": count["special.legendre_p_table"],
            "special.legendre_self_ms": ms("special.legendre_p_table"),
            "special.bessel_tables": count["special.spherical_bessel_j_table"]
            + count["special.spherical_bessel_y_table"],
            "special.bessel_self_ms": ms("special.spherical_bessel_j_table",
                                         "special.spherical_bessel_y_table"),
            "hardsphere.phase_shift_calls": shift_calls,
            "hardsphere.phase_shift_reuse": self.shift_seen / shift_calls if shift_calls else 0.0,
            "hardsphere.partial_waves_mean": (self.partial_waves / self.shift_new
                                              if self.shift_new else 0.0),
            "hardsphere.amplitude_calls": count["hardsphere.hs_amplitude"],
            "hardsphere.amplitude_self_ms": ms("hardsphere.hs_amplitude"),
            "hardsphere.xs_self_ms": ms("hardsphere.hs_identical_cross_section"),
            "hardsphere.curvature_calls": count["hardsphere.hs_curvature_at_90"],
            "hardsphere.curvature_self_ms": ms("hardsphere.hs_curvature_at_90"),
            "numerics.stencil_calls": count["numerics.second_derivative"],
            "numerics.bisect_calls": count["numerics.bisect_root"],
            "numerics.bisect_evals": self.bisect_evals,
            "numerics.self_ms": ms("numerics.second_derivative", "numerics.bisect_root"),
            "coulomb.xs_calls": count["coulomb.identical_cross_section"],
            "coulomb.xs_self_ms": ms("coulomb.identical_cross_section"),
            "coulomb.curvature_closed_calls": self.closed_curvature_calls(),
            "coulomb.curvature_fd_calls": count["coulomb.curvature_at_90_fd"],
            "analysis.points": self.points,
            "analysis.build_curve_self_ms": ms("analysis.build_curve"),
            "analysis.plateau_self_ms": ms("analysis.plateau"),
            "analysis.sweep_calls": count["analysis.sensitivity_sweep"],
            "output.render_calls": count["output.render"],
            "output.bytes": self.render_bytes,
            "output.render_self_ms": ms("output.render"),
            "species.catalog_loads": count["species.builtin_catalog"]
            + count["species.load_species_catalog"],
            "kinematics.calls": sum(c for n, c in count.items() if n.startswith("kinematics.")),
        }

    def write(self, path) -> None:
        """Write the spans as tab-separated lines, times relative to the first span."""
        t0 = self.spans[0][1] if self.spans else 0
        with open(path, "w") as out:
            out.write("name\tstart_ns\tend_ns\tparent\top\n")
            for name, start, end, parent, op in self.spans:
                out.write(f"{name}\t{start - t0}\t{end - t0}\t{parent}\t{op}\n")
