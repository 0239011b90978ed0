"""mott-ti benchmark: seeded workloads, end-to-end and per-layer metrics.

Run from the root of a source checkout (the package need not be installed):

    python3 bench/run.py --workload coulomb-curves --seed 1 --seconds 10 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 10

One closed-loop caller: each op starts after the previous one returned; no
threads, at most one subprocess at a time.  With --trace 0 the run cycles
through the workload's input set for --seconds and prints the end-to-end
metrics; with --trace 1 it alternates untraced and traced passes over a
fixed part of the inputs and prints the per-layer metrics.  Outputs are checked against the
independent oracle after the timed region; the last stdout line is one
JSON object.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import compileall
import gc
import hashlib
import importlib
import json
import math
import os
import random
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from types import SimpleNamespace

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path[:0] = [str(BENCH_DIR), str(ROOT / "src")]

from tracing import Tracer  # noqa: E402
from workloads import WORKLOADS, OpError  # noqa: E402

MODULES = ("special", "hardsphere", "numerics", "coulomb", "analysis", "output",
           "species", "constants", "errors", "kinematics")
SETUP_REPS = 24
CALIB_REPS = 5
SUBPROCESS_REPS = 5
TAIL_BEYOND = 10
OUT_DIR = ROOT / ".bench_out"


def float_loop() -> None:
    acc = 0.0
    out = []
    for i in range(1000):
        x = i * 1e-3
        acc += math.cos(x) * x + (i % 7)
        out.append(acc)


def alloc_loop() -> None:
    acc = 0.0
    items = {}
    for i in range(700):
        x = i * 1e-3
        acc += math.cos(x) * x + (i % 7)
        items[i] = (x, acc, str(i))
    ",".join(v[2] for v in items.values())


# Calibration loop and about its fastest time (ns) seen on the 2-vCPU VM the
# benchmark was written on; timings are reported at that host speed.  A
# workload's CALIBRATION names the loop whose slow-downs follow its ops'
# best: float arithmetic for the hard-sphere kernels, small objects and
# strings as well for Mott curves with their rendering and for the CLI.
CALIBRATIONS = {"float": (float_loop, 140_000), "alloc": (alloc_loop, 180_000)}


def calibrate(kind: str) -> int:
    """ns of the faster of two runs of a fixed pure-Python loop: the host's speed now.

    The shared host slows down by up to 2.7x, on both vCPUs at once, in
    phases of seconds to minutes.  A timing taken between two calibrations
    is scaled by the loop's reference time over their mean, which takes out
    the phase it fell in (see bench/README.md, Noise and bounds).
    """
    loop = CALIBRATIONS[kind][0]
    best = None
    for _ in range(2):
        t0 = time.perf_counter_ns()
        loop()
        ns = time.perf_counter_ns() - t0
        best = ns if best is None else min(best, ns)
    return best


def at_reference_speed(ns, kind, cal_before, cal_after) -> float:
    return ns * 2.0 * CALIBRATIONS[kind][1] / (cal_before + cal_after)


def host_calib_ms(kind: str) -> float:
    """Median calibrate() time in ms; shows a slow phase of the host."""
    return statistics.median(calibrate(kind) for _ in range(CALIB_REPS)) / 1e6


def package_modules() -> dict:
    """The loaded mott_ti modules by name."""
    return {n: m for n, m in sys.modules.items()
            if m is not None and (n == "mott_ti" or n.startswith("mott_ti."))}


def compile_package() -> None:
    """Write the bytecode of src/, as installing the package would.

    Set-ups and CLI children then load .pyc files in every run, whatever
    PYTHONDONTWRITEBYTECODE says and whichever run came first.
    """
    compileall.compile_dir(ROOT / "src", quiet=2)


def load_lib() -> SimpleNamespace:
    """Import mott_ti afresh from the checkout's src/ directory."""
    for name in package_modules():
        del sys.modules[name]
    pkg = importlib.import_module("mott_ti")
    if not Path(pkg.__file__).resolve().is_relative_to(ROOT / "src"):
        raise ImportError(f"mott_ti imported from {pkg.__file__}, not from {ROOT / 'src'}")
    return SimpleNamespace(**{m: importlib.import_module(f"mott_ti.{m}") for m in MODULES})


def timed_setup(wl, seed: int):
    """A fresh import plus input generation; returns (seconds, lib, rounds, digest)."""
    gc.collect()  # garbage of an earlier import is not part of set-up
    t0 = time.perf_counter()
    lib = load_lib()
    rounds = wl.generate(random.Random(seed), wl.ROUNDS)
    seconds = time.perf_counter() - t0
    digest = hashlib.sha256(json.dumps(rounds, sort_keys=True).encode()).hexdigest()
    return seconds, lib, rounds, digest


def repeat_setup(wl, seed: int) -> tuple[float, float]:
    """Time another set-up, then put the run's modules back; (s at reference speed, s)."""
    kept = package_modules()
    try:
        cal = calibrate(wl.CALIBRATION)
        seconds = timed_setup(wl, seed)[0]
        cal_after = calibrate(wl.CALIBRATION)
        return at_reference_speed(seconds, wl.CALIBRATION, cal, cal_after), seconds
    finally:
        for name in package_modules():
            del sys.modules[name]
        sys.modules.update(kept)


def cache_clearers() -> list:
    """cache_clear of every cached function that a loaded mott_ti module holds."""
    found = {}
    for mod in package_modules().values():
        for value in vars(mod).values():
            clear = getattr(value, "cache_clear", None)
            if callable(clear):
                found[id(value)] = clear
    return list(found.values())


def run_ops(call, ctx, ops, tracer=None, calibration=None):
    """Run ops in order; returns (records, latencies in ns, wall times in ns).

    Each op starts with every cache of the package empty, as in a new
    process, so every repetition of an op does the same work.  With a
    `calibration` kind, the host is calibrated before and after every op
    and each latency is its wall time scaled to the reference speed;
    otherwise it is the wall time.
    """
    records, lat, wall = [], [], []
    clock = time.perf_counter_ns
    cal = calibrate(calibration) if calibration else None
    for i, inp in enumerate(ops):
        for clear in ctx.cache_clears:
            clear()
        t0 = clock()
        try:
            if tracer is None:
                rec = call(ctx, inp)
            else:
                tracer.op = i
                rec = tracer.span("op", call, ctx, inp)
        except Exception as exc:  # an op failure is a result, not a crash
            rec = OpError(exc)
        ns = clock() - t0
        wall.append(ns)
        if calibration:
            cal_before, cal = cal, calibrate(calibration)
            ns = at_reference_speed(ns, calibration, cal_before, cal)
        lat.append(ns)
        records.append(rec)
    return records, lat, wall


def run_for(call, ctx, rounds, seconds, between, calibration):
    """Cycle through the rounds, whole rounds at a time, until `seconds` have passed.

    After a round, between() is called whenever another 1/SETUP_REPS of the
    time has passed, so its calls are spread over the run.
    Returns {(round, position): (record of the first run, [(ns at reference
    speed, wall ns) of every run])}.
    """
    runs = {}
    start = time.perf_counter()
    wall = 0.0
    i = 0
    calls = 0
    while wall < seconds:
        if wall >= calls * seconds / SETUP_REPS:
            between()
            calls += 1
        r = i % len(rounds)
        records, lat, wall_ns = run_ops(call, ctx, rounds[r], calibration=calibration)
        for j, rec in enumerate(records):
            first, times = runs.setdefault((r, j), (rec, []))
            # None: another result
            times.append((lat[j], wall_ns[j]) if rec == first else None)
        wall = time.perf_counter() - start
        i += 1
    return runs


def tail(lat_ns):
    """(value ms, percentile, n): the highest percentile with TAIL_BEYOND samples above it."""
    s = sorted(lat_ns)
    n = len(s)
    k = max(0, n - TAIL_BEYOND - 1)
    return s[k] / 1e6, 100.0 * (k + 1) / n, n


def check_all(wl, ctx, ops, records):
    """Oracle verdict per op: list of failure messages (None = passed)."""
    out = []
    for inp, rec in zip(ops, records):
        if isinstance(rec, OpError):
            out.append(rec.text)
        else:
            try:
                out.append(wl.check(ctx, inp, rec))
            except Exception as exc:  # a crash in a check is a failed op
                out.append(f"check raised {type(exc).__name__}: {exc}")
    return out


def peak_rss_mb(who) -> float:
    return resource.getrusage(who).ru_maxrss / 1024.0


def child_env() -> dict[str, str]:
    """Clean environment for child interpreters: no MOTT_TI_CONSTANTS, src/ on the path."""
    return {"PATH": os.environ.get("PATH", "/usr/bin:/bin"), "PYTHONPATH": str(ROOT / "src")}


def make_ctx(lib, seed):
    # the caches are found before any wrapper replaces a cached function
    return SimpleNamespace(lib=lib, seed=seed, root=str(ROOT), child_env=child_env(),
                           runner=None, cache_clears=cache_clearers())


def prepare_inprocess_cli(ctx):
    from click.testing import CliRunner

    ctx.lib.cli = importlib.import_module("mott_ti.cli")
    ctx.cache_clears = cache_clearers()
    try:  # click 8.0 and 8.1 mix stderr into stdout unless told not to
        ctx.runner = CliRunner(mix_stderr=False)
    except TypeError:  # click 8.2 and later keep stdout apart and dropped the argument
        ctx.runner = CliRunner()


def subprocess_ms(code: str) -> float:
    """Median wall time of `python -c code` in the checkout, clean environment."""
    times = []
    for _ in range(SUBPROCESS_REPS):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=child_env(), check=True,
                       stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL, timeout=60)
        times.append((time.perf_counter() - t0) * 1e3)
    return statistics.median(times)


def end_to_end(wl, ctx, rounds, seconds, setup):
    """Run the input set repeatedly for `seconds`; an op's latency is its median run.

    Every timing is scaled to the reference host speed (calibrate()); the
    same figures from unscaled wall times are printed beside them.  Set-up
    (`setup`: s at reference speed, s) is timed SETUP_REPS more times,
    spread over the run, and `setup_s` is the median.
    Every run of every op counts as attempted; a run fails when the oracle
    rejects the op's result or when it gave another result than the op's
    first run.
    """
    setups = [setup]
    gc.collect()
    runs = run_for(wl.run, ctx, rounds, seconds,
                   lambda: setups.append(repeat_setup(wl, ctx.seed)), wl.CALIBRATION)
    rss = peak_rss_mb(resource.RUSAGE_CHILDREN if wl.name == "cli" else resource.RUSAGE_SELF)
    if wl.name == "cli":
        prepare_inprocess_cli(ctx)
    keys = sorted(runs)
    verdicts = check_all(wl, ctx, [rounds[r][j] for r, j in keys], [runs[k][0] for k in keys])
    per_run = []
    for key, verdict in zip(keys, verdicts):
        per_run += [verdict if t is not None else "another result than its first run"
                    for t in runs[key][1]]
    good = [[t for t in runs[k][1] if t is not None] for k in keys]

    def timings(which):
        op_ns = [statistics.median(t[which] for t in ts) for ts in good]
        tail_ms, pct, n = tail(op_ns)
        return {
            "setup_s": (statistics.median(x[which] for x in setups), "s"),
            "ops_per_s": (len(op_ns) / (sum(op_ns) / 1e9), "1/s"),
            "op_p50_ms": (statistics.median(op_ns) / 1e6, "ms"),
            "op_tail_ms": (tail_ms, "ms"),
        }, pct, n

    metrics, pct, n = timings(0)
    metrics["peak_rss_mb"] = (rss, "MB")
    wall = timings(1)[0]
    reps = [len(runs[k][1]) for k in keys]
    notes = [f"{len(per_run)} runs of {len(keys)} distinct ops ({min(reps)} to {max(reps)} "
             f"runs each, {sum(t[1] for ts in good for t in ts) / 1e9:.1f} s wall time)",
             f"op_tail_ms is p{pct:.2f} of n={n} ops ({TAIL_BEYOND} samples beyond it)",
             f"setup_s is the median of {len(setups)} set-ups",
             f"timings at reference speed ({wl.CALIBRATION} calibration loop in "
             f"{CALIBRATIONS[wl.CALIBRATION][1] / 1e6:g} ms); "
             "unscaled wall times: " + ", ".join(f"{k}={v:.6g} {u}" for k, (v, u) in wall.items())]
    return metrics, per_run, notes


def per_layer(wl, ctx, rounds, seconds, calib_ms):
    """Alternate untraced and traced passes over the first TRACE_ROUNDS rounds."""
    ops = [inp for r in rounds[:wl.TRACE_ROUNDS] for inp in r]
    notes = []
    if wl.name == "cli":
        sub_records, sub_lat, _ = run_ops(wl.run, ctx, ops)
        prepare_inprocess_cli(ctx)
        call = wl.run_inprocess
    else:
        call = wl.run
    plain_rates, traced_rates, layer_runs = [], [], []
    first = None
    deadline = time.perf_counter() + seconds
    while not traced_rates or time.perf_counter() < deadline:
        gc.collect()
        records, lat, _ = run_ops(call, ctx, ops)
        plain_rates.append(len(ops) / (sum(lat) / 1e9))
        tracer = Tracer()
        tracer.install()
        gc.collect()
        try:
            traced_records, lat, _ = run_ops(call, ctx, ops, tracer)
        finally:
            tracer.remove()
        if traced_records != records:
            raise RuntimeError("an op gave another result under tracing")
        traced_rates.append(len(ops) / (sum(lat) / 1e9))
        layer_runs.append(tracer.layer_metrics(len(ops)))
        first = first or tracer
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"trace-{wl.name}-seed{ctx.seed}.tsv"
    first.write(path)
    notes.append(f"spans of the first traced pass written to {path.relative_to(ROOT)} "
                 f"({len(first.spans)} spans)")
    metrics = {}
    for key, value in layer_runs[0].items():
        if key.endswith("_ms"):
            metrics[key] = (statistics.median(r[key] for r in layer_runs), "ms/op")
        else:
            if any(r[key] != value for r in layer_runs):
                raise RuntimeError(f"count {key} differs between traced passes")
            metrics[key] = (value, "ratio" if key.endswith("_reuse") else "count")
    if wl.name == "cli":
        verdicts = check_all(wl, ctx, ops, sub_records)
        interp = subprocess_ms("pass")
        imp = subprocess_ms("import mott_ti.cli") - interp
        p50 = statistics.median(sub_lat) / 1e6
        inproc = 1e3 / statistics.median(plain_rates)
        cli = {"cli.interpreter_ms": interp, "cli.import_ms": imp,
               "cli.inprocess_ms": inproc, "cli.startup_share": (interp + imp) / p50}
    else:
        verdicts = check_all(wl, ctx, ops, records)
        cli = dict.fromkeys(("cli.interpreter_ms", "cli.import_ms", "cli.inprocess_ms",
                             "cli.startup_share"), 0.0)
    for key, value in cli.items():
        metrics[key] = (value, "ratio" if key.endswith("share") else "ms")
    metrics["host.calib_ms"] = (calib_ms, "ms")
    metrics["trace.overhead"] = (statistics.median(traced_rates)
                                 / statistics.median(plain_rates) - 1.0, "ratio")
    notes.append(f"{len(ops)} ops per pass, {len(traced_rates)} traced passes")
    return metrics, verdicts, notes


def run_one(args) -> int:
    wl = WORKLOADS[args.workload]
    compile_package()
    calib_ms = host_calib_ms(wl.CALIBRATION)
    cal = calibrate(wl.CALIBRATION)
    try:
        setup_s, lib, rounds, digest = timed_setup(wl, args.seed)
    except ImportError as exc:
        print(f"error: cannot import mott_ti from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    setup = (at_reference_speed(setup_s, wl.CALIBRATION, cal, calibrate(wl.CALIBRATION)),
             setup_s)
    ctx = make_ctx(lib, args.seed)
    if args.trace:
        metrics, verdicts, notes = per_layer(wl, ctx, rounds, args.seconds, calib_ms)
    else:
        metrics, verdicts, notes = end_to_end(wl, ctx, rounds, args.seconds, setup)
    if hasattr(wl, "note"):
        notes.append(wl.note(ctx))
    failed = [v for v in verdicts if v is not None]
    print(f"# workload={wl.name} seed={args.seed} trace={args.trace} "
          f"inputs_sha256={digest} rounds={len(rounds)}")
    print(f"# host.calib_ms={calib_ms:.4f}")
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    print(f"error_rate = {len(failed) / len(verdicts):.6g} ({len(failed)}/{len(verdicts)} ops failed)")
    for note in notes:
        print(f"# {note}")
    print(f"# oracle: {len(verdicts) - len(failed)} passed, {len(failed)} failed")
    for msg in list(dict.fromkeys(failed))[:5]:
        print(f"#   failed: {msg}")
    result = {
        "correct": not failed,
        "attempted": len(verdicts),
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Each workload in its own process, one after another; prints a summary table."""
    rows = []
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=ROOT, stdout=subprocess.PIPE, text=True, check=False)
        sys.stdout.write(proc.stdout)
        if proc.returncode != 0:
            return proc.returncode
        rows.append((name, json.loads(proc.stdout.strip().splitlines()[-1])))
    print()
    for name, res in rows:
        rate = res["failed"] / res["attempted"]
        cells = [f"{k}={m['value']:.4g} {m['unit']}" for k, m in res["metrics"].items()]
        print(f"{name:18s} error_rate={rate:.4g}  " + "  ".join(cells))
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
