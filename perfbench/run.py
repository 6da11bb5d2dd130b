"""Benchmark command for ballmax.

Run from the root of a checkout:

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 25 --trace 0

Workloads: sweep, pointwise, audit, cli (see perfbench/README.md).  The
program is imported from src/ of the checkout.  Each run is a closed loop
with one client: the next operation starts when the previous one ends, and
its output is checked before the next starts (outside the timed part).
Times are CPU times, scaled by a host-speed kernel timed between operations
(hostspeed.py); the README explains why.

--trace 0 prints the end-to-end metrics; --trace 1 runs the same operations
again with spans recorded and prints the per-layer metrics.  Human-readable
lines come first; the last line of standard output is one JSON object.  The
exit code is 0 when every output check passed, 1 when one failed, and 2 when
the benchmark could not run.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

# One BLAS thread, for this process and every child, so each operation runs
# on one thread and its CPU time is its cost.  Set before numpy is imported.
os.environ["OPENBLAS_NUM_THREADS"] = "1"

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(HERE, "out")
REFERENCE = os.path.join(HERE, "reference.json")
WORKLOADS = ("sweep", "pointwise", "audit", "cli")
SETUP_REPEATS = 5
IMPORT_REPEATS = 3
# The host-speed kernel runs whenever this much operation time has passed
# since it last ran, so about one part in fifteen of a run goes to it.
CALIBRATE_EVERY_S = 0.15
SETUP_CALIBRATIONS = 3


def parse_args(argv):
    p = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


# ---------------------------------------------------------------------------
# Set-up
# ---------------------------------------------------------------------------

def import_program():
    """Import ballmax from this checkout's src/ and nowhere else."""
    sys.path.insert(0, SRC)
    import ballmax

    if os.path.dirname(os.path.dirname(os.path.abspath(ballmax.__file__))) != SRC:
        raise ImportError(f"ballmax was imported from {ballmax.__file__}, not from {SRC}")
    sys.path.insert(0, HERE)
    import workloads

    return workloads


def set_up(workload: str, seed: int, workdir: str):
    """Everything before the timed loop: import, reference, inputs."""
    workloads = import_program()
    with open(REFERENCE, encoding="utf-8") as fh:
        reference = json.load(fh)
    ops = workloads.build(workload, seed, workdir, SRC)
    return workloads, reference, ops


def cpu_seconds() -> float:
    """CPU time, user and system, of this process and of its children that
    have ended.  Time the host gives to other work is not in it."""
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


def setup_probe(args) -> int:
    """Child process: time one cold set-up and print its CPU seconds."""
    t0 = time.process_time()
    os.makedirs(OUT_DIR, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="setup-", dir=OUT_DIR)
    try:
        set_up(args.workload, args.seed, workdir)
        print(repr(time.process_time() - t0))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 0


def setup_seconds(args, calibration) -> list[float]:
    """Cold set-up CPU times, each in a fresh interpreter, with host-speed
    kernel timings taken before each."""
    out = []
    for i in range(SETUP_REPEATS):
        for _ in range(SETUP_CALIBRATIONS):
            calibration.measure(i)
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--setup-probe", "--workload", args.workload,
             "--seed", str(args.seed), "--seconds", "0"],
            capture_output=True, text=True, timeout=120, check=True,
        )
        out.append(float(proc.stdout.strip().splitlines()[-1]))
    return out


# ---------------------------------------------------------------------------
# Environment record
# ---------------------------------------------------------------------------

def _read(path: str) -> str:
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read().strip()
    except OSError:
        return ""


def _blas_threads():
    """Thread count reported by the OpenBLAS library loaded in this process."""
    import ctypes

    paths = {line.split()[-1] for line in _read("/proc/self/maps").splitlines()}
    for path in sorted(p for p in paths if "openblas" in p.lower() and ".so" in p):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return {"library": os.path.basename(path), "threads": fn()}
    return None


def environment() -> dict:
    import platform

    import numpy
    import scipy

    cpu = ""
    for line in _read("/proc/cpuinfo").splitlines():
        if line.startswith("model name"):
            cpu = line.split(":", 1)[1].strip()
            break
    caches = {}
    base = "/sys/devices/system/cpu/cpu0/cache"
    for entry in sorted(os.listdir(base)) if os.path.isdir(base) else []:
        level = _read(f"{base}/{entry}/level")
        kind = _read(f"{base}/{entry}/type")
        if level:
            caches[f"L{level} {kind}"] = _read(f"{base}/{entry}/size")
    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "caches": caches,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "thread_env": {k: v for k, v in os.environ.items() if k.endswith("_NUM_THREADS")},
    }


# ---------------------------------------------------------------------------
# Timed loop
# ---------------------------------------------------------------------------

class Run:
    """Latencies and failures of the operations run so far.  A latency is
    the CPU time of the operation, in this process and in the subprocesses
    it ran; the wall-clock time is kept beside it."""

    def __init__(self):
        import hostspeed  # here, not at the top: a set-up probe imports numpy and scipy in its timed part

        self.latencies: list[float] = []
        self.wall: list[float] = []
        self.last_wall = 0.0
        self.calibration = hostspeed.Calibration()
        self.failures: list[tuple[str, str]] = []
        self.attempted = 0
        # audit checks: program verdicts per check name, [passed, failed]
        self.verdicts: dict[str, list[int]] = {}

    def execute(self, op, tracer=None, group="", span_name=""):
        span = tracer.begin_op(group, op.kind, span_name) if tracer else None
        w0, c0 = time.perf_counter(), cpu_seconds()
        try:
            out, err = op.run(), None
        except Exception as exc:  # an operation that raises counts as failed
            out, err = None, f"{type(exc).__name__}: {exc}"
        elapsed = cpu_seconds() - c0
        self.last_wall = time.perf_counter() - w0
        if span is not None:
            tracer.end_op(span)
        if err is None:
            try:
                err = op.check(out)
            except Exception as exc:
                err = f"check raised {type(exc).__name__}: {exc}"
        if tracer is not None and op.count_warnings is not None and out is not None:
            tracer.analysis_warnings[group] = tracer.analysis_warnings.get(group, 0) + op.count_warnings(out)
        self.attempted += 1
        if err is not None:
            self.failures.append((op.kind, err))
        if hasattr(out, "passed"):
            self.verdicts.setdefault(op.kind, [0, 0])[not out.passed] += 1
        return elapsed

    def mc_alarms(self) -> int:
        """mc-geometry reports the program failed but the benchmark accepted."""
        failed_checks = sum(1 for kind, _ in self.failures if kind == "mc-geometry")
        return self.verdicts.get("mc-geometry", [0, 0])[1] - failed_checks

    def print_verdicts(self):
        if self.verdicts:
            print("audit verdicts (program's own, failed/run): " + ", ".join(
                f"{k} {v[1]}/{sum(v)}" for k, v in sorted(self.verdicts.items())))
            print(f"mc-geometry failures the benchmark accepts (inside the z=6 Wilson interval): {self.mc_alarms()}")

    def loop(self, ops, seconds: float) -> list:
        """Run ops in order, cycling, until seconds have passed; return the
        operations run, in order."""
        done = []
        start = time.perf_counter()
        i = 0
        since = CALIBRATE_EVERY_S
        while time.perf_counter() - start < seconds:
            if since >= CALIBRATE_EVERY_S:
                self.calibration.measure(len(self.latencies))
                since = 0.0
            op = ops[i % len(ops)]
            i += 1
            self.latencies.append(self.execute(op))
            self.wall.append(self.last_wall)
            since += self.latencies[-1]
            done.append(op)
        self.calibration.measure(len(self.latencies))
        return done


def metric_line(name, value, unit, note=""):
    print(f"{name:<34} {value:>14.6g} {unit:<9} {note}")


def end_to_end(args, workloads, reference, ops) -> tuple[dict, Run]:
    run = Run()
    run.execute(ops[0])  # warm-up: lazy imports and first-call costs; not timed
    run.loop(ops, args.seconds)
    # read before the set-up probes below add children of their own
    children_rss = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
    kind = workloads.panel_kind(args.workload)
    run.attempted += 1
    try:
        short, compared = workloads.shortfall(kind, reference)
    except Exception as exc:  # a dropped panel cell, or a stale reference
        run.failures.append(("panel", f"{type(exc).__name__}: {exc}"))
        short, compared = math.nan, 0
    import hostspeed

    setup_cal = hostspeed.Calibration()
    setups = setup_seconds(args, setup_cal)
    if args.workload == "cli":
        rss, rss_note = children_rss, "largest CLI subprocess"
    else:
        rss, rss_note = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "this process"

    cpu_ms = [x * 1e3 for x in run.latencies]
    wall_ms = [x * 1e3 for x in run.wall]
    lat_ms = run.calibration.scale(cpu_ms)
    setup_factor = setup_cal.overall_factor()
    n = len(lat_ms)
    busy = sum(lat_ms) / 1e3
    kernel_ms = [x * 1e3 for x in run.calibration.times]
    print(f"host speed: {len(kernel_ms)} kernel timings, median {statistics.median(kernel_ms):.3f} ms CPU, "
          f"range {min(kernel_ms):.3f} to {max(kernel_ms):.3f} ms")
    for label, xs, total in (("CPU time", cpu_ms, sum(run.latencies)), ("wall clock", wall_ms, sum(run.wall))):
        print(f"unscaled {label}: {n / total:.4g} ops/s, p50 {statistics.median(xs):.4g} ms, "
              f"p90 {statistics.quantiles(xs, n=10, method='inclusive')[8]:.4g} ms")
    values = {
        "setup_s": (statistics.median(setups) / setup_factor, "s",
                    f"median of {len(setups)} cold set-ups, scaled by {1 / setup_factor:.3f}; CPU s: "
                    + " ".join(f"{x:.3f}" for x in setups)),
        "ops_per_s": (n / busy, "1/s", f"{n} operations in {busy:.2f} scaled CPU s"),
        "op_ms_p50": (statistics.median(lat_ms), "ms", f"n={n}"),
        "op_ms_p90": (statistics.quantiles(lat_ms, n=10, method="inclusive")[8], "ms",
                      f"n={n}, {n - math.ceil(0.9 * n)} samples above"),
        "shortfall_max": (max(short, workloads.SHORTFALL_FLOOR), "rel",
                          f"raw {short:.3g} over {compared} {kind} panel values, floor "
                          f"{workloads.SHORTFALL_FLOOR:g}"),
        "ok_frac": (1.0 - len(run.failures) / max(run.attempted, 1), "frac",
                    f"{run.attempted - len(run.failures)} of {run.attempted} outputs correct"),
        "peak_rss_mb": (rss, "MiB", rss_note),
    }
    for name, (value, unit, note) in values.items():
        metric_line(name, value, unit, note)
    return {k: {"value": v, "unit": u} for k, (v, u, _) in values.items()}, run


# ---------------------------------------------------------------------------
# Traced run
# ---------------------------------------------------------------------------

PER_LAYER_UNITS = {
    "geometry.lens_calls": "count/op",
    "geometry.lens_evals": "count/op",
    "geometry.lens_evals_per_call": "count",
    "geometry.lens_ns_per_eval": "ns",
    "geometry.cap_evals": "count/op",
    "geometry.cap_ns_per_eval": "ns",
    "geometry.scalar_calls": "count/op",
    "geometry.scalar_us_per_call": "us",
    "maximal.calls": "count/op",
    "maximal.radii": "count/op",
    "maximal.us_per_radius": "us",
    "maximal.self_us_per_radius": "us",
    "maximal.lens_evals_per_radius": "count",
    "maximal.unconverged": "count",
    "analysis.radii_per_cell": "count",
    "analysis.scan_radii_per_cell": "count",
    "analysis.bisect_radii_per_cell": "count",
    "analysis.scan_ms_per_cell": "ms",
    "analysis.bisect_ms_per_cell": "ms",
    "analysis.self_ms_per_cell": "ms",
    "analysis.ms_per_threshold": "ms",
    "analysis.lens_evals_per_cell": "count",
    "analysis.warnings": "count",
    "profiles.gen_ms": "ms",
    **{f"verify.{c}.ms": "ms" for c in ("mc-geometry", "homothety", "shrink-overlap", "lens-enclosure",
                                         "centered-shell", "bands", "domination")},
    "verify.mc_samples_per_s": "1/s",
    "verify.self_ms": "ms",
    "verify.mc_alarms": "count",
    "cli.import_ms": "ms",
    "cli.eval_ms": "ms",
    "cli.scan_ms": "ms",
    "cli.constant_ms": "ms",
    "cli.verify_ms": "ms",
    "cli.inproc_ms": "ms",
    "trace.overhead_frac": "frac",
}


def span_name(workload: str, op) -> str:
    return f"cli.{op.kind}" if workload == "cli" else f"op.{workload}"


def probe_ops(workloads, workload: str, seed: int, workdir: str):
    """One round of every other workload, plus the CLI import, in-process
    and subprocess probes, as (span name, op) pairs."""
    out = []
    if workload != "sweep":
        out += [("op.sweep", op) for op in workloads.sweep_round(seed, 0)]
    if workload != "pointwise":
        out += [("op.pointwise", op) for op in workloads.pointwise_round(seed, 0)]
    if workload != "audit":
        out += [("op.audit", op) for op in workloads.audit_round(seed, 0)]
    out += [("cli.import", op) for op in workloads.cli_import_ops(SRC, IMPORT_REPEATS)]
    commands = workloads.cli_ops(seed, workdir, SRC)[: len(workloads.CLI_COMMANDS)]
    out += [("cli.inproc", op) for op in workloads.cli_inproc_ops(seed, workdir)]
    out += [(f"cli.{op.kind}", op) for op in commands]
    return out


def traced(args, workloads, ops, workdir) -> tuple[dict, Run]:
    import tracing

    tracer = tracing.Tracer()
    run = Run()
    run.execute(ops[0])  # warm-up
    half = args.seconds / 2.0
    done = run.loop(ops, half)
    untraced = sum(run.latencies)
    tracer.install()
    try:
        traced_s = sum(run.execute(op, tracer, args.workload, span_name(args.workload, op)) for op in done)
        for name, op in probe_ops(workloads, args.workload, args.seed, workdir):
            run.execute(op, tracer, "probe", name)
    finally:
        tracer.restore()
    # profile generation is timed on a set-up of its own, with the tracer on
    tracer.install()
    try:
        workloads.build(args.workload, args.seed, workdir, SRC)
    finally:
        tracer.restore()

    metrics, source = tracing.layer_metrics(tracer, args.workload)
    metrics["trace.overhead_frac"] = traced_s / untraced - 1.0
    metrics["verify.mc_alarms"] = run.mc_alarms()
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, f"trace-{args.workload}-seed{args.seed}.json")
    tracer.dump(path, {"workload": args.workload, "seed": args.seed, "layer_source": source,
                       "metrics": metrics})
    print(f"spans: {len(tracer.spans)} written to {os.path.relpath(path, ROOT)}; "
          f"{len(done)} operations replayed traced; layer sources {json.dumps(source)}")
    for name, unit in PER_LAYER_UNITS.items():
        metric_line(name, metrics[name], unit)
    return {k: {"value": metrics[k], "unit": u} for k, u in PER_LAYER_UNITS.items()}, run


# ---------------------------------------------------------------------------

def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "ballmax", "__init__.py")):
        print(f"perfbench: no ballmax package under {SRC}", file=sys.stderr)
        return 2
    if args.seconds <= 0 and not args.setup_probe:
        print("perfbench: --seconds must be positive", file=sys.stderr)
        return 2
    if args.setup_probe:
        return setup_probe(args)
    os.makedirs(OUT_DIR, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT_DIR)
    try:
        workloads, reference, ops = set_up(args.workload, args.seed, workdir)
        print(f"perfbench workload={args.workload} seed={args.seed} seconds={args.seconds:g} "
              f"trace={args.trace}")
        print("environment: " + json.dumps(environment()))
        if args.trace:
            metrics, run = traced(args, workloads, ops, workdir)
        else:
            metrics, run = end_to_end(args, workloads, reference, ops)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    run.print_verdicts()
    for kind, err in run.failures[:20]:
        print(f"FAILED {kind}: {err}")
    result = {
        "correct": not run.failures,
        "attempted": run.attempted,
        "failed": len(run.failures),
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0 if not run.failures else 1


if __name__ == "__main__":
    sys.exit(main())
