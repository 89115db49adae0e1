"""Benchmark of segsim: one workload per call, checked, one JSON line out.

    python3 perfbench/run.py --workload flagship --seed 1 --seconds 25 --trace 0

Run from the root of a checkout; segsim is imported from ``src/``.  The
workload sets up three times (``setup_s`` is the import time plus the
median set-up), then repeats its timed body in whole rounds until
``--seconds`` have passed, then checks the first round's outputs apart from
the program and requires every later round to reproduce them byte for
byte.  With ``--trace 0`` the last line of standard output carries the
end-to-end metrics; with ``--trace 1`` one untraced round comes first and
the traced rounds give the per-layer metrics and the tracing overhead.
The full record (machine, engine, per-round figures, problems) goes to
``perfbench/results/``, the spans of a traced run next to it.
"""

from __future__ import annotations

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import importlib.util  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"

# The per-layer metrics, in the order BENCHMARK.json lists them.
LAYER_TIMES = [
    "grid.new_random", "dynamics.run_to_termination", "regions.compute_region_summary",
    "regions.almost_mono_radius_map", "regions.center_radius_map", "regions.mono_region_of",
    "unionfind.label_grid_components", "experiments.run_sweep", "snapshot.snapshot_read",
    "structures.renormalize", "structures.find_chemical_path", "structures.bad_cluster_radii",
    "structures.is_expandable", "percolation.chemical_distance", "percolation.cluster_radii",
    "percolation.fpp_time_to_distance",
]
LAYER_COUNTS = ["dynamics.flips", "experiments.runs", "structures.cascade_flips"]


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def cpu_seconds() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def peak_rss_mb() -> float:
    """Peak RSS of this process plus that of its largest finished child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + kids) / 1024.0


def environment() -> dict:
    import numpy
    import scipy
    from segsim import _kernels

    compiled = _kernels.numba_available() and _kernels.run_chunk is not None
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "kernels_numba_available": _kernels.numba_available(),
        "kernels_run_chunk_present": _kernels.run_chunk is not None,
        "engine_selected": "numba" if compiled else "python",
    }


class ExecutorCounter:
    """Counts calls to each flip-chunk executor while installed."""

    def __init__(self):
        from segsim import _kernels, dynamics

        self.targets = [("python", dynamics, "_run_chunk_py")]
        if _kernels.run_chunk is not None:
            self.targets.append(("numba", _kernels, "run_chunk"))
        self.calls = {label: 0 for label, _, _ in self.targets}

    def __enter__(self):
        self.saved = []
        for label, mod, attr in self.targets:
            original = getattr(mod, attr)
            self.saved.append((mod, attr, original))

            def counted(*a, _f=original, _label=label, **k):
                self.calls[_label] += 1
                return _f(*a, **k)

            setattr(mod, attr, counted)
        return self

    def __exit__(self, *exc):
        for mod, attr, original in self.saved:
            setattr(mod, attr, original)

    def used(self):
        ran = [label for label, n in self.calls.items() if n]
        return ",".join(ran) if ran else "none"


def timed_round(wl, tracer=None):
    c0, t0 = cpu_seconds(), time.perf_counter()
    if tracer is None:
        raw = wl.body()
    else:
        with tracer.installed(), tracer.span("bench.round"):
            raw = wl.body()
    wall, cpu = time.perf_counter() - t0, cpu_seconds() - c0
    return wall, cpu, wl.collect(raw)


def run(args) -> int:
    try:
        sys.path.insert(0, str(ROOT / "src"))
        import segsim
        import tracing
        import workloads
    except ImportError as exc:
        print(f"cannot import the program or the benchmark: {exc}", file=sys.stderr)
        return 2
    if not Path(segsim.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"segsim was imported from {segsim.__file__}, not from this checkout", file=sys.stderr)
        return 2
    import_s = time.perf_counter() - T_START
    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}",
              file=sys.stderr)
        return 2

    wl = workloads.WORKLOADS[args.workload]()
    setups = []
    try:
        with ExecutorCounter() as executors:
            for _ in range(3):
                t0 = time.perf_counter()
                wl.setup(args.seed, RESULTS)
                setups.append(time.perf_counter() - t0)

        tracer = tracing.Tracer() if args.trace else None
        walls, cpus, traced_walls = [], [], []
        failed_rounds, errors = 0, []
        first = digest = None
        mismatched = 0
        replay_problems = []
        start = time.perf_counter()
        reference = args.trace == 1
        while True:
            was_reference = reference
            use = None if reference else tracer
            try:
                wall, cpu, out = timed_round(wl, use)
            except Exception:  # a failing program call fails its round
                failed_rounds += 1
                errors.append(traceback.format_exc())
            else:
                if use is None:
                    walls.append(wall)
                    cpus.append(cpu)
                else:
                    traced_walls.append(wall)
                    if hasattr(wl, "replay_all"):
                        with tracer.installed(), tracer.span("bench.replay"):
                            replay_problems += wl.replay_all(out)
                if first is None:
                    first, digest = out, wl.digest(out)
                elif wl.digest(out) != digest:
                    mismatched += 1
            reference = False
            if not was_reference and time.perf_counter() - start >= args.seconds:
                break
        rss = peak_rss_mb()
        rounds = len(walls) + len(traced_walls) + failed_rounds

        problems = list(replay_problems)
        if first is not None:
            problems += wl.check(first)
        if mismatched:
            problems.append(f"{mismatched} later rounds did not reproduce the first round's output")
    finally:
        wl.cleanup()

    if not walls or (args.trace and not traced_walls):
        print("no round to measure completed:\n" + "".join(errors[:3]), file=sys.stderr)
        return 1

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "inputs": wl.describe(),
        "environment": environment(),
        "engine_used": executors.used(),
        "executor_calls_in_setup": executors.calls,
        "import_s": import_s,
        "setup_runs_s": setups,
        "round_wall_s": walls,
        "round_cpu_s": cpus,
        "traced_round_wall_s": traced_walls,
        "work_per_round": wl.work(first),
        "errors": errors,
        "problems": problems,
    }
    if args.trace:
        metrics = layer_metrics(tracer, walls, traced_walls, wl)
        spans_path = RESULTS / f"{args.workload}-seed{args.seed}-spans.json"
        RESULTS.mkdir(parents=True, exist_ok=True)
        spans_path.write_text(json.dumps(tracer.spans))
    else:
        metrics = {
            "setup_s": {"value": import_s + statistics.median(setups), "unit": "s"},
            "wall_s": {"value": statistics.median(walls), "unit": "s"},
            "cpu_s": {"value": statistics.median(cpus), "unit": "s"},
            "peak_rss_mb": {"value": rss, "unit": "MB"},
        }
    record["metrics"] = metrics
    RESULTS.mkdir(parents=True, exist_ok=True)
    (RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, default=str))

    for p in problems:
        print(f"CHECK FAILED: {p}", file=sys.stderr)
    print("environment: " + json.dumps(record["environment"], sort_keys=True)
          + f" engine_used={record['engine_used']}")
    for name, m in metrics.items():
        print(f"{name} = {m['value']!r} {m['unit']}")
    ops = wl.ops_per_round
    print(json.dumps({
        "correct": not problems,
        "attempted": rounds * ops,
        "failed": failed_rounds * ops,
        "metrics": metrics,
    }))
    return 0


def layer_metrics(tracer, walls, traced_walls, wl) -> dict:
    k = len(traced_walls)
    self_s = tracer.self_times()
    counts = tracer.counts()
    m = {}
    for name in LAYER_TIMES:
        m[f"{name}_s"] = {"value": self_s.get(name, 0.0) / k, "unit": "s"}
    for name in LAYER_COUNTS:
        m[name] = {"value": counts.get(name, 0) / k, "unit": "count"}
    dyn = self_s.get("dynamics.run_to_termination", 0.0)
    m["dynamics.flips_per_s"] = {
        "value": counts.get("dynamics.flips", 0) / dyn if dyn else 0.0, "unit": "1/s"}
    sweep_wall = tracer.total("experiments.run_sweep") / k
    runs = counts.get("experiments.runs", 0) / k
    serial = tracer.total("bench.replay") / k
    jobs = getattr(wl, "jobs", 1)
    m["experiments.serial_run_s"] = {"value": serial / runs if runs else 0.0, "unit": "s"}
    m["experiments.jobs_x_sweep_wall_s"] = {"value": jobs * sweep_wall, "unit": "s"}
    m["experiments.parallel_efficiency"] = {
        "value": serial / (jobs * sweep_wall) if sweep_wall else 0.0, "unit": "ratio"}
    m["trace.overhead_s"] = {
        "value": statistics.median(traced_walls) - statistics.median(walls), "unit": "s"}
    m["trace.spans"] = {
        "value": sum(1 for s in tracer.spans if not s["name"].startswith("bench.")) / k,
        "unit": "count"}
    return m


def main(argv=None) -> int:
    return run(parse_args(argv))


if __name__ == "__main__":
    sys.exit(main())
