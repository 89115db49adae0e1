"""Command-line interface.

Subcommands: run | sweep | detect | theory | percolation | stats.
Every emitted artifact carries a provenance block (package version, rng
algorithm, seed, sha256 of the effective config), sufficient to regenerate
it bit-exactly.  Exit codes: 0 success, 2 configuration/usage error,
1 runtime failure.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__, regions
from .dynamics import RunLimits
from .experiments import (
    ConditioningTooRareError,
    SweepSpec,
    fig2_trend_test,
    lemmaA1_test,
    prop1_test,
    pu_match_test,
    run_sweep,
)
from .grid import ConfigError, GridConfig, new_random
from .percolation import (
    SiteLattice,
    chemical_distance,
    cluster_radii,
    fpp_time_to_distance,
    surrounding_circuit_exists,
)
from .rng import RNG_ID, STREAM_PERCOLATION, generator
from .snapshot import snapshot_read, snapshot_write
from .structures import (
    RadicalSpec,
    bad_cluster_radii,
    find_chemical_path,
    firewall_unconditionally_stable,
    is_expandable,
    is_firewall,
    is_radical_region,
    is_region_of_expansion,
    is_unhappy_region,
    renormalize,
)
from .theory import curve as theory_curve


def _provenance(seed, config_obj) -> dict:
    blob = json.dumps(config_obj, sort_keys=True).encode()
    return {
        "version": __version__,
        "rng_id": RNG_ID,
        "seed": seed,
        "config_sha256": hashlib.sha256(blob).hexdigest(),
    }


def _write_text(path, text) -> None:
    if path is None or path == "-":
        sys.stdout.write(text if text.endswith("\n") else text + "\n")
    else:
        Path(path).write_text(text)


def _csv_with_provenance(lines: list, seed, config_obj) -> str:
    """CSV text with a single leading comment carrying the provenance block,
    so the artifact embeds what regenerates it."""
    prov = json.dumps(_provenance(seed, config_obj), sort_keys=True)
    return "# provenance: " + prov + "\n" + "\n".join(lines) + "\n"


def _cmd_run(args) -> int:
    config = GridConfig(
        n=args.n,
        w=args.w,
        tau_tilde=args.tau,
        p=args.p,
        seed=args.seed,
        allow_small=args.allow_small,
    )
    record_interval = args.record_interval
    if record_interval is None:
        # Tracing enabled by --trace-out records every n^2/10 flips by default.
        record_interval = max(1, (args.n * args.n) // 10) if args.trace_out else 0
    elif args.trace_out and record_interval == 0:
        raise ConfigError("--trace-out needs --record-interval >= 1, got 0")
    limits = RunLimits(
        max_flips=args.max_flips,
        max_continuous_time=args.max_time,
        record_interval=record_interval,
    )
    from .dynamics import run_to_termination
    from .regions import RegionMeasure
    from .rng import STREAM_DYNAMICS

    init_start = time.perf_counter()
    state = new_random(config)
    init_s = time.perf_counter() - init_start
    report = run_to_termination(
        state,
        generator(config.seed, STREAM_DYNAMICS),
        limits,
        use_numba=None if not args.python_engine else False,
        measure=RegionMeasure(sample_size=args.sample_size, eps=args.eps),
    )
    doc = report.to_dict(include_wall_clock=not args.omit_timing)
    if not args.omit_timing:
        # init_s (the fill and its box counts) precedes run_to_termination,
        # so it is reported here, not in RunReport.timings or a sweep's CSV.
        doc["timings"] = {**report.timings, "init_s": init_s}
    doc["provenance"] = _provenance(config.seed, config.to_dict())
    if args.report_out:
        _write_text(args.report_out, json.dumps(doc, sort_keys=True))
    if args.snapshot_out:
        Path(args.snapshot_out).write_bytes(snapshot_write(state))
    if args.trace_out and report.trace is not None:
        lines = ["flip_index,continuous_time,lyapunov,eligible"]
        for row in report.trace:
            lines.append(f"{int(row[0])},{float(row[1])!r},{int(row[2])},{int(row[3])}")
        _write_text(args.trace_out, _csv_with_provenance(lines, config.seed, config.to_dict()))
    print(
        f"run n={config.n} w={config.w} K={config.K}/{config.N} seed={config.seed}: "
        f"{report.flips_total} flips, {report.termination_reason}; "
        f"{report.engine} engine, {report.timings['flips_per_second']:.0f} flips/s, "
        f"summary {report.timings['measure_s']:.3g} s"
    )
    return 0


def _cmd_sweep(args) -> int:
    overrides = {
        k: v
        for k, v in (
            ("out_dir", args.out_dir),
            ("jobs", args.jobs),
            ("base_seed", args.base_seed),
        )
        if v is not None
    }
    spec = SweepSpec.from_json(args.config, **overrides)
    csv_path = run_sweep(spec)
    print(f"sweep complete: {csv_path}")
    return 0


def _load_state(args):
    if args.snapshot:
        try:
            data = Path(args.snapshot).read_bytes()
        except OSError as exc:
            raise ConfigError(f"cannot read snapshot {args.snapshot}: {exc.strerror or exc}") from exc
        return snapshot_read(data)
    if args.n is None or args.w is None or args.tau is None:
        raise ConfigError("detect needs --snapshot or all of --n/--w/--tau")
    config = GridConfig(
        n=args.n, w=args.w, tau_tilde=args.tau, p=args.p, seed=args.seed, allow_small=True
    )
    return new_random(config)


def _detect_radical(state, args, center, blocks, test=is_radical_region):
    spec = RadicalSpec(center=center, eps_prime=args.eps_prime, eps=args.block_eps)
    return {"center": list(center), **test(state, spec).__dict__}


def _detect_expandable(state, args, center, blocks):
    spec = RadicalSpec(center=center, eps_prime=args.eps_prime, eps=args.block_eps)
    res = is_expandable(state, spec)
    return {
        "center": list(center),
        "expandable": res.target_made_monochromatic,
        "flips_used": res.flips_used,
        "witness": [list(c) for c in res.flipped],
    }


def _detect_regions(state, args, center, blocks):
    summary = regions.compute_region_summary(state, sample_size=args.sample_size, eps=args.eps)
    return summary.to_dict()


def _detect_firewall(state, args, center, blocks):
    return {
        "center": list(center),
        "r": args.r,
        "monochromatic": is_firewall(state, center, args.r),
        "unconditionally_stable": firewall_unconditionally_stable(state, center, args.r),
    }


def _detect_expansion(state, args, center, blocks):
    v = is_region_of_expansion(
        state,
        center,
        args.region_radius,
        placements="all" if args.placements is None else args.placements,
        rng=None if args.placements is None else generator(state.config.seed, STREAM_PERCOLATION),
    )
    return {"center": list(center), **_jsonable(v.__dict__)}


def _detect_blocks(state, args, center, blocks):
    m, lattice = blocks()
    return {
        "m": m,
        "m_is_paper_default": m == 6 * state.config.w**3,
        "eps": args.block_eps,
        "dims": lattice.dims,
        "good_fraction": float(lattice.labels.mean()),
        "bad_cluster_radii": bad_cluster_radii(lattice),
    }


def _detect_chemical_path(state, args, center, blocks):
    m, lattice = blocks()
    cp = find_chemical_path(lattice, (center[0] // m, center[1] // m), args.r_blocks)
    entry = {
        "m": m,
        "m_is_paper_default": m == 6 * state.config.w**3,
        "r_blocks": args.r_blocks,
        "found": cp is not None,
    }
    if cp is not None:
        entry.update(
            total_length=cp.total_length,
            cycle=[list(c) for c in cp.cycle],
            path=[list(c) for c in cp.path],
        )
    return entry


# name -> (flags it needs, detector(state, args, center, blocks) -> entry
# fields); blocks() gives the block size and the block lattice, built once.
_DETECTORS = {
    "radical": ((), _detect_radical),
    "unhappy": ((), functools.partial(_detect_radical, test=is_unhappy_region)),
    "expandable": ((), _detect_expandable),
    "regions": ((), _detect_regions),
    "firewall": (("r",), _detect_firewall),
    "expansion": (("region_radius",), _detect_expansion),
    "blocks": ((), _detect_blocks),
    "chemical-path": (("r_blocks",), _detect_chemical_path),
}


def _cmd_detect(args) -> int:
    what = [x.strip() for x in args.what.split(",") if x.strip()]
    for kind in what:
        if kind not in _DETECTORS:
            raise ConfigError(f"unknown detector {kind!r}")
        for flag in _DETECTORS[kind][0]:
            if getattr(args, flag) is None:
                raise ConfigError(f"{kind} detection needs --{flag.replace('_', '-')}")
    center = _int_pair("center", args.center) if args.center else None
    state = _load_state(args)
    cfg = state.config
    center = center or (cfg.n // 2, cfg.n // 2)
    m = _block_size(args, cfg) if {"blocks", "chemical-path"} & set(what) else None
    blocks = functools.cache(lambda: (m, renormalize(state, m, args.block_eps)))
    detections = [
        {"kind": kind, **_DETECTORS[kind][1](state, args, center, blocks)} for kind in what
    ]
    doc = {
        "provenance": _provenance(cfg.seed, cfg.to_dict()),
        "detections": detections,
    }
    _write_text(args.out, json.dumps(doc, sort_keys=True))
    return 0


def _int_pair(flag: str, text: str) -> tuple[int, int]:
    """The two integers of a flag's "a,b" value; ConfigError otherwise."""
    try:
        pair = tuple(int(x) for x in text.split(","))
    except ValueError:
        pair = ()
    if len(pair) != 2:
        raise ConfigError(f"--{flag} must be two comma-separated integers, got {text!r}")
    return pair


def _block_size(args, cfg) -> int:
    """Block size for renormalization: 6 w^3 unless overridden with --m.

    The default is marked in the output; desk-scale grids usually cannot
    host it and must override.
    """
    if args.m is not None:
        if args.m < 1 or cfg.n % args.m != 0:
            raise ConfigError(f"block size {args.m} must be positive and divide n={cfg.n}")
        return args.m
    m = 6 * cfg.w**3
    if cfg.n % m != 0:
        raise ConfigError(
            f"default block size 6*w^3 = {m} does not divide n={cfg.n}; pass --m"
        )
    return m


def _jsonable(d: dict) -> dict:
    out = {}
    for k, v in d.items():
        if isinstance(v, tuple):
            out[k] = list(v)
        elif isinstance(v, (np.integer,)):
            out[k] = int(v)
        elif isinstance(v, (np.floating,)):
            out[k] = float(v)
        else:
            out[k] = v
    return out


def _cmd_theory(args) -> int:
    if not args.step > 0:
        raise ConfigError(f"--step must be > 0, got {args.step}")
    if args.tau_to < args.tau_from:
        raise ConfigError(f"--tau-to {args.tau_to} is below --tau-from {args.tau_from}")
    # Round away arange's accumulated float error so grid endpoints like 0.5
    # land exactly on domain boundaries.
    taus = np.round(np.arange(args.tau_from, args.tau_to + 1e-12, args.step), 12)
    rows = theory_curve(args.curve, taus, N=args.N, eps=args.block_eps, eps_prime=args.eps_prime)
    lines = ["tau,value,finite_N_value"]
    for t, limit, finite in rows:
        lines.append(f"{t!r},{limit!r},{finite!r}")
    params = {
        "curve": args.curve,
        "tau_from": args.tau_from,
        "tau_to": args.tau_to,
        "step": args.step,
        "N": args.N,
        "eps": args.block_eps,
        "eps_prime": args.eps_prime,
    }
    _write_text(args.out, _csv_with_provenance(lines, 0, params))
    return 0


def _cmd_percolation(args) -> int:
    if not 0.0 <= args.p <= 1.0:
        raise ConfigError(f"--p must be in [0, 1], got {args.p}")
    if args.samples < 1:
        raise ConfigError(f"--samples must be >= 1, got {args.samples}")
    lines = []
    if args.mode == "chemdist":
        h, w = _int_pair("dims", args.dims)
        a, b = _int_pair("a", args.a), _int_pair("b", args.b)
        l1 = abs(a[0] - b[0]) + abs(a[1] - b[1])
        lines.append("sample,connected,distance,l1")
        for i in range(args.samples):
            lat = SiteLattice.random((h, w), args.p, args.seed, key=(i,))
            dist = chemical_distance(lat, a, b)
            lines.append(f"{i},{int(dist is not None)},{-1 if dist is None else dist},{l1}")
    elif args.mode == "fpp":
        if args.k < 1:
            raise ConfigError(f"--k must be >= 1, got {args.k}")
        if args.half_width < 0:
            raise ConfigError(f"--half-width must be >= 0, got {args.half_width}")
        if not (np.isfinite(args.mean) and args.mean >= 0):
            raise ConfigError(f"--mean must be finite and >= 0, got {args.mean}")
        lines.append("sample,k,passage_time")
        for i in range(args.samples):
            t = fpp_time_to_distance(args.k, args.half_width, args.mean, args.seed, key=(i,))
            lines.append(f"{i},{args.k},{t!r}")
    elif args.mode == "radius":
        h, w = _int_pair("dims", args.dims)
        lines.append("sample,radius")
        idx = 0
        for i in range(args.samples):
            lat = SiteLattice.random((h, w), args.p, args.seed, key=(i,))
            for rad in cluster_radii(lat):
                lines.append(f"{idx},{int(rad)}")
                idx += 1
    elif args.mode == "circuit":
        h, w = _int_pair("dims", args.dims)
        center = (h // 2, w // 2)
        lines.append("sample,exists")
        for i in range(args.samples):
            lat = SiteLattice.random((h, w), args.p, args.seed, key=(i,))
            ok = surrounding_circuit_exists(lat, center, args.r_inner, args.r_outer)
            lines.append(f"{i},{int(ok)}")
    else:  # pragma: no cover - argparse restricts choices
        raise ConfigError(f"unknown mode {args.mode}")
    params = {
        "mode": args.mode,
        "p": args.p,
        "samples": args.samples,
        "dims": args.dims,
        "a": args.a,
        "b": args.b,
        "k": args.k,
        "half_width": args.half_width,
        "mean": args.mean,
        "r_inner": args.r_inner,
        "r_outer": args.r_outer,
    }
    _write_text(args.out, _csv_with_provenance(lines, args.seed, params))
    return 0


def _cmd_stats(args) -> int:
    if args.test in ("prop1", "lemmaA1") and args.N is None:
        raise ConfigError(f"{args.test} needs --N")
    if args.test == "prop1":
        report = prop1_test(
            N=args.N,
            gamma=args.gamma,
            tau_tilde=args.tau,
            c=args.c,
            eps=args.block_eps,
            samples=args.samples,
            seed=args.seed,
            pass_floor=args.pass_floor if args.pass_floor is not None else 0.99,
        )
    elif args.test == "lemmaA1":
        report = lemmaA1_test(
            N=args.N,
            c=args.c,
            eps=args.block_eps,
            samples=args.samples,
            seed=args.seed,
            pass_floor=args.pass_floor if args.pass_floor is not None else 0.999,
        )
    elif args.test == "pu-match":
        if args.n is None or args.w is None:
            raise ConfigError("pu-match needs --n and --w")
        report = pu_match_test(n=args.n, w=args.w, tau_tilde=args.tau, seed=args.seed)
    else:  # fig2-trend
        if args.n is None or args.w is None:
            raise ConfigError("fig2-trend needs --n and --w")
        taus = [float(x) for x in args.taus.split(",")]
        report = fig2_trend_test(
            taus,
            n=args.n,
            w=args.w,
            replicates=args.replicates,
            base_seed=args.seed,
            sample_size=args.sample_size,
        )
    doc = report.to_dict()
    doc["provenance"] = _provenance(args.seed, doc["parameters"])
    _write_text(args.out, json.dumps(doc, sort_keys=True))
    return 0 if report.passed else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="segsim", description=__doc__)
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one simulation to termination")
    p_run.add_argument("--n", type=int, required=True)
    p_run.add_argument("--w", type=int, required=True)
    p_run.add_argument("--tau", type=float, required=True)
    p_run.add_argument("--p", type=float, default=0.5)
    p_run.add_argument("--seed", type=int, default=0)
    p_run.add_argument("--max-flips", type=int, default=None)
    p_run.add_argument("--max-time", type=float, default=None)
    p_run.add_argument(
        "--record-interval", type=int, default=None,
        help="flips between trace rows (default: n^2/10 when --trace-out is set, else off)",
    )
    p_run.add_argument("--sample-size", type=int, default=1024)
    p_run.add_argument("--eps", type=float, default=0.25)
    p_run.add_argument("--report-out", default=None)
    p_run.add_argument("--snapshot-out", default=None)
    p_run.add_argument("--trace-out", default=None)
    p_run.add_argument("--allow-small", action="store_true")
    p_run.add_argument("--omit-timing", action="store_true",
                       help="drop wall-clock, engine and timings from the report for byte-stable output")
    p_run.add_argument("--python-engine", action="store_true",
                       help="run the pure-python flip loop instead of the compiled C kernel")
    p_run.set_defaults(func=_cmd_run)

    p_sweep = sub.add_parser("sweep", help="run a parameter sweep from a JSON spec")
    p_sweep.add_argument("--config", required=True)
    p_sweep.add_argument("--out-dir", default=None)
    p_sweep.add_argument("--jobs", type=int, default=None)
    p_sweep.add_argument("--base-seed", type=int, default=None)
    p_sweep.set_defaults(func=_cmd_sweep)

    p_detect = sub.add_parser("detect", help="run structural detectors on a state")
    p_detect.add_argument("--snapshot", default=None)
    p_detect.add_argument("--n", type=int, default=None)
    p_detect.add_argument("--w", type=int, default=None)
    p_detect.add_argument("--tau", type=float, default=None)
    p_detect.add_argument("--p", type=float, default=0.5)
    p_detect.add_argument("--seed", type=int, default=0)
    p_detect.add_argument("--what", default="radical,unhappy,expandable")
    p_detect.add_argument("--center", default=None, help="row,col (default grid center)")
    p_detect.add_argument("--sample-size", type=int, default=1024)
    p_detect.add_argument("--eps", type=float, default=0.25,
                          help="almost-monochromatic exponent for --what regions")
    p_detect.add_argument("--eps-prime", type=float, default=0.35)
    p_detect.add_argument("--block-eps", dest="block_eps", type=float, default=0.1,
                          help="concentration exponent for radical/unhappy/block detectors")
    p_detect.add_argument("--r", type=int, default=None, help="firewall outer radius")
    p_detect.add_argument("--region-radius", type=int, default=None)
    p_detect.add_argument("--placements", type=int, default=None)
    p_detect.add_argument("--m", type=int, default=None, help="block size")
    p_detect.add_argument("--r-blocks", type=int, default=None)
    p_detect.add_argument("--out", default=None)
    p_detect.set_defaults(func=_cmd_detect)

    p_theory = sub.add_parser("theory", help="emit closed-form curves as CSV")
    p_theory.add_argument("--curve", required=True, choices=["f", "a", "b", "pu", "pradical"])
    p_theory.add_argument("--tau-from", type=float, required=True)
    p_theory.add_argument("--tau-to", type=float, required=True)
    p_theory.add_argument("--step", type=float, required=True)
    p_theory.add_argument("--N", type=int, default=None)
    p_theory.add_argument("--block-eps", "--eps", dest="block_eps", type=float, default=0.1)
    p_theory.add_argument("--eps-prime", type=float, default=None)
    p_theory.add_argument("--out", default=None)
    p_theory.set_defaults(func=_cmd_theory)

    p_perc = sub.add_parser("percolation", help="site-percolation and FPP samplers")
    p_perc.add_argument("--mode", required=True, choices=["chemdist", "fpp", "radius", "circuit"])
    p_perc.add_argument("--p", type=float, default=0.95)
    p_perc.add_argument("--seed", type=int, default=0)
    p_perc.add_argument("--samples", type=int, default=100)
    p_perc.add_argument("--dims", default="64,64")
    p_perc.add_argument("--a", default="0,0")
    p_perc.add_argument("--b", default="10,10")
    p_perc.add_argument("--k", type=int, default=100)
    p_perc.add_argument("--half-width", type=int, default=60)
    p_perc.add_argument("--mean", type=float, default=1.0)
    p_perc.add_argument("--r-inner", type=int, default=8)
    p_perc.add_argument("--r-outer", type=int, default=24)
    p_perc.add_argument("--out", default=None)
    p_perc.set_defaults(func=_cmd_percolation)

    p_stats = sub.add_parser("stats", help="statistical acceptance tests")
    p_stats.add_argument(
        "--test", required=True, choices=["prop1", "lemmaA1", "pu-match", "fig2-trend"]
    )
    p_stats.add_argument("--N", type=int, default=None)
    p_stats.add_argument("--n", type=int, default=None)
    p_stats.add_argument("--w", type=int, default=None)
    p_stats.add_argument("--gamma", type=float, default=0.25)
    p_stats.add_argument("--tau", type=float, default=0.45)
    p_stats.add_argument("--taus", default="0.36,0.40,0.44,0.48")
    p_stats.add_argument("--replicates", type=int, default=32)
    p_stats.add_argument("--sample-size", type=int, default=1024)
    p_stats.add_argument("--c", type=float, default=2.0)
    p_stats.add_argument("--block-eps", "--eps", dest="block_eps", type=float, default=0.1)
    p_stats.add_argument("--samples", type=int, default=10_000)
    p_stats.add_argument("--seed", type=int, default=0)
    p_stats.add_argument("--pass-floor", type=float, default=None)
    p_stats.add_argument("--out", default=None)
    p_stats.set_defaults(func=_cmd_stats)

    return parser


def cli_main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse uses 2 for usage errors
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (ConfigError, ConditioningTooRareError, ValueError) as exc:
        print(f"segsim: configuration error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # pragma: no cover - defensive
        print(f"segsim: error: {exc}", file=sys.stderr)
        return 1


def main(argv=None) -> int:
    return cli_main(argv)


if __name__ == "__main__":
    sys.exit(main())
