"""Sweep orchestration, concentration checks, and report emission.

Every output embeds enough data (config, seeds, package version) to
regenerate itself bit-exactly; per-run seeds are derived from
(base_seed, cell_index, replicate), so sweep output is independent of the
job count and of scheduling.
"""

from __future__ import annotations

import csv
import json
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import MISSING, asdict, dataclass, fields
from itertools import product
from pathlib import Path
from typing import Optional

import numpy as np

from . import __version__
from .dynamics import RunLimits, RunReport, run_to_termination
from .grid import ConfigError, GridConfig, intolerance_threshold, new_random
from .regions import RegionMeasure
from .rng import RNG_ID, STREAM_DYNAMICS, STREAM_STATS, derive_run_seed, generator
from .theory import binom_cdf

SWEEP_CSV_COLUMNS = [
    "tau_tilde",
    "K",
    "N",
    "w",
    "n",
    "p",
    "seed",
    "flips",
    "time",
    "unhappy0",
    "largest_plus_r",
    "largest_minus_r",
    "mean_M",
    "stderr_M",
    "mean_Mprime",
    "stderr_Mprime",
]

SWEEP_TIMING_COLUMNS = [
    "cell", "replicate", "seed", "engine", "dynamics_s", "measure_s", "flips_per_second",
]


class ConditioningTooRareError(RuntimeError):
    """The conditional sampler cannot reach the requested sample count."""


def run_single(
    config: GridConfig,
    limits: Optional[RunLimits] = None,
    sample_size: int = 1024,
    eps: float = 0.25,
    measure_regions: bool = True,
) -> RunReport:
    """Fresh random state driven to termination, with region summary."""
    state = new_random(config)
    rng = generator(config.seed, STREAM_DYNAMICS)
    measure = RegionMeasure(sample_size=sample_size, eps=eps) if measure_regions else None
    return run_to_termination(state, rng, limits, measure=measure)


def _is_int(x) -> bool:
    return isinstance(x, (int, np.integer)) and not isinstance(x, bool)


def _is_number(x) -> bool:
    return isinstance(x, (int, float, np.integer, np.floating)) and not isinstance(x, bool)


@dataclass
class SweepSpec:
    """Grid of simulation cells; every (cell, replicate) gets a derived seed.

    Construction checks every field's type and range and every cell's grid
    configuration, so a bad spec raises ConfigError before anything runs.
    """

    tau_grid: list
    w_grid: list
    n_grid: list
    p_grid: list
    replicates: int
    base_seed: int
    jobs: int = 1
    sample_size: int = 1024
    eps: float = 0.25
    out_dir: str = "sweep_out"

    def __post_init__(self) -> None:
        for name, is_kind, kind in (("tau_grid", _is_number, "numbers"), ("w_grid", _is_int, "integers"),
                                    ("n_grid", _is_int, "integers"), ("p_grid", _is_number, "numbers")):
            grid = getattr(self, name)
            if not isinstance(grid, (list, tuple)) or not grid:
                raise ConfigError(f"{name} must be a nonempty list")
            if not all(is_kind(x) for x in grid):
                raise ConfigError(f"{name} must hold {kind}, got {grid!r}")
        for name, low in (("replicates", 1), ("jobs", 1), ("sample_size", 0), ("base_seed", None)):
            value = getattr(self, name)
            if not _is_int(value) or (low is not None and value < low):
                bound = "an integer" if low is None else f"an integer >= {low}"
                raise ConfigError(f"{name} must be {bound}, got {value!r}")
        if not _is_number(self.eps) or not 0.0 < self.eps < 0.5:
            raise ConfigError(f"eps must be a number in (0, 1/2), got {self.eps!r}")
        if not isinstance(self.out_dir, str) or not self.out_dir:
            raise ConfigError(f"out_dir must be a nonempty string, got {self.out_dir!r}")
        for cell in self.cells():
            GridConfig(**cell, seed=0, allow_small=True)

    def cells(self) -> list[dict]:
        """Cell parameter dicts in fixed (tau, w, n, p) nesting order."""
        return [
            {"tau_tilde": float(t), "w": int(w), "n": int(n), "p": float(p)}
            for t, w, n, p in product(self.tau_grid, self.w_grid, self.n_grid, self.p_grid)
        ]

    @classmethod
    def from_dict(cls, data) -> "SweepSpec":
        """Spec from a mapping of field names, unknown or missing keys refused."""
        if not isinstance(data, dict):
            raise ConfigError(f"a sweep spec must be a JSON object, got {type(data).__name__}")
        known = {f.name: f for f in fields(cls)}
        unknown = sorted(set(data) - set(known))
        if unknown:
            raise ConfigError(f"unknown sweep spec keys: {', '.join(unknown)}")
        missing = [k for k, f in known.items() if f.default is MISSING and k not in data]
        if missing:
            raise ConfigError(f"sweep spec is missing: {', '.join(missing)}")
        return cls(**data)

    @classmethod
    def from_json(cls, path, **overrides) -> "SweepSpec":
        """Spec from a JSON file; keyword overrides replace its fields."""
        try:
            data = json.loads(Path(path).read_text())
        except OSError as exc:
            raise ConfigError(f"cannot read sweep spec {path}: {exc.strerror or exc}") from exc
        except ValueError as exc:
            raise ConfigError(f"sweep spec {path} is not valid JSON: {exc}") from exc
        if isinstance(data, dict):
            data = {**data, **overrides}
        return cls.from_dict(data)

    def to_dict(self) -> dict:
        return asdict(self)


def _sweep_task(args: tuple) -> tuple:
    (cell_idx, rep, tau, w, n, p, seed, sample_size, eps) = args
    config = GridConfig(n=n, w=w, tau_tilde=tau, p=p, seed=seed, allow_small=True)
    report = run_single(config, sample_size=sample_size, eps=eps)
    summary = report.region_summary or {}

    def radius_of(key):
        entry = summary.get(key)
        return -1 if entry is None else entry["radius"]

    row = {
        "tau_tilde": tau,
        "K": config.K,
        "N": config.N,
        "w": w,
        "n": n,
        "p": p,
        "seed": seed,
        "flips": report.flips_total,
        "time": report.continuous_time_final,
        "unhappy0": report.unhappy_initial_count,
        "largest_plus_r": radius_of("largest_plus"),
        "largest_minus_r": radius_of("largest_minus"),
        "mean_M": summary.get("mean_M"),
        "stderr_M": summary.get("stderr_M"),
        "mean_Mprime": summary.get("mean_Mprime"),
        "stderr_Mprime": summary.get("stderr_Mprime"),
    }
    timing = {"cell": cell_idx, "replicate": rep, "seed": seed, "engine": report.engine, **report.timings}
    return cell_idx, rep, row, report.canonical_json(), timing


def run_sweep(spec: SweepSpec) -> Path:
    """Run every (cell, replicate), write sweep.csv plus per-run reports.

    Deterministic: rerunning the same spec reproduces every output byte,
    except timings.csv, which records each run's engine and measured phase
    times (dynamics_s, measure_s, flips_per_second) apart from the results.
    Returns the path of the CSV.
    """
    out_dir = Path(spec.out_dir)
    runs_dir = out_dir / "runs"
    runs_dir.mkdir(parents=True, exist_ok=True)

    tasks = []
    for cell_idx, cell in enumerate(spec.cells()):
        for rep in range(spec.replicates):
            seed = derive_run_seed(spec.base_seed, cell_idx, rep)
            tasks.append(
                (
                    cell_idx,
                    rep,
                    cell["tau_tilde"],
                    cell["w"],
                    cell["n"],
                    cell["p"],
                    seed,
                    spec.sample_size,
                    spec.eps,
                )
            )

    if spec.jobs > 1:
        with ProcessPoolExecutor(max_workers=spec.jobs) as pool:
            results = list(pool.map(_sweep_task, tasks))
    else:
        results = [_sweep_task(t) for t in tasks]
    results.sort(key=lambda r: (r[0], r[1]))

    csv_path = out_dir / "sweep.csv"
    with open(csv_path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=SWEEP_CSV_COLUMNS)
        writer.writeheader()
        for _, _, row, _, _ in results:
            writer.writerow(row)
    with open(out_dir / "timings.csv", "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=SWEEP_TIMING_COLUMNS)
        writer.writeheader()
        for *_, timing in results:
            writer.writerow(timing)
    for cell_idx, rep, _, report_json, _ in results:
        (runs_dir / f"cell{cell_idx:04d}_rep{rep:03d}.json").write_text(report_json)
    (out_dir / "sweep_spec.json").write_text(
        json.dumps({"version": __version__, "rng_id": RNG_ID, **spec.to_dict()}, sort_keys=True)
    )
    return csv_path


@dataclass
class StatTestReport:
    """Outcome of one statistical acceptance check; thresholds and sample
    sizes are recorded inline."""

    test_id: str
    parameters: dict
    sample_size: int
    passed: bool
    statistics: dict

    def to_dict(self) -> dict:
        return {
            "test_id": self.test_id,
            "parameters": self.parameters,
            "sample_size": self.sample_size,
            "passed": self.passed,
            "statistics": self.statistics,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)


_MAX_CONDITION_DRAWS = 50_000_000
# Pass rules of pu_match_test (binomial standard deviations) and of
# fig2_trend_test (one-sided significance level).
_PU_SIGMA_LIMIT = 3.0
_FIG2_ALPHA = 0.05


def _require_positive(**values) -> None:
    for name, value in values.items():
        if value < 1:
            raise ConfigError(f"{name} must be >= 1, got {value}")


def prop1_test(
    N: int,
    gamma: float,
    tau_tilde: float,
    c: float,
    eps: float,
    samples: int,
    seed: int,
    pass_floor: float = 0.99,
) -> StatTestReport:
    """Self-similarity of sub-neighborhoods, conditioned on a minority total.

    Draws the minority count W ~ Binomial(N, 1/2) by rejection conditioned on
    W < K, then the sub-neighborhood count W' ~ Hypergeometric (a uniformly
    random sub-region of round(gamma*N) cells given W).  Passes iff the
    empirical frequency of |W' - gamma*K| < c*N^(1/2+eps) reaches pass_floor.
    """
    _require_positive(N=N, samples=samples)
    if not 0.0 < gamma <= 1.0:
        raise ValueError("gamma must be in (0, 1]")
    K = intolerance_threshold(tau_tilde, N)
    p_cond = binom_cdf(K - 1, N)
    if p_cond * _MAX_CONDITION_DRAWS < samples:
        raise ConditioningTooRareError(
            f"P(W < K) = {p_cond:.3e}: cannot reach {samples} conditioned samples "
            f"within the {_MAX_CONDITION_DRAWS} draw budget"
        )
    rng = generator(seed, STREAM_STATS)
    accepted: list[np.ndarray] = []
    total = 0
    got = 0
    chunk = max(10_000, min(int(4 * samples / max(p_cond, 1e-12)) + 1, 2_000_000))
    while got < samples and total < _MAX_CONDITION_DRAWS:
        draws = rng.binomial(N, 0.5, size=chunk)
        keep = draws[draws < K]
        accepted.append(keep)
        got += keep.size
        total += chunk
    if got < samples:
        raise ConditioningTooRareError(
            f"accepted only {got}/{samples} after {total} draws"
        )
    W = np.concatenate(accepted)[:samples]
    n_sub = int(math.floor(gamma * N + 0.5))
    W_sub = rng.hypergeometric(W, N - W, n_sub)
    dev_bound = c * N ** (0.5 + eps)
    ok = np.abs(W_sub - gamma * K) < dev_bound
    freq = float(ok.mean())
    return StatTestReport(
        test_id="prop1",
        parameters={
            "N": N,
            "gamma": gamma,
            "tau_tilde": tau_tilde,
            "K": K,
            "c": c,
            "eps": eps,
            "seed": seed,
            "pass_floor": pass_floor,
        },
        sample_size=samples,
        passed=freq >= pass_floor,
        statistics={
            "frequency": freq,
            "deviation_bound": dev_bound,
            "condition_probability": p_cond,
            "rejection_draws": total,
        },
    )


def pu_match_test(
    n: int,
    w: int,
    tau_tilde: float,
    seed: int,
    p: float = 0.5,
) -> StatTestReport:
    """Empirical initial unhappy fraction versus the exact closed form.

    The pass window is _PU_SIGMA_LIMIT binomial standard deviations over
    the n^2 agents (neighborhood overlap correlations are ignored by
    convention, so the check is run on fixed recorded seeds).
    """
    from .theory import p_unhappy_exact

    config = GridConfig(n=n, w=w, tau_tilde=tau_tilde, p=p, seed=seed, allow_small=True)
    state = new_random(config)
    pu = p_unhappy_exact(config.N, config.K)
    frac = state.unhappy_count() / n**2
    sigma = math.sqrt(pu * (1.0 - pu) / n**2)
    dev = abs(frac - pu) / sigma if sigma > 0 else 0.0
    return StatTestReport(
        test_id="pu_match",
        parameters={
            "n": n,
            "w": w,
            "tau_tilde": tau_tilde,
            "K": config.K,
            "N": config.N,
            "p": p,
            "seed": seed,
            "sigma_limit": _PU_SIGMA_LIMIT,
        },
        sample_size=n * n,
        passed=dev < _PU_SIGMA_LIMIT,
        statistics={
            "empirical_fraction": frac,
            "exact_probability": pu,
            "sigma": sigma,
            "deviation_sigmas": dev,
        },
    )


def fig2_trend_test(
    taus,
    n: int,
    w: int,
    replicates: int,
    base_seed: int,
    sample_size: int = 1024,
    eps: float = 0.25,
) -> StatTestReport:
    """Mean sampled region size versus intolerance: one-sided Spearman test
    that the means are decreasing across the tau grid.

    With 3-4 grid points the one-sided p-value is below alpha = 0.05 only
    for a strictly decreasing ordering (rho = -1, p = 0): the next best
    ordering already gives p = 0.33 (3 points) or p = 0.10 (4 points). The
    decreasing trend is a large-N claim (the exponents a(tau)N, b(tau)N must
    dominate the o(N) terms); expect it only where every grid point has
    N/2 - K >= sqrt(N). Closer to 1/2 the dynamics coarsen like the
    tau = 1/2 quench and the means can invert.

    Needs at least three taus.  Equal means (or equal taus) have no rank
    correlation: rho is then reported as None (null in JSON) with p = 1,
    and spearmanr is not called, so it prints no warning.
    """
    from scipy.stats import spearmanr

    _require_positive(replicates=replicates)
    if len(taus) < 3:
        raise ConfigError(f"the trend test needs at least three taus, got {len(taus)}")
    means = []
    for cell_idx, tau in enumerate(taus):
        vals = []
        for rep in range(replicates):
            seed = derive_run_seed(base_seed, cell_idx, rep)
            config = GridConfig(n=n, w=w, tau_tilde=float(tau), p=0.5, seed=seed, allow_small=True)
            report = run_single(config, sample_size=sample_size, eps=eps)
            vals.append(report.region_summary["mean_M"])
        means.append(float(np.mean(vals)))
    if len(set(means)) > 1 and len(set(taus)) > 1:
        rho, pvalue = spearmanr(list(taus), means, alternative="less")
        rho, pvalue = float(rho), float(pvalue)
    else:
        # A constant input has no ranks to correlate, so no trend.
        rho, pvalue = None, 1.0
    return StatTestReport(
        test_id="fig2_trend",
        parameters={
            "taus": [float(t) for t in taus],
            "n": n,
            "w": w,
            "replicates": replicates,
            "base_seed": base_seed,
            "sample_size": sample_size,
            "eps": eps,
            "alpha": _FIG2_ALPHA,
        },
        sample_size=len(taus) * replicates,
        passed=bool(pvalue < _FIG2_ALPHA),
        statistics={"means": means, "spearman_rho": rho, "p_value": pvalue},
    )


def lemmaA1_test(
    N: int,
    c: float,
    eps: float,
    samples: int,
    seed: int,
    pass_floor: float = 0.999,
) -> StatTestReport:
    """Unconditioned concentration of a neighborhood's minority count around
    N/2; also reports the fitted decay constant of the empirical tail."""
    _require_positive(N=N, samples=samples)
    rng = generator(seed, STREAM_STATS)
    W = rng.binomial(N, 0.5, size=samples)
    dev_bound = c * N ** (0.5 + eps)
    ok = np.abs(W - N / 2.0) < dev_bound
    freq = float(ok.mean())
    tail = 1.0 - freq
    scale = N ** (2.0 * eps)
    if tail > 0:
        fitted_c_prime = -math.log(tail / 2.0) / scale
        fitted_is_lower_bound = False
    else:
        fitted_c_prime = -math.log(0.5 / samples) / scale
        fitted_is_lower_bound = True
    return StatTestReport(
        test_id="lemmaA1",
        parameters={"N": N, "c": c, "eps": eps, "seed": seed, "pass_floor": pass_floor},
        sample_size=samples,
        passed=freq >= pass_floor,
        statistics={
            "frequency": freq,
            "deviation_bound": dev_bound,
            "empirical_tail": tail,
            "fitted_c_prime": fitted_c_prime,
            "fitted_c_prime_is_lower_bound": fitted_is_lower_bound,
        },
    )
