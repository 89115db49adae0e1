"""Asynchronous flip dynamics: uniform choice over eligible agents.

The engine is the discrete-time chain (one eligible agent chosen uniformly
at random per step); continuous time is bookkept by adding an exponential
variate with rate |eligible| at each step, which reproduces the law of the
independent-Poisson-clocks model without simulating idle clocks.

run_to_termination consumes randomness in fixed-size batches of
(uniform, exponential) pairs (see rng.RUN_CHUNK) and hands each batch to
one of two chunk executors with the same arguments and results: the
compiled C kernel (_kernels.run_chunk) or the pure-python reference
_run_chunk_py, which flips through the three-pass grid._flip_cell.  Both
consume the identical stream and change the eligible list in the order
_kernels states, so trajectories are bit-reproducible and independent of
which one ran.  An executor returns (m, t, flips, status) and, when asked,
fills a per-flip log: the flipped cell, its pre-flip same count k and the
t and m after the flip.  The log is on only for an audit or a trace, and
both are built here from it: the audit from the cells and counts, the
trace from every record_interval-th flip, with the Lyapunov sum carried
forward by 2(N - 2k + 1) per flip.
"""

from __future__ import annotations

import enum
import json
import math
import time as _time
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import _kernels
from .grid import GridState, _flip_cell, check_window_fits, torus_window_ix
from .rng import RNG_ID, RUN_CHUNK


def _is_int(x) -> bool:
    return isinstance(x, (int, np.integer)) and not isinstance(x, bool)


class TerminationReason(enum.Enum):
    NO_ELIGIBLE_AGENTS = "NoEligibleAgents"
    FLIP_LIMIT = "FlipLimit"
    TIME_LIMIT = "TimeLimit"


@dataclass
class RunLimits:
    """Stopping rules.  max_flips defaults to 4*n^2*N, far above the
    Lyapunov cap, so a runaway loop surfaces as FlipLimit instead of a hang.
    A max_continuous_time of inf sets no time limit."""

    max_flips: Optional[int] = None
    max_continuous_time: Optional[float] = None
    record_interval: int = 0

    def __post_init__(self) -> None:
        # Both engines must read the same limits: the C one takes int64
        # counts, and NaN would compare false against every time.
        if self.max_flips is not None and not (_is_int(self.max_flips) and self.max_flips > 0):
            raise ValueError(f"max_flips must be a positive integer when given, got {self.max_flips!r}")
        if self.max_continuous_time is not None and not self.max_continuous_time > 0:
            raise ValueError(
                f"max_continuous_time must be positive when given, got {self.max_continuous_time!r}")
        if not (_is_int(self.record_interval) and self.record_interval >= 0):
            raise ValueError(f"record_interval must be an integer >= 0, got {self.record_interval!r}")


@dataclass
class FlipAudit:
    """Per-flip record (flipped cell ids and pre-flip same counts)."""

    cells: np.ndarray
    pre_counts: np.ndarray


@dataclass
class RunReport:
    """Full record of one simulation run.

    wall_clock_seconds spans the whole run_to_termination call, the region
    summary included.  engine ("c" or "python") names the chunk executor
    that ran; timings splits the wall clock into dynamics_s (from the call,
    initial fill already done, to the end of the flip loop) and measure_s
    (the region summary), plus flips_per_second over dynamics_s.  These
    three fields are machine-dependent and left out of canonical_json().
    """

    config: dict
    rng_id: str
    flips_total: int
    continuous_time_final: float
    lyapunov_initial: int
    lyapunov_final: int
    unhappy_initial_count: int
    termination_reason: str
    region_summary: Optional[dict]
    wall_clock_seconds: float
    engine: str
    timings: dict
    trace: Optional[np.ndarray] = field(default=None, repr=False, compare=False)
    audit: Optional[FlipAudit] = field(default=None, repr=False, compare=False)

    def to_dict(self, include_wall_clock: bool = True) -> dict:
        d = {
            "config": self.config,
            "rng_id": self.rng_id,
            "flips_total": self.flips_total,
            "continuous_time_final": self.continuous_time_final,
            "lyapunov_initial": self.lyapunov_initial,
            "lyapunov_final": self.lyapunov_final,
            "unhappy_initial_count": self.unhappy_initial_count,
            "termination_reason": self.termination_reason,
            "region_summary": self.region_summary,
        }
        if include_wall_clock:
            d["wall_clock_seconds"] = self.wall_clock_seconds
            d["engine"] = self.engine
            d["timings"] = self.timings
        return d

    def to_json(self, include_wall_clock: bool = True) -> str:
        return json.dumps(self.to_dict(include_wall_clock), sort_keys=True)

    def canonical_json(self) -> str:
        """Deterministic serialization: identical seeds give identical bytes.

        The machine-dependent fields (wall clock, engine, timings) are excluded.
        """
        return self.to_json(include_wall_clock=False)


def lyapunov(state: GridState) -> int:
    """Sum over agents of same-type neighborhood counts; strictly increases per flip."""
    return int(state.same_count.sum(dtype=np.int64))


def _run_chunk_py(types, sc, elig_pos, elig_cells, m, n, w, N, emax, t, flips, max_flips,
                  max_time, u_batch, e_batch, log_on, log_cell, log_k, log_t, log_m):
    """Pure-python chunk executor, the reference for the compiled C kernel.

    Same arguments, log and results as _kernels.run_chunk (max_time is
    math.inf when time is not limited): with log_on, flip i of the batch
    writes its cell, pre-flip count and the t and m after it to log_cell[i],
    log_k[i], log_t[i] and log_m[i].  Flips through grid._flip_cell, whose
    mutation order the kernel repeats, so both executors produce the same
    trajectory from one batch.

    Returns (m, t, flips, status).
    """
    B = u_batch.shape[0]
    consumed = 0
    while True:
        if m <= 0:
            status = _kernels.STATUS_NO_ELIGIBLE
            break
        if flips >= max_flips:
            status = _kernels.STATUS_FLIP_LIMIT
            break
        if consumed >= B:
            status = _kernels.STATUS_BATCH_DONE
            break
        u = u_batch[consumed]
        e = e_batch[consumed]
        consumed += 1
        dt = e / m
        if t + dt > max_time:
            t = max_time
            status = _kernels.STATUS_TIME_LIMIT
            break
        t += dt
        cell = int(elig_cells[int(u * m)])
        k, m = _flip_cell(types, sc, elig_pos, elig_cells, m, n, w, N, emax, cell)
        if log_on:
            i = consumed - 1
            log_cell[i], log_k[i], log_t[i], log_m[i] = cell, k, t, m
        flips += 1
    return m, float(t), flips, status


def run_to_termination(
    state: GridState,
    rng: np.random.Generator,
    limits: Optional[RunLimits] = None,
    *,
    use_numba: Optional[bool] = None,
    audit: bool = False,
    measure=None,
) -> RunReport:
    """Drive the state until no agent is eligible or a limit is hit.

    Deterministic given (state, rng stream).  With audit=True the report
    carries every flipped cell and its pre-flip count.  measure, when given,
    is a regions.RegionMeasure; the resulting summary is embedded in the
    report.

    use_numba picks the chunk executor: None runs the compiled C kernel when
    it loaded and the python one otherwise; True requires the C kernel and
    raises RuntimeError with the build or load reason when it is missing;
    False runs python.  The keyword keeps its name from an earlier numba
    kernel.
    """
    limits = limits or RunLimits()
    cfg = state.config
    n, N = cfg.n, cfg.N
    cap = limits.max_flips if limits.max_flips is not None else 4 * n * n * N
    max_time = math.inf if limits.max_continuous_time is None else limits.max_continuous_time
    rec_every = limits.record_interval

    wall_start = _time.perf_counter()
    phi0 = lyapunov(state)
    unhappy0 = state.unhappy_count()

    if use_numba is None:
        use_numba = _kernels.run_chunk is not None
    if use_numba and _kernels.run_chunk is None:
        raise RuntimeError(_kernels.load_error)
    # Looked up per call, so a patched executor (the benchmark counts calls) runs.
    execute = _kernels.run_chunk if use_numba else _run_chunk_py

    m = state.elig_count
    t = state.time
    flips = 0
    phi = phi0
    trace_rows = [np.array([[0, t, phi0, m]], dtype=np.float64)]
    audit_cells: list = []
    audit_pre: list = []

    # The per-flip log, on only when the audit or the trace reads it.
    log_on = audit or rec_every > 0
    size = RUN_CHUNK if log_on else 0
    log = (np.zeros(size, np.int64), np.zeros(size, np.int32),
           np.zeros(size, np.float64), np.zeros(size, np.int64))
    status = _kernels.STATUS_NO_ELIGIBLE if m == 0 else _kernels.STATUS_BATCH_DONE
    while m > 0 and status == _kernels.STATUS_BATCH_DONE:
        u_batch = rng.random(RUN_CHUNK)
        e_batch = rng.standard_exponential(RUN_CHUNK)
        prev_flips = flips
        m, t, flips, status = execute(
            state.types, state.same_count, state.elig_pos, state.elig_cells,
            m, n, cfg.w, N, cfg.eligible_max_count, t, flips, cap, max_time,
            u_batch, e_batch, log_on, *log,
        )
        done = flips - prev_flips
        state.elig_count = m
        state.time = t
        state.flips_done += done
        if log_on and done:
            cells, ks, ts, ms = (a[:done] for a in log)
            if audit:
                audit_cells.append(cells.copy())
                audit_pre.append(ks.copy())
            if rec_every > 0:
                # A flip from count k raises the Lyapunov sum by 2(N - 2k + 1);
                # a row follows every rec_every-th flip of the run.
                phis = phi + np.cumsum(2 * (N - 2 * ks.astype(np.int64) + 1))
                phi = int(phis[-1])
                at = np.arange((-prev_flips - 1) % rec_every, done, rec_every)
                trace_rows.append(np.column_stack((prev_flips + 1 + at, ts[at], phis[at], ms[at])))

    if status == _kernels.STATUS_NO_ELIGIBLE or m == 0:
        reason = TerminationReason.NO_ELIGIBLE_AGENTS
    elif status == _kernels.STATUS_FLIP_LIMIT:
        reason = TerminationReason.FLIP_LIMIT
    else:
        reason = TerminationReason.TIME_LIMIT
    dynamics_s = _time.perf_counter() - wall_start

    region_summary = None
    if measure is not None:
        from .regions import compute_region_summary

        region_summary = compute_region_summary(
            state, sample_size=measure.sample_size, eps=measure.eps
        ).to_dict()
    measure_s = _time.perf_counter() - wall_start - dynamics_s

    audit_obj = None
    if audit:
        audit_obj = FlipAudit(
            cells=np.concatenate(audit_cells) if audit_cells else np.zeros(0, np.int64),
            pre_counts=np.concatenate(audit_pre) if audit_pre else np.zeros(0, np.int32),
        )

    return RunReport(
        config=cfg.to_dict(),
        rng_id=RNG_ID,
        flips_total=flips,
        continuous_time_final=float(t),
        lyapunov_initial=phi0,
        lyapunov_final=lyapunov(state),
        unhappy_initial_count=unhappy0,
        termination_reason=reason.value,
        region_summary=region_summary,
        wall_clock_seconds=_time.perf_counter() - wall_start,
        engine="c" if use_numba else "python",
        timings={
            "dynamics_s": dynamics_s,
            "measure_s": measure_s,
            "flips_per_second": flips / dynamics_s if dynamics_s > 0 else 0.0,
        },
        trace=np.concatenate(trace_rows) if rec_every > 0 else None,
        audit=audit_obj,
    )


@dataclass
class CascadeResult:
    """Outcome of a restricted greedy flip cascade."""

    flipped: list
    target_made_monochromatic: bool
    flips_used: int


def cascade_closure(
    state: GridState,
    center: tuple[int, int],
    radius: int,
    target_type: int,
    max_flips: Optional[int] = None,
    order_rng: Optional[np.random.Generator] = None,
    stop_when_monochromatic: bool = False,
) -> CascadeResult:
    """Greedy one-sided cascade toward target_type inside the torus window of
    the given radius at center.

    Window-local: copies the window's types and counts and never copies or
    writes the state.  A candidate is a window agent not of target_type
    whose count is <= eligible_max_count, i.e. eligible under the full-grid
    happiness rule at that instant.  Default order flips the candidate
    closest to center (torus Chebyshev distance, ties by flat cell id); with
    order_rng, one order_rng.integers draw per flip picks among the
    candidates sorted by flat cell id.  Stops at max_flips ((w+1)^2 by
    default), then, with stop_when_monochromatic, once the central block of
    radius round(w/2), half-up, is all target_type, then when no candidate
    is left; reports whether that block ended all target_type.

    Each flip toward target_type lowers the counts of the non-target agents
    around it, so candidacy is monotone at every tau: the uncapped closure
    set and its verdict do not depend on the order.  A max_flips cap can
    make the verdict order-dependent, and stop_when_monochromatic the set
    of flips.
    """
    cfg = state.config
    n, w = cfg.n, cfg.w
    if target_type not in (-1, 1):
        raise ValueError("target_type must be +1 or -1")
    check_window_fits(n, radius)
    if max_flips is None:
        max_flips = (w + 1) ** 2

    cr, cc = center[0] % n, center[1] % n
    ix = torus_window_ix(n, cr, cc, radius)
    rows, cols = ix[0].ravel(), ix[1].ravel()
    types = state.types[ix]
    count = state.same_count[ix]
    # Torus row/column -> window index, -1 outside: the window cells within
    # distance w of a flip, wrap neighbours included.
    row_of = np.full(n, -1)
    row_of[rows] = np.arange(rows.size)
    col_of = np.full(n, -1)
    col_of[cols] = np.arange(cols.size)
    near = np.arange(-w, w + 1)
    off = np.abs(np.arange(-radius, radius + 1))
    dist = np.maximum.outer(off, off)
    in_block = dist <= (w + 1) // 2
    remaining = int(np.count_nonzero(
        state.types[torus_window_ix(n, cr, cc, (w + 1) // 2)] != target_type))
    flat = (ix[0] * n + ix[1]).ravel()
    order = np.argsort(flat) if order_rng is not None else np.lexsort((flat, dist.ravel()))

    flipped: list[tuple[int, int]] = []
    while len(flipped) < max_flips:
        if stop_when_monochromatic and remaining == 0:
            break
        cand = order[((types != target_type) & (count <= cfg.eligible_max_count)).ravel()[order]]
        if cand.size == 0:
            break
        v = int(cand[0 if order_rng is None else int(order_rng.integers(cand.size))])
        i, j = divmod(v, rows.size)
        types[i, j] = target_type
        # Only non-target counts decide candidacy: each falls by one per
        # flip within distance w.  Target cells' counts are left stale.
        li, lj = row_of[(rows[i] + near) % n], col_of[(cols[j] + near) % n]
        sub = np.ix_(li[li >= 0], lj[lj >= 0])
        count[sub] -= types[sub] != target_type
        flipped.append((int(rows[i]), int(cols[j])))
        remaining -= int(in_block[i, j])

    return CascadeResult(
        flipped=flipped,
        target_made_monochromatic=(remaining == 0),
        flips_used=len(flipped),
    )
