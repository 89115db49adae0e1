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
which one ran.
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
from .grid import GridState, _flip_cell, torus_window_ix
from .rng import RUN_CHUNK


class TerminationReason(enum.Enum):
    NO_ELIGIBLE_AGENTS = "NoEligibleAgents"
    FLIP_LIMIT = "FlipLimit"
    TIME_LIMIT = "TimeLimit"


@dataclass
class RunLimits:
    """Stopping rules.  max_flips defaults to 4*n^2*N, far above the
    Lyapunov cap, so a runaway loop surfaces as FlipLimit instead of a hang."""

    max_flips: Optional[int] = None
    max_continuous_time: Optional[float] = None
    record_interval: int = 0

    def __post_init__(self) -> None:
        if self.max_flips is not None and self.max_flips <= 0:
            raise ValueError("max_flips must be positive when given")
        if self.max_continuous_time is not None and self.max_continuous_time <= 0:
            raise ValueError("max_continuous_time must be positive when given")
        if self.record_interval < 0:
            raise ValueError("record_interval must be >= 0")


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


def _run_chunk_py(types, sc, elig_pos, elig_cells, cand, m, n, w, N, emax, phi, t, flips,
                  max_flips, max_time, u_batch, e_batch, rec_every, rec_flip, rec_time,
                  rec_phi, rec_m, audit_on, audit_cells, audit_pre):
    """Pure-python chunk executor, the reference for the compiled C kernel.

    Same arguments, buffers and results as _kernels.run_chunk (max_time is
    math.inf when time is not limited); cand, the kernel's scratch buffer,
    is not used.  Flips through grid._flip_cell, whose mutation order the
    kernel repeats, so both executors produce the same trajectory from one
    batch.

    Returns (m, phi, t, flips, rec_count, audit_count, status).
    """
    B = u_batch.shape[0]
    consumed = rec_count = audit_count = 0
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
        phi += 2 * (N - 2 * k + 1)
        if audit_on:
            audit_cells[audit_count] = cell
            audit_pre[audit_count] = k
            audit_count += 1
        flips += 1
        if rec_every > 0 and flips % rec_every == 0:
            rec_flip[rec_count] = flips
            rec_time[rec_count] = t
            rec_phi[rec_count] = phi
            rec_m[rec_count] = m
            rec_count += 1
    return m, phi, float(t), flips, rec_count, audit_count, status


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
    phi = phi0
    t = state.time
    flips = 0
    trace_rows: list = []
    audit_cells: list = []
    audit_pre: list = []
    if rec_every > 0:
        trace_rows.append((0, t, phi, m))

    max_rec = RUN_CHUNK // rec_every + 2 if rec_every > 0 else 1
    rec_flip = np.zeros(max_rec, dtype=np.int64)
    rec_time = np.zeros(max_rec, dtype=np.float64)
    rec_phi = np.zeros(max_rec, dtype=np.int64)
    rec_m = np.zeros(max_rec, dtype=np.int64)
    a_cells = np.zeros(RUN_CHUNK if audit else 1, dtype=np.int64)
    a_pre = np.zeros(RUN_CHUNK if audit else 1, dtype=np.int32)
    cand = np.zeros((2 * cfg.w + 1) ** 2, dtype=np.int64)
    status = _kernels.STATUS_NO_ELIGIBLE if m == 0 else _kernels.STATUS_BATCH_DONE
    while m > 0 and status == _kernels.STATUS_BATCH_DONE:
        u_batch = rng.random(RUN_CHUNK)
        e_batch = rng.standard_exponential(RUN_CHUNK)
        prev_flips = flips
        m, phi, t, flips, rec_count, audit_count, status = execute(
            state.types, state.same_count, state.elig_pos, state.elig_cells, cand,
            m, n, cfg.w, N, cfg.eligible_max_count, phi, t, flips, cap, max_time,
            u_batch, e_batch, rec_every, rec_flip, rec_time, rec_phi, rec_m,
            audit, a_cells, a_pre,
        )
        state.elig_count = m
        state.time = t
        state.flips_done += flips - prev_flips
        trace_rows.extend(zip(rec_flip[:rec_count].tolist(), rec_time[:rec_count].tolist(),
                              rec_phi[:rec_count].tolist(), rec_m[:rec_count].tolist()))
        if audit and audit_count:
            audit_cells.append(a_cells[:audit_count].copy())
            audit_pre.append(a_pre[:audit_count].copy())

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
        rng_id=cfg.rng_id,
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
        trace=np.asarray(trace_rows, dtype=np.float64) if rec_every > 0 else None,
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
    if radius < 0 or 2 * radius + 1 > n:
        raise ValueError(f"window of radius {radius} does not fit in an n={n} grid")
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
