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
import heapq
import json
import time as _time
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import _kernels
from .grid import FlipEvent, GridState, _flip_cell, apply_flip, torus_window_ix
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


def step(state: GridState, rng: np.random.Generator) -> Optional[FlipEvent]:
    """One dynamics step: sample uniformly from the eligible set, flip, advance time.

    Returns None when no agent is eligible (termination).  Draws one uniform
    then one exponential per step; note run_to_termination draws the same
    variates in batches, so interleaving step() with it changes the stream.
    """
    m = state.elig_count
    if m == 0:
        return None
    u = rng.random()
    e = rng.standard_exponential()
    j = int(u * m)
    cell = int(state.elig_cells[j])
    state.time += e / m
    return apply_flip(state, (cell // state.n, cell % state.n))


def _run_chunk_py(types, sc, elig_pos, elig_cells, cand, m, n, w, N, emax, phi, t, flips,
                  max_flips, max_time, u_batch, e_batch, rec_every, rec_flip, rec_time,
                  rec_phi, rec_m, audit_on, audit_cells, audit_pre):
    """Pure-python chunk executor, the reference for the compiled C kernel.

    Same arguments, buffers and results as _kernels.run_chunk; cand, the
    kernel's scratch buffer, is not used.  Flips through grid._flip_cell,
    whose mutation order the kernel repeats, so both executors produce the
    same trajectory from one batch.

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
        if max_time is not None and t + dt > max_time:
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
    max_time = limits.max_continuous_time
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
        state.version += flips - prev_flips
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
            state,
            sample_size=measure.sample_size,
            eps=measure.eps,
            seed=cfg.seed,
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


def _torus_chebyshev(n: int, a: tuple[int, int], b: tuple[int, int]) -> int:
    dr = abs(a[0] - b[0]) % n
    dc = abs(a[1] - b[1]) % n
    return max(min(dr, n - dr), min(dc, n - dc))


def cascade_closure(
    state: GridState,
    allowed: np.ndarray,
    target_type: int,
    center: tuple[int, int],
    max_flips: Optional[int] = None,
    target_radius: Optional[int] = None,
    order_rng: Optional[np.random.Generator] = None,
    stop_when_monochromatic: bool = False,
) -> CascadeResult:
    """Greedy one-sided cascade toward target_type inside an allowed mask.

    Runs on a private copy of the state.  Only agents inside `allowed` whose
    current type differs from target_type may flip, and each flip must be
    eligible under the full-grid happiness rule at its instant.  Default
    order is closest-to-center first (ties row-major); pass order_rng to
    flip in uniformly random candidate order instead.  Reports whether the
    central block of radius target_radius (default round(w/2), half-up)
    ended entirely target_type.

    For tau <= 1/2 the eligibility of a non-target agent is monotone under
    other flips toward target_type, so the full closure set is independent
    of order.  For tau > 1/2 a capped run is only a lower-bound witness.
    """
    cfg = state.config
    n, w = cfg.n, cfg.w
    if target_type not in (-1, 1):
        raise ValueError("target_type must be +1 or -1")
    if max_flips is None:
        max_flips = (w + 1) ** 2
    if target_radius is None:
        target_radius = (w + 1) // 2

    work = state.copy()
    allowed = np.asarray(allowed, dtype=bool)
    if allowed.shape != (n, n):
        raise ValueError("allowed mask must be n x n")

    block_ix = torus_window_ix(n, center[0] % n, center[1] % n, target_radius)
    remaining = int(np.count_nonzero(work.types[block_ix] != target_type))
    block_mask = np.zeros((n, n), dtype=bool)
    block_mask[block_ix] = True

    def is_candidate(r: int, c: int) -> bool:
        return (
            allowed[r, c]
            and work.types[r, c] != target_type
            and work.elig_pos[r * n + c] >= 0
        )

    flipped: list[tuple[int, int]] = []

    if order_rng is not None:
        while len(flipped) < max_flips:
            if stop_when_monochromatic and remaining == 0:
                break
            cand = np.argwhere(
                allowed
                & (work.types != target_type)
                & (work.elig_pos.reshape(n, n) >= 0)
            )
            if cand.size == 0:
                break
            r, c = cand[int(order_rng.integers(len(cand)))]
            apply_flip(work, (int(r), int(c)))
            flipped.append((int(r), int(c)))
            if block_mask[r, c]:
                remaining -= 1
    else:
        heap: list[tuple[int, int, int]] = []
        init = np.argwhere(
            allowed & (work.types != target_type) & (work.elig_pos.reshape(n, n) >= 0)
        )
        for r, c in init:
            heapq.heappush(heap, (_torus_chebyshev(n, (int(r), int(c)), center), int(r), int(c)))
        while heap and len(flipped) < max_flips:
            if stop_when_monochromatic and remaining == 0:
                break
            _, r, c = heapq.heappop(heap)
            if not is_candidate(r, c):
                continue
            apply_flip(work, (r, c))
            flipped.append((r, c))
            if block_mask[r, c]:
                remaining -= 1
            rows = (np.arange(r - w, r + w + 1)) % n
            cols = (np.arange(c - w, c + w + 1)) % n
            sub_allowed = allowed[np.ix_(rows, cols)]
            sub_nontgt = work.types[np.ix_(rows, cols)] != target_type
            sub_elig = (work.elig_pos.reshape(n, n)[np.ix_(rows, cols)]) >= 0
            for rr, cc in zip(*np.nonzero(sub_allowed & sub_nontgt & sub_elig)):
                vr, vc = int(rows[rr]), int(cols[cc])
                heapq.heappush(heap, (_torus_chebyshev(n, (vr, vc), center), vr, vc))

    return CascadeResult(
        flipped=flipped,
        target_made_monochromatic=(remaining == 0),
        flips_used=len(flipped),
    )
