import math

import numpy as np
import pytest

import segsim
from segsim import GridConfig, _kernels, cascade_closure, new_random, state_from_types
from segsim.dynamics import RunLimits, lyapunov, run_to_termination
from segsim.grid import apply_flip, same_counts_bruteforce, torus_window_ix
from segsim.structures import RadicalSpec, is_expandable
from segsim.rng import STREAM_DYNAMICS, generator


def checkerboard(n):
    idx = np.add.outer(np.arange(n), np.arange(n))
    return np.where(idx % 2 == 0, 1, -1).astype(np.int8)


def require_c_kernel():
    if _kernels.run_chunk is None:
        pytest.skip(_kernels.load_error)


def fresh(n, w, tau, seed, p=0.5):
    cfg = GridConfig(n=n, w=w, tau_tilde=tau, p=p, seed=seed, allow_small=True)
    return new_random(cfg)


ENGINES = pytest.mark.parametrize("use_numba", [False, True], ids=["python", "c"])


def traced_run(state, seed, use_numba):
    """The run to the end with a trace row and an audit entry at every flip."""
    if use_numba:
        require_c_kernel()
    return run_to_termination(state, generator(seed, STREAM_DYNAMICS), RunLimits(record_interval=1),
                              use_numba=use_numba, audit=True)


class TestStep:
    @ENGINES
    def test_all_plus_terminates_immediately(self, use_numba):
        state = fresh(12, 1, 0.5, 0, p=1.0)
        report = traced_run(state, 0, use_numba)
        assert report.flips_total == 0 and report.audit.cells.size == 0
        assert report.termination_reason == "NoEligibleAgents"
        assert report.trace.tolist() == [[0, 0.0, 144 * 9, 0]]
        assert state.flips_done == 0

    @ENGINES
    def test_single_minus_one_flip(self, use_numba):
        cfg = GridConfig(n=12, w=1, tau_tilde=0.5, seed=0, allow_small=True)
        types = np.ones((12, 12), np.int8)
        types[4, 4] = -1
        state = state_from_types(cfg, types)
        report = traced_run(state, 1, use_numba)
        assert report.audit.cells.tolist() == [4 * 12 + 4]
        assert report.audit.pre_counts.tolist() == [1]
        assert report.termination_reason == "NoEligibleAgents"
        assert state.flips_done == 1
        assert (state.types == 1).all()

    @ENGINES
    def test_checkerboard_static(self, use_numba):
        cfg = GridConfig(n=12, w=1, tau_tilde=0.5, seed=0, allow_small=True)
        state = state_from_types(cfg, checkerboard(12))
        report = traced_run(state, 0, use_numba)
        assert report.flips_total == 0
        assert report.termination_reason == "NoEligibleAgents"
        assert np.array_equal(state.types, checkerboard(12))


class TestLyapunov:
    def test_all_plus_value(self):
        state = fresh(8, 1, 0.5, 0, p=1.0)
        assert lyapunov(state) == 64 * 9

    def test_checkerboard_value(self):
        cfg = GridConfig(n=8, w=1, tau_tilde=0.5, seed=0, allow_small=True)
        state = state_from_types(cfg, checkerboard(8))
        assert lyapunov(state) == 64 * 5

    @ENGINES
    def test_strict_increase_per_flip(self, use_numba):
        state = fresh(16, 1, 0.45, 3)
        replay = state.copy()
        N = state.config.N
        report = traced_run(state, 2, use_numba)
        ks = report.audit.pre_counts.astype(np.int64)
        phi = report.trace[:, 2].astype(np.int64)
        assert report.flips_total == ks.size == phi.size - 1 > 0
        assert (np.diff(phi) == 2 * (N - 2 * ks + 1)).all() and (np.diff(phi) > 0).all()
        # The trace's Lyapunov and eligible columns and the audit's pre-flip
        # counts agree with the same flips made one by one.
        assert phi[0] == lyapunov(replay)
        m_after = report.trace[1:, 3].tolist()
        for cell, k, phi_i, m_i in zip(report.audit.cells.tolist(), ks.tolist(), phi[1:].tolist(), m_after):
            ev = apply_flip(replay, divmod(cell, replay.n))
            assert (ev.pre_count, lyapunov(replay), replay.elig_count) == (k, phi_i, m_i)
        assert np.array_equal(replay.types, state.types) and replay.audit_consistent()


class TestRunToTermination:
    def test_all_plus_report(self):
        state = fresh(12, 1, 0.5, 0, p=1.0)
        report = run_to_termination(state, generator(0))
        assert report.flips_total == 0
        assert report.termination_reason == "NoEligibleAgents"
        assert report.unhappy_initial_count == 0
        assert report.lyapunov_final == report.lyapunov_initial
        assert report.region_summary is None  # no measure, no summary

    @pytest.mark.parametrize("use_numba", [False, True])
    def test_terminates_with_no_eligible(self, use_numba):
        if use_numba:
            require_c_kernel()
        state = fresh(48, 2, 0.45, 5)
        report = run_to_termination(state, generator(5, STREAM_DYNAMICS), use_numba=use_numba)
        assert report.engine == ("c" if use_numba else "python")
        assert report.termination_reason == "NoEligibleAgents"
        assert state.elig_count == 0
        assert state.unhappy_count() == 0  # tau < 1/2: unhappy == eligible
        assert np.array_equal(
            state.same_count, same_counts_bruteforce(state.types, state.config.w)
        )

    def test_same_seed_bit_identical_report(self):
        a = fresh(32, 2, 0.45, 7)
        b = fresh(32, 2, 0.45, 7)
        ra = run_to_termination(a, generator(7, STREAM_DYNAMICS))
        rb = run_to_termination(b, generator(7, STREAM_DYNAMICS))
        assert ra.canonical_json() == rb.canonical_json()
        assert np.array_equal(a.types, b.types)

    def test_python_and_numba_paths_identical(self):
        require_c_kernel()
        for seed, n, w, tau in ((3, 32, 1, 0.45), (4, 32, 2, 0.4), (5, 24, 3, 0.49)):
            a = fresh(n, w, tau, seed)
            b = a.copy()
            ra = run_to_termination(a, generator(seed, STREAM_DYNAMICS), use_numba=False, audit=True)
            rb = run_to_termination(b, generator(seed, STREAM_DYNAMICS), use_numba=True, audit=True)
            assert (ra.engine, rb.engine) == ("python", "c")
            assert ra.flips_total == rb.flips_total
            assert ra.continuous_time_final == rb.continuous_time_final
            assert ra.lyapunov_final == rb.lyapunov_final
            assert np.array_equal(a.types, b.types)
            assert np.array_equal(ra.audit.cells, rb.audit.cells)
            assert np.array_equal(ra.audit.pre_counts, rb.audit.pre_counts)
            assert a.elig_count == b.elig_count
            assert np.array_equal(
                a.elig_cells[: a.elig_count], b.elig_cells[: b.elig_count]
            )

    def test_chunk_boundary_refills(self, monkeypatch):
        # A tiny batch size forces many refills; both engines must still
        # agree step for step (the chunk size is part of the stream layout,
        # so results differ from the default-size run by design).
        import segsim.dynamics as dyn

        require_c_kernel()
        monkeypatch.setattr(dyn, "RUN_CHUNK", 64)
        a = fresh(32, 2, 0.45, 41)
        b = a.copy()
        ra = run_to_termination(a, generator(41, STREAM_DYNAMICS), use_numba=False, audit=True)
        rb = run_to_termination(b, generator(41, STREAM_DYNAMICS), use_numba=True, audit=True)
        assert (ra.engine, rb.engine) == ("python", "c")
        assert ra.flips_total == rb.flips_total > 64  # crossed many chunks
        assert ra.continuous_time_final == rb.continuous_time_final
        assert np.array_equal(ra.audit.cells, rb.audit.cells)
        assert np.array_equal(a.types, b.types)
        assert ra.termination_reason == "NoEligibleAgents"
        assert a.audit_consistent()

    def test_flip_limit(self):
        state = fresh(32, 1, 0.45, 11)
        report = run_to_termination(
            state, generator(11, STREAM_DYNAMICS), RunLimits(max_flips=5)
        )
        assert report.flips_total == 5
        assert report.termination_reason == "FlipLimit"

    def test_time_limit(self):
        state = fresh(32, 1, 0.45, 11)
        report = run_to_termination(
            state, generator(11, STREAM_DYNAMICS), RunLimits(max_continuous_time=1e-9)
        )
        assert report.termination_reason == "TimeLimit"
        assert report.continuous_time_final == 1e-9

    def test_above_half_intolerance_terminates(self):
        # tau > 1/2: only agents whose flip reaches the threshold ever flip,
        # and unhappy-but-ineligible agents may remain at the end.
        state = fresh(32, 1, 0.6, 23)
        cfg = state.config
        assert cfg.K == 6 and cfg.N + 1 - cfg.K == 4
        report = run_to_termination(state, generator(23, STREAM_DYNAMICS), audit=True)
        assert report.termination_reason == "NoEligibleAgents"
        assert state.elig_count == 0
        ks = report.audit.pre_counts
        assert (ks < cfg.K).all()
        assert (ks <= cfg.N + 1 - cfg.K).all()
        assert (2 * (cfg.N - 2 * ks.astype(np.int64) + 1) > 0).all()
        assert np.array_equal(
            state.same_count, same_counts_bruteforce(state.types, cfg.w)
        )

    def test_limit_validation(self):
        import pytest as _pytest

        with _pytest.raises(ValueError):
            RunLimits(max_flips=0)
        with _pytest.raises(ValueError):
            RunLimits(max_continuous_time=-1.0)
        with _pytest.raises(ValueError):
            RunLimits(record_interval=-1)

    @ENGINES
    @pytest.mark.parametrize("limits", [
        {"max_flips": 2.5}, {"max_flips": True}, {"max_flips": "5"},
        {"max_continuous_time": math.nan}, {"max_continuous_time": 0.0},
        {"record_interval": 2.5}, {"record_interval": True}, {"record_interval": None},
    ], ids=repr)
    def test_limits_the_engines_would_read_differently_are_rejected(self, use_numba, limits):
        """A fractional count reaches the C engine as an error and the python
        one as a rounded-up limit, and NaN switches the time limit off: each
        is rejected before either engine runs."""
        if use_numba:
            require_c_kernel()
        with pytest.raises(ValueError, match=next(iter(limits))):
            run_to_termination(fresh(48, 2, 0.45, 1), generator(1, STREAM_DYNAMICS), RunLimits(**limits),
                               use_numba=use_numba)

    @pytest.mark.parametrize("limits,expected", [
        ({"max_flips": np.int64(150)}, "FlipLimit"),
        ({"max_continuous_time": math.inf}, "NoEligibleAgents"),
        ({"record_interval": np.int64(7)}, "NoEligibleAgents"),
    ], ids=["int64-flips", "inf-time", "int64-interval"])
    def test_accepted_limits_give_the_same_run_on_both_engines(self, limits, expected):
        require_c_kernel()
        python, c = (run_to_termination(fresh(48, 2, 0.45, 1), generator(1, STREAM_DYNAMICS),
                                        RunLimits(**limits), use_numba=use_numba)
                     for use_numba in (False, True))
        assert python.termination_reason == expected
        assert python.canonical_json() == c.canonical_json()
        assert (python.trace is None and c.trace is None) or np.array_equal(python.trace, c.trace)

    def test_audit_legality(self):
        state = fresh(32, 2, 0.45, 13)
        cfg = state.config
        report = run_to_termination(state, generator(13, STREAM_DYNAMICS), audit=True)
        ks = report.audit.pre_counts
        assert (ks < cfg.K).all()
        assert (cfg.N - ks + 1 >= cfg.K).all()
        increments = 2 * (cfg.N - 2 * ks.astype(np.int64) + 1)
        assert (increments > 0).all()
        assert report.lyapunov_initial + int(increments.sum()) == report.lyapunov_final

    def test_trace_recording(self):
        state = fresh(32, 1, 0.45, 17)
        report = run_to_termination(
            state, generator(17, STREAM_DYNAMICS), RunLimits(record_interval=10)
        )
        trace = report.trace
        assert trace is not None and trace.shape[1] == 4
        assert trace[0, 0] == 0
        # Lyapunov column is nondecreasing, flip indices strictly increasing.
        assert (np.diff(trace[:, 0]) > 0).all()
        assert (np.diff(trace[:, 2]) > 0).all()

    @ENGINES
    @pytest.mark.parametrize("limits,expected", [
        ({}, "NoEligibleAgents"),
        ({"max_flips": 150}, "FlipLimit"),
        ({"max_continuous_time": 0.5}, "TimeLimit"),
    ], ids=["no-eligible", "flip-limit", "time-limit"])
    def test_trace_rows_across_batches(self, use_numba, limits, expected, monkeypatch):
        """With 64-draw batches, the trace at interval r is row 0 and every
        r-th row of the interval-1 trace, whichever batch a row falls in and
        wherever in a batch the run stops."""
        if use_numba:
            require_c_kernel()
        monkeypatch.setattr(segsim.dynamics, "RUN_CHUNK", 64)

        def traced(r):
            return run_to_termination(fresh(48, 2, 0.45, 1), generator(1, STREAM_DYNAMICS),
                                      RunLimits(record_interval=r, **limits), use_numba=use_numba)

        full = traced(1)
        assert full.termination_reason == expected
        assert full.flips_total > 64 and len(full.trace) == full.flips_total + 1
        assert full.trace[-1, 2] == full.lyapunov_final  # the sum carried across batches
        if limits:
            assert full.flips_total % 64  # stops inside a later batch
        for r in (7, 64, 100):
            assert np.array_equal(traced(r).trace, full.trace[::r]), r

    @ENGINES
    def test_continuous_time_matches_rates_in_aggregate(self, use_numba):
        # Sum of exponential(1/m_i) increments concentrates around sum 1/m_i,
        # m_i the eligible count before flip i (the trace row before it).
        state = fresh(48, 1, 0.49, 19)
        report = traced_run(state, 19, use_numba)
        m_pre = report.trace[:-1, 3]
        assert report.trace[-1, 3] == 0 and (m_pre > 0).all()
        expected = float((1.0 / m_pre).sum())
        var = float((1.0 / m_pre**2).sum())
        assert report.continuous_time_final == state.time == report.trace[-1, 1]
        assert abs(report.continuous_time_final - expected) < 6 * np.sqrt(var)

    def test_report_json_field_names(self):
        state = fresh(16, 1, 0.45, 1)
        report = run_to_termination(state, generator(1, STREAM_DYNAMICS))
        doc = report.to_dict()
        assert set(doc) == {
            "config",
            "rng_id",
            "flips_total",
            "continuous_time_final",
            "lyapunov_initial",
            "lyapunov_final",
            "unhappy_initial_count",
            "termination_reason",
            "region_summary",
            "wall_clock_seconds",
            "engine",
            "timings",
        }
        assert set(doc["timings"]) == {"dynamics_s", "measure_s", "flips_per_second"}
        canonical = report.canonical_json()
        for key in ("wall_clock_seconds", "engine", "timings"):
            assert key not in canonical


def torus_chebyshev(n, a, b):
    dr, dc = abs(a[0] - b[0]) % n, abs(a[1] - b[1]) % n
    return max(min(dr, n - dr), min(dc, n - dc))


def closure_oracle(state, center, radius, target, max_flips=None, order_rng=None, stop=False):
    """The cascade on a copy through apply_flip, recounting every candidate
    of the window over the whole torus at every step; returns the flips and
    the verdict recounted on the central block."""
    n, w = state.n, state.config.w
    work = state.copy()
    allowed = np.zeros((n, n), bool)
    allowed[torus_window_ix(n, center[0] % n, center[1] % n, radius)] = True
    block = np.zeros((n, n), bool)
    block[torus_window_ix(n, center[0] % n, center[1] % n, (w + 1) // 2)] = True
    cap = (w + 1) ** 2 if max_flips is None else max_flips
    flipped = []
    while len(flipped) < cap:
        if stop and not (block & (work.types != target)).any():
            break
        cand = np.argwhere(allowed & (work.types != target) & (work.elig_pos.reshape(n, n) >= 0))
        if len(cand) == 0:
            break
        if order_rng is None:
            r, c = min(cand.tolist(), key=lambda rc: (torus_chebyshev(n, rc, center), *rc))
        else:
            r, c = cand[int(order_rng.integers(len(cand)))].tolist()
        apply_flip(work, (r, c))
        flipped.append((r, c))
    return flipped, not (block & (work.types != target)).any()


def state_bytes(state):
    return (state.types.tobytes(), state.same_count.tobytes(), state.elig_pos.tobytes(),
            state.elig_cells.tobytes(), state.elig_count, state.flips_done, state.time)


class TestCascadeClosure:
    def setup_method(self):
        self.cfg = GridConfig(n=24, w=2, tau_tilde=0.4, seed=0, allow_small=True)

    def test_already_target_zero_flips(self):
        state = state_from_types(self.cfg, np.ones((24, 24), np.int8))
        res = cascade_closure(state, (12, 12), radius=4, target_type=1)
        assert res.flips_used == 0
        assert res.target_made_monochromatic

    def test_single_opposite_agent(self):
        types = np.ones((24, 24), np.int8)
        types[12, 12] = -1
        state = state_from_types(self.cfg, types)
        res = cascade_closure(state, (12, 12), radius=4, target_type=1)
        assert res.flips_used == 1
        assert res.flipped == [(12, 12)]
        assert res.target_made_monochromatic
        # The probe left the state untouched.
        assert state.types[12, 12] == -1

    def test_confluence_under_shuffled_orders(self):
        for seed in range(6):
            rng = generator(seed)
            types = np.where(rng.random((24, 24)) < 0.5, 1, -1).astype(np.int8)
            state = state_from_types(self.cfg, types)
            base = cascade_closure(state, (12, 12), radius=6, target_type=1, max_flips=10_000)
            base_set = frozenset(base.flipped)
            for k in range(10):
                res = cascade_closure(
                    state,
                    (12, 12),
                    radius=6,
                    target_type=1,
                    max_flips=10_000,
                    order_rng=generator(1000 + k),
                )
                assert frozenset(res.flipped) == base_set

    @pytest.mark.parametrize("tau", [0.55, 0.60, 0.65])
    def test_confluence_above_one_half(self, tau):
        # Flips toward the target only lower the counts of non-target agents,
        # so the uncapped closure is order-free for tau > 1/2 too.
        sizes = []
        for w in (1, 2):
            cfg = GridConfig(n=24, w=w, tau_tilde=tau, seed=0, allow_small=True)
            for seed in range(4):
                rng = generator(seed, 17)
                types = np.where(rng.random((24, 24)) < 0.5, 1, -1).astype(np.int8)
                state = state_from_types(cfg, types)
                center = (int(rng.integers(24)), int(rng.integers(24)))
                base = cascade_closure(state, center, radius=7, target_type=1, max_flips=10**6)
                sizes.append(base.flips_used)
                for k in range(8):
                    res = cascade_closure(
                        state, center, radius=7, target_type=1, max_flips=10**6,
                        order_rng=generator(2000 + k),
                    )
                    assert frozenset(res.flipped) == frozenset(base.flipped)
                    assert res.target_made_monochromatic == base.target_made_monochromatic
        assert min(sizes) > 0

    def test_flips_are_restricted_and_eligible(self):
        rng = generator(3)
        types = np.where(rng.random((24, 24)) < 0.5, 1, -1).astype(np.int8)
        state = state_from_types(self.cfg, types)
        allowed = np.zeros((24, 24), bool)
        allowed[6:15, 6:15] = True
        res = cascade_closure(state, (10, 10), radius=4, target_type=1, max_flips=10_000)
        for r, c in res.flipped:
            assert allowed[r, c]
            assert types[r, c] == -1

    @pytest.mark.parametrize("use_rng", [False, True], ids=["nearest-first", "random-order"])
    @pytest.mark.parametrize("stop", [False, True], ids=["full", "stop-at-mono"])
    def test_matches_recount_oracle(self, use_rng, stop):
        # 40 cases per order and stop mode; about half have 2R+1 within 2
        # of n, so the window wraps and flips see wrap neighbours.
        flips = 0
        for case in range(40):
            rng = generator(4242, case)
            w = int(rng.integers(1, 4))
            radius = int(rng.integers(w, 3 * w + 3))
            n = 2 * radius + 1 + int(rng.integers(0, 3 if case % 2 else 12))
            n = max(n, 2 * w + 1)
            tau = float(rng.choice([0.30, 0.40, 0.45, 0.50, 0.55, 0.60]))
            cfg = GridConfig(n=n, w=w, tau_tilde=tau, seed=0, allow_small=True)
            types = np.where(rng.random((n, n)) < rng.uniform(0.3, 0.7), 1, -1).astype(np.int8)
            state = state_from_types(cfg, types)
            center = (int(rng.integers(-n, 2 * n)), int(rng.integers(-n, 2 * n)))
            target = int(rng.choice([-1, 1]))
            cap = [None, int(rng.integers(0, 30)), 10**6][case % 3]
            seed = int(rng.integers(2**62))
            got_rng, want_rng = (generator(seed), generator(seed)) if use_rng else (None, None)
            got = cascade_closure(state, center, radius, target, max_flips=cap,
                                  order_rng=got_rng, stop_when_monochromatic=stop)
            want = closure_oracle(state, center, radius, target, cap, want_rng, stop)
            assert (got.flipped, got.target_made_monochromatic) == want, case
            assert got.flips_used == len(got.flipped)
            if use_rng:
                assert got_rng.integers(2**62) == want_rng.integers(2**62)
            flips += got.flips_used
        assert flips > 100

    def test_probes_leave_the_state_untouched(self):
        state = fresh(48, 2, 0.42, 5)
        run_to_termination(state, generator(5, STREAM_DYNAMICS), RunLimits(max_flips=200))
        prefix = state.plus_prefix()
        before = state_bytes(state)
        flips = 0
        for center in [(0, 0), (24, 30), (47, 5), (-3, 60)]:
            flips += is_expandable(state, RadicalSpec(center, 0.35)).flips_used
            for order_rng in (None, generator(9)):
                flips += cascade_closure(state, center, 7, 1, max_flips=10**6, order_rng=order_rng).flips_used
                flips += cascade_closure(state, center, 7, -1, order_rng=order_rng).flips_used
            assert state_bytes(state) == before
            assert state.plus_prefix() is prefix
        assert flips > 0

    @pytest.mark.parametrize("radius", [-1, 12])
    def test_window_must_fit(self, radius):
        state = state_from_types(self.cfg, np.ones((24, 24), np.int8))
        with pytest.raises(ValueError, match="does not fit"):
            cascade_closure(state, (12, 12), radius, 1)
