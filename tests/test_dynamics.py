import numpy as np
import pytest

import segsim
from segsim import GridConfig, _kernels, cascade_closure, new_random, state_from_types, step
from segsim.dynamics import RunLimits, lyapunov, run_to_termination
from segsim.grid import same_counts_bruteforce
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


class TestStep:
    def test_all_plus_terminates_immediately(self):
        state = fresh(12, 1, 0.5, 0, p=1.0)
        assert step(state, generator(0)) is None
        assert state.flips_done == 0

    def test_single_minus_one_flip(self):
        cfg = GridConfig(n=12, w=1, tau_tilde=0.5, seed=0, allow_small=True)
        types = np.ones((12, 12), np.int8)
        types[4, 4] = -1
        state = state_from_types(cfg, types)
        rng = generator(1)
        ev = step(state, rng)
        assert ev.agent == (4, 4)
        assert step(state, rng) is None
        assert state.flips_done == 1

    def test_checkerboard_static(self):
        cfg = GridConfig(n=12, w=1, tau_tilde=0.5, seed=0, allow_small=True)
        state = state_from_types(cfg, checkerboard(12))
        assert step(state, generator(0)) is None


class TestLyapunov:
    def test_all_plus_value(self):
        state = fresh(8, 1, 0.5, 0, p=1.0)
        assert lyapunov(state) == 64 * 9

    def test_checkerboard_value(self):
        cfg = GridConfig(n=8, w=1, tau_tilde=0.5, seed=0, allow_small=True)
        state = state_from_types(cfg, checkerboard(8))
        assert lyapunov(state) == 64 * 5

    def test_strict_increase_per_flip(self):
        state = fresh(16, 1, 0.45, 3)
        cfg = state.config
        rng = generator(2)
        while True:
            phi = lyapunov(state)
            ev = step(state, rng)
            if ev is None:
                break
            assert lyapunov(state) - phi == 2 * (cfg.N - 2 * ev.pre_count + 1) > 0


class TestRunToTermination:
    def test_all_plus_report(self):
        state = fresh(12, 1, 0.5, 0, p=1.0)
        report = run_to_termination(state, generator(0))
        assert report.flips_total == 0
        assert report.termination_reason == "NoEligibleAgents"
        assert report.unhappy_initial_count == 0
        assert report.lyapunov_final == report.lyapunov_initial

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

    def test_continuous_time_matches_rates_in_aggregate(self):
        # Sum of exponential(1/m_i) increments concentrates around sum 1/m_i.
        state = fresh(48, 1, 0.49, 19)
        rng = generator(19, STREAM_DYNAMICS)
        expected = 0.0
        var = 0.0
        while True:
            m = state.elig_count
            if m == 0:
                break
            expected += 1.0 / m
            var += 1.0 / m**2
            step(state, rng)
        assert abs(state.time - expected) < 6 * np.sqrt(var)

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


class TestCascadeClosure:
    def setup_method(self):
        self.cfg = GridConfig(n=24, w=2, tau_tilde=0.4, seed=0, allow_small=True)

    def test_already_target_zero_flips(self):
        state = state_from_types(self.cfg, np.ones((24, 24), np.int8))
        allowed = np.zeros((24, 24), bool)
        allowed[8:17, 8:17] = True
        res = cascade_closure(state, allowed, 1, center=(12, 12))
        assert res.flips_used == 0
        assert res.target_made_monochromatic

    def test_single_opposite_agent(self):
        types = np.ones((24, 24), np.int8)
        types[12, 12] = -1
        state = state_from_types(self.cfg, types)
        allowed = np.zeros((24, 24), bool)
        allowed[8:17, 8:17] = True
        res = cascade_closure(state, allowed, 1, center=(12, 12))
        assert res.flips_used == 1
        assert res.flipped == [(12, 12)]
        assert res.target_made_monochromatic
        # The probe ran on a copy.
        assert state.types[12, 12] == -1

    def test_confluence_under_shuffled_orders(self):
        for seed in range(6):
            rng = generator(seed)
            types = np.where(rng.random((24, 24)) < 0.5, 1, -1).astype(np.int8)
            state = state_from_types(self.cfg, types)
            allowed = np.zeros((24, 24), bool)
            allowed[6:19, 6:19] = True
            base = cascade_closure(state, allowed, 1, center=(12, 12), max_flips=10_000)
            base_set = frozenset(base.flipped)
            for k in range(10):
                res = cascade_closure(
                    state,
                    allowed,
                    1,
                    center=(12, 12),
                    max_flips=10_000,
                    order_rng=generator(1000 + k),
                )
                assert frozenset(res.flipped) == base_set

    def test_flips_are_restricted_and_eligible(self):
        rng = generator(3)
        types = np.where(rng.random((24, 24)) < 0.5, 1, -1).astype(np.int8)
        state = state_from_types(self.cfg, types)
        allowed = np.zeros((24, 24), bool)
        allowed[6:15, 6:15] = True
        res = cascade_closure(state, allowed, 1, center=(10, 10), max_flips=10_000)
        for r, c in res.flipped:
            assert allowed[r, c]
            assert types[r, c] == -1
