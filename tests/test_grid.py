import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import segsim
from segsim import (
    ConfigError,
    GridConfig,
    Happiness,
    IneligibleFlipError,
    apply_flip,
    happiness_state,
    new_random,
    plus_count_in_rect,
    state_from_types,
)
from segsim.grid import (
    TorusPrefix,
    box_same_counts,
    intolerance_threshold,
    round_radius,
    same_counts_bruteforce,
)
from segsim.rng import RNG_ID, generator


def checkerboard(n):
    idx = np.add.outer(np.arange(n), np.arange(n))
    return np.where(idx % 2 == 0, 1, -1).astype(np.int8)


def random_state(n, w, tau_tilde, seed, p=0.5):
    cfg = GridConfig(n=n, w=w, tau_tilde=tau_tilde, p=p, seed=seed, allow_small=True)
    return new_random(cfg)


class TestConfig:
    @given(
        num=st.integers(0, 1000),
        den=st.integers(1, 1000),
        N=st.integers(1, 2000),
    )
    @settings(max_examples=200, deadline=None)
    def test_threshold_matches_rational_ceiling(self, num, den, N):
        if num > den:
            return
        from fractions import Fraction

        tau = num / den
        want = -((-Fraction(num, den) * N) // 1)  # exact ceiling
        assert intolerance_threshold(tau, N) == int(want)

    def test_threshold_exact(self):
        assert intolerance_threshold(0.5, 9) == 5
        assert intolerance_threshold(0.2, 25) == 5  # no float drift
        assert intolerance_threshold(0.45, 441) == 199
        assert intolerance_threshold(0.42, 441) == 186
        assert intolerance_threshold(1.0, 9) == 9
        assert intolerance_threshold(0.0, 9) == 0

    def test_derived_fields(self):
        cfg = GridConfig(n=64, w=2, tau_tilde=0.45, seed=1)
        assert cfg.N == 25
        assert cfg.K == 12
        assert cfg.tau == 12 / 25
        assert cfg.eligible_max_count == min(cfg.K - 1, cfg.N + 1 - cfg.K)

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(n=2, w=1, tau_tilde=0.5),  # n < 2w+1
            dict(n=10, w=2, tau_tilde=0.5),  # n < 8w without override
            dict(n=64, w=2, tau_tilde=1.5),
            dict(n=64, w=2, tau_tilde=0.5, p=-0.1),
            dict(n=64, w=0, tau_tilde=0.5),
            dict(n=728, w=91, tau_tilde=0.45),  # N = 183^2 > 32767, the int16 count range
        ],
    )
    def test_invalid_config(self, kwargs):
        with pytest.raises(ConfigError):
            GridConfig(**kwargs)

    def test_largest_w_fits_int16_counts(self):
        assert GridConfig(n=181, w=90, tau_tilde=0.5, allow_small=True).N == 32761
        with pytest.raises(ConfigError, match="w must be <= 90"):
            GridConfig(n=183, w=91, tau_tilde=0.5, allow_small=True)

    def test_generator_is_not_a_setting(self):
        # Every stream is pcg64; a config that named another would report a
        # generator that never ran.
        with pytest.raises(TypeError):
            GridConfig(n=64, w=2, tau_tilde=0.45, rng_id="philox")
        assert GridConfig(n=64, w=2, tau_tilde=0.45).to_dict()["rng_id"] == RNG_ID == "pcg64"

    def test_small_grid_override(self):
        cfg = GridConfig(n=10, w=2, tau_tilde=0.5, allow_small=True)
        assert cfg.n == 10

    def test_round_radius_half_up(self):
        assert round_radius(13.5) == 14
        assert round_radius(0.5) == 1
        assert round_radius(1.49) == 1
        assert round_radius(5.0) == 5

    def test_negative_seed_normalized_to_u64(self):
        cfg = GridConfig(n=16, w=1, tau_tilde=0.5, seed=-5, allow_small=True)
        assert cfg.seed == (1 << 64) - 5
        state = new_random(cfg)  # must be snapshot-packable as u64
        from segsim.snapshot import snapshot_read, snapshot_write

        assert snapshot_read(snapshot_write(state)).config.seed == cfg.seed


class TestNewRandom:
    def test_degenerate_all_plus(self):
        cfg = GridConfig(n=12, w=1, tau_tilde=0.5, p=1.0, seed=3, allow_small=True)
        state = new_random(cfg)
        assert (state.types == 1).all()
        assert (state.same_count == cfg.N).all()

    def test_degenerate_all_minus(self):
        cfg = GridConfig(n=12, w=2, tau_tilde=0.5, p=0.0, seed=3, allow_small=True)
        state = new_random(cfg)
        assert (state.types == -1).all()
        assert (state.same_count == cfg.N).all()

    def test_balanced_fill_within_3_sigma(self):
        # 4096 cells at p = 1/2: binomial 3-sigma window around 1/2.
        cfg = GridConfig(n=64, w=1, tau_tilde=0.5, p=0.5, seed=11, allow_small=True)
        state = new_random(cfg)
        frac = (state.types == 1).mean()
        sigma = math.sqrt(0.25 / 64**2)
        assert abs(frac - 0.5) < 3 * sigma

    def test_deterministic(self):
        a = random_state(16, 1, 0.45, seed=5)
        b = random_state(16, 1, 0.45, seed=5)
        assert np.array_equal(a.types, b.types)


class TestCounts:
    @given(
        n=st.integers(6, 14),
        w=st.integers(1, 2),
        seed=st.integers(0, 10_000),
    )
    @settings(max_examples=40, deadline=None)
    def test_same_count_matches_bruteforce(self, n, w, seed):
        if n < 2 * w + 1:
            return
        state = random_state(n, w, 0.45, seed)
        assert np.array_equal(state.same_count, same_counts_bruteforce(state.types, w))

    def test_self_always_counted(self):
        state = random_state(12, 1, 0.45, seed=2)
        assert state.same_count.min() >= 1
        assert state.same_count.max() <= state.config.N

    def test_eligibility_rederivable(self):
        state = random_state(16, 2, 0.4, seed=7)
        assert state.audit_consistent()


class TestHappiness:
    def test_all_plus_happy(self):
        cfg = GridConfig(n=12, w=1, tau_tilde=0.5, p=1.0, seed=0, allow_small=True)
        state = new_random(cfg)
        assert cfg.K == 5
        assert happiness_state(state, (4, 7)) is Happiness.HAPPY

    def test_checkerboard_happy_at_half(self):
        # 3x3 window at any cell: center plus 4 diagonal cells share its type.
        cfg = GridConfig(n=12, w=1, tau_tilde=0.5, seed=0, allow_small=True)
        state = state_from_types(cfg, checkerboard(12))
        assert (state.same_count == 5).all()
        for u in [(0, 0), (3, 8), (11, 11)]:
            assert happiness_state(state, u) is Happiness.HAPPY

    def test_single_minus_is_eligible(self):
        cfg = GridConfig(n=12, w=1, tau_tilde=0.5, seed=0, allow_small=True)
        types = np.ones((12, 12), np.int8)
        types[5, 5] = -1
        state = state_from_types(cfg, types)
        assert happiness_state(state, (5, 5)) is Happiness.UNHAPPY_ELIGIBLE
        assert state.elig_count == 1

    @given(n=st.integers(7, 12), seed=st.integers(0, 5000), tau=st.sampled_from([0.2, 0.35, 0.45, 0.5]))
    @settings(max_examples=30, deadline=None)
    def test_unhappy_implies_eligible_below_half(self, n, seed, tau):
        # For K <= ceil(N/2), a flip always reaches the threshold.
        state = random_state(n, 1, tau, seed)
        cfg = state.config
        assert cfg.K <= math.ceil(cfg.N / 2)
        unhappy = state.same_count < cfg.K
        eligible = np.zeros(n * n, bool)
        eligible[state.elig_cells[: state.elig_count]] = True
        assert np.array_equal(unhappy.ravel(), eligible)


class TestApplyFlip:
    def test_single_minus_flip_clears_grid(self):
        cfg = GridConfig(n=12, w=1, tau_tilde=0.5, seed=0, allow_small=True)
        types = np.ones((12, 12), np.int8)
        types[5, 5] = -1
        state = state_from_types(cfg, types)
        ev = apply_flip(state, (5, 5))
        assert ev.pre_count == 1
        assert (state.types == 1).all()
        assert state.elig_count == 0
        assert state.audit_consistent()

    def test_new_count_identity(self):
        state = random_state(16, 2, 0.45, seed=13)
        cfg = state.config
        cell = int(state.elig_cells[0])
        u = (cell // 16, cell % 16)
        pre = int(state.same_count[u])
        apply_flip(state, u)
        assert int(state.same_count[u]) == cfg.N - pre + 1

    def test_ineligible_flip_rejected(self):
        cfg = GridConfig(n=12, w=1, tau_tilde=0.5, p=1.0, seed=0, allow_small=True)
        state = new_random(cfg)
        with pytest.raises(IneligibleFlipError):
            apply_flip(state, (3, 3))

    def test_counts_consistent_after_random_flips(self):
        state = random_state(14, 2, 0.45, seed=4)
        rng = generator(99)
        for _ in range(60):
            if state.elig_count == 0:
                break
            j = int(rng.integers(state.elig_count))
            cell = int(state.elig_cells[j])
            apply_flip(state, (cell // 14, cell % 14))
            assert state.audit_consistent()

    def test_lyapunov_delta_formula(self):
        state = random_state(14, 1, 0.45, seed=21)
        cfg = state.config
        rng = generator(7)
        for _ in range(40):
            if state.elig_count == 0:
                break
            phi_before = int(state.same_count.sum(dtype=np.int64))
            j = int(rng.integers(state.elig_count))
            cell = int(state.elig_cells[j])
            ev = apply_flip(state, (cell // 14, cell % 14))
            phi_after = int(state.same_count.sum(dtype=np.int64))
            assert phi_after - phi_before == 2 * (cfg.N - 2 * ev.pre_count + 1)
            assert phi_after > phi_before


class TestNegationEquivariance:
    def test_negated_trajectory(self):
        state = random_state(16, 1, 0.45, seed=31)
        mirror = state_from_types(state.config, -state.types)
        rng_a = generator(5)
        rng_b = generator(5)
        for _ in range(80):
            if state.elig_count == 0:
                assert mirror.elig_count == 0
                break
            assert state.elig_count == mirror.elig_count
            j = int(rng_a.integers(state.elig_count))
            j_mirror = int(rng_b.integers(mirror.elig_count))
            assert j == j_mirror  # identical streams make identical choices
            cell = int(state.elig_cells[j])
            assert cell == int(mirror.elig_cells[j])
            apply_flip(state, (cell // 16, cell % 16))
            apply_flip(mirror, (cell // 16, cell % 16))
            assert np.array_equal(state.types, -mirror.types)


class TestRectCounts:
    def test_all_plus_area(self):
        cfg = GridConfig(n=10, w=1, tau_tilde=0.5, p=1.0, seed=0, allow_small=True)
        state = new_random(cfg)
        assert plus_count_in_rect(state, (3, 4, 5, 6)) == 30

    def test_checkerboard_half(self):
        cfg = GridConfig(n=12, w=1, tau_tilde=0.5, seed=0, allow_small=True)
        state = state_from_types(cfg, checkerboard(12))
        # any even-side square holds exactly half of each type
        assert plus_count_in_rect(state, (1, 5, 4, 4)) == 8
        assert plus_count_in_rect(state, (3, 0, 6, 6)) == 18
        assert plus_count_in_rect(state, (1, 5, 4, 6)) == 12

    def test_random_rects_match_bruteforce(self):
        state = random_state(16, 1, 0.45, seed=8)
        rng = generator(12)
        plus = (state.types > 0).astype(int)
        for _ in range(20):
            r0, c0 = int(rng.integers(16)), int(rng.integers(16))
            h, w_ = int(rng.integers(1, 17)), int(rng.integers(1, 17))
            rows = (np.arange(r0, r0 + h)) % 16
            cols = (np.arange(c0, c0 + w_)) % 16
            expected = int(plus[np.ix_(rows, cols)].sum())
            assert plus_count_in_rect(state, (r0, c0, h, w_)) == expected

    def test_array_queries_match_bruteforce(self):
        # Batches where no rectangle wraps, only rows or columns wrap, or both.
        state = random_state(16, 1, 0.45, seed=10)
        prefix = TorusPrefix(state.types > 0)
        plus = (state.types > 0).astype(int)
        rng = generator(13)
        for top in (4, 16):
            r0 = rng.integers(0, 16, (3, 5))
            c0 = rng.integers(0, 16, (3, 5))
            h = np.minimum(rng.integers(0, top + 1, (3, 5)), 16 - r0 if top == 4 else 16)
            w_ = np.minimum(rng.integers(0, top + 1, (3, 5)), 16 - c0 if top == 4 else 16)
            for hh, ww in ((h, w_), (h, np.minimum(w_, 16 - c0)), (np.minimum(h, 16 - r0), w_)):
                got = prefix.rect(r0, c0, hh, ww)
                for idx in np.ndindex(r0.shape):
                    rows = np.arange(r0[idx], r0[idx] + hh[idx]) % 16
                    cols = np.arange(c0[idx], c0[idx] + ww[idx]) % 16
                    assert got[idx] == plus[np.ix_(rows, cols)].sum()

    def test_rect_tracks_flips(self):
        state = random_state(12, 1, 0.45, seed=9)
        before = plus_count_in_rect(state, (0, 0, 12, 12))
        cell = int(state.elig_cells[0])
        u = (cell // 12, cell % 12)
        delta = 1 if state.types[u] == -1 else -1
        apply_flip(state, u)
        assert plus_count_in_rect(state, (0, 0, 12, 12)) == before + delta

    @given(seed=st.integers(0, 3000))
    @settings(max_examples=25, deadline=None)
    def test_prefix_wrapping(self, seed):
        rng = generator(seed)
        grid = rng.random((9, 9)) < 0.5
        prefix = TorusPrefix(grid)
        r0, c0 = int(rng.integers(9)), int(rng.integers(9))
        h, w_ = int(rng.integers(0, 10)), int(rng.integers(0, 10))
        rows = (np.arange(r0, r0 + h)) % 9
        cols = (np.arange(c0, c0 + w_)) % 9
        expected = int(grid[np.ix_(rows, cols)].sum()) if h and w_ else 0
        assert prefix.rect(r0, c0, h, w_) == expected


@pytest.mark.parametrize("n", [1, 2, 5, 8])
def test_periodic_matches_tiled_cumsum(n):
    """TorusPrefix.periodic at every (x, y) in [-n, 2n]^2 equals the prefix
    sum of the grid tiled 3 x 3, counted from the middle tile's corner;
    the whole index grid in one broadcast call, and scalar calls."""
    rng = generator(700 + n)
    for grid in (rng.random((n, n)) < 0.5, np.ones((n, n), bool), np.zeros((n, n), bool)):
        C = np.zeros((3 * n + 1, 3 * n + 1), dtype=np.int64)
        C[1:, 1:] = np.tile(grid, (3, 3)).cumsum(0).cumsum(1)
        want = C - C[n] - C[:, n : n + 1] + C[n, n]
        x = np.arange(-n, 2 * n + 1)
        got = TorusPrefix(grid).periodic(x[:, None], x[None, :])
        assert got.dtype == np.int64 and np.array_equal(got, want)
        for xi, yi in rng.integers(-n, 2 * n + 1, (10, 2)).tolist():
            assert TorusPrefix(grid).periodic(xi, yi) == want[xi + n, yi + n]


@pytest.mark.parametrize("n", [1, 2, 3, 9, 10, 64])
def test_prefix_kernel_matches_numpy_cumsum(n, monkeypatch):
    """TorusPrefix's table from the compiled kernel equals the numpy double
    cumsum, its reference, and a plain cumsum of the 0/1 grid: random,
    all-True and all-False masks, and non-contiguous and non-bool inputs."""
    if segsim._kernels.prefix_table is None:
        pytest.skip(segsim._kernels.load_error)
    rng = generator(500 + n)
    masks = [rng.random((n, n)) < p for p in (0.2, 0.5, 0.8)]
    masks += [np.ones((n, n), bool), np.zeros((n, n), bool)]
    wide = rng.random((2 * n, 2 * n)) < 0.5
    inputs = masks + [wide[::2, 1::2], wide[:n, n:], masks[1].T,
                      masks[1].astype(np.int8), masks[1].astype(np.float64)]
    with_c = [TorusPrefix(x).sat for x in inputs]
    monkeypatch.setattr(segsim._kernels, "prefix_table", None)
    for x, sat in zip(inputs, with_c):
        ref = TorusPrefix(x).sat
        assert sat.dtype == ref.dtype == np.int64 and sat.shape == (n + 1, n + 1)
        assert np.array_equal(sat, ref)
        assert not ref[0].any() and not ref[:, 0].any()
        assert np.array_equal(ref[1:, 1:], np.asarray(x, dtype=np.int64).cumsum(0).cumsum(1))


def test_box_same_counts_matches_oracle():
    rng = generator(77)
    types = np.where(rng.random((11, 11)) < 0.5, 1, -1).astype(np.int8)
    assert np.array_equal(box_same_counts(types, 2), same_counts_bruteforce(types, 2))


@pytest.mark.parametrize("n,w", [(3, 1), (21, 10), (64, 3), (400, 10)])
def test_box_same_counts_matches_oracle_across_windows(n, w):
    """Windows from the whole torus (n = 2w+1) down to small ones on a large
    torus; the output keeps its int32 dtype."""
    rng = generator(1000 + n + w)
    types = np.where(rng.random((n, n)) < 0.3, 1, -1).astype(np.int8)
    got = box_same_counts(types, w)
    assert got.dtype == np.int32
    assert np.array_equal(got, same_counts_bruteforce(types, w))


@pytest.mark.parametrize("n,w", [(512, 2), (5, 2), (21, 10), (3, 1), (63, 4), (101, 17)])
def test_count_kernel_matches_oracle(n, w, monkeypatch):
    """The initial same-type counts from the compiled kernel equal the
    roll-and-sum oracle and box_same_counts, their reference: at n = 512,
    at n = 2w+1 and on odd tori, for a random fill, one type and a
    checkerboard; a state built with the library off holds the same counts."""
    if segsim._kernels.box_counts is None:
        pytest.skip(segsim._kernels.load_error)
    rng = generator(2000 + n + w)
    grids = [np.where(rng.random((n, n)) < p, 1, -1).astype(np.int8) for p in (0.3, 0.5)]
    grids += [np.ones((n, n), np.int8), -np.ones((n, n), np.int8), checkerboard(n)]
    cfg = GridConfig(n=n, w=w, tau_tilde=0.45, allow_small=True)
    states = [state_from_types(cfg, types) for types in grids]
    for types, state in zip(grids, states):
        assert state.same_count.dtype == np.int32
        assert np.array_equal(state.same_count, same_counts_bruteforce(types, w))
    monkeypatch.setattr(segsim._kernels, "box_counts", None)
    for types, state in zip(grids, states):
        ref = state_from_types(cfg, types)
        assert np.array_equal(ref.same_count, state.same_count)
        assert np.array_equal(ref.elig_cells, state.elig_cells) and ref.elig_count == state.elig_count
