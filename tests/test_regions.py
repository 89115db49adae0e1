import functools
import json
import math

import numpy as np
import pytest

from segsim import GridConfig, _kernels, new_random, state_from_types
from segsim.dynamics import RunLimits, run_to_termination
from segsim.regions import (
    RegionMeasure,
    _dilate,
    _largest_mono_regions,
    _minority_bound,
    _radius_pass,
    almost_mono_radius_map,
    almost_mono_radius_of,
    center_radius_map,
    compute_region_summary,
    largest_mono_region,
    max_region_radius,
    mono_radius_all,
    mono_region_of,
)
from segsim.rng import STREAM_DYNAMICS, STREAM_MEASURE, generator


def checkerboard(n):
    idx = np.add.outer(np.arange(n), np.arange(n))
    return np.where(idx % 2 == 0, 1, -1).astype(np.int8)


def make_state(types, w=1, tau=0.45):
    n = types.shape[0]
    cfg = GridConfig(n=n, w=w, tau_tilde=tau, seed=0, allow_small=True)
    return state_from_types(cfg, types)


def random_types(n, seed):
    rng = generator(seed)
    return np.where(rng.random((n, n)) < 0.5, 1, -1).astype(np.int8)


def edge_states(random_seed):
    """Random, all-plus and single-speck states at an odd side (2R+1 = n: the
    largest window spans the torus) and an even side (2R+1 = n - 1)."""
    cases = []
    for n in (9, 10):
        plus = np.ones((n, n), np.int8)
        speck = plus.copy()
        speck[n // 2, n // 3] = -1
        cases += [
            pytest.param(random_types(n, random_seed + n), id=f"random-{n}"),
            pytest.param(plus, id=f"plus-{n}"),
            pytest.param(speck, id=f"speck-{n}"),
        ]
    return cases


# -- exhaustive oracles --------------------------------------------------------


def oracle_center_radius(types):
    n = types.shape[0]
    R = (n - 1) // 2
    out = np.zeros((n, n), dtype=int)
    for r in range(n):
        for c in range(n):
            best = 0
            for rho in range(1, R + 1):
                rows = (np.arange(r - rho, r + rho + 1)) % n
                cols = (np.arange(c - rho, c + rho + 1)) % n
                win = types[np.ix_(rows, cols)]
                if (win == types[r, c]).all():
                    best = rho
                else:
                    break
            out[r, c] = best
    return out


def oracle_mono_region(types, u, r_map=None):
    n = types.shape[0]
    r = oracle_center_radius(types) if r_map is None else r_map
    best = 0
    for cr in range(n):
        for cc in range(n):
            dr = min(abs(u[0] - cr), n - abs(u[0] - cr))
            dc = min(abs(u[1] - cc), n - abs(u[1] - cc))
            if max(dr, dc) <= r[cr, cc]:
                best = max(best, int(r[cr, cc]))
    return best


def oracle_almost_qualifies(types, c, rho, threshold):
    n = types.shape[0]
    rows = (np.arange(c[0] - rho, c[0] + rho + 1)) % n
    cols = (np.arange(c[1] - rho, c[1] + rho + 1)) % n
    win = types[np.ix_(rows, cols)]
    plus = int((win == 1).sum())
    area = win.size
    minority = min(plus, area - plus)
    majority = area - minority
    return minority <= threshold * majority


def oracle_almost_radius(types, u, threshold):
    n = types.shape[0]
    R = (n - 1) // 2
    for rho in range(R, -1, -1):
        for dr in range(-rho, rho + 1):
            for dc in range(-rho, rho + 1):
                c = ((u[0] + dr) % n, (u[1] + dc) % n)
                if oracle_almost_qualifies(types, c, rho, threshold):
                    return rho
    return 0


# -- tests ---------------------------------------------------------------------


class TestCenterRadiusMap:
    def test_all_plus(self):
        state = make_state(np.ones((9, 9), np.int8))
        assert (center_radius_map(state) == 4).all()

    def test_checkerboard(self):
        state = make_state(checkerboard(10))
        assert (center_radius_map(state) == 0).all()

    @pytest.mark.parametrize("seed", range(10))
    def test_matches_exhaustive_oracle(self, seed):
        types = random_types(12, seed)
        state = make_state(types)
        assert np.array_equal(center_radius_map(state), oracle_center_radius(types))

    def test_monotone_under_minus_to_plus_flip(self):
        types = random_types(12, 3)
        state = make_state(types)
        before = center_radius_map(state)
        minus = np.argwhere(types == -1)
        flipped = types.copy()
        flipped[tuple(minus[0])] = 1
        after = center_radius_map(make_state(flipped))
        plus_centers = types == 1
        assert (after[plus_centers] >= before[plus_centers]).all()


class TestMonoRegionOf:
    def test_all_plus(self):
        state = make_state(np.ones((9, 9), np.int8))
        assert mono_region_of(state, (2, 7)) == (4, 81)

    def test_checkerboard(self):
        state = make_state(checkerboard(10))
        assert mono_region_of(state, (3, 3)) == (0, 1)

    def test_half_split_grid(self):
        # Columns 0-7 all +1, 8-15 all -1: (3,3) sits in a radius-3 region.
        types = np.ones((16, 16), np.int8)
        types[:, 8:] = -1
        state = make_state(types)
        assert mono_region_of(state, (3, 3)) == (3, 49)
        assert oracle_mono_region(types, (3, 3)) == 3

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_oracle(self, seed):
        types = random_types(12, 100 + seed)
        state = make_state(types)
        r_map = oracle_center_radius(types)
        for u in [(0, 0), (5, 7), (11, 3), (6, 6)]:
            assert mono_region_of(state, u)[0] == oracle_mono_region(types, u, r_map)

    @pytest.mark.parametrize(
        "types",
        [pytest.param(random_types(11, 200 + seed), id=str(seed)) for seed in range(3)]
        + edge_states(210),
    )
    def test_stamped_map_matches_per_agent(self, types):
        n = types.shape[0]
        state = make_state(types)
        stamped = mono_radius_all(state)
        for r in range(n):
            for c in range(n):
                assert stamped[r, c] == mono_region_of(state, (r, c))[0]


class TestLargestMonoRegion:
    def test_all_plus(self):
        state = make_state(np.ones((9, 9), np.int8))
        assert largest_mono_region(state, 1) == ((0, 0), 4)
        assert largest_mono_region(state, -1) is None

    def test_checkerboard_radius_zero(self):
        state = make_state(checkerboard(10))
        assert largest_mono_region(state, 1)[1] == 0
        assert largest_mono_region(state, -1)[1] == 0

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_oracle(self, seed):
        types = random_types(12, 300 + seed)
        state = make_state(types)
        r = oracle_center_radius(types)
        for tval in (1, -1):
            got = largest_mono_region(state, tval)
            masked = np.where(types == tval, r, -1)
            flat = int(np.argmax(masked))
            assert got == ((flat // 12, flat % 12), int(masked.ravel()[flat]))

    def test_summary_pass_matches_per_type_calls(self):
        """compute_region_summary's one pass for both types gives the
        entries of one largest_mono_region call per type: on random tori,
        one-type tori, the all-tied checkerboard and terminated states."""
        grids = [random_types(12, 310 + seed) for seed in range(5)]
        grids += [np.ones((9, 9), np.int8), -np.ones((9, 9), np.int8), checkerboard(10)]
        for seed in range(3):
            state = new_random(GridConfig(n=40, w=2, tau_tilde=0.42, seed=seed, allow_small=True))
            run_to_termination(state, generator(seed, STREAM_DYNAMICS))
            grids.append(state.types)
        for types in grids:
            state = make_state(types)
            r = center_radius_map(state)
            want = {}
            for name, tval in (("plus", 1), ("minus", -1)):
                hit = largest_mono_region(state, tval, r)
                want[name] = None if hit is None else {"center": list(hit[0]), "radius": hit[1]}
            got = _largest_mono_regions(state.types, r)
            assert json.dumps(got) == json.dumps(want)


class TestAlmostMono:
    def test_all_plus_equals_mono(self):
        state = make_state(np.ones((9, 9), np.int8))
        assert almost_mono_radius_of(state, (4, 4), 0.25)[:2] == mono_region_of(state, (4, 4))

    def test_single_speck_tolerated_at_large_w(self):
        # w = 10: threshold exp(-441^{0.25}) ~ 0.0102; one -1 cell inside a
        # large +1 window keeps the ratio far below it.
        n = 83
        types = np.ones((n, n), np.int8)
        types[41, 41] = -1
        cfg = GridConfig(n=n, w=10, tau_tilde=0.45, seed=0, allow_small=True)
        state = state_from_types(cfg, types)
        threshold = math.exp(-(441**0.25))
        assert 1 / 1680 <= threshold
        radius, size, ratio = almost_mono_radius_of(state, (41, 41), 0.25)
        assert radius == max_region_radius(n) == 41
        assert ratio == pytest.approx(1 / (83**2 - 1))
        # The mono region of the speck itself is trivial.
        assert mono_region_of(state, (41, 41))[0] == 0

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_exhaustive_oracle(self, seed):
        types = random_types(12, 400 + seed)
        cfg = GridConfig(n=12, w=2, tau_tilde=0.45, seed=0, allow_small=True)
        state = state_from_types(cfg, types)
        threshold = math.exp(-(cfg.N**0.25))
        for u in [(0, 0), (4, 9), (11, 11)]:
            got = almost_mono_radius_of(state, u, 0.25)[0]
            assert got == oracle_almost_radius(types, u, threshold)

    @pytest.mark.parametrize(
        "types",
        [pytest.param(random_types(10, 500 + seed), id=str(seed)) for seed in range(3)]
        + edge_states(510),
    )
    def test_map_matches_per_agent(self, types):
        n = types.shape[0]
        cfg = GridConfig(n=n, w=1, tau_tilde=0.45, seed=0, allow_small=True)
        state = state_from_types(cfg, types)
        amap = almost_mono_radius_map(state, 0.25)
        for r in range(n):
            for c in range(n):
                assert amap[r, c] == almost_mono_radius_of(state, (r, c), 0.25)[0]

    @pytest.mark.parametrize("seed", range(4))
    def test_mprime_at_least_m(self, seed):
        types = random_types(12, 600 + seed)
        state = make_state(types, w=2)
        amap = almost_mono_radius_map(state, 0.25)
        stamped = mono_radius_all(state)
        assert (amap >= stamped).all()

    def test_eps_domain(self):
        state = make_state(np.ones((9, 9), np.int8))
        with pytest.raises(ValueError):
            almost_mono_radius_of(state, (0, 0), 0.75)
        for sample_size, eps in ((-1, 0.25), (16, 0.5), (0, 0.0)):
            with pytest.raises(ValueError):
                RegionMeasure(sample_size=sample_size, eps=eps)
            with pytest.raises(ValueError):
                compute_region_summary(state, sample_size=sample_size, eps=eps)


class TestTranslationInvariance:
    def test_outputs_translate(self):
        types = random_types(12, 9)
        state = make_state(types)
        dr, dc = 5, 8
        rolled = make_state(np.roll(np.roll(types, dr, axis=0), dc, axis=1))
        r0 = center_radius_map(state)
        r1 = center_radius_map(rolled)
        assert np.array_equal(np.roll(np.roll(r0, dr, axis=0), dc, axis=1), r1)
        u = (3, 4)
        assert mono_region_of(state, u) == mono_region_of(rolled, ((u[0] + dr) % 12, (u[1] + dc) % 12))
        a0 = almost_mono_radius_of(state, u, 0.25)
        a1 = almost_mono_radius_of(rolled, ((u[0] + dr) % 12, (u[1] + dc) % 12), 0.25)
        assert a0 == a1


class TestRegionSummary:
    def test_summary_fields_and_determinism(self):
        cfg = GridConfig(n=32, w=1, tau_tilde=0.45, seed=77, allow_small=True)
        state = new_random(cfg)
        s1 = compute_region_summary(state, sample_size=64, eps=0.25)
        s2 = compute_region_summary(state, sample_size=64, eps=0.25)
        assert s1.to_dict() == s2.to_dict()
        assert s1.sample_size == 64
        assert s1.mean_Mprime >= s1.mean_M
        assert sum(s1.m_radius_histogram.values()) >= 64
        assert set(s1.to_dict()) == {
            "largest_plus", "largest_minus", "sample_size", "eps", "mean_M", "stderr_M",
            "mean_Mprime", "stderr_Mprime", "m_radius_histogram"}

    def test_sampled_cells_match_oracles(self):
        # The summary reads its sampled agents from the all-agent maps; redraw
        # the same agents and measure each one with the per-agent functions.
        cfg = GridConfig(n=24, w=1, tau_tilde=0.45, seed=3, allow_small=True)
        state = new_random(cfg)
        s = compute_region_summary(state, sample_size=32, eps=0.25)
        cells = generator(cfg.seed, STREAM_MEASURE).choice(24 * 24, size=32, replace=False)
        top = int(np.argmax(center_radius_map(state)))
        if top not in cells:
            cells = np.concatenate([cells, [top]])
        agents = [divmod(int(c), 24) for c in cells]
        m = np.array([mono_region_of(state, u)[0] for u in agents])
        mp = np.array([almost_mono_radius_of(state, u, 0.25)[0] for u in agents])
        values, counts = np.unique(m, return_counts=True)
        assert s.m_radius_histogram == {int(v): int(c) for v, c in zip(values, counts)}
        assert s.mean_M == float(((2 * m.astype(np.float64) + 1) ** 2).mean())
        assert s.mean_Mprime == float(((2 * mp.astype(np.float64) + 1) ** 2).mean())

    def test_zero_sample_size(self):
        cfg = GridConfig(n=24, w=1, tau_tilde=0.45, seed=3, allow_small=True)
        state = new_random(cfg)
        s = compute_region_summary(state, sample_size=0)
        assert s.mean_M is None
        assert s.largest_plus is not None


# -- compiled region kernels against the numpy reference and the oracles ------


def oracle_qualify_levels(types, threshold):
    """qual[rho][c]: the radius-rho window at c passes the ratio test."""
    n = types.shape[0]
    R = (n - 1) // 2
    return [
        np.array([[oracle_almost_qualifies(types, (r, c), rho, threshold) for c in range(n)]
                  for r in range(n)])
        for rho in range(R + 1)
    ]


def oracle_mprime_map(qual):
    """Largest rho with a passing radius-rho window within rho of the agent."""
    n = qual[0].shape[0]
    out = np.zeros((n, n), dtype=int)
    for ur in range(n):
        for uc in range(n):
            for rho in range(len(qual) - 1, -1, -1):
                rows = np.arange(ur - rho, ur + rho + 1) % n
                cols = np.arange(uc - rho, uc + rho + 1) % n
                if qual[rho][np.ix_(rows, cols)].any():
                    out[ur, uc] = rho
                    break
    return out


def kernel_states():
    """n = 3, odd n = 2R+1, even n; all-plus, one speck, random and terminated.

    On an even side the one center whose radius-R window misses a speck at
    (1, 1) sits at (n - R, n - R), and its window reaches row and column 0
    only across the wrap; for a speck at (n - 2, n - 2) it sits at
    (R - 1, R - 1) and reaches row and column n - 1 only across the wrap.
    The island (a plus 5x5 square holding two minus cells, in a minus field)
    has a center whose 3x3 window fails and whose 5x5 window passes with its
    minority count exactly at the bound at w = 2, eps = 0.25 and at w = 1,
    eps = 0.4.
    """
    cases = []
    for n, w in ((3, 1), (9, 1), (10, 1), (11, 2), (12, 2)):
        plus = np.ones((n, n), np.int8)
        speck = plus.copy()
        speck[n // 2, n // 3] = -1
        corner, far = plus.copy(), plus.copy()
        corner[1, 1] = far[n - 2, n - 2] = -1
        island = -plus
        c = n // 2
        island[c - 2:c + 3, c - 2:c + 3] = 1
        island[c - 1, c] = island[c, c + 1] = -1
        cfg = GridConfig(n=n, w=w, tau_tilde=0.45, seed=20 + n, allow_small=True)
        done = new_random(cfg)
        run_to_termination(done, generator(cfg.seed, STREAM_DYNAMICS))
        for name, types in (("plus", plus), ("speck", speck), ("corner", corner), ("far", far), ("island", island),
                            ("random", random_types(n, 700 + n)), ("terminated", done.types.copy())):
            cases.append(pytest.param(n, w, types, id=f"{name}-{n}"))
    return cases


def region_maps(state, eps):
    """(r, q, M, M') from the two steps, on whichever path _kernels provides:
    one radius pass at the ratio test's table gives r and q.  Then (r, q)
    of a pass at the zero table."""
    R = max_region_radius(state.n)
    prefix = state.plus_prefix()
    r, q = _radius_pass(prefix, _minority_bound(math.exp(-(state.config.N**eps)), R))
    return (r, q, _dilate(r), _dilate(q), *_radius_pass(prefix, _minority_bound(0.0, R)))


@pytest.mark.parametrize("eps", [0.1, 0.25, 0.4])
@pytest.mark.parametrize("n,w,types", kernel_states())
@pytest.mark.parametrize("path", ["c", "numpy"])
def test_region_maps_match_oracles(path, n, w, types, eps, monkeypatch):
    cfg = GridConfig(n=n, w=w, tau_tilde=0.45, seed=0, allow_small=True)
    state = state_from_types(cfg, types)
    if path == "c":
        if _kernels.radius_pass is None:
            pytest.skip(_kernels.load_error)
        got = region_maps(state, eps)
    monkeypatch.setattr(_kernels, "radius_pass", None)
    monkeypatch.setattr(_kernels, "dilate", None)
    ref = region_maps(state, eps)
    if path == "numpy":
        got = ref
    for path_map, ref_map in zip(got, ref):
        assert path_map.dtype == ref_map.dtype == np.int32
        assert np.array_equal(path_map, ref_map)

    r, q, m, mp, r_zero, q_zero = got
    qual = oracle_qualify_levels(types, math.exp(-(cfg.N**eps)))
    assert np.array_equal(r, oracle_center_radius(types))
    # r does not depend on the bound table, and the zero table gives q = r.
    assert np.array_equal(r_zero, r) and np.array_equal(q_zero, r)
    assert np.array_equal(q, np.max([np.where(lv, rho, 0) for rho, lv in enumerate(qual)], axis=0))
    assert np.array_equal(mp, oracle_mprime_map(qual))
    assert all(m[u] == oracle_mono_region(types, u, r) for u in np.ndindex(n, n))


@pytest.mark.parametrize("eps", [None, 0.1, 0.4])
def test_numpy_pass_stops_at_the_first_level_past_bound_R(eps, monkeypatch):
    """The numpy radius pass reads levels 0..L, where L is the first level at
    which every window's minority count exceeds bound[R] (no later level can
    pass), and the same r and q as the pass over every level; eps None is
    the zero table of r(c).  The levels read are the rho whose bound[rho]
    the loop looks up."""

    class ReadLog(np.ndarray):
        def __getitem__(self, i):
            reads.append(i)
            return super().__getitem__(i)

    cfg = GridConfig(n=40, w=2, tau_tilde=0.42, seed=5, allow_small=True)
    state = new_random(cfg)
    run_to_termination(state, generator(cfg.seed, STREAM_DYNAMICS))
    n, R = cfg.n, max_region_radius(cfg.n)
    bound = _minority_bound(0.0 if eps is None else math.exp(-(cfg.N**eps)), R)
    prefix = state.plus_prefix()
    I, J = np.indices((n, n))
    past = []
    for rho in range(R + 1):
        plus = prefix.window(I, J, rho)
        past.append(bool((np.minimum(plus, (2 * rho + 1) ** 2 - plus) > bound[R]).all()))
    assert True in past[:-1]  # the stop saves levels on this state

    reads = []
    monkeypatch.setattr(_kernels, "radius_pass", None)
    r, q = _radius_pass(prefix, bound.view(ReadLog))
    assert sorted(set(reads) - {R}) == list(range(past.index(True) + 1))
    full_r, full_q = np.zeros((n, n), np.int32), np.zeros((n, n), np.int32)
    for rho in range(R + 1):
        plus = prefix.window(I, J, rho)
        minority = np.minimum(plus, (2 * rho + 1) ** 2 - plus)
        full_r[minority == 0] = rho
        full_q[minority <= bound[rho]] = rho
    assert np.array_equal(np.asarray(r), full_r) and np.array_equal(np.asarray(q), full_q)


@pytest.mark.parametrize("eps", [0.1, 0.25, 0.4])
@pytest.mark.parametrize("N", [9, 25, 441, 10201])
def test_minority_bound_is_the_passing_prefix(N, eps):
    threshold = math.exp(-(N**eps))
    bound = _minority_bound(threshold, 60)
    for rho, b in enumerate(bound):
        area = (2 * rho + 1) ** 2
        m = np.arange(area // 2 + 1)
        passing = np.flatnonzero(m <= threshold * (area - m))
        assert np.array_equal(passing, np.arange(b + 1))


def oracle_radii_at(types, c, threshold):
    """(r, q) at one center from its own windows: the torus is rolled so that
    c sits at (R, R), where every window of radius <= R is a plain slice,
    and the windows are counted from a plain 2-D cumsum of that copy."""
    n = types.shape[0]
    R = (n - 1) // 2
    plus = np.roll(types > 0, (R - c[0], R - c[1]), axis=(0, 1)).astype(np.int64)
    S = np.zeros((n + 1, n + 1), np.int64)
    S[1:, 1:] = plus.cumsum(0).cumsum(1)
    r = q = 0
    for rho in range(R + 1):
        a, b = R - rho, R + rho + 1
        count = int(S[b, b] - S[a, b] - S[b, a] + S[a, a])
        minority = min(count, (2 * rho + 1) ** 2 - count)
        if minority == 0:
            r = rho
        if minority <= threshold * ((2 * rho + 1) ** 2 - minority):
            q = rho
    return r, q


@functools.lru_cache(maxsize=None)
def guess_states():
    """Terminated states at tau = 0.42 on which q drops by more than 1 from
    one column to the next at 1-11 % of the cells for eps 0.1-0.25, with
    the number of such cells to check against the oracle (None: all)."""
    out = []
    for n, w, seed, checked in ((64, 2, 3, None), (400, 10, 7, 150)):
        cfg = GridConfig(n=n, w=w, tau_tilde=0.42, seed=seed, allow_small=True)
        state = new_random(cfg)
        run_to_termination(state, generator(cfg.seed, STREAM_DYNAMICS))
        out.append((state, checked))
    return out


@pytest.mark.parametrize("eps", [0.1, 0.25, 0.4])
def test_radius_pass_where_the_left_guess_can_fail(eps, monkeypatch):
    """The compiled pass starts a center's q scan at its left neighbor's
    level when that level passes there.  Where q drops by more than 1 from
    one column to the next, the guess can fail; such cells exist in these
    grids (at eps = 0.4 only at n = 64, where q differs from r), and there
    r and q equal the numpy pass (everywhere) and a per-center oracle."""
    if _kernels.radius_pass is None:
        pytest.skip(_kernels.load_error)
    found = 0
    for state, checked in guess_states():
        n, threshold = state.n, math.exp(-(state.config.N**eps))
        prefix, bound = state.plus_prefix(), _minority_bound(threshold, max_region_radius(state.n))
        r, q = _radius_pass(prefix, bound)
        with monkeypatch.context() as m:
            m.setattr(_kernels, "radius_pass", None)
            r_ref, q_ref = _radius_pass(prefix, bound)
        assert np.array_equal(r, r_ref) and np.array_equal(q, q_ref)
        rows, cols = np.nonzero(q[:, 1:] < q[:, :-1] - 1)
        assert rows.size > 0 or (eps == 0.4 and n == 400), (n, eps)
        found += rows.size
        pick = np.arange(rows.size)
        if checked is not None and rows.size > checked:
            pick = np.linspace(0, rows.size - 1, checked).astype(int)
        for c in zip(rows[pick], cols[pick] + 1):
            assert (r[c], q[c]) == oracle_radii_at(state.types, c, threshold), (n, eps, c)
    assert found > 0


def oracle_dilate(v):
    """out(u) = max{ v(c) : torus linf(u, c) <= v(c) }, center by center."""
    n = v.shape[0]
    d = np.abs(np.subtract.outer(np.arange(n), np.arange(n)))
    ring = np.minimum(d, n - d)
    out = np.full((n, n), -1)
    for a, b in np.ndindex(n, n):
        reached = np.maximum.outer(ring[a], ring[b]) <= v[a, b]
        np.maximum(out, np.where(reached, v[a, b], -1), out=out)
    return out


def dilation_maps(n, seed):
    """Radius maps in [0, (n-1)/2] that stress the compiled dilation's
    pruning: random values, long plateaus (a full-row and a full-column
    band over blocks of equal values), isolated peaks, pyramids (a few
    apexes with slopes of 1, so that long gaps separate the kept runs), one
    maximum on the wrap corner, one whose square crosses the wrap at row
    and column 0 by one cell, all-zero and all-(n-1)/2."""
    R = (n - 1) // 2
    rng = np.random.default_rng(seed)
    side = max(1, n // 4)
    blocks = rng.integers(0, R + 1, (n // side + 1,) * 2)
    plateaus = np.repeat(np.repeat(blocks, side, axis=0), side, axis=1)[:n, :n]
    plateaus[n // 3, :] = R
    plateaus[:, n // 2] = R // 2
    peaks = np.zeros((n, n), np.int64)
    spots = rng.integers(0, n, (max(1, n // 3), 2))
    peaks[spots[:, 0], spots[:, 1]] = rng.integers(0, R + 1, len(spots))
    d = np.abs(np.subtract.outer(np.arange(n), np.arange(n)))
    ring = np.minimum(d, n - d)
    apexes = rng.integers(0, n, (3, 2))
    pyramids = np.max([R - np.maximum.outer(ring[a], ring[b]) for a, b in apexes], axis=0)
    corner, back = np.zeros((n, n), np.int64), np.zeros((n, n), np.int64)
    corner[n - 1, n - 1] = R
    back[max(R - 1, 0), max(R - 1, 0)] = R
    maps = {"random": rng.integers(0, R + 1, (n, n)), "plateaus": plateaus, "peaks": peaks,
            "pyramids": np.maximum(pyramids, 0), "corner": corner, "back": back,
            "zero": np.zeros((n, n)), "full": np.full((n, n), R)}
    return {name: m.astype(np.int32) for name, m in maps.items()}


@pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 31, 64])
def test_compiled_dilation_matches_the_reference_and_the_oracle(n, monkeypatch):
    """The compiled dilation keeps only the centers no 8-neighbor dominates
    and pushes one deque entry per run of them; on maps built to stress
    that pruning it gives the numpy reference's map, and the brute-force
    oracle's."""
    if _kernels.dilate is None:
        pytest.skip(_kernels.load_error)
    for name, v in dilation_maps(n, 90 + n).items():
        got = _dilate(v)
        with monkeypatch.context() as m:
            m.setattr(_kernels, "dilate", None)
            ref = _dilate(v)
        assert got.dtype == np.int32 and np.array_equal(got, ref), (n, name)
        assert np.array_equal(got, oracle_dilate(v)), (n, name)


def test_compiled_dilation_on_terminated_maps(monkeypatch):
    """The dilations of the r and q maps of terminated states (smooth maps
    with few kept centers per row, and many per column of the row pass's
    output) equal the numpy reference's, and at n = 64 the brute-force
    oracle's."""
    if _kernels.dilate is None:
        pytest.skip(_kernels.load_error)
    for state, _ in guess_states():
        bound = _minority_bound(math.exp(-(state.config.N**0.25)), max_region_radius(state.n))
        for v in _radius_pass(state.plus_prefix(), bound):
            got = _dilate(v)
            with monkeypatch.context() as m:
                m.setattr(_kernels, "dilate", None)
                assert np.array_equal(got, _dilate(v)), state.n
            if state.n <= 64:
                assert np.array_equal(got, oracle_dilate(v))


def dead_levels(prefix, bound):
    """For every center, the first level whose minority count exceeds
    bound[R] (R + 1 when none does): the level from which the compiled pass
    reads no window there."""
    n, R = prefix.n, max_region_radius(prefix.n)
    I, J = np.indices((n, n))
    dead = np.full((n, n), R + 1)
    for rho in range(R, -1, -1):
        plus = prefix.window(I, J, rho)
        dead[np.minimum(plus, (2 * rho + 1) ** 2 - plus) > bound[R]] = rho
    return dead


def skip_states():
    """States on which the compiled pass's skips fire: a staircase (the plus
    region's left edge steps right every other row, so a center's upper
    neighbors reach further than its left one), plus blocks with a minus
    speck just inside an edge, stripes of width w across and down, and a
    checkerboard."""
    cases = []
    for n, w in ((24, 2), (25, 3)):
        I, J = np.indices((n, n))
        stair = np.where((J - I // 2) % n < n // 2, 1, -1)
        blocks = np.where((I // 6 + J // 6) % 2 == 0, 1, -1)
        blocks[(I % 6 == 1) & (J % 6 == 3)] *= -1
        for name, types in (("staircase", stair), ("specks", blocks),
                            ("stripes-across", np.where(I // w % 2 == 0, 1, -1)),
                            ("stripes-down", np.where(J // w % 2 == 0, 1, -1)),
                            ("checkerboard", checkerboard(n))):
            cases.append(pytest.param(name, w, types.astype(np.int8), id=f"{name}-{n}"))
    return cases


@pytest.mark.parametrize("name,w,types", skip_states())
def test_radius_pass_skips_leave_the_maps_unchanged(name, w, types, monkeypatch):
    """The compiled pass starts each r climb at max(r) - 1 over the left,
    up-left, up and up-right neighbors, and reads no level at or above a
    center's dead level, which starts one above the least dead level of its
    upper neighbors.  On states where those skips fire, at the zero table
    and the ratio tables of eps 0.1, 0.25 and 0.4, (r, q) equal the numpy
    pass's."""
    if _kernels.radius_pass is None:
        pytest.skip(_kernels.load_error)
    state = make_state(types, w=w)
    prefix, R = state.plus_prefix(), max_region_radius(state.n)
    for threshold in (0.0, *(math.exp(-(state.config.N**eps)) for eps in (0.1, 0.25, 0.4))):
        bound = _minority_bound(threshold, R)
        r, q = _radius_pass(prefix, bound)
        with monkeypatch.context() as m:
            m.setattr(_kernels, "radius_pass", None)
            r_ref, q_ref = _radius_pass(prefix, bound)
        assert np.array_equal(r, r_ref) and np.array_equal(q, q_ref), threshold
        # From row 1 on, an upper neighbor's dead level caps some center.
        dead = dead_levels(prefix, bound)
        up_dead = np.min([np.roll(dead, (1, s), axis=(0, 1)) for s in (1, 0, -1)], axis=0)
        assert (up_dead[1:] < R).any(), threshold
    if name == "staircase":  # some climb starts above the left neighbor's r - 1
        up_r = np.max([np.roll(r, (1, s), axis=(0, 1)) for s in (1, 0, -1)], axis=0)
        assert (up_r[1:, 1:] > r[1:, :-1]).any()


REGION_KERNELS = ("radius_pass", "dilate", "prefix_table")


def test_summary_bytes_do_not_depend_on_the_kernels(monkeypatch):
    if _kernels.radius_pass is None:
        pytest.skip(_kernels.load_error)
    cfg = GridConfig(n=40, w=2, tau_tilde=0.42, seed=5, allow_small=True)
    state = new_random(cfg)
    run_to_termination(state, generator(cfg.seed, STREAM_DYNAMICS))
    with_c = compute_region_summary(state.copy(), sample_size=64, eps=0.25).to_dict()
    for name in REGION_KERNELS:
        monkeypatch.setattr(_kernels, name, None)
    without = compute_region_summary(state.copy(), sample_size=64, eps=0.25).to_dict()
    assert json.dumps(with_c) == json.dumps(without)


def test_one_prefix_table_per_state_version(monkeypatch):
    import segsim.grid
    from segsim.grid import apply_flip
    from segsim.structures import RadicalSpec, is_radical_region, renormalize

    built = []

    class Counted(segsim.grid.TorusPrefix):
        def __init__(self, plus):
            built.append(plus.shape)
            super().__init__(plus)

    cfg = GridConfig(n=40, w=2, tau_tilde=0.42, seed=6, allow_small=True)
    state = new_random(cfg)
    run_to_termination(state, generator(cfg.seed, STREAM_DYNAMICS), RunLimits(max_flips=50))
    want = compute_region_summary(state.copy(), sample_size=64, eps=0.25).to_dict()
    monkeypatch.setattr(segsim.grid, "TorusPrefix", Counted)
    got = compute_region_summary(state, sample_size=64, eps=0.25).to_dict()
    is_radical_region(state, RadicalSpec((20, 20), 0.35, 0.1))
    renormalize(state, 8, 0.1)
    assert built == [(40, 40)]
    assert json.dumps(got, sort_keys=True) == json.dumps(want, sort_keys=True)
    # One flip makes the table stale: the next reads rebuild it once.
    apply_flip(state, divmod(int(state.eligible_list()[0]), 40))
    r = center_radius_map(state)
    almost_mono_radius_map(state, 0.25)
    assert len(built) == 2
    assert np.array_equal(r, oracle_center_radius(state.types))
