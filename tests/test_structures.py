import math
from collections import deque

import numpy as np
import pytest
from scipy.special import gammaln

from segsim import GridConfig, new_random, state_from_types
from segsim.grid import same_counts_bruteforce
from segsim.percolation import cycle_winds_around
from segsim.rng import generator
from segsim.structures import (
    BlockLattice,
    RadicalSpec,
    annulus_cells,
    bad_cluster_radii,
    classify_block_good,
    find_chemical_path,
    firewall_unconditionally_stable,
    is_expandable,
    is_firewall,
    is_radical_region,
    is_region_of_expansion,
    is_unhappy_region,
    renormalize,
)


def mono_state(n, w, tau, value=1, seed=0):
    cfg = GridConfig(n=n, w=w, tau_tilde=tau, seed=seed, allow_small=True)
    return state_from_types(cfg, np.full((n, n), value, np.int8))


def truncated_binomial_sample(rng, cells, upper):
    """Draw Binomial(cells, 1/2) conditioned strictly below `upper`."""
    ks = np.arange(0, upper)
    logpmf = gammaln(cells + 1) - gammaln(ks + 1) - gammaln(cells - ks + 1) - cells * math.log(2)
    pmf = np.exp(logpmf - logpmf.max())
    pmf /= pmf.sum()
    return int(rng.choice(upper, p=pmf))


class TestRadicalRegion:
    def test_all_plus_true_all_minus_false(self):
        for tt in (0.36, 0.42, 0.45):
            spec = RadicalSpec(center=(32, 32), eps_prime=0.35, eps=0.1)
            splus = mono_state(64, 2, tt, 1)
            sminus = mono_state(64, 2, tt, -1)
            vp = is_radical_region(splus, spec)
            vm = is_radical_region(sminus, spec)
            assert vp.threshold_count >= 1 and not vp.degenerate
            assert bool(vp) and not bool(vm)

    def test_threshold_value_w10(self):
        # w=10, tau=0.45, eps'=0.3, eps=0.1: floor(1.69 (K - N^0.6)) = 271.
        cfg = GridConfig(n=96, w=10, tau_tilde=0.45, seed=0, allow_small=True)
        spec = RadicalSpec(center=(48, 48), eps_prime=0.3, eps=0.1)
        assert spec.radius(10) == 13
        assert spec.threshold_count(cfg) == 271
        tau_hat = spec.tau_hat_value(cfg)
        assert spec.threshold_count(cfg) == math.floor(tau_hat * 1.69 * 441)

    def test_boundary_configuration(self):
        cfg = GridConfig(n=96, w=10, tau_tilde=0.45, seed=0, allow_small=True)
        spec = RadicalSpec(center=(48, 48), eps_prime=0.3, eps=0.1)
        thr = spec.threshold_count(cfg)
        radius = spec.radius(10)
        rng = generator(5)
        for count, expect in ((thr - 1, True), (thr, False)):
            types = np.ones((96, 96), np.int8)
            rows = (np.arange(48 - radius, 48 + radius + 1)) % 96
            flat = rng.choice((2 * radius + 1) ** 2, size=count, replace=False)
            types[rows[flat // (2 * radius + 1)], rows[flat % (2 * radius + 1)]] = -1
            state = state_from_types(cfg, types)
            v = is_radical_region(state, spec)
            assert v.minus_count == count
            assert bool(v) is expect

    def test_eps_prime_flag(self):
        cfg = GridConfig(n=96, w=10, tau_tilde=0.45, seed=0, allow_small=True)
        low = RadicalSpec(center=(48, 48), eps_prime=0.10, eps=0.1)
        high = RadicalSpec(center=(48, 48), eps_prime=0.35, eps=0.1)
        assert low.below_f_infimum(cfg)  # f(0.4512) ~ 0.18
        assert not high.below_f_infimum(cfg)

    def test_region_too_large(self):
        state = mono_state(24, 10, 0.45)
        spec = RadicalSpec(center=(12, 12), eps_prime=0.35, eps=0.1)
        with pytest.raises(ValueError):
            is_radical_region(state, spec)

    def test_translation_invariance(self):
        rng = generator(17)
        types = np.where(rng.random((64, 64)) < 0.5, 1, -1).astype(np.int8)
        cfg = GridConfig(n=64, w=3, tau_tilde=0.42, seed=0)
        state = state_from_types(cfg, types)
        rolled = state_from_types(cfg, np.roll(np.roll(types, 11, axis=0), 23, axis=1))
        for center in ((10, 10), (32, 40)):
            a = is_radical_region(state, RadicalSpec(center=center, eps_prime=0.3))
            b = is_radical_region(
                rolled,
                RadicalSpec(center=((center[0] + 11) % 64, (center[1] + 23) % 64), eps_prime=0.3),
            )
            assert a.minus_count == b.minus_count and bool(a) == bool(b)


class TestUnhappyRegion:
    def test_all_plus_false_with_positive_bound(self):
        cfg = GridConfig(n=96, w=10, tau_tilde=0.45, seed=0, allow_small=True)
        spec = RadicalSpec(center=(48, 48), eps_prime=0.5, eps=0.1)
        assert spec.unhappy_bound(cfg) == 11
        state = mono_state(96, 10, 0.45, 1)
        v = is_unhappy_region(state, spec)
        assert not bool(v) and not v.degenerate and v.unhappy_minus_count == 0

    def test_degenerate_bound_vacuously_true(self):
        cfg = GridConfig(n=96, w=10, tau_tilde=0.45, seed=0, allow_small=True)
        spec = RadicalSpec(center=(48, 48), eps_prime=0.1, eps=0.1)
        assert spec.unhappy_bound(cfg) <= 0
        state = mono_state(96, 10, 0.45, 1)
        v = is_unhappy_region(state, spec)
        assert bool(v) and v.degenerate

    def test_boundary_configuration(self):
        # eps' = 0.5 -> core radius 5, bound 11: isolated -1 cells in a +1 sea
        # are all unhappy, so the count is exactly the number placed.
        cfg = GridConfig(n=96, w=10, tau_tilde=0.45, seed=0, allow_small=True)
        spec = RadicalSpec(center=(48, 48), eps_prime=0.5, eps=0.1)
        bound = spec.unhappy_bound(cfg)
        radius = spec.unhappy_radius(10)
        for count, expect in ((bound, True), (bound - 1, False)):
            types = np.ones((96, 96), np.int8)
            rows = np.arange(48 - radius, 48 + radius + 1) % 96
            flat = np.linspace(0, (2 * radius + 1) ** 2 - 1, count).astype(int)
            types[rows[flat // (2 * radius + 1)], rows[flat % (2 * radius + 1)]] = -1
            state = state_from_types(cfg, types)
            v = is_unhappy_region(state, spec)
            assert v.unhappy_minus_count == count
            assert bool(v) is expect


class TestExpandable:
    def test_center_already_monochromatic(self):
        state = mono_state(64, 2, 0.4, 1)
        res = is_expandable(state, RadicalSpec(center=(32, 32), eps_prime=0.35))
        assert res.target_made_monochromatic and res.flips_used == 0

    def test_all_minus_not_expandable(self):
        # tau < 1/2 and a uniform -1 grid: nobody is unhappy, nothing flips.
        state = mono_state(64, 2, 0.45, -1)
        res = is_expandable(state, RadicalSpec(center=(32, 32), eps_prime=0.35))
        assert not res.target_made_monochromatic and res.flips_used == 0

    def test_lemma4_regime_mostly_expandable(self):
        # w=10, tau=0.45, eps'=0.35 > f(tau): radical regions conditioned on
        # their minority deficit cascade to a monochromatic central block in
        # well over 90% of draws.
        n, w = 128, 10
        cfg = GridConfig(n=n, w=w, tau_tilde=0.45, seed=0, allow_small=True)
        spec = RadicalSpec(center=(n // 2, n // 2), eps_prime=0.35, eps=0.1)
        radius = spec.radius(w)
        thr = spec.threshold_count(cfg)
        area = (2 * radius + 1) ** 2
        hits = 0
        trials = 25
        for i in range(trials):
            rng = generator(9000 + i)
            types = np.where(rng.random((n, n)) < 0.5, 1, -1).astype(np.int8)
            rows = (np.arange(n // 2 - radius, n // 2 + radius + 1)) % n
            types[np.ix_(rows, rows)] = 1
            m = truncated_binomial_sample(rng, area, thr)
            flat = rng.choice(area, size=m, replace=False)
            types[rows[flat // (2 * radius + 1)], rows[flat % (2 * radius + 1)]] = -1
            state = state_from_types(cfg, types)
            assert bool(is_radical_region(state, spec))
            res = is_expandable(state, spec)
            assert res.flips_used <= (w + 1) ** 2
            hits += res.target_made_monochromatic
        assert hits / trials > 0.9


class TestAnnulus:
    def test_oracle_distance_check(self):
        n, r, w = 32, 3, 1
        cells = annulus_cells(n, (10, 10), r, w)
        got = {tuple(c) for c in cells}
        inner = (r - math.sqrt(2) * w) ** 2
        expect = set()
        for dr in range(-r, r + 1):
            for dc in range(-r, r + 1):
                d2 = dr * dr + dc * dc
                if inner <= d2 <= r * r:
                    expect.add(((10 + dr) % n, (10 + dc) % n))
        assert got == expect

    def test_translation_invariance(self):
        a = annulus_cells(64, (10, 12), 8, 2)
        b = annulus_cells(64, (30, 40), 8, 2)
        shift = (b - a) % 64
        assert (shift[:, 0] == 20).all() and (shift[:, 1] == 28).all()

    def test_determinism(self):
        a = annulus_cells(64, (10, 12), 8, 2)
        b = annulus_cells(64, (10, 12), 8, 2)
        assert np.array_equal(a, b)

    def test_preconditions(self):
        with pytest.raises(ValueError):
            annulus_cells(64, (0, 0), 5, 2)  # r < 3w
        with pytest.raises(ValueError):
            annulus_cells(15, (0, 0), 8, 2)  # 2r >= n


class TestFirewall:
    def test_all_plus_true(self):
        state = mono_state(64, 2, 0.4, 1)
        assert is_firewall(state, (32, 32), 8)
        assert firewall_unconditionally_stable(state, (32, 32), 8)

    def test_one_defect_breaks_monochromatic(self):
        state = mono_state(64, 2, 0.4, 1)
        cells = annulus_cells(64, (32, 32), 8, 2)
        types = state.types.copy()
        types[cells[0][0], cells[0][1]] = -1
        broken = state_from_types(state.config, types)
        assert not is_firewall(broken, (32, 32), 8)
        assert not firewall_unconditionally_stable(broken, (32, 32), 8)

    def test_stability_matches_bruteforce_worst_case(self):
        # w=1, K=3, r=6; annulus +1, everything else -1 (the worst interior).
        n, w, r = 48, 1, 6
        cfg = GridConfig(n=n, w=w, tau_tilde=1 / 3, seed=0, allow_small=True)
        assert cfg.K == 3
        cells = annulus_cells(n, (24, 24), r, w)
        types = -np.ones((n, n), np.int8)
        types[cells[:, 0], cells[:, 1]] = 1
        state = state_from_types(cfg, types)
        assert is_firewall(state, (24, 24), r)

        # Independent worst-case check: same-type supporters inside radius r.
        inner = (r - math.sqrt(2) * w) ** 2
        def in_disk(y):
            dr = min(abs(y[0] - 24), n - abs(y[0] - 24))
            dc = min(abs(y[1] - 24), n - abs(y[1] - 24))
            return dr * dr + dc * dc <= r * r
        annulus_set = {tuple(c) for c in cells}
        verdict = True
        for v in annulus_set:
            count = 0
            for dr in range(-w, w + 1):
                for dc in range(-w, w + 1):
                    y = ((v[0] + dr) % n, (v[1] + dc) % n)
                    if in_disk(y) and types[y] == 1:
                        count += 1
            if count < cfg.K:
                verdict = False
        assert firewall_unconditionally_stable(state, (24, 24), r) == verdict


class TestRegionOfExpansion:
    def test_all_plus_vacuous(self):
        state = mono_state(64, 2, 0.4, 1)
        assert bool(is_region_of_expansion(state, (32, 32), 6))

    def oracle(self, state, center, radius):
        """Paint each hypothetical block on a copy, recount, check ring."""
        cfg = state.config
        n, w, K = cfg.n, cfg.w, cfg.K
        h = (w + 1) // 2
        span = radius - h
        for br_off in range(-span, span + 1):
            for bc_off in range(-span, span + 1):
                br = (center[0] + br_off) % n
                bc = (center[1] + bc_off) % n
                painted = state.types.copy()
                rows = np.arange(br - h, br + h + 1) % n
                cols = np.arange(bc - h, bc + h + 1) % n
                painted[np.ix_(rows, cols)] = 1
                counts = same_counts_bruteforce(painted, w)
                rim = h + 1
                for dr in range(-rim, rim + 1):
                    for dc in range(-rim, rim + 1):
                        if max(abs(dr), abs(dc)) != rim:
                            continue
                        v = ((br + dr) % n, (bc + dc) % n)
                        if painted[v] != -1:
                            continue
                        if counts[v] >= K:
                            return False
        return True

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_direct_recount_oracle(self, seed):
        cfg = GridConfig(n=24, w=2, tau_tilde=0.45, seed=seed, allow_small=True)
        state = new_random(cfg)
        got = bool(is_region_of_expansion(state, (12, 12), 4))
        assert got == self.oracle(state, (12, 12), 4)

    def test_all_minus_region(self):
        # A -1 sea at moderate tau: the hypothetical +1 block must make its
        # rim unhappy; verdict agrees with the recount oracle.
        state = mono_state(32, 3, 0.45, -1)
        got = bool(is_region_of_expansion(state, (16, 16), 6))
        assert got == self.oracle(state, (16, 16), 6)

    def test_all_minus_region_w10(self):
        # At w=10 a rim agent loses exactly the block overlap from its
        # minority count; one direct-recount instance at full scale.
        state = mono_state(96, 10, 0.45, -1)
        verdict = is_region_of_expansion(state, (48, 48), 6)
        assert bool(verdict) == self.oracle(state, (48, 48), 6)
        # Hand check: the rim agent at offset (6, 0) from the block center
        # overlaps the 11x11 hypothetical block on 10 rows x 11 cols = 110
        # cells, leaving 441 - 110 = 331 >= K = 199 minority neighbors, so it
        # stays happy and the all-minority sea is NOT a region of expansion.
        cfg = state.config
        assert int(state.same_count[54, 48]) - 110 == 331 >= cfg.K
        assert not bool(verdict)

    def test_sampled_agrees_with_exhaustive(self):
        for seed in range(4):
            cfg = GridConfig(n=32, w=3, tau_tilde=0.45, seed=seed)
            state = new_random(cfg)
            full = bool(is_region_of_expansion(state, (16, 16), 5))
            sampled = bool(
                is_region_of_expansion(
                    state, (16, 16), 5, placements=200, rng=generator(seed, 55)
                )
            )
            if full:
                assert sampled  # sampling a subset cannot find new failures
        # On a uniformly failing region, any sample detects it.
        state = mono_state(32, 3, 0.45, 1)
        types = state.types.copy()
        types[4:29, 4:29] = 1
        types[10, 10] = -1  # lone minority agent that stays happy? no: sea +1
        # A +1 sea is vacuous-true; build a -1 sea with tau too low to fail.
        cfg = GridConfig(n=32, w=3, tau_tilde=0.2, seed=0)
        sea = state_from_types(cfg, -np.ones((32, 32), np.int8))
        full = bool(is_region_of_expansion(sea, (16, 16), 5))
        sampled = bool(
            is_region_of_expansion(sea, (16, 16), 5, placements=50, rng=generator(1, 55))
        )
        assert full == sampled == False  # noqa: E712


class TestBlocks:
    def test_all_plus_good(self):
        state = mono_state(64, 2, 0.4, 1)
        assert classify_block_good(state, (0, 0), 8, 0.1)

    def test_all_minus_bad_at_w10(self):
        # Full-neighborhood intersection: W - N/2 = 220.5 > 441^{0.6} ~ 38.6.
        state = mono_state(120, 10, 0.45, -1)
        assert 441**0.6 == pytest.approx(38.6, abs=0.1)
        assert not classify_block_good(state, (0, 0), 60, 0.1)

    def test_oracle_small(self):
        # Exhaustive translate check against the vectorized implementation.
        rng = generator(3)
        n, w, m, eps = 24, 1, 6, 0.2
        cfg = GridConfig(n=n, w=w, tau_tilde=0.45, seed=0, allow_small=True)
        thr = cfg.N ** (0.5 + eps)
        for trial in range(10):
            types = np.where(rng.random((n, n)) < 0.5, 1, -1).astype(np.int8)
            state = state_from_types(cfg, types)
            origin = (int(rng.integers(n)), int(rng.integers(n)))
            block = {( (origin[0] + i) % n, (origin[1] + j) % n) for i in range(m) for j in range(m)}
            worst = -1e9
            for tr in range(-2 * w, m):
                for tc in range(-2 * w, m):
                    cells = []
                    for i in range(2 * w + 1):
                        for j in range(2 * w + 1):
                            y = ((origin[0] + tr + i) % n, (origin[1] + tc + j) % n)
                            if y in block:
                                cells.append(y)
                    if not cells:
                        continue
                    w_i = sum(1 for y in cells if types[y] == -1)
                    worst = max(worst, w_i - len(cells) / 2)
            assert classify_block_good(state, origin, m, eps) == (worst < thr)

    def test_good_monotone_under_minus_to_plus(self):
        rng = generator(8)
        cfg = GridConfig(n=24, w=1, tau_tilde=0.45, seed=0, allow_small=True)
        for _ in range(10):
            types = np.where(rng.random((24, 24)) < 0.5, 1, -1).astype(np.int8)
            state = state_from_types(cfg, types)
            if not classify_block_good(state, (4, 4), 6, 0.2):
                continue
            minus = np.argwhere(types == -1)
            types2 = types.copy()
            types2[tuple(minus[0])] = 1
            assert classify_block_good(state_from_types(cfg, types2), (4, 4), 6, 0.2)

    def test_bad_frequency_decays_with_w(self):
        # Larger neighborhoods concentrate harder; the bad-block rate drops.
        freqs = {}
        for w in (2, 3):
            n = 8 * w
            m = 4 * w
            cfg = GridConfig(n=n, w=w, tau_tilde=0.45, seed=0)
            bad = 0
            trials = 400
            for i in range(trials):
                rng = generator(31_000 + i, w)
                types = np.where(rng.random((n, n)) < 0.5, 1, -1).astype(np.int8)
                state = state_from_types(cfg, types)
                bad += not classify_block_good(state, (0, 0), m, 0.1)
            freqs[w] = bad / trials
        assert freqs[3] < freqs[2]

    def test_renormalize_shapes_and_labels(self):
        state = mono_state(64, 2, 0.4, 1)
        lattice = renormalize(state, 8, 0.1)
        assert lattice.dims == 8
        assert lattice.labels.all()
        with pytest.raises(ValueError):
            renormalize(state, 7, 0.1)


def oracle_classify_block_good(state, block_origin, m, eps):
    """One block at a time: prefix sums over its (m+2w)^2 translate positions."""
    cfg = state.config
    n, w, N = cfg.n, cfg.w, cfg.N
    thr2 = 2.0 * N ** (0.5 + eps)
    side = 2 * w + 1
    t = np.arange(-side + 1, m)
    lo = np.clip(t, 0, None)
    hi = np.clip(t + side - 1, None, m - 1)
    L = hi - lo + 1
    r0 = (block_origin[0] + lo) % n
    c0 = (block_origin[1] + lo) % n
    plus = state.plus_prefix().rect(r0[:, None], c0[None, :], L[:, None], L[None, :])
    n_i = L[:, None] * L[None, :]
    return bool((2 * (n_i - plus) - n_i < thr2).all())


def oracle_renormalize_labels(state, m, eps, origin):
    n = state.n
    dims = n // m
    labels = np.zeros((dims, dims), dtype=bool)
    for bi in range(dims):
        for bj in range(dims):
            labels[bi, bj] = oracle_classify_block_good(
                state, ((origin[0] + bi * m) % n, (origin[1] + bj * m) % n), m, eps
            )
    return labels


class TestBlocksAgainstLoopOracle:
    @pytest.mark.parametrize("w,m", [(1, 1), (1, 3), (2, 4), (2, 7), (3, 2)])
    def test_renormalize_edge_grids(self, w, m):
        # n = m + 2w + 1 is the smallest grid renormalize accepts; n must
        # also be a multiple of m, so take the smallest such multiple.
        n = m * -(-(m + 2 * w + 1) // m)
        cfg = GridConfig(n=n, w=w, tau_tilde=0.45, seed=0, allow_small=True)
        rng = generator(71, w, m)
        for p in (0.5, 0.6, 0.75, 0.9):
            types = np.where(rng.random((n, n)) < p, 1, -1).astype(np.int8)
            state = state_from_types(cfg, types)
            for origin in ((0, 0), (1, n - 1), (n + 3, 2 * n + 5)):
                for eps in (0.05, 0.2):
                    got = renormalize(state, m, eps, origin)
                    assert got.labels.dtype == bool
                    assert np.array_equal(got.labels, oracle_renormalize_labels(state, m, eps, origin))
                    assert classify_block_good(state, origin, m, eps) == oracle_classify_block_good(
                        state, origin, m, eps
                    )

    def test_renormalize_random_states(self):
        seen = set()
        for seed in range(3):
            state = new_random(GridConfig(n=60, w=2, tau_tilde=0.42, seed=seed))
            for m, origin in ((6, (0, 0)), (10, (7, 31)), (12, (59, 1))):
                labels = renormalize(state, m, 0.05, origin).labels
                assert np.array_equal(labels, oracle_renormalize_labels(state, m, 0.05, origin))
                seen.update(labels.ravel().tolist())
        assert seen == {False, True}

    def test_grid_too_small(self):
        state = mono_state(8, 2, 0.45)  # n = m + 2w needs one more row
        with pytest.raises(ValueError):
            renormalize(state, 4, 0.1)
        with pytest.raises(ValueError):
            classify_block_good(state, (0, 0), 4, 0.1)


class TestChemicalPath:
    def make_lattice(self, labels):
        labels = np.asarray(labels, dtype=bool)
        return BlockLattice(m=1, dims=labels.shape[0], labels=labels, origin=(0, 0), eps=0.1)

    def test_all_good(self):
        d = 31
        lattice = self.make_lattice(np.ones((d, d)))
        r = 3
        cp = find_chemical_path(lattice, (15, 15), r)
        assert cp is not None
        assert len(cp.cycle) == 8 * (r + 1)
        assert cp.total_length == len(cp.cycle) + len(cp.path) - 1
        assert cp.total_length <= 12 * (r + 1)
        rel = [((c[0] - 15) % d, (c[1] - 15) % d) for c in cp.cycle]
        rel = [(r0 if r0 <= d // 2 else r0 - d, c0 if c0 <= d // 2 else c0 - d) for r0, c0 in rel]
        assert cycle_winds_around(rel, (0, 0))

    def test_bad_ring_blocks_connector(self):
        d = 31
        labels = np.ones((d, d), bool)
        labels[13:18, 13] = False
        labels[13:18, 17] = False
        labels[13, 13:18] = False
        labels[17, 13:18] = False  # bad square ring at block radius 2 < r
        lattice = self.make_lattice(labels)
        assert find_chemical_path(lattice, (15, 15), 3) is None

    def test_bad_crossing_blocks_cycle(self):
        d = 31
        labels = np.ones((d, d), bool)
        labels[15, 19:31] = False  # radial bad spoke through the annulus
        lattice = self.make_lattice(labels)
        assert find_chemical_path(lattice, (15, 15), 3) is None

    def test_bad_center_block(self):
        d = 31
        labels = np.ones((d, d), bool)
        labels[15, 15] = False
        lattice = self.make_lattice(labels)
        assert find_chemical_path(lattice, (15, 15), 3) is None

    def test_monotone_in_good_labels(self):
        rng = generator(44)
        d = 31
        for _ in range(10):
            labels = rng.random((d, d)) < 0.85
            lattice = self.make_lattice(labels)
            cp = find_chemical_path(lattice, (15, 15), 3)
            if cp is None:
                continue
            more = labels.copy()
            bad = np.argwhere(~labels)
            if len(bad):
                more[tuple(bad[0])] = True
            assert find_chemical_path(self.make_lattice(more), (15, 15), 3) is not None

    def test_cycle_and_path_validity(self):
        rng = generator(91)
        d = 37
        found = 0
        for _ in range(20):
            labels = rng.random((d, d)) < 0.92
            labels[18, 18] = True
            lattice = self.make_lattice(labels)
            cp = find_chemical_path(lattice, (18, 18), 3)
            if cp is None:
                continue
            found += 1
            cyc = cp.cycle
            assert len(set(cyc)) == len(cyc)
            for a, b in zip(cyc, cyc[1:] + cyc[:1]):
                assert abs(a[0] - b[0]) + abs(a[1] - b[1]) == 1
            for a, b in zip(cp.path, cp.path[1:]):
                assert abs(a[0] - b[0]) + abs(a[1] - b[1]) == 1
            assert len(set(cp.path)) == len(cp.path)
            assert cp.path[0] == (18, 18)
            assert cp.path[-1] in set(cyc)
            for cell in cyc + cp.path:
                assert labels[cell]
        assert found >= 10

    @staticmethod
    def oracle_chemical_path(labels, center, r_blocks):
        """The loop version: oracle cycle, then a FIFO search from the center
        (neighbors in _N4 order) stopping at the first cycle cell found."""
        from test_percolation import oracle_surrounding_cycle

        d = labels.shape[0]
        R = 3 * r_blocks
        rows = np.arange(center[0] - R, center[0] + R + 1) % d
        cols = np.arange(center[1] - R, center[1] + R + 1) % d
        local = labels[np.ix_(rows, cols)]
        if not local[R, R]:
            return None
        cyc = oracle_surrounding_cycle(local, (R, R), r_blocks, R)
        if cyc is None:
            return None
        cyc_set = set(cyc)
        prev = {(R, R): None}
        q = deque([(R, R)])
        hit = None
        while q and hit is None:
            cur = q.popleft()
            for dr, dc in ((0, 1), (0, -1), (1, 0), (-1, 0)):
                nxt = (cur[0] + dr, cur[1] + dc)
                if nxt in prev or max(abs(nxt[0] - R), abs(nxt[1] - R)) > R or not local[nxt]:
                    continue
                prev[nxt] = cur
                if nxt in cyc_set:
                    hit = nxt
                    break
                q.append(nxt)
        if hit is None:
            return None
        path = [hit]
        while prev[path[-1]] is not None:
            path.append(prev[path[-1]])
        to_abs = lambda seq: [(int(rows[r]), int(cols[c])) for r, c in seq]  # noqa: E731
        return to_abs(cyc), to_abs(path[::-1])

    @pytest.mark.parametrize("p_good", [0.5, 0.65, 0.8, 0.9, 0.95])
    def test_cycle_and_path_match_loop_oracle(self, p_good):
        rng = generator(92, int(p_good * 100))
        d = 27
        found = 0
        for _ in range(20):
            labels = rng.random((d, d)) < p_good
            labels[13, 13] = True
            for center, r in (((13, 13), 1), ((13, 13), 2), ((13, 13), 4), ((2, 25), 3)):
                cp = find_chemical_path(self.make_lattice(labels), center, r)
                got = None if cp is None else (cp.cycle, cp.path)
                assert got == self.oracle_chemical_path(labels, center, r)
                found += cp is not None
        assert found > 0 or p_good < 0.8  # low densities rarely host a cycle

    def test_quality_bound_supercritical(self):
        # p=0.95 open blocks: the extracted structure stays within 1.25x of
        # the ideal contour-plus-connector length in >= 99% of samples.
        r = 12
        d = 6 * r + 3
        ideal = 8 * (r + 1) + (r + 2) - 1
        good = 0
        total = 200
        for i in range(total):
            rng = generator(7000 + i)
            labels = rng.random((d, d)) < 0.95
            labels[d // 2, d // 2] = True
            cp = find_chemical_path(self.make_lattice(labels), (d // 2, d // 2), r)
            if cp is not None and cp.total_length <= 1.25 * ideal:
                good += 1
        assert good / total >= 0.99


class TestBadClusters:
    def test_no_bad_blocks(self):
        lattice = BlockLattice(m=1, dims=8, labels=np.ones((8, 8), bool), origin=(0, 0), eps=0.1)
        assert bad_cluster_radii(lattice) == []

    def test_single_bad_block(self):
        labels = np.ones((8, 8), bool)
        labels[3, 4] = False
        lattice = BlockLattice(m=1, dims=8, labels=labels, origin=(0, 0), eps=0.1)
        assert bad_cluster_radii(lattice) == [0]

    def test_known_clusters(self):
        labels = np.ones((10, 10), bool)
        labels[1, 1] = False
        labels[2, 2] = False  # diagonal pair: one 8-connected cluster
        labels[7, 7] = False
        labels[7, 8] = False
        labels[7, 9] = False
        lattice = BlockLattice(m=1, dims=10, labels=labels, origin=(0, 0), eps=0.1)
        assert bad_cluster_radii(lattice) == [2, 2]

    def test_wraps_on_torus(self):
        labels = np.ones((10, 10), bool)
        labels[0, 0] = False
        labels[9, 9] = False  # 8-adjacent across the corner wrap
        lattice = BlockLattice(m=1, dims=10, labels=labels, origin=(0, 0), eps=0.1)
        assert bad_cluster_radii(lattice) == [2]

    def test_subcritical_tail_is_log_linear(self):
        rng = generator(123)
        radii = []
        for i in range(40):
            labels = rng.random((60, 60)) < 0.8  # bad density 0.2
            lattice = BlockLattice(m=1, dims=60, labels=labels, origin=(0, 0), eps=0.1)
            radii.extend(bad_cluster_radii(lattice))
        radii = np.asarray(radii)
        ks = np.arange(1, 9)
        tail = np.array([(radii >= k).mean() for k in ks])
        keep = tail > 0
        lt = np.log(tail[keep])
        slope = np.polyfit(ks[keep], lt, 1)[0]
        assert slope < 0
