import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import segsim
from segsim import GridConfig, happiness_state, state_from_types
from segsim.grid import Happiness
from segsim.theory import (
    a_tau,
    b_tau,
    bar_tau,
    binom_cdf,
    curve,
    entropy,
    f_tau,
    p_radical_exact,
    p_unhappy_bound_scale,
    p_unhappy_exact,
    radical_threshold_count,
    spread_params,
    tau1,
    tau2,
)


def exact_binom_cdf(kmax, n):
    """Arbitrary-precision oracle: integer sums over 2^n."""
    if kmax < 0:
        return 0.0
    total = sum(math.comb(n, k) for k in range(0, min(kmax, n) + 1))
    return float(Fraction(total, 2**n))


class TestEntropy:
    def test_endpoints(self):
        assert entropy(0.5) == 1.0
        assert entropy(0.0) == 0.0
        assert entropy(1.0) == 0.0

    def test_quarter(self):
        assert abs(entropy(0.25) - 0.8112781244591328) < 1e-12

    @given(st.floats(0.0, 1.0, allow_nan=False))
    @settings(max_examples=100, deadline=None)
    def test_symmetry(self, x):
        assert entropy(x) == pytest.approx(entropy(1.0 - x), abs=1e-12)

    def test_domain(self):
        with pytest.raises(ValueError):
            entropy(1.2)


class TestThresholds:
    def test_tau2_exact(self):
        t2 = tau2()
        assert t2 == 11.0 / 32.0
        assert 1024 * Fraction(11, 32) ** 2 - 384 * Fraction(11, 32) + 11 == 0

    def test_tau1_value_and_residual(self):
        t1 = tau1()
        assert abs(t1 - 0.433) < 1e-3
        residual = 0.75 * (1 - entropy(4 * t1 / 3)) - (1 - entropy(t1))
        assert abs(residual) < 1e-9

    def test_f_at_half_is_zero(self):
        assert f_tau(0.5) == 0.0

    def test_f_values(self):
        assert abs(f_tau(11 / 32) - 0.29638) < 1e-4
        assert abs(f_tau(0.45) - 0.18069) < 1e-4

    def test_f_below_half_on_interval(self):
        for t in np.arange(tau2() + 1e-6, 0.5, 0.002):
            assert 0.0 <= f_tau(float(t)) < 0.5

    def test_f_domain_error(self):
        with pytest.raises(ValueError):
            f_tau(0.9)


class TestExponents:
    def test_limits_at_half(self):
        assert a_tau(0.4999999) < 1e-5
        assert b_tau(0.4999999) < 1e-5

    def test_a_at_0433(self):
        # Direct evaluation: f(0.433) ~ 0.20547, 1 - H(0.433) ~ 0.01297.
        assert abs(f_tau(0.433) - 0.20547) < 1e-4
        assert abs(a_tau(0.433) - 0.00710) < 5e-5

    def test_a_b_strictly_decreasing(self):
        taus = np.arange(tau2() + 0.005, 0.495, 0.005)
        avals = [a_tau(float(t)) for t in taus]
        bvals = [b_tau(float(t)) for t in taus]
        assert all(x > y for x, y in zip(avals, avals[1:]))
        assert all(x > y for x, y in zip(bvals, bvals[1:]))
        assert all(a <= b for a, b in zip(avals, bvals))

    def test_finite_n_variant(self):
        lim = a_tau(0.45)
        fin = a_tau(0.45, N=441)
        assert fin != lim
        assert abs(fin - lim) < 0.02


class TestUnhappyProbability:
    def test_k_equal_one_never_unhappy(self):
        assert p_unhappy_exact(9, 1) == 0.0

    def test_hand_computed_9_5(self):
        assert abs(p_unhappy_exact(9, 5) - 93 / 256) < 1e-12

    @pytest.mark.parametrize("N,K", [(25, 13), (49, 25), (81, 40), (441, 199)])
    def test_matches_exact_integer_oracle(self, N, K):
        assert p_unhappy_exact(N, K) == pytest.approx(
            exact_binom_cdf(K - 2, N - 1), rel=1e-12
        )

    def test_accuracy_at_contract_boundary(self):
        N, K = 10_001, 4_400
        assert p_unhappy_exact(N, K) == pytest.approx(
            exact_binom_cdf(K - 2, N - 1), rel=1e-13
        )

    def test_log_space_branch_beyond_exact_range(self):
        from scipy.stats import binom as scipy_binom

        n, kmax = 25_000, 12_100
        got = binom_cdf(kmax, n)
        want = float(scipy_binom.cdf(kmax, n, 0.5))
        assert got == pytest.approx(want, rel=1e-9)

    def test_bound_ratio_stable_across_w(self):
        # p_u / [2^{-(1-H(tau'))N} / sqrt(N)] should stay within a modest
        # constant band as w grows at fixed tau_tilde.
        ratios = []
        for w in range(3, 16):
            N = (2 * w + 1) ** 2
            K = math.ceil(Fraction(45, 100) * N)
            ratios.append(p_unhappy_exact(N, K) / p_unhappy_bound_scale(N, K))
        assert max(ratios) / min(ratios) < 8.0


class TestRadicalProbability:
    def test_zero_threshold(self):
        # eps' = 0 and large deficit make the threshold nonpositive.
        assert radical_threshold_count(9, 1, 0.0, 0.1) <= 0
        assert p_radical_exact(9, 1, 0.0, 0.1) == 0.0

    def test_full_block_threshold(self):
        # A threshold at or beyond the block size saturates the CDF at 1; the
        # (N, K) parameterization itself always keeps thr < cells, so the
        # saturation edge is exercised on the CDF directly.
        assert binom_cdf(441, 441) == 1.0
        N, K = 441, 441
        p = p_radical_exact(N, K, 0.0, 0.1)
        cells = 441
        thr = radical_threshold_count(N, K, 0.0, 0.1)
        assert p == pytest.approx(exact_binom_cdf(thr - 1, cells), rel=1e-12)

    def test_matches_integer_oracle(self):
        N, K, ep, eps = 441, 199, 0.35, 0.1
        cells = int(math.floor((1 + ep) ** 2 * N + 0.5))
        thr = radical_threshold_count(N, K, ep, eps)
        assert p_radical_exact(N, K, ep, eps) == pytest.approx(
            exact_binom_cdf(thr - 1, cells), rel=1e-10
        )


class TestBarTau:
    def test_example_values(self):
        K_bar, tb = bar_tau(0.6, 441)
        assert K_bar == 178
        assert tb == pytest.approx(178 / 441)

    def test_eligibility_equivalence_exhaustive(self):
        # For tau > 1/2 (with K >= (N+3)/2), a minority-type agent is
        # flip-eligible exactly when its own-type count is below bar_tau * N.
        for tau_tilde, w in ((0.6, 1), (0.7, 1), (0.56, 2), (0.62, 2)):
            n = 8 * w
            cfg = GridConfig(n=n, w=w, tau_tilde=tau_tilde, seed=0, allow_small=True)
            N, K = cfg.N, cfg.K
            assert 2 * K >= N + 3  # strictly above the boundary case
            K_bar, _ = bar_tau(tau_tilde, N)
            for W in range(1, N + 1):
                types = np.ones((n, n), np.int8)
                # Center -1 agent plus W-1 further -1 cells in its neighborhood.
                c = n // 2
                types[c, c] = -1
                placed = 1
                for dr in range(-w, w + 1):
                    for dc in range(-w, w + 1):
                        if placed >= W or (dr == 0 and dc == 0):
                            continue
                        types[c + dr, c + dc] = -1
                        placed += 1
                state = state_from_types(cfg, types)
                assert int(state.same_count[c, c]) == W
                eligible = happiness_state(state, (c, c)) is Happiness.UNHAPPY_ELIGIBLE
                assert eligible == (W < K_bar)


class TestSpreadParams:
    def test_plug_in_at_three_eighths(self):
        zeta, nu, _ = spread_params(3 / 8)
        assert zeta == 0.0
        assert nu == pytest.approx(1 / 6)

    def test_residual_sign_change_at_tau2(self):
        below = spread_params(11 / 32 - 1e-4)[2]
        above = spread_params(11 / 32 + 1e-4)[2]
        assert below > 0 > above
        # Bracketing converges to 11/32.
        lo, hi = 0.3, 0.37
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            if spread_params(mid)[2] > 0:
                lo = mid
            else:
                hi = mid
        assert abs(0.5 * (lo + hi) - 11 / 32) < 1e-9


def test_curve_rows():
    rows = curve("f", [0.36, 0.45, 0.5])
    assert rows[-1][1] == 0.0
    rows = curve("a", [0.36, 0.45], N=441)
    assert all(len(r) == 3 for r in rows)
    rows = curve("pu", [0.4, 0.45], N=49)
    assert all(0 <= r[2] <= 1 for r in rows)
    with pytest.raises(ValueError):
        curve("pu", [0.4])


def test_binom_cdf_edges():
    assert binom_cdf(-1, 10) == 0.0
    assert binom_cdf(10, 10) == 1.0
    assert binom_cdf(5, 10) == pytest.approx(exact_binom_cdf(5, 10), rel=1e-14)
