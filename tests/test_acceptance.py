"""Acceptance suite: one test per criterion, each at its stated tolerance.

Every test records a PASS/FAIL line (printed in the terminal summary) before
asserting, so the per-criterion verdicts are visible even when one fails.
"""

import math
import time

import numpy as np
import pytest

import segsim
from segsim import GridConfig, _kernels, new_random, state_from_types
from segsim.dynamics import cascade_closure, run_to_termination
from segsim.experiments import fig2_trend_test, lemmaA1_test, prop1_test, pu_match_test
from segsim.grid import same_counts_bruteforce
from segsim.percolation import (
    SiteLattice,
    chemical_distance,
    cluster_radii,
    fpp_time_to_distance,
)
from segsim.regions import (
    almost_mono_radius_map,
    almost_mono_radius_of,
    center_radius_map,
    largest_mono_region,
    mono_radius_all,
    mono_region_of,
)
from segsim.rng import STREAM_DYNAMICS, derive_run_seed, generator
from segsim.structures import RadicalSpec, annulus_cells, firewall_unconditionally_stable, is_radical_region
from segsim.theory import a_tau, b_tau, entropy, f_tau, tau1, tau2

from conftest import record_acceptance


def check(criterion, passed, detail=""):
    record_acceptance(criterion, bool(passed), detail)
    assert passed, f"{criterion}: {detail}"


def test_criterion_01_exact_probability_match():
    t0 = time.time()
    seed = 1
    devs = []
    passed = True
    for w in (1, 2, 3):
        report = pu_match_test(n=1024, w=w, tau_tilde=0.5, seed=seed)
        if w == 1:
            assert report.statistics["exact_probability"] == pytest.approx(
                93 / 256, abs=1e-12
            )
        devs.append(report.statistics["deviation_sigmas"])
        passed = passed and report.passed
    elapsed = time.time() - t0
    ok = passed and elapsed < 10
    check(
        "1 exact-probability match (w=1,2,3)",
        ok,
        f"deviations {['%.2f sigma' % d for d in devs]}, {elapsed:.1f}s",
    )


def test_criterion_02_lyapunov_termination_suite():
    t0 = time.time()
    runs = 0
    violations = 0
    for w in (2, 4):
        for tau in (0.40, 0.45, 0.49):
            for rep in range(17):
                seed = derive_run_seed(2024, runs, rep)
                cfg = GridConfig(n=128, w=w, tau_tilde=tau, p=0.5, seed=seed)
                state = new_random(cfg)
                report = run_to_termination(
                    state, generator(seed, STREAM_DYNAMICS), audit=True
                )
                runs += 1
                ks = report.audit.pre_counts.astype(np.int64)
                increments = 2 * (cfg.N - 2 * ks + 1)
                good = (
                    report.termination_reason == "NoEligibleAgents"
                    and state.elig_count == 0
                    and (ks < cfg.K).all()
                    and (increments > 0).all()
                    and report.lyapunov_initial + int(increments.sum())
                    == report.lyapunov_final
                    and report.lyapunov_final
                    == int(state.same_count.sum(dtype=np.int64))
                    and np.array_equal(
                        state.same_count, same_counts_bruteforce(state.types, w)
                    )
                )
                violations += not good
    elapsed = time.time() - t0
    ok = runs >= 100 and violations == 0 and elapsed < 120
    check(
        "2 Lyapunov/termination suite",
        ok,
        f"{runs} runs, {violations} violations, {elapsed:.0f}s",
    )


def _oracle_center_radius(types):
    n = types.shape[0]
    R = (n - 1) // 2
    out = np.zeros((n, n), dtype=int)
    for r in range(n):
        for c in range(n):
            rho = 0
            while rho < R:
                nxt = rho + 1
                rows = (np.arange(r - nxt, r + nxt + 1)) % n
                cols = (np.arange(c - nxt, c + nxt + 1)) % n
                if (types[np.ix_(rows, cols)] == types[r, c]).all():
                    rho = nxt
                else:
                    break
            out[r, c] = rho
    return out


def _oracle_qualify(types, threshold):
    n = types.shape[0]
    R = (n - 1) // 2
    qual = np.zeros((R + 1, n, n), dtype=bool)
    for rho in range(R + 1):
        area = (2 * rho + 1) ** 2
        for r in range(n):
            rows = (np.arange(r - rho, r + rho + 1)) % n
            for c in range(n):
                cols = (np.arange(c - rho, c + rho + 1)) % n
                plus = int((types[np.ix_(rows, cols)] == 1).sum())
                minority = min(plus, area - plus)
                qual[rho, r, c] = minority <= threshold * (area - minority)
    return qual


def test_criterion_03_region_oracle_equivalence(monkeypatch):
    if _kernels.radius_pass is None:
        pytest.skip(_kernels.load_error)
    calls = {"radius_pass": 0, "dilate": 0}
    for name in calls:
        def counted(*args, _kernel=getattr(_kernels, name), _name=name):
            calls[_name] += 1
            return _kernel(*args)

        monkeypatch.setattr(_kernels, name, counted)
    t0 = time.time()
    n, w = 16, 2
    mismatches = 0
    for g in range(50):
        rng = generator(4000 + g)
        types = np.where(rng.random((n, n)) < 0.5, 1, -1).astype(np.int8)
        cfg = GridConfig(n=n, w=w, tau_tilde=0.45, seed=0, allow_small=True)
        state = state_from_types(cfg, types)
        threshold = math.exp(-(cfg.N**0.25))

        r_oracle = _oracle_center_radius(types)
        if not np.array_equal(center_radius_map(state), r_oracle):
            mismatches += 1
            continue
        qual = _oracle_qualify(types, threshold)
        R = (n - 1) // 2
        d = np.arange(-R, R + 1)
        dist = np.maximum(np.abs(d)[:, None], np.abs(d)[None, :])

        # largest region per type against the oracle map.
        for tval in (1, -1):
            got = largest_mono_region(state, tval)
            masked = np.where(types == tval, r_oracle, -1)
            if masked.max() < 0:
                ok = got is None
            else:
                flat = int(np.argmax(masked))
                ok = got == ((flat // n, flat % n), int(masked.ravel()[flat]))
            if not ok:
                mismatches += 1

        # The all-agent maps the region summary reads, agent by agent.
        m_map = mono_radius_all(state)
        a_map = almost_mono_radius_map(state, 0.25)
        for ur in range(n):
            for uc in range(n):
                rows = (np.arange(ur - R, ur + R + 1)) % n
                cols = (np.arange(uc - R, uc + R + 1)) % n
                sub = r_oracle[np.ix_(rows, cols)]
                want_m = int(sub[sub >= dist].max())
                if mono_region_of(state, (ur, uc))[0] != want_m:
                    mismatches += 1
                if m_map[ur, uc] != want_m:
                    mismatches += 1
                want_a = 0
                for rho in range(R, -1, -1):
                    rr = (np.arange(ur - rho, ur + rho + 1)) % n
                    cc = (np.arange(uc - rho, uc + rho + 1)) % n
                    if qual[rho][np.ix_(rr, cc)].any():
                        want_a = rho
                        break
                if almost_mono_radius_of(state, (ur, uc), 0.25)[0] != want_a:
                    mismatches += 1
                if a_map[ur, uc] != want_a:
                    mismatches += 1
    elapsed = time.time() - t0
    ok = mismatches == 0 and elapsed < 60 and min(calls.values()) > 0
    check(
        "3 region oracle equivalence (50 grids, every agent, compiled region kernels)",
        ok,
        f"{mismatches} mismatches, kernel calls {calls}, {elapsed:.0f}s",
    )


def test_criterion_04_cascade_confluence():
    t0 = time.time()
    n = 24
    bad = 0
    region_idx = 0
    for w, tau in ((1, 0.45), (2, 0.40), (2, 0.45), (1, 0.35)):
        cfg = GridConfig(n=n, w=w, tau_tilde=tau, seed=0, allow_small=True)
        for rep in range(25):
            rng = generator(5000 + region_idx)
            region_idx += 1
            types = np.where(rng.random((n, n)) < 0.5, 1, -1).astype(np.int8)
            state = state_from_types(cfg, types)
            center = (int(rng.integers(n)), int(rng.integers(n)))
            radius = int(rng.integers(3, 9))
            allowed = np.zeros((n, n), bool)
            rows = (np.arange(center[0] - radius, center[0] + radius + 1)) % n
            cols = (np.arange(center[1] - radius, center[1] + radius + 1)) % n
            allowed[np.ix_(rows, cols)] = True
            base = frozenset(
                cascade_closure(state, allowed, 1, center, max_flips=10**6).flipped
            )
            for k in range(10):
                res = cascade_closure(
                    state, allowed, 1, center, max_flips=10**6,
                    order_rng=generator(777, region_idx, k),
                )
                if frozenset(res.flipped) != base:
                    bad += 1
    elapsed = time.time() - t0
    ok = bad == 0 and elapsed < 60
    check(
        "4 cascade confluence (100 regions x 10 orders)",
        ok,
        f"{bad} order-dependent closures, {elapsed:.0f}s",
    )


def test_criterion_05_firewall_stability():
    t0 = time.time()
    n, w, r = 64, 2, 8
    tau = 0.44  # K = 11 equals the minimum annulus-only support
    center = (32, 32)
    cfg_probe = GridConfig(n=n, w=w, tau_tilde=tau, seed=0)
    cells = annulus_cells(n, center, r, w)
    annulus_flat = set(cells[:, 0] * n + cells[:, 1])
    inner_sq = (r - math.sqrt(2) * w) ** 2
    d = np.arange(-r, r + 1)
    d2 = d[:, None] ** 2 + d[None, :] ** 2
    irr, icc = np.nonzero(d2 < inner_sq)

    continuations = 0
    annulus_flips = 0
    states_checked = 0
    for s in range(50):
        rng = generator(6000 + s)
        types = np.where(rng.random((n, n)) < 0.5, 1, -1).astype(np.int8)
        types[(center[0] + irr - r) % n, (center[1] + icc - r) % n] = -1  # hostile interior
        types[cells[:, 0], cells[:, 1]] = 1
        base = state_from_types(cfg_probe, types)
        assert firewall_unconditionally_stable(base, center, r)
        states_checked += 1
        for k in range(20):
            state = base.copy()
            report = run_to_termination(
                state, generator(9000 + s, k, STREAM_DYNAMICS), audit=True
            )
            continuations += 1
            flipped = set(report.audit.cells.tolist())
            annulus_flips += len(flipped & annulus_flat)
    elapsed = time.time() - t0
    ok = continuations == 1000 and annulus_flips == 0 and elapsed < 120
    check(
        "5 firewall stability (1000 continuations)",
        ok,
        f"{states_checked} states, {continuations} runs, {annulus_flips} annulus flips, {elapsed:.0f}s",
    )


def test_criterion_06_theory_values():
    t0 = time.time()
    t2_ok = tau2() == 11 / 32
    t1 = tau1()
    t1_ok = abs(t1 - 0.433) <= 1e-3
    residual = abs(0.75 * (1 - entropy(4 * t1 / 3)) - (1 - entropy(t1)))
    f_ok = f_tau(0.5) == 0.0
    taus = np.arange(tau2() + 0.005, 0.495, 0.005)
    avals = [a_tau(float(x)) for x in taus]
    bvals = [b_tau(float(x)) for x in taus]
    mono = all(x > y for x, y in zip(avals, avals[1:])) and all(
        x > y for x, y in zip(bvals, bvals[1:])
    )
    elapsed = time.time() - t0
    ok = t2_ok and t1_ok and residual < 1e-9 and f_ok and mono and elapsed < 1
    check(
        "6 theory values (tau2, tau1, f, a/b monotone)",
        ok,
        f"tau1={t1:.6f}, residual={residual:.1e}, {elapsed:.2f}s",
    )


def test_criterion_07_large_run_qualitative():
    t0 = time.time()
    reached = 0
    terminated = 0
    ratios = []
    for seed in range(1, 11):
        cfg = GridConfig(n=1000, w=10, tau_tilde=0.42, p=0.5, seed=seed)
        state = new_random(cfg)
        initial = max(1, int(center_radius_map(state).max()))
        report = run_to_termination(state, generator(seed, STREAM_DYNAMICS))
        final = int(center_radius_map(state).max())
        terminated += (
            report.termination_reason == "NoEligibleAgents"
            and state.unhappy_count() == 0
        )
        ratios.append(final / initial)
        reached += final >= 5 * initial
    elapsed = time.time() - t0
    ok = terminated == 10 and reached >= 8 and elapsed < 600
    check(
        "7 large-grid qualitative growth (10 seeds)",
        ok,
        f"{terminated}/10 clean terminations, {reached}/10 with >=5x growth, "
        f"min ratio {min(ratios):.1f}, {elapsed:.0f}s",
    )


def test_criterion_08_intolerance_trend():
    # The paper's exponents a(tau), b(tau) decrease on (0.344, 1/2), so region
    # size falls with intolerance only where a(tau)N dominates the o(N) terms.
    # Run the trend where the threshold K sits at least sqrt(N) (two standard
    # deviations of the Binomial(N, 1/2) same-type count) below N/2, the
    # large-deviation regime the exponents 1 - H(tau') describe. The abstract
    # in PAPER.md does not fix this constant and the proofs' margin is
    # N^(eps - 1/2); sqrt(N) is a choice. Inside the window (e.g. n=256, w=3,
    # where every tau of 0.36..0.48 fails the rule) 15-33 % of agents start
    # unhappy, the dynamics coarsen like the tau = 1/2 quench and the means
    # invert; scripts/intolerance_sweep.py at its defaults reproduces that.
    # At w=6 (N=169) the rule allows tau <= 0.42 (K=71, N/2 - K = 13.5 >= 13).
    # The low end is limited by n: at tau = 0.36 some seeds never cascade
    # and others fill the torus, while at 0.38 every run starts with 27-68
    # unhappy agents and its largest radius (<= 79) stays below the cap 127.
    # This grid costs about 5 s with the C engine and 35 s with the python
    # one; the same protocol at n=1000, w=10, tau 0.40..0.44 gives the same
    # verdict in about 400 s on the python engine.
    taus = (0.38, 0.40, 0.42)
    n, w = 256, 6
    for tau in taus:
        cfg = GridConfig(n=n, w=w, tau_tilde=tau)
        assert cfg.N / 2 - cfg.K >= math.sqrt(cfg.N), (
            f"tau={tau}: K={cfg.K} lies within sqrt(N) of N/2={cfg.N / 2}"
        )
    t0 = time.time()
    report = fig2_trend_test(taus, n=n, w=w, replicates=6, base_seed=42)
    elapsed = time.time() - t0
    means = report.statistics["means"]
    ok = report.passed and elapsed < 600
    check(
        "8 mean region size non-increasing in intolerance (Spearman)",
        ok,
        f"means {[f'{m:.0f}' for m in means]}, rho={report.statistics['spearman_rho']:.2f}, "
        f"p={report.statistics['p_value']:.3f}, {elapsed:.0f}s",
    )


def test_criterion_09_concentration_tests():
    t0 = time.time()
    r1 = prop1_test(N=441, gamma=0.25, tau_tilde=0.45, c=2, eps=0.1,
                    samples=10_000, seed=1)
    r2 = lemmaA1_test(N=441, c=2, eps=0.1, samples=100_000, seed=1)
    elapsed = time.time() - t0
    ok = (
        r1.statistics["frequency"] >= 0.99
        and r2.statistics["frequency"] >= 0.999
        and elapsed < 120
    )
    check(
        "9 concentration tests (conditional + unconditional)",
        ok,
        f"prop1 freq {r1.statistics['frequency']:.4f}, "
        f"lemmaA1 freq {r2.statistics['frequency']:.5f}, {elapsed:.0f}s",
    )


def test_criterion_10_percolation_suite():
    t0 = time.time()
    # (a) chemical distance at p = 0.95 over 500 connected samples.
    a, b = (20, 120), (120, 20)
    l1 = 200
    connected = 0
    within = 0
    i = 0
    while connected < 500:
        lat = SiteLattice.random((241, 241), 0.95, 10, key=(i,))
        i += 1
        dist = chemical_distance(lat, a, b)
        if dist is None:
            continue
        connected += 1
        within += dist <= 1.25 * l1
    chem_frac = within / connected

    # (b) subcritical cluster-radius tail: log-linear fit over k in [5, 30]
    # restricted to nonzero empirical tail values.
    lat = SiteLattice.random((1500, 1500), 0.2, 11)
    radii = cluster_radii(lat)
    ks = np.arange(5, 31)
    tail = np.array([(radii >= k).mean() for k in ks])
    keep = tail > 0
    lt = np.log(tail[keep])
    A = np.vstack([ks[keep], np.ones(keep.sum())]).T
    coef, res, *_ = np.linalg.lstsq(A, lt, rcond=None)
    slope = float(coef[0])
    ss_tot = float(((lt - lt.mean()) ** 2).sum())
    r2 = 1.0 - float(res[0]) / ss_tot if len(res) else 1.0

    # (c) FPP concentration trend: std(T_k)/sqrt(k) within a factor 3.
    stds = {}
    for k, half, reps in ((100, 40, 80), (400, 60, 50), (1600, 80, 30)):
        ts = [fpp_time_to_distance(k, half, 1.0, 12, key=(k, j)) for j in range(reps)]
        stds[k] = float(np.std(ts, ddof=1) / math.sqrt(k))
    ratio = max(stds.values()) / min(stds.values())

    elapsed = time.time() - t0
    ok = chem_frac >= 0.99 and slope < 0 and r2 > 0.9 and ratio <= 3 and elapsed < 300
    check(
        "10 percolation suite (chemdist, radius tail, FPP)",
        ok,
        f"chemdist {chem_frac:.3f}, slope {slope:.2f} R2 {r2:.3f}, "
        f"fpp ratio {ratio:.2f}, {elapsed:.0f}s",
    )


def test_criterion_11_determinism_and_symmetry():
    t0 = time.time()
    # (a) identical seeds give byte-identical reports.
    reports = []
    for _ in range(2):
        cfg = GridConfig(n=64, w=2, tau_tilde=0.45, p=0.5, seed=33)
        state = new_random(cfg)
        reports.append(
            run_to_termination(state, generator(33, STREAM_DYNAMICS)).canonical_json()
        )
    determinism = reports[0] == reports[1]

    # (b) negated initial configuration, same stream: negated trajectory.
    cfg = GridConfig(n=48, w=2, tau_tilde=0.45, p=0.5, seed=34)
    s1 = new_random(cfg)
    s2 = state_from_types(cfg, -s1.types)
    r1 = run_to_termination(s1, generator(34, STREAM_DYNAMICS))
    r2 = run_to_termination(s2, generator(34, STREAM_DYNAMICS))
    negation = (
        np.array_equal(s1.types, -s2.types)
        and r1.flips_total == r2.flips_total
        and r1.continuous_time_final == r2.continuous_time_final
    )

    # (c) torus translation commutes with detectors.
    rng = generator(35)
    types = np.where(rng.random((64, 64)) < 0.5, 1, -1).astype(np.int8)
    cfg = GridConfig(n=64, w=2, tau_tilde=0.42, seed=0)
    state = state_from_types(cfg, types)
    dr, dc = 7, 19
    rolled = state_from_types(cfg, np.roll(np.roll(types, dr, axis=0), dc, axis=1))
    r_map = center_radius_map(state)
    translation = np.array_equal(
        np.roll(np.roll(r_map, dr, axis=0), dc, axis=1), center_radius_map(rolled)
    )
    for cr, cc in ((10, 10), (40, 52)):
        va = is_radical_region(state, RadicalSpec(center=(cr, cc), eps_prime=0.3))
        vb = is_radical_region(
            rolled, RadicalSpec(center=((cr + dr) % 64, (cc + dc) % 64), eps_prime=0.3)
        )
        translation = translation and va.minus_count == vb.minus_count
        ma = mono_region_of(state, (cr, cc))
        mb = mono_region_of(rolled, ((cr + dr) % 64, (cc + dc) % 64))
        translation = translation and ma == mb

    elapsed = time.time() - t0
    ok = determinism and negation and translation
    check(
        "11 determinism, negation symmetry, translation equivariance",
        ok,
        f"determinism={determinism}, negation={negation}, translation={translation}, {elapsed:.0f}s",
    )
