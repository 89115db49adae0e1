"""Self-test of the benchmark's checks.

    python3 perfbench/selftest.py

Each case builds a real output of segsim on a small input, shows that its
check accepts it, then corrupts one thing (a flipped cell, a wrong mean, a
distance off by one, two sweep rows swapped, ...) and shows that the check
rejects it.  Exits 1 if any check accepts a corrupted output or rejects a
clean one.
"""

from __future__ import annotations

import copy
import sys
import tempfile
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from segsim import dynamics, experiments, grid, percolation, regions, rng, structures  # noqa: E402

import checks  # noqa: E402


def final_state_cases():
    cfg = grid.GridConfig(n=96, w=4, tau_tilde=0.42, seed=5)
    state = grid.new_random(cfg)
    report = dynamics.run_to_termination(
        state, rng.generator(cfg.seed, rng.STREAM_DYNAMICS),
        measure=regions.RegionMeasure(sample_size=256, eps=0.25)).to_dict()
    initial = checks.initial_types(cfg.n, cfg.p, cfg.seed)

    def final(types, rep):
        return checks.check_final_state(types, state.same_count, cfg.w, cfg.K, rep, initial)

    flipped = state.types.copy()
    flipped[17, 40] *= -1
    short = dict(report, lyapunov_final=report["lyapunov_final"] - 2)
    summary = report["region_summary"]
    wrong_mean = dict(summary, mean_M=summary["mean_M"] + 1.0)
    wrong_largest = dict(summary, largest_plus=dict(summary["largest_plus"],
                                                    radius=summary["largest_plus"]["radius"] + 1))
    hist = dict(summary["m_radius_histogram"])
    lo, hi = min(hist), max(hist)
    moved = {**hist, lo: hist[lo] - 1, hi: hist[hi] + 1} if lo != hi else {lo: hist[lo] + 1}
    wrong_hist = dict(summary, m_radius_histogram=moved)
    inverted = dict(summary, mean_Mprime=summary["mean_M"] - 1.0)

    def region(s):
        return checks.check_region_summary(state.types, s, cfg.seed)

    clean = final(state.types, report)
    return [
        ("final state: one cell flipped", clean, final(flipped, report)),
        ("final state: Lyapunov value off by 2", clean, final(state.types, short)),
        ("region summary: wrong mean_M", region(summary), region(wrong_mean)),
        ("region summary: largest radius off by one", region(summary), region(wrong_largest)),
        ("region summary: one sampled M moved", region(summary), region(wrong_hist)),
        ("region summary: mean_M above mean_Mprime", region(summary), region(inverted)),
    ]


def sweep_cases():
    taus, w, reps, base = [0.38, 0.42], 6, 3, 7
    with tempfile.TemporaryDirectory(dir=HERE) as tmp:
        spec = experiments.SweepSpec(tau_grid=taus, w_grid=[w], n_grid=[128], p_grid=[0.5],
                                     replicates=reps, base_seed=base, jobs=1, out_dir=tmp)
        csv_text = experiments.run_sweep(spec).read_text()
        runs = {(ci, rep): (Path(tmp) / "runs" / f"cell{ci:04d}_rep{rep:03d}.json").read_text()
                for ci in range(len(taus)) for rep in range(reps)}
    lines = csv_text.splitlines(keepends=True)
    swapped = "".join([lines[0], lines[2], lines[1]] + lines[3:])
    stopped = dict(runs)
    stopped[(1, 0)] = runs[(1, 0)].replace('"NoEligibleAgents"', '"FlipLimit"')

    def sweep(text, reports):
        return checks.check_sweep(text, reports, taus, w, reps, base)

    rising = [np.array([10.0, 11.0, 12.0]), np.array([40.0, 41.0, 42.0])]
    flat = [np.array([10.0, 11.0, 12.0]), np.array([11.0, 10.0, 12.0])]
    falling = [np.array([40.0, 41.0, 42.0]), np.array([10.0, 11.0, 12.0])]
    clean = sweep(csv_text, runs)
    return [
        ("sweep: two rows swapped", clean, sweep(swapped, runs)),
        ("sweep: a run stopped by a limit", clean, sweep(csv_text, stopped)),
        ("trend: mean M rises with tau", checks.check_trend(falling), checks.check_trend(rising)),
        ("trend: mean M flat in tau", checks.check_trend(falling), checks.check_trend(flat)),
    ]


def percolation_cases():
    gen = np.random.default_rng(3)
    lat = percolation.SiteLattice(open=gen.random((61, 61)) < 0.8, p=0.8)
    a, b = (5, 30), (50, 10)
    lat.open[a] = lat.open[b] = True
    dist = percolation.chemical_distance(lat, a, b)
    cluster = percolation.SiteLattice(open=gen.random((80, 80)) < 0.45, p=0.45)
    radii = percolation.cluster_radii(cluster)
    origins = [(r, c) for r in range(0, 80, 7) for c in range(0, 80, 7)]
    wrong_radii = radii.copy()
    open_origin = next(o for o in origins if cluster.open[o])
    wrong_radii[open_origin[0] * 80 + open_origin[1]] += 1
    k, hw = 50, 6
    t = percolation.fpp_time_to_distance(k, hw, 1.0, 9, key=(1,))
    weights = checks.fpp_weights(k, hw, 1.0, 9, (1,))
    return [
        ("chemical distance: off by one", checks.check_chemical_distance(lat.open, a, b, dist),
         checks.check_chemical_distance(lat.open, a, b, dist + 1)),
        ("cluster radii: one origin off by one", checks.check_cluster_radii(cluster.open, radii, origins),
         checks.check_cluster_radii(cluster.open, wrong_radii, origins)),
        ("passage time: above the straight path", checks.check_passage_time(weights, hw, t),
         checks.check_passage_time(weights, hw, weights[hw].sum() + 1.0)),
    ]


def block_cases():
    w, m, eps = 2, 8, 0.05
    cfg = grid.GridConfig(n=256, w=w, tau_tilde=0.42, seed=4)
    state = grid.new_random(cfg)
    types = state.types.copy()
    blocks = structures.renormalize(state, m, eps)
    own = checks.good_blocks(types, w, m, eps)
    d = blocks.dims
    centre = next((r, c) for r in range(d) for c in range(d)
                  if structures.find_chemical_path(blocks, (r, c), 3) is not None)
    found = structures.find_chemical_path(blocks, centre, 3)
    bad_labels = blocks.labels.copy()
    bad_labels[found.cycle[0]] = False
    broken = copy.copy(found)
    broken.cycle = found.cycle[:-1]
    radii = structures.bad_cluster_radii(blocks)
    flipped_label = blocks.labels.copy()
    flipped_label[0, 0] = not flipped_label[0, 0]

    K = cfg.K
    radius, core = int(np.floor(1.35 * w + 0.5)), (w + 1) // 2
    probe, res = None, None
    for r in range(16, 240, 8):
        res = structures.is_expandable(state, structures.RadicalSpec((r, r), 0.35, 0.1))
        if res.flips_used >= 2:
            probe = (r, r)
            break
    reordered = copy.copy(res)
    reordered.flipped = list(reversed(res.flipped))
    outside = copy.copy(res)
    outside.flipped = [((probe[0] + radius + 1) % 256, probe[1])] + res.flipped
    verdict = copy.copy(res)
    verdict.target_made_monochromatic = not res.target_made_monochromatic

    def witness(r):
        return checks.check_expansion_witness(types, w, K, probe, radius, r, core)

    clean_path = checks.check_chemical_path(found, own, centre)
    return [
        ("blocks: one label flipped", checks.check_blocks(blocks.labels, types, w, m, eps),
         checks.check_blocks(flipped_label, types, w, m, eps)),
        ("chemical path: a cycle block is bad", clean_path, checks.check_chemical_path(found, bad_labels, centre)),
        ("chemical path: cycle not closed", clean_path, checks.check_chemical_path(broken, own, centre)),
        ("bad clusters: one radius off by one", checks.check_bad_clusters(own, radii),
         checks.check_bad_clusters(own, radii[:-1] + [radii[-1] + 1])),
        ("expansion witness: flips out of order", witness(res), witness(reordered)),
        ("expansion witness: a flip outside the window", witness(res), witness(outside)),
        ("expansion witness: verdict negated", witness(res), witness(verdict)),
    ]


def main() -> int:
    bad = 0
    for group in (final_state_cases, sweep_cases, percolation_cases, block_cases):
        for name, clean, corrupt in group():
            ok = not clean and bool(corrupt)
            bad += not ok
            why = corrupt[0] if corrupt else "accepted"
            print(f"{'ok  ' if ok else 'FAIL'} {name}: clean {clean or 'accepted'}; corrupted -> {why}")
    print(f"{bad} check(s) misbehaved")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
