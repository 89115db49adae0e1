"""Checks of segsim's outputs, computed apart from segsim.

Nothing here imports segsim: every check recomputes what it needs from the
raw arrays (numpy/scipy only) or tests a property the method must have.
Each check returns a list of problems; an empty list means the output
passed.  ``selftest.py`` feeds every check a corrupted output and shows
that it is rejected.
"""

from __future__ import annotations

import csv
import io
import json
import math
from fractions import Fraction

import numpy as np
from scipy import ndimage
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components, shortest_path

# Stream tags of segsim's documented seed derivation (rng.py):
# SeedSequence((seed, tag, *key)) feeds a PCG64 generator.
TAG_INIT = 0
TAG_MEASURE = 2
TAG_PERCOLATION = 3

# The fixed sweep CSV columns, as the sweep has always written them.
SWEEP_COLUMNS = [
    "tau_tilde", "K", "N", "w", "n", "p", "seed", "flips", "time", "unhappy0",
    "largest_plus_r", "largest_minus_r", "mean_M", "stderr_M", "mean_Mprime",
    "stderr_Mprime",
]


def pcg(seed: int, *tags: int) -> np.random.Generator:
    entropy = (int(seed) & ((1 << 64) - 1),) + tuple(int(t) for t in tags)
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(entropy)))


def run_seed(base_seed: int, cell: int, rep: int) -> int:
    """Per-run sweep seed: first 64-bit word of SeedSequence((base, cell, rep))."""
    ss = np.random.SeedSequence((int(base_seed) & ((1 << 64) - 1), int(cell), int(rep)))
    return int(ss.generate_state(1, np.uint64)[0])


def threshold(tau: float, N: int) -> int:
    """K = ceil(tau * N) in exact rational arithmetic."""
    return int(math.ceil(Fraction(tau).limit_denominator(10**6) * N))


# -- grid recounts ---------------------------------------------------------


def initial_types(n: int, p: float, seed: int) -> np.ndarray:
    plus = pcg(seed, TAG_INIT).random((n, n)) < p
    return np.where(plus, 1, -1).astype(np.int8)


def window_sums(indicator: np.ndarray, radius: int) -> np.ndarray:
    """Sum over the torus window of the given radius around every cell."""
    n = indicator.shape[0]
    a = np.asarray(indicator, dtype=np.int64)
    rows = np.arange(-radius, n + radius) % n
    padded = a[rows][:, rows]
    sat = np.zeros((n + 2 * radius + 1,) * 2, dtype=np.int64)
    sat[1:, 1:] = padded.cumsum(0).cumsum(1)
    s = 2 * radius + 1
    return sat[s:, s:] - sat[:-s, s:] - sat[s:, :-s] + sat[:-s, :-s]


def same_counts(types: np.ndarray, w: int) -> np.ndarray:
    N = (2 * w + 1) ** 2
    plus = window_sums(types > 0, w)
    return np.where(types > 0, plus, N - plus)


def check_final_state(types, same_count, w, K, report, initial) -> list:
    """Termination, the recount of same-type counts and the Lyapunov function."""
    problems = []
    N = (2 * w + 1) ** 2
    recount = same_counts(types, w)
    if not np.array_equal(recount, np.asarray(same_count)):
        bad = int(np.count_nonzero(recount != same_count))
        problems.append(f"same_count differs from the recount at {bad} cells")
    if int(recount.min()) < K:
        problems.append(f"{int((recount < K).sum())} agents end with fewer than K={K} same-type")
    if int((recount <= min(K - 1, N + 1 - K)).sum()):
        problems.append("an eligible agent remains at the end")
    if report["termination_reason"] != "NoEligibleAgents":
        problems.append(f"termination reason {report['termination_reason']}")
    if report["lyapunov_final"] != int(recount.sum()):
        problems.append("final Lyapunov value differs from the recount's sum")
    if report["lyapunov_initial"] != int(same_counts(initial, w).sum()):
        problems.append("initial Lyapunov value differs from the recount of the initial fill")
    if report["lyapunov_final"] - report["lyapunov_initial"] < 2 * report["flips_total"]:
        problems.append("Lyapunov value rose by less than 2 per flip")
    return problems


# -- square regions ----------------------------------------------------------


def center_radii(types: np.ndarray) -> np.ndarray:
    """r(c) for every cell, by counting the radii whose window is single-type.

    A single-type window stays single-type when shrunk, so r(c) is the number
    of radii 1..floor((n-1)/2) at which the window at c is single-type.
    """
    n = types.shape[0]
    plus = types > 0
    r = np.zeros((n, n), dtype=np.int64)
    alive = np.ones((n, n), dtype=bool)
    for rho in range(1, (n - 1) // 2 + 1):
        s = window_sums(plus, rho)
        area = (2 * rho + 1) ** 2
        alive &= np.where(plus, s == area, s == 0)
        if not alive.any():
            break
        r += alive
    return r


def sampled_cells(n: int, k: int, seed: int, r_map: np.ndarray) -> np.ndarray:
    """The agents the region summary samples: k without replacement from the
    measurement stream, plus the row-major first argmax of r(c)."""
    cells = pcg(seed, TAG_MEASURE).choice(n * n, size=k, replace=False)
    top = int(np.argmax(r_map))
    if top not in set(cells.tolist()):
        cells = np.concatenate([cells, [top]])
    return cells.astype(np.int64)


def mono_radius(r_map: np.ndarray, cell: int, reach: int) -> int:
    """max{ r(c) : torus Chebyshev distance(u, c) <= r(c) } for agent u."""
    n = r_map.shape[0]
    ur, uc = divmod(int(cell), n)
    d = np.arange(-reach, reach + 1)
    sub = r_map[np.ix_((ur + d) % n, (uc + d) % n)]
    dist = np.maximum(np.abs(d)[:, None], np.abs(d)[None, :])
    return int(sub[sub >= dist].max())


def check_region_summary(types, summary, seed) -> list:
    """Largest regions, the sampled M and M <= M' against an own r(c) map."""
    problems = []
    n = types.shape[0]
    r_map = center_radii(types)
    for name, t in (("largest_plus", 1), ("largest_minus", -1)):
        masked = np.where(types == t, r_map, -1)
        flat = int(np.argmax(masked))
        want = None if masked.max() < 0 else {"center": [flat // n, flat % n], "radius": int(masked.max())}
        if summary[name] != want:
            problems.append(f"{name} is {summary[name]}, recomputed {want}")
    cells = sampled_cells(n, summary["sample_size"], seed, r_map)
    reach = int(r_map.max())
    radii = np.array([mono_radius(r_map, c, reach) for c in cells])
    values, counts = np.unique(radii, return_counts=True)
    hist = {str(int(v)): int(c) for v, c in zip(values, counts)}
    got = {str(k): v for k, v in summary["m_radius_histogram"].items()}
    if got != hist:
        problems.append("sampled M radii differ from the recomputation")
    mean_M = float(((2 * radii.astype(np.float64) + 1) ** 2).mean())
    if not math.isclose(summary["mean_M"], mean_M, rel_tol=1e-12):
        problems.append(f"mean_M {summary['mean_M']} != recomputed {mean_M}")
    if not summary["mean_M"] <= summary["mean_Mprime"]:
        problems.append("mean_M exceeds mean_Mprime")
    return problems


# -- sweeps -------------------------------------------------------------------


def check_sweep(csv_text, run_jsons, taus, w, replicates, base_seed) -> list:
    """CSV rows in cell/replicate order with derived seeds, per-run reports
    that terminated and raised the Lyapunov value, M <= M', and the trend."""
    problems = []
    reader = csv.DictReader(io.StringIO(csv_text))
    if reader.fieldnames != SWEEP_COLUMNS:
        problems.append(f"CSV columns {reader.fieldnames}")
        return problems
    rows = list(reader)
    if len(rows) != len(taus) * replicates:
        problems.append(f"{len(rows)} CSV rows for {len(taus) * replicates} runs")
        return problems
    means = []
    for ci, tau in enumerate(taus):
        vals = []
        for rep in range(replicates):
            row = rows[ci * replicates + rep]
            where = f"cell {ci} rep {rep}"
            if int(row["seed"]) != run_seed(base_seed, ci, rep) or float(row["tau_tilde"]) != tau:
                problems.append(f"{where}: row out of place (seed {row['seed']})")
                continue
            rep_json = json.loads(run_jsons[(ci, rep)])
            if rep_json["termination_reason"] != "NoEligibleAgents":
                problems.append(f"{where}: ended by {rep_json['termination_reason']}")
            flips = rep_json["flips_total"]
            if rep_json["lyapunov_final"] - rep_json["lyapunov_initial"] < 2 * flips:
                problems.append(f"{where}: Lyapunov rose by less than 2 per flip")
            summ = rep_json["region_summary"]
            if int(row["flips"]) != flips or float(row["mean_M"]) != summ["mean_M"]:
                problems.append(f"{where}: CSV row disagrees with the run report")
            K = threshold(tau, (2 * w + 1) ** 2)
            if rep_json["config"]["K"] != K or rep_json["config"]["seed"] != int(row["seed"]):
                problems.append(f"{where}: report config disagrees")
            if not float(row["mean_M"]) <= float(row["mean_Mprime"]):
                problems.append(f"{where}: mean_M exceeds mean_Mprime")
            vals.append(float(row["mean_M"]))
        means.append(np.array(vals))
    if problems:
        return problems
    problems += check_trend(means)
    return problems


def check_trend(per_tau: list) -> list:
    """Mean M decreases across the tau grid.

    The end points must be strictly ordered.  Every pair i < j must not
    invert by more than 3 standard errors of the difference of the
    replicate means: with 6 replicates the strict order of two neighbouring
    cells is a coin with a small bias (tau 0.40 against 0.42 inverts on
    about 1.5 % of base seeds), while an inversion beyond 3 standard errors
    has a chance of about 1e-6 under the same run-to-run spread.
    """
    problems = []
    means = [float(v.mean()) for v in per_tau]
    if not means[0] > means[-1]:
        problems.append(f"mean M does not decrease from the first to the last tau: {means}")
    for i in range(len(per_tau)):
        for j in range(i + 1, len(per_tau)):
            a, b = per_tau[i], per_tau[j]
            se = math.sqrt(a.var(ddof=1) / a.size + b.var(ddof=1) / b.size)
            if means[j] - means[i] > 3 * se:
                problems.append(f"mean M rises from tau cell {i} to {j} beyond 3 standard errors: {means}")
    return problems


# -- percolation --------------------------------------------------------------


def grid_graph(mask: np.ndarray):
    """Undirected 4-adjacency graph over the open cells of a planar lattice."""
    h, w = mask.shape
    ids = np.arange(h * w).reshape(h, w)
    right = mask[:, :-1] & mask[:, 1:]
    down = mask[:-1, :] & mask[1:, :]
    src = np.concatenate([ids[:, :-1][right], ids[:-1, :][down]])
    dst = np.concatenate([ids[:, 1:][right], ids[1:, :][down]])
    return coo_matrix((np.ones(src.size), (src, dst)), shape=(h * w, h * w)).tocsr()


def check_chemical_distance(mask, a, b, got) -> list:
    h, w = mask.shape
    if not (mask[a] and mask[b]):
        want = None
    else:
        dist = shortest_path(grid_graph(mask), directed=False, unweighted=True,
                             indices=a[0] * w + a[1])[b[0] * w + b[1]]
        want = None if np.isinf(dist) else int(dist) + 1
    problems = []
    if got != want:
        problems.append(f"chemical distance {got}, shortest path gives {want}")
    if got is not None and got < abs(a[0] - b[0]) + abs(a[1] - b[1]) + 1:
        problems.append(f"chemical distance {got} below the l1 bound")
    return problems


def check_cluster_radii(mask, radii, origins) -> list:
    h, w = mask.shape
    lab, _ = ndimage.label(mask)
    problems = []
    for r, c in origins:
        if not mask[r, c]:
            want = -1
        else:
            rr, cc = np.nonzero(lab == lab[r, c])
            want = int((np.abs(rr - r) + np.abs(cc - c)).max())
        if int(radii[r * w + c]) != want:
            problems.append(f"cluster radius at {(r, c)} is {int(radii[r * w + c])}, label gives {want}")
    return problems


def fpp_weights(k, half_width, mean, seed, key) -> np.ndarray:
    return pcg(seed, TAG_PERCOLATION, *key).exponential(mean, (2 * half_width + 1, k + 1))


def check_passage_time(weights, half_width, t) -> list:
    lo = weights[half_width, 0] + weights[half_width, -1]
    hi = weights[half_width, :].sum()
    if not (lo * (1 - 1e-12) <= t <= hi * (1 + 1e-12)):
        return [f"passage time {t} outside [{lo}, {hi}]"]
    return []


# -- renormalized blocks --------------------------------------------------------


def good_blocks(types, w, m, eps) -> np.ndarray:
    """Block labels: every intersection I of a (2w+1)-square translate with
    the block has minus_count(I) - |I|/2 < N^(1/2+eps)."""
    n = types.shape[0]
    N = (2 * w + 1) ** 2
    side = 2 * w + 1
    d = n // m
    minus = (types < 0).astype(np.int64)
    sat = np.zeros((n + 1, n + 1), dtype=np.int64)
    sat[1:, 1:] = minus.cumsum(0).cumsum(1)
    base = np.arange(d) * m
    good = np.ones((d, d), dtype=bool)
    spans = [(max(t, 0), min(t + side - 1, m - 1)) for t in range(-side + 1, m)]
    for r0, r1 in spans:
        for c0, c1 in spans:
            R0, R1 = base[:, None] + r0, base[:, None] + r1 + 1
            C0, C1 = base[None, :] + c0, base[None, :] + c1 + 1
            cnt = sat[R1, C1] - sat[R0, C1] - sat[R1, C0] + sat[R0, C0]
            size = (r1 - r0 + 1) * (c1 - c0 + 1)
            good &= (2 * cnt - size) < 2.0 * N ** (0.5 + eps)
    return good


def check_blocks(labels, types, w, m, eps) -> list:
    want = good_blocks(types, w, m, eps)
    if not np.array_equal(np.asarray(labels), want):
        return [f"{int((labels != want).sum())} block labels differ from the recomputation"]
    return []


def _torus_step(a, b, d) -> tuple:
    return ((b[0] - a[0] + d // 2) % d - d // 2, (b[1] - a[1] + d // 2) % d - d // 2)


def winding(cycle, center, d) -> int:
    """Winding number of a closed 4-connected block cycle around center."""
    rel = [(0, 0)]
    for a, b in zip(cycle, cycle[1:] + cycle[:1]):
        s = _torus_step(a, b, d)
        rel.append((rel[-1][0] + s[0], rel[-1][1] + s[1]))
    o = _torus_step(center, cycle[0], d)
    pts = [(r + o[0], c + o[1]) for r, c in rel]
    angle = 0.0
    for (r0, c0), (r1, c1) in zip(pts, pts[1:]):
        a0, a1 = math.atan2(r0, c0), math.atan2(r1, c1)
        angle += (a1 - a0 + math.pi) % (2 * math.pi) - math.pi
    return round(angle / (2 * math.pi))


def check_chemical_path(found, labels, center) -> list:
    """Cycle of good blocks around the centre block, 4-connected and closed,
    and a 4-connected good connector from the centre block to the cycle."""
    if found is None:
        return []
    cycle, path = [tuple(c) for c in found.cycle], [tuple(c) for c in found.path]
    d = labels.shape[0]
    problems = []
    if any(not labels[c] for c in cycle + path):
        problems.append("chemical path uses a bad block")
    if len(set(cycle)) != len(cycle):
        problems.append("cycle visits a block twice")
    steps = list(zip(cycle, cycle[1:] + cycle[:1])) + list(zip(path, path[1:]))
    if any(sum(map(abs, _torus_step(a, b, d))) != 1 for a, b in steps):
        problems.append("chemical path is not 4-connected")
    if center in cycle or winding(cycle, center, d) == 0:
        problems.append("cycle does not wind around the centre block")
    if not path or path[0] != tuple(center) or path[-1] not in set(cycle):
        problems.append("connector does not join the centre block to the cycle")
    if found.total_length != len(cycle) + len(path) - 1:
        problems.append("total length disagrees with the cycle and connector")
    return problems


def check_bad_clusters(labels, radii) -> list:
    """8-connected torus clusters of bad blocks, radius from the row-major
    first block, ordered by that block."""
    bad = ~np.asarray(labels)
    d = bad.shape[0]
    idx = np.nonzero(bad.ravel())[0]
    if idx.size == 0:
        want = []
    else:
        pos = np.full(d * d, -1)
        pos[idx] = np.arange(idx.size)
        rr, cc = idx // d, idx % d
        src, dst = [], []
        for dr in (-1, 0, 1):
            for dc in (-1, 0, 1):
                nb = ((rr + dr) % d) * d + (cc + dc) % d
                ok = bad.ravel()[nb]
                src.append(np.arange(idx.size)[ok])
                dst.append(pos[nb[ok]])
        src, dst = np.concatenate(src), np.concatenate(dst)
        g = coo_matrix((np.ones(src.size), (src, dst)), shape=(idx.size, idx.size))
        _, comp = connected_components(g, directed=False)
        want = []
        roots = {}
        for i, c in enumerate(comp):
            roots.setdefault(c, idx[i])
        for c, root in sorted(roots.items(), key=lambda kv: kv[1]):
            members = idx[comp == c]
            r0, c0 = divmod(int(root), d)
            dr = np.abs(members // d - r0)
            dc = np.abs(members % d - c0)
            want.append(int((np.minimum(dr, d - dr) + np.minimum(dc, d - dc)).max()))
    if list(radii) != want:
        return ["bad-cluster radii differ from the recomputation"]
    return []


def check_expansion_witness(types, w, K, center, radius, result, core) -> list:
    """Replay the witness as flips toward +1 inside the probe window, each
    eligible under an own recount, and recheck the verdict on the core."""
    n = types.shape[0]
    N = (2 * w + 1) ** 2
    t = types.copy()
    counts = same_counts(t, w)
    problems = []
    for r, c in result.flipped:
        dr = min(abs(r - center[0]) % n, n - abs(r - center[0]) % n)
        dc = min(abs(c - center[1]) % n, n - abs(c - center[1]) % n)
        s = int(counts[r, c])
        if t[r, c] != -1 or max(dr, dc) > radius or not (s < K and N - s + 1 >= K):
            problems.append(f"witness flip {(r, c)} is not an eligible flip toward +1 in the window")
            break
        t[r, c] = 1
        near = np.ix_(np.arange(r - 2 * w, r + 2 * w + 1) % n, np.arange(c - 2 * w, c + 2 * w + 1) % n)
        window = np.ix_(np.arange(r - w, r + w + 1) % n, np.arange(c - w, c + w + 1) % n)
        counts[window] = same_counts(t[near], w)[w:-w, w:-w]
    d = np.arange(-core, core + 1)
    mono = bool((t[np.ix_((center[0] + d) % n, (center[1] + d) % n)] == 1).all())
    if not problems and mono != result.target_made_monochromatic:
        problems.append(f"verdict {result.target_made_monochromatic}, replay gives {mono}")
    if result.flips_used != len(result.flipped):
        problems.append("flips_used disagrees with the witness length")
    return problems
