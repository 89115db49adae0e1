"""Geometric detectors: radical regions, firewalls, renormalized blocks,
chemical paths, bad clusters.

Every detector is a pure function of the state (repeated calls agree, torus
translation commutes with detection).  Derived radii such as (1+eps')w are
rounded half-up; Euclidean annuli include a cell iff the center-to-center
distance satisfies the bounds, with the inner bound evaluated as the fixed
float expression (r - sqrt(2)*w)**2 so firewalls are reproducible bit for
bit.  Adjacency conventions follow the percolation module: 4-adjacency for
open/good paths and circuits, 8-adjacency for blocking/dual structures.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .dynamics import CascadeResult, cascade_closure
from .grid import GridConfig, GridState, TorusPrefix, round_radius, torus_window_ix
from .percolation import _bfs_path, _n4_graph, _n4_neighbors, cycle_winds_around, surrounding_cycle
from .theory import f_tau, radical_threshold_count, tau_hat
from .unionfind import component_cells, label_grid_components


@dataclass(frozen=True)
class RadicalSpec:
    """Parameters of a radical-region probe at a given center.

    eps_prime widens the probed neighborhood to radius (1+eps_prime)w;
    eps is the concentration exponent in the tau_hat shrinkage.
    """

    center: tuple[int, int]
    eps_prime: float
    eps: float = 0.1

    def radius(self, w: int) -> int:
        return round_radius((1.0 + self.eps_prime) * w)

    def unhappy_radius(self, w: int) -> int:
        return round_radius(self.eps_prime * w)

    def tau_hat_value(self, config: GridConfig) -> float:
        return tau_hat(config.tau, config.N, self.eps)

    def threshold_count(self, config: GridConfig) -> int:
        return radical_threshold_count(config.N, config.K, self.eps_prime, self.eps)

    def unhappy_bound(self, config: GridConfig) -> int:
        return int(
            math.floor(self.eps_prime**2 * config.K - config.N ** (0.5 + self.eps))
        )

    def below_f_infimum(self, config: GridConfig) -> bool:
        """True when eps_prime is at or below the cascade-margin infimum
        f(tau) (detection still runs; the flag is recorded)."""
        tau = config.tau
        if tau >= 0.5:
            return False
        try:
            return self.eps_prime <= f_tau(tau)
        except ValueError:
            return False


@dataclass
class RadicalVerdict:
    is_radical: bool
    minus_count: int
    threshold_count: int
    radius: int
    eps_prime_below_f: bool
    degenerate: bool

    def __bool__(self) -> bool:
        return self.is_radical


@dataclass
class UnhappyVerdict:
    is_unhappy_region: bool
    unhappy_minus_count: int
    bound: int
    radius: int
    degenerate: bool

    def __bool__(self) -> bool:
        return self.is_unhappy_region


def _check_window_fits(n: int, radius: int) -> None:
    if 2 * radius + 1 > n:
        raise ValueError(f"window of radius {radius} does not fit in an n={n} grid")


def is_radical_region(state: GridState, spec: RadicalSpec) -> RadicalVerdict:
    """Strictly fewer than threshold_count minority (-1) agents in the widened
    neighborhood; exact integer comparison via prefix sums."""
    cfg = state.config
    radius = spec.radius(cfg.w)
    _check_window_fits(cfg.n, radius)
    area = (2 * radius + 1) ** 2
    plus = int(state.plus_prefix().window(spec.center[0], spec.center[1], radius))
    minus = area - plus
    thr = spec.threshold_count(cfg)
    return RadicalVerdict(
        is_radical=minus < thr,
        minus_count=minus,
        threshold_count=thr,
        radius=radius,
        eps_prime_below_f=spec.below_f_infimum(cfg),
        degenerate=thr < 1,
    )


def is_unhappy_region(state: GridState, spec: RadicalSpec) -> UnhappyVerdict:
    """At least floor(eps'^2 K - N^(1/2+eps)) currently-unhappy minority agents
    in the core neighborhood of radius round(eps' w).  A nonpositive bound is
    vacuously satisfied and flagged degenerate."""
    cfg = state.config
    radius = spec.unhappy_radius(cfg.w)
    _check_window_fits(cfg.n, radius)
    bound = spec.unhappy_bound(cfg)
    ix = torus_window_ix(cfg.n, spec.center[0] % cfg.n, spec.center[1] % cfg.n, radius)
    count = int(
        np.count_nonzero((state.types[ix] == -1) & (state.same_count[ix] < cfg.K))
    )
    return UnhappyVerdict(
        is_unhappy_region=count >= bound,
        unhappy_minus_count=count,
        bound=bound,
        radius=radius,
        degenerate=bound <= 0,
    )


def is_expandable(
    state: GridState, spec: RadicalSpec, max_flips: Optional[int] = None
) -> CascadeResult:
    """One-sided expandability probe: greedy cascade toward +1 restricted to
    the widened neighborhood, at most (w+1)^2 flips by default; true verdict
    iff the central block of radius round(w/2) becomes all +1.

    A true verdict carries a witness flip sequence; a false verdict is not a
    proof of non-expandability (for tau > 1/2 the greedy order matters).
    """
    cfg = state.config
    radius = spec.radius(cfg.w)
    _check_window_fits(cfg.n, radius)
    if max_flips is None:
        max_flips = (cfg.w + 1) ** 2
    allowed = np.zeros((cfg.n, cfg.n), dtype=bool)
    allowed[torus_window_ix(cfg.n, spec.center[0] % cfg.n, spec.center[1] % cfg.n, radius)] = True
    return cascade_closure(
        state,
        allowed,
        target_type=1,
        center=spec.center,
        max_flips=max_flips,
        stop_when_monochromatic=True,
    )


# -- annular firewalls --------------------------------------------------------


def _annulus_offsets(r: int, w: int) -> np.ndarray:
    """Integer offsets (dr, dc) with r - sqrt(2) w <= ||(dr, dc)|| <= r,
    row-major order."""
    inner_sq = (r - math.sqrt(2.0) * w) ** 2
    d = np.arange(-r, r + 1)
    d2 = d[:, None] ** 2 + d[None, :] ** 2
    sel = (d2 >= inner_sq) & (d2 <= r * r)
    rr, cc = np.nonzero(sel)
    return np.stack([rr - r, cc - r], axis=1)


def annulus_cells(n: int, u: tuple[int, int], r: int, w: int) -> np.ndarray:
    """Cells of the Euclidean annulus of outer radius r and width sqrt(2) w
    centered at u, as an (k, 2) array of torus coordinates (row-major in
    offset order).  Requires r >= 3w and 2r < n."""
    if r < 3 * w:
        raise ValueError(f"annulus radius r={r} must be >= 3w={3 * w}")
    if 2 * r >= n:
        raise ValueError(f"annulus of radius {r} does not fit in an n={n} torus")
    offs = _annulus_offsets(r, w)
    cells = np.empty_like(offs)
    cells[:, 0] = (u[0] + offs[:, 0]) % n
    cells[:, 1] = (u[1] + offs[:, 1]) % n
    return cells


def is_firewall(state: GridState, u: tuple[int, int], r: int) -> bool:
    """True iff the annulus at u is monochromatic."""
    cells = annulus_cells(state.n, u, r, state.config.w)
    vals = state.types[cells[:, 0], cells[:, 1]]
    return bool((vals == vals[0]).all())


def firewall_unconditionally_stable(state: GridState, u: tuple[int, int], r: int) -> bool:
    """Monochromatic annulus whose every agent keeps >= K same-type neighbors
    counting only annulus cells and interior cells currently of the same
    type, i.e. assuming the worst-case (all-opposite) exterior.  Happiness of
    the annulus is then independent of every cell outside radius r."""
    cfg = state.config
    n, w, K = cfg.n, cfg.w, cfg.K
    cells = annulus_cells(n, u, r, w)
    vals = state.types[cells[:, 0], cells[:, 1]]
    if not (vals == vals[0]).all():
        return False
    t = int(vals[0])

    disk = np.zeros((n, n), dtype=bool)
    d = np.arange(-r, r + 1)
    d2 = d[:, None] ** 2 + d[None, :] ** 2
    sel = d2 <= r * r
    rr, cc = np.nonzero(sel)
    disk[(u[0] + rr - r) % n, (u[1] + cc - r) % n] = True

    supporters = disk & (state.types == t)
    prefix = TorusPrefix(supporters)
    counts = prefix.window(cells[:, 0], cells[:, 1], w)
    return bool(np.min(counts) >= K)


# -- regions of expansion ------------------------------------------------------


@dataclass
class ExpansionVerdict:
    is_region_of_expansion: bool
    placements_checked: int
    failing_placement: Optional[tuple[int, int]]
    failing_agent: Optional[tuple[int, int]]

    def __bool__(self) -> bool:
        return self.is_region_of_expansion


def is_region_of_expansion(
    state: GridState,
    center: tuple[int, int],
    radius: int,
    placements: int | str = "all",
    rng: Optional[np.random.Generator] = None,
) -> ExpansionVerdict:
    """Would any all-+1 block of radius round(w/2) placed inside the region
    leave every -1 agent on its outside boundary unhappy?

    Counts are adjusted for the hypothetical block via prefix sums; with
    placements="all" every placement is checked, otherwise `placements`
    uniform placements drawn from rng.
    """
    cfg = state.config
    n, w, K = cfg.n, cfg.w, cfg.K
    h = (w + 1) // 2
    if radius < h:
        raise ValueError(f"region radius {radius} smaller than a block radius {h}")
    _check_window_fits(n, radius)
    if n < 2 * w + 2 * h + 2:
        # A rim agent's window could wrap around and hit the block twice.
        raise ValueError(f"grid n={n} too small for single-piece window/block overlaps")
    span = radius - h
    if placements == "all":
        d = np.arange(-span, span + 1)
        centers = np.stack(np.meshgrid(d, d, indexing="ij"), axis=-1).reshape(-1, 2)
    else:
        if rng is None:
            raise ValueError("sampled placements require an rng")
        centers = rng.integers(-span, span + 1, size=(int(placements), 2))

    ring = []
    rim = h + 1
    for dr in range(-rim, rim + 1):
        for dc in range(-rim, rim + 1):
            if max(abs(dr), abs(dc)) == rim:
                ring.append((dr, dc))
    ring = np.asarray(ring)

    prefix = TorusPrefix(state.types < 0)

    types = state.types
    sc = state.same_count
    for off in centers:
        br = (center[0] + int(off[0])) % n
        bc = (center[1] + int(off[1])) % n
        for dr, dc in ring:
            vr = (br + int(dr)) % n
            vc = (bc + int(dc)) % n
            if types[vr, vc] != -1:
                continue
            # Window/block overlap in coordinates relative to the block center.
            rlo = max(-h, int(dr) - w)
            rhi = min(h, int(dr) + w)
            clo = max(-h, int(dc) - w)
            chi = min(h, int(dc) + w)
            overlap = 0
            if rlo <= rhi and clo <= chi:
                overlap = int(
                    prefix.rect(br + rlo, bc + clo, rhi - rlo + 1, chi - clo + 1)
                )
            adjusted = int(sc[vr, vc]) - overlap
            if adjusted >= K:
                return ExpansionVerdict(False, len(centers), (br, bc), (vr, vc))
    return ExpansionVerdict(True, len(centers), None, None)


# -- renormalized block lattice ------------------------------------------------


@dataclass
class BlockLattice:
    """Grid renormalized into m x m blocks labeled good (True) / bad."""

    m: int
    dims: int
    labels: np.ndarray
    origin: tuple[int, int]
    eps: float


def _good_blocks(state: GridState, row0: int, col0s: np.ndarray, m: int, eps: float) -> np.ndarray:
    """Good flags of the m-blocks with top-left corners (row0, c), c in col0s.

    A block is good iff every intersection I of a (2w+1)-square translate
    with it satisfies minority_count(I) - |I|/2 < N^(1/2+eps).  Exact via
    prefix sums over all T x T translate positions, T = m + 2w, for every
    block at once; requires n >= m + 2w + 1 so an intersection is a single
    rectangle.
    """
    cfg = state.config
    n, w, N = cfg.n, cfg.w, cfg.N
    if n < m + 2 * w + 1:
        raise ValueError("grid too small relative to block for single-piece intersections")
    thr2 = 2.0 * N ** (0.5 + eps)
    side = 2 * w + 1
    t = np.arange(-side + 1, m)
    lo = np.clip(t, 0, None)
    hi = np.clip(t + side - 1, None, m - 1)
    L = hi - lo + 1
    r0 = (row0 + lo) % n
    c0 = (np.asarray(col0s)[:, None] + lo[None, :]) % n
    plus = state.plus_prefix().rect(
        r0[None, :, None], c0[:, None, :], L[None, :, None], L[None, None, :]
    )
    n_i = L[:, None] * L[None, :]
    return (2 * (n_i - plus) - n_i < thr2).all(axis=(1, 2))


def classify_block_good(state: GridState, block_origin: tuple[int, int], m: int, eps: float) -> bool:
    """Good-block test of one m-block (see _good_blocks)."""
    return bool(_good_blocks(state, block_origin[0], [block_origin[1]], m, eps)[0])


def renormalize(
    state: GridState, m: int, eps: float, origin: tuple[int, int] = (0, 0)
) -> BlockLattice:
    """Label every m-block of the tiling anchored at origin, a block row per query."""
    n = state.n
    if m < 1:
        raise ValueError("block size m must be >= 1")
    if n % m != 0:
        raise ValueError(f"block size {m} must divide n={n}")
    dims = n // m
    labels = np.zeros((dims, dims), dtype=bool)
    cols = (origin[1] + np.arange(dims) * m) % n
    for bi in range(dims):  # a row at a time keeps the query arrays (dims, T, T)
        labels[bi] = _good_blocks(state, (origin[0] + bi * m) % n, cols, m, eps)
    return BlockLattice(m=m, dims=dims, labels=labels, origin=origin, eps=eps)


@dataclass
class ChemicalPath:
    """Surrounding cycle of good blocks plus a connector from the center."""

    cycle: list
    path: list
    total_length: int


def find_chemical_path(
    blocks: BlockLattice, center_block: tuple[int, int], r_blocks: int
) -> Optional[ChemicalPath]:
    """Cycle of good blocks in the block-annulus (r_blocks, 3 r_blocks]
    surrounding center_block, plus a shortest good-block path from the center
    to the cycle.  None when the dual bad-block crossing blocks the annulus,
    the center block is bad, or the center cannot reach the cycle.  The
    connector ends at the first cycle block that a breadth-first search from
    the center discovers, neighbors visited in _N4 order.
    """
    d = blocks.dims
    if r_blocks < 1:
        raise ValueError("r_blocks must be >= 1")
    if 6 * r_blocks + 1 > d:
        raise ValueError("block annulus does not fit in the lattice")
    R = 3 * r_blocks
    rows = (np.arange(center_block[0] - R, center_block[0] + R + 1)) % d
    cols = (np.arange(center_block[1] - R, center_block[1] + R + 1)) % d
    local = blocks.labels[np.ix_(rows, cols)]
    c0 = (R, R)
    if not local[c0]:
        return None

    cyc_local = surrounding_cycle(local, c0, r_blocks, R)
    if cyc_local is None:
        return None
    if not cycle_winds_around(cyc_local, c0):  # defensive
        raise RuntimeError("extracted cycle does not surround the center block")

    side = 2 * R + 1
    graph = _n4_graph(_n4_neighbors(local))
    path = _bfs_path(graph, R * side + R, [r * side + c for r, c in cyc_local])
    if path is None:
        return None
    path_local = [divmod(v, side) for v in path]

    def to_abs(seq):
        return [(int(rows[r]), int(cols[c])) for r, c in seq]

    return ChemicalPath(
        cycle=to_abs(cyc_local),
        path=to_abs(path_local),
        total_length=len(cyc_local) + len(path_local) - 1,
    )


def bad_cluster_radii(blocks: BlockLattice) -> list[int]:
    """Radii of 8-connected bad-block clusters: for each cluster, the max
    torus l1 distance from its row-major-first block.  Ordered by that root."""
    bad = ~blocks.labels
    if not bad.any():
        return []
    d = blocks.dims
    labels = label_grid_components(bad, adjacency=8, torus=True)
    comps = component_cells(labels)
    out = []
    for root in sorted(comps):
        cells = comps[root]
        rr = cells // d
        cc = cells % d
        r0, c0 = divmod(root, d)
        dr = np.abs(rr - r0)
        dc = np.abs(cc - c0)
        l1 = np.minimum(dr, d - dr) + np.minimum(dc, d - dc)
        out.append(int(l1.max()))
    return out
