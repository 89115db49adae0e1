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
from .percolation import _bfs_path, _n4_neighbors, cycle_winds_around, surrounding_cycle
from .theory import f_tau, radical_threshold_count, tau_hat
from .unionfind import label_grid_components


@dataclass(frozen=True)
class RadicalSpec:
    """Parameters of a radical-region probe at a given center.

    eps_prime widens the probed neighborhood to radius (1+eps_prime)w;
    eps is the concentration exponent in the tau_hat shrinkage.
    """

    center: tuple[int, int]
    eps_prime: float
    eps: float = 0.1

    def __post_init__(self) -> None:
        if not (math.isfinite(self.eps_prime) and self.eps_prime >= 0):
            raise ValueError(f"eps_prime must be finite and >= 0, got {self.eps_prime}")

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

    Window-local: reads the probe window and leaves the state untouched.  A
    true verdict carries a witness flip sequence; a false verdict is not a
    proof of non-expandability, because the flip cap can end a cascade that
    another order would finish.  Without the cap the verdict does not depend
    on the order, at any tau.
    """
    return cascade_closure(
        state,
        spec.center,
        spec.radius(state.config.w),
        target_type=1,
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

    A rim agent's count is adjusted by the -1 agents of its window's
    overlap with the block, read with TorusPrefix.rect.  The overlap depends
    only on the agent's offset from the block center, so each of the 8(h+1)
    rim offsets is one rect call over the placements that could still fail
    first.  With placements="all" every placement is checked, otherwise
    `placements` uniform placements drawn from rng.  The reported failure is
    the first in placement order, then in row-major rim order.
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
        if int(placements) < 1:
            raise ValueError(f"sampled placements must number >= 1, got {placements}")
        centers = rng.integers(-span, span + 1, size=(int(placements), 2))

    rim = h + 1
    d = np.abs(np.arange(-rim, rim + 1))
    ring = np.argwhere(np.maximum(d[:, None], d[None, :]) == rim) - rim
    prefix = state.plus_prefix()
    br = (center[0] + centers[:, 0]) % n
    bc = (center[1] + centers[:, 1]) % n
    first, agent = len(centers), None
    for dr, dc in ring.tolist():
        if first == 0:
            break
        # Only placements before the first failure found so far can precede it.
        pr, pc = br[:first], bc[:first]
        vr, vc = (pr + dr) % n, (pc + dc) % n
        # Window/block overlap relative to the block center, nonempty as
        # w >= 1; its -1 agents are its area less its +1 agents.
        rlo, rhi = max(-h, dr - w), min(h, dr + w)
        clo, chi = max(-h, dc - w), min(h, dc + w)
        height, width = rhi - rlo + 1, chi - clo + 1
        overlap = height * width - prefix.rect(pr + rlo, pc + clo, height, width)
        fails = (state.types[vr, vc] == -1) & (state.same_count[vr, vc] - overlap >= K)
        p = int(np.argmax(fails))
        if fails[p]:
            first, agent = p, (int(vr[p]), int(vc[p]))
    placement = None if agent is None else (int(br[first]), int(bc[first]))
    return ExpansionVerdict(agent is None, len(centers), placement, agent)


# -- renormalized block lattice ------------------------------------------------


@dataclass
class BlockLattice:
    """Grid renormalized into m x m blocks labeled good (True) / bad."""

    m: int
    dims: int
    labels: np.ndarray
    origin: tuple[int, int]
    eps: float


def _good_blocks(state: GridState, blocks: np.ndarray, eps: float) -> np.ndarray:
    """Good flags of the m x m blocks of types in blocks, shape (m, m, B),
    block b at [:, :, b].

    A block is good iff every intersection I of a (2w+1)-square translate
    with it satisfies minority_count(I) - |I|/2 < N^(1/2+eps), that is the
    sum of -types over I is below 2 N^(1/2+eps).  The intersections with the
    (m + 2w)^2 translates that meet the block are exactly the (2w+1)-box sums
    of -types over the block zero-padded by 2w on every side, so one running
    sum along the block's columns and one along its rows, each read at two
    points 2w+1 apart, give them all, for every block at once.  Requires
    n >= m + 2w + 1, so that no translate meets a block twice on the torus
    and an intersection is a single rectangle.

    The running sums are int16 and may wrap, but every difference read is a
    sum over at most N = (2w+1)^2 <= 32767 cells (GridConfig caps w), which
    int16 holds, so the wrapped differences are exact.
    """
    cfg = state.config
    n, w, N = cfg.n, cfg.w, cfg.N
    m, B = blocks.shape[0], blocks.shape[2]
    if n < m + 2 * w + 1:
        raise ValueError("grid too small relative to block for single-piece intersections")
    side, T = 2 * w + 1, m + 2 * w
    # cols[side + j, i, b] = -types at (i, j) of block b; the padding is 0.
    cols = np.zeros((T + side, m, B), dtype=np.int16)
    np.negative(blocks.transpose(1, 0, 2), out=cols[side : side + m])
    for k in range(side + 1, T + side):
        np.add(cols[k], cols[k - 1], out=cols[k])
    # rows[side + i, t, b]: row i of block b summed over the columns of the
    # t-th translate; then each row run of 2w+1 is summed the same way.
    rows = np.zeros((T + side, T, B), dtype=np.int16)
    np.subtract(cols[side:], cols[:T], out=rows[side : side + m].swapaxes(0, 1))
    for k in range(side + 1, T + side):
        np.add(rows[k], rows[k - 1], out=rows[k])
    worst = np.subtract(rows[side:], rows[:T]).reshape(T * T, B).max(axis=0)
    return worst < 2.0 * N ** (0.5 + eps)


def classify_block_good(state: GridState, block_origin: tuple[int, int], m: int, eps: float) -> bool:
    """Good-block test of the m-block with top-left corner block_origin (see
    _good_blocks)."""
    n = state.n
    ix = np.ix_((block_origin[0] + np.arange(m)) % n, (block_origin[1] + np.arange(m)) % n)
    return bool(_good_blocks(state, state.types[ix][:, :, None], eps)[0])


def renormalize(
    state: GridState, m: int, eps: float, origin: tuple[int, int] = (0, 0)
) -> BlockLattice:
    """Label every m-block of the tiling anchored at origin, all in one
    _good_blocks call."""
    n = state.n
    if m < 1:
        raise ValueError("block size m must be >= 1")
    if n % m != 0:
        raise ValueError(f"block size {m} must divide n={n}")
    dims = n // m
    tiles = np.roll(state.types, (-(origin[0] % n), -(origin[1] % n)), axis=(0, 1))
    blocks = tiles.reshape(dims, m, dims, m).transpose(1, 3, 0, 2).reshape(m, m, dims * dims)
    labels = _good_blocks(state, blocks, eps).reshape(dims, dims)
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
    path = _bfs_path(_n4_neighbors(local), R * side + R, [r * side + c for r, c in cyc_local])
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
    d = blocks.dims
    lab_flat = label_grid_components(~blocks.labels, adjacency=8, torus=True).ravel()
    cells = np.nonzero(lab_flat >= 0)[0]
    # A label is its cluster's first cell, so the roots come sorted and a
    # binary search gives each cell its cluster's dense index.
    lab = lab_flat[cells]
    roots = cells[lab == cells]
    dr = np.abs(cells // d - lab // d)
    dc = np.abs(cells % d - lab % d)
    l1 = np.minimum(dr, d - dr) + np.minimum(dc, d - dc)
    radii = np.zeros(roots.size, dtype=np.int64)
    np.maximum.at(radii, np.searchsorted(roots, lab), l1)
    return radii.tolist()
