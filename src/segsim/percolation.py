"""Site percolation and first-passage utilities on planar lattices.

Conventions (shared with the block-structure detectors): open paths and
circuits use 4-adjacency; blocking/dual structures use 8-adjacency.
Passage times attach i.i.d. nonnegative weights to *sites*, and the passage
time of a path is the sum over its vertices, both endpoints included.  They
run in the compiled library of _kernels when it loads, and csgraph's
Dijkstra is the reference; both give the same float for every instance.
Chemical distances, surrounding cycles and the block detectors' chemical
paths read breadth-first tree paths (_bfs_path) off a slot array of open
4-neighbours; the search runs in C on that array when the library loads,
and csgraph's breadth-first order on the array's sparse graph is the
reference, with the same path for every instance.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

import numpy as np
from scipy import ndimage
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import breadth_first_order as _breadth_first_order
from scipy.sparse.csgraph import dijkstra as _dijkstra

from . import _kernels
from .rng import STREAM_PERCOLATION, generator
from .unionfind import label_grid_components


@dataclass
class SiteLattice:
    """Planar site lattice; True = open."""

    open: np.ndarray
    p: float
    seed: Optional[int] = None

    @classmethod
    def random(cls, dims: tuple[int, int], p: float, seed: int, key: tuple = ()) -> "SiteLattice":
        rng = generator(seed, STREAM_PERCOLATION, *key)
        return cls(open=rng.random(dims) < p, p=p, seed=seed)

    @property
    def dims(self) -> tuple[int, int]:
        return self.open.shape


@dataclass
class WeightLattice:
    """Planar lattice of i.i.d. nonnegative site weights."""

    weights: np.ndarray
    distribution: str
    mean: float
    seed: Optional[int] = None

    @classmethod
    def exponential(cls, dims: tuple[int, int], mean: float, seed: int, key: tuple = ()) -> "WeightLattice":
        rng = generator(seed, STREAM_PERCOLATION, *key)
        return cls(
            weights=rng.exponential(mean, dims),
            distribution="exponential",
            mean=mean,
            seed=seed,
        )

    @property
    def dims(self) -> tuple[int, int]:
        return self.weights.shape


_N4 = ((0, 1), (0, -1), (1, 0), (-1, 0))


def _n4_neighbors(mask: np.ndarray) -> np.ndarray:
    """(h, w, 4) int32 array: slot k of a cell holds the flat index of its
    neighbor in direction _N4[k] when both cells are open, else -1.

    Slot k of every cell is a shifted slice of one id grid padded by -1,
    holding each open cell's flat index and -1 elsewhere; the closed cells'
    slots are then cleared."""
    mask = np.asarray(mask, dtype=bool)
    h, w = mask.shape
    ids = np.full((h + 2, w + 2), -1, dtype=np.int32)
    ids[1:-1, 1:-1] = np.where(mask, np.arange(h * w, dtype=np.int32).reshape(h, w), -1)
    nbr = np.empty((h, w, 4), dtype=np.int32)
    for k, (dr, dc) in enumerate(_N4):
        nbr[:, :, k] = ids[1 + dr : h + 1 + dr, 1 + dc : w + 1 + dc]
    nbr.reshape(-1, 4)[np.flatnonzero(~mask)] = -1
    return nbr


def _n4_graph(nbr: np.ndarray) -> csr_matrix:
    """The directed graph whose adjacency lists are the nonnegative slots of
    nbr, each kept in slot (_N4) order."""
    size = nbr.shape[0] * nbr.shape[1]
    valid = nbr >= 0
    indices = nbr[valid]
    indptr = np.zeros(size + 1, dtype=np.int32)
    np.cumsum(valid.reshape(size, 4).sum(axis=1), out=indptr[1:])
    return csr_matrix((np.ones(indices.size), indices, indptr), shape=(size, size))


def _bfs_path(nbr: np.ndarray, source: int, targets) -> Optional[list[int]]:
    """Nodes source .. t of the breadth-first tree path to the first node t
    of targets (a node index or a sequence of them) that a FIFO search from
    source discovers, or None; nbr is a slot array as _n4_neighbors gives
    it, and each node's neighbors are visited in slot (_N4) order.

    Runs in the compiled library (_kernels.grid_bfs) when it loads.  The
    reference is csgraph's directed breadth-first order on _n4_graph(nbr):
    it scans each node's stored neighbors in order, so its discovery order,
    and with it every tree path, is the same.
    """
    if _kernels.grid_bfs is not None:
        return _kernels.grid_bfs(nbr, source, targets)
    graph = _n4_graph(nbr)
    order, pred = _breadth_first_order(graph, source, directed=True, return_predecessors=True)
    is_target = np.zeros(graph.shape[0], dtype=bool)
    is_target[targets] = True
    hits = order[is_target[order]]
    if hits.size == 0:
        return None
    path = [int(hits[0])]
    while path[-1] != source:
        path.append(int(pred[path[-1]]))
    path.reverse()
    return path


def chemical_distance(lattice: SiteLattice, a: tuple[int, int], b: tuple[int, int]) -> Optional[int]:
    """Vertex count of the shortest open 4-adjacent path from a to b, or None.

    Fully open lattice: ||a-b||_1 + 1 vertices.
    """
    mask = lattice.open
    h, w = mask.shape
    ar, ac = a
    br, bc = b
    if not (0 <= ar < h and 0 <= ac < w and 0 <= br < h and 0 <= bc < w):
        raise ValueError("endpoints must lie in the lattice")
    if not (mask[ar, ac] and mask[br, bc]):
        return None
    path = _bfs_path(_n4_neighbors(mask), ar * w + ac, br * w + bc)
    return None if path is None else len(path)


def fpp_min_passage_time(
    weights: WeightLattice,
    source_set: Iterable[tuple[int, int]],
    target_set: Iterable[tuple[int, int]],
) -> float:
    """Minimum over 4-adjacent paths of the summed site weights, exact for the
    given instance.  Weights are nonnegative; an inf weight blocks its site.

    Runs in the compiled library (_kernels.passage_time) when it loads: a
    Dijkstra on the implicit grid that stops at the first settled target.
    The csgraph Dijkstra through a virtual super-source below is the
    reference.  Both return the same float: a path's time is the left fold
    fl(...fl(w_s + w_1)... + w_t), which never falls as a prefix grows or as
    its prefix time grows, so any correct Dijkstra settles each site at the
    minimum of that fold (proved at segsim_passage_time in _kernels).
    """
    w = np.asarray(weights.weights, dtype=np.float64)
    h, wd = w.shape
    ends = [list(source_set), list(target_set)]
    if not ends[0] or not ends[1]:
        raise ValueError("source and target sets must be nonempty")
    if not all(0 <= r < h and 0 <= c < wd for side in ends for r, c in side):
        raise ValueError("endpoints must lie in the lattice")
    sources, targets = (np.unique([r * wd + c for r, c in side]) for side in ends)
    if np.intersect1d(sources, targets).size:
        raise ValueError("source and target sets must be disjoint")
    if not (w >= 0).all():
        raise ValueError("site weights must be nonnegative and not NaN (inf blocks a site)")
    if _kernels.passage_time is not None:
        return _kernels.passage_time(w, sources, targets)

    flat = w.ravel()
    rows_list = []
    cols_list = []
    data_list = []
    ids = np.arange(h * wd).reshape(h, wd)
    for dr, dc in _N4:
        r0, r1 = max(0, -dr), min(h, h - dr)
        c0, c1 = max(0, -dc), min(wd, wd - dc)
        src = ids[r0:r1, c0:c1].ravel()
        dst = ids[r0 + dr : r1 + dr, c0 + dc : c1 + dc].ravel()
        rows_list.append(src)
        cols_list.append(dst)
        data_list.append(flat[dst])
    virtual = h * wd
    rows_list.append(np.full(len(sources), virtual, dtype=np.int64))
    cols_list.append(sources)
    data_list.append(flat[sources])
    graph = csr_matrix(
        (np.concatenate(data_list), (np.concatenate(rows_list), np.concatenate(cols_list))),
        shape=(virtual + 1, virtual + 1),
    )
    dist = _dijkstra(graph, directed=True, indices=virtual)
    return float(dist[targets].min())


def cluster_radii(lattice: SiteLattice, origins: Optional[Sequence[tuple[int, int]]] = None) -> np.ndarray:
    """Cluster radius seen from each origin: max l1 distance reached within the
    origin's open 4-connected cluster; -1 for a closed origin.

    origins defaults to every cell, row-major.  With s = r + c and d = r - c,
    the l1 distance is max(|s - s_o|, |d - d_o|), so the radius from o is the
    largest of max(s) - s_o, s_o - min(s), max(d) - d_o and d_o - min(d) over
    o's cluster: four per-label extremes replace a scan of every cluster.
    The radius of every cell is taken at once and the origins read it.
    Raises ValueError for an origin outside the lattice.
    """
    mask = lattice.open
    h, w = mask.shape
    if origins is not None:
        o = np.array(origins, dtype=np.int64).reshape(-1, 2)
        if not ((o >= 0) & (o < (h, w))).all():
            raise ValueError("origins must lie in the lattice")
    lab_flat = label_grid_components(mask, adjacency=4, torus=False).ravel()
    cells = np.nonzero(lab_flat >= 0)[0]
    rr, cc = np.divmod(cells, w)
    # A label is its cluster's root cell; a table from each root to a dense
    # index gives every cell its cluster's.
    lab = lab_flat[cells]
    roots = cells[lab == cells]
    dense = np.empty(h * w, dtype=np.intp)
    dense[roots] = np.arange(roots.size)
    comp = dense[lab]
    best = np.zeros(cells.size, dtype=np.int64)
    for v in (rr + cc, rr - cc):
        hi = np.full(roots.size, np.iinfo(np.int64).min)
        lo = np.full(roots.size, np.iinfo(np.int64).max)
        np.maximum.at(hi, comp, v)
        np.minimum.at(lo, comp, v)
        best = np.maximum(best, np.maximum(hi[comp] - v, v - lo[comp]))
    radii = np.full(h * w, -1, dtype=np.int64)
    radii[cells] = best
    return radii if origins is None else radii[o[:, 0] * w + o[:, 1]]


def cluster_radius_tail(
    lattice_ensemble: Iterable[SiteLattice],
    ks: Sequence[int],
    origins_per_lattice: Optional[int] = None,
    seed: int = 0,
) -> tuple[np.ndarray, np.ndarray]:
    """Empirical tail P(radius >= k) over all origins of an ensemble.

    Closed origins count toward the denominator (no open path at all), which
    matches the event "an open path from the origin reaches l1 distance k".
    Returns (radii, tail) with tail aligned to ks.
    """
    all_radii = []
    for i, lat in enumerate(lattice_ensemble):
        if origins_per_lattice is None:
            all_radii.append(cluster_radii(lat))
        else:
            h, w = lat.dims
            rng = generator(seed, STREAM_PERCOLATION, i)
            rs = rng.integers(0, h, origins_per_lattice)
            cs = rng.integers(0, w, origins_per_lattice)
            all_radii.append(cluster_radii(lat, list(zip(rs.tolist(), cs.tolist()))))
    radii = np.concatenate(all_radii)
    ks_arr = np.asarray(ks)
    tail = np.array([(radii >= k).mean() for k in ks_arr])
    return radii, tail


def fpp_time_to_distance(
    k: int, half_width: int, mean: float, seed: int, key: tuple = ()
) -> float:
    """Passage time from (half_width, 0) to (half_width, k) on a strip of
    2*half_width+1 rows with i.i.d. exponential site weights of the given
    mean.  Paths are confined to the strip (recorded by callers)."""
    wl = WeightLattice.exponential((2 * half_width + 1, k + 1), mean, seed, key)
    return fpp_min_passage_time(wl, [(half_width, 0)], [(half_width, k)])


# -- surrounding circuits (shared with the renormalized-block detectors) -----


def _annulus_frame(mask: np.ndarray, center: tuple[int, int], r_in: int, r_out: int):
    """(open, linf, blob) on the (2 r_out + 1)^2 window around center: the
    window's cells, their linf distance to the center, and the dual blob,
    the inner square {linf <= r_in} joined with every closed annulus cell
    8-connected to it through closed annulus cells (one ndimage labeling).

    A closed 8-connected path inside the annulus from the inner region to
    the outermost layer, the dual obstruction to an open 4-circuit
    surrounding the center, exists iff the blob reaches linf = r_out.
    """
    h, w = mask.shape
    cr, cc = center
    if cr - r_out < 0 or cc - r_out < 0 or cr + r_out >= h or cc + r_out >= w:
        raise ValueError("annulus does not fit in the lattice")
    local = np.asarray(mask[cr - r_out : cr + r_out + 1, cc - r_out : cc + r_out + 1], dtype=bool)
    d = np.abs(np.arange(-r_out, r_out + 1))
    linf = np.maximum(d[:, None], d[None, :])
    lab, _ = ndimage.label((linf <= r_in) | ~local, structure=np.ones((3, 3), dtype=bool))
    return local, linf, lab == lab[r_out, r_out]


def surrounding_circuit_exists(lattice: SiteLattice, center: tuple[int, int], r_inner: int, r_outer: int) -> bool:
    """True iff an open 4-connected circuit inside the annulus
    {r_inner < linf(x, center) <= r_outer} surrounds the center."""
    if not (0 < r_inner < r_outer):
        raise ValueError("need 0 < r_inner < r_outer")
    _, linf, blob = _annulus_frame(lattice.open, center, r_inner, r_outer)
    return not blob[linf == r_outer].any()


def _loop_winding(loop_rel: list[tuple[int, int]]) -> int:
    """Winding number of a closed 4-connected loop (relative coords) around
    the origin cell, by signed crossings of the half-line between rows -1 and
    0 at columns >= 1."""
    wind = 0
    for i in range(len(loop_rel)):
        r0, c0 = loop_rel[i]
        r1, c1 = loop_rel[(i + 1) % len(loop_rel)]
        if c0 == c1 and c0 >= 1:
            if r0 == -1 and r1 == 0:
                wind += 1
            elif r0 == 0 and r1 == -1:
                wind -= 1
    return wind


def cycle_winds_around(cycle: Sequence[tuple[int, int]], center: tuple[int, int]) -> bool:
    """Winding test: does the 4-connected cycle surround the center cell?"""
    rel = [(r - center[0], c - center[1]) for r, c in cycle]
    return _loop_winding(rel) != 0


def _wall_follow_cycle(mask: np.ndarray, center: tuple[int, int], r_in: int, r_out: int) -> list[tuple[int, int]]:
    """Fallback cycle extraction: trace the free-space contour around the
    dual blob W (inner region plus attached closed cells), then reduce the
    closed walk to a simple loop of nonzero winding."""
    cr, cc = center
    side = 2 * (r_out + 1) + 1
    off = r_out + 1
    W = np.zeros((side, side), dtype=bool)
    W[1:-1, 1:-1] = _annulus_frame(mask, center, r_in, r_out)[2]

    # Start just above the topmost W cell in the center column (outer face).
    col = off
    rows = np.nonzero(W[:, col])[0]
    start = (int(rows.min()) - 1, col)
    headings = ((0, 1), (1, 0), (0, -1), (-1, 0))  # E, S, W, N (right turns)

    def free(cell):
        r, c = cell
        return 0 <= r < side and 0 <= c < side and not W[r, c]

    pos = start
    h = 0  # east, wall (W) on the right (south)
    walk = [pos]
    first_move = None
    while True:
        for turn in (1, 0, 3, 2):  # right, straight, left, back
            nh = (h + turn) % 4
            nxt = (pos[0] + headings[nh][0], pos[1] + headings[nh][1])
            if free(nxt):
                break
        else:  # pragma: no cover - start always has a free neighbor
            raise RuntimeError("contour walker is trapped")
        if first_move is None:
            first_move = (pos, nh)
        elif (pos, nh) == first_move:
            break  # about to repeat the opening move: circumnavigation done
        pos, h = nxt, nh
        walk.append(pos)
        if len(walk) > 16 * side * side:  # defensive
            raise RuntimeError("contour trace failed to close")
    if len(walk) > 1 and walk[-1] == walk[0]:
        walk.pop()

    # Winding-preserving loop erasure -> simple cycle.
    rel_walk = [(r - off, c - off) for r, c in walk]
    stack: list[tuple[int, int]] = []
    index: dict[tuple[int, int], int] = {}
    for v in rel_walk + [rel_walk[0]]:
        if v in index:
            i = index[v]
            loop = stack[i:] + [v]
            if _loop_winding(loop) != 0:
                return [(r + cr, c + cc) for r, c in stack[i:]]
            for x in stack[i + 1 :]:
                del index[x]
            del stack[i + 1 :]
        else:
            index[v] = len(stack)
            stack.append(v)
    raise RuntimeError("contour walk had zero total winding")  # pragma: no cover


def surrounding_cycle(mask: np.ndarray, center: tuple[int, int], r_in: int, r_out: int) -> Optional[list[tuple[int, int]]]:
    """An ordered simple open 4-cycle inside the annulus surrounding center,
    or None.

    Existence is decided by the closed-8-crossing duality.  The cycle is
    the shortest one crossing the reference half-line (between rows -1 and 0
    of the center, at columns > r_in) exactly once: one breadth-first search
    (_bfs_path) per crossing column c, from (0, c) to (-1, c) on the annulus
    graph with every half-line edge cut, listed from (0, c).
    Ties go to the shortest cycle, then the smallest column, then the path
    discovered first when neighbors are visited in _N4 order.

    The column search can fail while a surrounding circuit exists, when
    every circuit crosses the half-line more than once and no crossing
    column joins its own two sides (an S-shaped detour across the
    half-line, for one); a contour trace around the dual blob then gives
    the cycle.
    """
    local, linf, blob = _annulus_frame(mask, center, r_in, r_out)
    if blob[linf == r_out].any():
        return None
    R, side = r_out, 2 * r_out + 1
    node = local & (linf > r_in)
    nbr = _n4_neighbors(node)
    nbr[R - 1, R + r_in + 1 :, 2] = -1  # (-1, c) -> (0, c)
    nbr[R, R + r_in + 1 :, 3] = -1  # (0, c) -> (-1, c)
    best: Optional[list[int]] = None
    for c in range(r_in + 1, r_out + 1):
        if not (node[R, R + c] and node[R - 1, R + c]):
            continue
        path = _bfs_path(nbr, R * side + R + c, (R - 1) * side + R + c)
        if path is not None and (best is None or len(path) < len(best)):
            best = path
    if best is None:
        return _wall_follow_cycle(mask, center, r_in, r_out)
    cr, cc = center
    return [(v // side - R + cr, v % side - R + cc) for v in best]
