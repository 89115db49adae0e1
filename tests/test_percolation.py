import heapq
import itertools
from collections import deque

import numpy as np
import pytest

from segsim import percolation
from segsim.percolation import (
    SiteLattice,
    WeightLattice,
    chemical_distance,
    cluster_radii,
    cluster_radius_tail,
    cycle_winds_around,
    fpp_min_passage_time,
    fpp_time_to_distance,
    surrounding_circuit_exists,
    surrounding_cycle,
)
from segsim.percolation import _N4, _wall_follow_cycle
from segsim.rng import generator
from segsim.unionfind import component_cells, label_grid_components


def lattice_from(mask, p=0.5):
    return SiteLattice(open=np.asarray(mask, dtype=bool), p=p)


# -- python-loop oracles ----------------------------------------------------------
# The per-cell loops the csgraph/ndimage code replaced, kept verbatim in
# behavior: the new code must reproduce them element for element.


def oracle_chemical_distance(mask, a, b):
    """FIFO search visiting neighbors in _N4 order; vertex count or None."""
    h, w = mask.shape
    if not (mask[a] and mask[b]):
        return None
    if a == b:
        return 1
    dist = np.full((h, w), -1, dtype=np.int64)
    dist[a] = 1
    q = deque([a])
    while q:
        r, c = q.popleft()
        d = dist[r, c]
        for dr, dc in _N4:
            rr, cc = r + dr, c + dc
            if 0 <= rr < h and 0 <= cc < w and mask[rr, cc] and dist[rr, cc] < 0:
                if (rr, cc) == b:
                    return int(d + 1)
                dist[rr, cc] = d + 1
                q.append((rr, cc))
    return None


def oracle_cluster_radii(mask, origins=None):
    """Per origin, the max l1 distance over its cluster's cells; -1 if closed."""
    h, w = mask.shape
    labels = label_grid_components(mask, adjacency=4, torus=False)
    comps = component_cells(labels)
    if origins is None:
        origin_flat = np.arange(h * w)
    else:
        origin_flat = np.array([r * w + c for r, c in origins], dtype=np.int64)
    radii = np.full(origin_flat.size, -1, dtype=np.int64)
    lab_flat = labels.ravel()
    for i, o in enumerate(origin_flat):
        lab = lab_flat[o]
        if lab < 0:
            continue
        cells = comps[int(lab)]
        orr, occ = divmod(int(o), w)
        radii[i] = int((np.abs(cells // w - orr) + np.abs(cells % w - occ)).max())
    return radii


def oracle_crossing_blocked(mask, center, r_in, r_out):
    """8-connected search from the inner square through closed annulus cells;
    True when it reaches the outermost layer."""
    cr, cc = center
    side = 2 * r_out + 1
    seen = np.zeros((side, side), dtype=bool)
    q = deque()
    for dr in range(-r_in, r_in + 1):
        for dc in range(-r_in, r_in + 1):
            seen[dr + r_out, dc + r_out] = True
            q.append((dr, dc))
    while q:
        dr, dc = q.popleft()
        for er in (-1, 0, 1):
            for ec in (-1, 0, 1):
                nr, nc = dr + er, dc + ec
                if (er, ec) == (0, 0) or max(abs(nr), abs(nc)) > r_out:
                    continue
                if seen[nr + r_out, nc + r_out] or mask[cr + nr, cc + nc]:
                    continue
                if max(abs(nr), abs(nc)) == r_out:
                    return True
                seen[nr + r_out, nc + r_out] = True
                q.append((nr, nc))
    return False


def oracle_surrounding_cycle(mask, center, r_in, r_out):
    """One FIFO search per crossing column, neighbors in _N4 order, cut
    half-line edges skipped; the shortest, then the first column, wins."""
    if oracle_crossing_blocked(mask, center, r_in, r_out):
        return None
    cr, cc = center

    def is_node(rel):
        r, c = rel
        return r_in < max(abs(r), abs(c)) <= r_out and bool(mask[cr + r, cc + c])

    best = None
    for c in range(r_in + 1, r_out + 1):
        if not (is_node((0, c)) and is_node((-1, c))):
            continue
        startv, goal = (0, c), (-1, c)
        prev = {startv: None}
        q = deque([startv])
        while q and goal not in prev:
            cur = q.popleft()
            for dr, dc in _N4:
                nxt = (cur[0] + dr, cur[1] + dc)
                if nxt in prev or not is_node(nxt):
                    continue
                if dc == 0 and cur[1] > r_in and {cur[0], nxt[0]} == {-1, 0}:
                    continue
                prev[nxt] = cur
                if nxt == goal:
                    break
                q.append(nxt)
        if goal in prev:
            path = [goal]
            while prev[path[-1]] is not None:
                path.append(prev[path[-1]])
            path.reverse()
            if best is None or len(path) < len(best):
                best = path
    if best is not None:
        return [(r + cr, c + cc) for r, c in best]
    return _wall_follow_cycle(mask, center, r_in, r_out)


def edge_masks():
    """1 x k, k x 1, all-closed, all-open and one-cell lattices."""
    yield np.ones((1, 9), bool)
    yield np.ones((9, 1), bool)
    yield np.array([[1, 1, 0, 1, 1, 1, 0, 1]], bool)
    yield np.array([[1, 1, 0, 1, 1, 1, 0, 1]], bool).T.copy()
    yield np.zeros((5, 7), bool)
    yield np.ones((5, 7), bool)
    yield np.ones((1, 1), bool)
    yield np.zeros((1, 1), bool)


def random_masks():
    for i, p in enumerate((0.5, 0.6, 0.7, 0.8, 0.9, 0.95)):
        rng = generator(81, i)
        for dims in ((7, 13), (13, 7), (21, 21)):
            yield rng.random(dims) < p


class TestAgainstLoopOracles:
    def test_chemical_distance(self):
        for mask in itertools.chain(edge_masks(), random_masks()):
            h, w = mask.shape
            lat = lattice_from(mask)
            cells = [(r, c) for r in range(h) for c in range(w)]
            rng = generator(82, h, w)
            pairs = [(cells[0], cells[-1]), (cells[-1], cells[0]), (cells[0], cells[0])]
            pairs += [(cells[i], cells[j]) for i, j in rng.integers(0, len(cells), (25, 2))]
            for a, b in pairs:
                assert chemical_distance(lat, a, b) == oracle_chemical_distance(mask, a, b), (a, b)

    def test_chemical_distance_closed_endpoint_and_bounds(self):
        mask = np.ones((6, 6), bool)
        mask[0, 0] = False
        lat = lattice_from(mask)
        assert chemical_distance(lat, (0, 0), (5, 5)) is None
        assert chemical_distance(lat, (5, 5), (0, 0)) is None
        assert chemical_distance(lat, (0, 0), (0, 0)) is None
        # Any truthy cell value is open, as in the loop version.
        twos = SiteLattice(open=mask.astype(np.uint8) * 2, p=0.5)
        assert chemical_distance(twos, (5, 5), (0, 1)) == chemical_distance(lat, (5, 5), (0, 1)) == 10
        with pytest.raises(ValueError):
            chemical_distance(lat, (0, 0), (6, 0))

    def test_cluster_radii(self):
        for mask in itertools.chain(edge_masks(), random_masks()):
            h, w = mask.shape
            lat = lattice_from(mask)
            assert np.array_equal(cluster_radii(lat), oracle_cluster_radii(mask))
            closed = [tuple(x) for x in np.argwhere(~mask)[:2].tolist()]
            origins = [(0, 0), (h - 1, w - 1), (0, 0), (h // 2, w // 2)] + closed + closed
            got = cluster_radii(lat, origins)
            assert got.dtype == np.int64
            assert np.array_equal(got, oracle_cluster_radii(mask, origins))
        empty = cluster_radii(lattice_from(np.ones((3, 3))), [])
        assert empty.shape == (0,) and empty.dtype == np.int64

    @pytest.mark.parametrize("p_open", [0.5, 0.6, 0.7, 0.8, 0.9, 0.95])
    def test_surrounding_cycle(self, p_open):
        rng = generator(83, int(p_open * 100))
        for _ in range(25):
            mask = rng.random((23, 23)) < p_open
            for r_in, r_out in ((1, 3), (1, 4), (2, 6), (3, 11), (0, 5)):
                want = oracle_surrounding_cycle(mask, (11, 11), r_in, r_out)
                assert surrounding_cycle(mask, (11, 11), r_in, r_out) == want
                if 0 < r_in:
                    exists = surrounding_circuit_exists(lattice_from(mask), (11, 11), r_in, r_out)
                    assert exists == (want is not None)

    def test_surrounding_cycle_all_open_and_all_closed(self):
        for r_in, r_out in ((1, 2), (2, 5), (4, 10)):
            for value in (True, False):
                mask = np.full((25, 25), value)
                want = oracle_surrounding_cycle(mask, (12, 12), r_in, r_out)
                assert surrounding_cycle(mask, (12, 12), r_in, r_out) == want
                assert (want is not None) == value

    def test_annulus_must_fit(self):
        with pytest.raises(ValueError):
            surrounding_cycle(np.ones((10, 10), bool), (4, 4), 1, 5)


# -- chemical distance ---------------------------------------------------------


def oracle_all_pairs_distance(mask):
    """Floyd-Warshall vertex-count distances over the open subgraph."""
    h, w = mask.shape
    nodes = [(r, c) for r in range(h) for c in range(w) if mask[r, c]]
    index = {v: i for i, v in enumerate(nodes)}
    INF = 10**9
    n = len(nodes)
    d = [[INF] * n for _ in range(n)]
    for i, (r, c) in enumerate(nodes):
        d[i][i] = 0
        for dr, dc in ((0, 1), (1, 0), (0, -1), (-1, 0)):
            v = (r + dr, c + dc)
            if v in index:
                d[i][index[v]] = 1
    for k in range(n):
        for i in range(n):
            dik = d[i][k]
            if dik == INF:
                continue
            for j in range(n):
                if dik + d[k][j] < d[i][j]:
                    d[i][j] = dik + d[k][j]
    return nodes, index, d


class TestChemicalDistance:
    def test_fully_open_is_l1_plus_one(self):
        lat = lattice_from(np.ones((15, 15)))
        assert chemical_distance(lat, (2, 3), (9, 11)) == 7 + 8 + 1
        assert chemical_distance(lat, (4, 4), (4, 4)) == 1

    def test_fully_closed(self):
        lat = lattice_from(np.zeros((6, 6)))
        assert chemical_distance(lat, (0, 0), (5, 5)) is None

    def test_disconnected(self):
        mask = np.ones((5, 5), bool)
        mask[:, 2] = False
        lat = lattice_from(mask)
        assert chemical_distance(lat, (2, 0), (2, 4)) is None

    @pytest.mark.parametrize("seed", range(8))
    def test_matches_floyd_warshall_oracle(self, seed):
        rng = generator(seed)
        mask = rng.random((6, 6)) < 0.7
        lat = lattice_from(mask)
        nodes, index, d = oracle_all_pairs_distance(mask)
        for a, b in itertools.islice(itertools.combinations(nodes, 2), 60):
            got = chemical_distance(lat, a, b)
            want = d[index[a]][index[b]]
            if want >= 10**9:
                assert got is None
            else:
                assert got == want + 1  # vertex count = edge count + 1

    def test_opening_site_never_increases(self):
        rng = generator(99)
        mask = rng.random((8, 8)) < 0.7
        mask[0, 0] = mask[7, 7] = True
        lat = lattice_from(mask)
        base = chemical_distance(lat, (0, 0), (7, 7))
        closed = np.argwhere(~mask)
        if len(closed) == 0:
            return
        mask2 = mask.copy()
        mask2[tuple(closed[0])] = True
        new = chemical_distance(lattice_from(mask2), (0, 0), (7, 7))
        if base is not None:
            assert new is not None and new <= base


# -- first passage -------------------------------------------------------------


def oracle_dijkstra_vertex_weights(weights, sources, targets):
    """Plain heapq Dijkstra, independent of the scipy-based implementation."""
    h, w = weights.shape
    dist = {}
    heap = []
    for s in sources:
        heapq.heappush(heap, (float(weights[s]), s))
    best = float("inf")
    while heap:
        d, v = heapq.heappop(heap)
        if v in dist:
            continue
        dist[v] = d
        if v in targets:
            best = min(best, d)
        for dr, dc in ((0, 1), (1, 0), (0, -1), (-1, 0)):
            u = (v[0] + dr, v[1] + dc)
            if 0 <= u[0] < h and 0 <= u[1] < w and u not in dist:
                heapq.heappush(heap, (d + float(weights[u]), u))
    return best


class TestFPP:
    def test_zero_weights(self):
        wl = WeightLattice(np.zeros((5, 9)), "const", 0.0)
        assert fpp_min_passage_time(wl, [(0, 0)], [(4, 8)]) == 0.0

    def test_forced_single_row(self):
        wl = WeightLattice(np.ones((1, 7)), "const", 1.0)
        assert fpp_min_passage_time(wl, [(0, 0)], [(0, 6)]) == 7.0

    @pytest.mark.parametrize("seed", range(8))
    def test_matches_independent_dijkstra(self, seed):
        rng = generator(seed, 2)
        weights = rng.exponential(1.0, (7, 7))
        wl = WeightLattice(weights, "exponential", 1.0)
        sources = {(0, 0), (6, 0)}
        targets = {(0, 6), (6, 6)}
        got = fpp_min_passage_time(wl, sources, targets)
        want = oracle_dijkstra_vertex_weights(weights, sources, targets)
        assert got == pytest.approx(want, rel=1e-12)

    def test_invariant_under_relabeling(self):
        # Transposing the instance relabels vertices; the optimum is fixed.
        rng = generator(5, 2)
        weights = rng.exponential(1.0, (6, 9))
        a = fpp_min_passage_time(
            WeightLattice(weights, "exponential", 1.0), [(0, 0)], [(5, 8)]
        )
        b = fpp_min_passage_time(
            WeightLattice(weights.T.copy(), "exponential", 1.0), [(0, 0)], [(8, 5)]
        )
        assert a == pytest.approx(b, rel=1e-12)

    def test_validation(self):
        wl = WeightLattice(np.ones((3, 3)), "const", 1.0)
        with pytest.raises(ValueError):
            fpp_min_passage_time(wl, [], [(0, 0)])
        with pytest.raises(ValueError):
            fpp_min_passage_time(wl, [(0, 0)], [(0, 0)])

    def test_strip_helper_deterministic(self):
        a = fpp_time_to_distance(50, 20, 1.0, 3, key=(1,))
        b = fpp_time_to_distance(50, 20, 1.0, 3, key=(1,))
        assert a == b


# -- cluster radii --------------------------------------------------------------


class TestClusterRadii:
    def test_all_closed(self):
        lat = lattice_from(np.zeros((4, 4)))
        assert (cluster_radii(lat) == -1).all()

    def test_isolated_site(self):
        mask = np.zeros((5, 5), bool)
        mask[2, 2] = True
        lat = lattice_from(mask)
        radii = cluster_radii(lat, [(2, 2), (0, 0)])
        assert radii[0] == 0 and radii[1] == -1

    def test_hand_built_cluster(self):
        mask = np.zeros((6, 6), bool)
        for cell in [(1, 1), (1, 2), (2, 2), (3, 2)]:
            mask[cell] = True
        lat = lattice_from(mask)
        # From (1,1): farthest is (3,2) at l1 = 3.
        assert cluster_radii(lat, [(1, 1)])[0] == 3
        assert cluster_radii(lat, [(3, 2)])[0] == 3
        assert cluster_radii(lat, [(2, 2)])[0] == 2

    def test_tail_shape(self):
        lats = [SiteLattice.random((80, 80), 0.2, 7, key=(i,)) for i in range(4)]
        radii, tail = cluster_radius_tail(lats, ks=range(0, 6))
        assert tail[0] == pytest.approx((radii >= 0).mean())
        assert (np.diff(tail) <= 0).all()


# -- surrounding circuits --------------------------------------------------------


class TestSurroundingCircuit:
    def test_fully_open(self):
        lat = lattice_from(np.ones((41, 41)))
        assert surrounding_circuit_exists(lat, (20, 20), 4, 15)

    def test_closed_radial_spoke_blocks(self):
        mask = np.ones((41, 41), bool)
        mask[20, 25:36] = False
        lat = lattice_from(mask)
        assert not surrounding_circuit_exists(lat, (20, 20), 4, 15)

    def test_diagonal_closed_chain_blocks(self):
        # An 8-connected closed diagonal crossing blocks 4-connected circuits.
        mask = np.ones((41, 41), bool)
        for i in range(5, 16):
            mask[20 + i, 20 + i] = False
        lat = lattice_from(mask)
        assert not surrounding_circuit_exists(lat, (20, 20), 4, 15)

    def test_annulus_must_fit(self):
        lat = lattice_from(np.ones((20, 20)))
        with pytest.raises(ValueError):
            surrounding_circuit_exists(lat, (10, 10), 4, 12)

    def test_monotone_in_openings(self):
        rng = generator(17)
        for _ in range(10):
            mask = rng.random((41, 41)) < 0.75
            lat = lattice_from(mask)
            if not surrounding_circuit_exists(lat, (20, 20), 4, 15):
                continue
            mask2 = mask.copy()
            closed = np.argwhere(~mask)
            if len(closed):
                mask2[tuple(closed[0])] = True
            assert surrounding_circuit_exists(lattice_from(mask2), (20, 20), 4, 15)

    def test_supercritical_frequency(self):
        hits = 0
        total = 200
        for i in range(total):
            lat = SiteLattice.random((181, 181), 0.95, 11, key=(i,))
            hits += surrounding_circuit_exists(lat, (90, 90), 30, 90)
        assert hits / total >= 0.99

    def test_cycle_agrees_with_existence(self):
        rng = generator(23)
        for _ in range(30):
            mask = rng.random((29, 29)) < 0.8
            exists = surrounding_circuit_exists(lattice_from(mask), (14, 14), 3, 10)
            cyc = surrounding_cycle(mask, (14, 14), 3, 10)
            assert (cyc is not None) == exists
            if cyc is not None:
                assert cycle_winds_around(cyc, (14, 14))
                for a, b in zip(cyc, cyc[1:] + cyc[:1]):
                    assert abs(a[0] - b[0]) + abs(a[1] - b[1]) == 1
                assert len(set(cyc)) == len(cyc)
                for r, c in cyc:
                    assert mask[r, c]
                    assert 3 < max(abs(r - 14), abs(c - 14)) <= 10

    @staticmethod
    def oracle_surrounding_exists(mask, center, r_in, r_out):
        """Independent existence oracle via the winding cover: a surrounding
        open 4-cycle exists iff some annulus cell connects to its own copy one
        winding level up when edges crossing the reference half-line shift the
        level."""
        cr, cc = center
        cells = []
        for r in range(-r_out, r_out + 1):
            for c in range(-r_out, r_out + 1):
                if r_in < max(abs(r), abs(c)) <= r_out and mask[cr + r, cc + c]:
                    cells.append((r, c))
        if not cells:
            return False
        index = {v: i for i, v in enumerate(cells)}
        levels = len(cells) + 2
        size = len(cells) * (2 * levels + 1)

        parent = list(range(size))

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        def union(a, b):
            ra, rb = find(a), find(b)
            if ra != rb:
                parent[rb] = ra

        def node(i, lvl):
            return i * (2 * levels + 1) + (lvl + levels)

        for (r, c) in cells:
            i = index[(r, c)]
            for dr, dc in ((0, 1), (1, 0)):
                v = (r + dr, c + dc)
                if v not in index:
                    continue
                j = index[v]
                shift = 0
                if dr == 1 and r == -1 and c >= 1:
                    shift = 1  # downward crossing of the half-line
                for lvl in range(-levels, levels + 1):
                    tgt = lvl + shift
                    if -levels <= tgt <= levels:
                        union(node(i, lvl), node(j, tgt))
        return any(find(node(i, 0)) == find(node(i, 1)) for i in range(len(cells)))

    @pytest.mark.parametrize("p_open", [0.5, 0.65, 0.8, 0.95])
    def test_existence_matches_winding_cover_oracle(self, p_open):
        rng = generator(61, int(p_open * 100))
        agree = 0
        for _ in range(40):
            mask = rng.random((21, 21)) < p_open
            got = surrounding_cycle(mask, (10, 10), 2, 7)
            want = self.oracle_surrounding_exists(mask, (10, 10), 2, 7)
            assert (got is not None) == want
            if got is not None:
                assert cycle_winds_around(got, (10, 10))
                assert len(set(got)) == len(got)
                for a, b in zip(got, got[1:] + got[:1]):
                    assert abs(a[0] - b[0]) + abs(a[1] - b[1]) == 1
                for r, c in got:
                    assert mask[r, c] and 2 < max(abs(r - 10), abs(c - 10)) <= 7
            agree += 1
        assert agree == 40

    @staticmethod
    def s_detour_mask():
        """The only open cells form one surrounding circuit that crosses the
        half-line right of the center three times (down at column 6, up at
        8, down at 10), so no crossing column joins its own two sides."""
        mask = np.zeros((21, 21), bool)
        cells = [(0, 6), (0, 7), (0, 8), (-1, 8), (-1, 9), (-1, 10), (-1, 6)]
        cells += [(r, 10) for r in range(0, 11)] + [(10, c) for c in range(-10, 11)]
        cells += [(r, -10) for r in range(-10, 11)] + [(-10, c) for c in range(-10, 7)]
        cells += [(r, 6) for r in range(-10, 0)]
        for r, c in cells:
            mask[r + 10, c + 10] = True
        return mask

    def test_column_search_fallback_through_surrounding_cycle(self, monkeypatch):
        mask = self.s_detour_mask()
        calls = []
        original = percolation._wall_follow_cycle

        def spy(*args):
            calls.append(args[1:])
            return original(*args)

        monkeypatch.setattr(percolation, "_wall_follow_cycle", spy)
        assert surrounding_circuit_exists(lattice_from(mask), (10, 10), 3, 10)
        cyc = surrounding_cycle(mask, (10, 10), 3, 10)
        assert calls == [((10, 10), 3, 10)]
        assert cyc is not None and cycle_winds_around(cyc, (10, 10))
        assert len(set(cyc)) == len(cyc)
        for a, b in zip(cyc, cyc[1:] + cyc[:1]):
            assert abs(a[0] - b[0]) + abs(a[1] - b[1]) == 1
        assert set(cyc) == {tuple(x) for x in np.argwhere(mask).tolist()}
        # Closing the detour at column 7 leaves a single crossing at column
        # 10 (down from (-1, 10)), which the column search finds itself.
        mask[10 - 1, 10 + 7] = True
        calls.clear()
        cyc = surrounding_cycle(mask, (10, 10), 3, 10)
        assert calls == [] and cyc == oracle_surrounding_cycle(mask, (10, 10), 3, 10)

    def test_wall_follow_fallback_produces_valid_cycle(self):
        rng = generator(29)
        for _ in range(15):
            mask = rng.random((29, 29)) < 0.85
            if not surrounding_circuit_exists(lattice_from(mask), (14, 14), 3, 10):
                continue
            cyc = _wall_follow_cycle(mask, (14, 14), 3, 10)
            assert cycle_winds_around(cyc, (14, 14))
            assert len(set(cyc)) == len(cyc)
            for a, b in zip(cyc, cyc[1:] + cyc[:1]):
                assert abs(a[0] - b[0]) + abs(a[1] - b[1]) == 1
            for r, c in cyc:
                assert mask[r, c]
