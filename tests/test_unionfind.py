from collections import deque

import numpy as np
import pytest

from segsim import _kernels
from segsim.rng import generator
from segsim.unionfind import component_sizes, label_grid_components


def oracle_labels(mask, adjacency, torus):
    """Breadth-first search from each unlabelled cell in row-major order, so
    every component carries the flat index of its first cell."""
    h, w = mask.shape
    if adjacency == 4:
        steps = [(-1, 0), (1, 0), (0, -1), (0, 1)]
    else:
        steps = [(dr, dc) for dr in (-1, 0, 1) for dc in (-1, 0, 1) if (dr, dc) != (0, 0)]
    out = np.full((h, w), -1, dtype=np.int64)
    for start in range(h * w):
        r0, c0 = divmod(start, w)
        if not mask[r0, c0] or out[r0, c0] >= 0:
            continue
        out[r0, c0] = start
        queue = deque([(r0, c0)])
        while queue:
            r, c = queue.popleft()
            for dr, dc in steps:
                rr, cc = r + dr, c + dc
                if torus:
                    rr, cc = rr % h, cc % w
                elif not (0 <= rr < h and 0 <= cc < w):
                    continue
                if mask[rr, cc] and out[rr, cc] < 0:
                    out[rr, cc] = start
                    queue.append((rr, cc))
    return out


@pytest.mark.parametrize("shape", [(1, 1), (1, 6), (6, 1), (2, 5), (5, 2), (7, 7), (6, 9), (12, 11)])
@pytest.mark.parametrize("adjacency", [4, 8])
@pytest.mark.parametrize("torus", [True, False])
def test_labels_match_bfs_oracle(shape, adjacency, torus):
    """Labels, and the component sizes counted without labels."""
    rng = generator(sum(shape) * 10 + adjacency + torus)
    for density in (0.0, 0.2, 0.45, 0.6, 0.9, 1.0):
        for _ in range(8):
            mask = rng.random(shape) < density
            want = oracle_labels(mask, adjacency, torus)
            assert np.array_equal(label_grid_components(mask, adjacency, torus), want)
            sizes = component_sizes(mask, adjacency, torus)
            assert sizes.dtype == np.int64
            assert np.array_equal(np.sort(sizes), np.sort(np.unique(want[want >= 0], return_counts=True)[1]))


def test_seams_join_on_torus_only():
    # Two vertical bars touching the left and right edges, and a diagonal
    # corner pair that only 8-adjacency joins across the wrap.
    mask = np.zeros((5, 6), dtype=bool)
    mask[1:4, 0] = mask[1:4, 5] = True
    mask[0, 2] = mask[4, 3] = True
    assert len(np.unique(label_grid_components(mask, 4, False)[mask])) == 4
    assert len(np.unique(label_grid_components(mask, 4, True)[mask])) == 3
    assert len(np.unique(label_grid_components(mask, 8, True)[mask])) == 2


def test_empty_mask_and_bad_adjacency():
    assert (label_grid_components(np.zeros((3, 4), bool), 4, True) == -1).all()
    assert component_sizes(np.zeros((3, 4), bool), 4, True).size == 0
    with pytest.raises(ValueError):
        label_grid_components(np.ones((3, 3), bool), 6, True)
    with pytest.raises(ValueError):
        component_sizes(np.ones((3, 3), bool), 6, True)


def largest_by_type(types):
    """The reference: the largest of component_sizes for +1 and for -1."""
    return tuple(int(component_sizes(types == t, 4, True).max(initial=0)) for t in (1, -1))


@pytest.mark.parametrize("n", [1, 2, 3, 5, 12, 31])
def test_component_kernel_matches_component_sizes(n):
    """The compiled count of the largest 4-connected torus component per
    type: random tori, one type only (a single component of n^2 cells that
    joins across both seams), a diagonal stripe that wraps both seams, rows
    0 and n-1 (joined only across a seam), and a corner square cut by both
    seams."""
    if _kernels.largest_components is None:
        pytest.skip(_kernels.load_error)
    rng = generator(900 + n)
    cases = [np.where(rng.random((n, n)) < p, 1, -1).astype(np.int8)
             for p in (0.3, 0.5, 0.7) for _ in range(4)]
    ones = np.ones((n, n), np.int8)
    i, j = np.indices((n, n))
    stripe = np.where((i + j) % n < 2, 1, -1).astype(np.int8)
    edge_rows = np.where((i == 0) | (i == n - 1), 1, -1).astype(np.int8)
    corner = np.where(((i + 2) % n < 4) & ((j + 2) % n < 4), 1, -1).astype(np.int8)
    cases += [ones, -ones, stripe, edge_rows, edge_rows.T, corner]
    for types in cases:
        assert _kernels.largest_components(types) == largest_by_type(types)
    assert _kernels.largest_components(ones) == (n * n, 0)
    assert _kernels.largest_components(-ones) == (0, n * n)
    if n >= 5:
        assert _kernels.largest_components(stripe) == (2 * n, n * n - 2 * n)
        assert _kernels.largest_components(edge_rows.T) == (2 * n, n * n - 2 * n)
        assert _kernels.largest_components(corner) == (16, n * n - 16)
