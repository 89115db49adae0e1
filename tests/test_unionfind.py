from collections import deque

import numpy as np
import pytest

from segsim.rng import generator
from segsim.unionfind import label_grid_components


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
    rng = generator(sum(shape) * 10 + adjacency + torus)
    for density in (0.0, 0.2, 0.45, 0.6, 0.9, 1.0):
        for _ in range(8):
            mask = rng.random(shape) < density
            want = oracle_labels(mask, adjacency, torus)
            assert np.array_equal(label_grid_components(mask, adjacency, torus), want)


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
    with pytest.raises(ValueError):
        label_grid_components(np.ones((3, 3), bool), 6, True)

