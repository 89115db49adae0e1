from collections import deque

import numpy as np
import pytest

from segsim import unionfind
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


def assert_matches_oracle(mask, adjacency, torus):
    """roots[labels] is the oracle's first-cell name of every True cell, and
    the labels count 0..k-1 in the order of those first cells."""
    labels, roots = label_grid_components(mask, adjacency, torus)
    named = np.full(labels.shape, -1, dtype=np.int64)
    named[labels >= 0] = roots[labels[labels >= 0]]
    assert np.array_equal(named, oracle_labels(mask, adjacency, torus))
    assert np.array_equal(labels.ravel()[roots], np.arange(roots.size))
    assert (np.diff(roots) > 0).all()


@pytest.mark.parametrize("shape", [(1, 1), (1, 6), (6, 1), (2, 5), (5, 2), (7, 7), (6, 9), (12, 11)])
@pytest.mark.parametrize("adjacency", [4, 8])
@pytest.mark.parametrize("torus", [True, False])
def test_labels_match_bfs_oracle(shape, adjacency, torus):
    rng = generator(sum(shape) * 10 + adjacency + torus)
    for density in (0.0, 0.2, 0.45, 0.6, 0.9, 1.0):
        for _ in range(8):
            assert_matches_oracle(rng.random(shape) < density, adjacency, torus)


@pytest.mark.parametrize("view", ["64x64", "97x131", "strided", "transposed"])
@pytest.mark.parametrize("adjacency", [4, 8])
@pytest.mark.parametrize("torus", [True, False])
def test_large_masks_and_views_match_bfs_oracle(view, adjacency, torus):
    rng = generator(adjacency * 2 + torus)
    for density in (0.3, 0.59, 0.8):
        if view == "64x64":
            mask = rng.random((64, 64)) < density
        elif view == "97x131":
            mask = rng.random((97, 131)) < density
        elif view == "strided":
            mask = (rng.random((130, 99)) < density)[1::2, ::3]
        else:
            mask = (rng.random((61, 47)) < density).T
        assert_matches_oracle(mask, adjacency, torus)


@pytest.mark.parametrize("torus", [True, False])
def test_labels_out_of_first_cell_order_raise(monkeypatch, torus):
    label = unionfind.ndimage.label

    def reversed_label(mask, structure):
        lab, num = label(mask, structure=structure)
        return np.where(lab > 0, num + 1 - lab, 0), num

    monkeypatch.setattr(unionfind.ndimage, "label", reversed_label)
    mask = np.zeros((4, 6), dtype=bool)
    mask[1, 1] = mask[2, 4] = True
    with pytest.raises(RuntimeError, match="first-cell order"):
        label_grid_components(mask, 4, torus)


def test_seams_join_on_torus_only():
    # Two vertical bars touching the left and right edges, and a diagonal
    # corner pair that only 8-adjacency joins across the wrap.
    mask = np.zeros((5, 6), dtype=bool)
    mask[1:4, 0] = mask[1:4, 5] = True
    mask[0, 2] = mask[4, 3] = True
    assert label_grid_components(mask, 4, False)[1].size == 4
    assert label_grid_components(mask, 4, True)[1].size == 3
    assert label_grid_components(mask, 8, True)[1].size == 2


def test_empty_mask_and_bad_adjacency():
    labels, roots = label_grid_components(np.zeros((3, 4), bool), 4, True)
    assert (labels == -1).all() and roots.size == 0
    with pytest.raises(ValueError):
        label_grid_components(np.ones((3, 3), bool), 6, True)
