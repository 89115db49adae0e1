"""Grid component labelling, on a torus or a bounded grid: the package's one labeller."""

from __future__ import annotations

import numpy as np
from scipy import ndimage
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components


_STRUCT4 = np.array([[0, 1, 0], [1, 1, 1], [0, 1, 0]], dtype=bool)
_STRUCT8 = np.ones((3, 3), dtype=bool)


def label_grid_components(mask: np.ndarray, adjacency: int, torus: bool) -> tuple[np.ndarray, np.ndarray]:
    """(labels, roots) of the components of True cells; adjacency is 4 or 8,
    torus wraps edges.  labels numbers the components 0..k-1 in row-major
    order of their first cell (-1 elsewhere); roots[j] is the flat index of
    component j's first cell, so roots[labels] names each by its first cell.

    ndimage.label numbers components by first cell, and on the torus
    connected_components numbers the seam-joined groups by their least
    label, so no sort is needed: the first cells are the records of the
    running maximum of the labels, and a count other than k raises
    RuntimeError rather than mislabel.
    """
    if adjacency not in (4, 8):
        raise ValueError("adjacency must be 4 or 8")
    mask = np.asarray(mask, dtype=bool)
    struct = _STRUCT4 if adjacency == 4 else _STRUCT8
    lab, k = ndimage.label(mask, structure=struct)
    if torus and k:
        # Seam label pairs: last row against first, last column against
        # first, and for 8-adjacency the same rolled by one either way.
        first_row, first_col = lab[0, :], lab[:, 0]
        a, b = [lab[-1, :], lab[:, -1]], [first_row, first_col]
        if adjacency == 8:
            for shift in (-1, 1):
                a += [lab[-1, :], lab[:, -1]]
                b += [np.roll(first_row, shift), np.roll(first_col, shift)]
        a, b = np.concatenate(a), np.concatenate(b)
        both = (a > 0) & (b > 0)
        edges = coo_matrix((np.ones(int(both.sum())), (a[both], b[both])), shape=(k + 1, k + 1))
        # The background, label 0, has no edge and stays group 0.
        k, group = connected_components(edges, directed=False)
        lab, k = group[lab], k - 1
    labels = lab - 1
    high = np.maximum.accumulate(labels.ravel())
    roots = np.flatnonzero(np.concatenate((high[:1] >= 0, high[1:] > high[:-1])))
    if roots.size != k:
        raise RuntimeError("component labels are not in first-cell order")
    return labels, roots
