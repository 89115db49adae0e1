"""Grid component labelling, on a torus or a bounded grid."""

from __future__ import annotations

import numpy as np
from scipy import ndimage
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components


_STRUCT4 = np.array([[0, 1, 0], [1, 1, 1], [0, 1, 0]], dtype=bool)
_STRUCT8 = np.ones((3, 3), dtype=bool)


def label_grid_components(mask: np.ndarray, adjacency: int, torus: bool) -> np.ndarray:
    """Label connected components of True cells; -1 elsewhere.

    adjacency is 4 or 8; torus wraps edges.  Component labels are the
    row-major first flat index of the component, so the output is
    deterministic and independent of the labeling backend.
    """
    if adjacency not in (4, 8):
        raise ValueError("adjacency must be 4 or 8")
    mask = np.asarray(mask, dtype=bool)
    struct = _STRUCT4 if adjacency == 4 else _STRUCT8
    lab, num = ndimage.label(mask, structure=struct)
    out = np.full(mask.shape, -1, dtype=np.int64)
    if num == 0:
        return out
    root = np.arange(num + 1, dtype=np.int64)
    if torus:
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
        edges = coo_matrix((np.ones(int(both.sum())), (a[both], b[both])), shape=(num + 1, num + 1))
        root = connected_components(edges, directed=False)[1]
    idx = np.nonzero(mask.ravel())[0]
    groups = root[lab.ravel()[idx]]
    uniq, first = np.unique(groups, return_index=True)
    canon = np.zeros(num + 1, dtype=np.int64)
    canon[uniq] = idx[first]
    out.ravel()[idx] = canon[groups]
    return out
