"""Grid component labelling, on a torus or a bounded grid."""

from __future__ import annotations

import numpy as np
from scipy import ndimage
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components


_STRUCT4 = np.array([[0, 1, 0], [1, 1, 1], [0, 1, 0]], dtype=bool)
_STRUCT8 = np.ones((3, 3), dtype=bool)


def _seam_joined_labels(mask: np.ndarray, adjacency: int, torus: bool):
    """(mask, lab, num, root): the boolean mask, its scipy labels 1..num
    (0 off the mask), and root[label], one id per component once labels
    that meet across the torus seams are joined (root[0] is the id of the
    background alone)."""
    if adjacency not in (4, 8):
        raise ValueError("adjacency must be 4 or 8")
    mask = np.asarray(mask, dtype=bool)
    struct = _STRUCT4 if adjacency == 4 else _STRUCT8
    lab, num = ndimage.label(mask, structure=struct)
    root = np.arange(num + 1, dtype=np.int64)
    if torus and num:
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
    return mask, lab, num, root


def label_grid_components(mask: np.ndarray, adjacency: int, torus: bool) -> np.ndarray:
    """Label connected components of True cells; -1 elsewhere.

    adjacency is 4 or 8; torus wraps edges.  Component labels are the
    row-major first flat index of the component, so the output is
    deterministic and independent of the labeling backend.
    """
    mask, lab, num, root = _seam_joined_labels(mask, adjacency, torus)
    out = np.full(mask.shape, -1, dtype=np.int64)
    if num == 0:
        return out
    idx = np.nonzero(mask.ravel())[0]
    groups = root[lab.ravel()[idx]]
    uniq, first = np.unique(groups, return_index=True)
    canon = np.zeros(num + 1, dtype=np.int64)
    canon[uniq] = idx[first]
    out.ravel()[idx] = canon[groups]
    return out


def component_sizes(mask: np.ndarray, adjacency: int, torus: bool) -> np.ndarray:
    """Cell counts (int64) of the connected components of True cells, one
    per component, in no set order: the components of label_grid_components,
    counted without labelling the cells."""
    _, lab, num, root = _seam_joined_labels(mask, adjacency, torus)
    per_label = np.bincount(lab.ravel(), minlength=num + 1)
    per_label[0] = 0
    sizes = np.bincount(root, weights=per_label)  # exact: counts are far below 2**53
    return sizes[sizes > 0].astype(np.int64)


def component_cells(labels: np.ndarray) -> dict[int, np.ndarray]:
    """Map each component label to the flat indices of its cells (ascending)."""
    flat = labels.ravel()
    idx = np.nonzero(flat >= 0)[0]
    order = np.argsort(flat[idx], kind="stable")
    idx = idx[order]
    vals = flat[idx]
    comps: dict[int, np.ndarray] = {}
    if idx.size == 0:
        return comps
    bounds = np.nonzero(np.diff(vals))[0] + 1
    for chunk in np.split(idx, bounds):
        comps[int(flat[chunk[0]])] = chunk
    return comps
