"""Exact measurement of monochromatic and almost-monochromatic square regions.

Regions are axis-aligned square neighborhoods (never arbitrary clusters).
For a cell c, r(c) is the largest radius rho <= floor((n-1)/2) whose
(2 rho + 1)^2 window at c is single-type; the monochromatic region of an
agent u has radius M(u) = max{ r(c) : linf(u, c) <= r(c) }.  The almost
monochromatic region relaxes single-type to a minority/majority ratio of at
most exp(-N^eps), where N is the agent-neighborhood size of the state.

Both per-agent maps come from one level sweep: going down from the top
radius, the centers that qualify at rho (r(c) >= rho for M, the ratio bound
on the radius-rho window for M') are dilated by rho with a wrap running-max
filter, and each newly covered agent receives rho.  The per-agent functions
mono_region_of and almost_mono_radius_of compute the same values for one
agent by direct search.

A connected-component statistic is also emitted as auxiliary data; it is a
cluster measure, not a square-region measure, and is labeled as such.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy import ndimage

from .grid import GridState, torus_window_ix
from .rng import STREAM_MEASURE, generator
from .unionfind import label_grid_components


class _PaddedSAT:
    """Summed-area table over a wrap-padded +1 indicator grid.

    Supports per-center window sums with *vectorized, per-center* radii (the
    parallel binary search) and every center's sum at one radius (the M'
    level sweep).
    """

    def __init__(self, plus: np.ndarray, pad: int):
        self.n = plus.shape[0]
        self.pad = pad
        padded = np.pad(plus.astype(np.int64), pad, mode="wrap")
        sat = np.zeros((padded.shape[0] + 1, padded.shape[1] + 1), dtype=np.int64)
        np.cumsum(np.cumsum(padded, axis=0), axis=1, out=sat[1:, 1:])
        self.sat = sat

    def window(self, i, j, rho):
        """Sum over the (2*rho+1)^2 window centered at true coords (i, j)."""
        a = np.asarray(i) + self.pad - rho
        b = np.asarray(j) + self.pad - rho
        side = 2 * np.asarray(rho) + 1
        s = self.sat
        return s[a + side, b + side] - s[a, b + side] - s[a + side, b] + s[a, b]

    def sums(self, rho: int) -> np.ndarray:
        """n x n sums over the (2*rho+1)^2 window at every center (rho <= pad)."""
        n, s = self.n, self.sat
        lo = slice(self.pad - rho, self.pad - rho + n)
        hi = slice(lo.start + 2 * rho + 1, lo.stop + 2 * rho + 1)
        return s[hi, hi] - s[lo, hi] - s[hi, lo] + s[lo, lo]


def max_region_radius(n: int) -> int:
    """Radius cap floor((n-1)/2): a window never wraps onto itself."""
    return (n - 1) // 2


def center_radius_map(state: GridState) -> np.ndarray:
    """r(c) for every cell: largest rho whose window at c is single-type.

    Parallel binary search over all centers against a padded summed-area
    table; O(n^2 log n).
    """
    n = state.n
    R = max_region_radius(n)
    plus = state.types > 0
    sat = _PaddedSAT(plus, R)
    I = np.arange(n)[:, None] * np.ones(n, dtype=np.int64)[None, :]
    J = np.ones(n, dtype=np.int64)[:, None] * np.arange(n)[None, :]
    lo = np.zeros((n, n), dtype=np.int64)
    hi = np.full((n, n), R, dtype=np.int64)
    while True:
        active = lo < hi
        if not active.any():
            break
        mid = (lo + hi + 1) // 2
        counts = sat.window(I, J, mid)
        area = (2 * mid + 1) ** 2
        ok = np.where(plus, counts == area, counts == 0)
        lo = np.where(active & ok, mid, lo)
        hi = np.where(active & ~ok, mid - 1, hi)
    return lo.astype(np.int32)


def mono_region_of(state: GridState, u: tuple[int, int], r_map: Optional[np.ndarray] = None) -> tuple[int, int]:
    """(radius, size) of the largest single-type window containing u.

    Only centers within the global maximum of r(c) can qualify, so the
    search window is bounded by it.
    """
    n = state.n
    r = center_radius_map(state) if r_map is None else r_map
    rmax = int(r.max())
    ur, uc = u[0] % n, u[1] % n
    ix = torus_window_ix(n, ur, uc, rmax)
    sub = r[ix]
    d = np.arange(-rmax, rmax + 1)
    dist = np.maximum(np.abs(d)[:, None], np.abs(d)[None, :])
    radius = int(sub[sub >= dist].max())
    return radius, (2 * radius + 1) ** 2


def _level_sweep(n: int, top: int, qualify) -> np.ndarray:
    """For every cell, the largest rho in [0, top] at which it lies within
    torus Chebyshev distance rho of a center in qualify(rho) (an n x n bool
    array); -1 where no level covers it.

    Radii descending; each qualifying set is dilated by a wrap running-max
    of side 2 rho + 1, which never wraps onto itself for rho <= floor((n-1)/2).
    """
    out = np.full((n, n), -1, dtype=np.int32)
    left = n * n
    for rho in range(top, -1, -1):
        q = qualify(rho)
        if not q.any():
            continue
        covered = ndimage.maximum_filter(q.view(np.uint8), size=2 * rho + 1, mode="wrap")
        newly = (covered > 0) & (out < 0)
        out[newly] = rho
        left -= int(np.count_nonzero(newly))
        if left == 0:
            break
    return out


def mono_radius_all(state: GridState, r_map: Optional[np.ndarray] = None) -> np.ndarray:
    """Exact monochromatic-region radius M(u) for every agent.

    M(u) >= rho exactly when u lies within rho of a center with r(c) >= rho.
    """
    r = center_radius_map(state) if r_map is None else r_map
    return _level_sweep(state.n, int(r.max()), lambda rho: r >= rho)


def largest_mono_region(state: GridState, type_: int, r_map: Optional[np.ndarray] = None):
    """((row, col), radius) of the max-radius single-type window among centers
    of the given type; ties broken row-major.  None if no agent of the type."""
    if type_ not in (-1, 1):
        raise ValueError("type_ must be +1 or -1")
    r = center_radius_map(state) if r_map is None else r_map
    mask = state.types == type_
    if not mask.any():
        return None
    masked = np.where(mask, r, -1)
    flat = int(np.argmax(masked))
    n = state.n
    return (flat // n, flat % n), int(masked.ravel()[flat])


def almost_mono_radius_of(state: GridState, u: tuple[int, int], eps: float) -> tuple[int, int, float]:
    """(radius, size, minority_ratio) of the largest almost-monochromatic
    window containing u: minority/majority <= exp(-N^eps).

    Exact: scans radii descending, each with every candidate center.  The
    reported ratio is the minimum over qualifying windows at the maximal
    radius; zero minority reports 0.
    """
    if not 0.0 < eps < 0.5:
        raise ValueError(f"eps must be in (0, 1/2), got {eps}")
    n = state.n
    N = state.config.N
    threshold = math.exp(-(N**eps))
    R = max_region_radius(n)
    sat = _PaddedSAT(state.types > 0, R)
    ur, uc = u[0] % n, u[1] % n
    for rho in range(R, -1, -1):
        d = np.arange(-rho, rho + 1)
        I = (ur + d) % n
        J = (uc + d) % n
        counts = sat.window(I[:, None], J[None, :], rho)
        area = (2 * rho + 1) ** 2
        minority = np.minimum(counts, area - counts)
        majority = area - minority
        qual = minority <= threshold * majority
        if qual.any():
            ratio = float((minority[qual] / majority[qual]).min())
            return rho, area, ratio
    raise AssertionError("radius 0 always qualifies")  # pragma: no cover


def almost_mono_radius_map(state: GridState, eps: float) -> np.ndarray:
    """Almost-monochromatic radius for every agent: the largest rho at which
    the agent lies within rho of a center whose radius-rho window has
    minority/majority <= exp(-N^eps).  Radius 0 always qualifies.
    """
    if not 0.0 < eps < 0.5:
        raise ValueError(f"eps must be in (0, 1/2), got {eps}")
    n = state.n
    threshold = math.exp(-(state.config.N**eps))
    R = max_region_radius(n)
    sat = _PaddedSAT(state.types > 0, R)

    def qualify(rho):
        counts = sat.sums(rho)
        area = (2 * rho + 1) ** 2
        minority = np.minimum(counts, area - counts)
        return minority <= threshold * (area - minority)

    return _level_sweep(n, R, qualify)


@dataclass
class RegionMeasure:
    """What to measure at the end of a run."""

    sample_size: int = 1024
    eps: float = 0.25


@dataclass
class RegionSummary:
    largest_plus: Optional[dict]
    largest_minus: Optional[dict]
    sample_size: int
    eps: float
    mean_M: Optional[float]
    stderr_M: Optional[float]
    mean_Mprime: Optional[float]
    stderr_Mprime: Optional[float]
    m_radius_histogram: dict
    components: dict

    def to_dict(self) -> dict:
        return {
            "largest_plus": self.largest_plus,
            "largest_minus": self.largest_minus,
            "sample_size": self.sample_size,
            "eps": self.eps,
            "mean_M": self.mean_M,
            "stderr_M": self.stderr_M,
            "mean_Mprime": self.mean_Mprime,
            "stderr_Mprime": self.stderr_Mprime,
            "m_radius_histogram": self.m_radius_histogram,
            "components": self.components,
        }


def _mean_stderr(values: np.ndarray) -> tuple[float, float]:
    mean = float(values.mean())
    if values.size > 1:
        return mean, float(values.std(ddof=1) / math.sqrt(values.size))
    return mean, 0.0


def compute_region_summary(
    state: GridState,
    sample_size: int = 1024,
    eps: float = 0.25,
    seed: Optional[int] = None,
) -> RegionSummary:
    """Region statistics of a quiescent state.

    Per-agent M and M' are reported on sample_size uniformly random agents
    plus the global argmax center; the sampled values are read from the
    exact all-agent maps (mono_radius_all, almost_mono_radius_map).  M
    values are region sizes (cell counts).
    """
    n = state.n
    r_map = center_radius_map(state)
    largest = {}
    for tname, tval in (("plus", 1), ("minus", -1)):
        hit = largest_mono_region(state, tval, r_map)
        largest[tname] = (
            None if hit is None else {"center": [int(hit[0][0]), int(hit[0][1])], "radius": hit[1]}
        )

    mean_M = stderr_M = mean_Mp = stderr_Mp = None
    hist: dict = {}
    k = min(sample_size, n * n)
    if k > 0:
        rng = generator(state.config.seed if seed is None else seed, STREAM_MEASURE)
        cells = rng.choice(n * n, size=k, replace=False)
        argmax_flat = int(np.argmax(r_map))
        if argmax_flat not in cells:
            cells = np.concatenate([cells, [argmax_flat]])

        m_radii = mono_radius_all(state, r_map).ravel()[cells]
        mp_radii = almost_mono_radius_map(state, eps).ravel()[cells]
        mean_M, stderr_M = _mean_stderr((2 * m_radii.astype(np.float64) + 1) ** 2)
        mean_Mp, stderr_Mp = _mean_stderr((2 * mp_radii.astype(np.float64) + 1) ** 2)
        vals, counts = np.unique(m_radii, return_counts=True)
        hist = {int(v): int(c) for v, c in zip(vals, counts)}

    components = {"note": "auxiliary cluster statistic (4-adjacent components), not a square-region measure"}
    for tname, tval in (("plus", 1), ("minus", -1)):
        labels = label_grid_components(state.types == tval, adjacency=4, torus=True)
        _, sizes = np.unique(labels[labels >= 0], return_counts=True)
        components[f"largest_{tname}"] = int(sizes.max(initial=0))

    return RegionSummary(
        largest_plus=largest["plus"],
        largest_minus=largest["minus"],
        sample_size=k,
        eps=eps,
        mean_M=mean_M,
        stderr_M=stderr_M,
        mean_Mprime=mean_Mp,
        stderr_Mprime=stderr_Mp,
        m_radius_histogram=hist,
        components=components,
    )
