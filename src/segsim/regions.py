"""Exact measurement of monochromatic and almost-monochromatic square regions.

Regions are axis-aligned square neighborhoods (never arbitrary clusters).
For a cell c, r(c) is the largest radius rho <= floor((n-1)/2) whose
(2 rho + 1)^2 window at c is single-type; the monochromatic region of an
agent u has radius M(u) = max{ r(c) : linf(u, c) <= r(c) }.  The almost
monochromatic region relaxes single-type to a minority/majority ratio of at
most exp(-N^eps), where N is the agent-neighborhood size of the state: with
q(c) the largest radius whose window at c passes that test, M'(u) =
max{ q(c) : linf(u, c) <= q(c) }, since the largest passing radius at c
that reaches u is q(c) itself.

Both per-agent maps come from the same two steps.  The radius pass reads
the state's one prefix table of the +1 grid, state.plus_prefix(), cached
until the next flip, and gives every center two radii in one call: r(c),
and the largest radius whose minority count is within an integer table of
the largest passing count per radius (_minority_bound).  At threshold
exp(-N^eps) that is q(c); at threshold 0 the table is all zeros and it is
r(c) again.  The compiled pass starts each center's r climb one below the
largest r of its left and upper neighbors, starts its q scan at the top of
its left neighbor's passing run, or the level below it, when that level
passes (q is the largest passing level, so nothing below it is read),
climbs while levels pass, and reads the rest grouped by level, row by row;
it reads no level above one at which an upper neighbor's minority count
already exceeds the table's last entry.  The own-radius dilation then
gives M from r and M' from q; the compiled one skips every center that an
8-neighbor of larger value covers.  compute_region_summary makes one pass
for both.  Both steps, and the prefix table itself, run in the compiled
library of _kernels when it loads; the numpy code here is the
bit-identical reference and runs when it does not.  For one agent, mono_region_of reads M(u) off the r map (running
a full radius pass when none is given), and almost_mono_radius_of finds
M'(u) by direct search over radii and centers.  The numpy pass and
almost_mono_radius_of read their windows from _periodic_prefix, one table
of TorusPrefix.periodic over every corner a window can have.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import Optional

import numpy as np
from scipy import ndimage

from . import _kernels
from .grid import GridState, TorusPrefix, torus_window_ix
from .rng import STREAM_MEASURE, generator
# label_grid_components stays bound here: perfbench/tracing.py times it through
# this module.
from .unionfind import label_grid_components  # noqa: F401


def _check_eps(eps: float) -> None:
    if not 0.0 < eps < 0.5:
        raise ValueError(f"eps must be in (0, 1/2), got {eps}")


def _check_measure(sample_size: int, eps: float) -> None:
    """Reject a region measure that cannot run, before any work is done."""
    if sample_size < 0:
        raise ValueError(f"sample_size must be >= 0, got {sample_size}")
    _check_eps(eps)


def max_region_radius(n: int) -> int:
    """Radius cap floor((n-1)/2): a window never wraps onto itself."""
    return (n - 1) // 2


def _minority_bound(threshold: float, R: int) -> np.ndarray:
    """For rho = 0..R, the largest minority count m of a radius-rho window
    that passes m <= threshold * (area - m), evaluated in float64 exactly as
    the ratio test reads.  The left side grows with m and the right side
    cannot, so the passing counts are exactly 0..bound[rho]."""
    area = (2 * np.arange(R + 1, dtype=np.int64) + 1) ** 2

    def passes(m):
        return m <= threshold * (area - m)

    m = np.floor(area * (threshold / (1.0 + threshold))).astype(np.int64)
    while not (ok := passes(m)).all():
        m[~ok] -= 1
    while (more := passes(m + 1)).any():
        m[more] += 1
    return m


def _ratio_bound(state: GridState, eps: float) -> np.ndarray:
    """The _minority_bound table of the ratio test minority/majority <=
    exp(-N^eps) of almost-monochromatic windows."""
    _check_eps(eps)
    return _minority_bound(math.exp(-(state.config.N**eps)), max_region_radius(state.n))


def _periodic_prefix(prefix: TorusPrefix) -> np.ndarray:
    """P(x, y) for -R <= x, y <= n + R, R = floor((n-1)/2), stored at
    [x + R, y + R]: prefix.periodic, the prefix sum of the n-periodic +1
    grid, read once over the whole index grid.  Every window of radius <= R
    at a torus cell has its four corners in the table."""
    n, R = prefix.n, max_region_radius(prefix.n)
    x = np.arange(-R, n + R + 1)
    return prefix.periodic(x[:, None], x[None, :])


def _corner_sums(P: np.ndarray, x0, x1, y0, y1) -> np.ndarray:
    """Window sums from a _periodic_prefix table, rows [x0, x1) and columns
    [y0, y1) in table coordinates; the corners are slices or index arrays."""
    return P[x1, y1] - P[x0, y1] - P[x1, y0] + P[x0, y0]


def _radius_pass(prefix: TorusPrefix, bound: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(r, q) from one pass: for every center, r(c) the largest
    single-type radius <= floor((n-1)/2), and q(c) the largest such rho whose
    window's minority count is at most bound[rho], a _minority_bound table;
    at the all-zero table of threshold 0, q = r.  prefix is the state's
    plus_prefix().

    numpy reference: every level in turn, read from one call-local
    _periodic_prefix table, at the live centers only, until none is left.  A
    center dies at the first level where its window's minority count exceeds
    bound[R]: windows at one center are nested, so their minority count
    never falls as rho grows, and the table never falls either, so no higher
    level can pass there.  r(c) is the last level at which c's count is
    still 0; a zero count passes every table, so c is live there.  The
    scanned set is compacted once half of it has died (dead centers that
    are still scanned never pass again), and while it is the whole grid the
    windows are read with slices.  The table is cast to int32: a window sum
    of four corners is exact modulo 2^32, and it lies in [0, n^2 < 2^31].
    """
    n, R = prefix.n, max_region_radius(prefix.n)
    if _kernels.radius_pass is not None:
        return _kernels.radius_pass(prefix.sat, n, bound)
    P = _periodic_prefix(prefix).astype(np.int32)
    side, flat = P.shape[1], P.ravel()
    r = np.zeros(n * n, dtype=np.int32)
    q = np.zeros(n * n, dtype=np.int32)
    live = np.arange(n * n)  # flat ids of the scanned centers
    at = live // n * side + live % n  # P's flat index of [x, y] for center (x, y)
    for rho in range(R + 1):
        a, b = R - rho, R + rho + 1
        if live.size == n * n:
            counts = _corner_sums(P, slice(a, a + n), slice(b, b + n),
                                  slice(a, a + n), slice(b, b + n)).ravel()
        else:
            counts = (flat.take(at + (b * side + b)) - flat.take(at + (a * side + b))
                      - flat.take(at + (b * side + a)) + flat.take(at + (a * side + a)))
        minority = np.minimum(counts, (2 * rho + 1) ** 2 - counts)
        r[live[minority == 0]] = rho
        q[live[minority <= bound[rho]]] = rho
        keep = minority <= bound[R]
        kept = np.count_nonzero(keep)
        if kept == 0:
            break
        if 2 * kept <= live.size:
            live, at = live[keep], at[keep]
    return r.reshape(n, n), q.reshape(n, n)


def _dilate(v: np.ndarray) -> np.ndarray:
    """out(u) = max{ v(c) : torus linf(u, c) <= v(c) } for radii
    0 <= v <= floor((n-1)/2).

    numpy reference: going down from the top value, the centers with
    v(c) >= rho are dilated by a wrap running-max of side 2 rho + 1 (which
    never wraps onto itself), and each newly covered cell receives rho.
    """
    v = np.ascontiguousarray(v, dtype=np.int32)
    if _kernels.dilate is not None:
        return _kernels.dilate(v)
    n = v.shape[0]
    out = np.full((n, n), -1, dtype=np.int32)
    left = n * n
    for rho in range(int(v.max()), -1, -1):
        covered = ndimage.maximum_filter((v >= rho).view(np.uint8), size=2 * rho + 1, mode="wrap")
        newly = (covered > 0) & (out < 0)
        out[newly] = rho
        left -= int(np.count_nonzero(newly))
        if left == 0:
            break
    return out


def center_radius_map(state: GridState) -> np.ndarray:
    """r(c) for every cell: largest rho whose window at c is single-type,
    the radius pass at the all-zero table of threshold 0."""
    return _radius_pass(state.plus_prefix(), _minority_bound(0.0, max_region_radius(state.n)))[0]


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


def mono_radius_all(state: GridState, r_map: Optional[np.ndarray] = None) -> np.ndarray:
    """Exact monochromatic-region radius M(u) for every agent: the dilation of r."""
    return _dilate(center_radius_map(state) if r_map is None else r_map)


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


def _largest_mono_regions(types: np.ndarray, r_map: np.ndarray) -> dict:
    """The summary's largest_plus and largest_minus entries from one pass
    over r_map and types: {"center": [row, col], "radius": r} at the first
    row-major center of the largest r(c) among centers of each type (as
    largest_mono_region gives it), None for an absent type.

    key = (2 r + 1) * type is positive exactly at +1 centers and grows with r
    there, negative at -1 centers and falls as r grows, so its first argmax
    and first argmin are the two centers.
    """
    key = r_map * 2
    key += 1
    key *= types
    n = types.shape[0]

    def entry(flat):
        return {"center": [flat // n, flat % n], "radius": int(r_map.flat[flat])}

    plus, minus = int(np.argmax(key)), int(np.argmin(key))
    return {"plus": entry(plus) if key.flat[plus] > 0 else None,
            "minus": entry(minus) if key.flat[minus] < 0 else None}


def almost_mono_radius_of(state: GridState, u: tuple[int, int], eps: float) -> tuple[int, int, float]:
    """(radius, size, minority_ratio) of the largest almost-monochromatic
    window containing u: minority/majority <= exp(-N^eps).

    Exact: scans radii descending, each with every candidate center.  The
    reported ratio is the minimum over qualifying windows at the maximal
    radius; zero minority reports 0.
    """
    _check_eps(eps)
    n = state.n
    N = state.config.N
    threshold = math.exp(-(N**eps))
    R = max_region_radius(n)
    P = _periodic_prefix(state.plus_prefix())
    ur, uc = u[0] % n, u[1] % n
    for rho in range(R, -1, -1):
        d = np.arange(-rho, rho + 1)
        I = ((ur + d) % n + R)[:, None]
        J = ((uc + d) % n + R)[None, :]
        counts = _corner_sums(P, I - rho, I + rho + 1, J - rho, J + rho + 1)
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
    minority/majority <= exp(-N^eps), i.e. the dilation of q.  Radius 0
    always qualifies.
    """
    return _dilate(_radius_pass(state.plus_prefix(), _ratio_bound(state, eps))[1])


@dataclass
class RegionMeasure:
    """What to measure at the end of a run."""

    sample_size: int = 1024
    eps: float = 0.25

    def __post_init__(self) -> None:
        _check_measure(self.sample_size, self.eps)


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

    def to_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}


def _mean_stderr(values: np.ndarray) -> tuple[float, float]:
    mean = float(values.mean())
    if values.size > 1:
        return mean, float(values.std(ddof=1) / math.sqrt(values.size))
    return mean, 0.0


def compute_region_summary(
    state: GridState,
    sample_size: int = 1024,
    eps: float = 0.25,
) -> RegionSummary:
    """Region statistics of a quiescent state.

    Per-agent M and M' are reported on sample_size uniformly random agents
    plus the global argmax center, drawn from the state's seed; the sampled
    values are read from the exact all-agent maps, the dilations of r and q
    from one radius pass (mono_radius_all, and almost_mono_radius_map
    without its own pass).  M values are region sizes (cell counts).  The
    radius pass reads the state's cached prefix table.  Every step has a
    compiled kernel and a numpy reference that give the same bytes.
    """
    _check_measure(sample_size, eps)
    n = state.n
    r_map, q_map = _radius_pass(state.plus_prefix(), _ratio_bound(state, eps))
    largest = _largest_mono_regions(state.types, r_map)

    mean_M = stderr_M = mean_Mp = stderr_Mp = None
    hist: dict = {}
    k = min(sample_size, n * n)
    if k > 0:
        rng = generator(state.config.seed, STREAM_MEASURE)
        cells = rng.choice(n * n, size=k, replace=False)
        argmax_flat = int(np.argmax(r_map))
        if argmax_flat not in cells:
            cells = np.concatenate([cells, [argmax_flat]])

        m_radii = mono_radius_all(state, r_map).ravel()[cells]
        mp_radii = _dilate(q_map).ravel()[cells]
        mean_M, stderr_M = _mean_stderr((2 * m_radii.astype(np.float64) + 1) ** 2)
        mean_Mp, stderr_Mp = _mean_stderr((2 * mp_radii.astype(np.float64) + 1) ** 2)
        vals, counts = np.unique(m_radii, return_counts=True)
        hist = {int(v): int(c) for v, c in zip(vals, counts)}

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
    )
