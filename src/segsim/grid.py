"""Torus grid configuration and state with exact integer happiness bookkeeping.

Cells hold one agent of type +1 or -1.  An agent's neighborhood is the
(2w+1) x (2w+1) square around it (itself included), with all coordinate
arithmetic modulo n.  Happiness is an integer comparison: an agent is happy
iff at least K of the N cells in its neighborhood hold its own type, where
K = ceil(tau_tilde * N) is computed in exact rational arithmetic.  No float
threshold ever enters the dynamics.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

import numpy as np

from . import _kernels
from ._kernels import INT16_MAX
from .rng import RNG_ID, STREAM_INIT, generator, normalize_seed

# The largest horizon whose N = (2w+1)^2 fits the flip kernel's int16 counts.
MAX_W = (math.isqrt(INT16_MAX) - 1) // 2


class ConfigError(ValueError):
    """Invalid grid configuration."""


class IneligibleFlipError(ValueError):
    """A flip was requested for an agent that is not eligible."""


def intolerance_threshold(tau_tilde: float, N: int) -> int:
    """K = ceil(tau_tilde * N), exact.

    tau_tilde is snapped to the nearest rational with denominator <= 10**6
    before multiplying, so decimal inputs like 0.2 do not pick up a spurious
    +1 from binary float error.
    """
    frac = Fraction(tau_tilde).limit_denominator(10**6)
    return int(math.ceil(frac * N))


def round_radius(x: float) -> int:
    """Fixed half-up rounding used for all derived region radii."""
    return int(math.floor(x + 0.5))


@dataclass(frozen=True)
class GridConfig:
    """Immutable parameters of a simulation grid.

    n: side length; w: neighborhood horizon; tau_tilde: target intolerance;
    p: Bernoulli(+1) parameter of the initial fill; seed: 64-bit stream seed.
    n >= 8w is required unless allow_small is set, because annular firewalls
    and block structures need room; n >= 2w+1 is always required so the
    neighborhood consists of N distinct cells; w <= 90 keeps N <= 32767.
    """

    n: int
    w: int
    tau_tilde: float
    p: float = 0.5
    seed: int = 0
    allow_small: bool = False

    def __post_init__(self) -> None:
        if self.w < 1:
            raise ConfigError(f"horizon w must be >= 1, got {self.w}")
        if self.w > MAX_W:
            raise ConfigError(
                f"w must be <= {MAX_W} so that N = (2w+1)^2 fits the engine's int16 counts, "
                f"got {self.w}"
            )
        if self.n < 2 * self.w + 1:
            raise ConfigError(
                f"n={self.n} < 2w+1={2 * self.w + 1}: neighborhood would wrap onto itself"
            )
        if self.n < 8 * self.w and not self.allow_small:
            raise ConfigError(
                f"n={self.n} < 8w={8 * self.w}; pass allow_small=True to override"
            )
        if not 0.0 <= self.tau_tilde <= 1.0:
            raise ConfigError(f"tau_tilde must be in [0,1], got {self.tau_tilde}")
        if not 0.0 <= self.p <= 1.0:
            raise ConfigError(f"p must be in [0,1], got {self.p}")
        object.__setattr__(self, "seed", normalize_seed(self.seed))

    @cached_property
    def N(self) -> int:
        return (2 * self.w + 1) ** 2

    @cached_property
    def K(self) -> int:
        return intolerance_threshold(self.tau_tilde, self.N)

    @cached_property
    def tau(self) -> float:
        """Effective intolerance K/N."""
        return self.K / self.N

    @cached_property
    def eligible_max_count(self) -> int:
        """Largest same_count an eligible agent can have.

        Eligibility is same_count < K and N - same_count + 1 >= K, i.e.
        same_count <= min(K-1, N+1-K).
        """
        return min(self.K - 1, self.N + 1 - self.K)

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "w": self.w,
            "tau_tilde": self.tau_tilde,
            "p": self.p,
            "seed": self.seed,
            "rng_id": RNG_ID,
            "N": self.N,
            "K": self.K,
        }


class Happiness(enum.Enum):
    HAPPY = "Happy"
    UNHAPPY_INELIGIBLE = "UnhappyIneligible"
    UNHAPPY_ELIGIBLE = "UnhappyEligible"


@dataclass
class FlipEvent:
    """Record of one executed flip.

    flip_index is the 1-based ordinal of the flip in the state's history;
    continuous_time is the cumulative Poisson-clock time at the flip.
    """

    agent: tuple[int, int]
    pre_count: int
    flip_index: int
    continuous_time: float


def torus_window_ix(n: int, r: int, c: int, radius: int):
    """np.ix_ index pair for the (2*radius+1)^2 window centered at (r, c)."""
    rows = (np.arange(r - radius, r + radius + 1)) % n
    cols = (np.arange(c - radius, c + radius + 1)) % n
    return np.ix_(rows, cols)


def box_same_counts(types: np.ndarray, w: int) -> np.ndarray:
    """From-scratch same_count for every agent, via separable window sums.

    Each axis in turn is wrap-extended by w + 1 cells before and w after and
    summed cumulatively in int32; the difference of two cumulative sums
    2w + 1 apart is the wrapped window sum along that axis.
    """
    n = types.shape[0]
    side = 2 * w + 1
    ext = np.arange(-w - 1, n + w)
    cs = np.take(types > 0, ext, axis=1, mode="wrap").cumsum(axis=1, dtype=np.int32)
    cs = np.take(cs[:, side:] - cs[:, :n], ext, axis=0, mode="wrap").cumsum(axis=0, dtype=np.int32)
    plus_in_window = cs[side:] - cs[:n]
    return np.where(types > 0, plus_in_window, side * side - plus_in_window)


def _same_counts(types: np.ndarray, w: int) -> np.ndarray:
    """box_same_counts, computed in the compiled library of _kernels when it
    loads, with two row buffers and no n x n temporary; box_same_counts is
    the reference."""
    if _kernels.box_counts is None:
        return box_same_counts(types, w)
    return _kernels.box_counts(types, w)


def same_counts_bruteforce(types: np.ndarray, w: int) -> np.ndarray:
    """Independent oracle for box_same_counts: explicit roll-and-sum."""
    n = types.shape[0]
    plus = (types > 0).astype(np.int64)
    acc = np.zeros((n, n), dtype=np.int64)
    for dr in range(-w, w + 1):
        for dc in range(-w, w + 1):
            acc += np.roll(np.roll(plus, dr, axis=0), dc, axis=1)
    N = (2 * w + 1) ** 2
    return np.where(types > 0, acc, N - acc).astype(np.int32)


class TorusPrefix:
    """O(1) rectangle sums of +1 indicators on the torus, after an O(n^2) build.

    Rebuilt on demand when the owning state has flipped (the check is done
    by GridState.plus_prefix).  sat is the (n+1) x (n+1) int64 table:
    sat[i, j] sums rows [0, i), cols [0, j).  periodic, the prefix sum of
    the n-periodic grid, is the one Python reader of wrapped windows: rect
    reads a window's four corners from it.  All query arguments may be
    numpy arrays.  plus is an n x n 0/1 array of any dtype; the table is
    built in the compiled library of _kernels when it loads, and otherwise
    by the numpy double cumsum, its reference.
    """

    def __init__(self, plus: np.ndarray):
        n = plus.shape[0]
        self.n = n
        mask = np.ascontiguousarray(plus, dtype=bool)
        if _kernels.prefix_table is not None:
            self.sat = _kernels.prefix_table(mask.view(np.uint8))
            return
        self.sat = np.zeros((n + 1, n + 1), dtype=np.int64)
        np.cumsum(np.cumsum(mask, axis=0, dtype=np.int64), axis=1, out=self.sat[1:, 1:])

    def periodic(self, x, y):
        """P(x, y): the +1 count of rows [0, x), cols [0, y) of the n-periodic
        grid, for -n <= x, y <= 2n (x and y broadcast).  With x = a n + i,
        y = b n + j, a, b in {-1, 0, 1} and 0 <= i, j <= n, it is sat(i, j) +
        a Col(j) + b Row(i) + a b T, with Col(j) = sat(n, j), Row(i) =
        sat(i, n) and T = sat(n, n) (proved at prefix_strip in _kernels)."""
        n, s = self.n, self.sat
        x, y = np.asarray(x), np.asarray(y)
        a = (x > n).astype(np.int64) - (x < 0)
        b = (y > n).astype(np.int64) - (y < 0)
        i, j = x - a * n, y - b * n
        return s[i, j] + a * (s[n, j] + b * s[n, n]) + b * s[i, n]

    def rect(self, r0, c0, h, w):
        """Sum of +1 indicators over the torus rectangle rows [r0, r0+h), cols [c0, c0+w).

        h and w must be in [0, n]; r0, c0 are taken modulo n.
        """
        n = self.n
        h = np.asarray(h)
        w = np.asarray(w)
        if np.any(h < 0) or np.any(h > n) or np.any(w < 0) or np.any(w > n):
            raise ValueError("rectangle extents must lie in [0, n]")
        r0 = np.asarray(r0) % n
        c0 = np.asarray(c0) % n
        P = self.periodic
        total = P(r0 + h, c0 + w) - P(r0, c0 + w) - P(r0 + h, c0) + P(r0, c0)
        if total.ndim == 0:
            return int(total)
        return total

    def window(self, r, c, radius):
        """Sum over the (2*radius+1)^2 window centered at (r, c)."""
        side = 2 * np.asarray(radius) + 1
        return self.rect(np.asarray(r) - radius, np.asarray(c) - radius, side, side)


class GridState:
    """Mutable torus configuration plus incremental bookkeeping.

    Owns, for every cell: the agent type (+1/-1), the exact count of
    same-type agents in its neighborhood (itself included), and membership
    in the eligible set (unhappy agents that would be happy after flipping),
    stored as a dense array with an index for O(1) uniform sampling.
    A GridState must be driven by at most one simulation at a time.
    """

    __slots__ = (
        "config",
        "types",
        "same_count",
        "elig_pos",
        "elig_cells",
        "elig_count",
        "flips_done",
        "time",
        "_prefix_cache",
    )

    def __init__(self, config: GridConfig, types: np.ndarray):
        n = config.n
        if types.shape != (n, n):
            raise ConfigError(f"types shape {types.shape} != ({n}, {n})")
        if not np.all(np.abs(types) == 1):
            raise ConfigError("types must contain only +1 and -1")
        self.config = config
        self.types = types.astype(np.int8)
        self.same_count = _same_counts(self.types, config.w)
        self.flips_done = 0
        self.time = 0.0
        self._prefix_cache = None
        self._rebuild_eligible()

    def _rebuild_eligible(self) -> None:
        n = self.config.n
        mask = (self.same_count <= self.config.eligible_max_count).ravel()
        cells = np.nonzero(mask)[0]
        self.elig_cells = np.zeros(n * n, dtype=np.int64)
        self.elig_cells[: cells.size] = cells
        self.elig_pos = np.full(n * n, -1, dtype=np.int32)
        self.elig_pos[cells] = np.arange(cells.size, dtype=np.int32)
        self.elig_count = int(cells.size)

    # -- read-only views ---------------------------------------------------

    @property
    def n(self) -> int:
        return self.config.n

    def eligible_list(self) -> np.ndarray:
        """Flat cell ids of eligible agents, in internal (sampling) order."""
        return self.elig_cells[: self.elig_count].copy()

    def unhappy_count(self) -> int:
        return int(np.count_nonzero(self.same_count < self.config.K))

    def copy(self) -> "GridState":
        new = object.__new__(GridState)
        new.config = self.config
        new.types = self.types.copy()
        new.same_count = self.same_count.copy()
        new.elig_pos = self.elig_pos.copy()
        new.elig_cells = self.elig_cells.copy()
        new.elig_count = self.elig_count
        new.flips_done = self.flips_done
        new.time = self.time
        new._prefix_cache = None
        return new

    def plus_prefix(self) -> TorusPrefix:
        """Prefix-sum service over the +1 indicator; rebuilt when stale.

        Every mutation is a flip and counts in flips_done, so the table is
        keyed on it."""
        cache = self._prefix_cache
        if cache is None or cache[0] != self.flips_done:
            self._prefix_cache = (self.flips_done, TorusPrefix(self.types > 0))
        return self._prefix_cache[1]

    def audit_consistent(self) -> bool:
        """Test-mode invariant check: counts and eligibility re-derivable.

        The counts are recounted from a fresh prefix table, apart from the
        flips_done-keyed plus_prefix cache and from box_same_counts."""
        rows, cols = np.indices((self.n, self.n))
        plus = TorusPrefix(self.types > 0).window(rows, cols, self.config.w)
        expected = np.where(self.types > 0, plus, self.config.N - plus)
        if not np.array_equal(expected, self.same_count):
            return False
        mask = (self.same_count <= self.config.eligible_max_count).ravel()
        members = np.zeros(self.n * self.n, dtype=bool)
        members[self.elig_cells[: self.elig_count]] = True
        if not np.array_equal(mask, members):
            return False
        pos = self.elig_pos[self.elig_cells[: self.elig_count]]
        return bool(np.array_equal(pos, np.arange(self.elig_count)))


def state_from_types(config: GridConfig, types: np.ndarray) -> GridState:
    """Build a fully consistent state from an explicit type grid."""
    return GridState(config, types)


def new_random(config: GridConfig) -> GridState:
    """Initial configuration: each cell independently +1 with probability p."""
    rng = generator(config.seed, STREAM_INIT)
    plus = rng.random((config.n, config.n)) < config.p
    types = np.where(plus, 1, -1).astype(np.int8)
    return GridState(config, types)


def happiness_state(state: GridState, u: tuple[int, int]) -> Happiness:
    """Happy iff same_count >= K; among unhappy, eligible iff a flip would reach K."""
    cfg = state.config
    s = int(state.same_count[u[0] % cfg.n, u[1] % cfg.n])
    if s >= cfg.K:
        return Happiness.HAPPY
    if s <= cfg.eligible_max_count:
        return Happiness.UNHAPPY_ELIGIBLE
    return Happiness.UNHAPPY_INELIGIBLE


def _flip_cell(types, sc, elig_pos, elig_cells, m, n, w, N, emax, cell):
    """Flip the eligible agent at flat index cell on the bare state arrays
    holding m eligible agents; returns (its pre-flip same_count, new m).

    Exactly the (2w+1)^2 counts around cell change; then eligibility is
    re-derived for those agents only, all removals before all insertions,
    each in row-major window order.  That order is the determinism contract
    stated in _kernels, which the compiled kernel keeps in one walk; this is
    its three-pass reference.  O(w^2) work per flip.
    """
    types = types.reshape(-1)
    sc = sc.reshape(-1)
    r0, c0 = divmod(cell, n)
    k = int(sc[cell])
    new_type = -int(types[cell])
    types[cell] = new_type

    rows, cols = torus_window_ix(n, r0, c0, w)
    ids = (rows * n + cols).ravel()
    sc[ids] += np.where(types[ids] == new_type, 1, -1).astype(np.int32)
    sc[cell] = N - k + 1

    now_elig = sc[ids] <= emax
    was_member = elig_pos[ids] >= 0
    for v in ids[was_member & ~now_elig]:
        pos = elig_pos[v]
        last = elig_cells[m - 1]
        elig_cells[pos] = last
        elig_pos[last] = pos
        elig_pos[v] = -1
        m -= 1
    for v in ids[~was_member & now_elig]:
        elig_pos[v] = m
        elig_cells[m] = v
        m += 1
    return k, m


def apply_flip(state: GridState, u: tuple[int, int]) -> FlipEvent:
    """Flip the eligible agent at u and repair all bookkeeping incrementally
    (through _flip_cell)."""
    cfg = state.config
    n = cfg.n
    r0, c0 = u[0] % n, u[1] % n
    cell = r0 * n + c0
    if state.elig_pos[cell] < 0:
        raise IneligibleFlipError(f"agent {(r0, c0)} is not eligible to flip")
    k, state.elig_count = _flip_cell(
        state.types, state.same_count, state.elig_pos, state.elig_cells, state.elig_count,
        n, cfg.w, cfg.N, cfg.eligible_max_count, cell,
    )
    state.flips_done += 1
    return FlipEvent((r0, c0), k, state.flips_done, state.time)


def plus_count_in_rect(state: GridState, rect: tuple[int, int, int, int]) -> int:
    """Exact number of +1 agents in the torus rectangle (r0, c0, height, width)."""
    r0, c0, h, w = rect
    return int(state.plus_prefix().rect(r0, c0, h, w))
