"""Closed forms: entropy, intolerance thresholds, exponent multipliers, and
exact finite-size probabilities for the initial Bernoulli(1/2) configuration.

Conventions.  N = (2w+1)^2 is the neighborhood size, K = ceil(tau_tilde*N)
the integer happiness threshold, tau = K/N the effective intolerance.  The
finite-size correction tau' = (tau*N - 2)/(N - 1) accounts for the strict
unhappiness inequality and the agent's own cell; tau_hat shrinks tau by a
relative N^(eps - 1/2) margin when defining radical regions; bar_tau is the
mirrored threshold governing which agents can flip when tau > 1/2.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from typing import Optional

import numpy as np
from scipy.special import gammaln, logsumexp

from .grid import intolerance_threshold


def entropy(x: float) -> float:
    """Binary entropy, base 2, with H(0) = H(1) = 0 by continuity."""
    if not 0.0 <= x <= 1.0:
        raise ValueError(f"entropy argument must be in [0,1], got {x}")
    if x in (0.0, 1.0):
        return 0.0
    return -x * math.log2(x) - (1.0 - x) * math.log2(1.0 - x)


def f_tau(tau: float) -> float:
    """Infimum of the expansion margin eps' that lets a radical region trigger
    a cascade; zero at tau = 1/2 and below 1/2 on (tau2, 1/2)."""
    a = tau - 0.5
    b = 3.0 * tau + 0.5
    disc = 9.0 * a * a - 7.0 * a * b
    if disc < 0.0:
        raise ValueError(f"f_tau discriminant negative at tau={tau}")
    return (3.0 * a + math.sqrt(disc)) / (2.0 * b)


def _tau1_residual(t: float) -> float:
    return 0.75 * (1.0 - entropy(4.0 * t / 3.0)) - (1.0 - entropy(t))


@lru_cache(maxsize=1)
def tau1() -> float:
    """Lower edge of the fully-monochromatic regime: root of
    (3/4)[1 - H(4 tau/3)] - [1 - H(tau)] on (0.375, 0.5), |residual| < 1e-10."""
    lo, hi = 0.375, 0.5
    flo = _tau1_residual(lo)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        fmid = _tau1_residual(mid)
        if (flo < 0.0) == (fmid < 0.0):
            lo, flo = mid, fmid
        else:
            hi = mid
        if hi - lo < 1e-12:
            break
    return 0.5 * (lo + hi)


def tau2() -> float:
    """Lower edge of the almost-monochromatic regime: the root 11/32 of
    1024 t^2 - 384 t + 11 = 0 (the other root, 1/32, is spurious)."""
    return 11.0 / 32.0


def tau_prime(tau: float, N: int) -> float:
    """Finite-size intolerance (tau*N - 2)/(N - 1)."""
    return (tau * N - 2.0) / (N - 1.0)


def tau_hat(tau: float, N: int, eps: float) -> float:
    """Shrunken intolerance tau * (1 - 1/(tau * N^(1/2 - eps))) used in the
    radical-region count threshold."""
    return tau * (1.0 - 1.0 / (tau * N ** (0.5 - eps)))


def a_tau(tau: float, N: Optional[int] = None, eps_prime: Optional[float] = None) -> float:
    """Lower exponent multiplier [1 - (2e' + e'^2)][1 - H(tau')].

    eps_prime defaults to its infimum f(tau); tau' uses N when given, else
    the large-N limit tau' = tau.
    """
    if eps_prime is None:
        eps_prime = f_tau(tau)
    tp = tau if N is None else tau_prime(tau, N)
    if not 0.0 <= tp <= 1.0:
        raise ValueError(f"tau'={tp} outside [0,1]")
    return (1.0 - (2.0 * eps_prime + eps_prime**2)) * (1.0 - entropy(tp))


def b_tau(tau: float, N: Optional[int] = None, eps_prime: Optional[float] = None) -> float:
    """Upper exponent multiplier (3/2)(1 + e')^2 [1 - H(tau')]."""
    if eps_prime is None:
        eps_prime = f_tau(tau)
    tp = tau if N is None else tau_prime(tau, N)
    if not 0.0 <= tp <= 1.0:
        raise ValueError(f"tau'={tp} outside [0,1]")
    return 1.5 * (1.0 + eps_prime) ** 2 * (1.0 - entropy(tp))


_EXACT_CDF_LIMIT = 20_000


def binom_cdf(kmax: int, n: int) -> float:
    """P(Binomial(n, 1/2) <= kmax).

    For n up to 20000 the sum of binomial coefficients is accumulated in
    exact integer arithmetic, so the result is the correctly rounded double
    (well inside the 1e-12 relative contract); beyond that a stable
    log-space accumulation takes over.
    """
    if kmax < 0:
        return 0.0
    if kmax >= n:
        return 1.0
    if n <= _EXACT_CDF_LIMIT:
        total = 0
        c = 1  # C(n, 0)
        for k in range(kmax + 1):
            total += c
            c = c * (n - k) // (k + 1)
        return float(Fraction(total, 1 << n))
    ks = np.arange(0, kmax + 1, dtype=np.float64)
    logs = gammaln(n + 1.0) - gammaln(ks + 1.0) - gammaln(n - ks + 1.0) - n * math.log(2.0)
    return float(math.exp(logsumexp(logs)))


def p_unhappy_exact(N: int, K: int) -> float:
    """Probability an agent is unhappy in the initial Bernoulli(1/2) fill.

    The agent counts itself, so with X ~ Binomial(N-1, 1/2) same-type others,
    unhappiness is X <= K - 2.
    """
    if not 1 <= K <= N:
        raise ValueError(f"need 1 <= K <= N, got K={K}, N={N}")
    return binom_cdf(K - 2, N - 1)


def p_unhappy_bound_scale(N: int, K: int) -> float:
    """The scale 2^{-[1 - H(tau')] N} / sqrt(N) that brackets p_unhappy up to
    constants depending only on tau."""
    tp = tau_prime(K / N, N)
    return 2.0 ** (-(1.0 - entropy(tp)) * N) / math.sqrt(N)


def radical_threshold_count(N: int, K: int, eps_prime: float, eps: float) -> int:
    """Integer count threshold floor(tau_hat * (1+eps')^2 * N) below which a
    region's minority count makes it radical.  Equals
    floor((1+eps')^2 (K - N^(1/2+eps))) since tau*N = K exactly."""
    return int(math.floor((1.0 + eps_prime) ** 2 * (K - N ** (0.5 + eps))))


def p_radical_exact(N: int, K: int, eps_prime: float, eps: float) -> float:
    """Exact probability that a region of (1+eps')^2 N cells (rounded) drawn
    i.i.d. Bernoulli(1/2) has minority count strictly below the radical
    threshold."""
    cells = int(math.floor((1.0 + eps_prime) ** 2 * N + 0.5))
    thr = radical_threshold_count(N, K, eps_prime, eps)
    if thr <= 0:
        return 0.0
    return binom_cdf(min(thr - 1, cells), cells)


def bar_tau(tau_tilde: float, N: int) -> tuple[int, float]:
    """Super-unhappy threshold for tau > 1/2: (K_bar, tau_bar) with
    tau_bar = 1 - tau + 2/N and K_bar = tau_bar * N = N - K + 2.

    An own-type count strictly below K_bar is what lets an unhappy agent
    become happy by flipping.
    """
    K = intolerance_threshold(tau_tilde, N)
    K_bar = N - K + 2
    return K_bar, K_bar / N


def spread_params(tau: float) -> tuple[float, float, float]:
    """Trapezoid-cascade geometry (zeta, nu) and the residual of the spread
    inequality [1 - 1/4 - (1/4 + 1/2 - zeta) nu - (1/8 - nu)/4] / 2 < tau.

    The residual (lhs - tau) changes sign exactly at tau = 11/32.  Intended
    range is tau2 < tau <= 3/8; the function evaluates anywhere so the sign
    change itself can be bracketed.
    """
    zeta = (3.0 - 8.0 * tau) / 2.0
    nu = (16.0 * tau - 5.0) / 6.0
    lhs = (1.0 - 0.25 - (0.25 + 0.5 - zeta) * nu - 0.25 * (0.125 - nu)) * 0.5
    return zeta, nu, lhs - tau


def curve(name: str, taus, N: Optional[int] = None, eps: float = 0.1,
          eps_prime: Optional[float] = None) -> list[tuple[float, float, float]]:
    """Rows (tau, limit_value, finite_N_value) for the named curve.

    Curves: f (margin infimum), a / b (exponent multipliers), pu (exact
    unhappy probability; finite-N only), pradical (exact radical-region
    probability; finite-N only).  NaN marks an undefined entry.
    """
    rows = []
    nan = float("nan")
    for t in taus:
        t = float(t)
        if name == "f":
            v = f_tau(t)
            rows.append((t, v, v))
        elif name in ("a", "b"):
            fn = a_tau if name == "a" else b_tau
            limit = fn(t, None, eps_prime)
            finite = fn(t, N, eps_prime) if N is not None else nan
            rows.append((t, limit, finite))
        elif name == "pu":
            if N is None:
                raise ValueError("curve 'pu' requires N")
            K = intolerance_threshold(t, N)
            rows.append((t, nan, p_unhappy_exact(N, K)))
        elif name == "pradical":
            if N is None:
                raise ValueError("curve 'pradical' requires N")
            K = intolerance_threshold(t, N)
            ep = eps_prime if eps_prime is not None else f_tau(K / N)
            rows.append((t, nan, p_radical_exact(N, K, ep, eps)))
        else:
            raise ValueError(f"unknown curve {name!r}")
    return rows
