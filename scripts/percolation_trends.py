#!/usr/bin/env python3
"""Finite-sample percolation trend data: chemical distance overhead in the
supercritical regime, subcritical cluster-radius tail, and the passage-time
concentration ratio across scales."""

import argparse
import math

import numpy as np

from segsim.percolation import (
    SiteLattice,
    chemical_distance,
    cluster_radius_tail,
    fpp_time_to_distance,
)


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--seed", type=int, default=10)
    ap.add_argument("--chem-samples", type=int, default=200)
    ap.add_argument("--chem-p", type=float, default=0.95)
    ap.add_argument("--tail-p", type=float, default=0.2)
    ap.add_argument("--tail-side", type=int, default=1000)
    ap.add_argument("--fpp-reps", type=int, default=40)
    args = ap.parse_args()

    # Chemical distance at l1 distance 200, from lattices where a and b connect.
    a, b = (20, 120), (120, 20)
    dists = []
    max_draws = 100 * args.chem_samples
    for i in range(max_draws):
        lat = SiteLattice.random((241, 241), args.chem_p, args.seed, key=(i,))
        d = chemical_distance(lat, a, b)
        if d is not None:
            dists.append(d)
            if len(dists) == args.chem_samples:
                break
    else:
        ap.error(f"only {len(dists)} of {max_draws} lattices at --chem-p {args.chem_p} "
                 f"connect {a} and {b}; --chem-samples asks for {args.chem_samples}")
    dists = np.asarray(dists)
    print(
        f"chemical distance (l1=200, p={args.chem_p}): median {np.median(dists):.0f}, "
        f"frac within 1.25*l1 = {(dists <= 250).mean():.3f}"
    )

    # Subcritical radius tail.
    lat = SiteLattice.random((args.tail_side, args.tail_side), args.tail_p, args.seed + 1)
    ks = range(0, 13, 2)
    _, tail = cluster_radius_tail([lat], ks)
    print(f"cluster radius tail (p={args.tail_p}):")
    for k, pk in zip(ks, tail):
        print(f"  P(radius >= {k:2d}) = {pk:.2e}")

    # Passage-time concentration across scales.
    for k, half in ((100, 40), (400, 60), (1600, 80)):
        ts = [
            fpp_time_to_distance(k, half, 1.0, args.seed + 2, key=(k, j))
            for j in range(args.fpp_reps)
        ]
        print(
            f"fpp k={k:5d}: mean/k {np.mean(ts) / k:.4f}, "
            f"std/sqrt(k) {np.std(ts, ddof=1) / math.sqrt(k):.4f}"
        )


if __name__ == "__main__":
    main()
