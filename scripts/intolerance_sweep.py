#!/usr/bin/env python3
"""Region size versus intolerance: run a sweep and print the trend summary.

Emits the standard sweep CSV plus a per-cell aggregate of the mean sampled
region sizes, and reports the one-sided Spearman verdict on the means.

The default grid (n=256, w=3, tau 0.36..0.48, N=49) lies inside the sqrt(N)
window around tau = 1/2: every point has N/2 - K < sqrt(N). There the means
are U-shaped (479, 296, 375, 961 at base seed 42: rho = 0.40, p = 0.70), a
finite-size inversion, and the defaults reproduce it. The paper's decreasing
trend is a large-N claim; to see it run e.g.
`--n 256 --w 6 --taus 0.38,0.40,0.42 --replicates 6` (acceptance
criterion 8), where every point has N/2 - K >= sqrt(N).
"""

import argparse
import csv

import numpy as np

from segsim.experiments import SweepSpec, decreasing_trend, run_sweep


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--taus", default="0.36,0.40,0.44,0.48")
    ap.add_argument("--n", type=int, default=256)
    ap.add_argument("--w", type=int, default=3)
    ap.add_argument("--replicates", type=int, default=32)
    ap.add_argument("--base-seed", type=int, default=42)
    ap.add_argument("--jobs", type=int, default=1)
    ap.add_argument("--sample-size", type=int, default=1024)
    ap.add_argument("--out-dir", default="sweep_out")
    args = ap.parse_args()

    taus = [float(x) for x in args.taus.split(",")]
    spec = SweepSpec(
        tau_grid=taus,
        w_grid=[args.w],
        n_grid=[args.n],
        p_grid=[0.5],
        replicates=args.replicates,
        base_seed=args.base_seed,
        jobs=args.jobs,
        sample_size=args.sample_size,
        out_dir=args.out_dir,
    )
    csv_path = run_sweep(spec)

    by_tau: dict[float, list[float]] = {t: [] for t in taus}
    with open(csv_path, newline="") as fh:
        for row in csv.DictReader(fh):
            by_tau[float(row["tau_tilde"])].append(float(row["mean_M"]))
    means = [float(np.mean(by_tau[t])) for t in taus]
    rho, p = decreasing_trend(taus, means)
    print(f"sweep CSV: {csv_path}")
    for t, m in zip(taus, means):
        print(f"  tau={t:.2f}: mean region size {m:10.1f}")
    rho_text = "undefined (constant input)" if rho is None else f"{rho:.3f}"
    print(f"Spearman rho={rho_text}, one-sided p={p:.4f} (decreasing trend)")


if __name__ == "__main__":
    main()
