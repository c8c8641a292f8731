"""Histogram-prior density estimation with two rules for keeping draws.

Draws n iid samples from the truncated Laplace density, fits the flat
Dirichlet histogram posterior, and compares two 95% credible regions built
from the same posterior draws: the multiscale-ball retention rule (keep the
draws closest to the posterior mean in the weighted wavelet max norm) and a
plain sup-norm band.  Writes one envelope CSV per sample size plus a
coverage summary; the multiscale set keeps covering the peak where the
sup-norm band runs into trouble.

Run:  python3 demos/01_dirichlet_histogram_bands.py
"""

import os

from credlab import dirichlethist, harness as hz

OUT = os.path.join(os.path.dirname(__file__), "output", "dirichlet")


def main():
    cfg = hz.ExperimentConfig.defaults("dirichlet_demo")
    cfg.n_list = (1000, 2000, 5000, 10000)
    cfg.reps = 50
    cfg.draws = 4000
    cfg.out_dir = OUT
    report = hz.run_experiment(cfg)
    path = hz.emit(report, os.path.join(OUT, "coverage_summary.csv"))
    print(f"coverage summary -> {path}")
    for row in report.row_dicts():
        print(f"  n={row['n']:>6}  bins=2^{dirichlethist.default_resolution(int(row['n']))}  "
              f"coverage={row['coverage']:.2f} +/- {row['ci_half_width']:.2f}")
    print(f"band envelopes (x, lower, upper, mean, truth) -> {OUT}/dirichlet_band_n*.csv")


if __name__ == "__main__":
    main()
