"""Empirical-Bayes credible sets on the Fourier sine basis.

Reproduces the core single-realization picture: observe y = f0 + z/sqrt(n)
for f0_k = k^{-3/2} sin(k), select the prior smoothness by marginal
likelihood, then build the smoothed H(delta) set and the plain l2 ball from
2000 posterior draws.  Emits the truth, posterior mean and retained-draw
envelopes on a grid for both geometries, for n = 500 and 2000.

Run:  python3 demos/02_empirical_bayes_credible_sets.py
"""

import csv
import os

import numpy as np

from credlab import credsets as cset
from credlab import seqmodel as sm

OUT = os.path.join(os.path.dirname(__file__), "output", "fourier")


def retained(cs, draws, gamma):
    """Members among ``draws`` of the set ``cs`` calibrated on them."""
    dist = cset.distance_rows(draws, cs.measures, cs.basis)
    return cs.membership(dist, cset.calibrate_radius(dist[0], [gamma]))[0]


def envelope(draw_matrix, keep, grid, basis):
    vals = sm.evaluate_function(draw_matrix[keep], grid, basis)
    return vals.min(axis=0), vals.max(axis=0)


def main():
    os.makedirs(OUT, exist_ok=True)
    grid = np.linspace(0.0, 1.0, 401)
    for n in (500.0, 2000.0):
        basis = sm.BasisSpec(sm.FOURIER_SINE, sm.default_fourier_truncation(n))
        f0 = sm.power_sine_signal(1.5, 1.0, basis)
        obs = sm.observe(f0, n, seed=426)
        fitted = cset.fit(obs, "eb")
        draws = fitted.sample(2000, seed=415)
        keep_s, keep_l = (retained(cset.build_set(cset.CredibleSetSpec(variant), fitted),
                                   draws, 0.05)
                          for variant in (cset.H_DELTA_EB, cset.L2_BALL))
        lo_s, hi_s = envelope(draws, keep_s, grid, basis)
        lo_l, hi_l = envelope(draws, keep_l, grid, basis)
        truth = sm.evaluate_function(f0, grid)
        mean = sm.evaluate_function(fitted.posterior_mean, grid, basis)
        path = os.path.join(OUT, f"eb_sets_n{int(n)}.csv")
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["x", "truth", "post_mean", "smoothed_lo", "smoothed_hi",
                        "l2_lo", "l2_hi"])
            for i, x in enumerate(grid):
                w.writerow([x, truth[i], mean[i], lo_s[i], hi_s[i], lo_l[i], hi_l[i]])
        print(f"n={int(n):>5}: alpha_hat={fitted.alpha_hat:.2f}  "
              f"kept {keep_s.sum()}/{len(keep_s)} (smoothed), "
              f"{keep_l.sum()}/{len(keep_l)} (l2)  -> {path}")


if __name__ == "__main__":
    main()
