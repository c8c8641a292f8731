"""Slab-and-spike wavelet bands at small n.

Fits the thresholding prior to noisy Haar coefficients of the truncated
Laplace density at n = 200 and 500, then overlays three uncertainty
summaries built from the same 2000 exact posterior draws: the multiscale
ball retention rule, the joint sup-norm band, and pointwise 95% intervals.
The pointwise intervals ignore the rare high-frequency spikes entirely and
undercover the peak; the emitted CSV shows whether the truth stays inside
each band at every grid point.

Run:  python3 demos/04_slab_spike_bands.py
"""

import csv
import os

import numpy as np

from credlab import credsets as cset
from credlab import seqmodel as sm
from credlab import slabspike as ss

OUT = os.path.join(os.path.dirname(__file__), "output", "slabspike")


def main():
    os.makedirs(OUT, exist_ok=True)
    grid = np.linspace(0.0, 1.0, 513)
    for n in (200.0, 500.0):
        basis = sm.BasisSpec(sm.HAAR_WAVELET, sm.default_wavelet_truncation(n))
        f0 = sm.truncated_laplace_signal(0.5, 5.0, basis)
        obs = sm.observe(f0, n, seed=909)
        fitted = cset.fit(obs, "slabspike")
        draws = fitted.sample(2000, seed=910).draws
        w = sm.WeightSequence.power_law(0.5, basis.max_index)
        ball = cset.build_set(cset.CredibleSetSpec(cset.MULTISCALE_BALL, weights=w), fitted)
        dist = cset.distance_rows(draws, ball.measures, basis)
        keep = ball.membership(dist, cset.calibrate_radius(dist[0], [0.05]))[0]
        vals = sm.evaluate_function(draws, grid, basis)
        ms_lo, ms_hi = vals[keep].min(axis=0), vals[keep].max(axis=0)
        pw_lo, pw_hi = cset.pointwise_band(draws, basis, grid, 0.05)
        mean_vals = sm.evaluate_function(fitted.posterior_mean, grid, basis)
        sup_d = np.max(np.abs(vals - mean_vals), axis=1)
        q = cset.calibrate_radius(sup_d, [0.05])[0]
        truth = sm.TruncatedLaplace(0.5, 5.0).pdf(grid)
        path = os.path.join(OUT, f"bands_n{int(n)}.csv")
        with open(path, "w", newline="") as fh:
            wtr = csv.writer(fh)
            wtr.writerow(["x", "truth", "post_mean", "ms_lo", "ms_hi",
                          "sup_lo", "sup_hi", "pt_lo", "pt_hi"])
            for i, x in enumerate(grid):
                wtr.writerow([x, truth[i], mean_vals[i], ms_lo[i], ms_hi[i],
                              mean_vals[i] - q, mean_vals[i] + q,
                              pw_lo[i], pw_hi[i]])
        peak = np.argmin(np.abs(grid - 0.5))
        inside_pt = pw_lo[peak] <= truth[peak] <= pw_hi[peak]
        inside_ms = ms_lo[peak] <= truth[peak] <= ms_hi[peak]
        print(f"n={int(n):>4}: j0={fitted.post.j0} "
              f"support={fitted.threshold.support.sum():>3}  "
              f"peak inside pointwise band: {inside_pt}, "
              f"inside multiscale envelope: {inside_ms}  -> {path}")

        # oversmoothing contrast: a prior fitting only levels <= 2 produces
        # much tighter pointwise intervals that miss the density at its peak
        over = cset.fit(obs, "slabspike",
                        ss.SlabSpikeConfig(j0_rule=("explicit", 2), tau=60.0))
        odraws = over.sample(2000, seed=911).draws
        o_lo, o_hi = cset.pointwise_band(odraws, basis, grid, 0.05)
        print(f"        oversmoothed pointwise band contains peak: "
              f"{bool(o_lo[peak] <= truth[peak] <= o_hi[peak])} "
              f"(interval [{o_lo[peak]:.2f}, {o_hi[peak]:.2f}], "
              f"truth {truth[peak]:.2f})")


if __name__ == "__main__":
    main()
