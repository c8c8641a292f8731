"""Shrinkage rates of credible radii and diameters.

At fixed prior smoothness alpha = 1 the l2 credible radius contracts like
n^{-alpha/(2 alpha + 1)} = n^{-1/3}; the l2 diameter of the smoothed
empirical-Bayes set tracks the same adaptive rate at beta = 1.  This script
runs n in {500, 2000, 8000} and reports the fitted log-log slopes next to
the theoretical -1/3.

Run:  python3 demos/06_radius_scaling.py
"""

import os

from credlab import harness as hz

OUT = os.path.join(os.path.dirname(__file__), "output")


def main():
    cfg = hz.ExperimentConfig.defaults("radius_scaling")
    report = hz.run_radius_scaling(cfg)
    path = hz.emit(report, os.path.join(OUT, "radius_scaling.csv"))
    for r in report.row_dicts():
        print(f"n={r['n']:>5}: radius={r['mean_l2_radius_fixed_alpha']:.4f}  "
              f"diameter={r['mean_l2_diameter_eb']:.4f}")
    print(f"radius slope   {report.meta['radius_slope']:+.4f}   (theory -1/3)")
    print(f"diameter slope {report.meta['diameter_slope']:+.4f}   (theory -1/3)")
    print(f"-> {path}")


if __name__ == "__main__":
    main()
