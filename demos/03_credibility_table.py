"""Credibility table: how often fresh posterior draws land in the smoothed
H(delta) set, in the l2 ball, and in both at once, from one `indep-l2` run.

Averages 20 repetitions of 2000-draw runs at four significance levels.  The
marginal credibilities match their nominal levels to a few parts in a
thousand.  The joint column sits visibly above the independence benchmark
(1-gamma)^2 at these n: the two geometries share low-frequency coordinates
whose decoupling is a large-n phenomenon (see README, known deviations).
The last two columns are the total variation between the two conditioned
posteriors and gamma, the value it takes when the sets are independent.

Run:  python3 demos/03_credibility_table.py
"""

import os

from credlab import harness as hz

OUT = os.path.join(os.path.dirname(__file__), "output")


def main():
    cfg = hz.ExperimentConfig.defaults("independence_l2")
    cfg.n_list = (500, 2000)
    cfg.gamma_list = (0.05, 0.10, 0.15, 0.20)
    report = hz.run_experiment(cfg)
    path = hz.emit(report, os.path.join(OUT, "credibility_table.csv"))
    header = ("n", "gamma", "cred(smoothed)", "cred(l2)", "joint", "product",
              "(1-g)^2", "tv", "tv(indep)")
    print(("{:>6} " * len(header)).format(*header))
    for r in report.rows:
        print("{:>6} {:>6} {:>6.4f} {:>6.4f} {:>6.4f} {:>6.4f} {:>6.4f} {:>6.4f} {:>6}".format(*r))
    print(f"-> {path}")


if __name__ == "__main__":
    main()
