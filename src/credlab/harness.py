"""Replicated experiments and report emission.

Every experiment is a pure function of (config, master seed): replication r
derives its own seed stream from SeedSequence([master, r]), so permuting the
replication order cannot change any per-replication result, and identical
configs produce byte-identical report files.
"""

from __future__ import annotations

import csv
import json
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, asdict
from typing import Optional

import numpy as np

from . import credsets, dirichlethist, seqmodel, slabspike
from .credsets import CredibleSetSpec, build_set, diameter_estimate
from .seqmodel import BasisSpec, NormSpec, WeightSequence, observe

REPORT_SCHEMA = "credlab-report-v1"

EXPERIMENTS = ("coverage", "credibility_table", "independence_l2",
               "independence_multiscale", "negative_bvm", "dirichlet_demo",
               "radius_scaling", "oversmoothing_demo")

# The config keys beyond the flags that each experiment reads, kept in
# ``extras``: how a value parses, its default, its valid range and that range
# in words.  Any other key is rejected.
_COVERAGE_KEYS = {
    "variant": (str, None, credsets.VARIANTS.__contains__, "a credible-set variant"),
    "diam_reps": (int, 10, lambda v: v >= 0, ">= 0"),
}
_POSITIVE = (lambda v: v > 0, "> 0")
# Length of the negative-BvM sample-size sequence n_m; test_m indexes it.
N_M_LEN = 24
# Largest tested sample size n_test = n_{test_m}, ten times the preset's 1e5;
# the Haar basis at n_test has between n_test and 2 n_test coefficients.
N_TEST_MAX = 1e6
EXTRAS = {
    "coverage": _COVERAGE_KEYS,
    "oversmoothing_demo": _COVERAGE_KEYS,
    "negative_bvm": {"beta": (float, 1.0, *_POSITIVE), "R": (float, 2.0, *_POSITIVE),
                     "r": (float, 0.95, *_POSITIVE),
                     "test_m": (int, 2, lambda v: 1 <= v <= N_M_LEN, f"in 1..{N_M_LEN}"),
                     "subseq_base": (float, 1e4, lambda v: v > 1, "> 1"),
                     "subseq_ratio": (float, 10.0, lambda v: v > 1, "> 1")},
    "dirichlet_demo": {"grid_points": (int, 257, lambda v: v >= 2, ">= 2")},
}

# The config keys that set an ExperimentConfig field, for the one experiment
# that reads it.
FIELD_KEYS = {"negative_bvm": ("tau",), "dirichlet_demo": ("weights_eps",)}

# The fields an experiment never reads; setting the flag or config key of
# one is rejected, and the report meta omits them.
UNREAD_FIELDS = {
    "negative_bvm": ("n_list", "gamma_list", "prior", "signal"),
    "dirichlet_demo": ("prior", "signal"),
}


# ---------------------------------------------------------------------------
# configuration and reports
# ---------------------------------------------------------------------------

@dataclass
class ExperimentConfig:
    experiment: str
    n_list: tuple = (2000,)
    gamma_list: tuple = (0.05,)
    draws: int = 2000
    reps: int = 20
    seed: int = 20240601
    prior: str = "eb"                      # eb | hb | fixed:<alpha> | slabspike
    signal: str = "power_sine:1.5:1.0"
    weights_eps: float = 0.5               # multiscale weights w_l = l^(1/2+eps)
    tau: float = 1.0                       # slab weights decay like 2^{-j(1+tau)}
    out_dir: Optional[str] = None
    extras: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.experiment not in EXPERIMENTS:
            raise ValueError(f"unknown experiment {self.experiment!r}")
        if self.draws < 20 or self.reps < 1 or self.seed < 0:
            raise ValueError("counts must be positive (draws >= 20), the seed nonnegative")
        if not self.gamma_list or not all(0 < g < 1 for g in self.gamma_list):
            raise ValueError("gamma values must lie in (0,1)")
        if not self.n_list and self.experiment != "negative_bvm":
            raise ValueError(f"{self.experiment} needs at least one noise level n")
        if not all(1 < n < math.inf for n in self.n_list):
            raise ValueError("noise levels n must exceed 1 and be finite")
        if self.experiment == "radius_scaling" and len(set(self.n_list)) < 2:
            raise ValueError("radius_scaling fits a log-log slope and needs at least "
                             "two distinct noise levels n")
        if not (0.5 < self.tau < math.inf and 0 < self.weights_eps < math.inf):
            raise ValueError("tau must be finite and exceed 1/2, weights_eps finite and positive")
        kind, _, alpha = self.prior.partition(":")
        try:
            known = (self.prior in ("eb", "hb", "slabspike")
                     or kind == "fixed" and 0 <= float(alpha) < math.inf)
        except ValueError:
            known = False
        if not known:
            raise ValueError(f"unknown prior {self.prior!r} "
                             "(eb | hb | slabspike | fixed:<alpha >= 0>)")
        if self.experiment in ("radius_scaling", "oversmoothing_demo") and kind != "fixed":
            raise ValueError(f"{self.experiment} reads only fixed:<alpha> priors, "
                             f"not {self.prior!r}")
        allowed = EXTRAS.get(self.experiment, {})
        unknown = sorted(set(self.extras) - set(allowed))
        if unknown:
            keys = [*allowed, *FIELD_KEYS.get(self.experiment, ())]
            raise ValueError(f"unknown config keys for {self.experiment}: "
                             f"{', '.join(unknown)} (allowed: {', '.join(keys) or 'none'})")
        self.extras = {key: _parse_key(key, raw, *allowed[key])
                       for key, raw in self.extras.items()}
        if self.experiment == "negative_bvm":
            _subsequence(_extras(self))

    @classmethod
    def defaults(cls, experiment: str) -> "ExperimentConfig":
        presets = {
            "coverage": dict(n_list=(2000,), gamma_list=(0.05,), draws=1000, reps=200),
            "oversmoothing_demo": dict(n_list=(2000,), gamma_list=(0.05,), draws=1000,
                                       reps=200, prior="fixed:3.0"),
            "credibility_table": dict(n_list=(500, 2000),
                                      gamma_list=(0.05, 0.10, 0.15, 0.20),
                                      draws=2000, reps=20),
            "independence_l2": dict(n_list=(2000,), gamma_list=(0.05, 0.20),
                                    draws=2000, reps=20),
            "independence_multiscale": dict(n_list=(2000,), gamma_list=(0.05, 0.10),
                                            draws=1000, reps=10,
                                            prior="slabspike",
                                            signal="truncated_laplace:0.5:5.0"),
            "negative_bvm": dict(n_list=(), gamma_list=(0.05,), draws=1000, reps=5,
                                 signal="holder_spike", tau=4.0),
            "dirichlet_demo": dict(n_list=(1000, 2000, 5000, 10000),
                                   gamma_list=(0.05,), draws=2000, reps=100,
                                   signal="truncated_laplace:0.5:5.0", weights_eps=0.1),
            "radius_scaling": dict(n_list=(500, 2000, 8000), gamma_list=(0.05,),
                                   draws=2000, reps=10, prior="fixed:1.0"),
        }
        return cls(experiment=experiment, **presets[experiment])


def _parse_key(key, raw, parse, _default, valid, rule):
    """A config value of ``key`` parsed and checked against its range."""
    try:
        value = parse(raw)
    except (TypeError, ValueError):
        raise ValueError(f"cannot parse {key} = {raw!r}") from None
    if isinstance(value, float) and not math.isfinite(value) or not valid(value):
        raise ValueError(f"{key} = {raw!r} is out of range: must be {rule}")
    return value


def _subsequence(ex: dict):
    """The negative-BvM sample sizes n_m = subseq_base * subseq_ratio^(m-1),
    m = 1..N_M_LEN, and the tested one n_test = n_{test_m}.  Raises when a
    size overflows or n_test exceeds N_TEST_MAX."""
    with np.errstate(over="ignore"):
        n_m = ex["subseq_base"] * ex["subseq_ratio"] ** np.arange(0, N_M_LEN)
    if not np.all(np.isfinite(n_m)):
        raise ValueError(f"subseq_base * subseq_ratio^{N_M_LEN - 1} overflows: "
                         f"the sample sizes n_m, m = 1..{N_M_LEN}, must be finite")
    n_test = float(n_m[ex["test_m"] - 1])
    if n_test > N_TEST_MAX:
        raise ValueError(f"n_test = subseq_base * subseq_ratio^(test_m - 1) = {n_test:g} "
                         f"exceeds {N_TEST_MAX:g}")
    return n_m, n_test


def _extras(cfg: ExperimentConfig) -> dict:
    """Every extras key the experiment reads: the value set, else the default."""
    return {key: spec[1] for key, spec in EXTRAS.get(cfg.experiment, {}).items()} | cfg.extras


@dataclass
class Report:
    """Tabular experiment output; ``meta`` is stamped into every emitted file."""

    kind: str
    columns: tuple
    rows: list
    meta: dict

    def row_dicts(self):
        return [dict(zip(self.columns, r)) for r in self.rows]


def rep_seeds(master: int, rep: int, count: int):
    """Deterministic per-replication seed stream, order-permutation safe."""
    return [int(s) for s in np.random.SeedSequence([int(master), int(rep)]).generate_state(count)]


def emit(report: Report, path: str) -> str:
    """Write a versioned, seed-stamped CSV report: one ``# {meta}`` line, the
    header, then the rows.  Identical config + seed give byte-identical
    files.  Returns the path written."""
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    meta = dict(report.meta)
    meta["schema"] = REPORT_SCHEMA
    meta["kind"] = report.kind
    with open(path, "w", newline="") as fh:
        fh.write("# " + json.dumps(meta, sort_keys=True) + "\n")
        w = csv.writer(fh)
        w.writerow(report.columns)
        for r in report.rows:
            w.writerow([_csvify(v) for v in r])
    return path


def parse_report(path: str) -> Report:
    """Round-trip reader for emitted reports."""
    with open(path) as fh:
        meta = json.loads(fh.readline().lstrip("# "))
        rows = list(csv.reader(fh))
    columns = tuple(rows[0])
    parsed = [tuple(_uncsvify(v) for v in r) for r in rows[1:]]
    return Report(meta["kind"], columns, parsed, meta)


def _csvify(v):
    if isinstance(v, (float, np.floating)):
        return repr(float(v))
    return v


def _uncsvify(v: str):
    try:
        return int(v)
    except ValueError:
        pass
    try:
        return float(v)
    except ValueError:
        return v


# ---------------------------------------------------------------------------
# shared fitting helpers
# ---------------------------------------------------------------------------

def make_signal(cfg: ExperimentConfig, n: float):
    """Instantiate the configured signal at the default truncation for n."""
    parts = cfg.signal.split(":")
    name = parts[0]
    if name == "power_sine":
        basis = BasisSpec(seqmodel.FOURIER_SINE, seqmodel.default_fourier_truncation(n))
        return seqmodel.power_sine_signal(float(parts[1]), float(parts[2]), basis)
    if name == "truncated_laplace":
        basis = BasisSpec(seqmodel.HAAR_WAVELET, seqmodel.default_wavelet_truncation(n))
        return seqmodel.truncated_laplace_signal(float(parts[1]), float(parts[2]), basis)
    raise ValueError(f"unsupported signal {cfg.signal!r} for this experiment")


def _slab(cfg: ExperimentConfig) -> slabspike.SlabSpikeConfig:
    return slabspike.SlabSpikeConfig(tau=cfg.tau)


# ---------------------------------------------------------------------------
# coverage
# ---------------------------------------------------------------------------

def run_coverage(cfg: ExperimentConfig) -> Report:
    """Frequentist coverage of a credible-set variant over replications.

    Per replication: fresh observation, prior fit and one draw batch, on
    which the set is calibrated at every level, then membership of the true
    signal in each.  The diameters read the batch's member draws, so the
    batch is drawn as a matrix.  Gaussian-lane variants default to the
    smoothness-intersected H(delta) set; the slab-spike prior builds the
    two-stage multiscale band.
    """
    extras = _extras(cfg)
    variant, diam_reps = extras["variant"], extras["diam_reps"]
    band = cfg.prior == "slabspike"
    dn = NormSpec.sup() if band else NormSpec.l2()
    rows = []
    for n in cfg.n_list:
        f0 = make_signal(cfg, n)
        if band:
            w = WeightSequence.power_law(cfg.weights_eps, f0.basis.max_index)
            spec = CredibleSetSpec(variant or credsets.MULTISCALE_BAND, weights=w)
        else:
            spec = CredibleSetSpec(variant or credsets.H_DELTA_EB)
        levels = range(len(cfg.gamma_list))
        hits = [0 for _ in levels]
        radii, diams = [[] for _ in levels], [[] for _ in levels]
        alphas = []
        for rep in range(cfg.reps):
            s_obs, s_cal = rep_seeds(cfg.seed, rep, 2)
            obs = observe(f0, n, s_obs)
            fitted = credsets.fit(obs, cfg.prior, _slab(cfg))
            if not band:
                alphas.append(fitted.alpha_hat)
            cset = build_set(spec, fitted)
            draws = fitted.sample(cfg.draws, s_cal).draws
            measured = cset.measures if rep < diam_reps else cset.measures[:1]
            dist = credsets.distance_rows(draws, measured, f0.basis)
            level_radii = credsets.calibrate_radius(dist[0], cfg.gamma_list)
            for i, radius in enumerate(level_radii):
                radii[i].append(radius)
                hits[i] += cset.contains(f0.coeffs, radius).member
            if rep < diam_reps:
                for i, inside in enumerate(cset.membership(dist, level_radii)):
                    try:
                        diams[i].append(diameter_estimate(draws, dn, f0.basis, rows=inside))
                    except ValueError:   # fewer than two member draws
                        pass
        for i, gamma in enumerate(cfg.gamma_list):
            p = hits[i] / cfg.reps
            ci = 1.96 * math.sqrt(p * (1 - p) / cfg.reps)
            rows.append((n, gamma, p, ci, float(np.mean(radii[i])),
                         float(np.mean(diams[i])) if diams[i] else float("nan"),
                         float(np.mean(alphas)) if alphas else float("nan"), cfg.reps))
    return Report("coverage",
                  ("n", "gamma", "coverage", "ci_half_width", "mean_radius",
                   "mean_diameter", "mean_alpha", "replications"),
                  rows, _meta(cfg))


def run_oversmoothing_demo(cfg: ExperimentConfig) -> Report:
    """Coverage collapse under a deliberately too-smooth fixed prior."""
    rep = run_coverage(cfg)
    rep.kind = "oversmoothing_demo"
    return rep


# ---------------------------------------------------------------------------
# credibility table and l2 independence
# ---------------------------------------------------------------------------

def _l2_sets(cfg: ExperimentConfig, obs):
    """Gaussian lane: the smoothed H(delta) set (A) and the l2 ball (B)."""
    return credsets.fit(obs, cfg.prior, _slab(cfg)), (
        CredibleSetSpec(credsets.H_DELTA_EB), CredibleSetSpec(credsets.L2_BALL))


def _band_sets(cfg: ExperimentConfig, obs):
    """Slab-and-spike lane: the two-stage band (A) against the sup-norm ball
    (B), both centered at the efficient estimator."""
    w = WeightSequence.power_law(cfg.weights_eps, obs.basis.max_index)
    return credsets.fit(obs, "slabspike", _slab(cfg)), (
        CredibleSetSpec(credsets.MULTISCALE_BAND, weights=w,
                        center_rule=credsets.CENTER_EFFICIENT),
        CredibleSetSpec(credsets.SUP_BALL, center_rule=credsets.CENTER_EFFICIENT))


def _joint_masses(cfg: ExperimentConfig, n: float, fit) -> dict:
    """Per-gamma lists of (cred_A, cred_B, joint) masses, one per replication.

    ``fit(cfg, obs)`` returns (fitted posterior, (spec_A, spec_B)).  Both
    sets are calibrated at every gamma on one batch and their memberships
    counted on a fresh batch of the same size, so the order-statistic bias of
    same-batch evaluation never enters.  Each batch is reduced block by block
    to the distances it feeds (``_stream_distances``), so no M x K matrix is
    held.
    """
    f0 = make_signal(cfg, n)
    masses = {g: [] for g in cfg.gamma_list}
    # The two batches draw from independent generators, and numpy draws and
    # reduces a block without holding the GIL, so they run side by side.
    with ThreadPoolExecutor(max_workers=2) as pool:
        for rep in range(cfg.reps):
            s_obs, s_cal, s_fresh = rep_seeds(cfg.seed, rep, 3)
            obs = observe(f0, n, s_obs)
            fitted, specs = fit(cfg, obs)
            sets = [build_set(spec, fitted) for spec in specs]
            batches = ((s_cal, [cs.measures[0] for cs in sets]),
                       (s_fresh, [m for cs in sets for m in cs.measures]))
            futures = [pool.submit(_stream_distances, fitted, cfg.draws, seed, measures)
                       for seed, measures in batches]
            calib, fresh = (f.result() for f in futures)
            per_set = np.split(fresh, np.cumsum([len(cs.measures) for cs in sets])[:-1])
            A, B = (cs.membership(d, credsets.calibrate_radius(r, cfg.gamma_list))
                    for cs, r, d in zip(sets, calib, per_set))
            for i, g in enumerate(cfg.gamma_list):
                masses[g].append((float(A[i].mean()), float(B[i].mean()),
                                  float((A[i] & B[i]).mean())))
    return masses


def _stream_distances(fitted, M: int, seed: int, measures) -> np.ndarray:
    """One distance row per (norm, center) pair of ``measures`` for the M
    draws ``fitted.sample(M, seed)`` returns, each block of draws reduced by
    ``credsets.distance_rows`` and dropped."""
    out = np.empty((len(measures), M))
    start = 0
    for block in fitted.blocks(M, seed):
        out[:, start:start + len(block)] = credsets.distance_rows(block, measures,
                                                                  fitted.obs.basis)
        start += len(block)
    return out


def _joint_row(n, gamma, masses) -> tuple:
    credA, credB, joint = (float(np.mean([m[i] for m in masses])) for i in range(3))
    return (n, gamma, credA, credB, joint, credA * credB, (1 - gamma) ** 2)


def run_credibility_table(cfg: ExperimentConfig) -> Report:
    """Average credibility of the smoothed set, the observed joint credibility
    with the l2 ball, and the independence benchmark (1-gamma)^2."""
    rows = []
    for n in cfg.n_list:
        masses = _joint_masses(cfg, n, _l2_sets)
        rows += [_joint_row(n, g, masses[g]) for g in cfg.gamma_list]
    return Report("credibility_table",
                  ("n", "gamma", "credibility_smoothed", "credibility_l2",
                   "joint_credibility", "product_of_marginals", "expected_if_independent"),
                  rows, _meta(cfg))


def _tv_from_masses(pa: float, pb: float, pab: float, where: str) -> float:
    """Total variation between the two conditioned posteriors from the exact
    decomposition (1/2)[P(A\\B)/P(A) + P(B\\A)/P(B)]; undefined when a fresh
    batch has no member of A or of B, which ``where`` then names."""
    empty = [name for name, p in (("A", pa), ("B", pb)) if p == 0.0]
    if empty:
        raise ValueError(f"{where}: no fresh draw lies in set {' or '.join(empty)}, "
                         "so the total variation is undefined; use more draws "
                         "or a smaller gamma")
    return 0.5 * ((pa - pab) / pa + (pb - pab) / pb)


def _independence_report(cfg: ExperimentConfig, kind: str, fit) -> Report:
    rows = []
    for n in cfg.n_list:
        masses = _joint_masses(cfg, n, fit)
        for g in cfg.gamma_list:
            tv = float(np.mean([_tv_from_masses(*m, f"n={n:g} gamma={g} replication {rep}")
                                for rep, m in enumerate(masses[g])]))
            rows.append(_joint_row(n, g, masses[g]) + (tv, g))
    return Report(kind,
                  ("n", "gamma", "cred_A", "cred_B", "joint", "product",
                   "expected_independent", "tv_estimate", "tv_expected"),
                  rows, _meta(cfg))


def run_independence_l2(cfg: ExperimentConfig) -> Report:
    return _independence_report(cfg, "independence_l2", _l2_sets)


def run_independence_multiscale(cfg: ExperimentConfig) -> Report:
    """Same pipeline under the slab-spike posterior."""
    return _independence_report(cfg, "independence_multiscale", _band_sets)


# ---------------------------------------------------------------------------
# radius and diameter scaling
# ---------------------------------------------------------------------------

def loglog_slope(ns, values) -> float:
    x = np.log(np.asarray(ns, dtype=float))
    y = np.log(np.asarray(values, dtype=float))
    return float(np.polyfit(x, y, 1)[0])


def run_radius_scaling(cfg: ExperimentConfig) -> Report:
    """l2 credible radius at fixed alpha and smoothed-set l2 diameter under
    empirical Bayes, against n; slopes estimated by log-log regression."""
    gamma = cfg.gamma_list[0]
    rows = []
    mean_radii, mean_diams = [], []
    for n in cfg.n_list:
        f0 = make_signal(cfg, n)
        radii, diams = [], []
        for rep in range(cfg.reps):
            s_obs, s_cal = rep_seeds(cfg.seed, rep, 2)
            obs = observe(f0, n, s_obs)
            fixed_fit = credsets.fit(obs, cfg.prior)
            ball = build_set(CredibleSetSpec(credsets.L2_BALL), fixed_fit)
            dist = credsets.distance_rows(fixed_fit.sample(cfg.draws, s_cal).draws,
                                          ball.measures, f0.basis)
            radii += credsets.calibrate_radius(dist[0], [gamma])
            eb_fit = credsets.fit(obs, "eb")
            eb_set = build_set(CredibleSetSpec(credsets.H_DELTA_EB), eb_fit)
            eb_draws = eb_fit.sample(cfg.draws, s_cal).draws
            dist = credsets.distance_rows(eb_draws, eb_set.measures, f0.basis)
            inside = eb_set.membership(dist, credsets.calibrate_radius(dist[0], [gamma]))[0]
            diams.append(diameter_estimate(eb_draws, NormSpec.l2(), rows=inside))
        mean_radii.append(float(np.mean(radii)))
        mean_diams.append(float(np.mean(diams)))
        rows.append((n, gamma, mean_radii[-1], mean_diams[-1]))
    slope_r = loglog_slope(cfg.n_list, mean_radii)
    slope_d = loglog_slope(cfg.n_list, mean_diams)
    meta = _meta(cfg)
    meta["radius_slope"] = slope_r
    meta["diameter_slope"] = slope_d
    alpha = fixed_fit.alpha_hat
    meta["theory_slope"] = -alpha / (2 * alpha + 1)
    return Report("radius_scaling",
                  ("n", "gamma", "mean_l2_radius_fixed_alpha", "mean_l2_diameter_eb"),
                  rows, meta)


# ---------------------------------------------------------------------------
# negative BvM contrast
# ---------------------------------------------------------------------------

def run_negative_bvm(cfg: ExperimentConfig) -> Report:
    """Escaping posterior mass with and without the fitted low-frequency zone.

    The counterexample signal puts r sqrt(log n_m / n_m) at flattened wavelet
    position m along an increasing sequence (n_m) and reserves the last index
    of each level for the Hoelder envelope.  At the tested position m the
    experiment measures the posterior mass outside the multiscale ball of
    radius M_n/sqrt(n) around the observation, M_n = sqrt(log n_m)/(2 w_l),
    under full thresholding and under the sqrt(log n) fitted zone.
    """
    ex = _extras(cfg)
    beta, test_m = ex["beta"], ex["test_m"]
    n_m, n_test = _subsequence(ex)
    j_max = max(int(math.floor(math.log2(n_test))), seqmodel.default_wavelet_truncation(n_test) - 3)
    basis = BasisSpec(seqmodel.HAAR_WAVELET, j_max)
    f0 = seqmodel.holder_spike_signal(beta, ex["R"], ex["r"], n_m, basis)
    level = int(math.floor(math.log2(test_m)))
    w = WeightSequence.power_law(cfg.weights_eps, j_max)
    wl = float(w.values[level])
    Mn = math.sqrt(math.log(n_test)) / (2.0 * wl)
    radius = Mn / math.sqrt(n_test)
    margin = seqmodel.sup_selfsim_margin(f0, beta, 1, min(j_max, 8))

    rows = []
    # The two priors draw from independent generators, and numpy fills random
    # arrays without holding the GIL, so their escaping masses run side by
    # side.  Everything else, the posteriors included, stays on this thread.
    with ThreadPoolExecutor(max_workers=2) as pool:
        for rep in range(cfg.reps):
            s_obs, s_a, s_b = rep_seeds(cfg.seed, rep, 3)
            obs = observe(f0, n_test, s_obs)
            posts = [slabspike.posterior(obs, slabspike.SlabSpikeConfig(j0_rule, cfg.tau))
                     for j0_rule in (("explicit", 0), ("sqrt_log_n",))]
            futures = [pool.submit(_escaping_mass, post, obs, w, radius, cfg.draws, seed)
                       for post, seed in zip(posts, (s_a, s_b))]
            full, fitted = (f.result() for f in futures)
            rows.append((rep, n_test, test_m, level, Mn, full, fitted, margin))
    meta = _meta(cfg)
    meta["median_mass_full_threshold"] = float(np.median([r[5] for r in rows]))
    meta["median_mass_fitted_zone"] = float(np.median([r[6] for r in rows]))
    meta["selfsim_margin"] = margin
    return Report("negative_bvm",
                  ("rep", "n", "test_position", "test_level", "Mn",
                   "escaping_mass_full_threshold", "escaping_mass_fitted_zone",
                   "selfsim_margin"),
                  rows, meta)


def _escaping_mass(post, obs, w: WeightSequence, radius: float, M: int,
                   seed: int) -> float:
    """Fraction of posterior draws with M(w)-distance to the observation
    at least ``radius``.

    A coordinate left to the spike is 0 in the draw, so its distance
    |0 - y_k| / w_k is fixed: a draw escapes when it leaves unpicked some
    coordinate whose fixed distance reaches the radius, or when one of its
    slab entries does.  Only the slab entries are ever materialised.
    """
    wvec = w.per_position(obs.basis)
    far_at_zero = np.abs(0.0 - obs.y) / wvec >= radius
    rows, cols, values = slabspike.slab_picks(post, np.random.default_rng(seed), M)
    escape = np.bincount(rows[far_at_zero[cols]], minlength=M) < int(far_at_zero.sum())
    escape[rows[np.abs(values - obs.y[cols]) / wvec[cols] >= radius]] = True
    return int(escape.sum()) / M


# ---------------------------------------------------------------------------
# Dirichlet histogram demo
# ---------------------------------------------------------------------------

def run_dirichlet_demo(cfg: ExperimentConfig) -> Report:
    """Histogram-prior pipeline: multiscale credible set coverage of the
    truncated Laplace truth plus band envelopes for plotting.

    Envelope CSVs (x, lower, upper, mean, truth) per n land in ``out_dir``
    when set; the returned report carries the coverage summary.
    """
    grid = np.linspace(0.0, 1.0, _extras(cfg)["grid_points"])
    gamma = cfg.gamma_list[0]
    rows = []
    for n in cfg.n_list:
        L = dirichlethist.default_resolution(int(n))
        basis = dirichlethist.haar_basis_for(L)
        ms = NormSpec.multiscale(WeightSequence.power_law(cfg.weights_eps, basis.max_index))
        truth = seqmodel.truncated_laplace_signal(0.5, 5.0, basis)
        covered = 0
        env_done = False
        for rep in range(cfg.reps):
            s_data, s_draws = rep_seeds(cfg.seed, rep, 2)
            samples = dirichlethist.sample_iid_laplace(int(n), s_data)
            counts = dirichlethist.bin_counts(samples, L)
            dpost = dirichlethist.posterior(counts)
            heights = dirichlethist.sample_heights(dpost, cfg.draws, s_draws)
            coefs = dirichlethist.haar_coefficients(heights, L)
            mean_coefs = dirichlethist.haar_coefficients(dpost.mean_heights(), L)
            dist = seqmodel.norm(coefs, ms, basis, center=mean_coefs)
            radius = credsets.calibrate_radius(dist, [gamma])[0]
            covered += float(seqmodel.norm(truth.coeffs, ms, basis, center=mean_coefs)) <= radius
            if not env_done and cfg.out_dir:
                _emit_dirichlet_envelopes(cfg, n, grid, basis, coefs, mean_coefs,
                                          dist <= radius, gamma)
                env_done = True
        p = covered / cfg.reps
        ci = 1.96 * math.sqrt(p * (1 - p) / cfg.reps)
        rows.append((n, L, gamma, p, ci, cfg.reps))
    return Report("dirichlet_demo",
                  ("n", "L", "gamma", "coverage", "ci_half_width", "replications"),
                  rows, _meta(cfg))


def _emit_dirichlet_envelopes(cfg, n, grid, basis, coefs, mean_coefs, keep, gamma):
    """Envelope of the retained draws ``keep``, sup-norm band, mean and truth
    on a plot grid."""
    vals = seqmodel.evaluate_function(coefs, grid, basis)
    lo = vals[keep].min(axis=0)
    hi = vals[keep].max(axis=0)
    mean_vals = seqmodel.evaluate_function(mean_coefs, grid, basis)
    sup_d = np.max(np.abs(vals - mean_vals), axis=1)
    q = credsets.calibrate_radius(sup_d, [gamma])[0]
    truth_vals = seqmodel.TruncatedLaplace(0.5, 5.0).pdf(grid)
    emit(Report("dirichlet_band", ("x", "lower", "upper", "mean", "truth"),
                list(zip(grid, lo, hi, mean_vals, truth_vals)),
                {"n": int(n), "seed": cfg.seed, "sup_band_halfwidth": q}),
         os.path.join(cfg.out_dir, f"dirichlet_band_n{int(n)}.csv"))


# ---------------------------------------------------------------------------
# registry, meta, checks
# ---------------------------------------------------------------------------

def _meta(cfg: ExperimentConfig) -> dict:
    """The config the experiment ran, with the constants of its credible sets."""
    skip = ("out_dir", *UNREAD_FIELDS.get(cfg.experiment, ()))
    meta = {k: v for k, v in asdict(cfg).items() if k not in skip}
    meta.update(delta=credsets.DEFAULT_DELTA, vn_power=credsets.VN_POWER,
                K_floor=slabspike.K_FLOOR)
    return meta


RUNNERS: dict = {
    "coverage": run_coverage,
    "oversmoothing_demo": run_oversmoothing_demo,
    "credibility_table": run_credibility_table,
    "independence_l2": run_independence_l2,
    "independence_multiscale": run_independence_multiscale,
    "negative_bvm": run_negative_bvm,
    "dirichlet_demo": run_dirichlet_demo,
    "radius_scaling": run_radius_scaling,
}


def run_experiment(cfg: ExperimentConfig) -> Report:
    return RUNNERS[cfg.experiment](cfg)


def check_report(report: Report) -> list:
    """Per-experiment headline thresholds for the CLI --check flag.

    Returns (name, ok, detail) triples; these mirror the statistical
    acceptance targets that apply to the experiment that produced the report.
    """
    out = []
    rows = report.row_dicts()
    if report.kind == "coverage":
        for r in rows:
            ok = 0.91 <= r["coverage"] <= 0.99 if r["gamma"] == 0.05 else True
            out.append((f"coverage n={r['n']} gamma={r['gamma']}", ok,
                        f"coverage={r['coverage']:.3f}"))
    elif report.kind == "oversmoothing_demo":
        for r in rows:
            out.append((f"oversmoothing n={r['n']}", r["coverage"] < 0.2,
                        f"coverage={r['coverage']:.3f}"))
    elif report.kind == "credibility_table":
        for r in rows:
            okA = abs(r["credibility_smoothed"] - (1 - r["gamma"])) <= 0.005
            okJ = abs(r["joint_credibility"] - r["expected_if_independent"]) <= 0.015
            out.append((f"cred n={r['n']} gamma={r['gamma']}", okA,
                        f"cred={r['credibility_smoothed']:.4f}"))
            out.append((f"joint n={r['n']} gamma={r['gamma']}", okJ,
                        f"joint={r['joint_credibility']:.4f} "
                        f"expected={r['expected_if_independent']:.4f}"))
    elif report.kind in ("independence_l2", "independence_multiscale"):
        tol = 0.02 if report.kind == "independence_l2" else 0.03
        for r in rows:
            out.append((f"tv n={r['n']} gamma={r['gamma']}",
                        abs(r["tv_estimate"] - r["tv_expected"]) <= tol,
                        f"tv={r['tv_estimate']:.4f}"))
    elif report.kind == "negative_bvm":
        m_full = report.meta["median_mass_full_threshold"]
        m_fit = report.meta["median_mass_fitted_zone"]
        out.append(("escape full-threshold > 0.9", m_full > 0.9, f"mass={m_full:.3f}"))
        out.append(("escape fitted-zone < 0.5", m_fit < 0.5, f"mass={m_fit:.3f}"))
    elif report.kind == "dirichlet_demo":
        for r in rows:
            ok = r["coverage"] >= 0.9 if r["n"] >= 5000 else True
            out.append((f"dirichlet coverage n={r['n']}", ok,
                        f"coverage={r['coverage']:.3f}"))
    elif report.kind == "radius_scaling":
        slope = report.meta["radius_slope"]
        theory = report.meta["theory_slope"]
        out.append(("radius slope", abs(slope - theory) <= 0.05,
                    f"slope={slope:.4f} theory={theory:.4f}"))
        dslope = report.meta["diameter_slope"]
        out.append(("diameter slope", abs(dslope - (-1.0 / 3.0)) <= 0.08,
                    f"slope={dslope:.4f}"))
    return out
