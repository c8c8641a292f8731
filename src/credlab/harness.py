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
from dataclasses import dataclass, field, asdict, replace
from functools import partial
from typing import Callable, NamedTuple, Optional

import numpy as np

from . import credsets, dirichlethist, seqmodel, slabspike
from .credsets import CredibleSetSpec, build_set, diameter_estimate
from .seqmodel import BasisSpec, NormSpec, WeightSequence, observe

REPORT_SCHEMA = "credlab-report-v1"

# The config keys of both coverage experiments beyond the flags, kept in ``extras``.
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
# The priors of the Gaussian lane, by kind.
_GAUSSIAN = ("eb", "hb", "fixed")


# ---------------------------------------------------------------------------
# configuration and reports
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Experiment:
    """One experiment, declared once in ``EXPERIMENTS``: its CLI subcommand,
    its runner, its --check gates, its preset config, the prior kinds it runs
    (others are rejected), the config keys kept in ``extras`` (how a value
    parses, its default, its valid range and that range in words), the
    config keys that set an ExperimentConfig field, the fields it never reads
    (setting one is rejected, and the report meta omits them), and a check of
    the whole config that raises ValueError."""

    command: str
    run: Callable
    gates: Callable
    preset: dict
    priors: tuple = (*_GAUSSIAN, "slabspike")
    extras: dict = field(default_factory=dict)
    fields: tuple = ()
    unread: tuple = ()
    validate: Callable = lambda cfg: None


@dataclass
class ExperimentConfig:
    experiment: str
    n_list: tuple = (2000,)
    gamma_list: tuple = (0.05,)
    draws: int = 2000
    reps: int = 20
    seed: int = 20240601
    prior: str = "eb"                      # eb | hb | fixed:<alpha> | slabspike | dirichlet
    signal: str = "power_sine:1.5:1.0"
    weights_eps: float = 0.5               # multiscale weights w_l = l^(1/2+eps)
    tau: float = 1.0                       # slab weights decay like 2^{-j(1+tau)}
    out_dir: Optional[str] = None
    extras: dict = field(default_factory=dict)

    def __post_init__(self):
        exp = EXPERIMENTS.get(self.experiment)
        if exp is None:
            raise ValueError(f"unknown experiment {self.experiment!r}")
        if self.draws < 20 or self.reps < 1 or self.seed < 0:
            raise ValueError("counts must be positive (draws >= 20), the seed nonnegative")
        if not self.gamma_list or not all(0 < g < 1 for g in self.gamma_list):
            raise ValueError("gamma values must lie in (0,1)")
        if not self.n_list and "n_list" not in exp.unread:
            raise ValueError(f"{self.experiment} needs at least one noise level n")
        if not all(1 < n < math.inf for n in self.n_list):
            raise ValueError("noise levels n must exceed 1 and be finite")
        if not (0.5 < self.tau < math.inf and 0 < self.weights_eps < math.inf):
            raise ValueError("tau must be finite and exceed 1/2, weights_eps finite and positive")
        kind, _, alpha = self.prior.partition(":")
        try:
            known = (self.prior in ("eb", "hb", "slabspike", "dirichlet")
                     or kind == "fixed" and 0 <= float(alpha) < math.inf)
        except ValueError:
            known = False
        if not known:
            raise ValueError(f"unknown prior {self.prior!r} "
                             "(eb | hb | slabspike | fixed:<alpha >= 0>)")
        if kind not in exp.priors:
            forms = " | ".join("fixed:<alpha>" if p == "fixed" else p for p in exp.priors)
            raise ValueError(f"{self.experiment} reads only {forms} priors, not {self.prior!r}")
        if "signal" not in exp.unread:
            parse_signal(self.signal)
        unknown = sorted(set(self.extras) - set(exp.extras))
        if unknown:
            keys = [*exp.extras, *exp.fields]
            raise ValueError(f"unknown config keys for {self.experiment}: "
                             f"{', '.join(unknown)} (allowed: {', '.join(keys) or 'none'})")
        self.extras = {key: _parse_key(key, raw, *exp.extras[key])
                       for key, raw in self.extras.items()}
        exp.validate(self)

    @classmethod
    def defaults(cls, experiment: str) -> "ExperimentConfig":
        return cls(experiment=experiment, **EXPERIMENTS[experiment].preset)


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
    return {key: spec[1] for key, spec in EXPERIMENTS[cfg.experiment].extras.items()} | cfg.extras


def _one_gamma(cfg: ExperimentConfig):
    """An experiment that reads one gamma rejects a second."""
    if len(cfg.gamma_list) > 1:
        raise ValueError(f"{cfg.experiment} reads one gamma, not {len(cfg.gamma_list)}")


def _sample_sizes(cfg: ExperimentConfig):
    """The histogram reads one gamma, and each n is a count of iid samples."""
    _one_gamma(cfg)
    fractional = [n for n in cfg.n_list if not float(n).is_integer()]
    if fractional:
        raise ValueError(f"{cfg.experiment} draws n iid samples, so n must be an integer "
                         f">= 2, not {fractional[0]:g}")


def _slope_levels(cfg: ExperimentConfig):
    """The radius scaling fits a log-log slope at one gamma."""
    if len(set(cfg.n_list)) < 2:
        raise ValueError(f"{cfg.experiment} fits a log-log slope and needs at least "
                         "two distinct noise levels n")
    _one_gamma(cfg)


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

def parse_signal(text: str) -> tuple:
    """(name, a, b) of a signal ``power_sine:<a>:<b>`` or
    ``truncated_laplace:<loc>:<scale>``, a and b finite."""
    name, *params = text.split(":")
    try:
        a, b = (float(p) for p in params)
        if name in ("power_sine", "truncated_laplace") and math.isfinite(a) and math.isfinite(b):
            return name, a, b
    except ValueError:
        pass
    raise ValueError(f"unsupported signal {text!r}: the forms are power_sine:<a>:<b> and "
                     "truncated_laplace:<loc>:<scale>, with finite numbers")


def _slab(cfg: ExperimentConfig) -> slabspike.SlabSpikeConfig:
    return slabspike.SlabSpikeConfig(tau=cfg.tau)


class Lane(NamedTuple):
    """What a replication in one prior family's lane reads at one n: the
    truth, on the basis the lane uses; ``observe(seed)``, which draws the
    data; the default coverage set; the norm of the coverage diameters; and
    the joint pair (A, B), where the family has one."""

    truth: seqmodel.SignalCoefficients
    observe: Callable
    coverage: CredibleSetSpec
    diameter_norm: NormSpec
    joint: tuple = ()


def lane(cfg: ExperimentConfig, n) -> Lane:
    """The lane of ``cfg.prior`` at n, the one place a lane is chosen.  The
    Gaussian priors observe the configured signal in the sequence model and
    build the smoothed H(delta) set, paired with the l2 ball; slab-and-spike
    the two-stage band, paired with the sup-norm ball at the efficient
    estimator; the Dirichlet histogram bins iid samples of the truncated
    Laplace density and builds the multiscale ball at the posterior mean.
    ``observe`` is looked up when a lane observes, so a wrapper sees it."""
    kind = cfg.prior.partition(":")[0]
    if kind == "dirichlet":
        L = dirichlethist.default_resolution(int(n))
        basis = dirichlethist.haar_basis_for(L)
        w = WeightSequence.power_law(cfg.weights_eps, basis.max_index)
        return Lane(seqmodel.truncated_laplace_signal(*dirichlethist.TRUTH, basis),
                    lambda seed: dirichlethist.observe_counts(int(n), L, seed),
                    CredibleSetSpec(credsets.MULTISCALE_BALL, credsets.CENTER_POSTERIOR_MEAN, w),
                    NormSpec.sup())
    name, a, b = parse_signal(cfg.signal)
    if name == "power_sine":
        basis = BasisSpec(seqmodel.FOURIER_SINE, seqmodel.default_fourier_truncation(n))
        f0 = seqmodel.power_sine_signal(a, b, basis)
    else:
        basis = BasisSpec(seqmodel.HAAR_WAVELET, seqmodel.default_wavelet_truncation(n))
        f0 = seqmodel.truncated_laplace_signal(a, b, basis)

    def sequence_data(seed):
        return observe(f0, n, seed)

    if kind != "slabspike":
        return Lane(f0, sequence_data, CredibleSetSpec(credsets.H_DELTA_EB), NormSpec.l2(),
                    (CredibleSetSpec(credsets.H_DELTA_EB), CredibleSetSpec(credsets.L2_BALL)))
    w = WeightSequence.power_law(cfg.weights_eps, f0.basis.max_index)
    return Lane(f0, sequence_data, CredibleSetSpec(credsets.MULTISCALE_BAND, weights=w),
                NormSpec.sup(),
                (CredibleSetSpec(credsets.MULTISCALE_BAND, credsets.CENTER_EFFICIENT, w),
                 CredibleSetSpec(credsets.SUP_BALL, credsets.CENTER_EFFICIENT)))


# ---------------------------------------------------------------------------
# coverage
# ---------------------------------------------------------------------------

def run_coverage(cfg: ExperimentConfig, sidecar: Optional[Callable] = None) -> Report:
    """Frequentist coverage of a credible-set variant over replications.

    Per replication: fresh observation, prior fit and one draw batch, on
    which the set is calibrated at every level, then membership of the true
    signal in each.  The diameters read the batch's member draws, so the
    batch is drawn as a matrix, and a set that keeps fewer than two draws
    raises; an experiment without ``diam_reps`` draws none.  The prior's
    ``lane`` gives the truth, the data, the default set and the diameter
    norm.  ``sidecar(n, fitted, draws, inside)``, when given, reads each n's
    replication 0 and the mask of its draws within the first gamma's radius.
    The report's kind is the experiment run (``oversmooth`` and ``dirichlet``
    run this too).
    """
    extras = _extras(cfg)
    variant, diam_reps = extras.get("variant"), extras.get("diam_reps", 0)
    rows = []
    for n in cfg.n_list:
        ln = lane(cfg, n)
        f0 = ln.truth
        spec = replace(ln.coverage, variant=variant) if variant else ln.coverage
        hits = [0] * len(cfg.gamma_list)
        radii, diams = ([[] for _ in cfg.gamma_list] for _ in range(2))
        alphas = []
        for rep in range(cfg.reps):
            s_obs, s_cal = rep_seeds(cfg.seed, rep, 2)
            fitted = credsets.fit(ln.observe(s_obs), cfg.prior, _slab(cfg))
            if fitted.alpha_hat is not None:
                alphas.append(fitted.alpha_hat)
            cset = build_set(spec, fitted)
            draws = fitted.sample(cfg.draws, s_cal).draws
            measured = cset.measures if rep < diam_reps else cset.measures[:1]
            dist = credsets.distance_rows(draws, measured, f0.basis)
            level_radii = credsets.calibrate_radius(dist[0], cfg.gamma_list)
            for i, radius in enumerate(level_radii):
                radii[i].append(radius)
                hits[i] += cset.contains(f0.coeffs, radius).member
            if rep == 0 and sidecar is not None:
                sidecar(n, fitted, draws, dist[0] <= level_radii[0])
            if rep < diam_reps:
                for i, inside in enumerate(cset.membership(dist, level_radii)):
                    if np.count_nonzero(inside) < 2:
                        raise ValueError(f"n={n:g} gamma={cfg.gamma_list[i]} replication {rep}: "
                                         "the set keeps fewer than the two draws a diameter "
                                         "needs; use more draws or a smaller gamma")
                    diams[i].append(diameter_estimate(draws, ln.diameter_norm, f0.basis,
                                                      rows=inside))
        for i, gamma in enumerate(cfg.gamma_list):
            p = hits[i] / cfg.reps
            ci = 1.96 * math.sqrt(p * (1 - p) / cfg.reps)
            rows.append((n, gamma, p, ci, float(np.mean(radii[i])),
                         float(np.mean(diams[i])) if diams[i] else float("nan"),
                         float(np.mean(alphas)) if alphas else float("nan"), cfg.reps))
    return Report(cfg.experiment,
                  ("n", "gamma", "coverage", "ci_half_width", "mean_radius",
                   "mean_diameter", "mean_alpha", "replications"),
                  rows, _meta(cfg))


# ---------------------------------------------------------------------------
# joint credibility: the credibility table and both independence runs
# ---------------------------------------------------------------------------

def _joint_masses(cfg: ExperimentConfig, n: float) -> dict:
    """Per-gamma lists of (cred_A, cred_B, joint) masses, one per replication.

    Both sets of the lane's joint pair are calibrated at every gamma on one
    batch and their memberships counted on a fresh batch of the same size,
    so the order-statistic bias of same-batch evaluation never enters.  Each
    batch is reduced block by block to the distances it feeds
    (``_stream_distances``), so no M x K matrix is held.
    """
    ln = lane(cfg, n)
    masses = {g: [] for g in cfg.gamma_list}
    for rep in range(cfg.reps):
        s_obs, s_cal, s_fresh = rep_seeds(cfg.seed, rep, 3)
        fitted = credsets.fit(ln.observe(s_obs), cfg.prior, _slab(cfg))
        sets = [build_set(spec, fitted) for spec in ln.joint]
        calib, fresh = _side_by_side(_stream_distances, [
            (fitted, cfg.draws, s_cal, [cs.measures[0] for cs in sets]),
            (fitted, cfg.draws, s_fresh, [m for cs in sets for m in cs.measures])])
        per_set = np.split(fresh, np.cumsum([len(cs.measures) for cs in sets])[:-1])
        A, B = (cs.membership(d, credsets.calibrate_radius(r, cfg.gamma_list))
                for cs, r, d in zip(sets, calib, per_set))
        for i, g in enumerate(cfg.gamma_list):
            masses[g].append((float(A[i].mean()), float(B[i].mean()),
                              float((A[i] & B[i]).mean())))
    return masses


def _side_by_side(fn, calls) -> list:
    """``[fn(*args) for args in calls]`` on two threads, in call order.  The
    callers' calls draw from independent generators, and numpy draws and
    reduces arrays without holding the GIL, so the calls run side by side."""
    with ThreadPoolExecutor(max_workers=2) as pool:
        return [f.result() for f in [pool.submit(fn, *args) for args in calls]]


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


def run_joint(cfg: ExperimentConfig) -> Report:
    """Average credibility of sets A and B on fresh draws, their observed
    joint credibility and the independence benchmark (1-gamma)^2, then the
    total variation between the two conditioned posteriors against gamma.
    The credibility table names its columns after the Gaussian-lane sets and
    leaves out the total variation."""
    table = cfg.experiment == "credibility_table"
    rows = []
    for n in cfg.n_list:
        masses = _joint_masses(cfg, n)
        for g in cfg.gamma_list:
            credA, credB, joint = (float(np.mean([m[i] for m in masses[g]])) for i in range(3))
            row = (n, g, credA, credB, joint, credA * credB, (1 - g) ** 2)
            if not table:
                row += (float(np.mean([_tv_from_masses(*m, f"n={n:g} gamma={g} replication {rep}")
                                       for rep, m in enumerate(masses[g])])), g)
            rows.append(row)
    columns = (("credibility_smoothed", "credibility_l2", "joint_credibility",
                "product_of_marginals", "expected_if_independent") if table else
               ("cred_A", "cred_B", "joint", "product", "expected_independent",
                "tv_estimate", "tv_expected"))
    return Report(cfg.experiment, ("n", "gamma", *columns), rows, _meta(cfg))


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


# ---------------------------------------------------------------------------
# radius and diameter scaling
# ---------------------------------------------------------------------------

def loglog_slope(ns, values) -> float:
    return float(np.polyfit(np.log(ns), np.log(values), 1)[0])


def run_radius_scaling(cfg: ExperimentConfig) -> Report:
    """l2 credible radius at fixed alpha and smoothed-set l2 diameter under
    empirical Bayes, against n; slopes estimated by log-log regression.  Two
    coverage runs at its one gamma on the same seeds: the empirical-Bayes
    H(delta) set with a diameter every replication, then the fixed-alpha l2
    ball (in the other order the preset ran about 10% slower on 2 vCPUs)."""
    gamma, = cfg.gamma_list
    eb, fixed = (run_coverage(replace(cfg, experiment="coverage", prior=prior,
                                      extras=extras)).row_dicts()
                 for prior, extras in (("eb", {"diam_reps": cfg.reps}),
                                       (cfg.prior, {"variant": credsets.L2_BALL, "diam_reps": 0})))
    mean_radii = [r["mean_radius"] for r in fixed]
    mean_diams = [r["mean_diameter"] for r in eb]
    alpha = float(cfg.prior.partition(":")[2])
    meta = _meta(cfg) | {"radius_slope": loglog_slope(cfg.n_list, mean_radii),
                         "diameter_slope": loglog_slope(cfg.n_list, mean_diams),
                         "theory_slope": -alpha / (2 * alpha + 1)}
    return Report(cfg.experiment,
                  ("n", "gamma", "mean_l2_radius_fixed_alpha", "mean_l2_diameter_eb"),
                  [(n, gamma, r, d) for n, r, d in zip(cfg.n_list, mean_radii, mean_diams)], meta)


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
    for rep in range(cfg.reps):
        s_obs, s_a, s_b = rep_seeds(cfg.seed, rep, 3)
        obs = observe(f0, n_test, s_obs)
        posts = [slabspike.posterior(obs, slabspike.SlabSpikeConfig(j0_rule, cfg.tau))
                 for j0_rule in (("explicit", 0), ("sqrt_log_n",))]
        full, fitted = _side_by_side(_escaping_mass, [
            (post, obs, w, radius, cfg.draws, seed) for post, seed in zip(posts, (s_a, s_b))])
        rows.append((rep, n_test, test_m, level, Mn, full, fitted, margin))
    meta = _meta(cfg)
    meta["median_mass_full_threshold"] = float(np.median([r[5] for r in rows]))
    meta["median_mass_fitted_zone"] = float(np.median([r[6] for r in rows]))
    meta["selfsim_margin"] = margin
    return Report(cfg.experiment,
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
    """Histogram-prior pipeline: ``run_coverage`` in the Dirichlet lane,
    with its own columns, plus band envelopes for plotting: CSVs (x, lower,
    upper, mean, truth) per n from replication 0's draws, in ``out_dir``
    when set."""
    grid = np.linspace(0.0, 1.0, _extras(cfg)["grid_points"])
    envelopes = partial(_emit_dirichlet_envelopes, cfg, grid) if cfg.out_dir else None
    rows = [(r["n"], dirichlethist.default_resolution(int(r["n"])), r["gamma"], r["coverage"],
             r["ci_half_width"], r["replications"])
            for r in run_coverage(cfg, envelopes).row_dicts()]
    return Report(cfg.experiment,
                  ("n", "L", "gamma", "coverage", "ci_half_width", "replications"),
                  rows, _meta(cfg))


def _emit_dirichlet_envelopes(cfg, grid, n, fitted, coefs, keep):
    """Envelope of the retained draws ``keep``, sup-norm band, mean and truth
    on a plot grid."""
    basis = fitted.obs.basis
    vals = seqmodel.evaluate_function(coefs, grid, basis)
    lo = vals[keep].min(axis=0)
    hi = vals[keep].max(axis=0)
    mean_vals = seqmodel.evaluate_function(fitted.posterior_mean, grid, basis)
    sup_d = np.max(np.abs(vals - mean_vals), axis=1)
    q = credsets.calibrate_radius(sup_d, cfg.gamma_list)[0]
    truth_vals = seqmodel.TruncatedLaplace(*dirichlethist.TRUTH).pdf(grid)
    emit(Report("dirichlet_band", ("x", "lower", "upper", "mean", "truth"),
                list(zip(grid, lo, hi, mean_vals, truth_vals)),
                {"n": int(n), "seed": cfg.seed, "sup_band_halfwidth": q}),
         os.path.join(cfg.out_dir, f"dirichlet_band_n{int(n)}.csv"))


# ---------------------------------------------------------------------------
# meta, --check gates and the experiment table
# ---------------------------------------------------------------------------

def _meta(cfg: ExperimentConfig) -> dict:
    """The config the experiment ran, with the constants of its credible sets."""
    skip = ("out_dir", *EXPERIMENTS[cfg.experiment].unread)
    meta = {k: v for k, v in asdict(cfg).items() if k not in skip}
    meta.update(delta=credsets.DEFAULT_DELTA, vn_power=credsets.VN_POWER,
                K_floor=slabspike.K_FLOOR)
    return meta


def run_experiment(cfg: ExperimentConfig) -> Report:
    return EXPERIMENTS[cfg.experiment].run(cfg)


# The --check gates: each maps a report to (name, ok, detail) triples that
# mirror the statistical acceptance targets of the experiment behind it.

def _coverage_gates(report: Report) -> list:
    """Criterion 4's window at gamma = 0.05; criterion 8's under slab-and-spike."""
    lo, hi = (0.90, 1.0) if report.meta["prior"] == "slabspike" else (0.91, 0.99)
    return [(f"coverage n={r['n']} gamma={r['gamma']}",
             r["gamma"] != 0.05 or lo <= r["coverage"] <= hi,
             f"coverage={r['coverage']:.3f}") for r in report.row_dicts()]


def _oversmoothing_gates(report: Report) -> list:
    return [(f"oversmoothing n={r['n']}", r["coverage"] < 0.2,
             f"coverage={r['coverage']:.3f}") for r in report.row_dicts()]


def _table_gates(report: Report) -> list:
    out = []
    for r in report.row_dicts():
        out.append((f"cred n={r['n']} gamma={r['gamma']}",
                    abs(r["credibility_smoothed"] - (1 - r["gamma"])) <= 0.005,
                    f"cred={r['credibility_smoothed']:.4f}"))
        out.append((f"joint n={r['n']} gamma={r['gamma']}",
                    abs(r["joint_credibility"] - r["expected_if_independent"]) <= 0.015,
                    f"joint={r['joint_credibility']:.4f} "
                    f"expected={r['expected_if_independent']:.4f}"))
    return out


def _tv_gates(report: Report, tol: float) -> list:
    return [(f"tv n={r['n']} gamma={r['gamma']}", abs(r["tv_estimate"] - r["tv_expected"]) <= tol,
             f"tv={r['tv_estimate']:.4f}") for r in report.row_dicts()]


def _negative_bvm_gates(report: Report) -> list:
    """Criterion 9: the escaping masses and the self-similarity margin."""
    full, fit, margin = (report.meta[k] for k in (
        "median_mass_full_threshold", "median_mass_fitted_zone", "selfsim_margin"))
    return [("escape full-threshold > 0.9", full > 0.9, f"mass={full:.3f}"),
            ("escape fitted-zone < 0.5", fit < 0.5, f"mass={fit:.3f}"),
            ("selfsim margin >= 0.9", margin >= 0.9, f"margin={margin:.3f}")]


def _dirichlet_gates(report: Report) -> list:
    return [(f"dirichlet coverage n={r['n']}", r["n"] < 5000 or r["coverage"] >= 0.9,
             f"coverage={r['coverage']:.3f}") for r in report.row_dicts()]


def _scaling_gates(report: Report) -> list:
    slope, theory, dslope = (report.meta[k] for k in (
        "radius_slope", "theory_slope", "diameter_slope"))
    return [("radius slope", abs(slope - theory) <= 0.05,
             f"slope={slope:.4f} theory={theory:.4f}"),
            ("diameter slope", abs(dslope - (-1.0 / 3.0)) <= 0.08, f"slope={dslope:.4f}")]


EXPERIMENTS = {
    "coverage": Experiment(
        "coverage", run_coverage, _coverage_gates,
        dict(n_list=(2000,), gamma_list=(0.05,), draws=1000, reps=200), extras=_COVERAGE_KEYS),
    "credibility_table": Experiment(
        "cred-table", run_joint, _table_gates,
        dict(n_list=(500, 2000), gamma_list=(0.05, 0.10, 0.15, 0.20), draws=2000, reps=20),
        priors=_GAUSSIAN),
    "independence_l2": Experiment(
        "indep-l2", run_joint, partial(_tv_gates, tol=0.02),
        dict(n_list=(2000,), gamma_list=(0.05, 0.20), draws=2000, reps=20), priors=_GAUSSIAN),
    "independence_multiscale": Experiment(
        "indep-ms", run_joint, partial(_tv_gates, tol=0.03),
        dict(n_list=(2000,), gamma_list=(0.05, 0.10), draws=1000, reps=10, prior="slabspike",
             signal="truncated_laplace:0.5:5.0"), priors=("slabspike",)),
    "negative_bvm": Experiment(
        "neg-bvm", run_negative_bvm, _negative_bvm_gates,
        dict(n_list=(), gamma_list=(0.05,), draws=1000, reps=5, signal="holder_spike", tau=4.0),
        extras={"beta": (float, 1.0, *_POSITIVE), "R": (float, 2.0, *_POSITIVE),
                "r": (float, 0.95, *_POSITIVE),
                "test_m": (int, 2, lambda v: 1 <= v <= N_M_LEN, f"in 1..{N_M_LEN}"),
                "subseq_base": (float, 1e4, lambda v: v > 1, "> 1"),
                "subseq_ratio": (float, 10.0, lambda v: v > 1, "> 1")},
        fields=("tau",), unread=("n_list", "gamma_list", "prior", "signal"),
        validate=lambda cfg: _subsequence(_extras(cfg))),
    "dirichlet_demo": Experiment(
        "dirichlet", run_dirichlet_demo, _dirichlet_gates,
        dict(n_list=(1000, 2000, 5000, 10000), gamma_list=(0.05,), draws=2000, reps=100,
             prior="dirichlet", signal="truncated_laplace:0.5:5.0", weights_eps=0.1),
        priors=("dirichlet",), extras={"grid_points": (int, 257, lambda v: v >= 2, ">= 2")},
        fields=("weights_eps",), unread=("prior", "signal"), validate=_sample_sizes),
    "radius_scaling": Experiment(
        "radius-scaling", run_radius_scaling, _scaling_gates,
        dict(n_list=(500, 2000, 8000), gamma_list=(0.05,), draws=2000, reps=10, prior="fixed:1.0"),
        priors=("fixed",), validate=_slope_levels),
    "oversmoothing_demo": Experiment(
        "oversmooth", run_coverage, _oversmoothing_gates,
        dict(n_list=(2000,), gamma_list=(0.05,), draws=1000, reps=200, prior="fixed:3.0"),
        priors=("fixed",), extras=_COVERAGE_KEYS),
}
