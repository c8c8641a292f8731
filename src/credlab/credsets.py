"""The fitted posterior every credible set is built from, every
credible-set geometry (plain balls in H(delta), l2, M(w) and sup norms, the
smoothness-intersected variants and the two-stage multiscale band), quantile
calibration of credible radii from draw distances and membership decided
from them; pointwise bands for comparison.

A geometry reads only the fit.  Its radius reads only the primary distances
of a calibration batch, and membership reads only distances, so a batch of
draws is needed only through the distances of the geometry's measures.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from . import dirichlethist, gaussprior, seqmodel, slabspike
from .dirichlethist import DirichletPosterior
from .gaussprior import AlphaPosterior, HyperPosterior
from .seqmodel import (
    BasisSpec,
    NormSpec,
    NoisyObservation,
    WeightSequence,
    block_rows,
    haar_cell_values,
    norm,
    wavelet_levels,
)
from .slabspike import SlabSpikeConfig, SlabSpikePosterior, ThresholdEstimate

L2_BALL = "L2Ball"
H_DELTA_BALL = "HDeltaBall"
H_DELTA_EB = "HDeltaIntersectEB"
H_DELTA_HB = "HDeltaIntersectHB"
MULTISCALE_BALL = "MultiscaleBall"
MULTISCALE_BAND = "MultiscaleBand"
SUP_BALL = "SupBall"

VARIANTS = (L2_BALL, H_DELTA_BALL, H_DELTA_EB, H_DELTA_HB,
            MULTISCALE_BALL, MULTISCALE_BAND, SUP_BALL)

CENTER_SHIFT = "shift_estimator_Y"
CENTER_POSTERIOR_MEAN = "posterior_mean"
CENTER_EFFICIENT = "efficient_estimator"

# The delta of the H(delta) norm every H(delta) set is measured in.
DEFAULT_DELTA = 2.1
# The band width of the two-stage multiscale set is v_n = (log n)^VN_POWER.
VN_POWER = 0.25
# Undersmoothing eps_n = SMOOTH_EPS_NUM / log n with radius constant SMOOTH_C.
# The theory requires SMOOTH_C > 1/SMOOTH_EPS_NUM; 1 > 1/4 holds with margin,
# and eps_n = 4/log n keeps the data-driven exponent below the true
# smoothness against the upward spread of the likelihood maximizer.
SMOOTH_C = 1.0
SMOOTH_EPS_NUM = 4.0
# The HB constraint uses beta_hat = (hyperposterior median) - (HB_SHIFT_C + 1)/log n
# with radius M_n sqrt(log n), M_n = log log n.
HB_SHIFT_C = 1.0


@dataclass(frozen=True)
class CredibleSetSpec:
    """Declares geometry variant and centering rule."""

    variant: str
    center_rule: str = CENTER_SHIFT
    weights: Optional[WeightSequence] = None

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ValueError(f"unknown credible set variant {self.variant!r}")
        if self.variant in (MULTISCALE_BALL, MULTISCALE_BAND) and self.weights is None:
            raise ValueError(f"{self.variant} requires a weight sequence")


@dataclass(frozen=True)
class FittedPosterior:
    """A prior fitted to one observation: the posterior, and what the set
    geometries read besides its draws.

    ``alpha_hat`` is the fitted smoothness: alpha itself for a fixed-alpha
    prior, the likelihood maximizer under empirical Bayes, the hyperposterior
    median under hierarchical Bayes, and None for slab-and-spike and the
    Dirichlet histogram, which fit none.  ``threshold`` and
    ``efficient_center`` exist for slab-and-spike only.
    """

    obs: NoisyObservation
    post: Union[AlphaPosterior, HyperPosterior, SlabSpikePosterior, DirichletPosterior]
    posterior_mean: np.ndarray
    alpha_hat: Optional[float] = None
    threshold: Optional[ThresholdEstimate] = None
    efficient_center: Optional[np.ndarray] = None

    def sample(self, M: int, seed) -> gaussprior.PosteriorDrawSet:
        """M draws as an M x K matrix, K the basis size; a slab-and-spike
        matrix holds only its 2^(Jn+1) support columns, the zeros past
        them left out, which ``seqmodel.norm`` reads as zero-padded.  Under
        a fixed alpha and for the histogram, ``seed`` may be a Generator."""
        if isinstance(self.post, SlabSpikePosterior):
            return slabspike.sample(self.post, M, seed)
        if isinstance(self.post, HyperPosterior):
            return gaussprior.sample_hierarchical(self.post, self.obs, M, seed)
        if isinstance(self.post, DirichletPosterior):
            heights = dirichlethist.sample_heights(self.post, M, seed)
            return gaussprior.PosteriorDrawSet(
                dirichlethist.haar_coefficients(heights, self.obs.basis.max_index + 1))
        return gaussprior.sample(self.post, M, seed)

    def blocks(self, M: int, seed: int):
        """The rows of ``sample(M, seed)``, bit for bit and as wide, as
        consecutive blocks of ``seqmodel.block_rows`` rows of that width;
        only one block is held."""
        if isinstance(self.post, SlabSpikePosterior):
            return slabspike.sample_blocks(self.post, M, seed)
        if isinstance(self.post, HyperPosterior):
            return gaussprior.hierarchical_blocks(self.post, self.obs, M, seed)
        rng = np.random.default_rng(seed)
        step = block_rows(self.obs.basis.size)
        return (self.sample(min(step, M - start), rng).draws for start in range(0, M, step))


def fit(obs: NoisyObservation, prior: str,
        slab: SlabSpikeConfig = SlabSpikeConfig()) -> FittedPosterior:
    """Fit ``prior`` to ``obs``: eb, hb, fixed:<alpha>, slabspike with the
    prior layout ``slab``, or dirichlet to the bin counts ``obs.y``."""
    if prior == "dirichlet":
        post = dirichlethist.posterior(obs.y)
        L = obs.basis.max_index + 1
        return FittedPosterior(obs, post, dirichlethist.haar_coefficients(post.mean_heights(), L))
    if prior == "slabspike":
        post = slabspike.posterior(obs, slab)
        est = slabspike.posterior_median(post)
        t1 = slabspike.efficient_estimator(obs, est, post, 1)
        return FittedPosterior(obs, post, post.slab_weight * post.slab_mean,
                               threshold=est, efficient_center=t1)
    if prior == "hb":
        hp = gaussprior.hierarchical_marginal(obs)
        return FittedPosterior(obs, hp, gaussprior.hierarchical_posterior_mean(hp, obs),
                               alpha_hat=gaussprior.hierarchical_median(hp))
    kind, _, alpha = prior.partition(":")
    if prior == "eb":
        alpha = gaussprior.empirical_bayes_alpha(obs).alpha_hat
    elif kind == "fixed":
        alpha = float(alpha)
    else:
        raise ValueError(f"unknown prior {prior!r}")
    post = gaussprior.posterior(obs, alpha)
    return FittedPosterior(obs, post, post.means, alpha_hat=alpha)


@dataclass(frozen=True)
class Constraint:
    """A bound on the distance from ``center`` in ``norm_spec``, beside the
    primary ball: the smoothness constraint or the band."""

    label: str
    norm_spec: NormSpec
    center: np.ndarray
    bound: float


@dataclass(frozen=True)
class MembershipReport:
    member: bool
    binding_constraint: Optional[str]
    distances: dict


@dataclass(frozen=True)
class CalibratedCredibleSet:
    """The geometry of a credible set: its center, primary norm and
    smoothness or band constraint, all read from the fit.  The primary
    radius is not part of it: ``calibrate_radius`` reads it from a
    calibration batch's primary distances, so one geometry serves every
    level."""

    basis: BasisSpec
    center: np.ndarray
    primary_norm: NormSpec
    constraint: Optional[Constraint] = None

    @property
    def measures(self) -> list:
        """The (norm, center) pairs whose distances decide membership,
        primary first."""
        out = [(self.primary_norm, self.center)]
        if self.constraint is not None:
            out.append((self.constraint.norm_spec, self.constraint.center))
        return out

    def membership(self, distances, radii) -> np.ndarray:
        """Membership of draws from their distance rows, one per measure in
        ``measures`` order (``distance_rows`` gives them for a draw matrix).
        Row l of the result is membership in the set of primary radius
        ``radii[l]``."""
        ok = distances[0] <= np.asarray(radii)[:, None]
        if self.constraint is not None:
            ok &= distances[1] <= self.constraint.bound
        return ok

    def contains(self, f, radius: float) -> MembershipReport:
        """Membership of one coefficient array in the set of primary radius
        ``radius``, with its distances up to the first bound it breaks."""
        f = np.asarray(f, dtype=float)
        bounds = [("primary", radius)]
        if self.constraint is not None:
            bounds.append((self.constraint.label, self.constraint.bound))
        distances = {}
        for (spec, center), (label, bound) in zip(self.measures, bounds):
            distances[label] = float(norm(f, spec, self.basis, center=center))
            if distances[label] > bound:
                return MembershipReport(False, label, distances)
        return MembershipReport(True, None, distances)


def distance_rows(draws, measures, basis: BasisSpec) -> list:
    """The distance row of the draw matrix ``draws`` for each (norm, center)
    pair of ``measures``: one ``norm`` call per pair."""
    return [norm(draws, spec, basis, center=center) for spec, center in measures]


# ---------------------------------------------------------------------------
# calibration
# ---------------------------------------------------------------------------

def calibrate_radius(distances, gammas) -> list:
    """The radius of each level in ``gammas``: the ceil((1-gamma) M)-th
    smallest of the M draw distances (lower empirical quantile convention),
    every level read from one sorted copy."""
    d = np.sort(distances)
    if d.size < 20:
        raise ValueError("need at least 20 draws to calibrate a radius")
    if not all(0 < g < 1 for g in gammas):
        raise ValueError("gamma must lie in (0,1)")
    return [float(d[math.ceil((1.0 - g) * d.size) - 1]) for g in gammas]


def sigma_band_width(support: np.ndarray, basis: BasisSpec, n: float, vn: float,
                     j_cap: Optional[int] = None) -> float:
    """Data-driven band width: vn sqrt(log n / n) times the sup over x of the
    sum of |psi_lk(x)| over the selected coefficients (levels <= j_cap).

    Exact for Haar: |psi| is constant on dyadic cells one level finer, so the
    sup over cell midpoints is the true sup.  Empty support gives zero.
    """
    lev = wavelet_levels(basis)
    if j_cap is not None:
        support = support & (lev <= j_cap)
    if not np.any(support):
        return 0.0
    G = basis.max_index + 1
    cells = np.zeros(2 ** G)
    if support[0]:
        cells += 1.0  # scaling function is constant 1
    for l in range(basis.max_index + 1):
        sel = support[2 ** l: 2 ** (l + 1)]
        if np.any(sel):
            width = 2 ** (G - l)
            cells += np.repeat(sel.astype(float) * 2.0 ** (l / 2.0), width)
    return float(vn * math.sqrt(math.log(n) / n) * np.max(cells))


def pointwise_band(draws, basis: BasisSpec, grid, gamma: float):
    """Per-point empirical (gamma/2, 1-gamma/2) quantiles of draw curves."""
    vals = seqmodel.evaluate_function(draws, np.asarray(grid, dtype=float), basis)
    lo = np.quantile(vals, gamma / 2.0, axis=0)
    hi = np.quantile(vals, 1.0 - gamma / 2.0, axis=0)
    return lo, hi


def build_set(spec: CredibleSetSpec, fitted: FittedPosterior) -> CalibratedCredibleSet:
    """The declared geometry for ``fitted``.

    The primary radius is calibrated apart from the constraint, so a plain
    ball and its intersected variant share the same primary radius.
    """
    obs = fitted.obs
    basis = obs.basis
    n = obs.n
    logn = math.log(n)

    def center_for(rule):
        if rule == CENTER_SHIFT:
            return obs.y
        if rule == CENTER_POSTERIOR_MEAN:
            return fitted.posterior_mean
        if rule == CENTER_EFFICIENT:
            if fitted.efficient_center is None:
                raise ValueError("the efficient center needs a slab-and-spike fit")
            return fitted.efficient_center
        raise ValueError(f"unknown center rule {rule!r}")

    def geometry(center, pnorm, constraint=None):
        return CalibratedCredibleSet(basis, center, pnorm, constraint)

    variant = spec.variant
    if variant == L2_BALL:
        center = center_for(spec.center_rule if spec.center_rule != CENTER_SHIFT
                            else CENTER_POSTERIOR_MEAN)
        return geometry(center, NormSpec.l2())

    if variant in (H_DELTA_BALL, H_DELTA_EB, H_DELTA_HB):
        center = center_for(spec.center_rule)
        smooth = None
        if variant == H_DELTA_EB:
            if fitted.alpha_hat is None:
                raise ValueError("HDeltaIntersectEB needs alpha_hat, which a "
                                 "slab-and-spike fit does not have")
            eps_n = min(SMOOTH_EPS_NUM / logn, fitted.alpha_hat / 2.0)
            smooth = Constraint("smoothness",
                                NormSpec.sobolev_log(fitted.alpha_hat - eps_n, 0.0),
                                fitted.posterior_mean, SMOOTH_C * math.sqrt(logn))
        elif variant == H_DELTA_HB:
            if not isinstance(fitted.post, HyperPosterior):
                raise ValueError("HDeltaIntersectHB needs a hierarchical Bayes fit")
            beta_hat = fitted.alpha_hat - (HB_SHIFT_C + 1.0) / logn
            smooth = Constraint("smoothness", NormSpec.sobolev_log(beta_hat, 0.0),
                                fitted.posterior_mean, math.log(logn) * math.sqrt(logn))
        return geometry(center, NormSpec.h_delta(DEFAULT_DELTA), smooth)

    if variant == MULTISCALE_BALL:
        return geometry(center_for(spec.center_rule), NormSpec.multiscale(spec.weights))

    if variant == MULTISCALE_BAND:
        if fitted.threshold is None:
            raise ValueError("MultiscaleBand needs the posterior-median threshold")
        est = fitted.threshold
        pi_med = np.where(est.support, obs.y, 0.0)
        jn = int(math.floor(math.log2(n)))
        vn = logn ** VN_POWER
        sigma = sigma_band_width(est.support, basis, n, vn, j_cap=jn)
        return geometry(center_for(spec.center_rule), NormSpec.multiscale(spec.weights),
                        Constraint("band", NormSpec.sup(), pi_med, sigma))

    if variant == SUP_BALL:
        return geometry(center_for(spec.center_rule), NormSpec.sup())

    raise ValueError(f"unhandled variant {variant!r}")


def diameter_estimate(draws, norm_spec: NormSpec, basis: Optional[BasisSpec] = None,
                      rows=None, max_members: int = 500, seed: int = 0) -> float:
    """Maximum pairwise distance among the member draws ``draws[rows]``
    (every row when ``rows`` is None), a lower bound on the set diameter,
    over a subsample of ``max_members`` members (200 for the max-type norms)
    drawn with ``seed``.  Only the subsampled rows are gathered.  ``basis``
    is required for the max-type norms, which read draws narrower than it as
    zero-padded.

    The l2 and Sobolev scans form a Gram matrix, quadratic in the members.
    The max-type scan is linear, so there the subsample bounds no cost but
    defines the estimator: after a per-row transform a pairwise distance is
    max_k |a_ik - a_jk|, and rounded subtraction is monotone in each
    argument and odd, so the largest rounded difference in a column is
    exactly fl(column max - column min).
    """
    draws = np.asarray(draws)
    idx = np.arange(draws.shape[0])
    if rows is not None:
        idx = idx[rows]
    if idx.size < 2:
        raise ValueError("need at least two member draws")
    if norm_spec.kind in ("multiscale", "sup"):
        max_members = min(max_members, 200)
    if idx.size > max_members:
        idx = idx[np.random.default_rng(seed).choice(idx.size, max_members, replace=False)]
    members = draws[idx]

    if norm_spec.kind in ("l2", "sobolev_log"):
        if norm_spec.kind == "l2":
            w = np.ones(members.shape[1])
        else:
            w = seqmodel.sobolev_log_weights(members.shape[1], norm_spec.s, norm_spec.delta)
        U = members * np.sqrt(w)
        sq = (U * U).sum(axis=1)
        G = U @ U.T
        d2 = sq[:, None] + sq[None, :] - 2.0 * G
        return float(math.sqrt(max(d2.max(), 0.0)))

    if norm_spec.kind == "sup":
        feats = haar_cell_values(members)
    else:
        feats = members / norm_spec.weights.per_position(basis)[:members.shape[1]]
    return float(np.max(feats.max(axis=0) - feats.min(axis=0)))
