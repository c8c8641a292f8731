"""The fitted posterior every credible set is built from, every
credible-set geometry (plain balls in H(delta), l2, M(w) and sup norms, the
smoothness-intersected variants and the two-stage multiscale band), quantile
calibration of credible radii from draw distances and membership decided
from them; pointwise bands for comparison.

A geometry reads only the fit.  Its radius reads only the primary distances
of a calibration batch, and membership, of the draws and the truth alike,
reads only distances, so a batch of draws is needed only through the
distances of the geometry's measures.
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
# diameter_estimate subsamples this many members (fewer for the max-type
# norms, whose scan the subsample defines rather than bounds) with this seed.
DIAMETER_MEMBERS = 500
DIAMETER_MAX_TYPE_MEMBERS = 200
DIAMETER_SEED = 0


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

    def blocks(self, M: int, seed: int, step: Optional[int] = None):
        """M draws in consecutive blocks of ``step`` rows, by default
        ``seqmodel.block_rows`` of the draw width; only one block is held,
        and every height stacks to the same matrix bit for bit.  A draw is K
        wide, K the basis size, but a slab-and-spike draw holds only its
        2^(Jn+1) support columns (``seqmodel.norm`` reads it as zero-padded)."""
        if M < 1:
            raise ValueError("need at least one draw")
        if isinstance(self.post, SlabSpikePosterior):
            return slabspike.sample(self.post, M, seed, step)
        if isinstance(self.post, HyperPosterior):
            return gaussprior.hierarchical_blocks(self.post, self.obs, M, seed, step)
        rng = np.random.default_rng(seed)
        step = step or block_rows(self.obs.basis.size)
        if isinstance(self.post, DirichletPosterior):
            L = self.obs.basis.max_index + 1
            return (dirichlethist.haar_coefficients(
                dirichlethist.sample_heights(self.post, min(step, M - start), rng), L)
                for start in range(0, M, step))
        return (gaussprior.sample(self.post, min(step, M - start), rng).draws
                for start in range(0, M, step))

    def sample(self, M: int, seed: int) -> np.ndarray:
        """The M draws of ``blocks`` as one M-row block."""
        return next(self.blocks(M, seed, M))


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
        t1 = slabspike.efficient_estimator(obs, est, post)
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
        """Membership from distance rows, one per measure in ``measures``
        order (``distance_rows`` gives them for draws or for one array such as
        the truth).  Row l of the result is membership in the set of primary
        radius ``radii[l]``."""
        ok = distances[0] <= np.asarray(radii)[:, None]
        if self.constraint is not None:
            ok &= distances[1] <= self.constraint.bound
        return ok


def distance_rows(draws, measures, basis: BasisSpec) -> list:
    """The distance row of ``draws``, a draw matrix or one array, for each
    (norm, center) pair of ``measures``: one ``norm`` call per pair."""
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


def sigma_band_width(support: np.ndarray, basis: BasisSpec, n: float, vn: float) -> float:
    """Data-driven band width: vn sqrt(log n / n) times the sup over x of the
    sum of |psi_lk(x)| over the selected coefficients.

    Exact for Haar: |psi_lk| is 2^{l/2} on the whole of its interval, so
    the sum is constant on the dyadic cells of the finest level.  The cells
    are built level by level: each cell adds its level's term and hands the
    sum to both its halves.  Empty support gives zero.
    """
    if not np.any(support):
        return 0.0
    cells = np.array([float(support[0])])  # scaling function is constant 1
    for l in range(basis.max_index + 1):
        cells = np.repeat(cells + 2.0 ** (l / 2.0) * support[2 ** l: 2 ** (l + 1)], 2)
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
        vn = logn ** VN_POWER
        sigma = sigma_band_width(est.support, basis, n, vn)
        return geometry(center_for(spec.center_rule), NormSpec.multiscale(spec.weights),
                        Constraint("band", NormSpec.sup(), pi_med, sigma))

    if variant == SUP_BALL:
        return geometry(center_for(spec.center_rule), NormSpec.sup())

    raise ValueError(f"unhandled variant {variant!r}")


def diameter_estimate(draws, norm_spec: NormSpec, basis: Optional[BasisSpec] = None,
                      rows=None) -> float:
    """Maximum pairwise distance among the member draws ``draws[rows]``
    (every row when ``rows`` is None), a lower bound on the set diameter,
    over a subsample of DIAMETER_MEMBERS members (DIAMETER_MAX_TYPE_MEMBERS
    for the max-type norms) drawn with DIAMETER_SEED.  Only the subsampled
    rows are gathered.  ``basis`` is required for the multiscale norm.

    The l2 and Sobolev scans form a Gram matrix, quadratic in the members.
    The max-type scan is linear, so there the subsample bounds no cost but
    defines the estimator: after a per-row transform a pairwise distance is
    max_k |a_ik - a_jk|, and rounded subtraction is monotone in each
    argument and odd, so the largest rounded difference in a column is
    exactly fl(column max - column min).  As in ``seqmodel.norm``, a column
    zero in every member adds nothing, so members narrower than the basis
    read as zero-padded, and the sup scan synthesises the cells of the first
    ``seqmodel.haar_width(members)`` columns only.
    """
    draws = np.asarray(draws)
    idx = np.arange(draws.shape[0])
    if rows is not None:
        idx = idx[rows]
    if idx.size < 2:
        raise ValueError("need at least two member draws")
    max_members = (DIAMETER_MAX_TYPE_MEMBERS if norm_spec.kind in ("multiscale", "sup")
                   else DIAMETER_MEMBERS)
    if idx.size > max_members:
        idx = idx[np.random.default_rng(DIAMETER_SEED).choice(idx.size, max_members,
                                                              replace=False)]
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
        feats = haar_cell_values(members[:, :seqmodel.haar_width(members)])
    else:
        feats = members / norm_spec.weights.per_position(basis)[:members.shape[1]]
    return float(np.max(feats.max(axis=0) - feats.min(axis=0)))
