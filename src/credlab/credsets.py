"""The fitted posterior every credible set is built from, quantile
calibration of credible radii and every credible-set geometry: plain balls
in H(delta), l2, M(w) and sup norms, the smoothness-intersected variants and
the two-stage multiscale band; pointwise bands for comparison.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Optional, Union

import numpy as np

from . import gaussprior, seqmodel, slabspike
from .gaussprior import AlphaPosterior, HyperPosterior
from .seqmodel import (
    BasisSpec,
    NormSpec,
    NoisyObservation,
    WeightSequence,
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

_VARIANTS = (L2_BALL, H_DELTA_BALL, H_DELTA_EB, H_DELTA_HB,
             MULTISCALE_BALL, MULTISCALE_BAND, SUP_BALL)

CENTER_SHIFT = "shift_estimator_Y"
CENTER_POSTERIOR_MEAN = "posterior_mean"
CENTER_EFFICIENT = "efficient_estimator"

DEFAULT_DELTA = 2.1
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
    """Declares geometry variant, significance, and centering rule."""

    variant: str
    gamma: float
    center_rule: str = CENTER_SHIFT
    delta: float = DEFAULT_DELTA
    weights: Optional[WeightSequence] = None
    vn_power: float = 0.25          # v_n = (log n)^vn_power for the band width

    def __post_init__(self):
        if self.variant not in _VARIANTS:
            raise ValueError(f"unknown credible set variant {self.variant!r}")
        if not 0 < self.gamma < 1:
            raise ValueError("gamma must lie in (0,1)")
        if self.variant in (MULTISCALE_BALL, MULTISCALE_BAND) and self.weights is None:
            raise ValueError(f"{self.variant} requires a weight sequence")


@dataclass(frozen=True)
class FittedPosterior:
    """A prior fitted to one observation: the posterior, and what the set
    geometries read besides its draws.

    ``alpha_hat`` is the fitted smoothness: alpha itself for a fixed-alpha
    prior, the likelihood maximizer under empirical Bayes, the hyperposterior
    median under hierarchical Bayes, and None for slab-and-spike.
    ``threshold`` and ``efficient_center`` exist for slab-and-spike only.
    """

    obs: NoisyObservation
    post: Union[AlphaPosterior, HyperPosterior, SlabSpikePosterior]
    posterior_mean: np.ndarray
    alpha_hat: Optional[float] = None
    threshold: Optional[ThresholdEstimate] = None
    efficient_center: Optional[np.ndarray] = None

    def sample(self, M: int, seed: int) -> gaussprior.PosteriorDrawSet:
        if isinstance(self.post, SlabSpikePosterior):
            return slabspike.sample(self.post, M, seed)
        if isinstance(self.post, HyperPosterior):
            return gaussprior.sample_hierarchical(self.post, self.obs, M, seed)
        return gaussprior.sample(self.post, M, seed)


def fit(obs: NoisyObservation, prior: str,
        slab: SlabSpikeConfig = SlabSpikeConfig()) -> FittedPosterior:
    """Fit ``prior`` to ``obs``: eb, hb, fixed:<alpha>, or slabspike with
    the prior layout ``slab``."""
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
class SecondConstraint:
    norm_spec: NormSpec
    center: np.ndarray
    radius: float
    label: str


@dataclass(frozen=True)
class BandConstraint:
    center: np.ndarray       # pi_med(Y) coefficients
    sigma: float
    support: np.ndarray      # boolean mask of selected coefficients


@dataclass(frozen=True)
class MembershipReport:
    member: bool
    binding_constraint: Optional[str]
    distances: dict


@dataclass(frozen=True)
class CalibratedCredibleSet:
    spec: CredibleSetSpec
    basis: BasisSpec
    center: np.ndarray
    radius: float
    primary_norm: NormSpec
    second: Optional[SecondConstraint] = None
    band: Optional[BandConstraint] = None

    # -- membership ---------------------------------------------------------

    def primary_distance(self, f):
        return norm(np.asarray(f) - self.center, self.primary_norm, self.basis)

    def membership(self, draws, radii=None) -> np.ndarray:
        """Vectorized membership for a draw matrix (rows are draws).

        With ``radii`` the result has one row per primary radius, each used
        in place of ``self.radius``: given the radii of the sets one
        ``build_set`` call returns, the rows are their memberships, computed
        from one distance vector per constraint.
        """
        arr = np.atleast_2d(np.asarray(draws, dtype=float))
        d = self.primary_distance(arr)
        ok = d <= self.radius if radii is None else d <= np.asarray(radii)[:, None]
        if self.second is not None:
            d2 = norm(arr - self.second.center, self.second.norm_spec, self.basis)
            ok &= d2 <= self.second.radius
        if self.band is not None:
            dsup = norm(arr - self.band.center, NormSpec.sup(), self.basis)
            ok &= dsup <= self.band.sigma
        return ok if np.ndim(draws) > 1 or radii is not None else bool(ok[0])

    def contains(self, f) -> MembershipReport:
        f = np.asarray(f, dtype=float)
        distances = {}
        d = float(self.primary_distance(f))
        distances["primary"] = d
        if d > self.radius:
            return MembershipReport(False, "primary", distances)
        if self.second is not None:
            d2 = float(norm(f - self.second.center, self.second.norm_spec, self.basis))
            distances[self.second.label] = d2
            if d2 > self.second.radius:
                return MembershipReport(False, self.second.label, distances)
        if self.band is not None:
            dsup = float(norm(f - self.band.center, NormSpec.sup(), self.basis))
            distances["band"] = dsup
            if dsup > self.band.sigma:
                return MembershipReport(False, "band", distances)
        return MembershipReport(True, None, distances)


# ---------------------------------------------------------------------------
# calibration
# ---------------------------------------------------------------------------

def order_statistic_radius(distances, gamma):
    """The ceil((1-gamma) M)-th smallest of M distances (lower empirical
    quantile convention).

    For a sequence of levels ``gamma`` the result is a list of radii, one per
    level, read from one sorted distance vector.
    """
    levels = tuple(gamma) if np.ndim(gamma) else (gamma,)
    if not all(0 < g < 1 for g in levels):
        raise ValueError("gamma must lie in (0,1)")
    d = np.sort(distances)
    radii = [float(d[math.ceil((1.0 - g) * d.size) - 1]) for g in levels]
    return radii if np.ndim(gamma) else radii[0]


def calibrate_radius(draws, center, norm_spec: NormSpec, gamma,
                     basis: Optional[BasisSpec] = None):
    """Radius as the order statistic of the draw-center distances in
    ``norm_spec`` (``order_statistic_radius``), one per level for a
    sequence of levels."""
    arr = np.asarray(draws)
    if arr.shape[0] < 20:
        raise ValueError("need at least 20 draws to calibrate a radius")
    return order_statistic_radius(norm(arr - np.asarray(center), norm_spec, basis), gamma)


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


def build_set(spec: CredibleSetSpec, draws, fitted: FittedPosterior, gammas=None):
    """Assemble the declared geometry from the draw matrix ``draws`` of
    ``fitted`` at level ``spec.gamma``, or with ``gammas`` a list of sets,
    one per level.

    The sets of one call share their center and their smoothness or band
    constraint, none of which depends on gamma; their primary radii come from
    one sorted distance vector.  The primary radius is always calibrated
    before intersecting, so a plain ball and its intersected variant share
    the same primary radius.
    """
    obs = fitted.obs
    basis = obs.basis
    n = obs.n
    logn = math.log(n)
    levels = tuple(gammas) if gammas is not None else (spec.gamma,)

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

    def calibrated(center, pnorm, **constraints):
        specs = [replace(spec, gamma=g) for g in levels]
        radii = calibrate_radius(draws, center, pnorm, levels, basis)
        sets = [CalibratedCredibleSet(s, basis, center, r, pnorm, **constraints)
                for s, r in zip(specs, radii)]
        return sets if gammas is not None else sets[0]

    variant = spec.variant
    if variant == L2_BALL:
        center = center_for(spec.center_rule if spec.center_rule != CENTER_SHIFT
                            else CENTER_POSTERIOR_MEAN)
        return calibrated(center, NormSpec.l2())

    if variant in (H_DELTA_BALL, H_DELTA_EB, H_DELTA_HB):
        center = center_for(spec.center_rule)
        second = None
        if variant == H_DELTA_EB:
            if fitted.alpha_hat is None:
                raise ValueError("HDeltaIntersectEB needs alpha_hat, which a "
                                 "slab-and-spike fit does not have")
            eps_n = min(SMOOTH_EPS_NUM / logn, fitted.alpha_hat / 2.0)
            second = SecondConstraint(
                NormSpec.sobolev_log(fitted.alpha_hat - eps_n, 0.0),
                fitted.posterior_mean, SMOOTH_C * math.sqrt(logn), "smoothness")
        elif variant == H_DELTA_HB:
            if not isinstance(fitted.post, HyperPosterior):
                raise ValueError("HDeltaIntersectHB needs a hierarchical Bayes fit")
            beta_hat = fitted.alpha_hat - (HB_SHIFT_C + 1.0) / logn
            second = SecondConstraint(NormSpec.sobolev_log(beta_hat, 0.0),
                                      fitted.posterior_mean,
                                      math.log(logn) * math.sqrt(logn), "smoothness")
        return calibrated(center, NormSpec.h_delta(spec.delta), second=second)

    if variant == MULTISCALE_BALL:
        return calibrated(center_for(spec.center_rule), NormSpec.multiscale(spec.weights))

    if variant == MULTISCALE_BAND:
        if fitted.threshold is None:
            raise ValueError("MultiscaleBand needs the posterior-median threshold")
        est = fitted.threshold
        pi_med = np.where(est.support, obs.y, 0.0)
        jn = int(math.floor(math.log2(n)))
        vn = logn ** spec.vn_power
        sigma = sigma_band_width(est.support, basis, n, vn, j_cap=jn)
        return calibrated(center_for(spec.center_rule), NormSpec.multiscale(spec.weights),
                          band=BandConstraint(pi_med, sigma, est.support))

    if variant == SUP_BALL:
        return calibrated(center_for(spec.center_rule), NormSpec.sup())

    raise ValueError(f"unhandled variant {variant!r}")


def diameter_estimate(cs: CalibratedCredibleSet, draws, norm_spec: NormSpec,
                      max_members: int = 500, seed: int = 0) -> float:
    """Maximum pairwise distance among member draws (a lower bound on the set
    diameter), subsampled for the quadratic scan."""
    arr = np.asarray(draws)
    members = arr[cs.membership(arr)]
    if members.shape[0] < 2:
        raise ValueError("need at least two member draws")
    if norm_spec.kind in ("multiscale", "sup"):
        max_members = min(max_members, 200)
    if members.shape[0] > max_members:
        rng = np.random.default_rng(seed)
        members = members[rng.choice(members.shape[0], max_members, replace=False)]

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

    # max-type norms: transform once so pairwise distances are plain max-abs
    if norm_spec.kind == "sup":
        feats = haar_cell_values(members, cs.basis)
    else:
        feats = members / norm_spec.weights.per_position(cs.basis)
    best = 0.0
    for i in range(feats.shape[0] - 1):
        best = max(best, float(np.max(np.abs(feats[i + 1:] - feats[i]))))
    return best
