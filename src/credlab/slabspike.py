"""Slab-and-spike wavelet prior with a fitted low-frequency zone.

Levels l <= j0(n) draw every coefficient from a standard normal slab; middle
levels j0(n) < l <= Jn draw from (1 - w_{l,n}) delta_0 + w_{l,n} N(0,1);
levels above Jn = floor(log2 n) are zero.  The posterior factorizes over
coordinates, so sampling is exact (no MCMC) and the coordinate-wise posterior
median is a thresholding rule with closed-form Gaussian-CDF algebra.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
import numpy as np
from scipy.special import ndtr, ndtri

from .seqmodel import BasisSpec, NoisyObservation, block_rows, wavelet_levels
from .gaussprior import PosteriorDrawSet


# Exponent of the n^{-K} floor on the mixture weights.
K_FLOOR = 5.0


@dataclass(frozen=True)
class SlabSpikeConfig:
    """Prior layout: fitted-zone rule, mixture-weight decay, truncation.

    j0_rule is ("sqrt_log_n",) for j0 = ceil(sqrt(log n)) or
    ("explicit", level).  The mixture weight at level j is
    max(n^{-K_FLOOR}, 2^{-j(1+tau)}) clipped at 1/2, so the n^{-K_FLOOR}
    floor takes over past level K_FLOOR log2(n) / (1 + tau).
    """

    j0_rule: tuple = ("sqrt_log_n",)
    tau: float = 1.0

    def __post_init__(self):
        if self.tau <= 0.5:
            raise ValueError("tau must exceed 1/2")

    def j0(self, n: float) -> int:
        kind = self.j0_rule[0]
        if kind == "sqrt_log_n":
            return max(1, math.ceil(math.sqrt(math.log(n))))
        if kind == "explicit":
            return int(self.j0_rule[1])
        raise ValueError(f"unknown j0 rule {kind!r}")

    def jn(self, n: float) -> int:
        return int(math.floor(math.log2(n)))

    def mixture_weight(self, j, n: float):
        return np.minimum(0.5, np.maximum(n ** (-K_FLOOR),
                                          2.0 ** (-np.asarray(j, dtype=float) * (1.0 + self.tau))))


def coordinate_posterior(y, n: float, w):
    """Posterior of one mixture coordinate with standard-normal slab.

    Returns (slab_weight, slab_mean, slab_var): the slab component is
    N(n y/(n+1), 1/(n+1)) and the posterior slab probability is
    w m1(y) / (w m1(y) + (1-w) m0(y)) with m1 = N(0, 1 + 1/n) and
    m0 = N(0, 1/n) densities, combined in log space.
    """
    y = np.asarray(y, dtype=float)
    w = np.asarray(w, dtype=float)
    if np.any((w < 0) | (w > 1)):
        raise ValueError("mixture weight must lie in [0,1]")
    slab_mean = n * y / (n + 1.0)
    slab_var = 1.0 / (n + 1.0)
    v1 = 1.0 + 1.0 / n
    v0 = 1.0 / n
    log_m1 = -0.5 * (np.log(2 * np.pi * v1) + y * y / v1)
    log_m0 = -0.5 * (np.log(2 * np.pi * v0) + y * y / v0)
    with np.errstate(divide="ignore"):
        logit = np.log(w) - np.log1p(-w) + log_m1 - log_m0
    slab_weight = np.where(w >= 1.0, 1.0,
                           np.where(w <= 0.0, 0.0, 1.0 / (1.0 + np.exp(-logit))))
    return slab_weight, slab_mean, np.broadcast_to(slab_var, y.shape).copy()


@dataclass(frozen=True)
class SlabSpikePosterior:
    """Factorized posterior over the flattened Haar grid up to Jn.

    ``slab_weight`` is 1 on the fitted zone (levels <= j0, scaling included),
    the mixture value on (j0, Jn], and 0 above Jn.
    """

    config: SlabSpikeConfig
    basis: BasisSpec
    n: float
    slab_weight: np.ndarray
    slab_mean: np.ndarray
    slab_var: np.ndarray
    levels: np.ndarray

    @property
    def j0(self) -> int:
        return self.config.j0(self.n)

    @property
    def jn(self) -> int:
        return self.config.jn(self.n)


def posterior(obs: NoisyObservation, config: SlabSpikeConfig) -> SlabSpikePosterior:
    """Coordinate-wise posterior; requires the basis to resolve level Jn."""
    if not obs.basis.is_wavelet:
        raise ValueError("slab-and-spike prior lives on the Haar basis")
    jn = config.jn(obs.n)
    if obs.basis.max_index < jn:
        raise ValueError(f"basis resolution {obs.basis.max_index} below Jn = {jn}")
    j0 = config.j0(obs.n)
    if j0 >= jn:
        raise ValueError("fitted zone j0 must stay below Jn")
    lev = wavelet_levels(obs.basis)
    w = np.zeros(obs.basis.size)
    fitted = lev <= j0  # includes the scaling coefficient at lev = -1
    middle = (lev > j0) & (lev <= jn)
    w[fitted] = 1.0
    w[middle] = config.mixture_weight(lev[middle], obs.n)
    sw, sm, sv = coordinate_posterior(obs.y, obs.n, w)
    sw[lev > jn] = 0.0
    sm[lev > jn] = 0.0
    return SlabSpikePosterior(config, obs.basis, obs.n, sw, sm, sv, lev)


BLOCK_VALUES = 1 << 16   # uniforms per fill of the slab_picks buffer


def slab_picks(post: SlabSpikePosterior, rng: np.random.Generator, M: int):
    """Slab entries of M factorized draws as (rows, cols, values); every
    other entry of the M x K draw matrix is the spike, exactly 0.

    Entry (i, k) comes from the slab when its uniform falls below
    slab_weight[k], and then equals slab_mean[k] + sd[k] * z with its normal
    z.  Only levels <= Jn, the first 2^(Jn+1) positions, can be picked, so
    ``rng`` is consumed as by ``random((M, 2**(Jn+1)))``, filled row block by
    row block into one small reused buffer, followed by one
    ``standard_normal`` per picked entry in row-major order.  Rows come out
    in increasing order.
    """
    weight = post.slab_weight[:2 << post.jn]    # a view; slab_weight is 0 past it
    step = max(1, BLOCK_VALUES // weight.size)
    buf = np.empty((min(step, M), weight.size))
    flat = []                        # picked flat indices into the M x 2^(Jn+1) prefix
    for start in range(0, M, step):
        block = buf[:min(step, M - start)]
        rng.random(out=block)
        flat.append(np.flatnonzero(block < weight) + start * weight.size)
    rows, cols = np.divmod(np.concatenate(flat), weight.size)
    z = rng.standard_normal(cols.size)
    return rows, cols, post.slab_mean[cols] + np.sqrt(post.slab_var[cols]) * z


def sample(post: SlabSpikePosterior, M: int, seed: int) -> PosteriorDrawSet:
    """Exact factorized sampling: Bernoulli(slab_weight) picks slab vs spike.
    The M x 2^(Jn+1) matrix holds the levels <= Jn, leaving out the zeros
    past them (``seqmodel.norm`` reads it as zero-padded)."""
    if M < 1:
        raise ValueError("need at least one draw")
    rows, cols, values = slab_picks(post, np.random.default_rng(seed), M)
    draws = np.zeros((M, 2 << post.jn))
    draws[rows, cols] = values
    return PosteriorDrawSet(draws)


def sample_blocks(post: SlabSpikePosterior, M: int, seed: int):
    """The rows of ``sample(post, M, seed)`` as consecutive blocks of
    ``block_rows`` rows: the uniforms of all M draws and then the normals of
    all their slab picks come first (``slab_picks``), then each block is
    filled with its own picks, which come in increasing row order."""
    if M < 1:
        raise ValueError("need at least one draw")
    rows, cols, values = slab_picks(post, np.random.default_rng(seed), M)
    width = 2 << post.jn
    step = block_rows(width)
    for start in range(0, M, step):
        a, b = np.searchsorted(rows, (start, start + step))
        block = np.zeros((min(step, M - start), width))
        block[rows[a:b] - start, cols[a:b]] = values[a:b]
        yield block


@dataclass(frozen=True)
class ThresholdEstimate:
    """Coordinate-wise posterior median and its support."""

    basis: BasisSpec
    median_coeffs: np.ndarray
    support: np.ndarray  # boolean mask over flattened positions


def _mixture_median(sw, mean, sd):
    """Median of (1-sw) delta_0 + sw N(mean, sd^2), vectorized.

    Zero exactly when the atom straddles the half-mass point, i.e.
    F(0-) < 1/2 <= F(0); otherwise the closed-form Gaussian-CDF inversion.
    Its argument is clipped into [1e-300, 1 - 1e-16], where ndtri lies in
    [-37.05, 8.21], so for a finite mean and sd > 0 the median is finite.
    """
    sw = np.asarray(sw, dtype=float)
    mean = np.asarray(mean, dtype=float)
    sd = np.asarray(sd, dtype=float)
    F0m = sw * ndtr(-mean / sd)          # mass strictly below zero
    F0 = F0m + (1.0 - sw)                # mass up to and including the atom
    med = np.zeros(np.broadcast(sw, mean).shape)

    neg = F0m >= 0.5                      # median inside the slab, below 0
    with np.errstate(divide="ignore", invalid="ignore"):
        q = np.clip(0.5 / np.where(sw > 0, sw, 1.0), 1e-300, 1 - 1e-16)
        med_neg = mean + sd * ndtri(q)
        p = (0.5 - (1.0 - sw)) / np.where(sw > 0, sw, 1.0)
        pos = F0 < 0.5                    # median inside the slab, above 0
        med_pos = mean + sd * ndtri(np.clip(p, 1e-300, 1 - 1e-16))
    med[neg] = med_neg[neg]
    med[pos] = med_pos[pos]
    return med


def posterior_median(post: SlabSpikePosterior) -> ThresholdEstimate:
    med = _mixture_median(post.slab_weight, post.slab_mean, np.sqrt(post.slab_var))
    med[post.slab_weight <= 0.0] = 0.0
    return ThresholdEstimate(post.basis, med, med != 0.0)


def efficient_estimator(obs: NoisyObservation, est: ThresholdEstimate,
                        post: SlabSpikePosterior, variant: int) -> np.ndarray:
    """Thresholded shift estimators: y on the fitted zone (variant 1) or the
    posterior mean there (variant 2); y restricted to the median support on
    the middle levels; zero above Jn."""
    if variant not in (1, 2):
        raise ValueError("variant must be 1 or 2")
    lev = post.levels
    out = np.zeros_like(obs.y)
    fitted = lev <= post.j0
    middle = (lev > post.j0) & (lev <= post.jn)
    out[fitted] = obs.y[fitted] if variant == 1 else post.slab_mean[fitted]
    out[middle] = obs.y[middle] * est.support[middle]
    return out
