"""Dirichlet histogram density demo: conjugate posterior from iid samples of
the truncated Laplace density, with exact Haar coefficient extraction for the
multiscale credible set of the introduction example; ``credsets.fit`` fits
it to the bin counts of ``observe_counts``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .seqmodel import BasisSpec, HAAR_WAVELET, NoisyObservation, TruncatedLaplace, haar_from_cdf

TRUTH = (0.5, 5.0)            # (loc, scale) of the truncated Laplace truth
RESOLUTION_SMOOTHNESS = 1.4   # the truth lies in L2-Sobolev just below 3/2


@dataclass(frozen=True)
class DirichletPosterior:
    concentrations: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.concentrations, dtype=float)
        object.__setattr__(self, "concentrations", c)
        if np.any(c < 1.0):
            raise ValueError("posterior concentrations must be >= 1")

    def mean_heights(self) -> np.ndarray:
        return self.concentrations / self.concentrations.sum()


def default_resolution(n: int) -> int:
    """L with 2^L nearest (n/log n)^{1/(2s+1)}, s = RESOLUTION_SMOOTHNESS, at
    least 2 so that the Haar basis has wavelet levels 0..L-1 with L-1 >= 1
    for the multiscale weights."""
    target = (n / math.log(n)) ** (1.0 / (2.0 * RESOLUTION_SMOOTHNESS + 1.0))
    L = max(2, round(math.log2(target)))
    if abs(2.0 ** L - target) > abs(2.0 ** (L + 1) - target):
        L += 1
    return L


def sample_iid_laplace(n: int, seed: int) -> np.ndarray:
    """iid draws from the truncated Laplace ``TRUTH`` by exact inverse CDF."""
    if n < 1:
        raise ValueError("need n >= 1")
    rng = np.random.default_rng(seed)
    return TruncatedLaplace(*TRUTH).ppf(rng.uniform(size=n))


def bin_counts(samples, L: int) -> np.ndarray:
    """Counts over the 2^L bins; the boundary point 0 goes to bin 0."""
    x = np.asarray(samples, dtype=float)
    if np.any((x < 0) | (x > 1)):
        raise ValueError("samples must lie in [0,1]")
    idx = np.ceil(x * 2 ** L).astype(int) - 1
    idx = np.clip(idx, 0, 2 ** L - 1)
    return np.bincount(idx, minlength=2 ** L)


def observe_counts(n: int, L: int, seed: int) -> NoisyObservation:
    """Counts of n iid draws from ``TRUTH`` over the 2^L bins, held exactly as
    the observation y on the basis ``haar_basis_for(L)``."""
    counts = bin_counts(sample_iid_laplace(n, seed), L)
    return NoisyObservation(haar_basis_for(L), counts, float(n), int(seed))


def posterior(counts) -> DirichletPosterior:
    c = np.asarray(counts)
    if np.any(c < 0):
        raise ValueError("counts must be nonnegative")
    return DirichletPosterior(1.0 + c.astype(float))


def sample_heights(post: DirichletPosterior, M: int, seed) -> np.ndarray:
    """M rows of simplex heights h; each histogram 2^L sum h_k 1_bin integrates
    to one exactly.  ``seed`` is an int or a numpy Generator, used as is."""
    rng = np.random.default_rng(seed)
    return rng.dirichlet(post.concentrations, size=M)


def haar_coefficients(heights, L: int) -> np.ndarray:
    """Exact Haar inner products of the density 2^L sum_k h_k 1_{I_Lk}: its
    CDF at the bin edges is the cumulative bin mass, which ``haar_from_cdf``
    turns into the flattened layout of the wavelet modules (scaling
    coefficient first, levels 0..L-1).  With the left-positive Haar
    convention a density concentrated on the left half has a positive
    level-0 coefficient.  Accepts one simplex point or a stack.
    """
    h = np.asarray(heights, dtype=float)
    if h.shape[-1:] != (2 ** L,):
        raise ValueError("heights length must equal 2^L")
    if np.any(h < -1e-12) or np.any(np.abs(h.sum(axis=-1) - 1.0) > 1e-8):
        raise ValueError("heights must lie on the unit simplex")
    cdf = np.concatenate((np.zeros(h.shape[:-1] + (1,)), np.cumsum(h, axis=-1)), axis=-1)
    return haar_from_cdf(cdf)


def haar_basis_for(L: int) -> BasisSpec:
    """Basis spec matching the flattened output of ``haar_coefficients``."""
    return BasisSpec(HAAR_WAVELET, L - 1)
