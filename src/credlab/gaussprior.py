"""Conjugate Gaussian smoothness priors on the sequence model.

Fixed-regularity prior: independent coordinates f_k ~ N(0, k^{-2 alpha - 1}),
whose posterior given y is N(n y_k/(k^{2a+1}+n), 1/(k^{2a+1}+n)) per
coordinate.  The smoothness alpha is selected either by maximizing the
marginal log-likelihood (empirical Bayes) or through an exponential
hyperprior whose one-dimensional marginal posterior is integrated by grid
quadrature.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import logsumexp

from .seqmodel import NoisyObservation, block_rows

ALPHA_MIN = 0.01
EB_GRID_SIZE, EB_TOL = 400, 1e-4  # EB scan points on [ALPHA_MIN, a_n], refined width
LOGLIK_BLOCK = 64                 # alpha grid points per block of _loglik_grid
_EXP_CLIP = 700.0  # exp overflow guard


def _k_log(size: int) -> np.ndarray:
    """log k for k = 1..size."""
    return np.log(np.arange(1, size + 1, dtype=float))


def _power(k_log: np.ndarray, alpha: float) -> np.ndarray:
    """k^{2 alpha + 1} from precomputed log k, overflow-clipped."""
    return np.exp(np.minimum((2.0 * alpha + 1.0) * k_log, _EXP_CLIP))


def search_upper_bound(n: float) -> float:
    """a_n = log n / log log n, an o(log n) search box for alpha."""
    if n <= math.e:
        return 1.0
    return math.log(n) / max(math.log(math.log(n)), 0.1)


# ---------------------------------------------------------------------------
# marginal likelihood and empirical Bayes
# ---------------------------------------------------------------------------

def marginal_loglik(obs: NoisyObservation, alpha: float) -> float:
    """-(1/2) sum_k [ log(1 + n/k^{2a+1}) - n^2 y_k^2/(k^{2a+1} + n) ],
    truncated at the stored coefficient length."""
    if alpha < 0:
        raise ValueError("alpha must be nonnegative")
    return float(_loglik_grid(np.array([alpha], dtype=float), _k_log(obs.y.size),
                              obs.y ** 2, obs.n)[0])


def loglik_tail_bound(obs: NoisyObservation, alpha: float) -> float:
    """K * log(1 + n/K^{2a+1}): crude bound on the mass dropped by truncating
    the log-determinant part of the likelihood at K."""
    K = obs.y.size
    return K * math.log1p(obs.n / float(K) ** (2 * alpha + 1))


def _loglik_grid(grid: np.ndarray, k_log: np.ndarray, ysq: np.ndarray,
                 n: float) -> np.ndarray:
    """``marginal_loglik`` on an alpha grid, vectorized in blocks; the one
    place the formula is evaluated.  Blocks are computed in place in the same
    two buffers, so a call holds two blocks at a time and makes two large
    allocations however long the grid."""
    out = np.empty(grid.size)
    pw_buf, t_buf = (np.empty((min(LOGLIK_BLOCK, grid.size), k_log.size)) for _ in range(2))
    nn_ysq = n * n * ysq
    for i in range(0, grid.size, LOGLIK_BLOCK):
        g = grid[i:i + LOGLIK_BLOCK]
        pw, t = pw_buf[:g.size], t_buf[:g.size]
        np.multiply.outer(2.0 * g + 1.0, k_log, out=pw)
        np.exp(np.minimum(pw, _EXP_CLIP, out=pw), out=pw)
        np.log1p(np.divide(n, pw, out=t), out=t)
        t -= np.divide(nn_ysq, np.add(pw, n, out=pw), out=pw)
        out[i:i + LOGLIK_BLOCK] = -0.5 * np.sum(t, axis=1)
    return out


@dataclass(frozen=True)
class EmpiricalBayesResult:
    alpha_hat: float
    a_n: float
    grid: np.ndarray
    loglik: np.ndarray
    boundary_flag: bool
    tail_bound: float


def empirical_bayes_alpha(obs: NoisyObservation) -> EmpiricalBayesResult:
    """Maximize the marginal log-likelihood over [ALPHA_MIN, a_n].

    Coarse grid scan followed by golden-section refinement in the bracketing
    cell; ties break toward the smallest alpha (argmax takes the first hit).
    """
    n = obs.n
    a_n = max(search_upper_bound(n), ALPHA_MIN + 0.5)
    k_log = _k_log(obs.y.size)
    ysq = obs.y ** 2

    def ll(alpha):
        return _loglik_grid(np.array([alpha], dtype=float), k_log, ysq, n)[0]

    grid = np.linspace(ALPHA_MIN, a_n, EB_GRID_SIZE)
    vals = _loglik_grid(grid, k_log, ysq, n)
    i = int(np.argmax(vals))
    lo = grid[max(i - 1, 0)]
    hi = grid[min(i + 1, EB_GRID_SIZE - 1)]

    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = ll(c), ll(d)
    while b - a > EB_TOL:
        if fc >= fd:  # keep the left interval on ties: smallest-alpha convention
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = ll(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = ll(d)
    alpha_hat = a if ll(a) >= ll(b) else b
    step = grid[1] - grid[0]
    boundary = alpha_hat <= ALPHA_MIN + step or alpha_hat >= a_n - step
    return EmpiricalBayesResult(float(alpha_hat), float(a_n), grid, vals,
                                bool(boundary), loglik_tail_bound(obs, alpha_hat))


# ---------------------------------------------------------------------------
# fixed-alpha posterior
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AlphaPosterior:
    """Coordinate-wise Gaussian posterior of the fixed-regularity prior."""

    alpha: float
    n: float
    means: np.ndarray
    variances: np.ndarray


def posterior(obs: NoisyObservation, alpha: float) -> AlphaPosterior:
    if alpha < 0:
        raise ValueError("alpha must be nonnegative")
    pw = _power(_k_log(obs.y.size), alpha)
    return AlphaPosterior(float(alpha), obs.n, obs.n * obs.y / (pw + obs.n),
                          1.0 / (pw + obs.n))


@dataclass(frozen=True)
class PosteriorDrawSet:
    """M x K matrix of coefficient draws."""

    draws: np.ndarray


def sample(post: AlphaPosterior, M: int, seed) -> PosteriorDrawSet:
    """M independent draws of the posterior.  ``seed`` is an int or a
    numpy Generator, which is used as is: consecutive calls on one Generator
    continue its stream, so their draws stacked equal the draws of one call
    for all rows."""
    if M < 1:
        raise ValueError("need at least one draw")
    rng = np.random.default_rng(seed)
    draws = rng.standard_normal((M, post.means.size))
    draws *= np.sqrt(post.variances)
    draws += post.means
    return PosteriorDrawSet(draws)


# ---------------------------------------------------------------------------
# hierarchical Bayes over alpha
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class HyperPosterior:
    """Grid-quadrature marginal posterior of alpha under the hyperprior."""

    grid: np.ndarray
    log_weights: np.ndarray

    @property
    def weights(self) -> np.ndarray:
        return np.exp(self.log_weights)


def _alpha_grid(a_n: float, grid_size: int) -> np.ndarray:
    """Geometric spacing up to min(1, midpoint) then uniform to a_n."""
    pivot = min(1.0, 0.5 * (ALPHA_MIN + a_n))
    n_geo = grid_size // 2
    geo = np.geomspace(ALPHA_MIN, pivot, n_geo, endpoint=False)
    uni = np.linspace(pivot, a_n, grid_size - n_geo)
    return np.concatenate([geo, uni])


def hierarchical_marginal(obs: NoisyObservation, rate: float = 1.0,
                          grid_size: int = 600) -> HyperPosterior:
    """Normalized log posterior masses on an alpha grid over [ALPHA_MIN, a_n]
    under the exponential hyperprior lambda(alpha) = rate exp(-rate alpha).

    Each cell's mass is log lambda(alpha_i) + l_n(alpha_i) + log(cell width),
    a midpoint-rule quadrature of the continuous marginal; masses are
    normalized by log-sum-exp so the weights sum to one.
    """
    if grid_size < 3:
        raise ValueError("degenerate grid")
    a_n = max(search_upper_bound(obs.n), ALPHA_MIN + 0.5)
    grid = _alpha_grid(a_n, grid_size)
    edges = np.concatenate(([grid[0]], 0.5 * (grid[1:] + grid[:-1]), [grid[-1]]))
    widths = np.diff(edges)

    ll = _loglik_grid(grid, _k_log(obs.y.size), obs.y ** 2, obs.n)
    logw = math.log(rate) - rate * grid + ll + np.log(widths)
    logw -= logsumexp(logw)
    return HyperPosterior(grid, logw)


def hierarchical_median(hp: HyperPosterior) -> float:
    """Smallest grid alpha whose cumulative weight reaches 1/2."""
    cum = np.cumsum(hp.weights)
    return float(hp.grid[int(np.searchsorted(cum, 0.5))])


def hierarchical_posterior_mean(hp: HyperPosterior, obs: NoisyObservation) -> np.ndarray:
    """Mixture posterior mean sum_i w_i * mu(alpha_i)."""
    k_log = _k_log(obs.y.size)
    out = np.zeros_like(obs.y)
    for a, w in zip(hp.grid, hp.weights):
        if w < 1e-16:
            continue
        pw = _power(k_log, a)
        out += w * obs.n * obs.y / (pw + obs.n)
    return out


def hierarchical_blocks(hp: HyperPosterior, obs: NoisyObservation, M: int, seed: int):
    """The rows of ``sample_hierarchical(hp, obs, M, seed)`` as consecutive
    blocks of ``block_rows`` rows.

    The grid index of alpha of all M draws comes first, by inverse CDF on
    the grid weights; then each block's standard normals are drawn and
    turned into f | alpha, y.  The law of each index is computed once and
    kept for the blocks after it.
    """
    if M < 1:
        raise ValueError("need at least one draw")
    rng = np.random.default_rng(seed)
    cum = np.cumsum(hp.weights)
    cum[-1] = 1.0
    idx = np.searchsorted(cum, rng.uniform(size=M))
    K = obs.y.size
    k_log = _k_log(K)
    laws = {}
    step = block_rows(K)
    for start in range(0, M, step):
        zeta = rng.standard_normal((min(step, M - start), K))
        block_idx = idx[start:start + step]
        for i in np.unique(block_idx):
            if i not in laws:
                pw = _power(k_log, hp.grid[i])
                laws[i] = (obs.n * obs.y / (pw + obs.n), np.sqrt(1.0 / (pw + obs.n)))
            mean, sd = laws[i]
            rows = block_idx == i
            zeta[rows] = mean + sd * zeta[rows]
        yield zeta


def sample_hierarchical(hp: HyperPosterior, obs: NoisyObservation, M: int,
                        seed: int) -> PosteriorDrawSet:
    """Draw alpha by inverse CDF on the grid weights, then f | alpha, y: the
    blocks of ``hierarchical_blocks`` stacked."""
    if M < 1:
        raise ValueError("need at least one draw")
    draws = np.empty((M, obs.y.size))
    start = 0
    for block in hierarchical_blocks(hp, obs, M, seed):
        draws[start:start + len(block)] = block
        start += len(block)
    return PosteriorDrawSet(draws)


# ---------------------------------------------------------------------------
# projected-KL diagnostic
# ---------------------------------------------------------------------------

def kl_projection_diagnostic(obs: NoisyObservation, alpha: float, J: int) -> float:
    """KL between the sqrt(n)-rescaled, y-centered posterior on the first J
    coordinates and the J-dimensional standard normal.

    Per coordinate the rescaled posterior is N(mu_k, s2_k) with
    s2_k = n/(k^{2a+1}+n) and mu_k = -sqrt(n) k^{2a+1} y_k/(k^{2a+1}+n), and
    the standard Gaussian KL (1/2)[s2 + mu^2 - 1 - log s2] is summed; the
    result is nonnegative by construction.
    """
    if not 1 <= J <= obs.y.size:
        raise ValueError("J out of range")
    n = obs.n
    pw = _power(_k_log(J), alpha)
    s2 = n / (pw + n)
    mu = -math.sqrt(n) * pw * obs.y[:J] / (pw + n)
    return 0.5 * float(np.sum(s2 + mu * mu - 1.0 - np.log(s2)))


def kl_projection_bound(obs: NoisyObservation, alpha: float, J: int) -> float:
    """(1/2n) sum_{k<=J} [k^{2a+1} + k^{4a+2} y_k^2], the closed-form upper
    bound reported alongside the diagnostic."""
    if not 1 <= J <= obs.y.size:
        raise ValueError("J out of range")
    k = np.arange(1, J + 1, dtype=float)
    pw = k ** (2 * alpha + 1)
    return float(np.sum(pw + pw * pw * obs.y[:J] ** 2) / (2.0 * obs.n))
