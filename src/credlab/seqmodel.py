"""Bases, signals, norms, self-similarity checks and synthetic data for the
Gaussian sequence model  y_k = f_k + z_k / sqrt(n).

The Fourier sine basis is indexed k = 1, 2, ... and stored in that order.
Haar coefficient arrays are stored flattened: position 0 holds the scaling
coefficient (the constant function on (0,1]) and position m >= 1 holds the
wavelet (l, k) with l = floor(log2 m), k = m - 2**l, i.e. level l occupies
positions [2**l, 2**(l+1)).  The Haar mother wavelet is +1 on the left half
of its support and -1 on the right half; coefficient signs depend on this.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

FOURIER_SINE = "fourier_sine"
HAAR_WAVELET = "haar_wavelet"

_BASIS_KINDS = (FOURIER_SINE, HAAR_WAVELET)


# ---------------------------------------------------------------------------
# bases and coefficient containers
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BasisSpec:
    """Orthonormal basis of L2[0,1] with a finite truncation.

    ``max_index`` is K_max for the Fourier sine basis and the maximal wavelet
    resolution J_max for the Haar basis.
    """

    kind: str
    max_index: int

    def __post_init__(self):
        if self.kind not in _BASIS_KINDS:
            raise ValueError(f"unknown basis kind {self.kind!r}")
        if self.max_index < 1:
            raise ValueError("max_index must be >= 1")

    @property
    def is_wavelet(self) -> bool:
        return self.kind == HAAR_WAVELET

    @property
    def size(self) -> int:
        """Length of a coefficient array for this truncation."""
        if self.is_wavelet:
            return 2 ** (self.max_index + 1)
        return self.max_index


def wavelet_levels(basis: BasisSpec) -> np.ndarray:
    """Level of each flattened position; the scaling coefficient gets -1."""
    if not basis.is_wavelet:
        raise ValueError("wavelet layout undefined for the Fourier sine basis")
    lev = np.empty(basis.size, dtype=int)
    lev[0] = -1
    for l in range(basis.max_index + 1):
        lev[2 ** l: 2 ** (l + 1)] = l
    return lev


@dataclass(frozen=True)
class SignalCoefficients:
    """Truncated coefficient array of a function against a declared basis."""

    basis: BasisSpec
    coeffs: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.coeffs, dtype=float)
        object.__setattr__(self, "coeffs", c)
        if c.shape != (self.basis.size,):
            raise ValueError(
                f"coefficient length {c.shape} does not match basis size {self.basis.size}"
            )
        if not np.all(np.isfinite(c)):
            raise ValueError("coefficients must be finite")


@dataclass(frozen=True)
class NoisyObservation:
    """Sequence data y = f0 + z/sqrt(n) with RNG provenance; under the
    histogram prior, y holds the bin counts of n iid samples instead
    (``dirichlethist.observe_counts``)."""

    basis: BasisSpec
    y: np.ndarray
    n: float
    seed: int

    def __post_init__(self):
        y = np.asarray(self.y, dtype=float)
        object.__setattr__(self, "y", y)
        if y.shape != (self.basis.size,):
            raise ValueError("observation length does not match basis size")
        if not self.n > 0:
            raise ValueError("noise level n must be positive")


def observe(f0: SignalCoefficients, n: float, seed: int) -> NoisyObservation:
    """Draw y = f0 + z/sqrt(n), z iid standard normal, reproducibly per seed."""
    if not n > 0:
        raise ValueError("noise level n must be positive")
    rng = np.random.default_rng(seed)
    z = rng.standard_normal(f0.basis.size)
    return NoisyObservation(f0.basis, f0.coeffs + z / math.sqrt(n), float(n), int(seed))


def default_fourier_truncation(n: float) -> int:
    """Default K_max; tail posterior variance below 1e-12 for alpha >= 0.1."""
    return max(int(2 * n), 2 ** 14)


def default_wavelet_truncation(n: float) -> int:
    """Default J_max = floor(log2 n) + 3."""
    return int(math.floor(math.log2(n))) + 3


# ---------------------------------------------------------------------------
# weights and norms
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class WeightSequence:
    """Multiscale weights w_0..w_Jmax, monotone nondecreasing with w_l >= 1.

    The paper-style sup runs over levels l >= 0 but only defines weights for
    l >= 1; we set w_0 = w_1 and let the scaling coefficient share w_0.
    """

    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", v)
        if v.ndim != 1 or v.size < 2:
            raise ValueError("need weights for levels 0..J with J >= 1")
        if np.any(v < 1.0):
            raise ValueError("weights must satisfy w_l >= 1")
        if np.any(np.diff(v) < -1e-12):
            raise ValueError("weights must be monotone nondecreasing")

    @classmethod
    def power_law(cls, eps: float, j_max: int) -> "WeightSequence":
        """w_l = l^(1/2+eps) for l >= 1, w_0 = w_1."""
        if eps <= 0:
            raise ValueError("eps must be positive")
        l = np.arange(1, j_max + 1, dtype=float)
        w = np.maximum(l ** (0.5 + eps), 1.0)
        return cls(np.concatenate(([w[0]], w)))

    @property
    def j_max(self) -> int:
        return self.values.size - 1

    def per_position(self, basis: BasisSpec) -> np.ndarray:
        """Weight of each flattened wavelet position (scaling gets w_0)."""
        lev = wavelet_levels(basis)
        if basis.max_index > self.j_max:
            raise ValueError("weight sequence shorter than basis resolution")
        return self.values[np.maximum(lev, 0)]


@dataclass(frozen=True)
class NormSpec:
    """Descriptor of one of the norms used throughout the laboratory."""

    kind: str
    s: float = 0.0
    delta: float = 0.0
    weights: Optional[WeightSequence] = None

    @classmethod
    def l2(cls) -> "NormSpec":
        return cls("l2")

    @classmethod
    def sobolev_log(cls, s: float, delta: float = 0.0) -> "NormSpec":
        if delta < 0:
            raise ValueError("delta must be nonnegative")
        return cls("sobolev_log", s=s, delta=delta)

    @classmethod
    def h_delta(cls, delta: float) -> "NormSpec":
        """The H(delta) = H^{-1/2,delta} norm of the weak-convergence theory."""
        return cls("sobolev_log", s=-0.5, delta=delta)

    @classmethod
    def multiscale(cls, weights: WeightSequence) -> "NormSpec":
        return cls("multiscale", weights=weights)

    @classmethod
    def sup(cls) -> "NormSpec":
        return cls("sup")


def sobolev_log_weights(size: int, s: float, delta: float) -> np.ndarray:
    """k^{2s} (log k)^{-2 delta} with the k=1 singularity resolved by
    (max(log k, 1))^{-2 delta}, so the k = 1 weight equals 1."""
    k = np.arange(1, size + 1, dtype=float)
    return k ** (2 * s) * np.maximum(np.log(k), 1.0) ** (-2 * delta)


# Values of x per block of rows in ``norm``, so its temporaries stay a few MB.
NORM_BLOCK_VALUES = 1 << 18


def block_rows(size: int) -> int:
    """Rows per block of an array of ``size`` columns: a multiple of 8 rows
    and about NORM_BLOCK_VALUES values, so sobolev_log gives each row of a
    block the same BLAS kernel as ``norm`` of the whole array (see ``norm``)."""
    return 8 * max(1, NORM_BLOCK_VALUES // (8 * size))


def norm(x, spec: NormSpec, basis: Optional[BasisSpec] = None, center=None):
    """Evaluate ``spec`` on ``x - center`` (``x`` when ``center`` is None),
    for a SignalCoefficients or a raw coefficient array.

    ``basis`` is required for the wavelet norms when ``x`` is a bare array.
    A wavelet array narrower than ``basis`` stands for its zero-padding to
    the basis size, and the value is that of the padded array, bit for bit:
    multiscale takes the larger of the head's maximum and the center tail's,
    since |0 - c| / w is |c| / w; sup, when the center has no nonzero tail,
    synthesises the head alone, since a level of zeros only repeats cells;
    any other norm pads each block of rows before reducing it.
    Values computed for a 2-d array are per-row.  Its rows are taken in
    blocks of ``block_rows`` rows, so no temporary as large as ``x`` is
    built.  Every norm but sobolev_log reduces each row on its own, so the
    blocks cannot change a value.
    sobolev_log goes through BLAS gemv, whose value for a row depends on
    which of its 4-, 2- or 1-row kernels takes the row: with one or two BLAS
    threads and a row count that is a multiple of 8, the blocks and the whole
    array give every row the same 4-row kernel; otherwise a value may differ
    in the last bit.
    """
    if isinstance(x, SignalCoefficients):
        basis = x.basis
        arr = x.coeffs
    else:
        arr = np.asarray(x, dtype=float)
    size = arr.shape[-1]
    wide = basis.size if basis is not None and basis.is_wavelet else size
    pad = size < wide

    if spec.kind == "l2":
        def block_norm(a):
            return np.sqrt(np.sum(a * a, axis=-1))
    elif spec.kind == "sobolev_log":
        if basis is not None and basis.is_wavelet:
            raise ValueError("sobolev_log norms apply to Fourier sine coefficients")
        w = sobolev_log_weights(size, spec.s, spec.delta)

        def block_norm(a):
            return np.sqrt((a * a) @ w)
    elif spec.kind == "multiscale":
        if basis is None or not basis.is_wavelet:
            raise ValueError("multiscale norm requires a wavelet basis")
        w = spec.weights.per_position(basis)
        tail = np.max(np.abs(center[size:]) / w[size:]) if pad and center is not None else 0.0
        w, pad = w[:size], False

        def block_norm(a):
            return np.maximum(np.max(np.abs(a) / w, axis=-1), tail)
    elif spec.kind == "sup":
        if basis is None or not basis.is_wavelet:
            raise ValueError("sup norm requires a wavelet basis")
        if pad and (center is None or not np.any(center[size:])):
            pad = False

        def block_norm(a):
            return np.max(np.abs(haar_cell_values(a)), axis=-1)
    else:
        raise ValueError(f"unknown norm kind {spec.kind!r}")
    if center is not None and not pad:
        center = center[:size]

    def reduce(a):
        if pad:
            a = np.concatenate((a, np.zeros(a.shape[:-1] + (wide - size,))), axis=-1)
        return block_norm(a if center is None else a - center)

    if arr.ndim < 2:
        return reduce(arr)
    out = np.empty(arr.shape[0])
    step = block_rows(wide if pad else size)
    for start in range(0, arr.shape[0], step):
        out[start:start + step] = reduce(arr[start:start + step])
    return out


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------

def haar_cell_values(coeffs) -> np.ndarray:
    """Values of the Haar partial sum of a flattened coefficient array of
    length 2**(J + 1) on its 2**(J + 1) dyadic cells.

    Exact because partial sums up to level J are constant on these cells; a
    finer partition, as from a longer array with zeros past J, only repeats
    values.  Accepts a single coefficient array or a stack of them (rows).
    """
    arr = np.atleast_2d(np.asarray(coeffs, dtype=float))
    size = arr.shape[-1]
    if size < 1 or size & (size - 1):
        raise ValueError(f"Haar coefficient arrays have a power-of-two length, not {size}")
    vals = arr[:, :1].copy()
    for l in range(size.bit_length() - 1):
        c = arr[:, 2 ** l: 2 ** (l + 1)] * 2.0 ** (l / 2.0)
        nxt = np.empty((arr.shape[0], 2 ** (l + 1)))
        nxt[:, 0::2] = vals + c
        nxt[:, 1::2] = vals - c
        vals = nxt
    if np.ndim(coeffs) == 1:
        return vals[0]
    return vals


def haar_from_cdf(cdf) -> np.ndarray:
    """Flattened Haar coefficients of a measure on [0,1] from its CDF F at
    the 2**G + 1 dyadic points j / 2**G.

    The scaling coefficient is F(1) - F(0) and the (l, k) coefficient,
    l < G, is 2^{l/2} (2 F(mid) - F(a) - F(b)) over its interval [a, b]:
    exact for any measure, a density or not.  Accepts a single CDF array or
    a stack of them (rows).
    """
    F = np.atleast_2d(np.asarray(cdf, dtype=float))
    size = F.shape[-1] - 1
    if size < 1 or size & (size - 1):
        raise ValueError(f"a CDF on a dyadic grid has 2**G + 1 points, not {size + 1}")
    out = np.empty((F.shape[0], size))
    out[:, 0] = F[:, -1] - F[:, 0]
    for l in range(size.bit_length() - 1):
        width = size >> l             # grid steps per level-l interval
        a, mid, b = F[:, :-1:width], F[:, width // 2::width], F[:, width::width]
        out[:, 2 ** l: 2 ** (l + 1)] = 2.0 ** (l / 2.0) * (2 * mid - a - b)
    if np.ndim(cdf) == 1:
        return out[0]
    return out


def evaluate_function(coeffs, grid, basis: Optional[BasisSpec] = None) -> np.ndarray:
    """Pointwise partial-sum values sum_k f_k e_k(x) on grid points in [0,1].

    Haar partial sums are evaluated as piecewise-constant functions with
    right-closed dyadic cells at the array's own length, which may be shorter
    than the basis (zeros past it); x = 0 takes the value of the first cell.
    """
    if isinstance(coeffs, SignalCoefficients):
        basis = coeffs.basis
        arr = coeffs.coeffs
    else:
        arr = np.asarray(coeffs, dtype=float)
    x = np.asarray(grid, dtype=float)
    if np.any((x < 0) | (x > 1)):
        raise ValueError("grid points must lie in [0,1]")

    if basis.is_wavelet:
        cells = haar_cell_values(arr)
        count = cells.shape[-1]
        # cell i covers (i/count, (i+1)/count]; map x=0 into cell 0
        idx = np.clip(np.ceil(x * count).astype(int) - 1, 0, count - 1)
        return cells[..., idx]

    k = np.arange(1, basis.size + 1, dtype=float)
    design = np.sqrt(2.0) * np.sin(np.pi * np.outer(x, k))
    return design @ arr if arr.ndim == 1 else arr @ design.T


# ---------------------------------------------------------------------------
# signal recipes
# ---------------------------------------------------------------------------

def power_sine_signal(a: float, b: float, basis: BasisSpec) -> SignalCoefficients:
    """f_k = k^{-a} sin(b k) on the Fourier sine basis; a = 3/2, b = 1 gives the
    smoothness-one test signal used in the simulations."""
    if basis.is_wavelet:
        raise ValueError("power_sine requires the Fourier sine basis")
    k = np.arange(1, basis.size + 1, dtype=float)
    return SignalCoefficients(basis, k ** (-a) * np.sin(b * k))


class TruncatedLaplace:
    """Density proportional to exp(-scale*|x-loc|) on [0,1], exactly normalized."""

    def __init__(self, loc: float, scale: float):
        if not 0 < loc < 1 or scale <= 0:
            raise ValueError("need 0 < loc < 1 and scale > 0")
        self.loc = loc
        self.scale = scale
        self.const = scale / (2.0 - math.exp(-scale * loc) - math.exp(-scale * (1 - loc)))

    def pdf(self, x):
        x = np.asarray(x, dtype=float)
        return self.const * np.exp(-self.scale * np.abs(x - self.loc))

    def cdf(self, x):
        x = np.asarray(x, dtype=float)
        c, s, m = self.const, self.scale, self.loc
        lo = (c / s) * (np.exp(-s * (m - x)) - math.exp(-s * m))
        hi = (c / s) * (1 - math.exp(-s * m)) + (c / s) * (1 - np.exp(-s * (x - m)))
        return np.where(x <= m, lo, hi)

    def ppf(self, u):
        u = np.asarray(u, dtype=float)
        c, s, m = self.const, self.scale, self.loc
        um = (c / s) * (1 - math.exp(-s * m))  # cdf at the peak
        lo = m + np.log(np.maximum(u * s / c + math.exp(-s * m), 1e-300)) / s
        hi = m - np.log(np.maximum(1 - (u - um) * s / c, 1e-300)) / s
        return np.where(u <= um, lo, hi)


def truncated_laplace_signal(loc: float, scale: float, basis: BasisSpec) -> SignalCoefficients:
    """Exact Haar coefficients of the truncated Laplace density, from its
    closed-form CDF (``haar_from_cdf``), so they carry no quadrature error."""
    if not basis.is_wavelet:
        raise ValueError("truncated_laplace requires the Haar basis")
    K = basis.size
    # Lipschitz density, so the coefficients sit in a beta = 1 Hoelder ball
    return SignalCoefficients(
        basis, haar_from_cdf(TruncatedLaplace(loc, scale).cdf(np.arange(K + 1) / K)))


def holder_spike_signal(beta: float, R: float, r: float, subsequence,
                        basis: BasisSpec) -> SignalCoefficients:
    """Counterexample signal for the thresholding prior without a fitted zone.

    Position m >= 1 of the flattened Haar array receives r*sqrt(log n_m / n_m)
    for the supplied increasing sequence (n_m), except that one reserved index
    per level (the last position, k_l = 2^l - 1) carries R * 2^{-l(beta+1/2)}
    to pin the signal's sup-norm self-similarity.  The scaling coefficient is
    zero.  ``subsequence`` is extended geometrically (last observed ratio)
    when shorter than the coefficient array; entries must exceed 1 and
    increase strictly.
    """
    if not basis.is_wavelet:
        raise ValueError("holder_spike requires the Haar basis")
    if beta <= 0 or R <= 0 or r <= 0:
        raise ValueError("beta, R, r must be positive")
    sub = np.asarray(subsequence, dtype=float)
    if sub.ndim != 1 or sub.size < 2 or np.any(sub <= 1.0) or np.any(np.diff(sub) <= 0):
        raise ValueError("subsequence must be strictly increasing with entries > 1")

    m_count = basis.size - 1
    log_n = np.empty(m_count)
    have = min(sub.size, m_count)
    log_n[:have] = np.log(sub[:have])
    if have < m_count:
        step = math.log(sub[-1] / sub[-2])
        log_n[have:] = log_n[have - 1] + step * np.arange(1, m_count - have + 1)

    # r * sqrt(log n_m / n_m) computed in log space to survive huge n_m
    coefs = r * np.exp(0.5 * (np.log(log_n) - log_n))
    out = np.empty(basis.size)
    out[0] = 0.0
    out[1:] = coefs
    for l in range(basis.max_index + 1):
        out[2 ** (l + 1) - 1] = R * 2.0 ** (-l * (beta + 0.5))
    cap = R * 2.0 ** (-(wavelet_levels(basis)[1:] * (beta + 0.5)))
    if np.any(np.abs(out[1:]) > cap + 1e-12):
        raise ValueError("subsequence grows too slowly for the Hoelder ball")
    return SignalCoefficients(basis, out)


# ---------------------------------------------------------------------------
# self-similarity checks
# ---------------------------------------------------------------------------

def check_self_similar_l2(f: SignalCoefficients, beta: float, R: float, rho: float,
                          eps: float, N0: int, N_max: Optional[int] = None):
    """Block-energy self-similarity over the checked range [N0, N_max].

    Requires sum_{k=N}^{ceil(rho N)} f_k^2 >= eps * R * N^{-2 beta} for every
    N in the range (finite surrogate for the all-N condition; coefficients
    beyond the truncation count as zero).  Returns (ok, first_violating_N).
    """
    if rho <= 1 or not (0 < eps < 1) or N0 < 2:
        raise ValueError("need rho > 1, eps in (0,1), N0 >= 2")
    if f.basis.is_wavelet:
        raise ValueError("the block-energy condition applies to the Fourier sine basis")
    K = f.basis.size
    if N_max is None:
        N_max = min(K, 10 ** 4)
    if N_max < N0:
        raise ValueError("N_max must be >= N0")
    sq = f.coeffs * f.coeffs
    css = np.concatenate(([0.0], np.cumsum(sq)))
    N = np.arange(N0, N_max + 1)
    hi = np.minimum(np.ceil(rho * N).astype(int), K)
    lo = np.minimum(N - 1, K)
    block = css[hi] - css[lo]
    thresh = eps * R * N.astype(float) ** (-2 * beta)
    bad = block < thresh
    if np.any(bad):
        return False, int(N[np.argmax(bad)])
    return True, None


def sup_selfsim_margin(f: SignalCoefficients, beta: float, j0: int,
                       j_hi: Optional[int] = None) -> float:
    """min over j0 <= j < j_hi of 2^{j beta} * ||K_j f - f||_inf, the largest
    eps certifying sup-norm self-similarity on the checked level range."""
    if not f.basis.is_wavelet:
        raise ValueError("sup-norm self-similarity requires the Haar basis")
    if j0 < 1:
        raise ValueError("j0 must be >= 1")
    J = f.basis.max_index
    if j_hi is None:
        j_hi = J
    best = math.inf
    for j in range(j0, j_hi):
        tail = f.coeffs.copy()
        tail[: 2 ** (j + 1)] = 0.0
        err = norm(tail, NormSpec.sup(), f.basis)
        best = min(best, 2.0 ** (j * beta) * err)
    return best

