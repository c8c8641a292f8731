import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad

from credlab import seqmodel as sm
from credlab.seqmodel import BasisSpec, NormSpec, WeightSequence


def haar_psi(l, k, x):
    """Reference pointwise Haar wavelet, +1 on the left half of its support."""
    t = 2.0 ** l * np.asarray(x, dtype=float) - k
    left = ((0 < t) & (t <= 0.5)).astype(float)
    right = ((0.5 < t) & (t <= 1.0)).astype(float)
    return 2.0 ** (l / 2.0) * (left - right)


# ---------------------------------------------------------------------------
# bases, evaluation
# ---------------------------------------------------------------------------

def test_basis_validation():
    with pytest.raises(ValueError):
        BasisSpec("fourier", 4)
    with pytest.raises(ValueError):
        BasisSpec(sm.FOURIER_SINE, 0)
    assert BasisSpec(sm.HAAR_WAVELET, 3).size == 16


def test_wavelet_flattening_positions():
    b = BasisSpec(sm.HAAR_WAVELET, 4)
    lev = sm.wavelet_levels(b)
    assert lev[0] == -1
    for m in range(1, b.size):
        assert lev[m] == int(math.floor(math.log2(m)))


def test_evaluate_fourier_unit_vector():
    b = BasisSpec(sm.FOURIER_SINE, 4)
    e1 = sm.SignalCoefficients(b, [1, 0, 0, 0])
    val = sm.evaluate_function(e1, [0.5])
    assert val[0] == pytest.approx(math.sqrt(2.0))


def test_evaluate_zero_and_scaling():
    b = BasisSpec(sm.HAAR_WAVELET, 3)
    zero = sm.SignalCoefficients(b, np.zeros(b.size))
    assert np.all(sm.evaluate_function(zero, np.linspace(0, 1, 7)) == 0)
    scale = np.zeros(b.size)
    scale[0] = 1.0
    vals = sm.evaluate_function(sm.SignalCoefficients(b, scale), np.linspace(0, 1, 11))
    assert np.allclose(vals, 1.0)


def test_haar_evaluation_matches_pointwise_reference():
    b = BasisSpec(sm.HAAR_WAVELET, 4)
    rng = np.random.default_rng(0)
    c = rng.standard_normal(b.size)
    # interior, non-dyadic points where the reference formula is unambiguous
    x = np.array([0.111, 0.237, 0.361, 0.49, 0.568, 0.701, 0.845, 0.93])
    ref = np.full(x.size, c[0])
    for m in range(1, b.size):
        l = int(math.floor(math.log2(m)))
        ref += c[m] * haar_psi(l, m - 2 ** l, x)
    got = sm.evaluate_function(sm.SignalCoefficients(b, c), x)
    assert np.allclose(got, ref)


def test_haar_partial_sum_exactness_on_midpoints():
    # sup over dyadic midpoints equals sup over a 16x finer uniform grid
    b = BasisSpec(sm.HAAR_WAVELET, 6)
    rng = np.random.default_rng(1)
    c = sm.SignalCoefficients(b, rng.standard_normal(b.size))
    mid = (np.arange(2 ** 7) + 0.5) / 2 ** 7
    fine = (np.arange(2 ** 11) + 0.5) / 2 ** 11
    assert np.max(np.abs(sm.evaluate_function(c, mid))) == pytest.approx(
        np.max(np.abs(sm.evaluate_function(c, fine))))


def test_parseval_at_truncation():
    b = BasisSpec(sm.HAAR_WAVELET, 10)
    f = sm.truncated_laplace_signal(0.5, 5.0, b)
    vals = sm.haar_cell_values(f.coeffs)
    riemann = math.sqrt(np.sum(vals ** 2) / 2 ** 11)
    assert riemann == pytest.approx(float(sm.norm(f, NormSpec.l2())), rel=1e-12)

    bf = BasisSpec(sm.FOURIER_SINE, 64)
    g = sm.power_sine_signal(3.0, 1.0, bf)
    xs = (np.arange(2 ** 13) + 0.5) / 2 ** 13
    riemann = math.sqrt(np.mean(sm.evaluate_function(g, xs) ** 2))
    assert riemann == pytest.approx(float(sm.norm(g, NormSpec.l2())), rel=1e-3)


# ---------------------------------------------------------------------------
# observation model
# ---------------------------------------------------------------------------

def test_observe_deterministic_and_zero_signal():
    b = BasisSpec(sm.FOURIER_SINE, 128)
    f0 = sm.power_sine_signal(1.5, 1.0, b)
    o1 = sm.observe(f0, 100.0, 7)
    o2 = sm.observe(f0, 100.0, 7)
    assert np.array_equal(o1.y, o2.y)
    zero = sm.SignalCoefficients(b, np.zeros(b.size))
    oz = sm.observe(zero, 1.0, 7)
    raw = np.random.default_rng(7).standard_normal(b.size)
    assert np.array_equal(oz.y, raw)


def test_observe_noise_moments():
    b = BasisSpec(sm.FOURIER_SINE, 10 ** 5)
    f0 = sm.SignalCoefficients(b, np.zeros(b.size))
    n = 17.0
    obs = sm.observe(f0, n, 123)
    z = math.sqrt(n) * (obs.y - f0.coeffs)
    assert abs(z.mean()) < 4.0 / math.sqrt(z.size)
    assert abs(z.var() - 1.0) < 0.05


# ---------------------------------------------------------------------------
# norms
# ---------------------------------------------------------------------------

def test_sobolev_log_k1_convention():
    b = BasisSpec(sm.FOURIER_SINE, 8)
    e1 = sm.SignalCoefficients(b, [1, 0, 0, 0, 0, 0, 0, 0])
    for delta in (0.6, 2.1, 5.0):
        assert float(sm.norm(e1, NormSpec.sobolev_log(-0.5, delta))) == pytest.approx(1.0)


def test_multiscale_single_coefficient():
    b = BasisSpec(sm.HAAR_WAVELET, 4)
    w = WeightSequence(np.array([1, 1, 2, 4, 8]))
    x = np.zeros(b.size)
    x[2 ** 3 + 1] = 0.7  # level 3
    assert float(sm.norm(x, NormSpec.multiscale(w), b)) == pytest.approx(0.7 / 4.0)


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 2 ** 31 - 1))
def test_multiscale_never_exceeds_l2(seed):
    b = BasisSpec(sm.HAAR_WAVELET, 5)
    x = np.random.default_rng(seed).standard_normal(b.size)
    w = WeightSequence.power_law(0.1, b.max_index)
    assert float(sm.norm(x, NormSpec.multiscale(w), b)) <= float(sm.norm(x, NormSpec.l2())) + 1e-12


NORM_CASES = [
    (NormSpec.l2(), sm.FOURIER_SINE),
    (NormSpec.sobolev_log(1.3, 0.0), sm.FOURIER_SINE),
    (NormSpec.h_delta(2.1), sm.FOURIER_SINE),
    (NormSpec.multiscale(WeightSequence.power_law(0.5, 13)), sm.HAAR_WAVELET),
    (NormSpec.sup(), sm.HAAR_WAVELET),
]
NORM_IDS = ["l2", "sobolev_log", "h_delta", "multiscale", "sup"]


@pytest.mark.parametrize("spec, kind", NORM_CASES, ids=NORM_IDS)
def test_blocked_norm_with_center_equals_norm_of_difference(spec, kind):
    # K = 2^14 is the benchmark width, where a block holds 16 rows.  Row
    # counts: under one block, one block, and 2.5 blocks (a multiple of 8, on
    # which BLAS gemv gives sobolev_log rows the same kernels either way).
    b = BasisSpec(kind, 2 ** 14 if kind == sm.FOURIER_SINE else 13)
    step = sm.NORM_BLOCK_VALUES // b.size
    rng = np.random.default_rng(11)
    c = rng.standard_normal(b.size)
    for rows in (3, step, 2 * step + 8):
        X = rng.standard_normal((rows, b.size)) * 0.1 + c
        got = sm.norm(X, spec, b, center=c)
        assert got.shape == (rows,)
        assert np.array_equal(got, sm.norm(X - c, spec, b))
    x = X[0]
    assert sm.norm(x, spec, b, center=c) == sm.norm(x - c, spec, b)
    # Other row counts: the per-row norms are exact, gemv may move the last bit
    X = rng.standard_normal((2 * step + 5, b.size)) * 0.1 + c
    got, want = sm.norm(X, spec, b, center=c), sm.norm(X - c, spec, b)
    if spec.kind == "sobolev_log":
        assert np.allclose(got, want, rtol=1e-14, atol=0)
    else:
        assert np.array_equal(got, want)


@pytest.mark.parametrize("spec, kind", NORM_CASES, ids=NORM_IDS)
def test_blocked_norm_builds_no_draw_sized_temporary(spec, kind):
    b = BasisSpec(kind, 2 ** 14 if kind == sm.FOURIER_SINE else 13)
    X = np.zeros((2000, b.size))
    c = np.ones(b.size)
    tracemalloc.start()
    try:
        sm.norm(X, spec, b, center=c)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < X.nbytes / 20


@pytest.mark.parametrize("rows", [None, 1, 3, 17, 150])
def test_narrow_wavelet_array_reads_as_zero_padded(rows):
    # P = 256 columns (levels <= 7) of a K = 2048 basis; 150 rows span two
    # blocks of the padded array and one of the narrow one
    b = BasisSpec(sm.HAAR_WAVELET, 10)
    P, K = 256, b.size
    rng = np.random.default_rng(rows or 0)
    shape = (P,) if rows is None else (rows, P)
    # rows of scales 1e-2..1e2, so the multiscale norm of some rows comes
    # from the head and of others from the large tail of the dense center
    x = rng.standard_normal(shape) * 10.0 ** rng.uniform(-2, 2, shape[:-1] + (1,))
    wide = np.zeros(shape[:-1] + (K,))
    wide[..., :P] = x
    dense_tail = rng.standard_normal(K)
    dense_tail[P:] *= 50.0
    zero_tail = dense_tail.copy()
    zero_tail[P:] = 0.0
    zero_tail[P::3] = -0.0
    w = WeightSequence.power_law(0.5, b.max_index)
    for spec in (NormSpec.multiscale(w), NormSpec.sup(), NormSpec.l2()):
        for center in (None, zero_tail, dense_tail):
            got = sm.norm(x, spec, b, center=center)
            want = sm.norm(wide, spec, b, center=center)
            assert np.shape(got) == np.shape(want)
            assert np.asarray(got).tobytes() == np.asarray(want).tobytes(), (spec.kind, center)
    if rows is not None and rows >= 17:
        ms = sm.norm(x, NormSpec.multiscale(w), b, center=dense_tail)
        head = np.max(np.abs(x - dense_tail[:P]) / w.per_position(b)[:P], axis=-1)
        assert np.any(ms > head) and np.any(ms == head)

    cells = sm.haar_cell_values(x)
    assert cells.shape == shape
    assert np.array_equal(np.repeat(cells, K // P, axis=-1), sm.haar_cell_values(wide))
    grid = np.linspace(0.0, 1.0, 513)
    assert np.array_equal(sm.evaluate_function(x, grid, b), sm.evaluate_function(wide, grid, b))


def test_haar_cells_need_a_power_of_two_length():
    with pytest.raises(ValueError, match="power-of-two"):
        sm.haar_cell_values(np.ones(12))


def test_sobolev_norm_rejects_wavelet_basis():
    b = BasisSpec(sm.HAAR_WAVELET, 3)
    with pytest.raises(ValueError):
        sm.norm(np.ones(b.size), NormSpec.sobolev_log(-0.5, 2.1), b)


def test_weight_sequence_validation():
    with pytest.raises(ValueError):
        WeightSequence(np.array([1.0, 2.0, 1.5]))  # not monotone
    with pytest.raises(ValueError):
        WeightSequence(np.array([0.5, 1.0, 2.0]))  # below one
    w = WeightSequence.power_law(0.5, 6)
    assert w.values[0] == w.values[1]


# ---------------------------------------------------------------------------
# signal recipes
# ---------------------------------------------------------------------------

def test_power_sine_example_coefficients():
    b = BasisSpec(sm.FOURIER_SINE, 4)
    f = sm.power_sine_signal(1.5, 1.0, b)
    k = np.arange(1, 5, dtype=float)
    assert np.allclose(f.coeffs, k ** (-1.5) * np.sin(k))


def test_truncated_laplace_scaling_coefficient_is_one():
    b = BasisSpec(sm.HAAR_WAVELET, 6)
    f = sm.truncated_laplace_signal(0.5, 5.0, b)
    assert f.coeffs[0] == pytest.approx(1.0, abs=1e-12)


def test_truncated_laplace_coefficients_against_quadrature():
    b = BasisSpec(sm.HAAR_WAVELET, 4)
    f = sm.truncated_laplace_signal(0.5, 5.0, b)
    pdf = sm.TruncatedLaplace(0.5, 5.0).pdf
    for m in (1, 2, 5, 11, 20):
        l = int(math.floor(math.log2(m)))
        k = m - 2 ** l
        val, _ = quad(lambda x: pdf(x) * haar_psi(l, k, x),
                      k / 2 ** l, (k + 1) / 2 ** l, points=[(k + 0.5) / 2 ** l])
        assert f.coeffs[m] == pytest.approx(val, abs=1e-10)


def truth_by_levels(loc, scale, basis):
    """Reference: the truncated Laplace coefficients level by level, each
    level from the CDF at its own interval ends and midpoints."""
    dist = sm.TruncatedLaplace(loc, scale)
    out = np.empty(basis.size)
    out[0] = float(dist.cdf(1.0) - dist.cdf(0.0))
    for l in range(basis.max_index + 1):
        k = np.arange(2 ** l, dtype=float)
        a, mid, b = k / 2 ** l, (k + 0.5) / 2 ** l, (k + 1.0) / 2 ** l
        out[2 ** l: 2 ** (l + 1)] = 2.0 ** (l / 2.0) * (
            2 * dist.cdf(mid) - dist.cdf(a) - dist.cdf(b))
    return out


def test_truncated_laplace_equals_per_level_formula():
    pairs = [(0.5, 5.0), (0.3, 12.0)]
    for J in range(1, 17):
        b = BasisSpec(sm.HAAR_WAVELET, J)
        want = np.array([truth_by_levels(loc, scale, b) for loc, scale in pairs])
        for row, (loc, scale) in zip(want, pairs):
            assert np.array_equal(sm.truncated_laplace_signal(loc, scale, b).coeffs, row)
        grid = np.arange(b.size + 1) / b.size
        cdfs = np.array([sm.TruncatedLaplace(*pair).cdf(grid) for pair in pairs])
        assert np.array_equal(sm.haar_from_cdf(cdfs), want)


@pytest.mark.parametrize("G", [1, 3, 6, 9])
def test_haar_from_cdf_integrates_up_to_dyadic_t_exactly(G):
    # min(x, t) is the CDF of Lebesgue measure on [0, t], so its coefficients
    # a give psi_t(f) = int_0^t f = a @ f, which for t = m / 2^G is the sum
    # of the first m cell values of f over 2^G
    rng = np.random.default_rng(G)
    grid = np.arange(2 ** G + 1) / 2 ** G
    f = rng.standard_normal(2 ** G)
    cells = sm.haar_cell_values(f)
    stack = np.array([np.minimum(grid, m / 2 ** G) for m in range(2 ** G + 1)])
    coefs = sm.haar_from_cdf(stack)
    for m in range(2 ** G + 1):
        assert np.array_equal(coefs[m], sm.haar_from_cdf(stack[m]))
        assert abs(coefs[m] @ f - cells[:m].sum() / 2 ** G) <= 2e-14


def test_haar_from_cdf_needs_a_dyadic_grid():
    for points in (1, 4, 6):
        with pytest.raises(ValueError, match="dyadic"):
            sm.haar_from_cdf(np.linspace(0.0, 1.0, points))


def test_truncated_laplace_inverse_cdf_roundtrip():
    dist = sm.TruncatedLaplace(0.5, 5.0)
    u = np.linspace(1e-6, 1 - 1e-6, 101)
    assert np.allclose(dist.cdf(dist.ppf(u)), u, atol=1e-10)


def test_holder_spike_structure():
    b = BasisSpec(sm.HAAR_WAVELET, 5)
    n_m = 10.0 ** np.arange(4, 10)
    f = sm.holder_spike_signal(1.0, 2.0, 0.95, n_m, b)
    # reserved index per level carries the Hoelder envelope exactly
    for l in range(6):
        assert f.coeffs[2 ** (l + 1) - 1] == pytest.approx(2.0 * 2.0 ** (-l * 1.5))
    # non-reserved positions carry r sqrt(log n_m / n_m)
    assert f.coeffs[2] == pytest.approx(0.95 * math.sqrt(math.log(1e5) / 1e5))
    assert f.coeffs[0] == 0.0
    # the whole signal respects the Hoelder ball
    lev = sm.wavelet_levels(b)[1:]
    assert np.all(np.abs(f.coeffs[1:]) <= 2.0 * 2.0 ** (-lev * 1.5) + 1e-12)


def test_signal_recipes_reject_wrong_basis():
    with pytest.raises(ValueError, match="Fourier sine basis"):
        sm.power_sine_signal(1.5, 1.0, BasisSpec(sm.HAAR_WAVELET, 3))
    with pytest.raises(ValueError, match="Haar basis"):
        sm.truncated_laplace_signal(0.5, 5.0, BasisSpec(sm.FOURIER_SINE, 8))
    with pytest.raises(ValueError):
        sm.truncated_laplace_signal(0.5, -1.0, BasisSpec(sm.HAAR_WAVELET, 3))


# ---------------------------------------------------------------------------
# self-similarity
# ---------------------------------------------------------------------------

def brute_force_selfsim_l2(coeffs, beta, R, rho, eps, N0, N_max):
    for N in range(N0, N_max + 1):
        hi = min(int(math.ceil(rho * N)), coeffs.size)
        block = float(np.sum(coeffs[N - 1:hi] ** 2))
        if block < eps * R * N ** (-2.0 * beta):
            return False, N
    return True, None


def test_selfsim_l2_zero_signal():
    b = BasisSpec(sm.FOURIER_SINE, 100)
    f = sm.SignalCoefficients(b, np.zeros(100))
    ok, first = sm.check_self_similar_l2(f, 1.0, 1.0, 2.0, 0.05, 5, 40)
    assert not ok and first == 5


def test_selfsim_l2_power_law_and_sine_examples():
    K = 20001
    b = BasisSpec(sm.FOURIER_SINE, K)
    k = np.arange(1, K + 1, dtype=float)
    f = sm.SignalCoefficients(b, k ** (-1.5))
    ok, _ = sm.check_self_similar_l2(f, 1.0, 1.0, 2.0, 0.05, 2, 10 ** 4)
    assert ok
    g = sm.power_sine_signal(1.5, 1.0, b)
    ok, _ = sm.check_self_similar_l2(g, 1.0, 1.0, 2.0, 0.01, 10, 10 ** 4)
    assert ok


def test_selfsim_l2_matches_brute_force():
    K = 1000
    b = BasisSpec(sm.FOURIER_SINE, K)
    rng = np.random.default_rng(5)
    for trial in range(3):
        c = rng.standard_normal(K) * np.arange(1, K + 1, dtype=float) ** (-1.2)
        c[rng.integers(0, K, size=30)] = 0.0
        f = sm.SignalCoefficients(b, c)
        got = sm.check_self_similar_l2(f, 0.7, 1.0, 1.7, 0.3, 2, 400)
        want = brute_force_selfsim_l2(c, 0.7, 1.0, 1.7, 0.3, 2, 400)
        assert got == want


def test_selfsim_sup_low_frequency_only_fails():
    b = BasisSpec(sm.HAAR_WAVELET, 6)
    c = np.zeros(b.size)
    c[: 2 ** 3] = 1.0  # levels <= 2 only
    f = sm.SignalCoefficients(b, c)
    assert sm.sup_selfsim_margin(f, 1.0, 2) == 0.0


def test_selfsim_sup_envelope_signal():
    b = BasisSpec(sm.HAAR_WAVELET, 7)
    beta, R = 1.0, 1.0
    c = np.zeros(b.size)
    for l in range(b.max_index + 1):
        c[2 ** l] = R * 2.0 ** (-l * (beta + 0.5))
    f = sm.SignalCoefficients(b, c)
    # a single coefficient per level certifies eps = R 2^{-beta} (Haar c=1)
    assert sm.sup_selfsim_margin(f, beta, 1) >= R * 2.0 ** (-beta)


def test_selfsim_sup_laplace_scan():
    b = BasisSpec(sm.HAAR_WAVELET, 9)
    f = sm.truncated_laplace_signal(0.5, 5.0, b)
    margin = sm.sup_selfsim_margin(f, 1.4, 1, 8)
    assert margin > 0
    # widening the checked range can only lower the certified margin
    assert sm.sup_selfsim_margin(f, 1.4, 1) <= margin

