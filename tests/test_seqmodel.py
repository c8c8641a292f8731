import math

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
    vals = sm.haar_cell_values(f.coeffs, b)
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

