import math

import numpy as np
import pytest
from scipy.stats import beta as beta_dist, kstest

from credlab import dirichlethist as dh
from credlab import seqmodel as sm


def test_default_resolution():
    # 2^L nearest (n/log n)^{1/3.8}
    assert dh.default_resolution(5000) == 2
    assert dh.default_resolution(10000) == 3
    assert dh.default_resolution(50) >= 1


def test_sampler_moments_and_cdf():
    x = dh.sample_iid_laplace(10 ** 5, 42)
    assert np.all((x >= 0) & (x <= 1))
    # symmetric about 1/2
    sd = x.std()
    assert abs(x.mean() - 0.5) < 4 * sd / math.sqrt(x.size)
    stat = kstest(x, sm.TruncatedLaplace(0.5, 5.0).cdf)
    assert stat.pvalue > 0.01
    assert np.array_equal(x, dh.sample_iid_laplace(10 ** 5, 42))


def test_bin_counts_examples():
    counts = dh.bin_counts(np.array([0.1, 0.6, 0.7]), 1)
    assert np.array_equal(counts, [1, 2])
    assert np.array_equal(dh.bin_counts(np.full(5, 0.3), 2), [0, 5, 0, 0])
    assert dh.bin_counts(np.array([0.0]), 3)[0] == 1
    rng = np.random.default_rng(0)
    x = rng.uniform(size=1000)
    assert dh.bin_counts(x, 4).sum() == 1000


def test_posterior_conjugacy():
    post = dh.posterior(np.array([3, 1]))
    assert np.array_equal(post.concentrations, [4.0, 2.0])
    flat = dh.posterior(np.zeros(4, dtype=int))
    assert np.array_equal(flat.concentrations, np.ones(4))
    with pytest.raises(ValueError):
        dh.posterior(np.array([-1, 2]))


def test_posterior_matches_beta_oracle():
    # L = 1, n <= 5: h_1 | data ~ Beta(1 + N1, 1 + N2); grid Bayes to 1e-8
    for counts in ([0, 0], [1, 0], [3, 2], [5, 0], [2, 3]):
        N1, N2 = counts
        grid = np.linspace(0.0, 1.0, 2 * 10 ** 5 + 1)
        like = grid ** N1 * (1 - grid) ** N2  # flat Dirichlet prior
        cdf = np.cumsum((like[1:] + like[:-1]) / 2)
        cdf = np.concatenate(([0.0], cdf / cdf[-1]))
        want = beta_dist.cdf(grid, 1 + N1, 1 + N2)
        assert np.max(np.abs(cdf - want)) < 1e-8


def test_posterior_mean_against_sampled_heights():
    counts = np.array([10, 3, 1, 6])
    post = dh.posterior(counts)
    M = 10 ** 5
    hs = dh.sample_heights(post, M, 7)
    assert np.allclose(hs.sum(axis=1), 1.0)
    se = 4 * hs.std(axis=0) / math.sqrt(M)
    assert np.all(np.abs(hs.mean(axis=0) - post.mean_heights()) < se)


def test_haar_coefficients_uniform_and_halves():
    L = 3
    uni = dh.haar_coefficients(np.full(2 ** L, 2.0 ** (-L)), L)
    assert uni[0] == pytest.approx(1.0)
    assert np.allclose(uni[1:], 0.0)
    # density concentrated on the left half: positive level-0 coefficient
    # under the left-positive Haar convention
    h = dh.haar_coefficients(np.array([1.0, 0.0]), 1)
    assert h[0] == pytest.approx(1.0)
    assert h[1] == pytest.approx(1.0)


def test_haar_coefficients_parseval():
    L = 4
    rng = np.random.default_rng(3)
    h = rng.dirichlet(np.ones(2 ** L))
    coefs = dh.haar_coefficients(h, L)
    f = 2.0 ** L * h  # density values per bin
    assert np.sum(coefs ** 2) == pytest.approx(np.mean(f ** 2), rel=1e-12)


def test_haar_coefficients_match_exact_signal_restriction():
    # bin probabilities of the truth reproduce its exact low-level coefficients
    L = 3
    dist = sm.TruncatedLaplace(0.5, 5.0)
    edges = np.arange(2 ** L + 1) / 2 ** L
    p = np.diff(dist.cdf(edges))
    got = dh.haar_coefficients(p / p.sum(), L)
    truth = sm.truncated_laplace_signal(0.5, 5.0, dh.haar_basis_for(L))
    assert np.allclose(got, truth.coeffs, atol=1e-12)


def heights_by_levels(heights, L):
    """Reference: the histogram's Haar coefficients level by level, from
    the cumulative bin mass at each interval's ends and midpoint."""
    h = np.atleast_2d(heights)
    css = np.concatenate([np.zeros((h.shape[0], 1)), np.cumsum(h, axis=1)], axis=1)
    out = np.empty((h.shape[0], 2 ** L))
    out[:, 0] = css[:, -1]
    for l in range(L):
        width = 2 ** (L - l)
        a = np.arange(2 ** l) * width
        out[:, 2 ** l: 2 ** (l + 1)] = 2.0 ** (l / 2.0) * (
            2 * css[:, a + width // 2] - css[:, a] - css[:, a + width])
    return out


@pytest.mark.parametrize("L", range(2, 9))
def test_haar_coefficients_equal_per_level_formula(L):
    rng = np.random.default_rng(L)
    h = rng.dirichlet(np.ones(2 ** L), size=7)
    assert np.array_equal(dh.haar_coefficients(h, L), heights_by_levels(h, L))
    assert np.array_equal(dh.haar_coefficients(h[3], L), heights_by_levels(h[3], L)[0])


def test_haar_coefficients_round_trip_to_densities():
    for L in (1, 4, 7):
        h = np.random.default_rng(L).dirichlet(np.ones(2 ** L), size=5)
        cells = sm.haar_cell_values(dh.haar_coefficients(h, L))
        assert np.max(np.abs(cells - 2.0 ** L * h)) <= 2e-14 * 2.0 ** L


def test_haar_coefficients_shape_and_simplex_check():
    L = 2
    coeffs = dh.haar_coefficients(np.array([0.2, 0.3, 0.4, 0.1]), L)
    assert dh.haar_basis_for(L).max_index == L - 1
    assert coeffs.shape == (2 ** L,)
    with pytest.raises(ValueError):
        dh.haar_coefficients(np.array([0.5, 0.2]), 1)  # not a simplex point
