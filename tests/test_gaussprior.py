import math
import tracemalloc

import mpmath
import numpy as np
import pytest
from scipy.integrate import quad
from scipy.stats import expon, kstest, norm as norm_dist

from credlab import gaussprior as gp
from credlab import seqmodel as sm
from credlab.seqmodel import BasisSpec, NormSpec


def make_obs(n=500.0, K=256, seed=3, signal="sine"):
    b = BasisSpec(sm.FOURIER_SINE, K)
    if signal == "sine":
        f0 = sm.power_sine_signal(1.5, 1.0, b)
    else:
        f0 = sm.SignalCoefficients(b, np.zeros(K))
    return sm.observe(f0, n, seed)


# ---------------------------------------------------------------------------
# marginal likelihood
# ---------------------------------------------------------------------------

def test_marginal_loglik_high_precision_oracle():
    # Y = 0, n = 100, alpha = 1, K = 10: value is -(1/2) sum log(1 + 100/k^3)
    b = BasisSpec(sm.FOURIER_SINE, 10)
    obs = sm.NoisyObservation(b, np.zeros(10), 100.0, 0)
    mpmath.mp.dps = 50
    want = -mpmath.mpf(1) / 2 * mpmath.fsum(
        mpmath.log(1 + mpmath.mpf(100) / mpmath.mpf(k) ** 3) for k in range(1, 11))
    assert gp.marginal_loglik(obs, 1.0) == pytest.approx(float(want), abs=1e-12)


def test_marginal_loglik_large_alpha_limit():
    obs = make_obs(n=50.0, K=64, seed=1)
    n, y1 = obs.n, obs.y[0]
    want = -0.5 * (math.log1p(n) - n * n * y1 * y1 / (1 + n))
    assert gp.marginal_loglik(obs, 40.0) == pytest.approx(want, abs=1e-9)


def test_marginal_loglik_truncation_stability():
    # extended-truncation oracle: the K_max = 2n and K_max = 1e6 values agree
    # up to the noise fluctuation of the dropped tail, which scales like
    # n * K^{-2 alpha}; at n = 300 that is ~5e-3 for alpha = 1/2 and reaches
    # 1e-8 once alpha is ~2 or larger
    rng = np.random.default_rng(2)
    n = 300.0
    yfull = rng.standard_normal(10 ** 6) / math.sqrt(n)
    b1 = BasisSpec(sm.FOURIER_SINE, int(2 * n))
    b2 = BasisSpec(sm.FOURIER_SINE, 10 ** 6)
    o1 = sm.NoisyObservation(b1, yfull[: int(2 * n)], n, 0)
    o2 = sm.NoisyObservation(b2, yfull, n, 0)
    for alpha, tol in ((0.5, 2e-2), (1.0, 1e-4), (2.5, 1e-8)):
        l1, l2 = gp.marginal_loglik(o1, alpha), gp.marginal_loglik(o2, alpha)
        assert abs(l2 - l1) < tol
    assert gp.loglik_tail_bound(o1, 2.5) < 1e-9


def test_loglik_grid_in_place_blocks_are_exact_and_small():
    # a 100-point grid is one block of 64 points and a partial one of 36;
    # every value equals the formula on the whole grid, a fresh array per
    # operation, bit for bit, and the one-alpha evaluation.  A 400-point grid
    # holds its two block buffers (8 MB each at K = 2^14) and little else;
    # with a fresh array per operation it held 32 MB.
    obs = make_obs(n=2000.0, K=1 << 14, seed=5)
    k_log, ysq, n = gp._k_log(obs.y.size), obs.y ** 2, obs.n
    grid = np.linspace(0.01, 3.0, 100)
    vals = gp._loglik_grid(grid, k_log, ysq, n)
    pw = np.exp(np.minimum(np.outer(2.0 * grid + 1.0, k_log), gp._EXP_CLIP))
    want = -0.5 * np.sum(np.log1p(n / pw) - n * n * ysq / (pw + n), axis=1)
    assert vals.tobytes() == want.tobytes()
    assert [float(v) for v in vals] == [gp.marginal_loglik(obs, a) for a in grid]
    block_bytes = 64 * k_log.size * 8
    tracemalloc.start()
    try:
        gp._loglik_grid(np.linspace(0.01, 3.0, 400), k_log, ysq, n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2.5 * block_bytes


def test_empirical_bayes_zero_data_hits_boundary():
    b = BasisSpec(sm.FOURIER_SINE, 200)
    obs = sm.NoisyObservation(b, np.zeros(200), 150.0, 0)
    res = gp.empirical_bayes_alpha(obs)
    assert res.boundary_flag
    assert res.alpha_hat == pytest.approx(res.a_n, abs=0.05)


def test_empirical_bayes_matches_dense_grid_oracle():
    obs = make_obs(n=400.0, K=800, seed=11)
    res = gp.empirical_bayes_alpha(obs)
    dense = np.linspace(0.01, res.a_n, 10 ** 4)
    vals = [gp.marginal_loglik(obs, a) for a in dense]
    best = dense[int(np.argmax(vals))]
    assert abs(res.alpha_hat - best) <= dense[1] - dense[0]


def test_empirical_bayes_argmax_invariant_to_offset():
    # adding a constant to the objective cannot move the argmax: rerun the
    # optimizer on an observation whose likelihood is shifted by scaling
    obs = make_obs(n=400.0, K=512, seed=13)
    res = gp.empirical_bayes_alpha(obs)
    shifted = [gp.marginal_loglik(obs, a) + 123.456 for a in res.grid]
    assert int(np.argmax(shifted)) == int(np.argmax(res.loglik))


# ---------------------------------------------------------------------------
# posterior and sampling
# ---------------------------------------------------------------------------

def test_posterior_formula_example():
    b = BasisSpec(sm.FOURIER_SINE, 1)
    obs = sm.NoisyObservation(b, np.array([1.0]), 99.0, 0)
    post = gp.posterior(obs, 1.0)
    assert post.means[0] == pytest.approx(0.99)
    assert post.variances[0] == pytest.approx(0.01)


def test_posterior_invariants():
    obs = make_obs()
    post = gp.posterior(obs, 0.7)
    assert np.all(np.diff(post.variances) < 0)
    assert np.all(post.variances <= 1.0 / (1.0 + obs.n) + 1e-15)
    assert np.all(np.abs(post.means) <= np.abs(obs.y) + 1e-15)
    zero = gp.posterior(sm.NoisyObservation(obs.basis, np.zeros(obs.y.size), obs.n, 0), 1.0)
    assert np.all(zero.means == 0)


def test_posterior_conjugacy_brute_force_oracle():
    # grid Bayes (prior density x likelihood, numerically normalized) agrees
    # with the closed form to 1e-6 in CDF sup-norm for every k <= 50
    obs = make_obs(n=60.0, K=50, seed=21)
    alpha = 0.9
    post = gp.posterior(obs, alpha)
    for k in (1, 2, 7, 23, 50):
        mu, sd = post.means[k - 1], math.sqrt(post.variances[k - 1])
        grid = np.linspace(mu - 8 * sd, mu + 8 * sd, 40001)
        prior_var = float(k) ** (-2 * alpha - 1)
        logp = -0.5 * grid ** 2 / prior_var - 0.5 * obs.n * (obs.y[k - 1] - grid) ** 2
        p = np.exp(logp - logp.max())
        cdf = np.cumsum((p[1:] + p[:-1]) / 2)
        cdf = np.concatenate(([0.0], cdf / cdf[-1]))
        want = norm_dist.cdf(grid, mu, sd)
        assert np.max(np.abs(cdf - want)) < 1e-6


def test_sampling_determinism_and_law():
    obs = make_obs(n=200.0, K=64)
    post = gp.posterior(obs, 1.0)
    d1 = gp.sample(post, 50, 5)
    d2 = gp.sample(post, 50, 5)
    d3 = gp.sample(post, 50, 6)
    assert np.array_equal(d1.draws, d2.draws)
    assert not np.array_equal(d1.draws, d3.draws)
    # consecutive calls on one Generator continue its stream
    rng = np.random.default_rng(5)
    head, tail = gp.sample(post, 20, rng).draws, gp.sample(post, 30, rng).draws
    assert np.vstack([head, tail]).tobytes() == d1.draws.tobytes()
    big = gp.sample(post, 10 ** 4, 9).draws
    stat = kstest(big[:, 2], "norm", args=(post.means[2], math.sqrt(post.variances[2])))
    assert stat.pvalue > 0.001
    # moment checks at 4 Monte Carlo standard errors
    k = 5
    M = big.shape[0]
    se_mean = math.sqrt(post.variances[k] / M)
    assert abs(big[:, k].mean() - post.means[k]) < 4 * se_mean
    se_var = post.variances[k] * math.sqrt(2.0 / M)
    assert abs(big[:, k].var() - post.variances[k]) < 4 * se_var


def test_degenerate_variance_draws_collapse_to_means():
    obs = make_obs(n=1e12, K=16)
    post = gp.posterior(obs, 1.0)
    draws = gp.sample(post, 20, 0).draws
    assert np.allclose(draws, post.means, atol=1e-5)


def test_posterior_mean_matches_draw_average():
    obs = make_obs(n=100.0, K=32)
    post = gp.posterior(obs, 1.0)
    draws = gp.sample(post, 10 ** 5, 1).draws
    se = 4 * np.sqrt(post.variances / draws.shape[0])
    assert np.all(np.abs(draws.mean(axis=0) - post.means) < se + 1e-12)
    shrink = post.means / obs.y
    assert np.all(np.diff(shrink) < 1e-15)  # shrinkage factor decreasing in k


# ---------------------------------------------------------------------------
# hierarchical Bayes
# ---------------------------------------------------------------------------

def test_hierarchical_weights_normalized():
    hp = gp.hierarchical_marginal(make_obs())
    assert abs(hp.weights.sum() - 1.0) < 1e-12


def test_hierarchical_degenerate_hyperprior_concentrates():
    # an extreme exponential rate crushes the posterior onto the lowest cell
    hp = gp.hierarchical_marginal(make_obs(n=10.0, K=4, seed=2), rate=5e4)
    order = np.argsort(hp.grid)
    assert hp.weights[order[0]] > 0.95
    assert hp.weights[order[:3]].sum() > 0.999


def test_hierarchical_flat_likelihood_matches_hyperprior_quadrature():
    # a single stored coefficient makes l_n constant in alpha, so the grid
    # masses must reproduce the hyperprior restricted to [ALPHA_MIN, a_n]
    b = BasisSpec(sm.FOURIER_SINE, 1)
    obs = sm.NoisyObservation(b, np.zeros(1), 1.0, 0)
    rate = 1.0
    hp = gp.hierarchical_marginal(obs, rate)
    lo, hi = hp.grid[0], hp.grid[-1]
    total = expon.cdf(hi, scale=1 / rate) - expon.cdf(lo, scale=1 / rate)
    cum = np.cumsum(hp.weights)
    edges = np.concatenate((0.5 * (hp.grid[1:] + hp.grid[:-1]), [hi]))
    want = (expon.cdf(edges, scale=1 / rate) - expon.cdf(lo, scale=1 / rate)) / total
    assert np.max(np.abs(cum - want)) < 5e-3


def test_hierarchical_median_conventions():
    grid = np.linspace(0.1, 3.0, 601)
    logw = np.full(601, -math.log(601))
    hp = gp.HyperPosterior(grid, logw)
    assert gp.hierarchical_median(hp) == pytest.approx(grid[300])
    one = np.full(601, -np.inf)
    one[77] = 0.0
    hp2 = gp.HyperPosterior(grid, one)
    assert gp.hierarchical_median(hp2) == pytest.approx(grid[77])


def test_hierarchical_median_tracks_truth():
    b = BasisSpec(sm.FOURIER_SINE, 4096)
    f0 = sm.power_sine_signal(1.5, 1.0, b)
    meds = []
    for seed in range(5):
        hp = gp.hierarchical_marginal(sm.observe(f0, 2000.0, seed))
        meds.append(gp.hierarchical_median(hp))
    assert abs(np.mean(meds) - 1.0) < 0.35


def hierarchical_draws(hp, obs, M, seed):
    return next(gp.hierarchical_blocks(hp, obs, M, seed, M))


def test_hierarchical_draws_mixture_mean_and_determinism():
    obs = make_obs(n=50.0, K=32, seed=8)
    hp = gp.hierarchical_marginal(obs, grid_size=100)
    d1 = hierarchical_draws(hp, obs, 40, 3)
    d2 = hierarchical_draws(hp, obs, 40, 3)
    assert np.array_equal(d1, d2)
    big = hierarchical_draws(hp, obs, 2 * 10 ** 4, 4)
    want = gp.hierarchical_posterior_mean(hp, obs)
    se = 4 * big.std(axis=0) / math.sqrt(big.shape[0])
    assert np.all(np.abs(big.mean(axis=0) - want) <= se + 1e-12)


def test_hierarchical_draws_degenerate_matches_fixed_alpha():
    obs = make_obs(n=50.0, K=16, seed=9)
    grid = np.array([0.3, 1.1, 2.0])
    logw = np.array([-np.inf, 0.0, -np.inf])
    hp = gp.HyperPosterior(grid, logw)
    hier = hierarchical_draws(hp, obs, 5000, 11)
    post = gp.posterior(obs, 1.1)
    fixed = gp.sample(post, 5000, 12).draws
    # identical in law: compare a few coordinate means/variances
    for k in (0, 3, 15):
        se = 4 * math.sqrt(post.variances[k] / 5000)
        assert abs(hier[:, k].mean() - fixed[:, k].mean()) < 2 * se
        assert abs(hier[:, k].var() - fixed[:, k].var()) < 8 * post.variances[k] / math.sqrt(5000)


# ---------------------------------------------------------------------------
# projected-KL diagnostic
# ---------------------------------------------------------------------------

def test_kl_diagnostic_example_and_quadrature_oracle():
    b = BasisSpec(sm.FOURIER_SINE, 4)
    obs = sm.NoisyObservation(b, np.zeros(4), 10.0, 0)
    got = gp.kl_projection_diagnostic(obs, 1.0, 1)
    s2 = 10.0 / 11.0
    want = 0.5 * (s2 - 1.0 - math.log(s2))
    assert got == pytest.approx(want, abs=1e-15)
    # independent oracle: numerical integral of p log(p/q)
    p = norm_dist(0.0, math.sqrt(s2))
    q = norm_dist(0.0, 1.0)
    val, _ = quad(lambda x: p.pdf(x) * (p.logpdf(x) - q.logpdf(x)), -12, 12)
    assert got == pytest.approx(val, abs=1e-9)
    assert got == pytest.approx(0.00220, abs=5e-6)


def test_kl_diagnostic_vanishes_with_n():
    b = BasisSpec(sm.FOURIER_SINE, 8)
    y = np.full(8, 0.3)
    vals = [gp.kl_projection_diagnostic(sm.NoisyObservation(b, y, n, 0), 1.0, 4)
            for n in (1e2, 1e4, 1e6)]
    assert vals[0] > vals[1] > vals[2]
    assert vals[2] < 1e-3


def test_kl_diagnostic_below_paper_bound_randomized():
    rng = np.random.default_rng(6)
    b = BasisSpec(sm.FOURIER_SINE, 32)
    for _ in range(25):
        n = float(rng.uniform(5, 5000))
        y = rng.standard_normal(32)
        obs = sm.NoisyObservation(b, y, n, 0)
        alpha = float(rng.uniform(0.0, 2.5))
        J = int(rng.integers(1, 33))
        kl = gp.kl_projection_diagnostic(obs, alpha, J)
        assert kl >= 0.0
        assert kl <= gp.kl_projection_bound(obs, alpha, J) + 1e-12


def test_kl_diagnostic_average_nonincreasing_in_n():
    b = BasisSpec(sm.FOURIER_SINE, 64)
    f0 = sm.power_sine_signal(1.5, 1.0, b)
    means = []
    for n in (1e2, 1e3, 1e4):
        vals = [gp.kl_projection_diagnostic(sm.observe(f0, n, s), 1.0, 5)
                for s in range(40)]
        means.append(np.mean(vals))
    assert means[0] >= means[1] >= means[2]


# ---------------------------------------------------------------------------
# posterior-spread and prior self-similarity properties
# ---------------------------------------------------------------------------

def spread_bound_parts(alpha, s, eta, n):
    c = 1.0 + 1.0 / (2.0 * (alpha - s))
    thresh = (1.0 + eta) * c * n ** (-2.0 * (alpha - s) / (2.0 * alpha + 1.0))
    bound = math.exp(0.25) * math.exp(-(eta / math.sqrt(24.0)) * c * n ** (1.0 / (4.0 * alpha + 2.0)))
    return thresh, bound


@pytest.mark.parametrize("n", [500.0, 2000.0])
def test_exponential_spread_inequality(n):
    alpha, s, eta = 1.0, 0.5, 1.0
    K = sm.default_fourier_truncation(n)
    b = BasisSpec(sm.FOURIER_SINE, K)
    obs = sm.observe(sm.power_sine_signal(1.5, 1.0, b), n, 17)
    post = gp.posterior(obs, alpha)
    M = 10 ** 4
    rng = np.random.default_rng(18)
    w = sm.sobolev_log_weights(K, s, 0.0)
    frac = 0.0
    thresh, bound = spread_bound_parts(alpha, s, eta, n)
    for start in range(0, M, 2000):
        m = min(2000, M - start)
        zeta = rng.standard_normal((m, K))
        spread = (zeta * zeta * post.variances) @ w
        frac += np.sum(spread >= thresh) / M
    mcse = math.sqrt(max(frac, 1.0 / M) * (1 - min(frac, 1 - 1.0 / M)) / M)
    assert frac <= bound + 3 * mcse


def test_prior_draws_are_self_similar():
    # fixed-regularity prior draws satisfy the block-energy condition with
    # eps below (1 - rho^{-2 alpha}) / (2 alpha R), almost surely
    alpha, rho, R = 1.0, 2.0, 1.0
    eps = 0.05
    assert eps < (1 - rho ** (-2 * alpha)) / (2 * alpha * R)
    K = 4001
    b = BasisSpec(sm.FOURIER_SINE, K)
    k = np.arange(1, K + 1, dtype=float)
    sd = k ** (-(2 * alpha + 1) / 2.0)
    rng = np.random.default_rng(77)
    passed = 0
    for _ in range(500):
        f = sm.SignalCoefficients(b, sd * rng.standard_normal(K))
        ok, _ = sm.check_self_similar_l2(f, alpha, R, rho, eps, 50, 2000)
        passed += ok
    assert passed >= 495
