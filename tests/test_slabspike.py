import math

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.stats import ks_2samp, kstest, norm as norm_dist

from credlab import gaussprior as gp
from credlab import harness as hz
from credlab import seqmodel as sm
from credlab import slabspike as ss
from credlab.seqmodel import BasisSpec


def laplace_obs(n, seed=0):
    b = BasisSpec(sm.HAAR_WAVELET, sm.default_wavelet_truncation(n))
    f0 = sm.truncated_laplace_signal(0.5, 5.0, b)
    return f0, sm.observe(f0, n, seed)


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------

def test_config_rules():
    cfg = ss.SlabSpikeConfig()
    assert cfg.j0(200.0) == 3  # ceil(sqrt(log 200))
    assert cfg.jn(200.0) == 7
    assert cfg.j0(10.0) < cfg.j0(1e5) < cfg.j0(1e12)
    assert ss.SlabSpikeConfig(j0_level=2).j0(2000.0) == 2
    with pytest.raises(ValueError):
        ss.SlabSpikeConfig(tau=0.5)


def test_mixture_weight_band_and_crossover():
    cfg = ss.SlabSpikeConfig(tau=1.0)
    assert ss.K_FLOOR == 5.0
    n = 2000.0
    j = np.arange(1, 40)
    w = cfg.mixture_weight(j, n)
    assert np.all(w <= 0.5)
    assert np.all(w >= n ** (-5.0))
    # past this level the n^{-K} floor takes over from 2^{-j(1+tau)}
    cross = math.ceil(5.0 * math.log2(n) / 2.0)
    assert np.all(w[j > cross] == pytest.approx(n ** (-5.0)))
    assert np.all(w[(j <= cross) & (2.0 ** (-j * 2.0) <= 0.5)]
                  >= 2.0 ** (-j[(j <= cross) & (2.0 ** (-j * 2.0) <= 0.5)] * 2.0) - 1e-300)


# ---------------------------------------------------------------------------
# coordinate posterior
# ---------------------------------------------------------------------------

def test_coordinate_posterior_pure_cases():
    swt, mean, var = ss.coordinate_posterior(np.array([0.4]), 100.0, np.array([1.0]))
    assert swt[0] == 1.0
    assert mean[0] == pytest.approx(100.0 * 0.4 / 101.0)
    assert var[0] == pytest.approx(1.0 / 101.0)
    swt, _, _ = ss.coordinate_posterior(np.array([0.4]), 100.0, np.array([0.0]))
    assert swt[0] == 0.0


def test_coordinate_posterior_against_quadrature_oracle():
    # numeric normalization of w e^{-n(x-y)^2/2} g(x) + (1-w) delta_0
    y, n, w = 0.5, 100.0, 0.1
    g = norm_dist(0.0, 1.0)
    slab_mass, _ = quad(lambda x: w * math.exp(-0.5 * n * (x - y) ** 2) * g.pdf(x), -10, 10)
    spike_mass = (1 - w) * math.exp(-0.5 * n * y * y)
    want = slab_mass / (slab_mass + spike_mass)
    got, _, _ = ss.coordinate_posterior(np.array([y]), n, np.array([w]))
    assert got[0] == pytest.approx(want, abs=1e-8)


def test_posterior_zone_layout():
    f0, obs = laplace_obs(200.0, seed=1)
    post = ss.posterior(obs, ss.SlabSpikeConfig())
    assert post.j0 == 3
    lev = post.levels
    assert np.all(post.slab_weight[lev <= 3] == 1.0)
    mid = (lev > 3) & (lev <= post.jn)
    assert np.all((post.slab_weight[mid] > 0) & (post.slab_weight[mid] < 1))
    assert np.all(post.slab_weight[lev > post.jn] == 0.0)


def test_posterior_zero_data_favors_spike():
    n = 500.0
    b = BasisSpec(sm.HAAR_WAVELET, sm.default_wavelet_truncation(n))
    obs = sm.NoisyObservation(b, np.zeros(b.size), n, 0)
    post = ss.posterior(obs, ss.SlabSpikeConfig())
    cfg = post.config
    mid = (post.levels > post.j0) & (post.levels <= post.jn)
    prior_w = cfg.mixture_weight(post.levels[mid], n)
    assert np.all(post.slab_weight[mid] < prior_w)


def test_posterior_resolution_mismatch():
    n = 5000.0
    b = BasisSpec(sm.HAAR_WAVELET, 5)  # below Jn = 12
    obs = sm.NoisyObservation(b, np.zeros(b.size), n, 0)
    with pytest.raises(ValueError):
        ss.posterior(obs, ss.SlabSpikeConfig())


# ---------------------------------------------------------------------------
# sampling
# ---------------------------------------------------------------------------

def test_sampling_frequencies_and_truncation():
    f0, obs = laplace_obs(200.0, seed=2)
    post = ss.posterior(obs, ss.SlabSpikeConfig())
    M = 10 ** 4
    draws = next(ss.sample(post, M, 3, M))
    # the draws hold the levels <= Jn; past them the weight, so every draw, is 0
    head = 2 ** (post.jn + 1)
    assert draws.shape == (M, head) and np.all(post.levels[head:] > post.jn)
    assert np.all(post.slab_weight[head:] == 0.0)
    nonzero = (draws != 0).mean(axis=0)
    assert np.all(nonzero[post.slab_weight[:head] == 1.0] == 1.0)
    # slab draws are continuous, so the nonzero frequency estimates the slab
    # weight; check the handful of genuinely mixed coordinates at 4 MC se
    mixed = np.flatnonzero((post.slab_weight > 0.05) & (post.slab_weight < 0.95))[:10]
    se = np.sqrt(post.slab_weight[mixed] * (1 - post.slab_weight[mixed]) / M)
    assert np.all(np.abs(nonzero[mixed] - post.slab_weight[mixed]) <= 4 * se)
    again = next(ss.sample(post, M, 3, M))
    assert np.array_equal(draws, again)


def test_fitted_zone_matches_pure_gaussian_law():
    f0, obs = laplace_obs(500.0, seed=4)
    post = ss.posterior(obs, ss.SlabSpikeConfig())
    draws = next(ss.sample(post, 5000, 5, 5000))
    for pos in (0, 1, 2, 5):  # fitted-zone coordinates
        mu = post.slab_mean[pos]
        sd = math.sqrt(post.slab_var[pos])
        assert kstest(draws[:, pos], "norm", args=(mu, sd)).pvalue > 0.001


def test_factorized_posterior_cylinder_oracle():
    f0, obs = laplace_obs(200.0, seed=6)
    post = ss.posterior(obs, ss.SlabSpikeConfig())
    mid = np.flatnonzero((post.levels > post.j0) & (post.levels <= post.jn))
    coords = mid[[0, 3, 7]]
    want = (post.slab_weight[coords[0]] * post.slab_weight[coords[1]]
            * (1 - post.slab_weight[coords[2]]))
    rng = np.random.default_rng(8)
    M = 10 ** 6
    picks = rng.uniform(size=(M, 3)) < post.slab_weight[coords]
    hit = (picks[:, 0] & picks[:, 1] & ~picks[:, 2]).mean()
    assert abs(hit - want) < 4 * math.sqrt(want * (1 - want) / M)


# ---------------------------------------------------------------------------
# sparse slab draws against dense references
# ---------------------------------------------------------------------------

def reference_draws(post, rng, M):
    """Plain reference for the ``slab_picks`` stream: a dense M x 2^(Jn+1)
    matrix of uniforms over the levels <= Jn, then one normal per pick in
    row-major order, every other entry 0."""
    head = 2 ** (post.jn + 1)
    rows, cols = np.nonzero(rng.random((M, head)) < post.slab_weight[:head])
    z = rng.standard_normal(rows.size)
    draws = np.zeros((M, post.slab_weight.size))
    draws[rows, cols] = post.slab_mean[cols] + np.sqrt(post.slab_var[cols]) * z
    return draws


def dense_draws(post, rng, M):
    """The earlier dense sampler: M x K uniforms, then M x K normals, spike
    entries set to 0.  Its stream differs from ``slab_picks``; its law is
    the same."""
    pick = rng.uniform(size=(M, post.slab_weight.size)) < post.slab_weight
    gauss = post.slab_mean + np.sqrt(post.slab_var) * rng.standard_normal(pick.shape)
    return np.where(pick, gauss, 0.0)


def negative_bvm_calls():
    """Arguments of the two escaping-mass calls of one preset negative-BvM
    replication: (post, obs, w, radius, M, seed) for full thresholding and
    for the fitted zone, with K = 131072."""
    calls = []
    cfg = hz.ExperimentConfig.defaults("negative_bvm")
    cfg.reps = 1
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(hz, "_escaping_mass", lambda *a: calls.append(a) or 0.0)
        hz.run_negative_bvm(cfg)
    return calls


def band_posterior():
    _, obs = laplace_obs(2000.0, seed=3)
    return ss.posterior(obs, ss.SlabSpikeConfig())


@pytest.mark.parametrize("block_rows", [None, 3])
@pytest.mark.parametrize("shape", ["band", "negative_bvm"])
def test_sample_equals_dense_reference(monkeypatch, shape, block_rows):
    post = band_posterior() if shape == "band" else negative_bvm_calls()[1][0]
    head = 2 ** (post.jn + 1)
    if block_rows is not None:
        monkeypatch.setattr(ss, "BLOCK_VALUES", block_rows * head)
    step = max(1, ss.BLOCK_VALUES // head)
    M = 2 * step + 1 if step > 1 else 7   # a partial last block whenever blocks span rows
    ref = np.random.default_rng(11)
    want = reference_draws(post, ref, M)
    assert next(ss.sample(post, M, 11, M)).tobytes() == want[:, :head].tobytes()
    assert not np.any(want[:, head:])

    rng = np.random.default_rng(11)
    rows, cols, values = ss.slab_picks(post, rng, M)
    assert rng.bit_generator.state == ref.bit_generator.state
    assert np.all(np.diff(rows) >= 0)
    assert values.tobytes() == want[rows, cols].tobytes()


def test_sampling_law_matches_dense_sampler():
    """The sparse sampler and the earlier dense one draw the same law: at
    the mixed coordinates both pick frequencies lie within 4 binomial SE of
    the slab weight and the slab values agree in distribution, and neither
    touches a level above Jn.  The data ramp across the selection threshold
    on every middle level, so that many coordinates are mixed."""
    n, cfg = 200.0, ss.SlabSpikeConfig()
    b = BasisSpec(sm.HAAR_WAVELET, sm.default_wavelet_truncation(n))
    y = np.zeros(b.size)
    for level in range(cfg.j0(n) + 1, cfg.jn(n) + 1):
        y[sm.level_slice(level)] = np.linspace(0.0, 6.0, 2 ** level) * math.sqrt(math.log(n) / n)
    post = ss.posterior(sm.NoisyObservation(b, y, n, 0), cfg)
    M = 8000
    sparse = next(ss.sample(post, M, 13, M))
    rng = np.random.default_rng(14)
    dense = np.vstack([dense_draws(post, rng, 1000) for _ in range(M // 1000)])
    head = 2 ** (post.jn + 1)
    assert sparse.shape == (M, head) and np.all(post.levels[head:] > post.jn)
    assert np.all(dense[:, post.levels > post.jn] == 0.0)
    mixed = np.flatnonzero((post.slab_weight > 0.05) & (post.slab_weight < 0.95))
    assert mixed.size >= 20
    se = np.sqrt(post.slab_weight[mixed] * (1 - post.slab_weight[mixed]) / M)
    for draws in (sparse, dense):
        freq = (draws[:, mixed] != 0).mean(axis=0)
        assert np.all(np.abs(freq - post.slab_weight[mixed]) <= 4 * se)
    k = mixed[np.argmax(post.slab_weight[mixed])]
    assert ks_2samp(sparse[sparse[:, k] != 0, k], dense[dense[:, k] != 0, k]).pvalue > 0.001


def test_escaping_mass_equals_dense_reference():
    """``_escaping_mass`` equals the escaping share of the same draws
    evaluated densely.  Cases: both preset posteriors at the preset radius,
    where a handful of coordinates are far from the data even at 0, and the
    band posterior of a zero signal at a radius no unpicked coordinate
    reaches."""
    cases = [(post, obs, w, radius) for post, obs, w, radius, _, _
             in negative_bvm_calls()]
    basis = BasisSpec(sm.HAAR_WAVELET, sm.default_wavelet_truncation(2000.0))
    obs = sm.observe(sm.SignalCoefficients(basis, np.zeros(basis.size)), 2000.0, 4)
    post = ss.posterior(obs, ss.SlabSpikeConfig())
    w = sm.WeightSequence.power_law(0.5, basis.max_index)
    cases.append((post, obs, w, float(np.max(np.abs(obs.y) / w.per_position(basis))) * 1.05))
    far = [int(np.sum(np.abs(0.0 - o.y) / w_.per_position(o.basis) >= r))
           for _, o, w_, r in cases]
    assert far[0] > 0 and far[1] > 0 and far[2] == 0
    masses = []
    for post, obs, w, radius in cases:
        draws = reference_draws(post, np.random.default_rng(21), 50)
        d = np.abs(draws - obs.y) / w.per_position(obs.basis)
        got = hz._escaping_mass(post, obs, w, radius, 50, 21)
        assert got == np.sum(d.max(axis=1) >= radius) / 50
        masses.append(got)
    assert 0.0 < masses[1] < 1.0 and 0.0 < masses[2] < 1.0


# ---------------------------------------------------------------------------
# posterior median
# ---------------------------------------------------------------------------

def test_median_spike_absorbs_half_mass():
    med = ss._mixture_median(np.array([0.4]), np.array([0.1]), np.array([0.2]))
    assert med[0] == 0.0


def test_median_slab_weight_one_gives_mean():
    med = ss._mixture_median(np.array([1.0]), np.array([-0.3]), np.array([0.5]))
    assert med[0] == pytest.approx(-0.3)


@pytest.mark.parametrize("sw,mu,sd", [(0.7, 0.8, 0.3), (0.9, -0.5, 0.2),
                                      (0.55, 0.05, 0.02), (0.6, -2.0, 1.0)])
def test_median_against_grid_inversion(sw, mu, sd):
    xs = np.linspace(mu - 8 * sd - 1, mu + 8 * sd + 1, 10 ** 6 + 1)
    F = sw * norm_dist.cdf(xs, mu, sd) + (1 - sw) * (xs >= 0)
    inv = xs[np.searchsorted(F, 0.5)]
    med = ss._mixture_median(np.array([sw]), np.array([mu]), np.array([sd]))[0]
    assert med == pytest.approx(inv, abs=1e-5)
    # closed form solves F(m) = 1/2 exactly
    Fm = sw * norm_dist.cdf(med, mu, sd) + (1 - sw) * (med >= 0)
    assert Fm == pytest.approx(0.5, abs=1e-7)


@pytest.mark.parametrize("sw", [1e-300, 0.5, 0.5 + 2 ** -52, 0.75, 1.0])
@pytest.mark.parametrize("ratio", [-1e14, -40.0, 0.0, 8.5, 40.0, 1e14])
@pytest.mark.parametrize("sd", [1e-8, 1.0])
def test_median_finite_and_solves_half_at_extremes(sw, ratio, sd):
    # the clipped closed form stays finite however far the slab sits from the
    # atom: F brackets 1/2 within h of m, h wide enough for the rounding of
    # mean + sd t at |mean| / sd = 1e14
    mean = ratio * sd
    med = ss._mixture_median(np.array([sw]), np.array([mean]), np.array([sd]))[0]
    assert np.isfinite(med)

    def F(x):
        return sw * norm_dist.cdf(x, mean, sd) + (1 - sw) * (x >= 0)

    h = 1e-9 * sd + 1e-15 * abs(mean)
    assert F(med - h) - 1e-15 <= 0.5 <= F(med + h) + 1e-15


def test_threshold_estimate_support_structure():
    f0, obs = laplace_obs(500.0, seed=9)
    post = ss.posterior(obs, ss.SlabSpikeConfig())
    est = ss.posterior_median(post)
    assert np.all(est.support[post.levels <= post.j0])
    assert not np.any(est.support[post.levels > post.jn])
    assert np.array_equal(est.support, est.median_coeffs != 0)


# ---------------------------------------------------------------------------
# efficient estimators
# ---------------------------------------------------------------------------

def test_efficient_estimator_definitions():
    f0, obs = laplace_obs(200.0, seed=11)
    post = ss.posterior(obs, ss.SlabSpikeConfig())
    est = ss.posterior_median(post)
    t1 = ss.efficient_estimator(obs, est, post, 1)
    t2 = ss.efficient_estimator(obs, est, post, 2)
    lev = post.levels
    fitted = lev <= post.j0
    assert np.array_equal(t1[fitted], obs.y[fitted])
    assert np.allclose(t2[fitted], post.slab_mean[fitted])
    mid = (lev > post.j0) & (lev <= post.jn)
    assert np.array_equal(t1[mid], obs.y[mid] * est.support[mid])
    assert np.all(t1[lev > post.jn] == 0.0)
    with pytest.raises(ValueError):
        ss.efficient_estimator(obs, est, post, 3)


def test_efficient_estimator_stays_close_to_shift():
    # sqrt(n) ||T1 - Y||_M stays small and drops once the fitted zone grows
    # (j0 = 3 at n = 500 and 2000, j0 = 4 past n ~ 8100, so the decrease is
    # visible at n = 8200 rather than between 500 and 2000)
    meds = {}
    for n in (500.0, 2000.0, 8200.0):
        b = BasisSpec(sm.HAAR_WAVELET, sm.default_wavelet_truncation(n))
        f0 = sm.truncated_laplace_signal(0.5, 5.0, b)
        w = sm.WeightSequence.power_law(1.0, b.max_index)
        spec = sm.NormSpec.multiscale(w)
        vals = []
        for rep in range(50):
            obs = sm.observe(f0, n, 1000 + rep)
            post = ss.posterior(obs, ss.SlabSpikeConfig())
            est = ss.posterior_median(post)
            t1 = ss.efficient_estimator(obs, est, post, 1)
            vals.append(float(sm.norm(t1 - obs.y, spec, b)) * math.sqrt(n))
        meds[n] = float(np.median(vals))
    assert meds[2000.0] < 0.5
    assert meds[8200.0] < meds[500.0]


def test_support_recovery_with_pilot_constants():
    # pilot run calibrates the selection thresholds; a fresh run verifies that
    # coefficients above gamma_hi sqrt(log n/n) are kept and middle-level
    # coefficients below gamma_lo/4 sqrt(log n/n) are dropped, 90% of the time
    n = 2000.0
    cfg = ss.SlabSpikeConfig()
    b = BasisSpec(sm.HAAR_WAVELET, sm.default_wavelet_truncation(n))
    j0, jn = cfg.j0(n), cfg.jn(n)
    unit = math.sqrt(math.log(n) / n)
    level = j0 + 2
    sizes = np.linspace(0.0, 6.0, 2 ** level)
    coef = np.zeros(b.size)
    coef[sm.level_slice(level)] = sizes * unit
    f0 = sm.SignalCoefficients(b, coef)
    positions = np.arange(2 ** level, 2 ** (level + 1))

    def selection_freq(seed0, reps=60):
        freq = np.zeros(2 ** level)
        for rep in range(reps):
            obs = sm.observe(f0, n, seed0 + rep)
            est = ss.posterior_median(ss.posterior(obs, cfg))
            freq += est.support[positions]
        return freq / reps

    pilot = selection_freq(10_000)
    kept = sizes[pilot >= 0.9]
    dropped = sizes[pilot <= 0.1]
    assert kept.size and dropped.size
    step = sizes[1] - sizes[0]
    gamma_hi = float(kept.min()) + step      # one grid step above the boundary
    gamma_lo = float(dropped.max())          # below this, selection is rare
    fresh = selection_freq(20_000)
    assert np.all(fresh[sizes >= gamma_hi] >= 0.9 - 0.05)
    assert np.all(fresh[sizes <= gamma_lo / 4.0] <= 0.1 + 0.05)
