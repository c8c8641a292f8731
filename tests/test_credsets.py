import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from credlab import credsets as cset
from credlab import gaussprior as gp
from credlab import seqmodel as sm
from credlab import slabspike as ss
from credlab.credsets import (
    CredibleSetSpec,
    build_set,
    calibrate_radius,
    diameter_estimate,
    sigma_band_width,
)
from credlab.seqmodel import BasisSpec, NormSpec, WeightSequence


def eb_setup(n=500.0, K=512, seed=3, M=400, prior="eb"):
    b = BasisSpec(sm.FOURIER_SINE, K)
    f0 = sm.power_sine_signal(1.5, 1.0, b)
    obs = sm.observe(f0, n, seed)
    fitted = cset.fit(obs, prior)
    return obs, fitted, fitted.sample(M, seed + 1).draws


# ---------------------------------------------------------------------------
# radius calibration
# ---------------------------------------------------------------------------

def test_calibrate_radius_hand_enumerated():
    # distances {1,2,3,4,5} at gamma = 0.2: ceil(0.8*5) = 4th smallest
    center = np.zeros(1)
    draws = np.array([[1.0], [-2.0], [3.0], [-4.0], [5.0]])
    draws = np.repeat(draws, 4, axis=0)  # 20 draws, same distance multiset
    r = calibrate_radius(draws, center, NormSpec.l2(), 0.2)
    assert r == 4.0


def test_calibrate_radius_extreme_gamma_is_max():
    rng = np.random.default_rng(0)
    draws = rng.standard_normal((50, 3))
    r = calibrate_radius(draws, np.zeros(3), NormSpec.l2(), 1e-9)
    dmax = np.sqrt((draws ** 2).sum(axis=1)).max()
    assert r == pytest.approx(dmax)
    with pytest.raises(ValueError):
        calibrate_radius(draws[:10], np.zeros(3), NormSpec.l2(), 0.1)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10 ** 6))
def test_calibrate_radius_monotone_in_gamma(seed):
    rng = np.random.default_rng(seed)
    draws = rng.standard_normal((60, 4))
    center = rng.standard_normal(4)
    radii = [calibrate_radius(draws, center, NormSpec.l2(), g)
             for g in (0.5, 0.2, 0.1, 0.02)]
    assert all(a <= b for a, b in zip(radii, radii[1:]))


def test_self_consistency_on_calibration_draws():
    obs, fitted, draws = eb_setup()
    for gamma in (0.05, 0.25):
        spec = CredibleSetSpec(cset.H_DELTA_BALL, gamma)
        cs = build_set(spec, draws, fitted)
        inside = cs.membership(draws)
        assert inside.sum() == math.ceil((1 - gamma) * draws.shape[0])


def band_setup(n=500.0, seed=21, draw_seed=5, M=300):
    b = BasisSpec(sm.HAAR_WAVELET, sm.default_wavelet_truncation(n))
    f0 = sm.truncated_laplace_signal(0.5, 5.0, b)
    obs = sm.observe(f0, n, seed)
    fitted = cset.fit(obs, "slabspike")
    return obs, fitted, fitted.sample(M, draw_seed).draws


@pytest.mark.parametrize("variant", [cset.H_DELTA_EB, cset.H_DELTA_HB, cset.L2_BALL,
                                     cset.MULTISCALE_BAND, cset.SUP_BALL])
def test_shared_levels_equal_per_level_sets(variant):
    gammas = (0.05, 0.1, 0.2)
    if variant in (cset.MULTISCALE_BAND, cset.SUP_BALL):
        obs, fitted, draws = band_setup()
        w = WeightSequence.power_law(0.5, obs.basis.max_index)
        spec = CredibleSetSpec(variant, gammas[0], weights=w,
                               center_rule=cset.CENTER_EFFICIENT)
    else:
        obs, fitted, draws = eb_setup(prior="hb" if variant == cset.H_DELTA_HB else "eb")
        spec = CredibleSetSpec(variant, gammas[0])
    fresh = fitted.sample(300, 99).draws
    sets = build_set(spec, draws, fitted, gammas)
    shared = sets[0].membership(fresh, [s.radius for s in sets])
    assert shared.shape == (len(gammas), fresh.shape[0])
    for g, cs, row in zip(gammas, sets, shared):
        assert cs.spec.gamma == g
        assert (cs.center is sets[0].center and cs.second is sets[0].second
                and cs.band is sets[0].band)
        assert cs.radius == calibrate_radius(draws, cs.center, cs.primary_norm, g,
                                             obs.basis)
        one = build_set(dataclasses.replace(spec, gamma=g), draws, fitted)
        assert one.radius == cs.radius
        assert np.array_equal(row, one.membership(fresh))
        want = sm.norm(fresh - cs.center, cs.primary_norm, obs.basis) <= cs.radius
        if cs.second is not None:
            want &= sm.norm(fresh - cs.second.center, cs.second.norm_spec,
                            obs.basis) <= cs.second.radius
        if cs.band is not None:
            want &= sm.norm(fresh - cs.band.center, NormSpec.sup(),
                            obs.basis) <= cs.band.sigma
        assert np.array_equal(row, want)
    assert 0 < shared[0].sum() < fresh.shape[0]


# ---------------------------------------------------------------------------
# geometry assembly
# ---------------------------------------------------------------------------

def test_primary_radius_identical_for_intersected_variant():
    obs, fitted, draws = eb_setup()
    plain = build_set(CredibleSetSpec(cset.H_DELTA_BALL, 0.1), draws, fitted)
    inter = build_set(CredibleSetSpec(cset.H_DELTA_EB, 0.1), draws, fitted)
    assert plain.radius == inter.radius
    assert inter.second is not None
    assert inter.second.radius == pytest.approx(math.sqrt(math.log(obs.n)))


def test_hb_variant_needs_median():
    # the HB constraint reads the hyperposterior median, so an EB fit, whose
    # alpha_hat is the likelihood maximizer, is refused
    obs, fitted, draws = eb_setup()
    with pytest.raises(ValueError, match="hierarchical Bayes fit"):
        build_set(CredibleSetSpec(cset.H_DELTA_HB, 0.1), draws, fitted)
    hb = dataclasses.replace(cset.fit(obs, "hb"), alpha_hat=1.0)
    cs = build_set(CredibleSetSpec(cset.H_DELTA_HB, 0.1), draws, hb)
    want_exponent = 1.0 - 2.0 / math.log(obs.n)
    assert cs.second.norm_spec.s == pytest.approx(want_exponent)
    assert cs.second.radius == pytest.approx(math.log(math.log(obs.n))
                                             * math.sqrt(math.log(obs.n)))


def test_membership_and_binding_constraint():
    obs, fitted, draws = eb_setup()
    cs = build_set(CredibleSetSpec(cset.H_DELTA_BALL, 0.1), draws, fitted)
    assert cs.contains(cs.center).member
    # construct a point just outside the ball along the first coordinate:
    # the H(delta) weight of k=1 equals one, so the needed bump is the radius
    bump = np.zeros(obs.y.size)
    bump[0] = cs.radius * 1.01
    rep = cs.contains(cs.center + bump)
    assert not rep.member and rep.binding_constraint == "primary"
    assert rep.distances["primary"] == pytest.approx(cs.radius * 1.01)


def test_intersected_credibility_never_exceeds_plain():
    obs, fitted, draws = eb_setup()
    fresh = fitted.sample(300, 99).draws
    for gamma in (0.05, 0.2):
        plain = build_set(CredibleSetSpec(cset.H_DELTA_BALL, gamma), draws, fitted)
        inter = build_set(CredibleSetSpec(cset.H_DELTA_EB, gamma), draws, fitted)
        assert (inter.membership(fresh).mean()
                <= plain.membership(fresh).mean() + 1e-12)


def test_fresh_draw_credibility_near_nominal():
    obs, fitted, draws = eb_setup(n=500.0, K=2048, M=2000)
    fresh = fitted.sample(2000, 1234).draws
    cs = build_set(CredibleSetSpec(cset.H_DELTA_EB, 0.05), draws, fitted)
    assert cs.membership(fresh).mean() == pytest.approx(0.95, abs=0.01)


# ---------------------------------------------------------------------------
# band width sigma
# ---------------------------------------------------------------------------

def test_sigma_empty_and_single_support():
    b = BasisSpec(sm.HAAR_WAVELET, 4)
    n, vn = 200.0, 1.7
    none = np.zeros(b.size, dtype=bool)
    assert sigma_band_width(none, b, n, vn) == 0.0
    only_psi00 = none.copy()
    only_psi00[1] = True
    want = vn * math.sqrt(math.log(n) / n)  # sup |psi_00| = 1
    assert sigma_band_width(only_psi00, b, n, vn) == pytest.approx(want)


def test_sigma_accumulates_levels():
    b = BasisSpec(sm.HAAR_WAVELET, 3)
    n, vn = 500.0, 1.0
    sup = np.zeros(b.size, dtype=bool)
    sup[0] = True   # scaling, |phi| = 1
    sup[1] = True   # level 0
    sup[2] = True   # level 1, k = 0: adds 2^{1/2} on the left quarter
    want = vn * math.sqrt(math.log(n) / n) * (1 + 1 + math.sqrt(2.0))
    assert sigma_band_width(sup, b, n, vn) == pytest.approx(want)


def test_multiscale_band_assembly():
    obs, fitted, draws = band_setup()
    est = fitted.threshold
    w = WeightSequence.power_law(0.5, obs.basis.max_index)
    cs = build_set(CredibleSetSpec(cset.MULTISCALE_BAND, 0.05, weights=w), draws, fitted)
    assert cs.band is not None and cs.band.sigma > 0
    assert np.array_equal(cs.band.center, np.where(est.support, obs.y, 0.0))


# ---------------------------------------------------------------------------
# diameter and pointwise bands
# ---------------------------------------------------------------------------

def test_diameter_zero_for_identical_draws():
    b = BasisSpec(sm.FOURIER_SINE, 8)
    obs = sm.NoisyObservation(b, np.zeros(8), 10.0, 0)
    draws = np.tile(np.linspace(0, 1, 8), (30, 1))
    cs = build_set(CredibleSetSpec(cset.L2_BALL, 0.1), draws, cset.fit(obs, "fixed:1.0"))
    assert diameter_estimate(cs, draws, NormSpec.l2()) == 0.0


def test_diameter_triangle_bound_for_band():
    n = 500.0
    b = BasisSpec(sm.HAAR_WAVELET, sm.default_wavelet_truncation(n))
    f0 = sm.truncated_laplace_signal(0.5, 5.0, b)
    obs = sm.observe(f0, n, 22)
    fitted = cset.fit(obs, "slabspike")
    draws = fitted.sample(400, 6).draws
    w = WeightSequence.power_law(0.5, b.max_index)
    cs = build_set(CredibleSetSpec(cset.MULTISCALE_BAND, 0.05, weights=w), draws, fitted)
    pool = draws[:200]
    members = pool[cs.membership(pool)]
    dists = sm.norm(members - cs.band.center, NormSpec.sup(), b)
    diam = diameter_estimate(cs, pool, NormSpec.sup())
    assert diam <= 2 * cs.band.sigma + 1e-9
    assert diam <= 2 * float(np.max(dists)) + 1e-9


def test_pointwise_band_degenerate_and_dominated():
    n = 500.0
    b = BasisSpec(sm.HAAR_WAVELET, sm.default_wavelet_truncation(n))
    f0 = sm.truncated_laplace_signal(0.5, 5.0, b)
    obs = sm.observe(f0, n, 23)
    post = ss.posterior(obs, ss.SlabSpikeConfig())
    grid = np.linspace(0, 1, 33)
    const = np.tile(obs.y, (40, 1))
    lo, hi = cset.pointwise_band(const, b, grid, 0.1)
    assert np.allclose(lo, hi)
    draws = ss.sample(post, 500, 7).draws
    lo, hi = cset.pointwise_band(draws, b, grid, 0.1)
    vals = sm.evaluate_function(draws, grid, b)
    mean_vals = vals.mean(axis=0)
    sup_d = np.max(np.abs(vals - mean_vals), axis=1)
    q = np.sort(sup_d)[math.ceil(0.9 * 500) - 1]
    # the joint sup-band dominates the pointwise band everywhere
    assert np.all(hi - lo <= 2 * q + 1e-9)


# ---------------------------------------------------------------------------
# empirical properties from the theory
# ---------------------------------------------------------------------------

def test_oversmoothed_pointwise_band_misses_the_peak():
    # a prior fitting only the lowest levels yields tight pointwise intervals
    # whose bias at the density peak exceeds their width already at n = 200
    n = 200.0
    b = BasisSpec(sm.HAAR_WAVELET, sm.default_wavelet_truncation(n))
    f0 = sm.truncated_laplace_signal(0.5, 5.0, b)
    peak_val = float(sm.TruncatedLaplace(0.5, 5.0).pdf(0.5))
    misses = 0
    for seed in range(5):
        obs = sm.observe(f0, n, 300 + seed)
        over = ss.posterior(obs, ss.SlabSpikeConfig(j0_rule=("explicit", 2), tau=60.0))
        draws = ss.sample(over, 1000, 400 + seed).draws
        lo, hi = cset.pointwise_band(draws, b, np.array([0.5]), 0.05)
        misses += not (lo[0] <= peak_val <= hi[0])
    assert misses >= 4


def test_centering_equivalence_between_shift_and_posterior_mean():
    rel = {}
    nrm = NormSpec.h_delta(2.1)
    for n in (500.0, 2000.0):
        b = BasisSpec(sm.FOURIER_SINE, sm.default_fourier_truncation(n))
        f0 = sm.power_sine_signal(1.5, 1.0, b)
        changes = []
        for seed in range(5):
            obs = sm.observe(f0, n, 70 + seed)
            eb = gp.empirical_bayes_alpha(obs)
            post = gp.posterior(obs, eb.alpha_hat)
            draws = gp.sample(post, 1500, 700 + seed).draws
            rY = calibrate_radius(draws, obs.y, nrm, 0.05, b)
            rM = calibrate_radius(draws, post.means, nrm, 0.05, b)
            changes.append(abs(rY - rM) / rY)
        rel[n] = float(np.mean(changes))
    assert rel[2000.0] < 0.05
    assert rel[2000.0] < rel[500.0]


def test_plain_ball_members_concentrate_at_the_adaptive_rate():
    # fraction of fresh members of the H(delta) ball that also sit inside the
    # l2 ball of radius C n^{-b/(2b+1)} (log n)^{(2 d b + 1/2)/(2b+1)} stays
    # above 1 - gamma - 0.02: the posterior regularizes automatically, so a C
    # calibrated to hold on essentially all calibration draws keeps holding
    n, beta, delta, gamma = 2000.0, 1.0, 2.1, 0.05
    rate = n ** (-beta / (2 * beta + 1)) * math.log(n) ** ((2 * delta * beta + 0.5)
                                                           / (2 * beta + 1))
    obs, fitted, draws = eb_setup(n=n, K=8192, seed=31, M=1500)
    mean = fitted.posterior_mean
    l2d = np.sqrt(((draws - mean) ** 2).sum(axis=1))
    C = float(np.max(l2d)) / rate
    ball = build_set(CredibleSetSpec(cset.H_DELTA_BALL, gamma, delta=delta), draws, fitted)
    fresh = fitted.sample(1500, 999).draws
    inside_ball = ball.membership(fresh)
    inside_l2 = np.sqrt(((fresh - mean) ** 2).sum(axis=1)) <= C * rate
    assert np.mean(inside_ball & inside_l2) >= 1 - gamma - 0.02

