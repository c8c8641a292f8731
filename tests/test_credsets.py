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
    return obs, fitted, fitted.sample(M, seed + 1)


def calibrated_radii(cs, draws, gammas):
    """The radii of ``cs`` calibrated on the draw matrix ``draws``."""
    return calibrate_radius(cset.distance_rows(draws, cs.measures[:1], cs.basis)[0], gammas)


def members(cs, draws, radii):
    """Membership of the rows of ``draws`` in ``cs`` at each primary radius."""
    return cs.membership(cset.distance_rows(draws, cs.measures, cs.basis), radii)


# ---------------------------------------------------------------------------
# radius calibration
# ---------------------------------------------------------------------------

def test_calibrate_radius_hand_enumerated():
    # distances {1,2,3,4,5} at gamma = 0.2: ceil(0.8*5) = 4th smallest
    draws = np.array([[1.0], [-2.0], [3.0], [-4.0], [5.0]])
    draws = np.repeat(draws, 4, axis=0)  # 20 draws, same distance multiset
    assert calibrate_radius(sm.norm(draws, NormSpec.l2()), [0.2]) == [4.0]


def test_calibrate_radius_extreme_gamma_is_max():
    rng = np.random.default_rng(0)
    d = rng.random(50)
    assert calibrate_radius(d, [1e-9]) == [d.max()]
    with pytest.raises(ValueError, match="at least 20 draws"):
        calibrate_radius(d[:10], [0.1])
    with pytest.raises(ValueError, match="gamma"):
        calibrate_radius(d, [0.1, 1.0])


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10 ** 6))
def test_calibrate_radius_monotone_in_gamma(seed):
    rng = np.random.default_rng(seed)
    d = rng.random(60)
    gammas = (0.5, 0.2, 0.1, 0.02)
    radii = calibrate_radius(d, gammas)
    assert all(a <= b for a, b in zip(radii, radii[1:]))
    assert radii == [calibrate_radius(d, [g])[0] for g in gammas]


def test_self_consistency_on_calibration_draws():
    obs, fitted, draws = eb_setup()
    cs = build_set(CredibleSetSpec(cset.H_DELTA_BALL), fitted)
    gammas = (0.05, 0.25)
    inside = members(cs, draws, calibrated_radii(cs, draws, gammas))
    for gamma, row in zip(gammas, inside):
        assert row.sum() == math.ceil((1 - gamma) * draws.shape[0])


def zero_pad(draws, basis):
    """Draws as wide as ``basis``: slab-and-spike draws hold only their
    2^(Jn+1) support columns, and every later column is 0."""
    return np.pad(draws, ((0, 0), (0, basis.size - draws.shape[1])))


def band_setup(n=500.0, seed=21, draw_seed=5, M=300):
    b = BasisSpec(sm.HAAR_WAVELET, sm.default_wavelet_truncation(n))
    f0 = sm.truncated_laplace_signal(0.5, 5.0, b)
    obs = sm.observe(f0, n, seed)
    fitted = cset.fit(obs, "slabspike")
    return obs, fitted, fitted.sample(M, draw_seed)


@pytest.mark.parametrize("variant", [cset.H_DELTA_EB, cset.H_DELTA_HB, cset.L2_BALL,
                                     cset.MULTISCALE_BAND, cset.SUP_BALL])
def test_shared_levels_equal_per_level_sets(variant):
    gammas = (0.05, 0.1, 0.2)
    if variant in (cset.MULTISCALE_BAND, cset.SUP_BALL):
        obs, fitted, draws = band_setup()
        w = WeightSequence.power_law(0.5, obs.basis.max_index)
        spec = CredibleSetSpec(variant, weights=w, center_rule=cset.CENTER_EFFICIENT)
    else:
        obs, fitted, draws = eb_setup(prior="hb" if variant == cset.H_DELTA_HB else "eb")
        spec = CredibleSetSpec(variant)
    fresh = fitted.sample(300, 99)
    cs = build_set(spec, fitted)
    radii = calibrated_radii(cs, draws, gammas)
    shared = members(cs, fresh, radii)
    assert shared.shape == (len(gammas), fresh.shape[0])
    for g, radius, row in zip(gammas, radii, shared):
        assert [radius] == calibrated_radii(cs, draws, [g])
        assert np.array_equal(row, members(cs, fresh, [radius])[0])
        wide = zero_pad(fresh, obs.basis)
        want = sm.norm(wide - cs.center, cs.primary_norm, obs.basis) <= radius
        if cs.constraint is not None:
            want &= sm.norm(wide - cs.constraint.center, cs.constraint.norm_spec,
                            obs.basis) <= cs.constraint.bound
        assert np.array_equal(row, want)
    assert 0 < shared[0].sum() < fresh.shape[0]


# ---------------------------------------------------------------------------
# geometry assembly
# ---------------------------------------------------------------------------

def test_primary_radius_identical_for_intersected_variant():
    obs, fitted, draws = eb_setup()
    plain = build_set(CredibleSetSpec(cset.H_DELTA_BALL), fitted)
    inter = build_set(CredibleSetSpec(cset.H_DELTA_EB), fitted)
    assert calibrated_radii(plain, draws, [0.1]) == calibrated_radii(inter, draws, [0.1])
    assert plain.constraint is None and len(plain.measures) == 1
    assert inter.constraint.label == "smoothness" and len(inter.measures) == 2
    assert inter.constraint.bound == pytest.approx(math.sqrt(math.log(obs.n)))


def test_hb_variant_needs_median():
    # the HB constraint reads the hyperposterior median, so an EB fit, whose
    # alpha_hat is the likelihood maximizer, is refused
    obs, fitted, draws = eb_setup()
    with pytest.raises(ValueError, match="hierarchical Bayes fit"):
        build_set(CredibleSetSpec(cset.H_DELTA_HB), fitted)
    hb = dataclasses.replace(cset.fit(obs, "hb"), alpha_hat=1.0)
    cs = build_set(CredibleSetSpec(cset.H_DELTA_HB), hb)
    want_exponent = 1.0 - 2.0 / math.log(obs.n)
    assert cs.constraint.norm_spec.s == pytest.approx(want_exponent)
    assert cs.constraint.bound == pytest.approx(math.log(math.log(obs.n))
                                                * math.sqrt(math.log(obs.n)))


def binding_constraint(cs, rows, radius):
    """The label of the first bound a distance row breaks, None for a member."""
    bounds = [("primary", radius)]
    if cs.constraint is not None:
        bounds.append((cs.constraint.label, cs.constraint.bound))
    return next((label for d, (label, bound) in zip(rows, bounds) if d > bound), None)


def test_membership_and_binding_constraint():
    # one array is judged from its distance rows by the rule that judges draws
    obs, fitted, draws = eb_setup()
    cs = build_set(CredibleSetSpec(cset.H_DELTA_BALL), fitted)
    [radius] = calibrated_radii(cs, draws, [0.1])
    rows = cset.distance_rows(cs.center, cs.measures, cs.basis)
    assert cs.membership(rows, [radius])[0, 0]
    assert binding_constraint(cs, rows, radius) is None
    # construct a point just outside the ball along the first coordinate:
    # the H(delta) weight of k=1 equals one, so the needed bump is the radius
    bump = np.zeros(obs.y.size)
    bump[0] = radius * 1.01
    rows = cset.distance_rows(cs.center + bump, cs.measures, cs.basis)
    assert not cs.membership(rows, [radius])[0, 0]
    assert binding_constraint(cs, rows, radius) == "primary"
    assert rows[0] == pytest.approx(radius * 1.01)
    # a high-frequency spike barely moves the H(delta) distance but breaks
    # the smoothness bound, which an infinite primary radius leaves binding
    inter = build_set(CredibleSetSpec(cset.H_DELTA_EB), fitted)
    spike = np.zeros(obs.y.size)
    spike[-1] = 10.0
    rows = cset.distance_rows(fitted.posterior_mean + spike, inter.measures, inter.basis)
    assert not inter.membership(rows, [math.inf])[0, 0]
    assert binding_constraint(inter, rows, math.inf) == "smoothness"
    assert rows[1] > inter.constraint.bound


def test_intersected_credibility_never_exceeds_plain():
    obs, fitted, draws = eb_setup()
    fresh = fitted.sample(300, 99)
    plain = build_set(CredibleSetSpec(cset.H_DELTA_BALL), fitted)
    inter = build_set(CredibleSetSpec(cset.H_DELTA_EB), fitted)
    radii = calibrated_radii(plain, draws, (0.05, 0.2))
    assert np.all(members(inter, fresh, radii).mean(axis=1)
                  <= members(plain, fresh, radii).mean(axis=1) + 1e-12)


def test_fresh_draw_credibility_near_nominal():
    obs, fitted, draws = eb_setup(n=500.0, K=2048, M=2000)
    fresh = fitted.sample(2000, 1234)
    cs = build_set(CredibleSetSpec(cset.H_DELTA_EB), fitted)
    inside = members(cs, fresh, calibrated_radii(cs, draws, [0.05]))
    assert inside.mean() == pytest.approx(0.95, abs=0.01)


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


def brute_force_sigma(support, basis, n, vn):
    """sigma_n from its definition: at each finest dyadic cell, the sum of
    2^{l/2} over the selected (l, k) whose interval covers the cell, levels
    added in order after the scaling function's 1."""
    K = basis.size
    cells = []
    for i in range(K):
        total = float(support[0])
        for m in range(1, K):
            l = int(math.floor(math.log2(m)))
            if support[m] and (i * 2 ** l) // K == m - 2 ** l:
                total += 2.0 ** (l / 2.0)
        cells.append(total)
    return vn * math.sqrt(math.log(n) / n) * max(cells)


def test_sigma_equals_brute_force_on_random_supports():
    rng = np.random.default_rng(8)
    n, vn = 2000.0, math.log(2000.0) ** cset.VN_POWER
    for J in range(1, 6):
        b = BasisSpec(sm.HAAR_WAVELET, J)
        for p in (0.1, 0.3, 0.7):
            for _ in range(8):
                support = rng.random(b.size) < p
                want = brute_force_sigma(support, b, n, vn) if support.any() else 0.0
                assert sigma_band_width(support, b, n, vn) == want


def test_slab_support_is_empty_above_jn():
    # the band width needs no cap at Jn: the posterior median is zero there,
    # even where every observed coefficient is large
    n = 2000.0
    b = BasisSpec(sm.HAAR_WAVELET, sm.default_wavelet_truncation(n))
    above = sm.wavelet_levels(b) > ss.SlabSpikeConfig().jn(n)
    f0 = sm.truncated_laplace_signal(0.5, 5.0, b)
    for obs in (sm.observe(f0, n, 4), sm.NoisyObservation(b, np.ones(b.size), n, 0)):
        support = cset.fit(obs, "slabspike").threshold.support
        assert support.any() and not support[above].any()


def test_multiscale_band_assembly():
    obs, fitted, draws = band_setup()
    est = fitted.threshold
    w = WeightSequence.power_law(0.5, obs.basis.max_index)
    cs = build_set(CredibleSetSpec(cset.MULTISCALE_BAND, weights=w), fitted)
    assert cs.constraint.label == "band" and cs.constraint.bound > 0
    assert cs.constraint.norm_spec == NormSpec.sup()
    assert np.array_equal(cs.constraint.center, np.where(est.support, obs.y, 0.0))


# ---------------------------------------------------------------------------
# diameter and pointwise bands
# ---------------------------------------------------------------------------

def test_diameter_zero_for_identical_draws():
    draws = np.tile(np.linspace(0, 1, 8), (30, 1))
    assert diameter_estimate(draws, NormSpec.l2()) == 0.0
    with pytest.raises(ValueError, match="two member draws"):
        diameter_estimate(draws[:1], NormSpec.l2())


def test_diameter_triangle_bound_for_band():
    n = 500.0
    b = BasisSpec(sm.HAAR_WAVELET, sm.default_wavelet_truncation(n))
    f0 = sm.truncated_laplace_signal(0.5, 5.0, b)
    obs = sm.observe(f0, n, 22)
    fitted = cset.fit(obs, "slabspike")
    draws = fitted.sample(400, 6)
    w = WeightSequence.power_law(0.5, b.max_index)
    cs = build_set(CredibleSetSpec(cset.MULTISCALE_BAND, weights=w), fitted)
    pool = draws[:200]
    inside = pool[members(cs, pool, calibrated_radii(cs, draws, [0.05]))[0]]
    dists = sm.norm(zero_pad(inside, b) - cs.constraint.center, NormSpec.sup(), b)
    diam = diameter_estimate(inside, NormSpec.sup(), b)
    assert diam <= 2 * cs.constraint.bound + 1e-9
    assert diam <= 2 * float(np.max(dists)) + 1e-9


def pairwise_max_type_diameter(members, norm_spec, basis):
    """The quadratic scan the linear one replaced, kept as its reference; it
    reads members narrower than the basis zero-padded to the basis size."""
    if members.shape[0] > 200:
        rng = np.random.default_rng(0)
        members = members[rng.choice(members.shape[0], 200, replace=False)]
    members = zero_pad(members, basis)
    if norm_spec.kind == "sup":
        feats = sm.haar_cell_values(members)
    else:
        feats = members / norm_spec.weights.per_position(basis)
    best = 0.0
    for i in range(feats.shape[0] - 1):
        best = max(best, float(np.max(np.abs(feats[i + 1:] - feats[i]))))
    return best


def test_max_type_diameter_equals_pairwise_scan():
    obs, fitted, draws = band_setup(M=600)
    b = obs.basis
    w = WeightSequence.power_law(0.5, b.max_index)
    band = build_set(CredibleSetSpec(cset.MULTISCALE_BAND, weights=w), fitted)
    rng = np.random.default_rng(4)
    row = rng.standard_normal(b.size)
    negative = -1e-3 - 1e-3 * rng.random((40, b.size))
    negative[:, 0] = -1.0 - rng.random(40)  # every Haar cell value is negative
    cases = [
        draws[members(band, draws, calibrated_radii(band, draws, [0.05]))[0]],
        rng.standard_normal((2, b.size)),
        np.tile(row, (30, 1)),
        rng.integers(-2, 3, (50, b.size)).astype(float),  # ties
        negative,
        # magnitudes from 1e-9 to 1e9 exercise the rounding of the differences
        rng.standard_normal((60, b.size)) * 10.0 ** rng.uniform(-9, 9, b.size),
    ]
    for spec in (NormSpec.sup(), NormSpec.multiscale(w)):
        feats = sm.haar_cell_values(negative) if spec.kind == "sup" else negative
        assert np.all(feats < 0)
        for x in cases:
            assert diameter_estimate(x, spec, b) == pairwise_max_type_diameter(x, spec, b)
        assert diameter_estimate(np.tile(row, (30, 1)), spec, b) == 0.0


@pytest.mark.parametrize("seed", [21, 22, 23])
def test_band_diameter_within_its_bracket(seed):
    # Two members lie within 2 sigma of each other in sup norm through the
    # band, and within 2R of each other in M(w), which bounds the sup norm of
    # their difference by 2R (w_0 + sum_l w_l 2^(l/2)).
    obs, fitted, draws = band_setup(seed=seed, M=400)
    w = WeightSequence.power_law(0.5, obs.basis.max_index)
    levels = np.arange(obs.basis.max_index + 1)
    cs = build_set(CredibleSetSpec(cset.MULTISCALE_BAND, weights=w), fitted)
    radii = calibrated_radii(cs, draws, (0.05, 0.2))
    scale = w.values[0] + float(np.sum(w.values * 2.0 ** (levels / 2.0)))
    for radius, inside in zip(radii, members(cs, draws, radii)):
        bracket = min(2.0 * cs.constraint.bound, 2.0 * radius * scale)
        # slack for the rounding of the membership distances and of the scan
        assert (diameter_estimate(draws[inside], NormSpec.sup(), obs.basis)
                <= bracket * (1 + 1e-12))


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
    draws = next(ss.sample(post, 500, 7, 500))
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
        over = ss.posterior(obs, ss.SlabSpikeConfig(j0_level=2, tau=60.0))
        draws = next(ss.sample(over, 1000, 400 + seed, 1000))
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
            [rY] = calibrate_radius(sm.norm(draws, nrm, b, center=obs.y), [0.05])
            [rM] = calibrate_radius(sm.norm(draws, nrm, b, center=post.means), [0.05])
            changes.append(abs(rY - rM) / rY)
        rel[n] = float(np.mean(changes))
    assert rel[2000.0] < 0.05
    assert rel[2000.0] < rel[500.0]


def test_plain_ball_members_concentrate_at_the_adaptive_rate():
    # fraction of fresh members of the H(delta) ball that also sit inside the
    # l2 ball of radius C n^{-b/(2b+1)} (log n)^{(2 d b + 1/2)/(2b+1)} stays
    # above 1 - gamma - 0.02: the posterior regularizes automatically, so a C
    # calibrated to hold on essentially all calibration draws keeps holding
    n, beta, delta, gamma = 2000.0, 1.0, cset.DEFAULT_DELTA, 0.05
    rate = n ** (-beta / (2 * beta + 1)) * math.log(n) ** ((2 * delta * beta + 0.5)
                                                           / (2 * beta + 1))
    obs, fitted, draws = eb_setup(n=n, K=8192, seed=31, M=1500)
    mean = fitted.posterior_mean
    l2d = np.sqrt(((draws - mean) ** 2).sum(axis=1))
    C = float(np.max(l2d)) / rate
    ball = build_set(CredibleSetSpec(cset.H_DELTA_BALL), fitted)
    fresh = fitted.sample(1500, 999)
    inside_ball = members(ball, fresh, calibrated_radii(ball, draws, [gamma]))[0]
    inside_l2 = np.sqrt(((fresh - mean) ** 2).sum(axis=1)) <= C * rate
    assert np.mean(inside_ball & inside_l2) >= 1 - gamma - 0.02

