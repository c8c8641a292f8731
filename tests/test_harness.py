import contextlib
import copy
import dataclasses
import hashlib
import importlib.util
import io
import json
import math
import os
import string
import tempfile
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from credlab import cli, credsets as cset, dirichlethist as dh, gaussprior as gp
from credlab import harness as hz, seqmodel as sm, slabspike as ss

DEMOS = os.path.join(os.path.dirname(__file__), os.pardir, "demos")


def tiny_cfg(experiment, **over):
    cfg = hz.ExperimentConfig.defaults(experiment)
    cfg.n_list = over.pop("n_list", (200,))
    cfg.reps = over.pop("reps", 3)
    cfg.draws = over.pop("draws", 60)
    for k, v in over.items():
        setattr(cfg, k, v)
    return cfg


# ---------------------------------------------------------------------------
# seed streams and determinism
# ---------------------------------------------------------------------------

def test_rep_seed_isolation():
    a = hz.rep_seeds(11, 0, 3)
    b = hz.rep_seeds(11, 1, 3)
    assert a != b
    assert a == hz.rep_seeds(11, 0, 3)  # pure in (master, rep)


def test_permuting_replications_preserves_per_rep_results():
    cfg = tiny_cfg("negative_bvm", reps=3, draws=60)
    cfg.extras["subseq_base"] = 100.0
    rows = hz.run_negative_bvm(cfg).rows
    cfg2 = tiny_cfg("negative_bvm", reps=2, draws=60)
    cfg2.extras["subseq_base"] = 100.0
    rows2 = hz.run_negative_bvm(cfg2).rows
    assert rows[0] == rows2[0] and rows[1] == rows2[1]


def test_end_to_end_determinism_checksums(tmp_path):
    digests = []
    for run in range(2):
        cfg = tiny_cfg("credibility_table", reps=2, draws=40,
                       gamma_list=(0.1,))
        report = hz.run_experiment(cfg)
        p = tmp_path / f"t{run}.csv"
        hz.emit(report, str(p))
        digests.append(hashlib.sha256(p.read_bytes()).hexdigest())
    assert digests[0] == digests[1]


# sha256 of each report as written by commit 106f9ea, whose joint-credibility
# loop calibrated and tested every gamma with its own distance passes, and of
# the coverage, oversmoothing and Dirichlet reports as written by commit
# 677c7f9, whose coverage runner observed, fitted and drew each replication
# once per gamma and whose Dirichlet demo read its radii by hand (numpy 2.4,
# x86-64).  Sharing those passes across gamma and calibrating every radius by
# one rule must not move a single byte.  The Dirichlet-summary pin was
# re-recorded when its meta line began to state the weights_eps it runs and
# to omit the flags it never read; its rows are unchanged.  The four
# slab-and-spike pins (coverage_band, coverage_band_gammas, indep_ms,
# neg_bvm) were re-recorded when slab_picks began to draw uniforms only on
# the levels <= Jn and one normal per slab pick, a new random stream with
# the same posterior law.  The three slab-lane variant pins (coverage_band_sup,
# coverage_band_l2, coverage_band_ms) were recorded at commit d36607d, whose
# slab draws were as wide as the basis, before the draws were stored as their
# 2^(Jn+1) support columns; ``PIN_CONFIGS`` gives the config file each runs.
SMALL = ["--n", "500", "--draws", "200", "--reps", "2"]
BAND_SMALL = ["coverage", *SMALL, "--prior", "slabspike",
              "--signal", "truncated_laplace:0.5:5.0"]
DIRICHLET_SMALL = ["dirichlet", "--n", "1000,2000", "--draws", "200", "--reps", "2"]
PINNED_REPORTS = {
    "indep_l2_eb": (["indep-l2", *SMALL, "--gamma", "0.05,0.2"], "independence_l2.csv",
                    "e3b1a702f56920734177a7d790499927b954ae4266a8572e3db57710d63b967f"),
    "indep_l2_hb": (["indep-l2", *SMALL, "--prior", "hb", "--gamma", "0.05,0.2"],
                    "independence_l2.csv",
                    "6e327f57c2d9c0d5e0e17635445e876d99059be7f80bb49d6d7c9f203f539d30"),
    "cred_table": (["cred-table", *SMALL, "--gamma", "0.05,0.2"], "credibility_table.csv",
                   "3ebe2403fdf5ebdfb3b15b33802bef665c4ec55b0da04068d7654a4022efb9fd"),
    "indep_ms": (["indep-ms", *SMALL, "--gamma", "0.05,0.1"], "independence_multiscale.csv",
                 "e7cd9ad8be24934fa34bf05670afcb35765e81c6d44740e860019bcb6242b150"),
    "coverage_eb": (["coverage", *SMALL], "coverage.csv",
                    "8cb07d958dad47b6936fdbf2b0be0df953bf438d67aa62b8fdbe5966d9dbab09"),
    "coverage_band": (BAND_SMALL, "coverage.csv",
                      "a5e860ceb5aebe0039bc809785a27ec4694ba5e342ff3f05c77e70d2bf5544c4"),
    "radius_scaling": (["radius-scaling", "--n", "500,1000", "--draws", "200", "--reps", "2"],
                       "radius_scaling.csv",
                       "658a03c5cddca25a7cede33f76499b4da85d813171a896ea275fdf581bce1af3"),
    # each prior's 250 draws take one slab_picks call: 250 x 2^17 uniforms
    "neg_bvm": (["neg-bvm", "--draws", "250", "--reps", "2"], "negative_bvm.csv",
                "2e871ae10894c5e5be61a1f6d7f3776786b7ca47a1c976e14f9bebfd654618e4"),
    "coverage_eb_gammas": (["coverage", *SMALL, "--gamma", "0.05,0.2"], "coverage.csv",
                           "a927f910ec0085941d4e57b00debf859f1c84f8944f73f1ae10c9bfe13e70227"),
    "coverage_band_gammas": ([*BAND_SMALL, "--gamma", "0.05,0.2"], "coverage.csv",
                             "c3f90d3fa0c8ac2e9b5c64e0a3f0528079d98487e74999611ea2e5b3e8b464c9"),
    "coverage_hb": (["coverage", *SMALL, "--prior", "hb"], "coverage.csv",
                    "01952e14d9ce3bb4d8004be13e9a946eb88196ff3f910e4bc1e40f048529b3d0"),
    "oversmooth": (["oversmooth", *SMALL], "oversmoothing_demo.csv",
                   "3819989e7fb801fe27823074eff22097f6cbffd38e2d9d086e23fd21984c79d5"),
    "dirichlet_summary": (DIRICHLET_SMALL, "dirichlet_demo.csv",
                          "a42051cb5338fcaa86b026363f65198faae61609f0e1dad95c229d806b1790bc"),
    "dirichlet_band": (DIRICHLET_SMALL, "dirichlet_band_n1000.csv",
                       "f97228d4dd98cb064b322d3d3bc0e7c3790a58033f295fe363594a8db568fd66"),
    "coverage_band_sup": (BAND_SMALL, "coverage.csv",
                          "10bbad1a45eb6b3dbc215d6395912d25c09b79c93886afbf46da3503b707cec0"),
    "coverage_band_l2": (BAND_SMALL, "coverage.csv",
                         "85b143fb1b72df63e5924df318f67b3eca88e12234c311bf6774f693147ec65a"),
    "coverage_band_ms": (BAND_SMALL, "coverage.csv",
                         "0e69973f827bb27f191f8fbd19f3fe28642ce062104bc537cfb09832a43bedcc"),
}
PIN_CONFIGS = {"coverage_band_sup": "variant = SupBall\n",
               "coverage_band_l2": "variant = L2Ball\n",
               "coverage_band_ms": "variant = MultiscaleBall\n"}


@pytest.mark.parametrize("case", sorted(PINNED_REPORTS))
def test_reports_match_pinned_sha256(tmp_path, case):
    argv, name, want = PINNED_REPORTS[case]
    if case in PIN_CONFIGS:
        config = tmp_path / "pin.cfg"
        config.write_text(PIN_CONFIGS[case])
        argv = argv + ["--config", str(config)]
    assert cli.main(argv + ["--out", str(tmp_path)]) == 0
    assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == want


def test_negative_bvm_matches_golden_file(tmp_path):
    """The preset negative-BvM report regenerates the committed demo output
    byte for byte."""
    path = hz.emit(hz.run_negative_bvm(hz.ExperimentConfig.defaults("negative_bvm")),
                   str(tmp_path / "negative_bvm.csv"))
    golden = os.path.join(DEMOS, "output", "negative_bvm.csv")
    with open(path, "rb") as got, open(golden, "rb") as want:
        assert got.read() == want.read()


@pytest.mark.parametrize("script, subdir", [
    ("01_dirichlet_histogram_bands.py", "dirichlet"),
    ("02_empirical_bayes_credible_sets.py", "fourier"),
    ("04_slab_spike_bands.py", "slabspike"),
])
def test_demo_outputs_match_golden_files(tmp_path, script, subdir):
    """A demo run with its output directory moved writes the committed demo
    outputs byte for byte, and nothing else."""
    spec = importlib.util.spec_from_file_location(script[:-3], os.path.join(DEMOS, script))
    demo = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(demo)
    demo.OUT = str(tmp_path)
    demo.main()
    golden = os.path.join(DEMOS, "output", subdir)
    assert sorted(os.listdir(tmp_path)) == sorted(os.listdir(golden))
    for name in os.listdir(golden):
        with open(os.path.join(golden, name), "rb") as want:
            assert (tmp_path / name).read_bytes() == want.read(), name


# ---------------------------------------------------------------------------
# emit / parse round trip
# ---------------------------------------------------------------------------

def test_emit_parse_round_trip(tmp_path):
    cfg = tiny_cfg("coverage", reps=2, draws=40)
    report = hz.run_coverage(cfg)
    p = tmp_path / "r.csv"
    hz.emit(report, str(p))
    back = hz.parse_report(str(p))
    assert back.kind == report.kind
    assert back.columns == report.columns
    assert len(back.rows) == len(report.rows)
    for got, want in zip(back.rows, report.rows):
        for g, w in zip(got, want):
            if isinstance(w, float) and math.isnan(w):
                assert isinstance(g, float) and math.isnan(g)
            else:
                assert g == w
    assert back.meta["seed"] == cfg.seed  # seed stamp present in the header


# ---------------------------------------------------------------------------
# experiment plumbing
# ---------------------------------------------------------------------------

def test_config_validation():
    with pytest.raises(ValueError):
        hz.ExperimentConfig("nonsense")
    with pytest.raises(ValueError):
        hz.ExperimentConfig("coverage", gamma_list=(1.5,))
    with pytest.raises(ValueError):
        hz.ExperimentConfig("coverage", draws=5)
    for prior in ("foo", "fixed:-1", "fixed:", "fixed:abc", "fixed:nan"):
        with pytest.raises(ValueError, match="unknown prior"):
            hz.ExperimentConfig("coverage", prior=prior)
    for prior in ("eb", "hb", "slabspike", "fixed:0", "fixed:2.5"):
        assert hz.ExperimentConfig("coverage", prior=prior).prior == prior


def test_oversmoothing_demo_leaves_config_unchanged():
    cfg = tiny_cfg("oversmoothing_demo", reps=1, draws=30, prior="fixed:2.5")
    before = copy.deepcopy(cfg)
    rep = hz.run_experiment(cfg)
    assert rep.kind == "oversmoothing_demo" and rep.meta["prior"] == "fixed:2.5"
    assert cfg == before


def test_honest_meta_for_neg_bvm_and_dirichlet():
    # the meta states the tau and weights_eps each experiment runs, and
    # leaves out the fields of the flags it never reads
    cfg = tiny_cfg("negative_bvm", reps=1, draws=40)
    cfg.extras["subseq_base"] = 100.0
    meta = hz.run_negative_bvm(cfg).meta
    assert (meta["tau"], meta["weights_eps"]) == (4.0, 0.5)
    assert not {"n_list", "gamma_list", "prior", "signal"} & set(meta)
    meta = hz.run_dirichlet_demo(tiny_cfg("dirichlet_demo", reps=1, draws=40)).meta
    assert meta["weights_eps"] == 0.1
    assert not {"prior", "signal"} & set(meta)


def test_every_runner_produces_rows(tmp_path):
    cfg = tiny_cfg("coverage")
    assert hz.run_coverage(cfg).rows
    cfg = tiny_cfg("radius_scaling", n_list=(100, 200), reps=2)
    rep = hz.run_radius_scaling(cfg)
    assert "radius_slope" in rep.meta
    cfg = tiny_cfg("independence_multiscale", n_list=(200,), reps=2,
                   draws=60, gamma_list=(0.2,))
    rep = hz.run_experiment(cfg)
    assert rep.rows[0][4] <= min(rep.rows[0][2], rep.rows[0][3])  # joint <= min
    cfg = tiny_cfg("dirichlet_demo", n_list=(500,), reps=3, draws=100)
    cfg.out_dir = str(tmp_path)
    rep = hz.run_dirichlet_demo(cfg)
    assert rep.rows[0][3] >= 0.0
    assert (tmp_path / "dirichlet_band_n500.csv").exists()


def test_dirichlet_band_envelopes_contain_mean(tmp_path):
    cfg = tiny_cfg("dirichlet_demo", n_list=(1000,), reps=1, draws=200)
    cfg.out_dir = str(tmp_path)
    hz.run_dirichlet_demo(cfg)
    lines = (tmp_path / "dirichlet_band_n1000.csv").read_text().splitlines()
    meta = json.loads(lines[0].lstrip("# "))
    assert meta["kind"] == "dirichlet_band" and "seed" in meta
    rows = [list(map(float, ln.split(","))) for ln in lines[2:]]
    for x, lo, hi, mean, truth in rows:
        assert lo <= mean <= hi


@pytest.mark.parametrize("experiment, over, names", [
    ("coverage", {}, ("observe", "build_set", "diameter_estimate", "gp.sample")),
    ("coverage", {"prior": "slabspike", "signal": "truncated_laplace:0.5:5.0"},
     ("observe", "build_set", "diameter_estimate", "ss.sample")),
    ("independence_l2", {"prior": "fixed:1.0"}, ("observe", "build_set", "gp.sample")),
])
def test_lanes_reach_the_names_a_tracer_wraps(monkeypatch, experiment, over, names):
    # a tracer wraps these module attributes; a lane that kept a reference
    # taken at import would bypass the wrapper
    calls = dict.fromkeys(names, 0)
    for owner, attr, name in ((hz, "observe", "observe"), (hz, "build_set", "build_set"),
                              (hz, "diameter_estimate", "diameter_estimate"),
                              (gp, "sample", "gp.sample"), (ss, "sample", "ss.sample")):
        def counted(*a, _fn=getattr(owner, attr), _name=name, **k):
            calls[_name] = calls.get(_name, 0) + 1
            return _fn(*a, **k)
        monkeypatch.setattr(owner, attr, counted)
    hz.run_experiment(tiny_cfg(experiment, reps=2, draws=40, gamma_list=(0.1,), **over))
    assert all(calls[name] > 0 for name in names), calls


def test_coverage_fits_and_draws_once_per_replication(monkeypatch):
    calls = []
    sample = gp.sample
    monkeypatch.setattr(gp, "sample",
                        lambda *a, **k: calls.append(1) or sample(*a, **k))
    cfg = tiny_cfg("coverage", reps=3, draws=40, prior="fixed:1.0",
                   gamma_list=(0.05, 0.1, 0.2))
    rows = hz.run_coverage(cfg).row_dicts()
    assert len(calls) == 3
    assert [r["gamma"] for r in rows] == [0.05, 0.1, 0.2]
    assert all(r["replications"] == 3 for r in rows)
    radii = [r["mean_radius"] for r in rows]
    assert radii[0] >= radii[1] >= radii[2]


def test_coverage_ci_half_width_formula():
    cfg = tiny_cfg("coverage", reps=5, draws=40)
    row = hz.run_coverage(cfg).row_dicts()[0]
    want = 1.96 * math.sqrt(row["coverage"] * (1 - row["coverage"]) / row["replications"])
    assert row["ci_half_width"] == pytest.approx(want)


@pytest.mark.parametrize("prior", ["fixed:1.0", "eb", "hb", "slabspike", "dirichlet"])
def test_streamed_draws_and_distances_equal_the_matrix(prior):
    # K = 2^14 in the Gaussian and slab lanes at n = 2000.  Gaussian draws
    # are K wide, so blocks hold 16 rows; slab-and-spike draws hold their
    # 2^(Jn+1) = 2048 support columns, so blocks hold 128 rows.  M = 37, 200
    # and 2001 draws end in a partial block either way.  The histogram at
    # n = 10^4 has 2^3 bins, so its blocks hold 32768 rows: M = 32769 draws
    # cross one.
    n, experiment, K, width, step, Ms = {
        "slabspike": (2000, "independence_multiscale", 2 ** 14, 2048, 128, (37, 200, 2001)),
        "dirichlet": (10 ** 4, "dirichlet_demo", 8, 8, 32768, (37, 2001, 32769)),
    }.get(prior, (2000, "independence_l2", 2 ** 14, 2 ** 14, 16, (37, 200, 2001)))
    cfg = tiny_cfg(experiment, n_list=(n,), prior=prior)
    ln = hz.lane(cfg, n)
    obs = ln.observe(5)
    fitted = cset.fit(obs, cfg.prior, hz._slab(cfg))
    assert obs.y.size == K and sm.block_rows(width) == step
    measures = [m for spec in ln.joint or [ln.coverage]
                for m in cset.build_set(spec, fitted).measures]
    for M in Ms:
        matrix = fitted.sample(M, 9).draws
        blocks = list(fitted.blocks(M, 9))
        assert matrix.shape == (M, width)
        assert [len(b) for b in blocks] == [step] * (M // step) + [M % step]
        assert np.vstack(blocks).tobytes() == matrix.tobytes()
        del blocks
        if prior == "dirichlet":
            heights = np.random.default_rng(9).dirichlet(fitted.post.concentrations, size=M)
            assert dh.haar_coefficients(heights, 3).tobytes() == matrix.tobytes()
        want = np.array([sm.norm(matrix, spec, obs.basis, center=center)
                         for spec, center in measures])
        assert np.array_equal(hz._stream_distances(fitted, M, 9, measures), want)


def test_joint_loop_holds_no_draw_matrix():
    # one 2000 x 2^14 batch of float64 draws takes 262 MB
    cfg = tiny_cfg("independence_l2", n_list=(2000,), reps=1, draws=2000,
                   prior="fixed:1.0", gamma_list=(0.05,))
    tracemalloc.start()
    try:
        hz.run_experiment(cfg)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2000 * 2 ** 14 * 8 / 4


def test_slab_coverage_holds_no_basis_wide_draw_matrix():
    # one 800 x 2^14 batch of float64 draws takes 105 MB; slab-and-spike
    # draws hold only their 2^(Jn+1) = 2048 support columns
    cfg = tiny_cfg("coverage", n_list=(2000,), reps=1, draws=800, prior="slabspike",
                   signal="truncated_laplace:0.5:5.0")
    tracemalloc.start()
    try:
        hz.run_coverage(cfg)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 800 * 2 ** 14 * 8 / 2


def test_joint_never_exceeds_marginals():
    cfg = tiny_cfg("independence_l2", n_list=(300,), reps=2, draws=80,
                   gamma_list=(0.1, 0.3))
    rep = hz.run_experiment(cfg)
    for r in rep.row_dicts():
        assert r["joint"] <= min(r["cred_A"], r["cred_B"]) + 1e-12


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------

def test_cli_runs_and_writes(tmp_path):
    out = tmp_path / "reports"
    rc = cli.main(["cred-table", "--n", "200", "--gamma", "0.1", "--draws", "40",
                   "--reps", "2", "--out", str(out)])
    assert rc == 0
    assert (out / "credibility_table.csv").exists()


def test_cli_config_file_supplies_flags(tmp_path):
    conf = tmp_path / "run.cfg"
    conf.write_text("n = 200\ngamma = 0.1\ndraws = 40\nreps = 2\n"
                    "seed = 7  # trailing comment\n# comment line\n")
    out = tmp_path / "reports"
    rc = cli.main(["cred-table", "--config", str(conf), "--reps", "3", "--out", str(out)])
    assert rc == 0
    assert os.listdir(out) == ["credibility_table.csv"]
    meta = hz.parse_report(str(out / "credibility_table.csv")).meta
    assert (meta["n_list"], meta["gamma_list"], meta["draws"]) == ([200.0], [0.1], 40)
    assert (meta["reps"], meta["seed"]) == (3, 7)  # the flag wins over the file


def test_cli_bad_config_exits_2(tmp_path):
    rc = cli.main(["coverage", "--gamma", "1.5", "--out", str(tmp_path)])
    assert rc == 2
    conf = tmp_path / "bad.cfg"
    conf.write_text("this line has no equals sign\n")
    rc = cli.main(["coverage", "--config", str(conf), "--out", str(tmp_path)])
    assert rc == 2


@pytest.mark.parametrize("flags, message", [
    (["coverage", "--n", "200", "--draws", "5"], "draws >= 20"),
    (["coverage", "--n", "1", "--draws", "40"], "n must exceed 1"),
    (["coverage", "--n", ""], "coverage needs at least one noise level n"),
    (["radius-scaling", "--n", ""], "radius_scaling needs at least one noise level n"),
    # a log-log slope needs two distinct n
    (["radius-scaling", "--n", "500"], "at least two distinct noise levels"),
    (["radius-scaling", "--n", "500,500"], "at least two distinct noise levels"),
    # both experiments read only a fixed-alpha prior
    (["radius-scaling", "--n", "500,1000", "--prior", "eb"],
     "radius_scaling reads only fixed:<alpha> priors, not 'eb'"),
    (["oversmooth", "--n", "500", "--prior", "hb"],
     "oversmoothing_demo reads only fixed:<alpha> priors, not 'hb'"),
    (["coverage", "--n", "inf"], "n must exceed 1 and be finite"),
    (["coverage", "--n", "200", "--seed", "-1"], "seed nonnegative"),
])
def test_cli_validates_after_overrides(tmp_path, capsys, flags, message):
    rc = cli.main(flags + ["--reps", "2", "--out", str(tmp_path)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and message in err
    assert not os.listdir(tmp_path)


@pytest.mark.parametrize("argv, unread", [
    (["neg-bvm", "--n", "2000"], "--n"),
    (["neg-bvm", "--gamma", "0.1"], "--gamma"),
    (["neg-bvm", "--prior", "hb", "--signal", "power_sine:1:1"], "--prior, --signal"),
    (["dirichlet", "--prior", "hb"], "--prior"),
    (["dirichlet", "--signal", "power_sine:1.5:1.0"], "--signal"),
])
def test_cli_rejects_flags_the_experiment_never_reads(tmp_path, capsys, argv, unread):
    rc = cli.main(argv + ["--draws", "40", "--reps", "1", "--out", str(tmp_path)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {argv[0]} does not read {unread}")
    assert not os.listdir(tmp_path)


_BAD_SIGNAL = ("unsupported signal '%s': the forms are power_sine:<a>:<b> and "
               "truncated_laplace:<loc>:<scale>, with finite numbers")


@pytest.mark.parametrize("argv, message", [
    # both read a single gamma, and the report meta states the whole list
    (["radius-scaling", "--n", "200,400", "--gamma", "0.05,0.1"],
     "radius_scaling reads one gamma, not 2"),
    (["dirichlet", "--n", "1000", "--gamma", "0.05,0.1"], "dirichlet_demo reads one gamma, not 2"),
    # each joint experiment runs one lane: the band pair or the Gaussian pair
    (["indep-ms", "--n", "200", "--prior", "eb"],
     "independence_multiscale reads only slabspike priors, not 'eb'"),
    (["indep-ms", "--n", "200", "--prior", "fixed:2"],
     "independence_multiscale reads only slabspike priors, not 'fixed:2'"),
    (["indep-l2", "--n", "200", "--prior", "slabspike", "--signal", "truncated_laplace:0.5:5.0"],
     "independence_l2 reads only eb | hb | fixed:<alpha> priors, not 'slabspike'"),
    (["cred-table", "--n", "200", "--prior", "slabspike"],
     "credibility_table reads only eb | hb | fixed:<alpha> priors, not 'slabspike'"),
    # only the dirichlet preset runs the histogram prior, and it reads no --prior
    (["coverage", "--n", "200", "--prior", "dirichlet"],
     "coverage reads only eb | hb | fixed:<alpha> | slabspike priors, not 'dirichlet'"),
    (["indep-l2", "--n", "200", "--prior", "dirichlet"],
     "independence_l2 reads only eb | hb | fixed:<alpha> priors, not 'dirichlet'"),
    # the histogram's n counts iid samples
    (["dirichlet", "--n", "1.5"], "dirichlet_demo draws n iid samples, so n must be an "
                                  "integer >= 2, not 1.5"),
    (["dirichlet", "--n", "500,1000.7"], "dirichlet_demo draws n iid samples, so n must be an "
                                         "integer >= 2, not 1000.7"),
    # a signal is parsed when the config is built, in every experiment that reads one
    (["coverage", "--n", "200", "--signal", "power_sine:1.5"], _BAD_SIGNAL % "power_sine:1.5"),
    (["indep-ms", "--n", "200", "--signal", "power_sine:1.5:x"], _BAD_SIGNAL % "power_sine:1.5:x"),
    (["oversmooth", "--n", "200", "--signal", "truncated_laplace:0.5:nan"],
     _BAD_SIGNAL % "truncated_laplace:0.5:nan"),
])
def test_cli_rejects_what_the_experiment_does_not_run(tmp_path, capsys, argv, message):
    out = tmp_path / "out"
    assert cli.main(argv + ["--draws", "40", "--reps", "1", "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"config error: {message}\n"
    assert not out.exists()


def test_cli_unread_config_key_is_rejected(tmp_path, capsys):
    conf = tmp_path / "run.cfg"
    conf.write_text("prior = hb\n")
    out = tmp_path / "out"
    assert cli.main(["dirichlet", "--config", str(conf), "--out", str(out)]) == 2
    assert "dirichlet does not read --prior" in capsys.readouterr().err
    assert not out.exists()


def test_cli_unsupported_signal_exits_2(tmp_path, capsys):
    rc = cli.main(["coverage", "--signal", "volterra_sine:1.5:1.0", "--n", "200",
                   "--draws", "40", "--reps", "1", "--out", str(tmp_path)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err == f"config error: {_BAD_SIGNAL % 'volterra_sine:1.5:1.0'}\n"
    assert not os.listdir(tmp_path)


def test_cli_error_in_a_stream_worker_exits_2(tmp_path, capsys):
    # the H(delta) norm refuses Haar coefficients while a batch streams on a
    # worker thread; the error reaches the CLI as on the main thread
    rc = cli.main(["indep-l2", "--signal", "truncated_laplace:0.5:5.0", "--n", "200",
                   "--draws", "20", "--reps", "1", "--out", str(tmp_path)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err == "error: sobolev_log norms apply to Fourier sine coefficients\n"
    assert not os.listdir(tmp_path)


def test_cli_empty_fresh_set_exits_2(tmp_path, capsys):
    # at gamma 0.9 the l2 ball keeps 2 of 20 calibration draws, and in
    # replication 1 no fresh draw falls inside it
    rc = cli.main(["indep-l2", "--n", "200", "--draws", "20", "--reps", "3",
                   "--gamma", "0.9", "--seed", "2", "--out", str(tmp_path)])
    assert rc == 2
    err = capsys.readouterr().err
    assert "n=200 gamma=0.9 replication 1" in err and "set B" in err
    assert err.startswith("error: ")
    assert "Traceback" not in err
    assert not os.listdir(tmp_path)


@pytest.mark.parametrize("argv", [
    ["coverage", "--n", "200"],
    ["coverage", "--n", "200", "--prior", "slabspike", "--signal", "truncated_laplace:0.5:5.0"],
    ["radius-scaling", "--n", "200,400"],
])
def test_cli_too_few_members_for_a_diameter_exits_2(tmp_path, capsys, argv):
    # at gamma 0.96 a set calibrated on 20 draws keeps one of them, and a
    # diameter needs two: the run stops instead of reporting a NaN diameter
    out = tmp_path / "out"
    rc = cli.main(argv + ["--draws", "20", "--gamma", "0.96", "--reps", "3",
                          "--out", str(out)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: n=200 gamma=0.96 replication 0: ")
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("flags, variant, message", [
    # the sup norm lives on the Haar basis, not on the Fourier lane
    (["--n", "200"], "SupBall", "sup norm requires a wavelet basis"),
    # the slab-and-spike fit has no smoothness for the H(delta) constraint
    (["--n", "2000", "--prior", "slabspike", "--signal", "truncated_laplace:0.5:5.0"],
     "HDeltaIntersectEB", "HDeltaIntersectEB needs alpha_hat"),
])
def test_cli_coverage_variant_errors_exit_2(tmp_path, capsys, flags, variant, message):
    conf = tmp_path / "run.cfg"
    conf.write_text(f"variant = {variant}\n")
    out = tmp_path / "out"
    rc = cli.main(["coverage", "--draws", "40", "--reps", "2", "--config", str(conf),
                   "--out", str(out)] + flags)
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err
    assert not out.exists()


def test_cli_unknown_prior_is_a_config_error(tmp_path, capsys):
    argv = ["coverage", "--prior", "foo", "--out", str(tmp_path)]
    with pytest.raises(ValueError, match="unknown prior"):
        cli.make_config(cli.build_parser().parse_args(argv))
    assert cli.main(argv) == 2
    assert capsys.readouterr().err.startswith("config error: unknown prior 'foo'")
    assert not os.listdir(tmp_path)


def test_cli_dirichlet_small_n(tmp_path):
    # n = 200 resolves to the smallest histogram, 2^2 bins
    assert cli.main(["dirichlet", "--n", "200", "--reps", "2", "--draws", "40",
                     "--out", str(tmp_path)]) == 0
    rows = hz.parse_report(str(tmp_path / "dirichlet_demo.csv")).row_dicts()
    assert rows[0]["L"] == 2 and rows[0]["replications"] == 2


@pytest.mark.parametrize("command, lines, ok", [
    ("coverage", "draw = 500\n", False),
    ("coverage", "variant = L2Ball\ndiam_reps = 0\n", True),
    ("oversmooth", "tau = 4\n", False),
    ("neg-bvm", "subseq_base = 100\ntau = 4\ntest_m = 2\n", True),
    ("neg-bvm", "grid_points = 9\n", False),
    ("dirichlet", "weights_eps = 0.1\ngrid_points = 9\n", True),
    ("cred-table", "variant = L2Ball\n", False),
    ("coverage", "format = xml\n", False),  # reports are CSV only
])
def test_cli_config_keys_checked_per_experiment(tmp_path, capsys, command, lines, ok):
    conf = tmp_path / "run.cfg"
    conf.write_text(lines)
    argv = [command, "--config", str(conf), "--out", str(tmp_path / "out")]
    if ok:
        cfg = cli.make_config(cli.build_parser().parse_args(argv))
        keys = {ln.split("=")[0].strip() for ln in lines.splitlines()}
        fields = keys & {f.name for f in dataclasses.fields(cfg)}
        assert set(cfg.extras) == keys - fields
    else:
        assert cli.main(argv) == 2
        assert "unknown config keys" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


def test_cli_config_keys_parse_once(tmp_path):
    conf = tmp_path / "run.cfg"
    conf.write_text("subseq_base = 100\ntau = 3\ntest_m = 3\n")
    cfg = cli.make_config(cli.build_parser().parse_args(["neg-bvm", "--config", str(conf)]))
    assert cfg.tau == 3.0 and cfg.extras == {"subseq_base": 100.0, "test_m": 3}
    assert [type(v) for v in cfg.extras.values()] == [float, int]
    conf.write_text("weights_eps = 0.2\ngrid_points = 9\n")
    cfg = cli.make_config(cli.build_parser().parse_args(["dirichlet", "--config", str(conf)]))
    assert cfg.weights_eps == 0.2 and cfg.extras == {"grid_points": 9}


@pytest.mark.parametrize("command, lines, message", [
    ("neg-bvm", "beta = abc\n", "cannot parse beta = 'abc'"),
    # test_m indexes the 24 sample sizes n_m
    ("neg-bvm", "test_m = 0\n", "test_m = '0' is out of range: must be in 1..24"),
    ("neg-bvm", "test_m = 25\n", "test_m = '25' is out of range"),
    ("neg-bvm", "subseq_ratio = inf\n", "subseq_ratio = 'inf' is out of range"),
    ("neg-bvm", "tau = 0.5\n", "tau must be finite and exceed 1/2"),
    ("neg-bvm", "tau = x\n", "cannot parse tau = 'x'"),
    # n_test = 1e4 * 10^(test_m - 1) is at most N_TEST_MAX = 1e6; test_m = 3
    # reaches it (VALID_VALUES), and test_m = 24 would need 2^90 coefficients
    ("neg-bvm", "test_m = 4\n", "n_test = subseq_base * subseq_ratio^(test_m - 1) = 1e+07 "
                               "exceeds 1e+06"),
    ("neg-bvm", "test_m = 24\n", "= 1e+27 exceeds 1e+06"),
    ("neg-bvm", "subseq_ratio = 1e300\n", "the sample sizes n_m, m = 1..24, must be finite"),
    ("neg-bvm", "subseq_ratio = 1e20\ntest_m = 1\n", "must be finite"),
    ("dirichlet", "weights_eps = nan\n", "weights_eps finite and positive"),
    ("dirichlet", "grid_points = 1.5\n", "cannot parse grid_points = '1.5'"),
    ("coverage", "variant = Nope\n", "variant = 'Nope' is out of range"),
    ("coverage", "draws = many\n", "cannot parse draws = 'many'"),
])
def test_cli_bad_config_values_exit_2(tmp_path, capsys, command, lines, message):
    conf = tmp_path / "run.cfg"
    conf.write_text(lines)
    out = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a numpy overflow warning would raise
        assert cli.main([command, "--config", str(conf), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and message in err and err.count("\n") == 1
    assert not out.exists()


# One valid value for each flag and config key; a key without one fails the
# reachability test below.
VALID_VALUES = {
    "n": "300,600", "gamma": "0.3", "draws": "50", "reps": "3", "seed": "7",
    "prior": "fixed:2.5", "signal": "truncated_laplace:0.5:4.0", "out": "elsewhere",
    "tau": "3.0", "weights_eps": "0.2", "variant": "L2Ball", "diam_reps": "1",
    "beta": "2.0", "R": "3.0", "r": "0.5", "test_m": "3", "subseq_base": "50",
    "subseq_ratio": "5", "grid_points": "9",
}


def _config_from_lines(command, text):
    with tempfile.TemporaryDirectory() as d:
        path = os.path.join(d, "run.cfg")
        with open(path, "w") as fh:
            fh.write(text)
        return cli.make_config(cli.build_parser().parse_args([command, "--config", path]))


def test_every_config_field_is_settable():
    # a field no flag or config key can set is a constant in disguise
    reached = set()
    for command in cli.SUBCOMMANDS:
        preset = _config_from_lines(command, "")
        for key, value in VALID_VALUES.items():
            try:
                cfg = _config_from_lines(command, f"{key} = {value}\n")
            except ValueError:
                continue
            reached |= {f.name for f in dataclasses.fields(cfg)
                        if getattr(cfg, f.name) != getattr(preset, f.name)}
    fields = {f.name for f in dataclasses.fields(hz.ExperimentConfig) if f.name != "experiment"}
    assert sorted(fields - reached) == []
    keys = {flag for flag, _, _ in cli.FLAGS}
    for exp in hz.EXPERIMENTS.values():
        keys |= {*exp.extras, *exp.fields}
    assert keys == set(VALID_VALUES)


_LINE_TEXT = st.text(string.printable.strip(), max_size=12)
_VALUES = st.one_of(_LINE_TEXT, st.integers(-30, 10 ** 6).map(str),
                    st.floats(allow_nan=True, allow_infinity=True).map(repr),
                    st.sampled_from(sorted(set(VALID_VALUES.values()) | {"nan", "-inf", "1e400"})))


@settings(max_examples=300, deadline=None)
@given(command=st.sampled_from(sorted(cli.SUBCOMMANDS)),
       key=st.one_of(st.sampled_from(sorted(VALID_VALUES)), _LINE_TEXT), value=_VALUES)
def test_any_config_line_is_rejected_or_typed_and_in_range(command, key, value):
    try:
        cfg = _config_from_lines(command, f"{key} = {value}\n")
    except ValueError:
        return
    assert all(type(n) in (int, float) and 1 < n < math.inf for n in cfg.n_list)
    assert cfg.n_list or command == "neg-bvm"
    assert cfg.gamma_list and all(type(g) is float and 0 < g < 1 for g in cfg.gamma_list)
    assert all(type(v) is int for v in (cfg.draws, cfg.reps, cfg.seed))
    assert cfg.draws >= 20 and cfg.reps >= 1 and cfg.seed >= 0
    assert type(cfg.prior) is str and type(cfg.signal) is str and type(cfg.out_dir) is str
    assert type(cfg.tau) is float and type(cfg.weights_eps) is float
    assert 0.5 < cfg.tau < math.inf and 0 < cfg.weights_eps < math.inf
    for name, value in cfg.extras.items():
        parse, _, valid, _ = hz.EXPERIMENTS[cfg.experiment].extras[name]
        assert type(value) is parse and valid(value)
        assert parse is not float or math.isfinite(value)
    if "test_m" in cfg.extras:
        assert 1 <= cfg.extras["test_m"] <= hz.N_M_LEN
    if command == "neg-bvm":
        assert hz._subsequence(hz._extras(cfg))[1] <= hz.N_TEST_MAX


# Columns a report may hold as nan by design: no diameter is drawn when
# diam_reps = 0, and the slab-and-spike and histogram fits have no alpha.
NAN_BY_DESIGN = ("mean_diameter", "mean_alpha")


@settings(max_examples=300, deadline=None)
@example(command="dirichlet", n="1.5", signal=None, gamma=None)
@example(command="coverage", n="300", signal="power_sine:1.5", gamma=None)
@given(command=st.sampled_from(sorted(cli.SUBCOMMANDS)),
       n=st.sampled_from([None, "1.5", "2", "300", "1000.7", "200,400"]),
       signal=st.sampled_from([None, "power_sine:1.5:1.0", "truncated_laplace:0.5:5.0",
                               "power_sine:1.5", "power_sine:1.5:x", "power_sine:nan:1",
                               "truncated_laplace:2:5", "holder_spike"]),
       gamma=st.sampled_from([None, "0.05", "0.5", "0.05,0.2"]))
def test_cli_exits_2_with_a_message_or_reports_no_nan(command, n, signal, gamma):
    flags = {"--n": n, "--signal": signal, "--gamma": gamma}
    with tempfile.TemporaryDirectory() as out:
        argv = [command, "--draws", "20", "--reps", "1", "--out", out]
        argv += [x for flag, value in flags.items() if value is not None for x in (flag, value)]
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            rc = cli.main(argv)
        if rc == 2:
            assert err.getvalue().startswith(("config error: ", "error: "))
            assert err.getvalue().count("\n") == 1 and not os.listdir(out)
            return
        assert rc == 0
        report = hz.parse_report(os.path.join(out, os.listdir(out)[0]))
        for row in report.row_dicts():
            assert not [c for c, v in row.items()
                        if c not in NAN_BY_DESIGN and isinstance(v, float) and math.isnan(v)]


def test_cli_check_failure_exits_3(tmp_path):
    # a well-specified prior passes the oversmoothing coverage collapse
    # threshold, so --check must flag it and exit 3
    rc = cli.main(["oversmooth", "--n", "500", "--draws", "100", "--reps", "10",
                   "--prior", "fixed:1.0", "--out", str(tmp_path), "--check"])
    assert rc == 3


def test_cli_check_pass_exits_0(tmp_path):
    rc = cli.main(["neg-bvm", "--draws", "200", "--reps", "2",
                   "--out", str(tmp_path), "--check"])
    assert rc == 0


def test_check_gates_follow_the_lane_and_the_acceptance_targets(tmp_path, capsys):
    # slab-and-spike coverage is gated by criterion 8's window [0.90, 1.0],
    # the Gaussian lane by criterion 4's [0.91, 0.99]
    rc = cli.main(["coverage", "--prior", "slabspike", "--signal", "truncated_laplace:0.5:5.0",
                   "--n", "2000", "--draws", "800", "--reps", "4", "--out", str(tmp_path),
                   "--check"])
    assert rc == 0
    assert "PASS coverage n=2000.0 gamma=0.05: coverage=1.000\n" in capsys.readouterr().out
    gates = hz.EXPERIMENTS["coverage"].gates
    row = [(2000.0, 0.05, 1.0, 0.0, 1.0, 1.0, 1.0, 4)]
    columns = ("n", "gamma", "coverage", "ci_half_width", "mean_radius", "mean_diameter",
               "mean_alpha", "replications")
    eb_report = hz.Report("coverage", columns, row, {"prior": "eb"})
    assert [ok for _, ok, _ in gates(eb_report)] == [False]
    # criterion 9 also asks for a self-similarity margin of at least 0.9
    assert cli.main(["neg-bvm", "--draws", "200", "--reps", "2", "--out", str(tmp_path),
                     "--check"]) == 0
    assert "PASS selfsim margin >= 0.9: margin=" in capsys.readouterr().out
    meta = {"median_mass_full_threshold": 1.0, "median_mass_fitted_zone": 0.0,
            "selfsim_margin": 0.85}
    assert [ok for _, ok, _ in hz.EXPERIMENTS["negative_bvm"].gates(
        hz.Report("negative_bvm", (), [], meta))] == [True, True, False]
