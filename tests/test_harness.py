import copy
import hashlib
import importlib.util
import json
import math
import os

import numpy as np
import pytest

from credlab import cli, gaussprior as gp, harness as hz

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
        report = hz.run_credibility_table(cfg)
        p = tmp_path / f"t{run}.csv"
        hz.emit(report, "csv", str(p))
        digests.append(hashlib.sha256(p.read_bytes()).hexdigest())
    assert digests[0] == digests[1]


# sha256 of each report as written by commit 106f9ea, whose joint-credibility
# loop calibrated and tested every gamma with its own distance passes, of the
# negative-BvM report as written by commit 01b5c74, whose samplers drew dense
# M x K matrices, and of the coverage, oversmoothing and Dirichlet reports as
# written by commit 677c7f9, whose coverage runner observed, fitted and drew
# each replication once per gamma and whose Dirichlet demo read its radii by
# hand (numpy 2.4, x86-64).  Sharing those passes across gamma, drawing only
# the slab entries and calibrating every radius by one rule must not move a
# single byte.
SMALL = ["--n", "500", "--draws", "200", "--reps", "2"]
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
                 "32d10c138ac91379bb362ae47b7c935f7d2a16b2444c83ea7ad033d9c092c0ca"),
    "coverage_eb": (["coverage", *SMALL], "coverage.csv",
                    "8cb07d958dad47b6936fdbf2b0be0df953bf438d67aa62b8fdbe5966d9dbab09"),
    "coverage_band": (["coverage", *SMALL, "--prior", "slabspike",
                       "--signal", "truncated_laplace:0.5:5.0"], "coverage.csv",
                      "164bb5888f3930d274296bcfd5d53e0161d0108f7afd6e4abb29a28605b6fc85"),
    "radius_scaling": (["radius-scaling", "--n", "500,1000", "--draws", "200", "--reps", "2"],
                       "radius_scaling.csv",
                       "658a03c5cddca25a7cede33f76499b4da85d813171a896ea275fdf581bce1af3"),
    # 250 draws stream as one full chunk of 200 and one partial chunk
    "neg_bvm": (["neg-bvm", "--draws", "250", "--reps", "2"], "negative_bvm.csv",
                "72e12495adb53e6f41da79d794ad0f85eb0d43dc65548cebb2900bc3cd356e82"),
    "coverage_eb_gammas": (["coverage", *SMALL, "--gamma", "0.05,0.2"], "coverage.csv",
                           "a927f910ec0085941d4e57b00debf859f1c84f8944f73f1ae10c9bfe13e70227"),
    "coverage_band_gammas": (["coverage", *SMALL, "--gamma", "0.05,0.2",
                              "--prior", "slabspike", "--signal", "truncated_laplace:0.5:5.0"],
                             "coverage.csv",
                             "6933afdf54b4c8cbbaa11a9843f91107e9ecf9e8e7fafd9d8f44b54ae47b559d"),
    "coverage_hb": (["coverage", *SMALL, "--prior", "hb"], "coverage.csv",
                    "01952e14d9ce3bb4d8004be13e9a946eb88196ff3f910e4bc1e40f048529b3d0"),
    "oversmooth": (["oversmooth", *SMALL], "oversmoothing_demo.csv",
                   "3819989e7fb801fe27823074eff22097f6cbffd38e2d9d086e23fd21984c79d5"),
    "dirichlet_summary": (DIRICHLET_SMALL, "dirichlet_demo.csv",
                          "615b4163056fa6612122644789ea6949f7e79a39c91432b778b784ac0479ec07"),
    "dirichlet_band": (DIRICHLET_SMALL, "dirichlet_band_n1000.csv",
                       "f97228d4dd98cb064b322d3d3bc0e7c3790a58033f295fe363594a8db568fd66"),
}


@pytest.mark.parametrize("case", sorted(PINNED_REPORTS))
def test_reports_match_pinned_sha256(tmp_path, case):
    argv, name, want = PINNED_REPORTS[case]
    assert cli.main(argv + ["--out", str(tmp_path)]) == 0
    assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == want


def test_negative_bvm_matches_golden_file(tmp_path):
    """The preset negative-BvM report regenerates the committed demo output
    byte for byte."""
    path = hz.emit(hz.run_negative_bvm(hz.ExperimentConfig.defaults("negative_bvm")),
                   "csv", str(tmp_path / "negative_bvm.csv"))
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

@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_emit_parse_round_trip(tmp_path, fmt):
    cfg = tiny_cfg("coverage", reps=2, draws=40)
    report = hz.run_coverage(cfg)
    p = tmp_path / f"r.{fmt}"
    hz.emit(report, fmt, str(p))
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


def test_emit_rejects_unknown_format(tmp_path):
    cfg = tiny_cfg("coverage", reps=1, draws=30)
    report = hz.run_coverage(cfg)
    with pytest.raises(ValueError):
        hz.emit(report, "xml", str(tmp_path / "r.xml"))


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
    cfg = tiny_cfg("oversmoothing_demo", reps=1, draws=30, prior="eb")
    before = copy.deepcopy(cfg)
    rep = hz.run_oversmoothing_demo(cfg)
    assert rep.meta["prior"] == "fixed:3.0"
    assert cfg == before


def test_every_runner_produces_rows(tmp_path):
    cfg = tiny_cfg("coverage")
    assert hz.run_coverage(cfg).rows
    cfg = tiny_cfg("radius_scaling", n_list=(100, 200), reps=2)
    rep = hz.run_radius_scaling(cfg)
    assert "radius_slope" in rep.meta
    cfg = tiny_cfg("independence_multiscale", n_list=(200,), reps=2,
                   draws=60, gamma_list=(0.2,))
    rep = hz.run_independence_multiscale(cfg)
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


def test_joint_never_exceeds_marginals():
    cfg = tiny_cfg("independence_l2", n_list=(300,), reps=2, draws=80,
                   gamma_list=(0.1, 0.3))
    rep = hz.run_independence_l2(cfg)
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
                    "format = json\n# comment line\n")
    out = tmp_path / "reports"
    rc = cli.main(["cred-table", "--config", str(conf), "--out", str(out)])
    assert rc == 0
    assert (out / "credibility_table.json").exists()


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
    assert err.startswith("error: unsupported signal 'volterra_sine:1.5:1.0'")
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
])
def test_cli_config_keys_checked_per_experiment(tmp_path, capsys, command, lines, ok):
    conf = tmp_path / "run.cfg"
    conf.write_text(lines)
    argv = [command, "--config", str(conf), "--out", str(tmp_path / "out")]
    if ok:
        cfg = cli.make_config(cli.build_parser().parse_args(argv))
        assert set(cfg.extras) == {ln.split("=")[0].strip() for ln in lines.splitlines()}
    else:
        assert cli.main(argv) == 2
        assert "unknown config keys" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


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
