"""Command-line front end: one subcommand per experiment.

Exit codes: 0 on success, 2 on configuration errors ("config error: ...")
and on errors raised while the experiment runs ("error: ..."), 3 when
--check is set and one of the experiment's headline thresholds fails.  Any
flag may also be supplied through a KEY=VALUE config file via --config;
explicit flags win.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys

from . import harness

SUBCOMMANDS = {
    "coverage": "coverage",
    "cred-table": "credibility_table",
    "indep-l2": "independence_l2",
    "indep-ms": "independence_multiscale",
    "neg-bvm": "negative_bvm",
    "dirichlet": "dirichlet_demo",
    "radius-scaling": "radius_scaling",
    "oversmooth": "oversmoothing_demo",
}


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="credlab",
                                description="Credible-set simulation laboratory")
    sub = p.add_subparsers(dest="command", required=True)
    for name in SUBCOMMANDS:
        sp = sub.add_parser(name, help=f"run the {SUBCOMMANDS[name]} experiment")
        sp.add_argument("--n", help="comma-separated noise levels")
        sp.add_argument("--gamma", help="comma-separated significance levels")
        sp.add_argument("--draws", type=int, help="posterior draws per calibration")
        sp.add_argument("--reps", type=int, help="replications")
        sp.add_argument("--seed", type=int, help="master seed")
        sp.add_argument("--prior", help="eb | hb | fixed:<alpha> | slabspike")
        sp.add_argument("--signal", help="power_sine:a:b | truncated_laplace:loc:scale")
        sp.add_argument("--out", help="output directory (default: reports)")
        sp.add_argument("--format", choices=("csv", "json"), help="report format")
        sp.add_argument("--config", help="KEY=VALUE config file supplying any flag")
        sp.add_argument("--check", action="store_true",
                        help="exit 3 when a headline threshold fails")
    return p


def read_config_file(path: str) -> dict:
    out = {}
    with open(path) as fh:
        for raw in fh:
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"malformed config line: {raw.rstrip()}")
            key, val = line.split("=", 1)
            out[key.strip().replace("-", "_")] = val.strip()
    return out


def _parse_list(text: str, cast):
    return tuple(cast(tok) for tok in text.split(",") if tok)


def make_config(args: argparse.Namespace) -> harness.ExperimentConfig:
    """Preset for the subcommand with config-file values and flags applied;
    the result is validated again after the overrides.  A flag or config key
    the experiment never reads is rejected."""
    cfg = harness.ExperimentConfig.defaults(SUBCOMMANDS[args.command])
    file_vals = read_config_file(args.config) if args.config else {}

    def pick(flag, file_key=None):
        v = getattr(args, flag, None)
        return v if v is not None else file_vals.get(file_key or flag)

    overrides = (("n", "n_list", lambda v: _parse_list(str(v), float)),
                 ("gamma", "gamma_list", lambda v: _parse_list(str(v), float)),
                 ("draws", "draws", int), ("reps", "reps", int),
                 ("seed", "seed", int), ("prior", "prior", str),
                 ("signal", "signal", str), ("format", "fmt", str))
    unread = [flag for flag in harness.UNREAD_FLAGS.get(cfg.experiment, ())
              if pick(flag) is not None]
    if unread:
        raise ValueError(f"{args.command} does not read --{', --'.join(unread)}")
    fields = {attr: cast(pick(flag)) for flag, attr, cast in overrides
              if pick(flag) is not None}
    out = pick("out")
    fields["out_dir"] = str(out) if out is not None else "reports"
    known = {flag for flag, _, _ in overrides} | {"out"}
    fields["extras"] = {key: val for key, val in file_vals.items() if key not in known}
    return dataclasses.replace(cfg, **fields)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = make_config(args)
    except (ValueError, OSError, KeyError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    try:
        report = harness.run_experiment(cfg)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    path = os.path.join(cfg.out_dir, f"{report.kind}.{cfg.fmt}")
    harness.emit(report, cfg.fmt, path)
    print(f"wrote {path}")
    failures = 0
    if args.check:
        for name, ok, detail in harness.check_report(report):
            print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
            failures += not ok
    return 3 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
