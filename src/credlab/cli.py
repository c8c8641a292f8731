"""Command-line front end: one subcommand per experiment of
``harness.EXPERIMENTS``, which declares each one's subcommand, preset,
priors, config keys and --check gates.

Exit codes: 0 on success, 2 on configuration errors ("config error: ...")
and on errors raised while the experiment runs ("error: ..."), 3 when
--check is set and one of the experiment's headline thresholds fails.  Any
flag may also be supplied through a KEY=VALUE config file via --config;
explicit flags win; it also takes the experiment's own keys, its
``Experiment.fields`` and ``Experiment.extras``.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import os
import sys

from . import harness

SUBCOMMANDS = {e.command: name for name, e in harness.EXPERIMENTS.items()}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process: parsing leaves it unchanged."""
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


def _parse_list(text: str):
    return tuple(float(tok) for tok in text.split(",") if tok)


# Each flag, the ExperimentConfig field it sets and how its value parses.
FLAGS = (("n", "n_list", _parse_list), ("gamma", "gamma_list", _parse_list),
         ("draws", "draws", int), ("reps", "reps", int), ("seed", "seed", int),
         ("prior", "prior", str), ("signal", "signal", str), ("out", "out_dir", str))


def _parse(key: str, value, cast):
    try:
        return cast(str(value))
    except ValueError:
        raise ValueError(f"cannot parse {key} = {value!r}") from None


def make_config(args: argparse.Namespace) -> harness.ExperimentConfig:
    """Preset for the subcommand with config-file values and flags applied;
    the result is validated again after the overrides.  A flag or config key
    the experiment never reads is rejected."""
    cfg = harness.ExperimentConfig.defaults(SUBCOMMANDS[args.command])
    exp = harness.EXPERIMENTS[cfg.experiment]
    given = read_config_file(args.config) if args.config else {}
    given.update((flag, getattr(args, flag)) for flag, _, _ in FLAGS
                 if getattr(args, flag) is not None)
    unread = [flag for flag, attr, _ in FLAGS if attr in exp.unread and flag in given]
    if unread:
        raise ValueError(f"{args.command} does not read --{', --'.join(unread)}")
    field_keys = [(key, key, float) for key in exp.fields]
    fields = {attr: _parse(key, given.pop(key), cast)
              for key, attr, cast in (*FLAGS, *field_keys) if key in given}
    fields.setdefault("out_dir", "reports")
    fields["extras"] = given
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
    path = os.path.join(cfg.out_dir, f"{report.kind}.csv")
    harness.emit(report, path)
    print(f"wrote {path}")
    failures = 0
    if args.check:
        for name, ok, detail in harness.EXPERIMENTS[cfg.experiment].gates(report):
            print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
            failures += not ok
    return 3 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
