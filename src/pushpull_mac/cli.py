"""Command-line entry point.

Subcommands: ``cff`` and ``rcs`` run a single configured simulation point,
``capacity`` runs the frontier sweep, ``sweep`` runs whatever the config
describes.  Exit codes: 0 success, 1 usage/config error, 2 runtime failure.
"""
from __future__ import annotations

import argparse
import sys
from dataclasses import fields, replace
from typing import List, Optional

from .harness import ConfigError, ExperimentConfig, enumerate_points, load_config, point_label, run_experiment


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad usage; the CLI contract wants 1
    def error(self, message: str) -> None:  # type: ignore[override]
        raise _UsageError(message)


# subcommand -> (its help, the experiment kind it runs, None for any; whether
# it runs a single point)
_COMMANDS = {
    "cff": ("single CFF simulation (one alpha)", "cff.simulate", True),
    "rcs": ("single RCS simulation (one alpha, one frame size)", "rcs.simulate", True),
    "capacity": ("CFF capacity frontier over alpha and latency targets", "cff.capacity", False),
    "sweep": ("config-driven batch (whatever the config describes)", None, False),
}


def _build_parser() -> _Parser:
    parser = _Parser(prog="pushpull-mac", description="Push-pull medium access frame simulator")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, _, single) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True, help="JSON experiment config")
        p.add_argument("--seed", type=int, default=None, help="override master_seed")
        p.add_argument("--out", default=None, help="override output CSV path")
        p.add_argument("--replications", type=int, default=None, help="override replications")
        p.add_argument("--quiet", action="store_true", help="suppress progress output")
        if not single:
            p.add_argument("--workers", type=int, default=1, help="parallel sweep-point workers")
    return parser


def _check_command(command: str, config: ExperimentConfig) -> None:
    _, kind, single = _COMMANDS[command]
    if kind not in (None, config.kind):
        protocol, experiment = kind.split(".")
        raise ConfigError(f"subcommand '{command}' needs protocol={protocol}, experiment={experiment}")
    if single and len(enumerate_points(config)) != 1:
        raise ConfigError(f"subcommand '{command}' runs a single point; give exactly one alpha and one frame size")


def main(argv: Optional[List[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"pushpull-mac: error: {exc}", file=sys.stderr)
        return 1

    try:
        config = load_config(args.config)
        # overrides go through their config keys' parsers, so each rule has one message
        parse = {f.name: f.metadata["parse"] for f in fields(ExperimentConfig)}
        overrides = (("master_seed", "--seed", args.seed), ("replications", "--replications", args.replications))
        for key, flag, value in overrides:
            if value is not None:
                config = replace(config, **{key: parse[key](value, flag)})
        out = parse["output"](args.out, "--out")
        workers = getattr(args, "workers", 1)
        if workers < 1:
            raise ConfigError("--workers must be >= 1")
        _check_command(args.command, config)
    except ConfigError as exc:
        print(f"pushpull-mac: config error: {exc}", file=sys.stderr)
        return 1

    log = None if args.quiet else (lambda msg: print(msg, file=sys.stderr))
    try:
        result = run_experiment(config, out=out, workers=workers, log=log)
    except Exception as exc:
        print(f"pushpull-mac: runtime failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2

    if not args.quiet:
        for row in result.rows:
            point = point_label(row["alpha"], row["S"], row["L_ms"])
            value = row["metric_value"] if row["metric_value"] else "n/a"
            line = f"{row['metric_name']}={value} ({point})"
            if row["error"]:
                line += f" [error: {row['error']}]"
            print(line)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
