"""Command-line entry point.

Subcommands: ``cff`` and ``rcs`` run a single configured simulation point,
``capacity`` runs the frontier sweep, ``sweep`` runs whatever the config
describes.  Exit codes: 0 success, 1 usage/config error, 2 runtime failure.
"""
from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from typing import List, Optional

from .harness import ConfigError, ExperimentConfig, load_config, run_experiment
from .traffic import SEED_LIMIT


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad usage; the CLI contract wants 1
    def error(self, message: str) -> None:  # type: ignore[override]
        raise _UsageError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="pushpull-mac", description="Push-pull medium access frame simulator")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("cff", "single CFF simulation (one alpha)"),
        ("rcs", "single RCS simulation (one alpha, one frame size)"),
        ("capacity", "CFF capacity frontier over alpha and latency targets"),
        ("sweep", "config-driven batch (whatever the config describes)"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True, help="JSON experiment config")
        p.add_argument("--seed", type=int, default=None, help="override master_seed")
        p.add_argument("--out", default=None, help="override output CSV path")
        p.add_argument("--replications", type=int, default=None, help="override replications")
        p.add_argument("--quiet", action="store_true", help="suppress progress output")
        if name in ("capacity", "sweep"):
            p.add_argument("--workers", type=int, default=1, help="parallel sweep-point workers")
    return parser


def _check_command(command: str, config: ExperimentConfig) -> None:
    if command == "cff":
        if config.protocol != "cff" or config.experiment != "simulate":
            raise ConfigError("subcommand 'cff' needs protocol=cff, experiment=simulate")
        if len(config.alphas) != 1:
            raise ConfigError("subcommand 'cff' runs a single point; give exactly one alpha")
    elif command == "rcs":
        if config.protocol != "rcs":
            raise ConfigError("subcommand 'rcs' needs protocol=rcs")
        if len(config.alphas) != 1 or len(config.slots_per_frame_values) != 1:
            raise ConfigError("subcommand 'rcs' runs a single point; give one alpha and one frame size")
    elif command == "capacity":
        if config.protocol != "cff" or config.experiment != "capacity":
            raise ConfigError("subcommand 'capacity' needs protocol=cff, experiment=capacity")


def main(argv: Optional[List[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"pushpull-mac: error: {exc}", file=sys.stderr)
        return 1

    try:
        config = load_config(args.config)
        if args.seed is not None:
            if not 0 <= args.seed < SEED_LIMIT:
                raise ConfigError(f"--seed must be in [0, 2**64), got {args.seed}")
            config = replace(config, master_seed=args.seed)
        if args.replications is not None:
            if args.replications < 1:
                raise ConfigError("--replications must be >= 1")
            config = replace(config, replications=args.replications)
        workers = getattr(args, "workers", 1)
        if workers < 1:
            raise ConfigError("--workers must be >= 1")
        _check_command(args.command, config)
    except ConfigError as exc:
        print(f"pushpull-mac: config error: {exc}", file=sys.stderr)
        return 1

    log = None if args.quiet else (lambda msg: print(msg, file=sys.stderr))
    try:
        result = run_experiment(config, out=args.out, workers=workers, log=log)
    except ConfigError as exc:
        print(f"pushpull-mac: config error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:
        print(f"pushpull-mac: runtime failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2

    if not args.quiet:
        for row in result.rows:
            point = f"alpha={row['alpha']}, S={row['S']}"
            if row["L_ms"]:
                point += f", L={row['L_ms']}ms"
            value = row["metric_value"] if row["metric_value"] else "n/a"
            line = f"{row['metric_name']}={value} ({point})"
            if row["error"]:
                line += f" [error: {row['error']}]"
            print(line)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
