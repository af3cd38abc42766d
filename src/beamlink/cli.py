"""Command-line front end: load config, run the experiment, write the CSV.

Exit codes: 0 success, 1 config/validation error, 2 runtime or numerical
error.  Flags override config-file fields; the seed always comes from the
flag or the config, never the wall clock.
"""
from __future__ import annotations

import argparse
import sys

from beamlink.experiments import (
    EXPERIMENTS,
    ConfigError,
    emit_csv,
    load_config,
    run_experiment,
)

__all__ = ["main"]


def _parse_snr(text: str) -> dict:
    parts = text.split(":")
    if len(parts) != 3:
        raise ConfigError(f"--snr must be start:stop:step, got {text!r}")
    try:
        start, stop, step = (float(p) for p in parts)
    except ValueError:
        raise ConfigError(f"--snr values must be numbers, got {text!r}") from None
    return {"start": start, "stop": stop, "step": step}


class _Parser(argparse.ArgumentParser):
    """A malformed flag is a config error (exit 1), not argparse's exit 2."""

    def error(self, message: str):
        raise ConfigError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="beamlink",
        description="Monte-Carlo link simulator for coordinated interference-driving "
        "beamformers; writes per-SNR metric estimates as CSV.",
    )
    parser.add_argument("--config", help="JSON config file path")
    parser.add_argument("--experiment", choices=EXPERIMENTS, help="experiment to run")
    parser.add_argument("--seed", type=int, help="master seed (overrides config)")
    parser.add_argument("--trials", type=int, help="trials per SNR point")
    parser.add_argument("--out", dest="output", metavar="OUT", help="output CSV path")
    parser.add_argument("--snr", help="SNR sweep in dB as start:stop:step")
    parser.add_argument("--workers", type=int, help="parallel worker processes")
    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        # each flag but --config is named after the config field it overrides
        overrides = {
            key: _parse_snr(value) if key == "snr" else value
            for key, value in vars(args).items()
            if key != "config" and value is not None
        }
        config = load_config(args.config, overrides)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 1

    try:
        n_rows = emit_csv(run_experiment(config), config.output)
    except Exception as e:  # solver, estimation, or I/O failure after validation
        print(f"runtime error: {e}", file=sys.stderr)
        return 2

    print(f"{config.experiment}: wrote {n_rows} rows to {config.output}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
