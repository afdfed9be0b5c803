"""Command-line entry points.

Exit codes: 0 success (for `run`: a non-baseline decision), 3 baseline
fallback from `run`, 2 malformed config or data.
"""

from __future__ import annotations

import argparse
import os
import sys

from .harness import (
    ConfigError,
    emit_bounds_scatter,
    load_config,
    load_csv_inputs,
    run_benchmark,
    run_single,
    write_json,
    write_gamma_grid_csv,
    write_report_csv,
)
from .synthetic import build_class


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="snpl",
        description="Safe noisy policy learning: benchmark and certification runs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="run the replicated synthetic benchmark")
    sim.add_argument("--config", required=True, help="benchmark config JSON")
    sim.add_argument("--out", required=True, help="output directory")

    run = sub.add_parser("run", help="apply one method to a CSV dataset")
    run.add_argument("--data", required=True, help="dataset CSV")
    run.add_argument("--config", required=True, help="config JSON")
    run.add_argument("--out", required=True, help="trace JSON path")

    grid = sub.add_parser("gamma-grid", help="tabulate the stability level ratio")
    grid.add_argument("--out", required=True, help="output CSV path")
    grid.add_argument("--alpha-steps", type=int, default=50)
    grid.add_argument("--gamma-steps", type=int, default=80)

    scatter = sub.add_parser("bounds-scatter", help="per-policy bound coordinates")
    scatter.add_argument("--data", required=True, help="dataset CSV")
    scatter.add_argument("--config", required=True, help="config JSON")
    scatter.add_argument("--out", required=True, help="output CSV path")
    return parser


def _check_out_file(path: str) -> None:
    """Raises ConfigError unless a file can be created at path: its directory
    exists and path is not itself a directory."""
    parent = os.path.dirname(os.path.abspath(path))
    if not os.path.isdir(parent):
        raise ConfigError(f"cannot write output: no directory {parent}")
    if os.path.isdir(path):
        raise ConfigError(f"cannot write output: {path} is a directory")


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        if args.command == "simulate":
            config = load_config(args.config)
            try:
                os.makedirs(args.out, exist_ok=True)
            except OSError as err:
                raise ConfigError(f"cannot create output directory: {err}") from err
            report = run_benchmark(config, out_dir=args.out)
            write_report_csv(report, os.path.join(args.out, "report.csv"))
            write_json(report.to_json_dict(), os.path.join(args.out, "report.json"))
            return 0
        _check_out_file(args.out)
        if args.command == "run":
            return run_single(args.data, args.config, args.out)
        if args.command == "gamma-grid":
            steps = {"--alpha-steps": args.alpha_steps, "--gamma-steps": args.gamma_steps}
            for flag, count in steps.items():
                if count < 1:
                    raise ConfigError(f"{flag} must be >= 1, got {count}")
            write_gamma_grid_csv(args.out, args.alpha_steps, args.gamma_steps)
            return 0
        if args.command == "bounds-scatter":
            config, dataset = load_csv_inputs(args.data, args.config)
            emit_bounds_scatter(dataset, build_class(config.grid_size), config, args.out)
            return 0
    except ValueError as err:  # ConfigError included; library validation too
        print(f"error: {err}", file=sys.stderr)
        return 2
    raise AssertionError("unreachable")


if __name__ == "__main__":
    sys.exit(main())
