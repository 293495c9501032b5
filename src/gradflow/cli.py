"""Command-line entry point.

Subcommands::

    gradflow run <config>                      single simulation
    gradflow compare <config>                  full vs normal-only pair
    gradflow sweep <config> --dt-ladder a,b,c  dt convergence ladder

Common option: ``--out DIR`` overrides the configured output directory.
Exit codes: 0 success, 1 solver abort, 2 bad input, which includes an
output path that cannot be written.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .config import ConfigError, RunConfig, check_dt, parse_config
from .flow import SolverAbort
from .runner import compare_variants, convergence_sweep, simulate

__all__ = ["main"]


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("config", help="path to a run configuration file")
    parser.add_argument(
        "--out",
        default=None,
        help="output directory (default: run.output_dir from the config)",
    )


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gradflow",
        description="Pseudospectral surface gradient-flow simulator.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    _add_common(sub.add_parser("run", help="run one simulation"))
    _add_common(
        sub.add_parser(
            "compare", help="run the fully coupled and normal-only variants side by side"
        )
    )
    p_sweep = sub.add_parser("sweep", help="run a time-step convergence ladder")
    _add_common(p_sweep)
    p_sweep.add_argument(
        "--dt-ladder",
        required=True,
        metavar="a,b,c",
        help="comma-separated decreasing list of time steps (at least three)",
    )
    p_sweep.add_argument(
        "--quantity",
        choices=("mass_error", "trajectory_error"),
        default="mass_error",
        help="error measure for the observed order (default: mass_error)",
    )
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)

    try:
        text = Path(args.config).read_text(encoding="utf-8-sig")
    except (OSError, UnicodeDecodeError) as exc:
        reason = exc.strerror if isinstance(exc, OSError) else exc
        print(f"error: cannot read config '{args.config}': {reason}", file=sys.stderr)
        return 2
    out = args.out
    try:
        config = parse_config(text)
        if out is None:
            out = config.output_dir
        return _dispatch(args, config, out)
    except (ConfigError, SolverAbort) as exc:
        # Bad input (exit 2), raised by parsing and by reading the initial
        # state in any command, or an aborted run of a harness (exit 1).
        print(f"error: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, ConfigError) else 1
    except OSError as exc:
        # An output that cannot be written, such as an --out path that is a
        # file, is bad input too; the initial snapshots are read as config.
        # A write that fails once its file is open, as on a full disk, names
        # no file: the output directory is named then.
        print(f"error: cannot write '{exc.filename or out}': {exc.strerror}", file=sys.stderr)
        return 2


def _dispatch(args: argparse.Namespace, config: RunConfig, out: str) -> int:
    if args.command == "run":
        if simulate(config, out_dir=out).aborted:
            print("run aborted; see report.txt and last_valid.sgf", file=sys.stderr)
            return 1
        return 0

    if args.command == "compare":
        result = compare_variants(config, out_dir=out)
        print(f"energy_ordered = {'true' if result.energy_ordered else 'false'}")
        print(
            "final_range_smaller = "
            f"{'true' if result.final_range_smaller else 'false'}"
        )
        return 0

    # sweep
    try:
        ladder = [float(part) for part in args.dt_ladder.split(",") if part.strip()]
    except ValueError:
        print(f"error: --dt-ladder must be comma-separated numbers, got {args.dt_ladder!r}", file=sys.stderr)
        return 2
    try:
        for dt in ladder:
            check_dt(dt, config.t_end, "--dt-ladder entry")
        rows = convergence_sweep(config, ladder, args.quantity, out_dir=out)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for row in rows:
        order = "-" if row.observed_order is None else f"{row.observed_order:.3f}"
        print(f"dt = {row.parameter:.6g}  error = {row.error:.6e}  order = {order}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
