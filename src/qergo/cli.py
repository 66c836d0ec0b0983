"""Command-line front end: run scenarios, verify invariants, dump partitions.

Exit codes: 0 success, 1 failed verification, 2 config/parse error,
3 invariant or value violation during a run, 4 I/O failure.
"""

from __future__ import annotations

import argparse
import sys

from .config import load_config
from .errors import ConfigError, QergoError
from .partition import dump_partition
from .runner import run_scenario
from .verify import verify_suite

__all__ = ["main"]


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qergo",
        description="Window-partition quantum simulator: deterministic scenario artifacts.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run every experiment block of a config")
    p_run.add_argument("config", help="scenario config file")
    p_run.add_argument("--out-dir", default=None, help="override the config's output directory")
    p_run.add_argument(
        "--strict-float",
        action="store_true",
        help="fail (exit 3) if any state needed renormalization against float drift",
    )

    sub.add_parser("verify", help="run the invariant batteries and report deviations")

    p_dump = sub.add_parser(
        "dump-partition", help="print one commuting set's window partition as CSV"
    )
    p_dump.add_argument("config", help="scenario config file")
    p_dump.add_argument("--window", type=int, required=True, help="window index (0-based)")
    p_dump.add_argument("--csco", required=True, help="commuting-set id from the config")
    return parser


def _cmd_run(args) -> int:
    written = run_scenario(
        args.config,
        out_dir=args.out_dir,
        strict_float=args.strict_float,
    )
    for path in written:
        print(path)
    return 0


def _cmd_dump_partition(args) -> int:
    scenario = load_config(args.config).scenario
    if args.csco not in {c.id for c in scenario.csets}:
        raise ConfigError(
            f"unknown csco id {args.csco!r}; config defines "
            + ", ".join(sorted(c.id for c in scenario.csets))
        )
    if args.window < 0:
        raise ValueError("--window must be non-negative")
    traj = scenario.build_trajectory(args.csco, args.window + 1)
    sys.stdout.write(dump_partition(traj.partition(args.window)))
    return 0


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "verify":
            return 0 if verify_suite() else 1
        return _cmd_dump_partition(args)
    except ConfigError as exc:
        print(f"qergo: config error: {exc}", file=sys.stderr)
        return 2
    except (QergoError, ValueError) as exc:
        print(f"qergo: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"qergo: i/o error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
