"""Command-line entry points.

``gcsim run <config>`` executes one scenario and writes its report;
``gcsim compare <config>`` draws the workload once, replays it with the same
seed under all three collector modes and writes a combined comparison table;
each mode's files are those ``gcsim run --mode`` writes.  Each Raft
history is checked with ``check_history`` before the report is written.  Any
validation or runtime failure, or a safety violation, exits non-zero with
the reason on stderr.
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional

from .config import ConfigError, parse_config
from .metrics import emit_report, render_summary_table
from .raftcheck import check_history
from .scenarios import run_compare, run_scenario


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("config", help="scenario config file (key = value lines)")
    parser.add_argument("--out", default="out", help="output directory (default: out)")
    parser.add_argument("--seed", type=int, default=None, help="override the seed")
    parser.add_argument("--deadline-s", type=int, default=None,
                        help="override the simulated duration in seconds")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gcsim",
        description="simulate collector coordination in HTTP and replicated clusters")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run a single scenario")
    _add_common(run)
    run.add_argument("--mode", choices=("on", "off", "blade"), default=None,
                     help="override the collector mode")

    cmp_ = sub.add_parser("compare", help="run the scenario under all three modes")
    _add_common(cmp_)
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = parse_config(args.config)
    except OSError as exc:
        print(f"gcsim: cannot read config: {exc}", file=sys.stderr)
        return 2
    except ConfigError as exc:
        print(f"gcsim: invalid config: {exc}", file=sys.stderr)
        return 2

    try:
        if args.command == "run":
            results = [run_scenario(cfg, mode=args.mode, seed=args.seed,
                                    duration_s=args.deadline_s)]
            prefix = "run"
        else:
            results = run_compare(cfg, seed=args.seed, duration_s=args.deadline_s)
            prefix = "compare"
        for result in results:
            violations = check_history(result.trace) if result.trace is not None else []
            if violations:
                print(f"gcsim: {result.mode} raft history is unsafe: {violations[0]}",
                      file=sys.stderr)
                return 1
        summaries = [r.summary() for r in results]
        paths = emit_report(summaries, args.out, prefix=prefix)
    except ConfigError as exc:  # an invalid --seed, --deadline-s or --mode
        print(f"gcsim: invalid config: {exc}", file=sys.stderr)
        return 2
    except (OSError, ValueError) as exc:
        print(f"gcsim: run failed: {exc}", file=sys.stderr)
        return 1

    sys.stdout.write(render_summary_table(summaries))
    for path in paths:
        print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
