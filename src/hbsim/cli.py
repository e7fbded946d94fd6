"""Command-line interface.

Subcommands:
  run       execute all runs of one config file and write its tables
  sweep     grid of sizes x failure rates x protocols, one dir per config
  replay    re-execute a single run index of a config, bit-identically
  plotdata  derive the figure-style tables from an output directory
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from operator import itemgetter
from pathlib import Path

from .experiment import (
    ConfigError,
    ExperimentConfig,
    aggregate,
    grid_configs,
    parse_config,
    run_config,
    run_one,
    run_sweep,
)
from .outputs import (
    SUMMARY_HEADER,
    collect_plot_inputs,
    emit_plot_data,
    summary_row,
    write_outputs,
    write_sweep_outputs,
)
from .protocols import PROTOCOL_KINDS


def _load_config(path: str) -> ExperimentConfig:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    return parse_config(text)


def _apply_overrides(cfg: ExperimentConfig, args) -> ExperimentConfig:
    if getattr(args, "seed", None) is not None:
        cfg = replace(cfg, seed=args.seed)
    if getattr(args, "runs", None) is not None:
        cfg = replace(cfg, runs=args.runs)
    if getattr(args, "duration", None) is not None:
        cfg = replace(cfg, duration_s=args.duration)
    return cfg


def _print_summaries(summaries) -> None:
    print(SUMMARY_HEADER)
    for summary in summaries:
        print(summary_row(summary))


def _csv_list(parser_fn, what):
    def parse(text: str):
        try:
            values = [parser_fn(part) for part in text.split(",") if part != ""]
        except ValueError:
            raise argparse.ArgumentTypeError(f"bad {what} list: {text!r}") from None
        if not values:
            # an empty grid would run no cell and still report success
            raise argparse.ArgumentTypeError(f"empty {what} list: {text!r}")
        return values
    return parse


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _fingerprint_clashes(configs) -> list[str]:
    """One line per sweep cell name that more than one config maps to.

    The name rounds the rate with ``{:g}``, so distinct rates such as 1 and
    1.0000001 can share it, as can a size, rate or protocol given twice;
    such cells would write into one output directory.
    """
    cells: dict[str, list[ExperimentConfig]] = {}
    for cfg in configs:
        cells.setdefault(cfg.fingerprint(), []).append(cfg)
    return [
        f"{name}: " + ", ".join(
            f"(nodes={c.nodes}, rate={c.failure.rate_pct_per_min!r}, protocol={c.protocol.kind})"
            for c in group)
        for name, group in cells.items() if len(group) > 1
    ]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hbsim",
        description="Heartbeat-propagation simulator for cloud-scale data centres.")
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="execute one experiment config")
    run_p.add_argument("--config", required=True, help="key=value config file")
    run_p.add_argument("--out", required=True, help="output directory")
    run_p.add_argument("--seed", type=int, help="override the config seed")
    run_p.add_argument("--runs", type=int, help="override the number of runs")
    run_p.add_argument("--duration", type=float, help="override duration_s")
    run_p.add_argument("--workers", type=_positive_int, help="parallel run workers")

    sweep_p = sub.add_parser("sweep", help="grid sweep over sizes, rates, protocols")
    sweep_p.add_argument("--config", help="base config file (defaults otherwise)")
    sweep_p.add_argument("--nodes", required=True, type=_csv_list(int, "nodes"),
                         help="comma-separated DC sizes, e.g. 100,1000")
    sweep_p.add_argument("--rates", required=True, type=_csv_list(float, "rates"),
                         help="comma-separated failure rates in %%/min, e.g. 0.1,1,10")
    sweep_p.add_argument("--protocol", required=True, type=_csv_list(str, "protocols"),
                         help=f"comma-separated protocols from {', '.join(PROTOCOL_KINDS)}")
    sweep_p.add_argument("--out", help="output directory (sweep is dry if omitted)")
    sweep_p.add_argument("--seed", type=int)
    sweep_p.add_argument("--runs", type=int)
    sweep_p.add_argument("--duration", type=float)
    sweep_p.add_argument("--workers", type=_positive_int)

    replay_p = sub.add_parser("replay", help="re-execute one run of a config")
    replay_p.add_argument("--config", required=True)
    replay_p.add_argument("--run", required=True, type=int, help="run index")
    replay_p.add_argument("--out", help="write this run's tables here")
    replay_p.add_argument("--seed", type=int)
    replay_p.add_argument("--duration", type=float)

    plot_p = sub.add_parser("plotdata", help="derive plot tables from outputs")
    plot_p.add_argument("--out", required=True, help="directory holding summary.csv")
    return parser


def cmd_run(args) -> int:
    cfg = _apply_overrides(_load_config(args.config), args)
    outputs, summary = run_config(cfg, workers=args.workers)
    write_outputs(outputs, summary, args.out)
    _print_summaries([summary])
    return 0


def cmd_sweep(args) -> int:
    base = _load_config(args.config) if args.config else ExperimentConfig(nodes=100)
    base = _apply_overrides(base, args)
    for kind in args.protocol:
        if kind not in PROTOCOL_KINDS:
            print(f"hbsim: unknown protocol {kind!r}", file=sys.stderr)
            return 2
    configs = grid_configs(base, args.nodes, args.rates, args.protocol)
    clashes = _fingerprint_clashes(configs)
    if clashes:
        print("hbsim: sweep cells would share an output directory:", file=sys.stderr)
        for line in clashes:
            print(f"  {line}", file=sys.stderr)
        return 2
    cells = run_sweep(configs, workers=args.workers)
    if args.out:
        summaries = write_sweep_outputs(cells, args.out)
    else:
        # map drops each cell as soon as its summary is taken
        summaries = list(map(itemgetter(2), cells))
    _print_summaries(summaries)
    return 1 if len(summaries) < len(configs) else 0


def cmd_replay(args) -> int:
    cfg = _apply_overrides(_load_config(args.config), args)
    if not 0 <= args.run < cfg.runs:
        print(f"hbsim: run index {args.run} outside [0, {cfg.runs})", file=sys.stderr)
        return 1
    output = run_one(cfg, args.run)
    summary = aggregate(cfg, [output])
    if args.out:
        write_outputs([output], summary, args.out)
    _print_summaries([summary])
    return 0


def cmd_plotdata(args) -> int:
    summaries, series = collect_plot_inputs(args.out)
    paths = emit_plot_data(summaries, series, args.out)
    for name in sorted(paths):
        print(paths[name])
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "run": cmd_run,
        "sweep": cmd_sweep,
        "replay": cmd_replay,
        "plotdata": cmd_plotdata,
    }
    try:
        return handlers[args.command](args)
    except ConfigError as exc:
        print(f"hbsim: config error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"hbsim: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
