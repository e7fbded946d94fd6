"""File outputs: per-run CSV tables, sweep summaries, plot-ready views.

All CSVs are comma-separated with a header row, '.' decimals, LF line
endings, and deterministic row order, so identical runs produce
byte-identical files.  Load rows are sparse (components with zero
traffic in a window are omitted); the switch appears as component
"switch", nodes as their integer ids.

A single-config run writes probes/failures/load/summary directly into
the output directory.  A sweep writes one subdirectory per config
fingerprint plus a combined summary.csv at the top.
"""

from __future__ import annotations

import csv
import os
from pathlib import Path

from .experiment import RunOutput, SweepSummary

PROBES_CSV = "probes.csv"
FAILURES_CSV = "failures.csv"
LOAD_CSV = "load.csv"
SUMMARY_CSV = "summary.csv"

PROBES_HEADER = "run,t,inconsistent_nodes"
FAILURES_HEADER = "run,t,node,effect,inconsistent_nodes_at_event"
LOAD_HEADER = "run,window_start,component,messages,payload_entries"
SUMMARY_HEADER = ("nodes,rate_pct_per_min,protocol,runs,"
                  "mean,sd,min,max,ci95_halfwidth,normalized_mean")

PLOT_MEAN_CI_CSV = "plot_mean_ci.csv"
PLOT_NORMALIZED_CSV = "plot_normalized.csv"
PLOT_PROBE_SERIES_CSV = "plot_probe_series.csv"


def _write_lines(path: Path, header: str, lines) -> Path:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(header + "\n")
        for line in lines:
            fh.write(line + "\n")
    return path


def _component_label(component: int, nodes: int) -> str:
    return "switch" if component == nodes else str(component)


def summary_row(summary: SweepSummary) -> str:
    ci = "" if summary.ci95_halfwidth is None else str(summary.ci95_halfwidth)
    return (f"{summary.nodes},{summary.rate_pct_per_min},{summary.protocol},"
            f"{summary.runs},{summary.mean},{summary.sd},{summary.min},"
            f"{summary.max},{ci},{summary.normalized_mean}")


def write_outputs(outputs: list[RunOutput], summary: SweepSummary,
                  out_dir: str | os.PathLike) -> dict[str, Path]:
    """Write the four tables for one config into ``out_dir``."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    nodes = summary.nodes

    probe_lines = (f"{run.run_index},{t},{count}"
                   for run in outputs for t, count in run.probes)
    failure_lines = (f"{run.run_index},{t},{node},{effect},{count}"
                     for run in outputs for t, node, effect, count in run.failures)
    load_lines = (f"{run.run_index},{start},{_component_label(comp, nodes)},{msgs},{pay}"
                  for run in outputs for start, comp, msgs, pay in run.load)
    paths = {
        PROBES_CSV: _write_lines(out / PROBES_CSV, PROBES_HEADER, probe_lines),
        FAILURES_CSV: _write_lines(out / FAILURES_CSV, FAILURES_HEADER, failure_lines),
        LOAD_CSV: _write_lines(out / LOAD_CSV, LOAD_HEADER, load_lines),
        SUMMARY_CSV: _write_lines(out / SUMMARY_CSV, SUMMARY_HEADER, [summary_row(summary)]),
    }
    return paths


def write_summary_csv(summaries: list[SweepSummary], path: str | os.PathLike) -> Path:
    return _write_lines(Path(path), SUMMARY_HEADER,
                        (summary_row(s) for s in summaries))


def write_sweep_outputs(cells, out_dir: str | os.PathLike) -> list[SweepSummary]:
    """Write a sweep as its cells arrive; returns their summaries in order.

    ``cells`` yields ``(config, outputs, summary)`` per config, as
    ``run_sweep`` does.  Each cell's tables land in ``out_dir/<fingerprint>/``
    as soon as it arrives, and its outputs are dropped before the next cell
    is asked for.  The combined summary.csv lands at the top level once
    ``cells`` is exhausted, so an interrupted sweep leaves the finished
    cells' tables but no summary.csv.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    summaries = []
    for _, outputs, summary in cells:
        write_outputs(outputs, summary, out / summary.fingerprint())
        summaries.append(summary)
        del outputs
    write_summary_csv(summaries, out / SUMMARY_CSV)
    return summaries


# -- plot-ready views ------------------------------------------------------

def emit_plot_data(summaries: list[SweepSummary], probe_series,
                   out_dir: str | os.PathLike) -> dict[str, Path]:
    """Write the three figure-style tables.

    (a) mean with its 95% CI half-width per (nodes, rate, protocol);
    (b) normalized mean (mean / nodes) grouped by failure rate;
    (c) raw per-run probe time series for recovery curves, where
        ``probe_series`` maps a config fingerprint to rows of
        (run, t, inconsistent_nodes) -- pass an empty dict to skip series.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)

    by_cell = sorted(summaries, key=lambda s: (s.nodes, s.rate_pct_per_min, s.protocol))
    mean_ci_lines = (
        f"{s.nodes},{s.rate_pct_per_min},{s.protocol},{s.mean},"
        f"{'' if s.ci95_halfwidth is None else s.ci95_halfwidth}"
        for s in by_cell)

    by_rate = sorted(summaries, key=lambda s: (s.rate_pct_per_min, s.nodes, s.protocol))
    normalized_lines = (
        f"{s.rate_pct_per_min},{s.nodes},{s.protocol},{s.normalized_mean}"
        for s in by_rate)

    series_lines = []
    for s in by_cell:
        rows = probe_series.get(s.fingerprint())
        if not rows:
            continue
        for run, t, count in rows:
            series_lines.append(
                f"{s.nodes},{s.rate_pct_per_min},{s.protocol},{run},{t},{count}")

    return {
        PLOT_MEAN_CI_CSV: _write_lines(
            out / PLOT_MEAN_CI_CSV,
            "nodes,rate_pct_per_min,protocol,mean,ci95_halfwidth", mean_ci_lines),
        PLOT_NORMALIZED_CSV: _write_lines(
            out / PLOT_NORMALIZED_CSV,
            "rate_pct_per_min,nodes,protocol,normalized_mean", normalized_lines),
        PLOT_PROBE_SERIES_CSV: _write_lines(
            out / PLOT_PROBE_SERIES_CSV,
            "nodes,rate_pct_per_min,protocol,run,t,inconsistent_nodes", series_lines),
    }


def read_summaries(path: str | os.PathLike) -> list[SweepSummary]:
    """Load a summary.csv back into SweepSummary records."""
    summaries = []
    with open(path, encoding="utf-8", newline="") as fh:
        for row in csv.DictReader(fh):
            summaries.append(SweepSummary(
                nodes=int(row["nodes"]),
                rate_pct_per_min=float(row["rate_pct_per_min"]),
                protocol=row["protocol"],
                runs=int(row["runs"]),
                mean=float(row["mean"]),
                sd=float(row["sd"]),
                min=float(row["min"]),
                max=float(row["max"]),
                ci95_halfwidth=(float(row["ci95_halfwidth"])
                                if row["ci95_halfwidth"] != "" else None),
                normalized_mean=float(row["normalized_mean"]),
            ))
    return summaries


def read_probe_rows(path: str | os.PathLike) -> list[tuple[int, float, int]]:
    rows = []
    with open(path, encoding="utf-8", newline="") as fh:
        for row in csv.DictReader(fh):
            rows.append((int(row["run"]), float(row["t"]), int(row["inconsistent_nodes"])))
    return rows


def collect_plot_inputs(out_dir: str | os.PathLike):
    """Gather summaries and probe series from a run or sweep output dir."""
    out = Path(out_dir)
    summaries = read_summaries(out / SUMMARY_CSV)
    series = {}
    for s in summaries:
        sub = out / s.fingerprint() / PROBES_CSV
        flat = out / PROBES_CSV
        if sub.exists():
            series[s.fingerprint()] = read_probe_rows(sub)
        elif len(summaries) == 1 and flat.exists():
            series[s.fingerprint()] = read_probe_rows(flat)
    return summaries, series
