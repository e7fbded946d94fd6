"""Output checks made apart from the program.

Each check tests a property the model must have, or recomputes a figure
from the raw tables; none compares with a stored copy of earlier output.
A check returns a list of error strings, empty when the property holds.
The tables are read from the CSVs the program wrote (or converted from its
in-memory outputs) into plain tuples, so the checks share no code with it.
"""

from __future__ import annotations

import csv
import hashlib
import math
from dataclasses import dataclass, field
from pathlib import Path

from workloads import (PROBE_INTERVAL_S, PROBE_START_S, REPAIR_POLICY, STALENESS_S,
                       UPDATE_MAX_S, Cell)

SUMMARY_FIELDS = ("nodes", "rate_pct_per_min", "protocol", "runs", "mean", "sd", "min", "max",
                  "ci95_halfwidth", "normalized_mean")


@dataclass
class Tables:
    """Everything one cell produced, as plain rows."""
    cell: Cell
    probes: list = field(default_factory=list)     # (run, t, count)
    failures: list = field(default_factory=list)   # (run, t, node, effect, count)
    load: list = field(default_factory=list)       # (run, window_start, component, msgs, payload)
    summaries: list = field(default_factory=list)  # dicts keyed by SUMMARY_FIELDS
    totals: dict = field(default_factory=dict)     # run -> figures the run reported


# -- reading outputs -------------------------------------------------------

def _rows(path: Path) -> list[dict]:
    with open(path, encoding="utf-8", newline="") as fh:
        return list(csv.DictReader(fh))


def _summary(row: dict) -> dict:
    out = {}
    for key in SUMMARY_FIELDS:
        value = row[key]
        if key == "protocol":
            out[key] = value
        elif key in ("nodes", "runs"):
            out[key] = int(value)
        else:
            out[key] = None if value == "" else float(value)
    return out


def read_cell_dir(cell: Cell, path: Path) -> Tables:
    tables = Tables(cell)
    tables.probes = [(int(r["run"]), float(r["t"]), int(r["inconsistent_nodes"]))
                     for r in _rows(path / "probes.csv")]
    tables.failures = [(int(r["run"]), float(r["t"]), int(r["node"]), r["effect"],
                        int(r["inconsistent_nodes_at_event"]))
                       for r in _rows(path / "failures.csv")]
    tables.load = [(int(r["run"]), float(r["window_start"]), r["component"],
                    int(r["messages"]), int(r["payload_entries"]))
                   for r in _rows(path / "load.csv")]
    tables.summaries = [_summary(r) for r in _rows(path / "summary.csv")]
    return tables


def read_outputs(cells, out: Path, mode: str) -> dict:
    """Tables per cell key from a round's output directory.

    A sweep's subdirectories are matched to cells by the summary row they
    hold, and its combined summary.csv rows are added to each cell's
    summaries so both are checked.
    """
    tables = {}
    if mode == "run":
        for i, cell in enumerate(cells):
            if (out / f"cell{i}").is_dir():
                tables[cell.key] = read_cell_dir(cell, out / f"cell{i}")
        return tables
    by_key = {c.key: c for c in cells}
    for sub in sorted(p for p in out.iterdir() if p.is_dir()):
        row = _summary(_rows(sub / "summary.csv")[0])
        key = (row["nodes"], row["rate_pct_per_min"], row["protocol"])
        if key in by_key:
            tables[key] = read_cell_dir(by_key[key], sub)
    for row in map(_summary, _rows(out / "summary.csv")):
        key = (row["nodes"], row["rate_pct_per_min"], row["protocol"])
        if key in tables:
            tables[key].summaries.append(row)
    return tables


def tables_from_memory(cell: Cell, outputs, summary) -> Tables:
    """The same tables from in-memory ``RunOutput`` objects."""
    tables = Tables(cell)
    for out in outputs:
        r = out.run_index
        tables.probes += [(r, t, c) for t, c in out.probes]
        tables.failures += [(r, t, node, effect, c) for t, node, effect, c in out.failures]
        tables.load += [(r, start, "switch" if comp == cell.nodes else str(comp), m, p)
                        for start, comp, m, p in out.load]
    tables.summaries = [{key: getattr(summary, key) for key in SUMMARY_FIELDS}]
    return tables


def digest_dir(out: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(p for p in out.rglob("*") if p.is_file()):
        h.update(str(path.relative_to(out)).encode() + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


def digest_memory(results: dict) -> str:
    h = hashlib.sha256()
    for key in sorted(results):
        outputs, summary = results[key]
        for out in outputs:
            h.update(repr((out.run_index, out.probes, out.failures, out.load,
                           out.summary)).encode())
        h.update(repr(summary).encode())
    return h.hexdigest()


# -- the checks ------------------------------------------------------------

def check_quiet_windows(t: Tables) -> list[str]:
    """A probe reads 0 when no node changed state in the window before it.

    Every alive node refreshes within update_max_s and is only served
    entries at most staleness_s old, so a change older than their sum is
    known to every operating node by the probe.
    """
    window = UPDATE_MAX_S + STALENESS_S
    changes: dict[int, list[float]] = {}
    for run, time, _, effect, _ in t.failures:
        if effect in ("failed", "repaired"):
            changes.setdefault(run, []).append(time)
    errors = []
    for run, p, count in t.probes:
        if count and not any(p - window <= f <= p for f in changes.get(run, ())):
            errors.append(f"run {run}: probe at t={p} reads {count} in a quiet window")
    return errors


def check_load_identities(t: Tables) -> list[str]:
    """Every message counts once on each end's link and once on the switch."""
    windows: dict[tuple, list[int]] = {}
    switch_total: dict[int, list[int]] = {}
    for run, start, comp, msgs, pay in t.load:
        w = windows.setdefault((run, start), [0, 0, 0, 0])
        if comp == "switch":
            w[0] += msgs
            w[1] += pay
            tot = switch_total.setdefault(run, [0, 0])
            tot[0] += msgs
            tot[1] += pay
        else:
            w[2] += msgs
            w[3] += pay
    errors = []
    for (run, start), (sw_m, sw_p, node_m, node_p) in sorted(windows.items()):
        if 2 * sw_m != node_m:
            errors.append(f"run {run} window {start}: 2 x switch messages {sw_m} "
                          f"!= link sum {node_m}")
        if 2 * sw_p != node_p:
            errors.append(f"run {run} window {start}: 2 x switch payload {sw_p} "
                          f"!= link sum {node_p}")
    for run, reported in sorted(t.totals.items()):
        sw_m, sw_p = switch_total.get(run, [0, 0])
        if sw_m != reported["total_messages"]:
            errors.append(f"run {run}: switch total {sw_m} != reported total messages "
                          f"{reported['total_messages']}")
        if sw_p != reported["total_payload_entries"]:
            errors.append(f"run {run}: switch payload {sw_p} != reported total payload "
                          f"{reported['total_payload_entries']}")
    return errors


def check_p2p_traffic(t: Tables) -> list[str]:
    """A P2P poll sends k requests and gets at most k replies; a simple poll
    always sends all k."""
    kind = t.cell.kind
    if kind not in ("simple_p2p", "transitive_p2p"):
        return []
    k = t.cell.k
    errors = []
    for run, reported in sorted(t.totals.items()):
        polls = reported["update_polls"]
        msgs = reported["total_messages"]
        low = k * polls if kind == "simple_p2p" else 0
        if not low <= msgs <= 2 * k * polls:
            errors.append(f"run {run}: {msgs} messages outside [{low}, {2 * k * polls}] "
                          f"for {polls} polls of k={k}")
    return errors


def check_failure_replay(t: Tables) -> list[str]:
    """Replaying the failure log from an all-alive start is consistent."""
    errors = []
    by_run: dict[int, list] = {}
    for run, time, node, effect, count in t.failures:
        by_run.setdefault(run, []).append((time, node, effect, count))
    n = t.cell.nodes
    for run, events in sorted(by_run.items()):
        alive = [True] * n
        last = -math.inf
        for time, node, effect, count in events:
            if not time > last:
                errors.append(f"run {run}: failure time {time} does not follow {last}")
            last = time
            if not 0 <= node < n or not 0 <= count <= n:
                errors.append(f"run {run} t={time}: node {node} or count {count} out of range")
                continue
            if effect == "failed" and alive[node]:
                alive[node] = False
            elif effect == "repaired" and not alive[node] and REPAIR_POLICY == "toggle_repair":
                alive[node] = True
            elif effect == "no_op" and not alive[node] and REPAIR_POLICY == "no_repair":
                pass
            else:
                errors.append(f"run {run} t={time}: {effect} on node {node} "
                              f"({'alive' if alive[node] else 'dead'})")
    return errors


def check_probe_schedule(t: Tables) -> list[str]:
    """Probes fire at probe_start_s + i * probe_interval_s up to the
    duration, in every run, and read a count in [0, n]."""
    cell = t.cell
    expected = []
    i = 0
    while PROBE_START_S + i * PROBE_INTERVAL_S <= cell.duration_s:
        expected.append(PROBE_START_S + i * PROBE_INTERVAL_S)
        i += 1
    errors = []
    for run in range(cell.runs):
        rows = [(p, c) for r, p, c in t.probes if r == run]
        times = [p for p, _ in rows]
        if times != expected:
            i = next((i for i, (a, b) in enumerate(zip(times, expected)) if a != b),
                     min(len(times), len(expected)))
            errors.append(f"run {run}: probe {i} of {len(times)} at "
                          f"{times[i] if i < len(times) else None}, schedule says "
                          f"{expected[i] if i < len(expected) else None} of {len(expected)}")
        bad = [c for _, c in rows if not 0 <= c <= cell.nodes]
        if bad:
            errors.append(f"run {run}: probe counts outside [0, {cell.nodes}]: {bad[:3]}")
    if {r for r, _, _ in t.probes} - set(range(cell.runs)):
        errors.append("probes for run indices beyond the configured runs")
    return errors


def check_summary(t: Tables) -> list[str]:
    """summary.csv recomputed from probes.csv: per-run time-averages, then
    mean, sd, min, max, CI half-width and normalized mean."""
    cell = t.cell
    per_run: dict[int, list[int]] = {}
    for run, _, count in t.probes:
        per_run.setdefault(run, []).append(count)
    means = [sum(c) / len(c) for _, c in sorted(per_run.items())]
    m = len(means)
    if m == 0:
        return ["no probes to summarise"]
    mean = sum(means) / m
    sd = math.sqrt(sum((x - mean) ** 2 for x in means) / (m - 1)) if m > 1 else 0.0
    ci = None
    if m > 1:
        # stdtrit is the function scipy.stats.t.ppf evaluates; scipy.special
        # imports in less than half the time of scipy.stats.  Imported only
        # here, after the round's timed region, so it stays out of its
        # memory peak.
        from scipy.special import stdtrit

        # the program pins t(0.975, df) to 3 decimals for df <= 30
        q = round(float(stdtrit(m - 1, 0.975)), 3) if m - 1 <= 30 else 1.96
        ci = q * sd / math.sqrt(m)
    want = {"nodes": cell.nodes, "rate_pct_per_min": cell.rate, "protocol": cell.kind,
            "runs": cell.runs, "mean": mean, "sd": sd, "min": min(means), "max": max(means),
            "ci95_halfwidth": ci, "normalized_mean": mean / cell.nodes}
    errors = []
    if not t.summaries:
        errors.append("no summary row")
    for row in t.summaries:
        for key, value in want.items():
            got = row[key]
            if isinstance(value, float) and got is not None:
                same = math.isclose(got, value, rel_tol=1e-9, abs_tol=1e-6)
            else:
                same = got == value
            if not same:
                errors.append(f"summary {key}: reported {got}, recomputed {value}")
    return errors


CHECKS = {
    "quiet_windows": check_quiet_windows,
    "load_identities": check_load_identities,
    "p2p_traffic": check_p2p_traffic,
    "failure_replay": check_failure_replay,
    "probe_schedule": check_probe_schedule,
    "summary": check_summary,
}


def check_cells(cells, tables: dict) -> dict:
    """Run every check on every cell; returns {cell key: [errors]} for the
    cells that failed, a missing cell counting as failed."""
    failed = {}
    for cell in cells:
        t = tables.get(cell.key)
        if t is None:
            failed[cell.key] = ["no output"]
            continue
        errors = []
        if sorted(t.totals) != list(range(cell.runs)):
            errors.append(f"runs reported {sorted(t.totals)}, configured {cell.runs}")
        for name, check in CHECKS.items():
            errors += [f"{name}: {e}" for e in check(t)]
        if errors:
            failed[cell.key] = errors
    return failed


def check_determinism(digests: list[str]) -> list[str]:
    """Every repetition in one invocation produced the same output bytes."""
    if len(set(digests)) > 1:
        return [f"output digests differ between repetitions: {sorted(set(digests))}"]
    return []
