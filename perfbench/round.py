"""One round of one workload, in a fresh process.

    python3 perfbench/round.py --workload NAME --seed N --level light|trace --workdir DIR

Writes the workload's configs under DIR, runs it once against the
program under ``src/``, measures it, checks its outputs and prints one
JSON object.  The checks run after the wall time and peak memory are
taken.  ``run.py`` starts one of these per round, so every round pays its
own imports, reports its own peak memory and is checked in full.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import probe  # noqa: E402
from meter import mean  # noqa: E402
from probe import CALLS, EXTRA, SCALED, SELF, TOTAL, UNSCALED  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

from hbsim import PROTOCOL_KINDS  # noqa: E402

PROBE_ENV = "PERFBENCH_PROBE"

if __name__ == "__mp_main__":
    # a pool worker started by spawn re-imports this script: instrument it too
    probe.install(os.environ[PROBE_ENV])


def self_peak_kb() -> int:
    """This process's peak resident memory since it started.

    ``ru_maxrss`` of RUSAGE_SELF would also cover the parent's memory from
    before the exec that started this process; VmHWM covers only this
    program image.
    """
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM line in /proc/self/status")


def merged_stats(rec) -> dict:
    """The process's own stats plus every run's, summed per name."""
    total: dict[str, list] = {}
    for table in [rec.stats] + [r["stats"] for r in rec.runs]:
        for name, s in table.items():
            acc = total.setdefault(name, [0, 0.0, 0.0, 0])
            for i in range(4):
                acc[i] += s[i]
    return total


def layer_metrics(stats: dict, runs: list, wall: float, workers: int, out: Path) -> dict:
    """The per-layer figures of a traced round, named as in BENCHMARK.json."""
    def g(name, field):
        return stats.get(name, [0, 0.0, 0.0, 0])[field]

    def per_run(key):
        return sum(r[key] for r in runs)

    busy = g("experiment.run", TOTAL)
    m = {
        "des.events": g("des.events", EXTRA),
        "des.loop_self_s": g("des.loop", SELF),
        "des.schedule_calls": g("des.schedule", CALLS),
        "des.schedule_s": g("des.schedule", TOTAL),
        "des.rng_draws": g("des.rng", CALLS),
        "des.rng_s": g("des.rng", TOTAL),
        "des.peak_queue_len": max(r["peak_queue"] for r in runs),
        "experiment.update_polls": per_run("update_polls"),
        "experiment.dispatch_update_self_s": g("experiment.dispatch_update", SELF),
        "experiment.dispatch_probe_s": g("experiment.dispatch_probe", TOTAL),
        "experiment.dispatch_failure_self_s": g("experiment.dispatch_failure", SELF),
        "experiment.worker_busy_s": busy,
        "experiment.worker_idle_s": workers * wall - busy,
        "experiment.result_mb": per_run("result_bytes") / 1e6,
        "experiment.aggregate_s": g("experiment.aggregate", TOTAL),
        "datacenter.build_s": g("datacenter.build", TOTAL),
        "datacenter.finish_load_s": g("datacenter.finish_load", TOTAL),
        "datacenter.total_messages": per_run("total_messages"),
        "datacenter.total_payload_entries": per_run("total_payload_entries"),
        "datacenter.load_rows": per_run("load_rows"),
        "failure.fire_calls": g("failure.fire", CALLS),
        "failure.fire_self_s": g("failure.fire", SELF),
        "protocols.make_poller_s": g("protocols.make_poller", TOTAL),
        "protocols.build_global_view_s": g("protocols.build_global_view", TOTAL),
    }
    for method in ("apply_observation", "message", "advance_window", "set_liveness"):
        m[f"datacenter.{method}_calls"] = g(f"datacenter.{method}", CALLS)
        m[f"datacenter.{method}_s"] = g(f"datacenter.{method}", TOTAL)
    for kind in PROTOCOL_KINDS:
        calls = g(f"protocols.{kind}.poll", CALLS)
        poll_s = g(f"protocols.{kind}.poll", TOTAL)
        msgs = sum(r["total_messages"] for r in runs if r["kind"] == kind)
        m[f"protocols.{kind}.poll_calls"] = calls
        m[f"protocols.{kind}.poll_s"] = poll_s
        m[f"protocols.{kind}.poll_us"] = poll_s / calls * 1e6 if calls else 0.0
        m[f"protocols.{kind}.messages_per_poll"] = msgs / calls if calls else 0.0
    serve_calls = g("protocols.central.serve", CALLS)
    refusals = g("protocols.central.serve", EXTRA)
    m["protocols.central.serve_calls"] = serve_calls
    m["protocols.central.serve_s"] = g("protocols.central.serve", TOTAL)
    m["protocols.central.refusals"] = refusals
    m["protocols.central.served_ratio"] = (
        (serve_calls - refusals) / serve_calls if serve_calls else 0.0)
    m["protocols.fallback_polls"] = g("protocols.direct_poll", CALLS)
    files = [p for p in out.rglob("*.csv")] if out.is_dir() else []
    m["outputs.write_s"] = g("outputs.write", TOTAL)
    m["outputs.bytes"] = sum(p.stat().st_size for p in files)
    m["outputs.rows"] = sum(p.read_bytes().count(b"\n") - 1 for p in files)
    return m


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--level", required=True, choices=(probe.LIGHT, probe.TRACE))
    parser.add_argument("--workdir", required=True, type=Path)
    args = parser.parse_args(argv)

    os.environ[PROBE_ENV] = args.level
    rec = probe.install(args.level)
    wl = WORKLOADS[args.workload]
    wl.write_configs(args.seed, args.workdir)
    out = args.workdir / "out"

    rec.meter.start()
    mark = rec.meter.mark()
    t0 = perf_counter()
    results = wl.execute(args.seed, args.workdir)
    host_wall = perf_counter() - t0
    wall, speeds = rec.meter.since(mark, host_wall)
    rec.meter.stop()
    peak_kb = max(self_peak_kb(), resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)

    runs = rec.runs
    # the round's speed: this process's samples and those of pool workers
    speed = mean(speeds + [x for r in runs if r["pid"] != os.getpid() for x in r["speeds"]])

    def at_ref(name: str) -> float:
        """A light-level span summed over every run, at the reference speed."""
        return sum(r["stats"].get(SCALED + name, [0, 0.0])[TOTAL]
                   + r["stats"].get(UNSCALED + name, [0, 0.0])[TOTAL] * speed for r in runs)

    def raw(name: str) -> float:
        return sum(r["stats"][name][TOTAL] for r in runs)

    if results is None:
        digest = checks.digest_dir(out)
        tables = checks.read_outputs(wl.cells, out, wl.mode)
    else:
        digest = checks.digest_memory(results)
        tables = {c.key: checks.tables_from_memory(c, *results[c.key]) for c in wl.cells}
    for r in runs:
        t = tables.get(tuple(r["cell"]))
        if t is not None:
            t.totals[r["run"]] = r
    failed = checks.check_cells(wl.cells, tables)

    report = {
        "wall_s": wall * speed,
        "setup_s": at_ref("experiment.init_run") + at_ref("protocols.make_poller"),
        "loop_s": at_ref("des.loop"),
        "peak_rss_mb": peak_kb / 1024,
        "speed": speed,
        "raw": {"wall_s": host_wall,
                "setup_s": raw("experiment.init_run") + raw("protocols.make_poller"),
                "loop_s": raw("des.loop")},
        "digest": digest,
        "failed": {repr(cell): errors for cell, errors in failed.items()},
        "counts": {
            "des.events": sum(r["stats"]["des.events"][EXTRA] for r in runs),
            "experiment.update_polls": sum(r["update_polls"] for r in runs),
            "datacenter.total_messages": sum(r["total_messages"] for r in runs),
            "datacenter.total_payload_entries": sum(r["total_payload_entries"] for r in runs),
            "datacenter.load_rows": sum(r["load_rows"] for r in runs),
        },
    }
    if args.level == probe.TRACE:
        stats = merged_stats(rec)
        report["layers"] = layer_metrics(stats, runs, host_wall, wl.workers, out)
        report["stats"] = {name: dict(zip(("calls", "total_s", "self_s", "extra"), s))
                           for name, s in sorted(stats.items())}
        report["spans"] = rec.spans + [s for r in runs for s in r["spans"]]
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
