"""hbsim's benchmark: run workloads, check their outputs, report metrics.

    python3 perfbench/run.py [--workload all|NAME[,NAME...]] [--seed N]
                             [--seconds S] [--trace 0|1] [--results FILE]
    python3 perfbench/run.py --compare BEFORE.jsonl AFTER.jsonl

Run from the root of a checkout: the program is imported from ``src/``.
Each workload repeats whole rounds, each in a fresh process, until
``--seconds`` have passed, and reports the median of its rounds.  With
``--trace 0`` the last line of output is a JSON object holding the
end-to-end metrics of BENCHMARK.json; with ``--trace 1`` it holds the
per-layer metrics of a traced round, and untraced rounds interleave with
the traced ones to measure the tracing overhead.  ``--results`` appends
one JSON record per workload to FILE; ``--compare`` reads two such files.
See README.md next to this file.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
DEFAULT_SEED = 42
# each workload must end within 180 s, so that a single-workload invocation
# does; a round still running at this many seconds into its workload is
# stopped.  ``--workload all`` runs each workload under its own deadline.
DEADLINE_S = 170.0


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def run_round(workload: str, seed: int, level: str, index: int, timeout: float) -> dict | None:
    """One round in a fresh process, which also checks its outputs; None
    when it crashed or timed out."""
    workdir = OUT / "work" / f"{workload}-{os.getpid()}-{index}"
    shutil.rmtree(workdir, ignore_errors=True)
    cmd = [sys.executable, str(HERE / "round.py"), "--workload", workload,
           "--seed", str(seed), "--level", level, "--workdir", str(workdir)]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=timeout)
        if proc.returncode != 0:
            print(f"perfbench: {workload} round {index} failed:\n{proc.stderr[-4000:]}",
                  file=sys.stderr)
            return None
        return json.loads(proc.stdout.strip().splitlines()[-1])
    except subprocess.TimeoutExpired:
        print(f"perfbench: {workload} round {index} timed out after {timeout:.0f} s",
              file=sys.stderr)
        return None
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """Whole rounds until ``seconds`` have passed; medians of the rounds.

    A round that does not return counts all its operations as failed.  A
    traced invocation alternates untraced and traced rounds, starting
    untraced, and runs at least one of each.
    """
    from checks import check_determinism
    from workloads import WORKLOADS

    ops = len(WORKLOADS[workload].cells)
    start = perf_counter()
    rounds: list[tuple[str, dict | None]] = []
    while True:
        level = "trace" if trace and len(rounds) % 2 else "light"
        remaining = max(1.0, DEADLINE_S - (perf_counter() - start))
        rounds.append((level, run_round(workload, seed, level, len(rounds), remaining)))
        elapsed = perf_counter() - start
        per_round = elapsed / len(rounds)
        if trace and len(rounds) < 2 and rounds[-1][1] is not None:
            continue
        if elapsed + per_round > min(seconds, DEADLINE_S) or rounds[-1][1] is None:
            break

    done = [r for _, r in rounds if r is not None]
    light = [r for level, r in rounds if r is not None and level == "light"]
    traced = [r for level, r in rounds if r is not None and level == "trace"]
    errors = []
    failed = ops * (len(rounds) - len(done))
    for r in done:
        failed += len(r["failed"])
        errors += [f"{cell}: {e}" for cell, errs in r["failed"].items() for e in errs[:5]]
    errors += check_determinism([r["digest"] for r in done])
    counts = [r["counts"] for r in done]
    if any(c != counts[0] for c in counts):
        errors.append("deterministic counts differ between rounds")
    result = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace),
        "correct": not errors and failed == 0 and bool(light) and (bool(traced) or not trace),
        "attempted": ops * len(rounds), "failed": failed, "errors": errors,
        "rounds": {"light": len(light), "trace": len(traced)},
        "counts": counts[0] if counts else {},
    }
    if light:
        result["metrics"] = {
            "wall_s": statistics.median(r["wall_s"] for r in light),
            "setup_s": statistics.median(r["setup_s"] for r in light),
            "events_per_s": statistics.median(r["counts"]["des.events"] / r["loop_s"]
                                              for r in light),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in light),
        }
        result["round_wall_s"] = [r["wall_s"] for r in light]
        # the same figures in host time, unscaled, and the host's speed
        result["host"] = {
            "wall_s": statistics.median(r["raw"]["wall_s"] for r in light),
            "setup_s": statistics.median(r["raw"]["setup_s"] for r in light),
            "events_per_s": statistics.median(r["counts"]["des.events"] / r["raw"]["loop_s"]
                                              for r in light),
            "speed": statistics.median(r["speed"] for r in light),
        }
    if traced:
        layers = {name: statistics.median(r["layers"][name] for r in traced)
                  for name in traced[0]["layers"]}
        if light:
            layers["trace.overhead_s"] = (statistics.median(r["wall_s"] for r in traced)
                                          - result["metrics"]["wall_s"])
        result["layers"] = layers
        OUT.mkdir(exist_ok=True)
        trace_file = OUT / f"trace-{workload}-seed{seed}.json"
        trace_file.write_text(json.dumps({
            "workload": workload, "seed": seed, "layers": layers,
            "stats": traced[0]["stats"], "spans": traced[0]["spans"]}, indent=1))
        result["trace_file"] = str(trace_file.relative_to(ROOT))
    return result


def print_result(result: dict, spec: dict) -> dict:
    """Human-readable lines for one workload; returns its metrics in the
    {name: {value, unit}} form of the final JSON line."""
    trace = result["trace"]
    specs = spec["per_layer"] if trace else spec["end_to_end"]
    values = result.get("layers" if trace else "metrics", {})
    print(f"{result['workload']}: seed {result['seed']}, rounds {result['rounds']}, "
          f"attempted {result['attempted']}, failed {result['failed']}, "
          f"correct {result['correct']}")
    for err in result["errors"]:
        print(f"  CHECK FAILED {err}")
    metrics = {}
    for m in specs:
        if m["name"] not in values:
            if values:
                print(f"  MISSING {m['name']}: the round did not report it")
                result["correct"] = False
            continue
        value = values[m["name"]]
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
        print(f"  {m['name']:<42} {value:>16.6g} {m['unit']:<9} ({m['better']} is better)")
    if not trace and "host" in result:
        host = result["host"]
        print(f"  host time, unscaled: wall_s {host['wall_s']:.4g}, setup_s "
              f"{host['setup_s']:.4g}, events_per_s {host['events_per_s']:.4g}; "
              f"host speed {host['speed']:.3f} of the reference")
    if trace and "trace_file" in result:
        print(f"  spans and per-call stats: {result['trace_file']}")
    return metrics


def benchmark(args) -> int:
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    chosen = names if args.workload == "all" else args.workload.split(",")
    unknown = [w for w in chosen if w not in names]
    if unknown:
        print(f"perfbench: unknown workload(s) {unknown}; choose from {names}", file=sys.stderr)
        return 2
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    if seconds > DEADLINE_S:
        print(f"perfbench: --seconds {seconds:g} exceeds the per-workload deadline of "
              f"{DEADLINE_S:g} s", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    results = []
    metrics = {}
    for name in chosen:
        result = run_workload(name, args.seed, seconds, bool(args.trace))
        results.append(result)
        for metric, value in print_result(result, spec).items():
            metrics[metric if len(chosen) == 1 else f"{name}.{metric}"] = value
        if args.results:
            with open(args.results, "a", encoding="utf-8") as fh:
                fh.write(json.dumps(result) + "\n")
    print(json.dumps({
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }))
    return 0


# -- compare mode ----------------------------------------------------------

def _quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def _load_records(path: str) -> list[dict]:
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def verdict(before: list[float], after: list[float], better: str, bound: float) -> str:
    """better, worse, within bound, or unresolved when either side's spread
    (quartile distance over median) exceeds the bound and the two sides
    overlap."""
    sign = 1.0 if better == "lower" else -1.0
    qa, qb = _quartiles(before), _quartiles(after)
    spread = max((qa[2] - qa[0]) / qa[1], (qb[2] - qb[0]) / qb[1])
    worsening = sign * (qb[1] - qa[1]) / qa[1]
    if spread > bound:
        if max(sign * v for v in after) < min(sign * v for v in before):
            return "better"
        if min(sign * v for v in after) > max(sign * v for v in before):
            return "worse"
        return "unresolved"
    if worsening > bound:
        return "worse"
    if -worsening > bound:
        return "better"
    return "within bound"


def compare(path_a: str, path_b: str) -> int:
    spec = load_spec()
    a = [r for r in _load_records(path_a) if r["trace"] == 0 and "metrics" in r]
    b = [r for r in _load_records(path_b) if r["trace"] == 0 and "metrics" in r]
    status = 0
    print(f"{'workload':<16} {'metric':<14} {'before q1/med/q3':<32} "
          f"{'after q1/med/q3':<32} {'change':>8}  verdict")
    for w in [w["name"] for w in spec["workloads"]]:
        ra = [r for r in a if r["workload"] == w]
        rb = [r for r in b if r["workload"] == w]
        if not ra or not rb:
            continue
        for m in spec["end_to_end"]:
            va = [r["metrics"][m["name"]] for r in ra]
            vb = [r["metrics"][m["name"]] for r in rb]
            qa, qb = _quartiles(va), _quartiles(vb)
            v = verdict(va, vb, m["better"], m["bound"])
            status |= v == "worse"
            print(f"{w:<16} {m['name']:<14} "
                  f"{'/'.join(f'{q:.4g}' for q in qa):<32} "
                  f"{'/'.join(f'{q:.4g}' for q in qb):<32} "
                  f"{(qb[1] - qa[1]) / qa[1]:>+8.1%}  {v} (bound {m['bound']:.0%}, "
                  f"n={len(va)}/{len(vb)})")
    # deterministic counts must match for every workload and seed run on both sides
    seen: dict[tuple, dict] = {}
    for r in a + b:
        key = (r["workload"], r["seed"])
        if key in seen and seen[key] != r["counts"]:
            diff = {k: (seen[key].get(k), r["counts"].get(k))
                    for k in set(seen[key]) | set(r["counts"])
                    if seen[key].get(k) != r["counts"].get(k)}
            print(f"COUNTS DIFFER {key[0]} seed {key[1]}: {diff}")
            status = 1
        seen.setdefault(key, r["counts"])
    failed = [(r["workload"], r["seed"]) for r in a + b if not r["correct"]]
    if failed:
        print(f"runs reported incorrect: {failed}")
        status = 1
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all",
                        help="'all' or a comma-separated list of workload names")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    # part of the benchmark's calling convention, which always passes
    # run_seconds; omitted, it defaults to that
    parser.add_argument("--seconds", type=float, help="default: run_seconds of BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--results", help="append one JSON record per workload here")
    parser.add_argument("--compare", nargs=2, metavar=("BEFORE", "AFTER"),
                        help="compare two --results files and exit")
    args = parser.parse_args(argv)
    if not (ROOT / "BENCHMARK.json").is_file():
        print(f"perfbench: no BENCHMARK.json in {ROOT}", file=sys.stderr)
        return 2
    if args.compare:
        return compare(*args.compare)
    if not (ROOT / "src" / "hbsim" / "__init__.py").is_file():
        print(f"perfbench: no program source at {ROOT / 'src' / 'hbsim'}; run from the "
              "root of an hbsim checkout", file=sys.stderr)
        return 2
    return benchmark(args)


if __name__ == "__main__":
    sys.exit(main())
