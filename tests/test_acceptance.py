"""Acceptance suite: one test per criterion, in order, each printing a
PASS line with its measured evidence (run with ``pytest -s`` to watch).

The desk-scale sweep shared by criteria 5-7 runs once as a module fixture;
everything is seeded, so reruns are bit-identical.
"""

import math
import random
import time
from dataclasses import replace

import pytest

from hbsim.cli import main
from hbsim.datacenter import build_datacenter
from hbsim.des import RngStream, derive_stream_seed
from hbsim.experiment import (
    ExperimentConfig,
    ci95_halfwidth,
    run_config,
    run_one,
)
from hbsim.failure import FailureConfig, ScriptedFailureStream
from hbsim.protocols import ProtocolConfig

from reference_sim import reference_run

GRID_NODES = (100, 1000)
GRID_RATES = (0.1, 1.0, 10.0)
GRID_PROTOCOLS = ("simple_p2p", "transitive_p2p")
GRID_SEED = 20260808
GRID_RUNS = 10
GRID_DURATION = 600.0


def report(num: int, text: str) -> None:
    print(f"\nACCEPTANCE {num:02d} PASS: {text}")


@pytest.fixture(scope="module")
def desk_grid():
    """Criteria 5-7 workload: 2 sizes x 3 rates x 2 protocols x 10 runs x 600 s."""
    cells = {}
    started = time.monotonic()
    for n in GRID_NODES:
        for rate in GRID_RATES:
            for kind in GRID_PROTOCOLS:
                cfg = ExperimentConfig(
                    nodes=n, duration_s=GRID_DURATION, runs=GRID_RUNS, seed=GRID_SEED,
                    protocol=ProtocolConfig(kind=kind),
                    failure=FailureConfig(rate_pct_per_min=rate))
                outputs, summary = run_config(cfg, workers=2)
                per_run_means = [o.summary.mean_inconsistent for o in outputs]
                cells[(n, rate, kind)] = (summary, per_run_means)
                del outputs
    elapsed = time.monotonic() - started
    return cells, elapsed


def test_criterion_01_determinism_and_runtime(tmp_path):
    """Identical config+seed twice -> byte-identical CSVs, in under 10 s."""
    cfg_text = (
        "nodes=1000\n"
        "protocol=simple_p2p\n"
        "failure_rate_pct_per_min=1\n"
        "duration_s=60\n"
        "runs=1\n"
        "seed=4242\n")
    cfg_file = tmp_path / "exp.cfg"
    cfg_file.write_text(cfg_text, encoding="utf-8")
    started = time.monotonic()
    assert main(["run", "--config", str(cfg_file), "--out", str(tmp_path / "a")]) == 0
    assert main(["run", "--config", str(cfg_file), "--out", str(tmp_path / "b")]) == 0
    elapsed = time.monotonic() - started
    for name in ("probes.csv", "failures.csv", "load.csv"):
        first = (tmp_path / "a" / name).read_bytes()
        second = (tmp_path / "b" / name).read_bytes()
        assert first == second, f"{name} differs between identical executions"
        assert first, f"{name} is empty"
    assert elapsed < 10.0, f"took {elapsed:.1f}s, limit 10s"
    report(1, f"byte-identical probes/failures/load CSVs, both runs in {elapsed:.1f}s")


def test_criterion_02_zero_failure_soundness():
    """rate=0: every probe of every protocol and size reads exactly 0."""
    checked = 0
    for kind in ("central", "hierarchical", "simple_p2p", "transitive_p2p"):
        for n in (100, 1000):
            cfg = ExperimentConfig(
                nodes=n, duration_s=120.0, runs=1, seed=7,
                protocol=ProtocolConfig(kind=kind),
                failure=FailureConfig(rate_pct_per_min=0.0))
            out = run_one(cfg, 0)
            assert len(out.probes) == 119
            bad = [(t, c) for t, c in out.probes if c != 0]
            assert not bad, f"{kind} n={n}: nonzero probes {bad[:3]}"
            checked += len(out.probes)
    report(2, f"{checked} probe records across 4 protocols x 2 sizes, all zero")


def test_criterion_03_in_degree_oracle():
    """A scripted failure at t=10.0 is seen by exactly the victim's
    subscribers at the next probe, and fully repolled by t >= 11.2."""
    victim = 7
    cfg = ExperimentConfig(nodes=100, duration_s=60.0, runs=1, seed=501,
                           protocol=ProtocolConfig(kind="simple_p2p"))
    # independent in-degree count from a graph rebuild (same topology stream)
    graph = build_datacenter(100, 10, RngStream(
        "topology", derive_stream_seed(cfg.seed, 0, "topology")))
    in_degree = len(graph.subscribers[victim])
    assert in_degree > 0

    stream = ScriptedFailureStream([10.0], [victim])
    out = run_one(cfg, 0, failure_stream=stream)
    assert [(t, node, effect) for t, node, effect, _ in out.failures] == \
        [(10.0, victim, "failed")]
    by_time = dict(out.probes)
    # the t=10.0 probe runs just after the failure (insertion-order tie-break)
    assert by_time[10.0] == in_degree
    assert by_time[11.0] <= in_degree
    late = {t: c for t, c in out.probes if t >= 10.0 + cfg.update_max_s}
    assert late and all(c == 0 for c in late.values())
    report(3, f"probe at failure instant == in-degree ({in_degree}); "
              f"all {len(late)} probes from t=11.2 on read 0")


def test_criterion_04_bruteforce_equivalence():
    """Engine vs naive reference: exact probe/failure-log/traffic/load-log
    equality over 100 seeded configurations per protocol."""
    checked = 0
    for seed in range(100):
        meta = random.Random(740_000 + seed)
        n = meta.randint(5, 50)
        k = meta.randint(1, min(7, n - 1))
        rate = meta.choice([0.0, 0.5, 2.0, 10.0])
        repair = meta.choice(["toggle_repair", "no_repair"])
        # the central and hierarchical parameters come from their own
        # stream, so the P2P configurations do not depend on them
        served = random.Random(750_000 + seed)
        window = served.choice([1.0, 10.0])
        protocols = [(ProtocolConfig(kind=kind), 10.0) for kind in GRID_PROTOCOLS] + [
            (ProtocolConfig(kind="central", provider_count=served.randint(1, 3),
                            max_requests_per_s=served.choice([None, 2, 5])), window),
            (ProtocolConfig(kind="hierarchical", hierarchy_levels=served.randint(2, 3),
                            max_requests_per_s=served.choice([None, 2, 5])), window),
        ]
        for protocol, load_window_s in protocols:
            cfg = ExperimentConfig(
                nodes=n, subscriptions=k, duration_s=60.0, runs=1, seed=seed,
                protocol=protocol, load_window_s=load_window_s,
                failure=FailureConfig(rate_pct_per_min=rate, repair_policy=repair))
            engine = run_one(cfg, 0)
            oracle = reference_run(cfg, 0)
            assert engine.probes == oracle.probes, \
                f"probe series diverged: seed={seed} {protocol} n={n} k={k} rate={rate}"
            assert engine.failures == oracle.failure_log
            assert engine.summary.total_messages == oracle.messages
            assert engine.summary.total_payload_entries == oracle.payload
            assert engine.load == oracle.load_rows()
            checked += 1
    report(4, f"{checked} engine runs over 4 protocols matched the brute-force "
              f"reference exactly")


def test_criterion_05_trend_rate_and_size(desk_grid):
    """Mean inconsistencies rise strictly with failure rate at fixed size,
    and with size at fixed rate, for both P2P protocols; grid under 5 min."""
    cells, elapsed = desk_grid
    assert elapsed < 300.0, f"desk grid took {elapsed:.0f}s, limit 300s"
    for kind in GRID_PROTOCOLS:
        for n in GRID_NODES:
            means = [cells[(n, rate, kind)][0].mean for rate in GRID_RATES]
            assert means[0] < means[1] < means[2], \
                f"{kind} n={n}: means not increasing in rate: {means}"
        for rate in GRID_RATES:
            small = cells[(100, rate, kind)][0].mean
            large = cells[(1000, rate, kind)][0].mean
            assert small < large, \
                f"{kind} rate={rate}: mean fell with size: {small} !< {large}"
    report(5, f"strict rate and size monotonicity in all cells; grid ran in {elapsed:.0f}s")


def test_criterion_06_order_of_magnitude_scaling(desk_grid):
    """Normalized means step up by roughly one decade per 10x rate:
    successive ratios inside [4, 25]."""
    cells, _ = desk_grid
    ratios = []
    for kind in GRID_PROTOCOLS:
        for n in GRID_NODES:
            normalized = [cells[(n, rate, kind)][0].normalized_mean for rate in GRID_RATES]
            for lo, hi in zip(normalized, normalized[1:]):
                ratio = hi / lo
                assert 4.0 <= ratio <= 25.0, \
                    f"{kind} n={n}: normalized step ratio {ratio:.1f} outside [4, 25]"
                ratios.append(ratio)
    report(6, "normalized-mean decade ratios all in [4, 25]: "
              + ", ".join(f"{r:.1f}" for r in ratios))


def test_criterion_07_protocol_comparison_with_ci(desk_grid):
    """At n=1000, rate=1%/min: publish mean +/- ci95 for both P2P protocols,
    with the CI recomputed from the raw per-run means as a cross-check."""
    cells, _ = desk_grid
    lines = ["protocol            mean     ci95    interval"]
    for kind in GRID_PROTOCOLS:
        summary, means = cells[(1000, 1.0, kind)]
        recomputed = ci95_halfwidth(means)
        assert summary.ci95_halfwidth == pytest.approx(recomputed, rel=1e-12)
        sd = summary.sd
        manual = 2.262 * sd / math.sqrt(10)  # t(0.975, 9)
        assert recomputed == pytest.approx(manual, rel=1e-12)
        lo = summary.mean - recomputed
        hi = summary.mean + recomputed
        lines.append(f"{kind:<18} {summary.mean:8.3f} {recomputed:8.3f} "
                     f"[{lo:.3f}, {hi:.3f}]")
    table = "\n  ".join(lines)
    print(f"\n  {table}")
    overlap = "reported (significance depends on unpublished coefficients)"
    report(7, f"CI arithmetic cross-checked; comparison table {overlap}")


def test_criterion_08_ci_arithmetic():
    """Pinned Student-t quantiles give the exact documented half-widths."""
    ten = ci95_halfwidth([float(x) for x in range(1, 11)])
    assert ten == pytest.approx(2.1657, abs=0.0005)
    two = ci95_halfwidth([0.0, 2.0])
    assert two == pytest.approx(12.706, abs=0.001)
    assert ci95_halfwidth([5.0] * 8) == 0.0
    report(8, f"ci95({{1..10}})={ten:.4f}, ci95({{0,2}})={two:.3f}, all-equal=0")


def test_criterion_09_failure_rate_calibration():
    """n=1000 at 1%/min for 3600 s: mean failure events per run near 600.

    Expected 600 events (mean gap 6 s); renewal CLT gives a per-run count
    variance of about 600/shape, so the 10-run mean gets a 3-sigma corridor
    of 3*sqrt(600/2)/sqrt(10) ~= 16.4 events.  Subscriptions and update
    cadence are irrelevant to the failure stream, so the config mutes them
    to keep this a pure calibration check.
    """
    cfg = ExperimentConfig(
        nodes=1000, subscriptions=0, duration_s=3600.0, runs=10, seed=90210,
        update_min_s=7200.0, update_max_s=7200.0,
        failure=FailureConfig(rate_pct_per_min=1.0))
    outputs, _ = run_config(cfg, workers=2)
    counts = [o.summary.failure_events for o in outputs]
    mean = sum(counts) / len(counts)
    corridor = 3 * math.sqrt(600.0 / cfg.failure.gamma_shape) / math.sqrt(len(counts))
    assert abs(mean - 600.0) <= corridor, f"mean {mean} outside 600 +/- {corridor:.1f}"
    report(9, f"mean failure events/run {mean:.1f} within 600 +/- {corridor:.1f} "
              f"(runs: {counts})")


def test_criterion_10_load_accounting():
    """No failures, simple P2P: exactly 2k messages per update cycle; the
    central protocol moves strictly less switch traffic on the same setup."""
    base = ExperimentConfig(nodes=100, subscriptions=10, duration_s=60.0,
                            runs=1, seed=31,
                            failure=FailureConfig(rate_pct_per_min=0.0))
    simple = run_one(replace(base, protocol=ProtocolConfig(kind="simple_p2p")), 0)
    k = 10
    expected = 2 * k * simple.summary.update_polls
    assert simple.summary.total_messages == expected

    central = run_one(replace(base, protocol=ProtocolConfig(kind="central")), 0)
    switch = 100

    def switch_traffic(out):
        return sum(m for _, comp, m, _ in out.load if comp == switch)

    simple_switch = switch_traffic(simple)
    central_switch = switch_traffic(central)
    assert simple_switch == simple.summary.total_messages
    assert central_switch == central.summary.total_messages
    assert central_switch < simple_switch
    report(10, f"simple: {expected} msgs == 2k x {simple.summary.update_polls} updates; "
               f"switch traffic central {central_switch} < simple {simple_switch}")
