import hashlib

import pytest

from hbsim.datacenter import build_datacenter
from hbsim.des import RngStream, derive_stream_seed
from hbsim.experiment import (
    ConfigError,
    ExperimentConfig,
    aggregate,
    ci95_halfwidth,
    grid_configs,
    init_run,
    parse_config,
    run_config,
    run_one,
    run_sweep,
)
from hbsim.failure import FailureConfig, ScriptedFailureStream
from hbsim.outputs import write_outputs
from hbsim.protocols import PROTOCOL_KINDS, ProtocolConfig

from reference_sim import reference_run


# -- config parsing ---------------------------------------------------------


def test_parse_minimal_config_defaults():
    cfg = parse_config("nodes=1000\nprotocol=simple_p2p\nfailure_rate_pct_per_min=1\n")
    full = cfg.normalized()
    assert full.subscriptions == 32          # round(sqrt(1000))
    assert full.duration_s == 3600.0
    assert full.runs == 10
    assert full.protocol.kind == "simple_p2p"
    assert full.failure.rate_pct_per_min == 1.0


def test_parse_default_subscriptions_sqrt():
    assert parse_config("nodes=100").normalized().subscriptions == 10
    assert parse_config("nodes=10000").normalized().subscriptions == 100
    assert parse_config("nodes=1").normalized().subscriptions == 0  # clamped


def test_parse_rejects_subscription_overflow():
    with pytest.raises(ConfigError):
        parse_config("nodes=10\nsubscriptions=10\n")


def test_parse_rejects_unknown_key_with_line_number():
    with pytest.raises(ConfigError) as err:
        parse_config("nodes=100\nbogus=1\n")
    assert err.value.line == 2


def test_parse_rejects_duplicate_key():
    with pytest.raises(ConfigError) as err:
        parse_config("nodes=100\nnodes=50\n")
    assert err.value.line == 2


def test_parse_rejects_bad_value_type():
    with pytest.raises(ConfigError) as err:
        parse_config("nodes=many\n")
    assert err.value.line == 1


def test_parse_rejects_missing_nodes():
    with pytest.raises(ConfigError):
        parse_config("runs=3\n")


def test_parse_rejects_bad_enums():
    with pytest.raises(ConfigError):
        parse_config("nodes=10\nprotocol=smoke_signals\n")
    with pytest.raises(ConfigError):
        parse_config("nodes=10\nrepair_policy=prayer\n")


def test_parse_comments_and_blanks_ignored():
    cfg = parse_config("# setup\n\nnodes=100  # inline\nruns=2\n")
    assert cfg.nodes == 100
    assert cfg.runs == 2


def test_invalid_cross_field_invariants():
    with pytest.raises(ConfigError):
        ExperimentConfig(nodes=100, duration_s=1.0).normalized()   # <= probe start
    with pytest.raises(ConfigError):
        ExperimentConfig(nodes=100, update_min_s=2.0, update_max_s=1.0).normalized()


@pytest.mark.parametrize("line", [
    "failure_rate_pct_per_min=nan",
    "failure_rate_pct_per_min=inf",
    "staleness_s=nan",
    "staleness_s=inf",
    "gamma_shape=nan",
    "duration_s=nan",
    "duration_s=inf",
    "probe_start_s=nan",
    "probe_interval_s=nan",
    "update_max_s=inf",
    "load_window_s=inf",
    # zero-delay updates would never leave t=0
    pytest.param("update_min_s=0\nupdate_max_s=0", id="update_max_s=0"),
    # intervals too small to move the clock: t + x == t re-fires at one instant
    "probe_interval_s=1e-300",
    pytest.param("update_min_s=0\nupdate_max_s=1e-300", id="update_max_s=1e-300"),
    pytest.param("update_min_s=1e-300\nupdate_max_s=1e-300", id="update_min_s=update_max_s=1e-300"),
])
def test_parse_rejects_non_finite_and_stalling_values(line):
    with pytest.raises(ConfigError):
        parse_config(f"nodes=10\n{line}\n")


# -- run initialisation -------------------------------------------------------


def small_cfg(**kw):
    base = dict(nodes=20, subscriptions=4, duration_s=30.0, runs=2, seed=9,
                probe_start_s=2.0)
    base.update(kw)
    return ExperimentConfig(**base)


def test_init_run_schedules_probe_then_updates_then_failure():
    cfg = small_cfg(failure=FailureConfig(rate_pct_per_min=5.0))
    dc, gv, queue, _ = init_run(cfg, 0)
    events = sorted(queue._heap, key=lambda e: e.seq)
    assert events[0].action == ("probe",)
    assert events[0].fire_time == 2.0
    update_events = events[1:1 + cfg.nodes]
    assert [e.action for e in update_events] == [("update", i) for i in range(cfg.nodes)]
    assert all(0.8 <= e.fire_time < 1.2 for e in update_events)
    assert events[-1].action == ("failure",)


def test_init_run_zero_rate_schedules_no_failures():
    dc, gv, queue, _ = init_run(small_cfg(), 0)
    assert all(e.action != ("failure",) for e in queue._heap)


def test_probe_cadence_and_zero_failure_run():
    cfg = ExperimentConfig(nodes=10, subscriptions=2, duration_s=3600.0,
                           runs=1, seed=3)
    out = run_one(cfg, 0)
    times = [t for t, _ in out.probes]
    assert times[0] == 2.0
    assert times[1] == 3.0
    assert times[-1] == 3600.0
    assert len(out.probes) == 3599
    assert all(count == 0 for _, count in out.probes)


def test_update_gaps_stay_in_configured_band():
    cfg = small_cfg()
    dc, gv, queue, streams = init_run(cfg, 0)
    times = {i: [] for i in range(cfg.nodes)}

    def dispatch(event):
        action = event.action
        if action[0] == "update":
            times[action[1]].append(event.fire_time)
            queue.schedule(streams["update"].uniform(cfg.update_min_s, cfg.update_max_s),
                           action)
        elif action[0] == "probe":
            queue.schedule(cfg.probe_interval_s, action)

    queue.run(30.0, dispatch)
    for series in times.values():
        gaps = [b - a for a, b in zip(series, series[1:])]
        assert all(0.8 <= g < 1.2 for g in gaps)


def test_simple_update_refreshes_whole_cache_row():
    cfg = small_cfg()
    out = run_one(cfg, 0)
    assert out.summary.update_polls > 0


def test_recovery_curve_steps_down_to_zero():
    # an isolated failure produces a probe series that only decays
    cfg = small_cfg(nodes=100, subscriptions=10, duration_s=30.0)
    out = run_one(cfg, 0, failure_stream=ScriptedFailureStream([10.0], [3]))
    tail = [count for t, count in out.probes if t >= 10.0]
    assert tail[0] > 0
    assert all(a >= b for a, b in zip(tail, tail[1:]))
    assert tail[-1] == 0


def test_repaired_node_resumes_polling():
    # node 5 dies at t=5, revives at t=10; its update events keep rescheduling
    cfg = small_cfg(duration_s=20.0,
                    failure=FailureConfig(rate_pct_per_min=0.0))
    stream = ScriptedFailureStream([5.0, 5.0], [5, 5])
    out = run_one(cfg, 0, failure_stream=stream)
    assert [(t, e) for t, _, e, _ in out.failures] == [(5.0, "failed"), (10.0, "repaired")]
    assert all(count == 0 for t, count in out.probes if t >= 12.0)


# -- determinism ----------------------------------------------------------------


def test_run_one_bit_identical_repeat():
    cfg = small_cfg(failure=FailureConfig(rate_pct_per_min=8.0))
    a = run_one(cfg, 0)
    b = run_one(cfg, 0)
    assert a == b


def test_distinct_run_indices_draw_independently():
    cfg = small_cfg(failure=FailureConfig(rate_pct_per_min=8.0))
    a = run_one(cfg, 0)
    b = run_one(cfg, 1)
    assert a.probes != b.probes or a.failures != b.failures


def test_engine_matches_bruteforce_reference():
    from dataclasses import replace

    cfg = ExperimentConfig(nodes=20, subscriptions=4, duration_s=60.0, runs=1,
                           seed=17, failure=FailureConfig(rate_pct_per_min=6.0))
    # the cap binds the central and hierarchical kinds: one provider or
    # aggregator gets several requests a second from 20 nodes
    for kind in PROTOCOL_KINDS:
        for window in (1.0, 10.0):
            kcfg = replace(cfg, protocol=ProtocolConfig(kind=kind, max_requests_per_s=3),
                           load_window_s=window)
            engine = run_one(kcfg, 0)
            oracle = reference_run(kcfg, 0)
            assert engine.probes == oracle.probes
            assert engine.failures == oracle.failure_log
            assert engine.summary.total_messages == oracle.messages
            assert engine.summary.total_payload_entries == oracle.payload
            assert engine.load == oracle.load_rows()


# -- statistics -------------------------------------------------------------------


def test_ci95_one_to_ten():
    assert ci95_halfwidth([float(x) for x in range(1, 11)]) == pytest.approx(2.1657, abs=0.0005)


def test_ci95_two_samples():
    assert ci95_halfwidth([0.0, 2.0]) == pytest.approx(12.706, abs=0.001)


def test_ci95_all_equal_is_zero():
    assert ci95_halfwidth([3.0] * 10) == 0.0


def test_ci95_needs_two_samples():
    with pytest.raises(ValueError):
        ci95_halfwidth([1.0])


def test_aggregate_identical_runs():
    cfg = small_cfg(runs=3)
    out = run_one(cfg, 0)
    summary = aggregate(cfg, [out, out, out])
    assert summary.sd == 0.0
    assert summary.ci95_halfwidth == 0.0
    assert summary.min == summary.mean == summary.max


def test_aggregate_normalizes_by_nodes():
    cfg = small_cfg()
    outputs, summary = run_config(cfg, workers=1)
    assert summary.normalized_mean == pytest.approx(summary.mean / cfg.nodes)
    assert summary.min <= summary.mean <= summary.max
    assert summary.runs == cfg.runs


def test_aggregate_uses_per_run_mean_inconsistency():
    cfg = small_cfg(failure=FailureConfig(rate_pct_per_min=10.0))
    outputs, summary = run_config(cfg, workers=1)
    means = [o.summary.mean_inconsistent for o in outputs]
    assert summary.mean == pytest.approx(sum(means) / len(means))
    assert summary.ci95_halfwidth == pytest.approx(ci95_halfwidth(means))


def test_config_and_summary_share_one_fingerprint():
    cfg = small_cfg(failure=FailureConfig(rate_pct_per_min=0.5),
                    protocol=ProtocolConfig(kind="transitive_p2p"))
    summary = aggregate(cfg, [run_one(cfg, 0)])
    assert cfg.fingerprint() == summary.fingerprint() == "n20-r0.5-transitive_p2p"


# -- sweeps --------------------------------------------------------------------


def test_grid_configs_cardinality_and_defaults():
    base = ExperimentConfig(nodes=100, duration_s=30.0, runs=1)
    grid = grid_configs(base, [100, 1000], [0.1, 1.0, 10.0], ["simple_p2p"])
    assert len(grid) == 6
    by_n = {cfg.nodes: cfg.subscriptions for cfg in grid}
    assert by_n == {100: 10, 1000: 32}   # sqrt default re-derived per size


def test_run_sweep_order_independent():
    base = ExperimentConfig(nodes=30, subscriptions=5, duration_s=20.0, runs=2, seed=5)
    grid = grid_configs(base, [30], [2.0, 20.0], ["simple_p2p", "transitive_p2p"])
    forward = run_sweep(grid, workers=1)
    backward = run_sweep(list(reversed(grid)), workers=1)
    assert sorted(map(str, forward)) == sorted(map(str, backward))


@pytest.mark.parametrize("workers", [0, -1])
def test_run_config_rejects_workers_below_one(workers):
    with pytest.raises(ValueError, match=f"workers must be >= 1, got {workers}"):
        run_config(small_cfg(), workers=workers)


def test_run_config_parallel_equals_serial():
    cfg = small_cfg(runs=4, failure=FailureConfig(rate_pct_per_min=8.0))
    serial, sum_serial = run_config(cfg, workers=1)
    parallel, sum_parallel = run_config(cfg, workers=2)
    assert serial == parallel
    assert sum_serial == sum_parallel


# SHA-256 of each table of one pinned transitive_p2p config.  Recorded with
# the dict-probe overlap-pair build, before the bitset build replaced it; the
# CSV bytes are part of the package contract, so a speed-only change to the
# engine must leave every digest as it is.
GOLDEN_TRANSITIVE_SHA256 = {
    "probes.csv": "3cf71dde6790ed508cba7a8372b7c212924ad759c69a5530b97d426db38bee3c",
    "failures.csv": "19acc1fd8257b405ca996b8414981f81c98a196bd942b338e290339d26b6f577",
    "load.csv": "304878ef421d646d32e28375d0a9e203e07ef4ba43b7cc1ea9e009e96191a916",
    "summary.csv": "8c04ccaf6231586c842de95313c7c310fe033bb1fa7124e93249075366439a37",
}


# SHA-256 of each table of one pinned config per centralised kind.  Recorded
# with the first, dict-cache implementation of these two kinds, before
# make_poller gained its fast central and hierarchical pollers.
GOLDEN_SERVED_SHA256 = {
    "central": {
        "probes.csv": "c825b6f8ea46350ae91da65b13cadc6586340e46235b5a066d070099c089b52f",
        "failures.csv": "65826cbfa3fb3cba07ab6f616105f24203d9343f3b3c9e8a4b35d3ce1f5e4b48",
        "load.csv": "37080e07e3a22aa52bb3513d70e51b3f35afb52922ab86384122c28d5f092fb1",
        "summary.csv": "064d88ad24733033a1cc3352f5deaa27b5e508f3944e28b29f59e4cd6eaa6d3a",
    },
    "hierarchical": {
        "probes.csv": "8c15811e795d3be23d60618f06ae79a30f94488daf534048600f458e47b5b43e",
        "failures.csv": "79dc10e222553c6253e52025c1ef59154ea239616ae1607a5f85ec2926bedb35",
        "load.csv": "b0cece359ef1cb5f9b2762015908f230a58757492a4d8a47d632c65f65a15c0d",
        "summary.csv": "f5ae24ea74ff99013b27f8ec78221a2fb1f1ebc429f8b892808c711a2120c298",
    },
}


# SHA-256 of each table of one pinned simple_p2p config with a 0.3 s load
# window.  0.3 is no binary fraction: the log rotates 100 times a run, and at
# some boundaries (k = 19, 31, 33, ...) the product ``k * 0.3`` falls a float
# away from the first time that ``t / 0.3`` puts in window k.  Recorded before
# polls cached the next window boundary, when every poll divided.
GOLDEN_SIMPLE_SHA256 = {
    "probes.csv": "5a6bd8ab658e53caeb9b8c64ad0dbd3b7e8f363e902c6f01422d95d300d5f4e2",
    "failures.csv": "c498059e34f5fcb2fc88ca907d41570104426a18614fbb9e3673d933532de4d3",
    "load.csv": "e5babe7fc697793a055e8a2c40df78fd78ab65a637e6c46b164f5ff073ffa259",
    "summary.csv": "e7d379be700a0315296e8cabd59cb8e9d69b630366a701642ac1f22aa72ef562",
}


def table_digests(cfg, tmp_path):
    outputs, summary = run_config(cfg, workers=1)
    paths = write_outputs(outputs, summary, tmp_path)
    return {name: hashlib.sha256(path.read_bytes()).hexdigest()
            for name, path in paths.items()}


def test_transitive_outputs_match_golden_bytes(tmp_path):
    cfg = ExperimentConfig(nodes=1000, duration_s=30.0, runs=2, seed=42,
                           protocol=ProtocolConfig(kind="transitive_p2p"),
                           failure=FailureConfig(rate_pct_per_min=1.0))
    assert table_digests(cfg, tmp_path) == GOLDEN_TRANSITIVE_SHA256


def test_simple_outputs_match_golden_bytes(tmp_path):
    cfg = ExperimentConfig(nodes=1000, duration_s=30.0, runs=2, seed=42, load_window_s=0.3,
                           protocol=ProtocolConfig(kind="simple_p2p"),
                           failure=FailureConfig(rate_pct_per_min=1.0))
    assert table_digests(cfg, tmp_path) == GOLDEN_SIMPLE_SHA256


@pytest.mark.parametrize("protocol", [
    ProtocolConfig(kind="central", provider_count=4, max_requests_per_s=200),
    ProtocolConfig(kind="hierarchical"),
], ids=lambda p: p.kind)
def test_served_outputs_match_golden_bytes(protocol, tmp_path):
    cfg = ExperimentConfig(nodes=1000, duration_s=20.0, runs=2, seed=42, protocol=protocol,
                           failure=FailureConfig(rate_pct_per_min=1.0))
    assert table_digests(cfg, tmp_path) == GOLDEN_SERVED_SHA256[protocol.kind]


def test_run_sweep_isolates_failing_config(monkeypatch, capsys):
    import hbsim.experiment as experiment

    real = experiment.run_one

    def flaky(cfg, run_index, failure_stream=None):
        if cfg.nodes == 666:
            raise RuntimeError("injected")
        return real(cfg, run_index, failure_stream)

    monkeypatch.setattr(experiment, "run_one", flaky)
    good = small_cfg()
    bad = small_cfg(nodes=666, subscriptions=4)
    summaries = experiment.run_sweep([bad, good], workers=1)
    assert len(summaries) == 1
    assert summaries[0].nodes == good.nodes
    assert "failed" in capsys.readouterr().err


def test_topology_rebuild_matches_run(tmp_path):
    # the documented way to recover a run's subscription graph
    cfg = small_cfg()
    stream = RngStream("topology", derive_stream_seed(cfg.seed, 1, "topology"))
    dc = build_datacenter(cfg.nodes, cfg.subscriptions, stream)
    stream2 = RngStream("topology", derive_stream_seed(cfg.seed, 1, "topology"))
    dc2 = build_datacenter(cfg.nodes, cfg.subscriptions, stream2)
    assert dc.subs == dc2.subs
