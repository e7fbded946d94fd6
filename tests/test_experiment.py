import contextlib
import dataclasses
import gc
import hashlib
import os
import re
import subprocess
import sys
import tracemalloc
import typing
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import hbsim
from hbsim.datacenter import build_datacenter, build_overlap_pairs
from hbsim.des import DispatchError, RngStream, derive_stream_seed, gamma_draws_vanish
from hbsim.experiment import (
    _CONFIG_KEYS,
    _TAKES_NONE,
    ConfigError,
    ExperimentConfig,
    aggregate,
    ci95_halfwidth,
    default_workers,
    grid_configs,
    init_run,
    parse_config,
    run_config,
    run_one,
    run_sweep,
)
from hbsim.failure import REPAIR_POLICIES, FailureConfig, ScriptedFailureStream
from hbsim.outputs import write_outputs
from hbsim.protocols import (
    CENTRAL,
    HIERARCHICAL,
    PROTOCOL_KINDS,
    SIMPLE_P2P,
    ProtocolConfig,
    build_global_view,
    make_poller,
)

from reference_sim import reference_run


# -- config parsing ---------------------------------------------------------


def test_parse_minimal_config_defaults():
    cfg = parse_config("nodes=1000\nprotocol=simple_p2p\nfailure_rate_pct_per_min=1\n")
    assert cfg.k == 32                       # round(sqrt(1000))
    assert cfg.duration_s == 3600.0
    assert cfg.runs == 10
    assert cfg.protocol.kind == "simple_p2p"
    assert cfg.failure.rate_pct_per_min == 1.0


def test_parse_default_subscriptions_sqrt():
    assert parse_config("nodes=100").k == 10
    assert parse_config("nodes=10000").k == 100
    assert parse_config("nodes=1").k == 0  # clamped


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


# one value per key with a rule of its own that breaks that rule; the
# constructor reports it before any rule that involves two keys
@pytest.mark.parametrize("key, value", [
    ("nodes", "0"),
    ("runs", "0"),
    pytest.param("runs", "9" * 400, id="runs-400-nines"),
    ("probe_start_s", "-1"),
    ("probe_interval_s", "0"),
    ("update_min_s", "-1"),
    ("update_max_s", "0"),
    ("load_window_s", "0"),
    ("protocol", "smoke_signals"),
    ("staleness_s", "0"),
    ("max_requests_per_s", "0"),
    pytest.param("max_requests_per_s", "9" * 400, id="max_requests_per_s-400-nines"),
    ("failure_rate_pct_per_min", "-1"),
    ("gamma_shape", "0"),
    ("repair_policy", "prayer"),
])
def test_a_value_that_breaks_its_keys_own_rule_is_refused_with_its_line(key, value):
    first = "runs=1" if key == "nodes" else "nodes=10"
    second = "update_min_s=0" if key == "update_max_s" else "# line 3 breaks one rule"
    with pytest.raises(ConfigError) as err:
        parse_config(f"{first}\n{second}\n{key}={value}\n")
    assert (err.value.line, err.value.key) == (3, key)
    assert str(err.value).startswith(f"line 3: {key} ")


def test_the_key_table_declares_each_record_field_once_with_its_annotated_type():
    records = {"root": ExperimentConfig, "protocol": ProtocolConfig, "failure": FailureConfig}
    fields = [(section, f.name) for section, record in records.items()
              for f in dataclasses.fields(record) if f.name not in ("protocol", "failure")]
    declared = [(section, attr) for section, attr, _, _ in _CONFIG_KEYS.values()]
    assert sorted(declared) == sorted(fields)
    for key, (section, attr, kind, _) in _CONFIG_KEYS.items():
        annotation = typing.get_type_hints(records[section])[attr]
        assert annotation == (kind | None if key in _TAKES_NONE else kind), key


def test_parse_comments_and_blanks_ignored():
    cfg = parse_config("# setup\n\nnodes=100  # inline\nruns=2\n")
    assert cfg.nodes == 100
    assert cfg.runs == 2


def test_invalid_cross_field_invariants():
    with pytest.raises(ConfigError):
        ExperimentConfig(nodes=100, duration_s=1.0)   # <= probe start
    with pytest.raises(ConfigError):
        ExperimentConfig(nodes=100, update_min_s=2.0, update_max_s=1.0)


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


@pytest.mark.parametrize("text, key", [
    # the sqrt subscription default cannot take this as a float
    pytest.param("nodes=" + "9" * 400, "nodes", id="nodes=400-nines"),
    # a mean failure gap of 1.2e-298 s cannot move the clock
    pytest.param("nodes=50\nfailure_rate_pct_per_min=1e300", "failure_rate_pct_per_min",
                 id="failure_rate_pct_per_min=1e300"),
    # n * rate / 100 underflows to 0: the mean gap is a division by zero
    pytest.param("nodes=50\nfailure_rate_pct_per_min=5e-324", "failure_rate_pct_per_min",
                 id="failure_rate_pct_per_min=5e-324"),
    # every gamma draw is exactly 0.0
    pytest.param("nodes=50\nfailure_rate_pct_per_min=1\ngamma_shape=1e-300", "gamma_shape",
                 id="gamma_shape=1e-300"),
    # the scale, mean gap / shape, overflows to inf and a draw becomes nan
    pytest.param("nodes=50\nfailure_rate_pct_per_min=1\ngamma_shape=1e-320", "gamma_shape",
                 id="gamma_shape=1e-320"),
    # (duration_s + w) / w overflows to inf: the last window has no index
    pytest.param("nodes=10\nduration_s=3\nload_window_s=5e-324", "load_window_s",
                 id="load_window_s=5e-324"),
    # build_global_view's 1 / hierarchy_levels cannot take this as a float
    pytest.param("nodes=20\nprotocol=hierarchical\nhierarchy_levels=1" + "0" * 400,
                 "hierarchy_levels", id="hierarchy_levels=1e400"),
])
def test_parse_rejects_values_that_crash_or_hang_naming_the_key(text, key):
    with pytest.raises(ConfigError, match=key):
        parse_config(text + "\n")


def test_mean_failure_gap_must_advance_the_clock_at_duration():
    # at nodes=50 the mean gap is 120 / rate seconds, exact for these powers
    # of two; one ulp of 3600 is 2**-41, so a gap of 2**-40 advances the
    # clock and 2**-43 does not
    parse_config(f"nodes=50\nduration_s=3600\nfailure_rate_pct_per_min={120 * 2.0 ** 40}\n")
    with pytest.raises(ConfigError, match="failure_rate_pct_per_min"):
        parse_config(f"nodes=50\nduration_s=3600\nfailure_rate_pct_per_min={120 * 2.0 ** 43}\n")


@pytest.mark.parametrize("shape", [1e-300, 1e-19, 1.4e-19])
def test_rejected_gamma_shapes_draw_only_zeros(shape):
    assert gamma_draws_vanish(shape)
    stream = RngStream("failure", 42)
    assert all(stream.gamma(shape, 1e300) == 0.0 for _ in range(200))
    with pytest.raises(ConfigError, match="gamma_shape"):
        parse_config(f"nodes=50\nfailure_rate_pct_per_min=1\ngamma_shape={shape}\n")


@pytest.mark.parametrize("shape", [1.6e-19, 1e-3, 0.5, 1.0, 2.0])
def test_accepted_gamma_shapes_keep_the_largest_boost(shape):
    # the largest base below 1 keeps a nonzero boost, so a draw can be > 0
    assert not gamma_draws_vanish(shape)
    parse_config(f"nodes=50\nfailure_rate_pct_per_min=1\ngamma_shape={shape}\n")


# value strings for the property below: ints, the float specials, subnormals,
# huge and tiny numbers, and junk
_VALUE_STRINGS = st.one_of(
    st.integers(min_value=-10 ** 30, max_value=10 ** 30).map(str),
    st.integers(min_value=0, max_value=4000).map(lambda digits: "9" * digits),
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
    st.sampled_from(["nan", "inf", "-inf", "-0.0", "5e-324", "1e-320", "2.2e-308",
                     "1e-300", "1e300", "1.7976931348623157e308", "1e400", "9" * 400,
                     "0", "1", "", "x", "1,5", "0x10", "1_000", "simple_p2p", "central",
                     "hierarchical", "transitive_p2p", "toggle_repair", "no_repair"]),
    st.text(max_size=12),
)


# config texts that always set nodes, mostly to a valid count
_CONFIG_VALUES = st.fixed_dictionaries(
    {"nodes": st.one_of(st.integers(min_value=1, max_value=10 ** 6).map(str), _VALUE_STRINGS)},
    optional={key: _VALUE_STRINGS for key in _CONFIG_KEYS if key != "nodes"})


def _config_text(values):
    return "".join(f"{key}={value}\n" for key, value in values.items())


@settings(max_examples=500, deadline=None)
@given(_CONFIG_VALUES)
def test_parse_config_returns_a_config_or_raises_config_error(values):
    try:
        cfg = parse_config(_config_text(values))
    except ConfigError:
        return
    assert isinstance(cfg, ExperimentConfig)


@settings(max_examples=500, deadline=None)
@given(_CONFIG_VALUES)
def test_every_config_error_but_a_missing_nodes_has_a_line(values):
    try:
        parse_config(_config_text(values))
    except ConfigError as err:
        message = str(err)
        assert err.line is not None or message == "missing required key 'nodes'", message


@pytest.mark.parametrize("text, message", [
    # the error names probe_interval_s first, which the text leaves at its default
    ("nodes=10\nduration_s=1e300\n", "line 2: probe_interval_s is too small "),
    ("nodes=10\nupdate_max_s=0.5\n", "line 2: update_min_s must not exceed update_max_s"),
    ("update_min_s=2\nnodes=10\nupdate_max_s=1\n", "line 1: update_min_s must not exceed"),
])
def test_a_two_key_error_has_the_line_of_the_first_key_it_names_that_the_text_sets(
        text, message):
    with pytest.raises(ConfigError) as err:
        parse_config(text)
    assert str(err.value).startswith(message)


@pytest.mark.parametrize("keywords, key", [
    ({"failure": FailureConfig(rate_pct_per_min=-1.0)}, "failure_rate_pct_per_min"),
    ({"failure": FailureConfig(rate_pct_per_min=float("nan"))}, "failure_rate_pct_per_min"),
    ({"failure": FailureConfig(repair_policy="x")}, "repair_policy"),
    # an int beyond the float range would raise OverflowError in a run
    ({"failure": FailureConfig(rate_pct_per_min=2**1100)}, "failure_rate_pct_per_min"),
    ({"duration_s": 2**1100}, "duration_s"),
    ({"nodes": float("nan")}, "nodes"),
    # ints with more digits than str() may print
    ({"duration_s": 10**5000}, "duration_s"),
    ({"runs": 10**5000}, "runs"),
    # des.derive_stream_seed would fail to print it
    ({"seed": 10**5000}, "seed"),
    # nodes times an int rate is no float: the mean failure gap overflows
    ({"nodes": 10**200, "failure": FailureConfig(rate_pct_per_min=10**200)},
     "failure_rate_pct_per_min"),
], ids=["failure0-failure_rate_pct_per_min", "failure1-failure_rate_pct_per_min",
        "failure2-repair_policy", "failure3-failure_rate_pct_per_min",
        "duration_s0-duration_s", "nodes0-nodes", "duration_s1-duration_s", "runs0-runs",
        "seed0-seed", "nodes1-failure_rate_pct_per_min"])
def test_the_constructor_names_the_config_key_it_rejects(keywords, key):
    with pytest.raises(ConfigError, match=rf"\b{key}\b") as err:
        ExperimentConfig(**{"nodes": 10, **keywords})
    assert err.value.key == key


# values of every type a caller may pass: bool, int, an int beyond the float
# range, float (nan and inf included), str and None
_ANY_VALUE = st.one_of(
    st.booleans(), st.integers(), st.sampled_from([2**1100, -(10**400), 10**5000]),
    st.floats(), st.sampled_from(PROTOCOL_KINDS + REPAIR_POLICIES), st.text(max_size=8),
    st.none())


def _key_values(key):
    """Half the time any value, else a small one of ``key``'s own type."""
    kind = _CONFIG_KEYS[key][2]
    own = {int: st.integers(1, 30), float: st.floats(0.5, 30.0),
           str: st.sampled_from(PROTOCOL_KINDS if key == "protocol" else REPAIR_POLICIES)}[kind]
    return st.booleans().flatmap(lambda wild: _ANY_VALUE if wild else own)


def _has_annotated_type(value, annotation) -> bool:
    """Whether ``value`` has the type ``annotation`` names, where a bool is
    not an int and a float field also takes an int."""
    if typing.get_args(annotation):
        return any(_has_annotated_type(value, arg) for arg in typing.get_args(annotation))
    return not isinstance(value, bool) and isinstance(
        value, (int, float) if annotation is float else annotation)


@settings(max_examples=500, deadline=None)
@given(st.fixed_dictionaries({"nodes": _key_values("nodes")},
                             optional={key: _key_values(key) for key in _CONFIG_KEYS
                                       if key != "nodes"}),
       st.one_of(st.just({}), st.fixed_dictionaries({"protocol": _ANY_VALUE}),
                 st.fixed_dictionaries({"failure": _ANY_VALUE})))
@example({"nodes": 10.0}, {})
@example({"nodes": True}, {})
@example({"nodes": "10"}, {})
@example({"nodes": 10, "seed": 1.5}, {})
@example({"nodes": 10, "protocol": HIERARCHICAL, "hierarchy_levels": 2.5}, {})
@example({"nodes": 10, "max_requests_per_s": 1.5}, {})
@example({"nodes": 10}, {"protocol": None})
def test_the_constructor_gives_a_config_of_the_annotated_types_or_a_config_error(keys, records):
    """``keys`` sets config keys, and ``records`` replaces a whole record."""
    sections: dict[str, dict] = {"root": {}, "protocol": {}, "failure": {}}
    for key, value in keys.items():
        section, attr, _, _ = _CONFIG_KEYS[key]
        sections[section][attr] = value
    made = {"protocol": ProtocolConfig(**sections["protocol"]),
            "failure": FailureConfig(**sections["failure"]), **records}
    try:
        cfg = ExperimentConfig(**made, **sections["root"])
    except ConfigError as err:
        # a rule of one key names that key; a rule of two keys names both in
        # its message, and its key may be the one left at its default
        named = set(keys) | set(records)
        assert err.key in named or any(re.search(rf"\b{key}\b", str(err)) for key in named), err
        return
    for record in (cfg, cfg.protocol, cfg.failure):
        for name, annotation in typing.get_type_hints(type(record)).items():
            assert _has_annotated_type(getattr(record, name), annotation), (name, record)


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


@pytest.mark.parametrize("protocol", PROTOCOL_KINDS)
def test_only_a_transitive_centre_comes_with_its_overlap_pairs(protocol):
    cfg = small_cfg(protocol=ProtocolConfig(kind=protocol))
    dc, _, _, _ = init_run(cfg, 0)
    if protocol == "transitive_p2p":
        assert dc.overlap_pairs == build_overlap_pairs(dc.subs)
    else:
        assert dc.overlap_pairs is None


def test_transitive_set_up_peaks_at_its_own_footprint():
    """The traced peak of a transitive set-up (init_run, then make_poller)
    at n=2000, k=45 stays within 2 % of the memory the set-up ends with.

    Building the overlap pairs in make_poller, after the belief state,
    with every drawn row alive until the centre mapped it, peaked at 79.1 B
    per subscription against 71.9 B kept (queue included).  Built from the
    centre's rows before its belief state, the pairs' scratch masks are
    freed before that state exists: 71.3 B against 71.2 B.  Allocation
    sizes are deterministic, so the bound leaves room only for the
    interpreter version, not for noise.
    """
    cfg = small_cfg(nodes=2000, subscriptions=45, protocol=ProtocolConfig(kind="transitive_p2p"))
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        dc, gv, _queue, _ = init_run(cfg, 0)
        poll = make_poller(dc, cfg.protocol, gv)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert poll is not None
    assert peak - before <= 1.02 * (kept - before)


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


def test_update_gaps_stay_in_configured_band(monkeypatch):
    # run_one's own loop, seen through a stand-in poller that records each
    # update poll and then runs the real one
    cfg = small_cfg(duration_s=60.0, failure=FailureConfig(rate_pct_per_min=60.0))
    calls = []

    def recording_make_poller(dc, protocol, gv):
        poll = make_poller(dc, protocol, gv)

        def record(node, now):
            calls.append((node, now))
            poll(node, now)

        return record

    monkeypatch.setattr("hbsim.experiment.make_poller", recording_make_poller)
    out = run_one(cfg, 0)
    assert len(calls) == out.summary.update_polls

    # each node's dead spans [failed, repaired), from the run's failure log
    dead_spans = {i: [] for i in range(cfg.nodes)}
    for t, node, effect, _ in out.failures:
        if effect == "failed":
            dead_spans[node].append([t, cfg.duration_s])
        elif effect == "repaired":
            dead_spans[node][-1][1] = t
    # some node stays dead across an update, so the dispatcher has one to skip
    assert any(b - a > cfg.update_max_s for spans in dead_spans.values() for a, b in spans)

    polled = {i: [] for i in range(cfg.nodes)}
    for node, now in calls:
        assert not any(a <= now < b for a, b in dead_spans[node])
        polled[node].append(now)
    checked = 0
    for node, series in polled.items():
        for a, b in zip(series, series[1:]):
            # a gap across a failure or repair spans the updates skipped while dead
            if not any(a <= t <= b for span in dead_spans[node] for t in span):
                assert cfg.update_min_s <= b - a < cfg.update_max_s
                checked += 1
    # each failure or repair excludes at most the one gap around it
    assert checked >= len(calls) - cfg.nodes - len(out.failures)


def test_simple_update_refreshes_whole_cache_row():
    # A simple poll, and the fallback poll of a served kind whose server is
    # dead, leave the requester's whole row true and stamped with now: after
    # a target fails, after it is repaired (the row is then wrong with no
    # dead target), and when nothing changed since the last poll.
    for kind in (SIMPLE_P2P, CENTRAL, HIERARCHICAL):
        cfg = ProtocolConfig(kind=kind)
        dc = build_datacenter(20, 4, RngStream("topology", 5))
        gv = None if kind == SIMPLE_P2P else build_global_view(dc.n, cfg)
        # a requester that is no server and whose server is none of its targets
        i = next(i for i in range(dc.n)
                 if gv is None or gv.home[i] != i and gv.home[i] not in dc.subs[i])
        poll = make_poller(dc, cfg, gv)
        if gv is not None:
            dc.set_liveness(gv.home[i], False)
        target = dc.subs[i][0]
        steps = [(False, 1, [target]), (True, 1, []), (True, 0, [])]
        for now, (alive, bad_before, dead_before) in enumerate(steps, start=1):
            dc.set_liveness(target, alive)
            assert dc.bad_count[i] == bad_before
            assert dc.dead_targets[i] == dead_before
            full_polls = dc.full_polls[i]
            poll(i, float(now))
            assert dc.full_polls[i] == full_polls + 1, kind  # the simple poll ran
            assert dc.believed[i] == [dc.alive[t] for t in dc.subs[i]], kind
            assert dc.observed[i] == [float(now)] * len(dc.subs[i]), kind
            assert dc.bad_count[i] == 0, kind


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
    # aggregator gets several requests a second from 20 nodes; 0.01 s
    # windows rotate between most updates, so most rotations find only a
    # few busy components
    for kind in PROTOCOL_KINDS:
        for window in (0.01, 1.0, 10.0):
            kcfg = replace(cfg, protocol=ProtocolConfig(kind=kind, max_requests_per_s=3),
                           load_window_s=window)
            assert_run_matches_oracle(kcfg)


def assert_run_matches_oracle(cfg):
    engine = run_one(cfg, 0)
    oracle = reference_run(cfg, 0)
    assert engine.probes == oracle.probes
    assert engine.failures == oracle.failure_log
    assert engine.summary.total_messages == oracle.messages
    assert engine.summary.total_payload_entries == oracle.payload
    assert engine.load == oracle.load_rows()


@st.composite
def every_key_configs(draw):
    """A small config of any kind that sets every key away from its
    default: staleness 0.1-7 s, update gaps from a fixed one to U(2, 5),
    gamma shape 0.3-9, probe start 0-2 s and interval 0.25-3 s, a
    0.5-10 s window, caps of 1 or 3 or none and 2-4 tree levels."""
    n = draw(st.integers(3, 40))
    lo = draw(st.floats(0.3, 2.0))
    hi = draw(st.one_of(st.just(lo), st.floats(lo, 5.0)))
    protocol = ProtocolConfig(kind=draw(st.sampled_from(PROTOCOL_KINDS)),
                              staleness_s=draw(st.floats(0.1, 7.0)),
                              provider_count=draw(st.integers(1, 3)),
                              hierarchy_levels=draw(st.integers(2, 4)),
                              max_requests_per_s=draw(st.sampled_from([None, 1, 3])))
    failure = FailureConfig(rate_pct_per_min=draw(st.sampled_from([0.0, 10.0, 60.0, 200.0])),
                            gamma_shape=draw(st.floats(0.3, 9.0)),
                            repair_policy=draw(st.sampled_from(REPAIR_POLICIES)))
    return ExperimentConfig(
        nodes=n, subscriptions=draw(st.integers(0, min(7, n - 1))), protocol=protocol,
        failure=failure, duration_s=draw(st.sampled_from([5.0, 30.0])), runs=1,
        seed=draw(st.integers(0, 2**32 - 1)), probe_start_s=draw(st.floats(0.0, 2.0)),
        probe_interval_s=draw(st.floats(0.25, 3.0)), update_min_s=lo, update_max_s=hi,
        load_window_s=draw(st.floats(0.5, 10.0)))


# the other oracle comparisons keep staleness, the update gaps, the gamma
# shape and the probe times at their defaults, where a run that ignores
# one of them computes what the model does
@settings(max_examples=200, deadline=None)
@given(every_key_configs())
def test_engine_matches_the_oracle_with_every_key_set(cfg):
    assert_run_matches_oracle(cfg)


@pytest.mark.parametrize("kind", PROTOCOL_KINDS)
def test_a_tiny_load_window_runs_at_once_and_matches_the_oracle(kind):
    # a 1 ns window puts most messages in a window of their own; rotating
    # through every elapsed window, about 3e9 of them, never finished
    cfg = ExperimentConfig(nodes=10, duration_s=3.0, runs=1, seed=3, load_window_s=1e-9,
                           protocol=ProtocolConfig(kind=kind),
                           failure=FailureConfig(rate_pct_per_min=60.0))
    engine = run_one(cfg, 0)
    oracle = reference_run(cfg, 0)
    assert engine.load == oracle.load_rows()
    # the oracle's own count, since the centre derives its switch rows from
    # its total
    total = oracle.messages
    assert total > 0
    # every message touches the sender's link, the receiver's and the switch
    switch = sum(m for _, comp, m, _ in engine.load if comp == cfg.nodes)
    links = sum(m for _, comp, m, _ in engine.load if comp != cfg.nodes)
    assert (switch, links) == (total, 2 * total)


@pytest.mark.parametrize("window", [0.5, 1.0, 2.0])
@pytest.mark.parametrize("kind", PROTOCOL_KINDS)
def test_polls_on_window_boundaries_match_the_oracle(kind, window):
    # every update gap is exactly 0.25 s, so every node polls at each
    # multiple of 0.25 s and every window opens with a burst of polls at
    # its exact start: the run loop's window guard, not the message path,
    # rotates the log there; the cap of 3 sends some served requesters to
    # the simple-poll fallback
    cfg = ExperimentConfig(nodes=12, subscriptions=3, duration_s=12.0, runs=1, seed=5,
                           update_min_s=0.25, update_max_s=0.25, load_window_s=window,
                           protocol=ProtocolConfig(kind=kind, max_requests_per_s=3),
                           failure=FailureConfig(rate_pct_per_min=60.0))
    engine = run_one(cfg, 0)
    oracle = reference_run(cfg, 0)
    assert engine.probes == oracle.probes
    assert engine.load == oracle.load_rows()
    # every flushed switch row is half its window's link rows
    windows = {}
    for start, comp, m, _ in engine.load:
        windows.setdefault(start, {})[comp] = m
    for links in windows.values():
        assert 2 * links.pop(cfg.nodes) == sum(links.values())


# -- the cyclic collector is paused for a run -----------------------------------


# every kind, a capped central with several providers and a three-level tree
NO_CYCLE_PROTOCOLS = [
    *(pytest.param(ProtocolConfig(kind=kind), id=kind) for kind in PROTOCOL_KINDS),
    pytest.param(ProtocolConfig(kind="central", provider_count=3, max_requests_per_s=2),
                 id="central-providers3-cap2"),
    pytest.param(ProtocolConfig(kind="hierarchical", hierarchy_levels=3),
                 id="hierarchical-levels3"),
]


@pytest.mark.parametrize("protocol", NO_CYCLE_PROTOCOLS)
def test_a_run_leaves_no_cyclic_garbage(protocol):
    # run_one pauses the cyclic collector, so a cycle in a run's state
    # would outlive the run until some later collection found it
    cfg = ExperimentConfig(nodes=200, duration_s=20.0, runs=1, seed=4, protocol=protocol,
                           failure=FailureConfig(rate_pct_per_min=30.0))
    gc.collect()
    out = run_one(cfg, 0)
    assert out.summary.failure_events > 0
    del out
    assert gc.collect() == 0


class CollectorWatch(ScriptedFailureStream):
    """A scripted failure stream that records whether the cyclic collector
    was on at each draw."""

    def __init__(self, delays, picks):
        super().__init__(delays, picks)
        self.collector_on = []

    def gamma(self, shape, scale):
        self.collector_on.append(gc.isenabled())
        return super().gamma(shape, scale)


def test_run_one_pauses_the_collector_and_restores_it():
    assert gc.isenabled()
    stream = CollectorWatch([5.0, 5.0], [3, 3])
    run_one(small_cfg(), 0, failure_stream=stream)
    # the first draw is in init_run, the others in the event loop
    assert stream.collector_on == [False, False, False]
    assert gc.isenabled()


def test_run_one_restores_the_collector_when_the_run_raises():
    # a pick outside the centre makes the failure handler raise mid-run
    stream = CollectorWatch([5.0], [10_000])
    with pytest.raises(DispatchError):
        run_one(small_cfg(), 0, failure_stream=stream)
    assert stream.collector_on == [False]
    assert gc.isenabled()


@pytest.mark.parametrize("picks", [[3], [10_000]], ids=["returns", "raises"])
def test_run_one_leaves_a_paused_collector_paused(picks):
    gc.disable()
    try:
        with contextlib.suppress(DispatchError):
            run_one(small_cfg(), 0, failure_stream=ScriptedFailureStream([5.0], picks))
        assert not gc.isenabled()
    finally:
        gc.enable()


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


def test_a_minus_zero_rate_normalizes_to_zero_leaving_the_callers_config_alone():
    failure = FailureConfig(rate_pct_per_min=-0.0)
    cfg = small_cfg(failure=failure)
    assert str(cfg.failure.rate_pct_per_min) == "0.0"
    assert cfg.fingerprint() == "n20-r0-simple_p2p"
    assert str(failure.rate_pct_per_min) == "-0.0"


def test_a_config_is_checked_whenever_it_is_made_and_cannot_change():
    cfg = ExperimentConfig(nodes=100, duration_s=30.0, runs=1)
    with pytest.raises(ConfigError, match="nodes"):
        dataclasses.replace(cfg, nodes=0)
    for obj, name in ((cfg, "nodes"), (cfg.protocol, "kind"), (cfg.failure, "gamma_shape")):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(obj, name, getattr(obj, name))
    assert cfg.subscriptions is None and cfg.k == 10
    assert dataclasses.replace(cfg, nodes=1000).k == 32     # re-defaulted per size
    pinned = dataclasses.replace(cfg, subscriptions=7)
    assert pinned.k == 7 and dataclasses.replace(pinned, nodes=1000).k == 7


# -- sweeps --------------------------------------------------------------------


def test_grid_configs_cardinality_and_defaults():
    base = ExperimentConfig(nodes=100, duration_s=30.0, runs=1)
    grid = grid_configs(base, [100, 1000], [0.1, 1.0, 10.0], ["simple_p2p"])
    assert len(grid) == 6
    by_n = {cfg.nodes: cfg.k for cfg in grid}
    assert by_n == {100: 10, 1000: 32}   # sqrt default re-derived per size


def test_run_sweep_order_independent():
    base = ExperimentConfig(nodes=30, subscriptions=5, duration_s=20.0, runs=2, seed=5)
    grid = grid_configs(base, [30], [2.0, 20.0], ["simple_p2p", "transitive_p2p"])
    forward = [summary for _, _, summary in run_sweep(grid, workers=1)]
    backward = [summary for _, _, summary in run_sweep(list(reversed(grid)), workers=1)]
    assert sorted(map(str, forward)) == sorted(map(str, backward))


def test_default_workers_counts_the_cpus_the_process_may_use(monkeypatch):
    # faked, so the test neither depends on nor changes the real mask
    monkeypatch.setattr(os, "cpu_count", lambda: 64)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {3}, raising=False)
    assert default_workers() == 1
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    assert default_workers() == 64
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert default_workers() == 1


@pytest.mark.parametrize("workers", [0, -1])
def test_run_config_rejects_workers_below_one(workers):
    with pytest.raises(ValueError, match=f"workers must be >= 1, got {workers}"):
        run_config(small_cfg(), workers=workers)


# a run of one config in one process, as `hbsim run --workers 1` makes it
_SERIAL_RUN_SCRIPT = """
import sys
import hbsim, hbsim.cli
from hbsim.experiment import parse_config, run_config
run_config(parse_config("nodes=30\\nruns=1\\nduration_s=5\\n"), workers=1)
print(",".join(sorted(m for m in ("multiprocessing", "concurrent.futures.process",
                                  "statistics") if m in sys.modules)))
"""


def test_a_serial_single_run_loads_no_pool_or_statistics_modules():
    src = str(Path(hbsim.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    proc = subprocess.run([sys.executable, "-c", _SERIAL_RUN_SCRIPT], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout.strip() == ""


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
    summaries = [summary for _, _, summary in experiment.run_sweep([bad, good], workers=1)]
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
