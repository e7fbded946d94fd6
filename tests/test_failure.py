import math

import pytest

from hbsim.datacenter import build_datacenter
from hbsim.des import EventQueue, RngStream
from hbsim.failure import (
    EFFECT_FAILED,
    EFFECT_NO_OP,
    EFFECT_REPAIRED,
    FAILURE_ACTION,
    FailureConfig,
    NO_REPAIR,
    ScriptedFailureStream,
    fire_failure,
    mean_failure_gap,
    schedule_next_failure,
)


def test_gamma_params_standard_case():
    cfg = FailureConfig(rate_pct_per_min=1.0)
    assert mean_failure_gap(1000, cfg) == 6.0
    assert mean_failure_gap(1000, cfg) / cfg.gamma_shape == 3.0    # the gamma scale


def test_gamma_params_low_rate():
    assert mean_failure_gap(100, FailureConfig(rate_pct_per_min=0.01)) == pytest.approx(6000.0)


def test_gamma_params_high_rate():
    assert mean_failure_gap(100, FailureConfig(rate_pct_per_min=10.0)) == pytest.approx(6.0)


def test_mean_failure_gap_is_infinite_at_zero_rate():
    # a run draws no gap at rate 0; a scripted stream ignores the inf scale
    assert mean_failure_gap(100, FailureConfig(rate_pct_per_min=0.0)) == math.inf


def test_first_failure_scheduled_from_time_zero():
    q = EventQueue()
    stream = RngStream("failure", 5)
    schedule_next_failure(q, 2.0, 3.0, stream)
    event = q.peek()
    assert event.action is FAILURE_ACTION
    assert event.fire_time > 0.0


def test_each_failure_schedules_exactly_one_successor():
    q = EventQueue()
    stream = RngStream("failure", 5)
    dc = build_datacenter(10, 2, RngStream("topology", 1))
    cfg = FailureConfig(rate_pct_per_min=1.0)
    schedule_next_failure(q, 2.0, 3.0, stream)
    fired = [0]

    def dispatch(event):
        fired[0] += 1
        fire_failure(dc, cfg, stream)
        schedule_next_failure(q, 2.0, 3.0, stream)

    q.run(200.0, dispatch)
    assert fired[0] > 0
    assert len(q) == 1  # only the one pending successor remains


def test_alive_pick_fails_node_and_leaves_caches_alone():
    dc = build_datacenter(10, 3, RngStream("topology", 2))
    stream = ScriptedFailureStream([], picks=[4])
    effect, node = fire_failure(dc, FailureConfig(), stream)
    assert (effect, node) == (EFFECT_FAILED, 4)
    assert dc.alive[4] is False
    for observer in dc.subscribers[4]:
        slot = dc.subs[observer].index(4)
        assert dc.believed[observer][slot] is True   # caches untouched
    assert dc.inconsistent == len(dc.subscribers[4])


def test_dead_pick_with_toggle_repair_revives():
    dc = build_datacenter(10, 3, RngStream("topology", 2))
    dc.set_liveness(4, False)
    effect, node = fire_failure(dc, FailureConfig(), ScriptedFailureStream([], [4]))
    assert (effect, node) == (EFFECT_REPAIRED, 4)
    assert dc.alive[4] is True


def test_dead_pick_with_no_repair_stays_dead():
    dc = build_datacenter(10, 3, RngStream("topology", 2))
    dc.set_liveness(4, False)
    cfg = FailureConfig(repair_policy=NO_REPAIR)
    effect, node = fire_failure(dc, cfg, ScriptedFailureStream([], [4]))
    assert (effect, node) == (EFFECT_NO_OP, 4)
    assert dc.alive[4] is False


def test_toggle_repair_liveness_is_pick_parity():
    dc = build_datacenter(20, 2, RngStream("topology", 9))
    stream = RngStream("failure", 33)
    cfg = FailureConfig()
    picks = []
    for _ in range(500):
        _, node = fire_failure(dc, cfg, stream)
        picks.append(node)
    for i in range(20):
        assert dc.alive[i] == (picks.count(i) % 2 == 0)


def test_no_repair_dead_set_grows_monotonically():
    dc = build_datacenter(20, 2, RngStream("topology", 9))
    stream = RngStream("failure", 44)
    cfg = FailureConfig(repair_policy=NO_REPAIR)
    dead_before: set[int] = set()
    for _ in range(300):
        fire_failure(dc, cfg, stream)
        dead_now = {i for i in range(20) if not dc.alive[i]}
        assert dead_before <= dead_now
        dead_before = dead_now


def test_event_rate_calibration_renewal_count():
    # mean gap 6s at n=1000, rate 1%/min: expect ~100 events in 600s,
    # sd ~ sqrt(100/shape) ~= 7, so a 3-sigma corridor around 100
    cfg = FailureConfig(rate_pct_per_min=1.0)
    shape = cfg.gamma_shape
    scale = mean_failure_gap(1000, cfg) / shape
    stream = RngStream("failure", 101)
    counts = []
    for _ in range(10):
        t = stream.gamma(shape, scale)
        events = 0
        while t <= 600.0:
            events += 1
            t += stream.gamma(shape, scale)
        counts.append(events)
    mean = sum(counts) / len(counts)
    corridor = 3 * math.sqrt(100.0 / shape) / math.sqrt(len(counts))
    assert abs(mean - 100.0) <= corridor


def test_scripted_stream_runs_out_gracefully():
    stream = ScriptedFailureStream([10.0], [3])
    assert stream.gamma(2.0, 3.0) == 10.0
    assert stream.gamma(2.0, 3.0) == math.inf
    assert stream.index(100) == 3
    with pytest.raises(IndexError):
        stream.index(100)
