import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hbsim.des import (
    DispatchError,
    EmptyTallyError,
    Event,
    EventQueue,
    RngStream,
    SchedulingError,
    Tally,
    derive_stream_seed,
)


def test_schedule_sets_fire_time_from_now():
    q = EventQueue()
    q.schedule(2.0, ("probe",))
    assert q.peek().fire_time == 2.0


def test_zero_delay_fires_after_pending_same_time_events():
    q = EventQueue()
    q.schedule(5.0, ("a",))
    q.run(5.0, lambda ev: None)  # advance clock to 5
    order = []
    q.schedule(0.0, ("first",))
    q.schedule(0.0, ("second",))
    q.run(5.0, lambda ev: order.append(ev.action[0]))
    assert order == ["first", "second"]


def test_equal_times_pop_in_insertion_order():
    q = EventQueue()
    q.schedule(3.0, ("A",))
    q.schedule(3.0, ("B",))
    popped = []
    q.run(10.0, lambda ev: popped.append(ev.action[0]))
    assert popped == ["A", "B"]


def test_negative_delay_rejected():
    q = EventQueue()
    with pytest.raises(SchedulingError):
        q.schedule(-0.1, ("x",))


def test_nan_delay_rejected():
    q = EventQueue()
    with pytest.raises(SchedulingError):
        q.schedule(math.nan, ("x",))
    assert q.peek() is None


def test_run_empty_queue_advances_clock():
    q = EventQueue()
    assert q.run(10.0, lambda ev: None) == 0
    assert q.now == 10.0


def test_run_backwards_rejected():
    q = EventQueue()
    q.run(5.0, lambda ev: None)
    with pytest.raises(SchedulingError):
        q.run(4.0, lambda ev: None)


def test_run_nan_end_time_rejected():
    # a clock set to nan would queue every later event at nan, never to fire
    q = EventQueue()
    q.run(5.0, lambda ev: None)
    q.schedule(0.5, ("x",))
    with pytest.raises(SchedulingError):
        q.run(math.nan, lambda ev: None)
    assert q.now == 5.0
    assert len(q) == 1


def test_self_rescheduling_probe_fires_3599_times():
    q = EventQueue()
    fired = [0]

    def dispatch(ev):
        fired[0] += 1
        q.schedule(1.0, ev.action)

    q.schedule(2.0, ("probe",))
    q.run(3600.0, dispatch)
    # probes at 2.0, 3.0, ..., 3600.0
    assert fired[0] == 3599


def test_end_time_boundary_inclusive():
    q = EventQueue()
    q.schedule(3600.0, ("edge",))
    assert q.run(3600.0, lambda ev: None) == 1


def test_events_beyond_end_remain_queued():
    q = EventQueue()
    q.schedule(1.0, ("in",))
    q.schedule(11.0, ("out",))
    assert q.run(10.0, lambda ev: None) == 1
    assert len(q) == 1
    assert q.peek().action == ("out",)


def test_dispatcher_fault_identifies_event():
    q = EventQueue()
    q.schedule(1.0, ("bad",))

    def dispatch(ev):
        raise RuntimeError("boom")

    with pytest.raises(DispatchError) as err:
        q.run(10.0, dispatch)
    assert err.value.event.action == ("bad",)


def test_queue_holds_and_dispatches_event_instances():
    q = EventQueue()
    q.schedule(1.0, ("a",))
    q.schedule(0.5, ("b",))
    assert all(type(entry) is Event for entry in q._heap)
    assert type(q.peek()) is Event
    assert q.peek() == Event(0.5, 1, ("b",))
    seen = []
    q.run(0.5, lambda ev: seen.append(ev))
    assert [type(ev) for ev in seen] == [Event]
    assert seen[0].fire_time == 0.5 and seen[0].action == ("b",)

    def dispatch(ev):
        raise RuntimeError("boom")

    with pytest.raises(DispatchError) as err:
        q.run(2.0, dispatch)
    assert type(err.value.event) is Event
    assert err.value.event == Event(1.0, 0, ("a",))


def test_pop_order_is_fire_time_then_seq_on_a_schedule_with_ties():
    # delays on a coarse grid make many equal fire times, and the dispatcher
    # schedules more (some with zero delay) while the queue drains
    q = EventQueue()
    stream = RngStream("ties", 7)
    scheduled = []

    def schedule(delay, action):
        seq = q.schedule(delay, action)
        scheduled.append((q.now + delay, seq))

    popped = []

    def dispatch(ev):
        popped.append((ev.fire_time, ev.seq))
        if len(scheduled) < 2000:
            for _ in range(stream.index(3)):
                schedule(0.25 * stream.index(5), ("more",))

    for i in range(50):
        schedule(0.25 * stream.index(8), ("seed", i))
    end = 40.0
    q.run(end, dispatch)
    assert len(set(t for t, _ in popped)) < len(popped)  # ties did occur
    assert popped == sorted(entry for entry in scheduled if entry[0] <= end)
    assert all(entry[0] > end for entry in q._heap)


def test_clock_monotone_under_random_script():
    q = EventQueue()
    stream = RngStream("script", 99)
    seen = []

    def dispatch(ev):
        seen.append(q.now)
        if len(seen) < 200:
            q.schedule(stream.uniform(0.0, 3.0), ("more",))

    for _ in range(5):
        q.schedule(stream.uniform(0.0, 3.0), ("seed",))
    q.run(1000.0, dispatch)
    assert seen == sorted(seen)


def test_replay_determinism_identical_pop_logs():
    def run_once():
        q = EventQueue()
        stream = RngStream("replay", 1234)
        log = []

        def dispatch(ev):
            log.append((ev.fire_time, ev.seq, ev.action))
            if ev.fire_time < 50.0:
                q.schedule(stream.uniform(0.5, 1.5), ("tick", ev.seq))

        q.schedule(0.0, ("tick", -1))
        q.run(60.0, dispatch)
        return log

    assert run_once() == run_once()


# -- random streams -----------------------------------------------------


def test_uniform_degenerate_interval():
    s = RngStream("u", 1)
    assert s.uniform(1.0, 1.0) == 1.0


def test_uniform_reversed_bounds_rejected():
    with pytest.raises(ValueError):
        RngStream("u", 1).uniform(2.0, 1.0)


def test_uniform_bounds_and_mean():
    s = RngStream("u", 42)
    draws = [s.uniform(0.8, 1.2) for _ in range(100_000)]
    assert all(0.8 <= d < 1.2 for d in draws)
    assert abs(sum(draws) / len(draws) - 1.0) < 0.01


def test_same_seed_same_sequence():
    a = RngStream("x", 777)
    b = RngStream("x", 777)
    assert [a.random() for _ in range(100)] == [b.random() for _ in range(100)]


def test_streams_are_independent():
    solo = RngStream("a", 5)
    expected = [solo.uniform(0, 1) for _ in range(50)]
    a = RngStream("a", 5)
    b = RngStream("b", 6)
    interleaved = []
    for _ in range(50):
        interleaved.append(a.uniform(0, 1))
        b.gamma(2.0, 3.0)  # draws from b must not disturb a
    assert interleaved == expected


def test_derive_stream_seed_distinct():
    seeds = {
        derive_stream_seed(1, 0, "failure"),
        derive_stream_seed(1, 0, "update"),
        derive_stream_seed(1, 1, "failure"),
        derive_stream_seed(2, 0, "failure"),
    }
    assert len(seeds) == 4
    assert derive_stream_seed(1, 0, "failure") == derive_stream_seed(1, 0, "failure")


def test_gamma_mean():
    s = RngStream("g", 7)
    draws = [s.gamma(2.0, 3.0) for _ in range(100_000)]
    assert all(d > 0 for d in draws)
    assert abs(sum(draws) / len(draws) - 6.0) < 0.1


def test_gamma_shape_one_is_exponential():
    theta = 2.0
    s = RngStream("g", 11)
    draws = [s.gamma(1.0, theta) for _ in range(100_000)]
    mean = sum(draws) / len(draws)
    var = sum((d - mean) ** 2 for d in draws) / (len(draws) - 1)
    assert abs(mean - theta) < 0.05
    assert abs(var - theta * theta) < 0.15


def test_gamma_small_shape_positive():
    s = RngStream("g", 13)
    draws = [s.gamma(0.5, 1.0) for _ in range(20_000)]
    assert all(d > 0 for d in draws)
    assert abs(sum(draws) / len(draws) - 0.5) < 0.03


def test_gamma_determinism():
    a = RngStream("g", 3)
    b = RngStream("g", 3)
    assert [a.gamma(2.0, 3.0) for _ in range(200)] == [b.gamma(2.0, 3.0) for _ in range(200)]


def test_gamma_rejects_bad_params():
    s = RngStream("g", 1)
    with pytest.raises(ValueError):
        s.gamma(0.0, 1.0)
    with pytest.raises(ValueError):
        s.gamma(1.0, -2.0)


def test_index_single():
    assert RngStream("i", 1).index(1) == 0


def test_index_uniformity():
    s = RngStream("i", 23)
    counts = [0, 0, 0, 0]
    for _ in range(100_000):
        counts[s.index(4)] += 1
    for c in counts:
        assert abs(c / 100_000 - 0.25) < 0.01


def test_index_rejects_zero():
    with pytest.raises(ValueError):
        RngStream("i", 1).index(0)



def reference_distinct_indices(stream, n, k, exclude):
    """The one-draw-at-a-time rejection loop distinct_indices replaces."""
    chosen = set()
    while len(chosen) < k:
        c = stream.index(n)
        if c != exclude and c not in chosen:
            chosen.add(c)
    return sorted(chosen)


@st.composite
def distinct_draws(draw):
    """Any k up to n - 1 at small n, k = 0 and k = n - 1 among them;
    run-sized rows, k = round(sqrt(n)) at n up to 2048, powers of two
    among them, where a duplicate draw makes a second batch; and a few
    values at n above 2**53, where the sampler clamps its draws."""
    size = draw(st.sampled_from(["small", "run", "huge"]))
    if size == "small":
        n = draw(st.integers(min_value=1, max_value=60))
        k = draw(st.one_of(st.just(0), st.just(n - 1), st.integers(min_value=0, max_value=n - 1)))
    elif size == "run":
        n = draw(st.one_of(st.sampled_from([2**e for e in range(6, 12)]),
                           st.integers(min_value=61, max_value=2048)))
        k = round(math.sqrt(n))
    else:
        n = draw(st.integers(min_value=2**53 + 1, max_value=2**64))
        k = draw(st.integers(min_value=0, max_value=3))
    return n, k, draw(st.integers(min_value=0, max_value=n - 1)), draw(st.integers(0, 2**64 - 1))


@settings(max_examples=300, deadline=None)
@given(distinct_draws())
def test_distinct_indices_matches_index_loop(case):
    n, k, exclude, seed = case
    fast = RngStream("t", seed)
    slow = RngStream("t", seed)
    # the same values, and the stream left at the same point
    for _ in range(3):
        assert fast.distinct_indices(n, k, exclude) == reference_distinct_indices(slow, n, k, exclude)
    assert fast.random() == slow.random()


def test_distinct_indices_rejects_impossible_k():
    with pytest.raises(ValueError):
        RngStream("i", 1).distinct_indices(3, 3, 0)
    with pytest.raises(ValueError):
        RngStream("i", 1).distinct_indices(3, -1, 0)

# -- tally ---------------------------------------------------------------


def test_tally_constant_values():
    t = Tally()
    for _ in range(3):
        t.add(2.0)
    s = t.summary()
    assert (s.count, s.mean, s.sd, s.min, s.max) == (3, 2.0, 0.0, 2.0, 2.0)


def test_tally_one_to_ten():
    t = Tally()
    for x in range(1, 11):
        t.add(float(x))
    s = t.summary()
    assert s.mean == pytest.approx(5.5)
    assert s.sd == pytest.approx(3.0276503540974917)
    assert (s.min, s.max) == (1.0, 10.0)


def test_tally_single_value():
    t = Tally()
    t.add(7.0)
    s = t.summary()
    assert (s.count, s.mean, s.sd) == (1, 7.0, 0.0)


def test_tally_empty_summary_rejected():
    with pytest.raises(EmptyTallyError):
        Tally().summary()


def test_tally_matches_direct_formulas_on_random_data():
    stream = RngStream("t", 55)
    values = [stream.uniform(-5.0, 9.0) for _ in range(1000)]
    t = Tally()
    for v in values:
        t.add(v)
    s = t.summary()
    mean = sum(values) / len(values)
    sd = math.sqrt(sum((v - mean) ** 2 for v in values) / (len(values) - 1))
    assert s.mean == pytest.approx(mean)
    assert s.sd == pytest.approx(sd)
    assert s.min == min(values)
    assert s.max == max(values)
