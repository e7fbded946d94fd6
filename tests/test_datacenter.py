import gc
import random
import re
import tracemalloc

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hbsim.datacenter import DataCenter, NotSubscribedError, build_datacenter, build_overlap_pairs
from hbsim.des import RngStream
from hbsim.protocols import (
    CENTRAL,
    HIERARCHICAL,
    SIMPLE_P2P,
    TRANSITIVE_P2P,
    ProtocolConfig,
    build_global_view,
    make_poller,
)


def rescan_inconsistent(dc):
    """Brute-force oracle: full scan over every operating node's entries."""
    count = 0
    for i in range(dc.n):
        if not dc.alive[i]:
            continue
        row = dc.believed[i]
        for slot, target in enumerate(dc.subs[i]):
            if row[slot] != dc.alive[target]:
                count += 1
                break
    return count


def rescan_bad_counts(dc):
    """Brute-force oracle: each node's wrong entries, dead nodes included."""
    return [sum(b != dc.alive[t] for b, t in zip(dc.believed[i], dc.subs[i]))
            for i in range(dc.n)]


def test_build_forced_mutual_subscription():
    dc = build_datacenter(2, 1, RngStream("topology", 1))
    assert dc.subs[0] == [1]
    assert dc.subs[1] == [0]


def test_build_k_distinct_non_self_targets():
    dc = build_datacenter(100, 10, RngStream("topology", 3))
    for i in range(100):
        assert len(dc.subs[i]) == 10
        assert len(set(dc.subs[i])) == 10
        assert i not in dc.subs[i]
    assert all(dc.alive)
    assert all(all(b for b in row) for row in dc.believed)
    assert all(all(o == 0.0 for o in row) for row in dc.observed)


def test_build_deterministic_for_seed():
    a = build_datacenter(100, 10, RngStream("topology", 42))
    b = build_datacenter(100, 10, RngStream("topology", 42))
    assert a.subs == b.subs


def test_build_rejects_excess_k():
    with pytest.raises(ValueError):
        build_datacenter(10, 10, RngStream("topology", 1))


def test_constructor_rejects_self_subscription():
    with pytest.raises(ValueError):
        DataCenter([[0], [0]])


def test_constructor_rejects_duplicates():
    with pytest.raises(ValueError):
        DataCenter([[1, 1], [0, 0]])


@pytest.mark.parametrize("rows, message", [
    ([[1], [0], [0, 3]], "node 2 subscribes to unknown node 3"),
    ([[1], [-1, 0]], "node 1 subscribes to unknown node -1"),
    ([[1], [0], [3, 2, 0], [0]], "node 2 subscribes to itself"),
    ([[1], [2, 0, 2], [0]], "node 1 has duplicate subscription targets"),
], ids=["target_ge_n", "negative_target", "self_in_unsorted_row", "duplicate_in_unsorted_row"])
def test_constructor_rejection_names_the_node(rows, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        DataCenter(rows)


def test_centre_built_from_drawn_rows_matches_one_built_from_a_list():
    drawn = build_datacenter(50, 7, RngStream("topology", 3), overlap_pairs=True)
    stream = RngStream("topology", 3)
    listed = DataCenter([stream.distinct_indices(50, 7, i) for i in range(50)])
    assert drawn.subs == listed.subs
    assert drawn.subscribers == listed.subscribers
    assert listed.overlap_pairs is None
    assert drawn.overlap_pairs == build_overlap_pairs(listed.subs)


UNSORTED_ROWS = [[4, 2, 1], [3, 0], [4, 0, 3, 1], [2], [3, 1, 0]]


def shuffled_rows(dc, seed):
    rows = [list(row) for row in dc.subs]
    shuffle = random.Random(seed).shuffle
    for row in rows:
        shuffle(row)
    return rows


@pytest.mark.parametrize("rows", [
    UNSORTED_ROWS,
    shuffled_rows(build_datacenter(60, 9, RngStream("topology", 11)), 11),
], ids=["hand_built", "shuffled_built"])
def test_unsorted_rows_build_the_same_centre_as_sorted_rows(rows):
    a = DataCenter(rows)
    b = DataCenter([sorted(row) for row in rows])
    assert a.subs == b.subs == [sorted(row) for row in rows]
    assert a.subscribers == b.subscribers
    # the reverse index holds each target's observers, ascending
    assert [list(obs) for obs in a.subscribers] == [
        [i for i, row in enumerate(rows) if t in row] for t in range(len(rows))]
    assert build_overlap_pairs(a.subs) == build_overlap_pairs(b.subs)


def test_memory_per_subscription():
    """Bytes held per subscription by a built centre and by its overlap
    pairs, at n=2000, k=45, under tracemalloc on 64-bit CPython 3.11.

    With a slot dict per node and (observer, slot) tuples in the reverse
    index the centre held 175.8 B and the pairs 45.3 B; with sorted rows
    sharing one int per node id, an array('i') reverse index and shared
    1-pair tuples they hold 38.7 B and 28.3 B.  Allocation sizes are
    deterministic, so the bounds leave room only for the interpreter
    version, not for noise.
    """
    subs = 2000 * 45
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        dc = build_datacenter(2000, 45, RngStream("topology", 42))
        built = tracemalloc.get_traced_memory()[0]
        pairs = build_overlap_pairs(dc.subs)
        paired = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert len(pairs) == dc.n
    assert (built - before) / subs < 60
    assert (paired - built) / subs < 35


def test_failure_makes_fresh_subscribers_inconsistent():
    dc = build_datacenter(30, 5, RngStream("topology", 7))
    victim = 4
    dc.set_liveness(victim, False)
    assert dc.inconsistent == len(dc.subscribers[victim])
    assert dc.inconsistent == rescan_inconsistent(dc)


def test_set_liveness_same_value_is_noop():
    dc = build_datacenter(10, 2, RngStream("topology", 9))
    dc.set_liveness(3, True)
    assert dc.inconsistent == 0
    assert dc.dead_targets == [[] for _ in range(10)]


def test_the_inconsistent_count_is_read_only():
    # derived from bad_count on every read, so nothing can set it apart
    dc = DataCenter([[1], [0]])
    dc.set_liveness(1, False)
    with pytest.raises(AttributeError):
        dc.inconsistent = 0
    assert dc.inconsistent == 1


@pytest.mark.parametrize("total", ["total_messages", "total_payload"])
def test_the_run_totals_are_read_only(total):
    # derived from the link counts and the load log, so nothing can set them apart
    dc = DataCenter([[1], [0]])
    dc.message(0, 1, t=1.0, payload_entries=3)
    with pytest.raises(AttributeError):
        setattr(dc, total, 0)
    assert (dc.total_messages, dc.total_payload) == (1, 3)


def test_dead_node_stale_cache_counts_only_after_revival():
    # 0 watches 1; 0 dies; 1 then dies too, so 0's frozen "1 is alive" is
    # wrong -- but 0 holds no view while down.  Revival re-admits it.
    dc = DataCenter([[1], [0], [0, 1]])
    dc.set_liveness(0, False)
    dc.set_liveness(1, False)
    dc.apply_observation(2, 0, False, 1.0)
    dc.apply_observation(2, 1, False, 1.0)
    assert dc.inconsistent == 0 == rescan_inconsistent(dc)
    dc.set_liveness(0, True)    # back up, still believing 1 is alive
    assert dc.inconsistent == 2 == rescan_inconsistent(dc)
    # (node 2 is also wrong now: it believed 0 dead)


def test_repair_flips_subscribers_believing_dead():
    dc = DataCenter([[1], [0]])
    dc.set_liveness(1, False)
    dc.apply_observation(0, 1, False, 5.0)  # node 0 learns of the death
    assert dc.inconsistent == 0
    dc.set_liveness(1, True)  # repair: believers of "dead" now wrong
    assert dc.inconsistent == 1
    assert rescan_inconsistent(dc) == 1


def test_apply_observation_fresh_always_applies():
    dc = DataCenter([[1], [0]])
    assert dc.apply_observation(0, 1, True, 3.0)
    assert dc.observed[0][0] == 3.0


def test_apply_observation_stale_rejected():
    dc = DataCenter([[1], [0]])
    dc.apply_observation(0, 1, False, 5.0)
    assert not dc.apply_observation(0, 1, True, 4.0)
    assert dc.believed[0][0] is False
    assert dc.observed[0][0] == 5.0


def test_apply_observation_tie_applies():
    dc = DataCenter([[1], [0]])
    dc.apply_observation(0, 1, True, 5.0)
    assert dc.apply_observation(0, 1, True, 5.0)


def test_apply_observation_requires_subscription():
    dc = DataCenter([[1], [0], [0]])
    with pytest.raises(NotSubscribedError):
        dc.apply_observation(0, 2, True, 1.0)


def test_observation_timestamps_never_decrease():
    dc = DataCenter([[1, 2], [2, 0], [0, 1]])
    stream = RngStream("script", 31)
    last = [[0.0, 0.0] for _ in range(3)]
    for step in range(300):
        observer = stream.index(3)
        slot = stream.index(2)
        target = dc.subs[observer][slot]
        at = stream.uniform(0.0, 100.0)
        dc.apply_observation(observer, target, bool(stream.index(2)), at)
        assert dc.observed[observer][slot] >= last[observer][slot]
        last[observer][slot] = dc.observed[observer][slot]


# one poller of each kind; central under a cap of 1 request per second, so
# that refusals send requesters to the simple-poll fallback
SCRIPT_KINDS = [
    ProtocolConfig(kind=SIMPLE_P2P),
    ProtocolConfig(kind=TRANSITIVE_P2P),
    ProtocolConfig(kind=CENTRAL, provider_count=1, max_requests_per_s=1),
    ProtocolConfig(kind=HIERARCHICAL),
]


def poller_for(dc, cfg):
    """The poller that ``make_poller`` gives ``cfg`` on ``dc``, driven as the
    run loop drives it: the centre's log rotates to the window of ``now``
    first."""
    fast = make_poller(dc, cfg, build_global_view(dc.n, cfg)
                       if cfg.kind in (CENTRAL, HIERARCHICAL) else None)

    def poll(i, now):
        dc.advance_window(int(now / dc.load_window_s))
        fast(i, now)

    return poll


def run_script_against_rescan(dc, stream, steps=200):
    """Random liveness flips, observations, and polls of random alive nodes
    through each of the four pollers on a monotone clock.  After every step
    each node's ``bad_count``, dead nodes included, must equal a rescan of
    its row, the derived count a full rescan, and each node's dead targets
    exactly its subscriptions that are down.  dc needs its overlap pairs."""
    n = dc.n
    pollers = [poller_for(dc, cfg) for cfg in SCRIPT_KINDS]
    now = 0.0
    for _ in range(steps):
        op = stream.index(4)
        if op == 0:
            dc.set_liveness(stream.index(n), bool(stream.index(2)))
        elif op == 1:
            observer = stream.index(n)
            row = dc.subs[observer]
            if not row:
                continue
            target = row[stream.index(len(row))]
            dc.apply_observation(observer, target,
                                 bool(stream.index(2)),
                                 stream.uniform(0.0, 50.0))
        else:
            up = [i for i in range(n) if dc.alive[i]]
            if not up:
                continue
            now += stream.uniform(0.0, 1.0)
            pollers[stream.index(len(pollers))](up[stream.index(len(up))], now)
        assert dc.bad_count == rescan_bad_counts(dc)
        assert dc.inconsistent == rescan_inconsistent(dc)
        assert [sorted(dead) for dead in dc.dead_targets] == [
            [t for t in row if not dc.alive[t]] for row in dc.subs]


def test_incremental_count_matches_rescan_on_random_scripts():
    for trial in range(20):
        stream = RngStream("script", 1000 + trial)
        n = 5 + stream.index(45)
        k = min(n - 1, 1 + stream.index(7))
        dc = build_datacenter(n, k, stream, overlap_pairs=True)
        run_script_against_rescan(dc, stream)


@pytest.mark.parametrize("rows", [
    [[1, 2, 3, 4], [0], [], [0, 1, 2], [3, 0]],
    [[], [], [0, 1], [], [2]],
    [[]],
    UNSORTED_ROWS,
], ids=["unequal_rows", "empty_rows", "single_node", "unsorted_rows"])
def test_incremental_count_matches_rescan_on_hand_built_centres(rows):
    for trial in range(10):
        run_script_against_rescan(DataCenter(rows, overlap_pairs=True),
                                  RngStream("script", 2000 + trial))


# -- load accounting ------------------------------------------------------


def test_one_message_touches_three_components():
    dc = DataCenter([[1], [0]], load_window_s=10.0)
    dc.message(0, 1, t=3.0)
    rows = dc.finish_load()
    assert rows == [(0.0, 0, 1, 0), (0.0, 1, 1, 0), (0.0, 2, 1, 0)]
    assert dc.total_messages == 1


def test_alive_poll_costs_two_messages_dead_poll_one():
    dc = DataCenter([[1, 2], [], []], load_window_s=10.0)
    dc.set_liveness(2, False)
    make_poller(dc, ProtocolConfig(kind=SIMPLE_P2P), None)(0, 1.0)
    assert dc.total_messages == 3           # alive: request + response; dead: request
    rows = dict(((c, (m, p)) for _, c, m, p in dc.finish_load()))
    assert rows[0] == (3, 0)   # requester: two requests out, one response in
    assert rows[1] == (2, 0)   # alive target: request in, response out
    assert rows[2] == (1, 0)   # dead target: request in only
    assert rows[3] == (3, 0)   # switch carries every message once


def test_window_boundaries_partition_accesses():
    dc = DataCenter([[1], [0]], load_window_s=10.0)
    dc.message(0, 1, t=9.9)
    dc.message(0, 1, t=10.1)
    dc.message(1, 0, t=10.1)
    rows = dc.finish_load()
    assert rows == [(0.0, 0, 1, 0), (0.0, 1, 1, 0), (0.0, 2, 1, 0),
                    (10.0, 0, 2, 0), (10.0, 1, 2, 0), (10.0, 2, 2, 0)]


def test_quiet_windows_produce_no_rows():
    dc = DataCenter([[1], [0]], load_window_s=5.0)
    dc.message(1, 0, t=17.0)
    rows = dc.finish_load()
    assert rows == [(15.0, 0, 1, 0), (15.0, 1, 1, 0), (15.0, 2, 1, 0)]


def test_a_jump_over_many_windows_flushes_only_the_current_one():
    # 1e12 windows of 1 ps each elapse between the poll and the message
    dc = window_log(1e-12)
    make_poller(dc, ProtocolConfig(kind=SIMPLE_P2P), None)(0, 1e-13)
    dc.message(1, 0, t=1.0)
    win = int(1.0 / 1e-12)
    # window 0 flushed, with the deferred target link of node 0's poll
    assert dc._load_rows == [(0.0, 0, 2, 0), (0.0, 1, 2, 0), (0.0, 2, 2, 0)]
    assert dc.full_polls == [0, 0]
    assert dc.next_window == win + 1
    rows = dc.finish_load()
    assert rows[3:] == [(win * 1e-12, 0, 1, 0), (win * 1e-12, 1, 1, 0), (win * 1e-12, 2, 1, 0)]


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 10**7), st.floats(1e-6, 1e6))
@example(40, 0.1)          # end 4.0
@example(60, 0.05)         # end 3.0
@example(619870, 1.1)      # end 681857.0
def test_finish_load_flushes_the_window_open_at_the_end(m, w):
    # in the examples, (end + w) / w rounds down to the open window's own
    # index m, so an index made from a time past the end would flush nothing
    end = m * w
    dc = DataCenter([[1], [0]], load_window_s=w)
    dc.message(0, 1, t=end)
    start = int(end / w) * w
    assert dc.finish_load() == [(start, 0, 1, 0), (start, 1, 1, 0), (start, 2, 1, 0)]


def test_payload_entries_tracked_separately():
    dc = DataCenter([[1], [0]], load_window_s=10.0)
    dc.message(1, 0, t=1.0, payload_entries=4)
    rows = dc.finish_load()
    assert rows == [(0.0, 0, 1, 4), (0.0, 1, 1, 4), (0.0, 2, 1, 4)]
    assert dc.total_payload == 4


# -- window rotation ----------------------------------------------------------

def window_log(w):
    """A two-node centre, each node subscribed to the other."""
    return DataCenter([[1], [0]], load_window_s=w, overlap_pairs=True)


def test_a_window_of_1e308_s_flushes_its_rows():
    dc = DataCenter([[1], [0]], load_window_s=1e308)
    dc.message(0, 1, t=1.0)
    assert dc.finish_load() == [(0.0, 0, 1, 0), (0.0, 1, 1, 0), (0.0, 2, 1, 0)]
    # window 1 starts at 1e308; window 2 would start past the largest float
    assert dc.next_window == 2
