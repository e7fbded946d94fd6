import pytest

from hbsim.datacenter import DataCenter, NotSubscribedError, build_datacenter
from hbsim.des import RngStream


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


def test_failure_makes_fresh_subscribers_inconsistent():
    dc = build_datacenter(30, 5, RngStream("topology", 7))
    victim = 4
    dc.set_liveness(victim, False)
    assert dc.count_inconsistent_nodes() == len(dc.subscribers[victim])
    assert dc.count_inconsistent_nodes() == rescan_inconsistent(dc)


def test_set_liveness_same_value_is_noop():
    dc = build_datacenter(10, 2, RngStream("topology", 9))
    dc.set_liveness(3, True)
    assert dc.count_inconsistent_nodes() == 0
    assert dc.dead_targets == [[] for _ in range(10)]


def test_dead_node_stale_cache_counts_only_after_revival():
    # 0 watches 1; 0 dies; 1 then dies too, so 0's frozen "1 is alive" is
    # wrong -- but 0 holds no view while down.  Revival re-admits it.
    dc = DataCenter([[1], [0], [0, 1]])
    dc.set_liveness(0, False)
    dc.set_liveness(1, False)
    dc.apply_observation(2, 0, False, 1.0)
    dc.apply_observation(2, 1, False, 1.0)
    assert dc.count_inconsistent_nodes() == 0 == rescan_inconsistent(dc)
    dc.set_liveness(0, True)    # back up, still believing 1 is alive
    assert dc.count_inconsistent_nodes() == 2 == rescan_inconsistent(dc)
    # (node 2 is also wrong now: it believed 0 dead)


def test_repair_flips_subscribers_believing_dead():
    dc = DataCenter([[1], [0]])
    dc.set_liveness(1, False)
    dc.apply_observation(0, 1, False, 5.0)  # node 0 learns of the death
    assert dc.count_inconsistent_nodes() == 0
    dc.set_liveness(1, True)  # repair: believers of "dead" now wrong
    assert dc.count_inconsistent_nodes() == 1
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


def test_incremental_count_matches_rescan_on_random_scripts():
    for trial in range(20):
        stream = RngStream("script", 1000 + trial)
        n = 5 + stream.index(45)
        k = min(n - 1, 1 + stream.index(7))
        dc = build_datacenter(n, k, stream)
        for _ in range(200):
            op = stream.index(3)
            if op == 0:
                dc.set_liveness(stream.index(n), bool(stream.index(2)))
            else:
                observer = stream.index(n)
                if not dc.subs[observer]:
                    continue
                target = dc.subs[observer][stream.index(k)]
                dc.apply_observation(observer, target,
                                     bool(stream.index(2)),
                                     stream.uniform(0.0, 50.0))
            assert dc.count_inconsistent_nodes() == rescan_inconsistent(dc)


# -- load accounting ------------------------------------------------------


def test_one_message_touches_three_components():
    dc = DataCenter([[1], [0]], load_window_s=10.0)
    dc.message(0, 1, t=3.0)
    rows = dc.finish_load(3.0)
    assert rows == [(0.0, 0, 1, 0), (0.0, 1, 1, 0), (0.0, 2, 1, 0)]
    assert dc.total_messages == 1


def test_alive_poll_costs_two_messages_dead_poll_one():
    from hbsim.protocols import SIMPLE_P2P, ProtocolConfig, make_poller

    dc = DataCenter([[1, 2], [], []], load_window_s=10.0)
    dc.set_liveness(2, False)
    make_poller(dc, ProtocolConfig(kind=SIMPLE_P2P), None)(0, 1.0)
    assert dc.total_messages == 3           # alive: request + response; dead: request
    rows = dict(((c, (m, p)) for _, c, m, p in dc.finish_load(1.0)))
    assert rows[0] == (3, 0)   # requester: two requests out, one response in
    assert rows[1] == (2, 0)   # alive target: request in, response out
    assert rows[2] == (1, 0)   # dead target: request in only
    assert rows[3] == (3, 0)   # switch carries every message once


def test_window_boundaries_partition_accesses():
    dc = DataCenter([[1], [0]], load_window_s=10.0)
    dc.message(0, 1, t=9.9)
    dc.message(0, 1, t=10.1)
    dc.message(1, 0, t=10.1)
    rows = dc.finish_load(10.1)
    assert rows == [(0.0, 0, 1, 0), (0.0, 1, 1, 0), (0.0, 2, 1, 0),
                    (10.0, 0, 2, 0), (10.0, 1, 2, 0), (10.0, 2, 2, 0)]


def test_quiet_windows_produce_no_rows():
    dc = DataCenter([[1], [0]], load_window_s=5.0)
    dc.message(1, 0, t=17.0)
    rows = dc.finish_load(17.0)
    assert rows == [(15.0, 0, 1, 0), (15.0, 1, 1, 0), (15.0, 2, 1, 0)]


def test_payload_entries_tracked_separately():
    dc = DataCenter([[1], [0]], load_window_s=10.0)
    dc.message(1, 0, t=1.0, payload_entries=4)
    rows = dc.finish_load(1.0)
    assert rows == [(0.0, 0, 1, 4), (0.0, 1, 1, 4), (0.0, 2, 1, 4)]
    assert dc.total_payload == 4
