import gc
import hashlib
import json
import os
import random
import subprocess
import sys
import weakref
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hbsim.datacenter import DataCenter, build_datacenter, build_overlap_pairs
from hbsim.des import RngStream
from hbsim.protocols import (
    CENTRAL,
    HIERARCHICAL,
    PROTOCOL_KINDS,
    SIMPLE_P2P,
    TRANSITIVE_P2P,
    _DIRECT,
    ProtocolConfig,
    build_global_view,
    make_poller,
)

from reference_sim import ReferenceState

SIMPLE = ProtocolConfig(kind=SIMPLE_P2P)
TRANSITIVE = ProtocolConfig(kind=TRANSITIVE_P2P)


def fresh_dc(subs, window=10.0):
    # with its overlap pairs, so that any kind of poller can run on it
    return DataCenter(subs, load_window_s=window, overlap_pairs=True)


def slot_map(dc):
    """slot_map(dc)[i][t]: the slot of target t in node i's cache rows."""
    return [{t: s for s, t in enumerate(row)} for row in dc.subs]


def poller_for(dc, cfg):
    """make_poller's poller for cfg on dc, with a fresh global view for the
    central and hierarchical kinds, driven as the run loop drives it: the
    centre's log rotates to ``now`` first.  Rotating before every poll logs
    the same as the loop's guarded rotation."""
    gv = build_global_view(dc.n, cfg) if cfg.kind in (CENTRAL, HIERARCHICAL) else None
    fast = make_poller(dc, cfg, gv)

    def poll(i, now):
        dc.advance_window(now)
        fast(i, now)

    return poll


# -- direct polling --------------------------------------------------------


def test_direct_poll_alive_target():
    dc = fresh_dc([[1], [0]])
    poller_for(dc, SIMPLE)(0, 4.0)
    assert dc.total_messages == 2           # request and response
    assert dc.believed[0] == [True]
    assert dc.observed[0] == [4.0]


def test_direct_poll_dead_target_silence_is_the_observation():
    dc = fresh_dc([[1], [0]])
    dc.set_liveness(1, False)
    poller_for(dc, SIMPLE)(0, 4.0)
    assert dc.total_messages == 1           # the request; the dead do not reply
    assert dc.believed[0] == [False]
    assert dc.observed[0] == [4.0]
    assert dc.inconsistent == 0


def test_simple_poll_issues_k_polls():
    dc = build_datacenter(20, 5, RngStream("topology", 3))
    poller_for(dc, SIMPLE)(7, 2.0)
    assert dc.total_messages == 10  # request + response per alive target
    assert dc.observed[7] == [2.0] * 5
    assert dc.inconsistent == 0


def test_poll_refreshes_entries_after_failure():
    dc = build_datacenter(20, 5, RngStream("topology", 3))
    victim = dc.subs[7][2]
    dc.set_liveness(victim, False)
    poller_for(dc, SIMPLE)(7, 2.0)
    assert dc.believed[7][2] is False
    slot = slot_map(dc)
    assert 7 not in [obs for obs in dc.subscribers[victim]
                     if dc.believed[obs][slot[obs][victim]] != dc.alive[victim]]


@pytest.mark.parametrize("kind", [CENTRAL, HIERARCHICAL])
def test_a_simple_and_a_served_poller_defer_on_one_centre(kind):
    # the centre flushes every poller's deferred target-link counts, so a
    # simple poller and a served one whose fallback polls can share it
    dc = fresh_dc([[1, 2], [0, 2], [0, 1]], window=1.0)
    simple = poller_for(dc, SIMPLE)
    served = poller_for(dc, ProtocolConfig(kind=kind))
    dc.set_liveness(0, False)  # node 1's server: node 1 falls back to polling
    simple(2, 0.5)
    served(1, 0.5)
    totals = [(dc.total_messages, dc.total_payload)]
    dc.set_liveness(0, True)   # now node 1 is served, with a payload
    served(1, 1.5)
    simple(2, 1.5)
    totals.append((dc.total_messages, dc.total_payload))
    rows = dc.finish_load(1.5)
    # 2 messages per alive target of each poll, 1 per dead one, and node 1's
    # unanswered request to its server
    assert rows[:4] == [(0.0, 0, 3, 0), (0.0, 1, 6, 0), (0.0, 2, 5, 0), (0.0, dc.n, 7, 0)]
    before = (0, 0)
    for start, now in zip((0.0, 1.0), totals):
        window = [row[1:] for row in rows if row[0] == start]
        # the switch's row is what the totals grew by in the window
        assert window[-1] == (dc.n, now[0] - before[0], now[1] - before[1])
        # every message touches two links, each once
        assert sum(m for _, m, _ in window[:-1]) == 2 * window[-1][1]
        assert sum(p for _, _, p in window[:-1]) == 2 * window[-1][2]
        before = now


# -- transitive ------------------------------------------------------------


def test_transitive_poller_needs_a_centre_with_overlap_pairs():
    dc = DataCenter([[1], [0]])
    with pytest.raises(ValueError, match="overlap_pairs=True"):
        make_poller(dc, TRANSITIVE, None)


def test_transitive_with_stale_responder_cache_matches_simple():
    # nothing fresh to piggyback: same traffic as simple P2P, zero payload
    subs = [[1, 2], [0, 2], [0, 1]]
    a = fresh_dc(subs)
    b = fresh_dc(subs)
    poller_for(a, SIMPLE)(0, 5.0)
    poller_for(b, TRANSITIVE)(0, 5.0)
    assert a.total_messages == b.total_messages
    assert b.total_payload == 0
    assert a.believed[0] == b.believed[0]


def test_transitive_piggyback_lets_requester_skip_fresh_target():
    # 0 watches {1, 2}; 1's cache holds a fresh observation of 2
    dc = fresh_dc([[1, 2], [2], [1]])
    poll = poller_for(dc, TRANSITIVE)
    poll(1, 5.0)                            # 1 observes 2 at t=5.0
    before = dc.total_messages
    poll(0, 5.3)
    # polling 1 returned its entry on 2, so 2 itself was never polled
    assert dc.total_messages - before == 2
    assert dc.total_payload == 1
    assert dc.believed[0] == [True, True]
    assert dc.observed[0] == [5.3, 5.0]     # piggybacked age preserved


def test_transitive_stale_piggyback_not_relayed():
    dc = fresh_dc([[1, 2], [2], [1]])
    poll = poller_for(dc, TRANSITIVE)
    poll(1, 5.0)
    poll(0, 6.5)
    # 1's entry on 2 is 1.5s old: beyond the threshold, so not carried
    assert dc.total_payload == 0
    assert dc.observed[0] == [6.5, 6.5]     # both targets polled directly


def test_transitive_irrelevant_entries_not_delivered():
    # responder 1 knows about 3, but requester 0 does not watch 3
    dc = fresh_dc([[1, 2], [3], [1], [2]])
    poll = poller_for(dc, TRANSITIVE)
    poll(1, 5.0)
    poll(0, 5.2)
    assert dc.total_payload == 0
    assert dc.observed[0] == [5.2, 5.2]


def test_transitive_relayed_age_accumulates_across_hops():
    # chain: 2 observed 3 at t=2.0; 1 picks it up at 2.5; 0 hears it at 2.9
    dc = fresh_dc([[1, 3], [2, 3], [3], [0]])
    poll = poller_for(dc, TRANSITIVE)
    poll(2, 2.0)
    poll(1, 2.5)
    assert dc.observed[1] == [2.5, 2.0]
    poll(0, 2.9)
    assert dc.observed[0] == [2.9, 2.0]     # original observation time survives


def test_transitive_never_applies_entries_older_than_own():
    dc = fresh_dc([[1, 2], [2], [1]])
    poll = poller_for(dc, TRANSITIVE)
    poll(1, 5.0)
    dc.set_liveness(2, False)
    dc.apply_observation(0, 2, False, 5.5)  # 0 has newer first-hand info
    poll(0, 5.8)
    # 1's stale "2 is alive" (t=5.0) must not overwrite 0's t=5.5 entry
    assert dc.believed[0][1] is False
    assert dc.observed[0][1] == 5.5


def test_transitive_first_hand_wins_a_tie():
    # all at t=5: 0 sees 2 alive first hand; 2 dies and 1 sees it dead; 0's
    # entry on 1 is made stale, so 0 polls 1 again, and 1's relay "2 is
    # dead" carries the same observation time as 0's own entry on 2
    subs = [[1, 2], [2], [1]]
    dc = fresh_dc(subs)
    poll = poller_for(dc, TRANSITIVE)
    poll(0, 5.0)
    dc.set_liveness(2, False)
    poll(1, 5.0)
    dc.observed[0][0] = 0.0
    poll(0, 5.0)
    assert dc.believed[0] == [True, True]   # the first-hand entry stays
    assert dc.inconsistent == 1
    # the oracle keeps the same rule
    oracle = ReferenceState(subs, TRANSITIVE)
    oracle.poll(0, 5.0)
    oracle.alive[2] = False
    oracle.poll(1, 5.0)
    oracle.cache[0][1][1] = 0.0
    oracle.poll(0, 5.0)
    assert oracle.cache[0][2] == [True, 5.0]
    assert oracle.scan_inconsistent() == 1


def test_transitive_consistent_requester_takes_a_fresh_wrong_entry():
    # 1 sees 2 dead at 5.1, then 2 comes back, so 1's row is wrong while
    # 0's row is right; 0's relay from 1 must still take "2 is dead", the
    # fresher observation, though 0's own count of wrong entries is 0
    subs = [[1, 2], [2], [0]]
    dc = fresh_dc(subs)
    poll = poller_for(dc, TRANSITIVE)
    dc.set_liveness(2, False)
    poll(1, 5.1)
    dc.set_liveness(2, True)
    poll(0, 5.3)
    assert dc.believed[0] == [True, False]
    assert dc.observed[0] == [5.3, 5.1]
    assert dc.bad_count == [1, 1, 0]
    assert dc.inconsistent == 2
    # the oracle keeps the same rule
    oracle = ReferenceState(subs, TRANSITIVE)
    oracle.alive[2] = False
    oracle.poll(1, 5.1)
    oracle.alive[2] = True
    oracle.poll(0, 5.3)
    assert oracle.cache[0] == {1: [True, 5.3], 2: [False, 5.1]}
    assert [oracle.wrong_entries(i) for i in range(3)] == [1, 1, 0]
    assert oracle.scan_inconsistent() == 2


# -- central ----------------------------------------------------------------


def central_setup(n=12, k=3, seed=5, **cfg_kw):
    dc = build_datacenter(n, k, RngStream("topology", seed))
    return dc, poller_for(dc, ProtocolConfig(kind=CENTRAL, **cfg_kw))


def test_build_global_view_central_designates_lowest_ids():
    gv = build_global_view(12, ProtocolConfig(kind=CENTRAL))
    assert gv.home == [0] * 12
    assert gv.routes == {0: [_DIRECT] * 12}
    gv3 = build_global_view(12, ProtocolConfig(kind=CENTRAL, provider_count=3))
    assert gv3.home == [0, 1, 2] * 4        # taken in turn
    assert gv3.routes == dict.fromkeys([0, 1, 2], [_DIRECT] * 12)


def test_central_fresh_cache_costs_two_messages():
    dc, poll = central_setup()
    poll(5, 2.0)                             # warms the provider cache
    before = dc.total_messages
    poll(5, 2.5)                             # cache still fresh
    assert dc.total_messages - before == 2   # one request, one bulk response
    assert dc.observed[5] == [2.0] * 3       # provider's observation times


def test_central_stale_cache_refreshes_upstream():
    dc, poll = central_setup()
    poll(5, 2.0)
    before = dc.total_messages
    poll(5, 4.0)                             # all three entries went stale
    # request + 3 upstream polls (2 msgs each, all alive) + response
    assert dc.total_messages - before == 2 + 6


def test_central_observed_at_propagates_unchanged():
    dc, poll = central_setup()
    poll(5, 2.0)
    poll(8, 2.4)
    shared = set(dc.subs[5]) & set(dc.subs[8])
    slot = slot_map(dc)
    for t in shared:
        assert dc.observed[8][slot[8][t]] == 2.0


def test_central_dead_provider_falls_back_to_direct():
    dc, poll = central_setup()
    dc.set_liveness(0, False)
    poll(5, 2.0)
    # request to the dead provider (1 msg) + 2k fallback messages
    assert dc.total_messages == 1 + 2 * len(dc.subs[5])
    assert dc.observed[5] == [2.0] * 3       # cycle still refreshed everything


def test_provider_request_cap_refuses_within_second():
    dc, poll = central_setup(max_requests_per_s=5)
    k = len(dc.subs[5])
    costs = []
    for now in (3.2, 3.2, 3.2, 3.2, 3.2, 3.9, 4.0):
        before = dc.total_messages
        poll(5, now)
        costs.append(dc.total_messages - before)
    # the first request fills the cache; the sixth in second 3 is refused and
    # falls back to direct polls; second 4 admits requests again
    assert costs == [2 + 2 * k, 2, 2, 2, 2, 1 + 2 * k, 2]


def test_central_requester_applies_fallback_on_refusal():
    dc, poll = central_setup(max_requests_per_s=1)
    poll(5, 2.0)
    poll(8, 2.1)                             # refused, falls back
    assert dc.observed[8] == [2.1] * 3


def test_provider_serves_itself_without_network_traffic():
    dc, poll = central_setup()
    # provider 0 is requester 0's assigned provider (0 mod 1)
    poll(0, 2.0)
    # only upstream refresh polls are counted: 2 per alive target
    assert dc.total_messages == 2 * len(dc.subs[0])


# -- hierarchical ------------------------------------------------------------

TREE2 = ProtocolConfig(kind=HIERARCHICAL, hierarchy_levels=2)


def test_build_global_view_hierarchy_n9():
    D = _DIRECT
    gv = build_global_view(9, TREE2)
    assert gv.home == [0, 0, 0, 3, 3, 3, 6, 6, 6]
    assert sorted(gv.routes) == [0, 3, 6]
    # the root polls its own group and hands the others to their aggregators
    assert gv.routes[0] == [D, D, D, 3, 3, 3, 6, 6, 6]
    # a leaf polls its own group and sends everything else to the root
    assert gv.routes[3] == [0, 0, 0, D, D, D, 0, 0, 0]
    assert gv.routes[6] == [0, 0, 0, 0, 0, 0, D, D, D]


def test_build_global_view_single_node():
    cfg = ProtocolConfig(kind=HIERARCHICAL)
    gv = build_global_view(1, cfg)
    assert gv.home == [0]
    assert gv.routes == {0: [_DIRECT]}


def test_hierarchical_same_group_single_aggregator_hop():
    subs = [[] for _ in range(9)]
    subs[1] = [2]                           # target in requester's own group
    dc = fresh_dc(subs)
    poller_for(dc, TREE2)(1, 2.0)
    # 1->0 request, 0 polls 2 (2 msgs), 0->1 response
    assert dc.total_messages == 4
    assert dc.believed[1] == [True]


def test_hierarchical_sibling_subtree_routes_through_root():
    subs = [[] for _ in range(9)]
    subs[1] = [7]                           # target lives under aggregator 6
    subs[8] = [7]
    dc = fresh_dc(subs)
    poll = poller_for(dc, TREE2)
    poll(1, 2.0)
    # path: 1 -> agg0(root) -> agg6 -> 7 and back
    assert dc.total_messages == 6
    assert dc.believed[1] == [True]
    assert dc.observed[1] == [2.0]
    rows = {c: m for _, c, m, _ in dc.finish_load(2.0)}
    assert rows[dc.n] == 6  # the switch
    # cached at agg6 on the way back: node 8's request is answered there
    poll(8, 2.5)
    assert dc.total_messages == 6 + 2
    assert dc.observed[8] == [2.0]


def test_hierarchical_serves_sibling_from_cache_with_original_age():
    subs = [[] for _ in range(9)]
    subs[1] = [7]
    subs[2] = [7]
    dc = fresh_dc(subs)
    poll = poller_for(dc, TREE2)
    poll(1, 2.0)
    before = dc.total_messages
    poll(2, 2.5)
    assert dc.total_messages - before == 2  # answered from agg0's cache
    assert dc.observed[2] == [2.0]


def test_hierarchical_three_levels_routes_through_each_tier():
    subs = [[] for _ in range(27)]
    subs[4] = [26]          # requester under leaf agg 3, target under leaf agg 24
    # one requester under each aggregator on the route: 3, 0, 18 and 24
    for node in (5, 1, 19, 25):
        subs[node] = [26]
    dc = fresh_dc(subs)
    cfg = ProtocolConfig(kind=HIERARCHICAL, hierarchy_levels=3)
    gv = build_global_view(27, cfg)
    assert [gv.home[node] for node in (4, 5, 1, 19, 25, 26)] == [3, 3, 0, 18, 24, 24]
    # target 26 goes up from 3 to the root 0, then down through 18 and 24
    assert [gv.routes[agg][26] for agg in (3, 0, 18, 24)] == [0, 18, 24, _DIRECT]
    poll = make_poller(dc, cfg, gv)
    poll(4, 2.0)
    # request chain 4-3-0-18-24-26 and the response back: ten messages
    assert dc.total_messages == 10
    assert dc.believed[4] == [True]
    # every aggregator on the route cached the reply: each answers at once
    for node in (5, 1, 19, 25):
        before = dc.total_messages
        poll(node, 2.5)
        assert dc.total_messages - before == 2
        assert dc.observed[node] == [2.0]


def test_hierarchical_dead_aggregator_falls_back_to_direct():
    subs = [[] for _ in range(9)]
    subs[1] = [7]
    dc = fresh_dc(subs)
    poll = poller_for(dc, TREE2)
    dc.set_liveness(0, False)
    poll(1, 2.0)
    assert dc.believed[1] == [True]
    assert dc.observed[1] == [2.0]
    assert dc.total_messages == 1 + 2       # dead request + direct poll


# -- shared invariants --------------------------------------------------------


@pytest.mark.parametrize("kind", [CENTRAL, HIERARCHICAL, SIMPLE_P2P, TRANSITIVE_P2P])
def test_zero_failures_every_protocol_stays_consistent(kind):
    dc = build_datacenter(30, 5, RngStream("topology", 11), overlap_pairs=True)
    poll = poller_for(dc, ProtocolConfig(kind=kind))
    stream = RngStream("drive", 4)
    now = 0.0
    for _ in range(300):
        now += stream.uniform(0.0, 0.3)
        poll(stream.index(30), now)
        assert dc.inconsistent == 0


@pytest.mark.parametrize("kind", [CENTRAL, HIERARCHICAL, SIMPLE_P2P, TRANSITIVE_P2P])
def test_no_entry_older_than_staleness_after_a_cycle(kind):
    # relays only carry fresh information, so a completed update cycle
    # leaves every entry within the staleness threshold
    dc = build_datacenter(30, 5, RngStream("topology", 19), overlap_pairs=True)
    cfg = ProtocolConfig(kind=kind)
    poll = poller_for(dc, cfg)
    stream = RngStream("drive", 6)
    now = 0.0
    for _ in range(200):
        now += stream.uniform(0.0, 0.4)
        node = stream.index(30)
        poll(node, now)
        assert all(now - at <= cfg.staleness_s for at in dc.observed[node])


def test_central_requester_link_cheaper_than_simple_per_cycle():
    subs_seed = RngStream("topology", 13)
    dc_simple = build_datacenter(50, 7, subs_seed)
    dc_central = DataCenter([list(r) for r in dc_simple.subs])
    poller_for(dc_simple, SIMPLE)(9, 2.0)
    poller_for(dc_central, ProtocolConfig(kind=CENTRAL))(9, 2.0)
    simple_link = {c: m for _, c, m, _ in dc_simple.finish_load(2.0)}[9]
    central_link = {c: m for _, c, m, _ in dc_central.finish_load(2.0)}[9]
    assert central_link <= simple_link
    assert central_link == 2


# -- the pollers match the oracle after every step ------------------------------


def test_oracle_layout_matches_build_global_view():
    # the oracle lays out its servers by its own arithmetic, not through
    # build_global_view; both must give every node the same server and
    # every (server, target) the same next hop, the oracle's None being
    # the routes' _DIRECT
    cfgs = [ProtocolConfig(kind=HIERARCHICAL, hierarchy_levels=levels) for levels in (2, 3, 4)]
    for n in range(1, 201):
        for cfg in [*cfgs, ProtocolConfig(kind=CENTRAL, provider_count=min(3, n))]:
            gv = build_global_view(n, cfg)
            oracle = ReferenceState([[] for _ in range(n)], cfg)
            assert oracle.home == gv.home
            assert sorted(oracle.server_cache) == sorted(gv.routes)
            for server, route in gv.routes.items():
                assert [oracle.next_hop(server, t) for t in range(n)] == [
                    None if hop == _DIRECT else hop for hop in route]


def assert_poller_matches_oracle(subs, cfg, steps, seed):
    """Drive make_poller's poller and the oracle through one random script
    of polls and liveness flips, and require the same state after every
    step and the same load log at the end."""
    n = len(subs)
    dc = fresh_dc(subs, 5.0)
    poller = poller_for(dc, cfg)
    oracle = ReferenceState(subs, cfg, load_window_s=5.0)
    servers = sorted(oracle.server_cache)

    drive = RngStream("drive", seed)
    now = 0.0
    victim = None
    for _ in range(steps):
        now += drive.uniform(0.0, 0.2)
        if drive.index(10) == 0:
            # half the flips undo the last one, so a node often flips twice
            # within the staleness window and leaves fresh wrong entries;
            # half the others hit a provider or aggregator
            if victim is None or drive.index(2) == 0:
                pool = servers if servers and drive.index(2) == 0 else range(n)
                victim = pool[drive.index(len(pool))]
            dc.set_liveness(victim, not dc.alive[victim])
            oracle.alive[victim] = not oracle.alive[victim]
        node = drive.index(n)
        if dc.alive[node]:                  # the run's dispatcher checks
            poller(node, now)
        oracle.poll(node, now)              # a dead node's poll is a no-op
        rows = [[oracle.cache[i][t] for t in dc.subs[i]] for i in range(n)]
        assert dc.believed == [[entry[0] for entry in row] for row in rows]
        assert dc.observed == [[entry[1] for entry in row] for row in rows]
        assert dc.bad_count == [oracle.wrong_entries(i) for i in range(n)]
        assert dc.inconsistent == oracle.scan_inconsistent()
        assert dc.total_messages == oracle.messages
        assert dc.total_payload == oracle.payload
    assert dc.finish_load(now) == oracle.load_rows()


# a cap of 2 requests per second makes servers refuse, so requesters fall back
FAST_POLLER_CASES = [
    pytest.param(SIMPLE, id=SIMPLE_P2P),
    pytest.param(TRANSITIVE, id=TRANSITIVE_P2P),
    *(pytest.param(ProtocolConfig(kind=CENTRAL, provider_count=p, max_requests_per_s=cap),
                   id=f"{CENTRAL}-providers{p}-cap{cap}")
      for p in (1, 3) for cap in (None, 2)),
    *(pytest.param(ProtocolConfig(kind=HIERARCHICAL, hierarchy_levels=levels,
                                  max_requests_per_s=cap),
                   id=f"{HIERARCHICAL}-levels{levels}-cap{cap}")
      for levels in (2, 3) for cap in (None, 2)),
]


@pytest.mark.parametrize("cfg", FAST_POLLER_CASES)
def test_fast_poller_equivalent_to_oracle(cfg):
    topology = build_datacenter(25, 4, RngStream("topology", 21))
    assert_poller_matches_oracle(topology.subs, cfg, steps=400, seed=77)


# node 2 subscribes to nothing; 0, 3 and 6 are the aggregators of the
# two-level tree and the first providers, and some rows watch them
UNEQUAL_ROWS = [[3, 7], [0, 2, 5, 8], [], [1, 6], [0, 3, 6], [4],
                [0, 1, 2, 3, 4, 5, 7, 8], [6], [2, 7]]


EDGE_CASES = [pytest.param(subs, case.values[0], id=f"{name}-{case.id}")
              for name, subs in (("n1", [[]]), ("unequal_rows", UNEQUAL_ROWS))
              for case in FAST_POLLER_CASES
              if case.values[0].provider_count <= len(subs)]


@pytest.mark.parametrize("subs, cfg", EDGE_CASES)
def test_fast_poller_equivalent_on_edge_topologies(subs, cfg):
    assert_poller_matches_oracle(subs, cfg, steps=300, seed=5)


@pytest.mark.parametrize("kind", [CENTRAL, HIERARCHICAL])
def test_served_pollers_test_staleness_as_now_minus_observed(kind):
    # 1.1 - 0.1 == 1.0 is fresh at a 1 s threshold, though 0.1 < 1.1 - 1.0
    subs = [[] for _ in range(9)]
    subs[1] = [2]                           # server 0 polls 2 itself
    dc = fresh_dc(subs)
    poll = poller_for(dc, ProtocolConfig(kind=kind))
    poll(1, 0.1)
    poll(1, 1.1)
    # 4 messages to fill the server's cache, then 2 served from it
    assert dc.total_messages == 6
    assert dc.observed[1] == [0.1]


def test_the_transitive_poller_tests_staleness_as_observed_at_or_after_the_cut():
    # 49.54 - 49.44 is 0.10000000000000142, stale by the served kinds'
    # now - ob <= 0.1, but fresh by the transitive 49.44 >= 49.54 - 0.1
    dc = fresh_dc([[1, 2], [2], [1]])
    poll = poller_for(dc, ProtocolConfig(kind=TRANSITIVE_P2P, staleness_s=0.1))
    poll(1, 49.44)                          # 1 observes 2 at 49.44
    poll(0, 49.54)
    # 1's entry on 2 is relayed, so 2 itself is not polled
    assert dc.observed[0] == [49.54, 49.44]
    assert dc.total_payload == 1
    before = dc.total_messages
    poll(0, 49.54)
    # and the entry held on 2 is not re-polled
    assert dc.total_messages == before


@pytest.mark.parametrize("kind", [CENTRAL, HIERARCHICAL])
def test_served_pollers_apply_an_observation_on_a_tie(kind):
    # all at t=1: node 1 sees 7 alive first hand while its server 0 is down;
    # then 0 returns, 7 dies, and node 2's poll caches "7 dead" at 0 with
    # the same observation time, which node 1's next poll must take
    subs = [[] for _ in range(9)]
    subs[1] = [7]
    subs[2] = [7]
    cfg = ProtocolConfig(kind=kind)
    dc = fresh_dc(subs)
    poll = poller_for(dc, cfg)
    dc.set_liveness(0, False)
    poll(1, 1.0)
    assert dc.believed[1] == [True]
    dc.set_liveness(0, True)
    dc.set_liveness(7, False)
    poll(2, 1.0)
    poll(1, 1.0)
    assert dc.believed[1] == [False]
    assert dc.inconsistent == 0
    # the oracle keeps the same rule
    oracle = ReferenceState(subs, cfg)
    oracle.alive[0] = False
    oracle.poll(1, 1.0)
    oracle.alive[0] = True
    oracle.alive[7] = False
    oracle.poll(2, 1.0)
    oracle.poll(1, 1.0)
    assert oracle.cache[1][7] == [False, 1.0]
    assert oracle.scan_inconsistent() == 0


@pytest.mark.parametrize("kind", [CENTRAL, HIERARCHICAL, SIMPLE_P2P, TRANSITIVE_P2P])
def test_poller_holds_no_reference_cycle(kind):
    # a cycle through the poller would keep each finished run's whole state
    # alive until the cyclic collector next runs
    dc = build_datacenter(30, 5, RngStream("topology", 2), overlap_pairs=True)
    cfg = ProtocolConfig(kind=kind)
    gv = build_global_view(30, cfg) if kind in (CENTRAL, HIERARCHICAL) else None
    poller = make_poller(dc, cfg, gv)
    poller(5, 1.0)
    ref = weakref.ref(dc)
    gc.disable()
    try:
        del dc, poller, gv
        assert ref() is None
    finally:
        gc.enable()


def test_the_benchmarks_trace_level_installs():
    # perfbench/probe.py wraps direct_poll, provider_serve and some
    # DataCenter methods by name, so renaming or deleting one breaks it
    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(root / "perfbench"), str(root / "src")]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    proc = subprocess.run([sys.executable, "-c", "import probe; probe.install('trace')"],
                          env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr[-2000:]


def test_one_light_benchmark_round_of_the_desk_sweep_passes(tmp_path):
    # the pool path under the benchmark's probe: configs pickled to the
    # workers, the run_config record hook and the sweep's CSV checks
    root = Path(__file__).resolve().parent.parent
    proc = subprocess.run(
        [sys.executable, str(root / "perfbench" / "round.py"), "--workload", "desk_sweep",
         "--seed", "42", "--level", "light", "--workdir", str(tmp_path)],
        capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
    report = json.loads(proc.stdout)
    assert report["failed"] == {}
    counts = report["counts"]
    assert counts["des.events"] >= counts["experiment.update_polls"] > 0


def test_one_traced_benchmark_round_of_the_central_tree_passes(tmp_path):
    # the trace level wraps the dispatcher, the pollers and DataCenter
    # methods by name, and reads what they pass; installing it is not enough
    root = Path(__file__).resolve().parent.parent
    proc = subprocess.run(
        [sys.executable, str(root / "perfbench" / "round.py"), "--workload", "central_tree_1k",
         "--seed", "42", "--level", "trace", "--workdir", str(tmp_path)],
        capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
    report = json.loads(proc.stdout)
    assert report["failed"] == {}
    # 2 cells, each with 1 rotation at t=10 s and 1 finish_load: the run
    # loop rotates only when a window ends, never on every poll
    assert report["layers"]["datacenter.advance_window_calls"] == 4


def test_the_benchmarks_output_checks_pass_clean_outputs_and_catch_corrupted_ones():
    # perfbench/selftest.py runs every protocol small and checks its CSVs,
    # so a change to the probes or the CSVs that the benchmark's checks
    # reject fails here first
    root = Path(__file__).resolve().parent.parent
    proc = subprocess.run([sys.executable, str(root / "perfbench" / "selftest.py")],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    assert proc.stdout.rstrip().endswith("self-test passed")


# -- overlap-pair build matches the dict-probe oracle ---------------------------


def reference_overlap_pairs(dc):
    """The straightforward O(n*k*k) build: probe b's slot dict for every
    subscription of i."""
    slot = slot_map(dc)
    pairs = []
    for i in range(dc.n):
        subs_i = dc.subs[i]
        row = []
        for b in subs_i:
            slots_b = slot[b]
            pl = [(slots_b[u], m) for m, u in enumerate(subs_i) if u in slots_b]
            row.append(tuple(pl) if pl else None)
        pairs.append(row)
    return pairs


# n = 7, 8, 9, 15, 16, 17 end a mask just before, on and just after a byte
@pytest.mark.parametrize("n, k", [
    (1, 0), (2, 1), (3, 1), (12, 11), (40, 6), (500, 22),
    *((n, k) for n in (7, 8, 9, 15, 16, 17) for k in (n // 2, n - 1)),
])
def test_overlap_pairs_match_oracle_on_built_topologies(n, k):
    dc = build_datacenter(n, k, RngStream("topology", 5))
    assert build_overlap_pairs(dc.subs) == reference_overlap_pairs(dc)


# SHA-256 of repr(build_overlap_pairs(...)) for the n=2001, k=45 topology
# below, recorded from the build that OR-ed one 1 << t per target into each
# mask and counted an edge's shared targets before walking them.  At n=2001
# the last byte of a mask holds only one node's bit.
GOLDEN_PAIRS_2001_SHA256 = "194ab623814b7b5f31c17fa57edaa19826cd05e8a4ce99e29436f1a22621fded"


def test_overlap_pairs_match_the_golden_digest_and_share_their_tuples():
    dc = build_datacenter(2001, 45, RngStream("topology", 42))
    pairs = build_overlap_pairs(dc.subs)
    assert hashlib.sha256(repr(pairs).encode()).hexdigest() == GOLDEN_PAIRS_2001_SHA256
    # equal pairs, and equal 1-pair tuples, are one object each
    seen = {}
    for row in pairs:
        for pl in row:
            if pl is None:
                continue
            if len(pl) == 1:
                assert seen.setdefault(pl, pl) is pl
            for pair in pl:
                assert seen.setdefault(pair, pair) is pair


@pytest.mark.parametrize("n", [7, 8, 9, 16, 17])
def test_overlap_pairs_find_the_lowest_and_highest_node_ids(n):
    # nodes 1 and 2 both subscribe to node 0 and to node n-1, and 1 to 2,
    # so the walk of edge 1->2 must peel down to bit 0
    last = n - 1
    rows = [[] for _ in range(n)]
    rows[0] = [last]
    rows[1] = [0, 2, last]
    rows[2] = [0, last]
    rows[last] = [0]
    dc = DataCenter(rows)
    pairs = build_overlap_pairs(dc.subs)
    assert pairs == reference_overlap_pairs(dc)
    # edge 1->2 shares 0 (slot 0 in both) and n-1 (slot 1 in 2, slot 2 in 1)
    assert pairs[1][1] == ((0, 0), (1, 2))
    # edge 1->0 shares only n-1, at slot 0 in 0 and slot 2 in 1
    assert pairs[1][0] == ((0, 2),)


def test_overlap_pairs_match_oracle_when_an_edge_shares_many_targets():
    # a complete graph on 6 nodes: every edge i->b shares the other 4 nodes
    dc = DataCenter([[t for t in range(6) if t != i] for i in range(6)])
    pairs = build_overlap_pairs(dc.subs)
    assert pairs == reference_overlap_pairs(dc)
    assert all(len(pl) == 4 for row in pairs for pl in row)
    # node 0 -> node 5: shared 1..4 sit at slots 1..4 in 5 and 0..3 in 0
    assert pairs[0][4] == ((1, 0), (2, 1), (3, 2), (4, 3))


def test_overlap_pairs_match_oracle_with_unequal_rows_across_bytes():
    # rows from 0 to 16 targets over 17 nodes, so masks end in every byte
    rng = random.Random(17)
    rows = [rng.sample([t for t in range(17) if t != i], i) for i in range(17)]
    dc = DataCenter(rows)
    assert build_overlap_pairs(dc.subs) == reference_overlap_pairs(dc)


def test_overlap_pairs_match_oracle_with_unequal_rows():
    dc = DataCenter([[1, 2, 3, 4], [0], [], [0, 1, 2], [3, 0]])
    pairs = build_overlap_pairs(dc.subs)
    assert pairs == reference_overlap_pairs(dc)
    # node 0 and node 3 share targets 1 and 2, at slots 0,1 in 0 and 1,2 in 3
    assert pairs[0][2] == ((1, 0), (2, 1))
    assert pairs[1] == [None]
    assert pairs[2] == []


@st.composite
def topologies(draw):
    n = draw(st.integers(min_value=1, max_value=40))
    rows = [draw(st.lists(st.sampled_from([t for t in range(n) if t != i]),
                          unique=True, max_size=n - 1))
            if n > 1 else []
            for i in range(n)]
    return DataCenter(rows)


@settings(max_examples=200, deadline=None)
@given(topologies())
def test_overlap_pairs_match_oracle_on_random_topologies(dc):
    assert build_overlap_pairs(dc.subs) == reference_overlap_pairs(dc)


@st.composite
def poller_cases(draw):
    """A small topology and a protocol config valid on it: any kind, 1-3
    providers, 2-3 tree levels, no request cap or a cap of 2."""
    dc = draw(topologies())
    cfg = ProtocolConfig(kind=draw(st.sampled_from(PROTOCOL_KINDS)),
                         provider_count=draw(st.integers(1, min(3, dc.n))),
                         hierarchy_levels=draw(st.integers(2, 3)),
                         max_requests_per_s=draw(st.sampled_from([None, 2])))
    return dc.subs, cfg


# 300 examples, not 100: at 100 the fixed examples miss a relay guard
# that skips the responder's wrong entries (``if bad:`` for ``if bad or bad_t:``)
@settings(max_examples=300, deadline=None)
@given(poller_cases(), st.integers(min_value=0, max_value=2**32 - 1))
def test_pollers_match_oracle_on_random_topologies(case, seed):
    subs, cfg = case
    assert_poller_matches_oracle(subs, cfg, steps=100, seed=seed)
