import gc
import weakref

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hbsim.datacenter import DataCenter, build_datacenter
from hbsim.des import RngStream
from hbsim.protocols import (
    CENTRAL,
    HIERARCHICAL,
    SIMPLE_P2P,
    TRANSITIVE_P2P,
    ProtocolConfig,
    _build_overlap_pairs,
    build_global_view,
    central_poll,
    direct_poll,
    hierarchical_poll,
    make_poller,
    poll_subscriptions,
    provider_serve,
    transitive_poll,
)


def fresh_dc(subs, window=10.0):
    return DataCenter(subs, load_window_s=window)


# -- direct polling --------------------------------------------------------


def test_direct_poll_alive_target():
    dc = fresh_dc([[1], [0]])
    alive, at = direct_poll(dc, 0, 1, now=4.0)
    assert (alive, at) == (True, 4.0)
    assert dc.believed[0][0] is True
    assert dc.observed[0][0] == 4.0


def test_direct_poll_dead_target_silence_is_the_observation():
    dc = fresh_dc([[1], [0]])
    dc.set_liveness(1, False)
    alive, at = direct_poll(dc, 0, 1, now=4.0)
    assert (alive, at) == (False, 4.0)
    assert dc.believed[0][0] is False
    assert dc.count_inconsistent_nodes() == 0


def test_dead_requester_never_polls():
    dc = fresh_dc([[1], [0]])
    dc.set_liveness(0, False)
    cfg = ProtocolConfig(kind=SIMPLE_P2P)
    poll_subscriptions(dc, 0, cfg, None, now=5.0)
    assert dc.total_messages == 0
    assert dc.observed[0][0] == 0.0


def test_simple_poll_issues_k_polls():
    dc = build_datacenter(20, 5, RngStream("topology", 3))
    poll_subscriptions(dc, 7, ProtocolConfig(kind=SIMPLE_P2P), None, now=2.0)
    assert dc.total_messages == 10  # request + response per alive target
    assert dc.observed[7] == [2.0] * 5
    assert dc.count_inconsistent_nodes() == 0


def test_poll_refreshes_entries_after_failure():
    dc = build_datacenter(20, 5, RngStream("topology", 3))
    victim = dc.subs[7][2]
    dc.set_liveness(victim, False)
    poll_subscriptions(dc, 7, ProtocolConfig(kind=SIMPLE_P2P), None, now=2.0)
    assert dc.believed[7][2] is False
    assert 7 not in [obs for obs, _ in dc.subscribers[victim]
                     if dc.believed[obs][dc.sub_slot[obs][victim]] != dc.alive[victim]]


# -- transitive ------------------------------------------------------------


def test_transitive_with_stale_responder_cache_matches_simple():
    # nothing fresh to piggyback: same traffic as simple P2P, zero payload
    subs = [[1, 2], [0, 2], [0, 1]]
    a = fresh_dc(subs)
    b = fresh_dc(subs)
    poll_subscriptions(a, 0, ProtocolConfig(kind=SIMPLE_P2P), None, now=5.0)
    poll_subscriptions(b, 0, ProtocolConfig(kind=TRANSITIVE_P2P), None, now=5.0)
    assert a.total_messages == b.total_messages
    assert b.total_payload == 0
    assert a.believed[0] == b.believed[0]


def test_transitive_piggyback_lets_requester_skip_fresh_target():
    # 0 watches {1, 2}; 1's cache holds a fresh observation of 2
    dc = fresh_dc([[1, 2], [2], [1]])
    direct_poll(dc, 1, 2, now=5.0)          # 1 observes 2 at t=5.0
    dc.total_messages = 0
    transitive_poll(dc, 0, ProtocolConfig(kind=TRANSITIVE_P2P), now=5.3)
    # polling 1 returned its entry on 2, so 2 itself was never polled
    assert dc.total_messages == 2
    assert dc.total_payload == 1
    assert dc.believed[0] == [True, True]
    assert dc.observed[0] == [5.3, 5.0]     # piggybacked age preserved


def test_transitive_stale_piggyback_not_relayed():
    dc = fresh_dc([[1, 2], [2], [1]])
    direct_poll(dc, 1, 2, now=5.0)
    transitive_poll(dc, 0, ProtocolConfig(kind=TRANSITIVE_P2P), now=6.5)
    # 1's entry on 2 is 1.5s old: beyond the threshold, so not carried
    assert dc.total_payload == 0
    assert dc.observed[0] == [6.5, 6.5]     # both targets polled directly


def test_transitive_irrelevant_entries_not_delivered():
    # responder 1 knows about 3, but requester 0 does not watch 3
    dc = fresh_dc([[1, 2], [3], [1], [2]])
    direct_poll(dc, 1, 3, now=5.0)
    transitive_poll(dc, 0, ProtocolConfig(kind=TRANSITIVE_P2P), now=5.2)
    assert dc.total_payload == 0
    assert dc.observed[0] == [5.2, 5.2]


def test_transitive_relayed_age_accumulates_across_hops():
    # chain: 2 observed 3 at t=1.0; 1 picks it up at 1.5; 0 hears it at 1.9
    dc = fresh_dc([[1, 3], [2, 3], [3], [0]])
    cfg = ProtocolConfig(kind=TRANSITIVE_P2P)
    direct_poll(dc, 2, 3, now=1.0)
    transitive_poll(dc, 1, cfg, now=1.5)
    assert dc.observed[1] == [1.5, 1.0]
    transitive_poll(dc, 0, cfg, now=1.9)
    assert dc.observed[0] == [1.9, 1.0]     # original observation time survives


def test_transitive_never_applies_entries_older_than_own():
    dc = fresh_dc([[1, 2], [2], [1]])
    direct_poll(dc, 1, 2, now=5.0)
    dc.set_liveness(2, False)
    direct_poll(dc, 0, 2, now=5.5)          # 0 has newer first-hand info
    assert dc.believed[0][1] is False
    transitive_poll(dc, 0, ProtocolConfig(kind=TRANSITIVE_P2P), now=5.8)
    # 1's stale "2 is alive" (t=5.0) must not overwrite 0's t=5.5 entry
    assert dc.believed[0][1] is False
    assert dc.observed[0][1] == 5.5


# -- central ----------------------------------------------------------------


def central_setup(n=12, k=3, seed=5, **cfg_kw):
    dc = build_datacenter(n, k, RngStream("topology", seed))
    cfg = ProtocolConfig(kind=CENTRAL, **cfg_kw)
    gv = build_global_view(n, cfg)
    return dc, cfg, gv


def test_build_global_view_central_designates_lowest_ids():
    _, cfg, gv = central_setup(provider_count=1)
    assert gv.providers == [0]
    _, cfg3, gv3 = central_setup(provider_count=3)
    assert gv3.providers == [0, 1, 2]


def test_central_fresh_cache_costs_two_messages():
    dc, cfg, gv = central_setup()
    central_poll(dc, 5, cfg, gv, now=2.0)    # warms the provider cache
    before = dc.total_messages
    central_poll(dc, 5, cfg, gv, now=2.5)    # cache still fresh
    assert dc.total_messages - before == 2   # one request, one bulk response
    assert dc.observed[5] == [2.0] * 3       # provider's observation times


def test_central_stale_cache_refreshes_upstream():
    dc, cfg, gv = central_setup()
    central_poll(dc, 5, cfg, gv, now=2.0)
    before = dc.total_messages
    central_poll(dc, 5, cfg, gv, now=4.0)    # all three entries went stale
    # request + 3 upstream polls (2 msgs each, all alive) + response
    assert dc.total_messages - before == 2 + 6


def test_central_observed_at_propagates_unchanged():
    dc, cfg, gv = central_setup()
    central_poll(dc, 5, cfg, gv, now=2.0)
    central_poll(dc, 8, cfg, gv, now=2.4)
    shared = set(dc.subs[5]) & set(dc.subs[8])
    for t in shared:
        assert dc.observed[8][dc.sub_slot[8][t]] == 2.0


def test_central_dead_provider_falls_back_to_direct():
    dc, cfg, gv = central_setup()
    dc.set_liveness(0, False)
    central_poll(dc, 5, cfg, gv, now=2.0)
    # request to the dead provider (1 msg) + 2k fallback messages
    assert dc.total_messages == 1 + 2 * len(dc.subs[5])
    assert dc.observed[5] == [2.0] * 3       # cycle still refreshed everything


def test_provider_request_cap_refuses_within_second():
    dc, cfg, gv = central_setup(max_requests_per_s=5)
    targets = dc.subs[5]
    for _ in range(5):
        assert provider_serve(gv, 0, targets, cfg, dc, now=3.2) is not None
    assert provider_serve(gv, 0, targets, cfg, dc, now=3.9) is None   # sixth in same second
    assert provider_serve(gv, 0, targets, cfg, dc, now=4.0) is not None  # next second


def test_central_requester_applies_fallback_on_refusal():
    dc, cfg, gv = central_setup(max_requests_per_s=1)
    central_poll(dc, 5, cfg, gv, now=2.0)
    central_poll(dc, 8, cfg, gv, now=2.1)    # refused, falls back
    assert dc.observed[8] == [2.1] * 3


def test_provider_serves_itself_without_network_traffic():
    dc, cfg, gv = central_setup()
    # provider 0 is requester 0's assigned provider (0 mod 1)
    central_poll(dc, 0, cfg, gv, now=2.0)
    # only upstream refresh polls are counted: 2 per alive target
    assert dc.total_messages == 2 * len(dc.subs[0])


# -- hierarchical ------------------------------------------------------------


def test_build_global_view_hierarchy_n9():
    cfg = ProtocolConfig(kind=HIERARCHICAL, hierarchy_levels=2)
    gv = build_global_view(9, cfg)
    assert gv.leaf_agg == [0, 0, 0, 3, 3, 3, 6, 6, 6]
    assert gv.root == 0
    assert gv.ranges[0] == (0, 9)
    assert gv.ranges[3] == (3, 6)
    assert sorted(gv.cache) == [0, 3, 6]


def test_build_global_view_single_node():
    cfg = ProtocolConfig(kind=HIERARCHICAL)
    gv = build_global_view(1, cfg)
    assert gv.root == 0
    assert gv.leaf_agg == [0]


def test_hierarchical_same_group_single_aggregator_hop():
    subs = [[] for _ in range(9)]
    subs[1] = [2]                           # target in requester's own group
    dc = fresh_dc(subs)
    cfg = ProtocolConfig(kind=HIERARCHICAL, hierarchy_levels=2)
    gv = build_global_view(9, cfg)
    hierarchical_poll(dc, 1, cfg, gv, now=2.0)
    # 1->0 request, 0 polls 2 (2 msgs), 0->1 response
    assert dc.total_messages == 4
    assert dc.believed[1] == [True]


def test_hierarchical_sibling_subtree_routes_through_root():
    subs = [[] for _ in range(9)]
    subs[1] = [7]                           # target lives under aggregator 6
    dc = fresh_dc(subs)
    cfg = ProtocolConfig(kind=HIERARCHICAL, hierarchy_levels=2)
    gv = build_global_view(9, cfg)
    hierarchical_poll(dc, 1, cfg, gv, now=2.0)
    # path: 1 -> agg0(root) -> agg6 -> 7 and back
    assert dc.total_messages == 6
    assert dc.believed[1] == [True]
    assert dc.observed[1] == [2.0]
    assert gv.cache[0][7] == (True, 2.0)    # cached at every hop on the way back
    assert gv.cache[6][7] == (True, 2.0)
    rows = {c: m for _, c, m, _ in dc.finish_load(2.0)}
    assert rows[dc.switch] == 6


def test_hierarchical_serves_sibling_from_cache_with_original_age():
    subs = [[] for _ in range(9)]
    subs[1] = [7]
    subs[2] = [7]
    dc = fresh_dc(subs)
    cfg = ProtocolConfig(kind=HIERARCHICAL, hierarchy_levels=2)
    gv = build_global_view(9, cfg)
    hierarchical_poll(dc, 1, cfg, gv, now=2.0)
    before = dc.total_messages
    hierarchical_poll(dc, 2, cfg, gv, now=2.5)
    assert dc.total_messages - before == 2  # answered from agg0's cache
    assert dc.observed[2] == [2.0]


def test_hierarchical_three_levels_routes_through_each_tier():
    subs = [[] for _ in range(27)]
    subs[4] = [26]          # requester under leaf agg 3, target under leaf agg 24
    dc = fresh_dc(subs)
    cfg = ProtocolConfig(kind=HIERARCHICAL, hierarchy_levels=3)
    gv = build_global_view(27, cfg)
    assert gv.leaf_agg[4] == 3
    assert gv.leaf_agg[26] == 24
    assert gv.ranges[0] == (0, 27)
    assert gv.ranges[18] == (18, 27)
    hierarchical_poll(dc, 4, cfg, gv, now=2.0)
    # request chain 4-3-0-18-24-26 and the response back: ten messages
    assert dc.total_messages == 10
    assert dc.believed[4] == [True]
    for agg in (3, 0, 18, 24):
        assert gv.cache[agg][26] == (True, 2.0)


def test_hierarchical_dead_aggregator_falls_back_to_direct():
    subs = [[] for _ in range(9)]
    subs[1] = [7]
    dc = fresh_dc(subs)
    cfg = ProtocolConfig(kind=HIERARCHICAL, hierarchy_levels=2)
    gv = build_global_view(9, cfg)
    dc.set_liveness(0, False)
    hierarchical_poll(dc, 1, cfg, gv, now=2.0)
    assert dc.believed[1] == [True]
    assert dc.observed[1] == [2.0]
    assert dc.total_messages == 1 + 2       # dead request + direct poll


# -- shared invariants --------------------------------------------------------


@pytest.mark.parametrize("kind", [CENTRAL, HIERARCHICAL, SIMPLE_P2P, TRANSITIVE_P2P])
def test_zero_failures_every_protocol_stays_consistent(kind):
    dc = build_datacenter(30, 5, RngStream("topology", 11))
    cfg = ProtocolConfig(kind=kind)
    gv = build_global_view(30, cfg) if kind in (CENTRAL, HIERARCHICAL) else None
    stream = RngStream("drive", 4)
    now = 0.0
    for _ in range(300):
        now += stream.uniform(0.0, 0.3)
        poll_subscriptions(dc, stream.index(30), cfg, gv, now)
        assert dc.count_inconsistent_nodes() == 0


@pytest.mark.parametrize("kind", [CENTRAL, HIERARCHICAL, SIMPLE_P2P, TRANSITIVE_P2P])
def test_no_entry_older_than_staleness_after_a_cycle(kind):
    # relays only carry fresh information, so a completed update cycle
    # leaves every entry within the staleness threshold
    dc = build_datacenter(30, 5, RngStream("topology", 19))
    cfg = ProtocolConfig(kind=kind)
    gv = build_global_view(30, cfg) if kind in (CENTRAL, HIERARCHICAL) else None
    stream = RngStream("drive", 6)
    now = 0.0
    for _ in range(200):
        now += stream.uniform(0.0, 0.4)
        node = stream.index(30)
        poll_subscriptions(dc, node, cfg, gv, now)
        assert all(now - at <= cfg.staleness_s for at in dc.observed[node])


def test_central_requester_link_cheaper_than_simple_per_cycle():
    subs_seed = RngStream("topology", 13)
    dc_simple = build_datacenter(50, 7, subs_seed)
    dc_central = DataCenter([list(r) for r in dc_simple.subs])
    cfg_c = ProtocolConfig(kind=CENTRAL)
    gv = build_global_view(50, cfg_c)
    poll_subscriptions(dc_simple, 9, ProtocolConfig(kind=SIMPLE_P2P), None, 2.0)
    poll_subscriptions(dc_central, 9, cfg_c, gv, 2.0)
    simple_link = {c: m for _, c, m, _ in dc_simple.finish_load(2.0)}[9]
    central_link = {c: m for _, c, m, _ in dc_central.finish_load(2.0)}[9]
    assert central_link <= simple_link
    assert central_link == 2


# -- optimized pollers match the contract implementation ----------------------


def contract_and_fast(subs, cfg, load_window_s=10.0):
    """Two data centres on one topology, each with its own global view: one
    polled by poll_subscriptions, one by make_poller's poller.  Returns
    [(dc, poll(node, now))] for both."""
    n = len(subs)
    served = cfg.kind in (CENTRAL, HIERARCHICAL)
    contract = DataCenter(subs, load_window_s=load_window_s)
    gv = build_global_view(n, cfg) if served else None
    fast = DataCenter(subs, load_window_s=load_window_s)
    poller = make_poller(fast, cfg, build_global_view(n, cfg) if served else None)
    return [(contract, lambda node, now: poll_subscriptions(contract, node, cfg, gv, now)),
            (fast, poller)]


def assert_fast_poller_matches_contract(subs, cfg, steps, seed):
    """Drive both sides of contract_and_fast through one random script of
    polls and liveness flips, and require the same state after every step
    and the same load log at the end."""
    n = len(subs)
    (reference, contract_poll), (fast, poller) = contract_and_fast(subs, cfg, 5.0)
    layout = build_global_view(n, cfg) if cfg.kind in (CENTRAL, HIERARCHICAL) else None
    servers = (layout.providers or sorted(layout.agg_children)) if layout else []

    drive = RngStream("drive", seed)
    now = 0.0
    for _ in range(steps):
        now += drive.uniform(0.0, 0.2)
        if drive.index(10) == 0:
            # half the flips hit a provider or aggregator
            pool = servers if servers and drive.index(2) == 0 else range(n)
            victim = pool[drive.index(len(pool))]
            reference.set_liveness(victim, not reference.alive[victim])
            fast.set_liveness(victim, not fast.alive[victim])
        node = drive.index(n)
        contract_poll(node, now)            # a dead node's poll is a no-op
        if fast.alive[node]:
            poller(node, now)
        assert fast.believed == reference.believed
        assert fast.observed == reference.observed
        assert fast.bad_count == reference.bad_count
        assert fast.inconsistent == reference.inconsistent
        assert fast.total_messages == reference.total_messages
        assert fast.total_payload == reference.total_payload
    assert fast.finish_load(now) == reference.finish_load(now)


# a cap of 2 requests per second makes servers refuse, so requesters fall back
FAST_POLLER_CASES = [
    pytest.param(ProtocolConfig(kind=SIMPLE_P2P), id=SIMPLE_P2P),
    pytest.param(ProtocolConfig(kind=TRANSITIVE_P2P), id=TRANSITIVE_P2P),
    *(pytest.param(ProtocolConfig(kind=CENTRAL, provider_count=p, max_requests_per_s=cap),
                   id=f"{CENTRAL}-providers{p}-cap{cap}")
      for p in (1, 3) for cap in (None, 2)),
    *(pytest.param(ProtocolConfig(kind=HIERARCHICAL, hierarchy_levels=levels,
                                  max_requests_per_s=cap),
                   id=f"{HIERARCHICAL}-levels{levels}-cap{cap}")
      for levels in (2, 3) for cap in (None, 2)),
]


@pytest.mark.parametrize("cfg", FAST_POLLER_CASES)
def test_fast_poller_equivalent_to_poll_subscriptions(cfg):
    topology = build_datacenter(25, 4, RngStream("topology", 21))
    assert_fast_poller_matches_contract(topology.subs, cfg, steps=400, seed=77)


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
    assert_fast_poller_matches_contract(subs, cfg, steps=300, seed=5)


@pytest.mark.parametrize("kind", [CENTRAL, HIERARCHICAL])
def test_served_pollers_test_staleness_as_now_minus_observed(kind):
    # 1.1 - 0.1 == 1.0 is fresh at a 1 s threshold, though 0.1 < 1.1 - 1.0
    subs = [[] for _ in range(9)]
    subs[1] = [2]                           # server 0 polls 2 itself
    for dc, poll in contract_and_fast(subs, ProtocolConfig(kind=kind)):
        poll(1, 0.1)
        poll(1, 1.1)
        # 4 messages to fill the server's cache, then 2 served from it
        assert dc.total_messages == 6
        assert dc.observed[1] == [0.1]


@pytest.mark.parametrize("kind", [CENTRAL, HIERARCHICAL])
def test_served_pollers_apply_an_observation_on_a_tie(kind):
    # all at t=1: node 1 sees 7 alive first hand while its server 0 is down;
    # then 0 returns, 7 dies, and node 2's poll caches "7 dead" at 0 with
    # the same observation time, which node 1's next poll must take
    subs = [[] for _ in range(9)]
    subs[1] = [7]
    subs[2] = [7]
    for dc, poll in contract_and_fast(subs, ProtocolConfig(kind=kind)):
        dc.set_liveness(0, False)
        poll(1, 1.0)
        assert dc.believed[1] == [True]
        dc.set_liveness(0, True)
        dc.set_liveness(7, False)
        poll(2, 1.0)
        poll(1, 1.0)
        assert dc.believed[1] == [False]
        assert dc.inconsistent == 0



@pytest.mark.parametrize("kind", [CENTRAL, HIERARCHICAL, SIMPLE_P2P, TRANSITIVE_P2P])
def test_poller_holds_no_reference_cycle(kind):
    # a cycle through the poller would keep each finished run's whole state
    # alive until the cyclic collector next runs
    dc = build_datacenter(30, 5, RngStream("topology", 2))
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

# -- overlap-pair build matches the dict-probe oracle ---------------------------


def reference_overlap_pairs(dc):
    """The straightforward O(n*k*k) build: probe b's slot dict for every
    subscription of i."""
    pairs = []
    for i in range(dc.n):
        subs_i = dc.subs[i]
        row = []
        for b in subs_i:
            slots_b = dc.sub_slot[b]
            pl = [(slots_b[u], m) for m, u in enumerate(subs_i) if u in slots_b]
            row.append(tuple(pl) if pl else None)
        pairs.append(row)
    return pairs


@pytest.mark.parametrize("n, k", [(1, 0), (2, 1), (3, 1), (12, 11), (40, 6), (500, 22)])
def test_overlap_pairs_match_oracle_on_built_topologies(n, k):
    dc = build_datacenter(n, k, RngStream("topology", 5))
    assert _build_overlap_pairs(dc) == reference_overlap_pairs(dc)


def test_overlap_pairs_match_oracle_with_unequal_rows():
    dc = DataCenter([[1, 2, 3, 4], [0], [], [0, 1, 2], [3, 0]])
    assert dc.k is None
    pairs = _build_overlap_pairs(dc)
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
    assert _build_overlap_pairs(dc) == reference_overlap_pairs(dc)
