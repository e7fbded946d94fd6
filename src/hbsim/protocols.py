"""The four heartbeat-retrieval architectures.

* simple_p2p     -- every update cycle polls each subscribed target directly.
* transitive_p2p -- direct polls, but an alive responder piggybacks its own
                    fresh cache entries about nodes the requester also
                    watches; fresh-enough entries are not re-polled, so
                    observation ages accumulate across hops.
* central        -- requesters ask one of a few provider nodes, which serve
                    from a cache no older than the staleness threshold and
                    re-fetch stale entries upstream; providers may cap the
                    requests they accept per whole second.
* hierarchical   -- a balanced aggregator tree; each aggregator serves its
                    subtree from cache, polls its own group directly, and
                    forwards anything else towards the root, caching replies
                    on the way back.

``make_poller`` returns the per-run poller of each kind, the only
implementation in the package: flat per-node rows and inlined accounting
for the P2P kinds, and per-target cache lists with precomputed tree routes
for the central and hierarchical kinds.  The naive oracle in
``tests/reference_sim.py`` restates all four; the tests require identical
state after every poll and identical whole runs.

Staleness convention everywhere: an entry observed at ``ob`` is fresh at
time ``now`` iff ``now - ob <= staleness_s``; only fresh entries are
relayed, and relays keep the original observation time.  Ties on the
observation time: a transitive relay applies only when strictly newer than
the entry held, so first-hand information wins; a served reply applies on
a tie.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass, field
from itertools import compress

from .datacenter import DataCenter

CENTRAL = "central"
HIERARCHICAL = "hierarchical"
SIMPLE_P2P = "simple_p2p"
TRANSITIVE_P2P = "transitive_p2p"
PROTOCOL_KINDS = (CENTRAL, HIERARCHICAL, SIMPLE_P2P, TRANSITIVE_P2P)


@dataclass
class ProtocolConfig:
    kind: str = SIMPLE_P2P
    staleness_s: float = 1.0
    provider_count: int = 1          # central only
    hierarchy_levels: int = 2        # hierarchical only
    max_requests_per_s: int | None = None

    def validate(self, n: int) -> None:
        if self.kind not in PROTOCOL_KINDS:
            raise ValueError(f"unknown protocol kind {self.kind!r}")
        if not 0 < self.staleness_s < math.inf:
            raise ValueError(f"staleness_s must be positive and finite, got {self.staleness_s}")
        if self.kind == CENTRAL and not 1 <= self.provider_count <= n:
            raise ValueError(f"provider_count must be in [1, {n}]")
        if self.kind == HIERARCHICAL and self.hierarchy_levels < 2:
            raise ValueError("hierarchy_levels must be >= 2")
        if self.max_requests_per_s is not None and self.max_requests_per_s < 1:
            raise ValueError("max_requests_per_s must be >= 1 when set")


@dataclass
class GlobalView:
    """Connection/referral state for the centralised topologies.

    The pollers read only the layout: ``providers``, or the tree fields,
    which are empty for the central kind.  ``cache`` (provider -> target ->
    (alive, observed_at)) and ``served`` (provider -> [second, count]) are
    read only by ``provider_serve``.
    """
    providers: list[int] = field(default_factory=list)
    cache: dict[int, dict[int, tuple[bool, float]]] = field(default_factory=dict)
    served: dict[int, list[int]] = field(default_factory=dict)
    leaf_agg: list[int] | None = None
    parent: dict[int, int | None] = field(default_factory=dict)
    agg_children: dict[int, list[tuple[int, int, int]]] = field(default_factory=dict)
    ranges: dict[int, tuple[int, int]] = field(default_factory=dict)
    root: int | None = None


def build_global_view(n: int, cfg: ProtocolConfig) -> GlobalView:
    """Lay out providers (central) or the aggregator tree (hierarchical).

    The layout is deterministic and seed-independent: providers are the
    lowest node ids, groups are consecutive id ranges with fan-out
    ceil(n^(1/levels)), and each group's aggregator is its lowest id.
    """
    if cfg.kind == CENTRAL:
        providers = list(range(cfg.provider_count))
        return GlobalView(
            providers=providers,
            cache={p: {} for p in providers},
            served={p: [-1, 0] for p in providers},
        )
    if cfg.kind != HIERARCHICAL:
        raise ValueError("global view applies only to central/hierarchical")

    gv = GlobalView()
    if n == 1:
        gv.leaf_agg = [0]
        gv.ranges = {0: (0, 1)}
        gv.parent = {0: None}
        gv.agg_children = {0: []}
        gv.root = 0
        gv.cache = {0: {}}
        gv.served = {0: [-1, 0]}
        return gv

    fan_out = max(2, math.ceil(n ** (1.0 / cfg.hierarchy_levels)))
    gv.leaf_agg = [(i // fan_out) * fan_out for i in range(n)]
    current = list(range(0, n, fan_out))
    for agg in current:
        gv.ranges[agg] = (agg, min(agg + fan_out, n))
        gv.agg_children[agg] = []
        gv.parent[agg] = None
    while len(current) > 1:
        nxt = []
        for j in range(0, len(current), fan_out):
            group = current[j:j + fan_out]
            head = group[0]
            lo = gv.ranges[group[0]][0]
            hi = gv.ranges[group[-1]][1]
            for member in group[1:]:
                gv.parent[member] = head
                gv.agg_children[head].append((member, *gv.ranges[member]))
            gv.ranges[head] = (lo, hi)
            nxt.append(head)
        current = nxt
    gv.root = current[0]
    gv.cache = {a: {} for a in gv.agg_children}
    gv.served = {a: [-1, 0] for a in gv.agg_children}
    return gv


# -- kept for the benchmark's trace level ------------------------------

def direct_poll(dc: DataCenter, requester: int, target: int, now: float):
    """Poll one node directly: the request always costs a message, the
    reply only exists when the target is alive (silence means dead), and
    either way the requester learns the target's state as of ``now``.

    Nothing in a run calls this: every kind polls through ``make_poller``.
    It stays because the benchmark's trace level (``perfbench/probe.py``)
    wraps it by name, and fails to install without it.
    """
    dc.message(requester, target, now)
    alive = dc.alive[target]
    if alive:
        dc.message(target, requester, now)
    if target in dc.subs[requester]:
        dc.apply_observation(requester, target, alive, now)
    return alive, now


def provider_serve(gv: GlobalView, provider: int, requester_targets, cfg: ProtocolConfig,
                   dc: DataCenter, now: float, local: bool = False):
    """Serve a batch of targets from a provider's cache.

    Entries missing or older than the staleness threshold are re-fetched
    with an upstream direct poll first.  Returns the (target, alive,
    observed_at) list, or None when the per-second request cap refuses the
    call.  ``local`` lookups (a provider serving itself) bypass the cap
    and its counter.

    Nothing in a run calls this, and only this reads ``gv.cache`` and
    ``gv.served``: the central poller keeps its own caches.  It stays
    because the benchmark's trace level (``perfbench/probe.py``) wraps it
    by name, and fails to install without it.
    """
    if not local:
        counter = gv.served[provider]
        sec = int(now)
        if counter[0] != sec:
            counter[0] = sec
            counter[1] = 0
        cap = cfg.max_requests_per_s
        if cap is not None and counter[1] >= cap:
            return None
        counter[1] += 1
    cache = gv.cache[provider]
    thr = cfg.staleness_s
    out = []
    for target in requester_targets:
        if target == provider:
            entry = (True, now)        # a provider knows its own state
            cache[target] = entry
        else:
            entry = cache.get(target)
            if entry is None or now - entry[1] > thr:
                dc.message(provider, target, now)
                alive = dc.alive[target]
                if alive:
                    dc.message(target, provider, now)
                entry = (alive, now)
                cache[target] = entry
        out.append((target, entry[0], entry[1]))
    return out


# -- per-run pollers ---------------------------------------------------

def _build_overlap_pairs(dc: DataCenter) -> list[list[tuple[tuple[int, int], ...] | None]]:
    """pairs[i][s]: for target b = subs[i][s], the (slot_in_b, slot_in_i)
    index pairs of subscriptions shared by i and b, in ascending slot_in_i
    order, or None when they share none.  Static per topology; this is what
    makes piggyback relay O(overlap) instead of O(k).

    Cost: each node's subscriptions become an n-bit int mask, so the
    shared targets of an edge i->b are one C-level AND over the masks'
    n/30 30-bit digits, and only the set bits of the result are walked in
    Python.  For n nodes with k subscriptions each that is n*k ANDs plus
    work linear in the output (about k**3 pairs in all on a uniform random
    topology), instead of n*k*k interpreted dict probes.

    No slot dicts: a shared target u's slot in i comes from one scratch
    list, filled once per requester, and its slot in b from a bisect of
    b's sorted row.  Every pair tuple is shared from one k x k table, and
    so is every 1-pair tuple, the commonest kind (about k*k/n shared
    targets per edge), so the result allocates only the tuples of edges
    sharing two targets or more.
    """
    subs = dc.subs
    masks = []
    for row in subs:
        mask = 0
        for t in row:
            mask |= 1 << t
        masks.append(mask)
    k = max(map(len, subs), default=0)
    slot_pairs = [[(j, m) for m in range(k)] for j in range(k)]
    single_pairs = [[(pair,) for pair in pairs_j] for pairs_j in slot_pairs]
    slot_i = [0] * dc.n  # slot_i[u]: u's slot in the current requester's row
    pairs = []
    for i, subs_i in enumerate(subs):
        mask_i = masks[i]
        for m, u in enumerate(subs_i):
            slot_i[u] = m
        row = []
        for b in subs_i:
            c = mask_i & masks[b]
            if not c:
                row.append(None)
                continue
            subs_b = subs[b]
            if c.bit_count() == 1:
                u = c.bit_length() - 1
                row.append(single_pairs[bisect_left(subs_b, u)][slot_i[u]])
                continue
            pl = []
            while c:
                u = c.bit_length() - 1
                c ^= 1 << u
                pl.append(slot_pairs[bisect_left(subs_b, u)][slot_i[u]])
            pl.reverse()  # the walk ran from the highest node id down
            row.append(tuple(pl))
        pairs.append(row)
    return pairs


def make_poller(dc: DataCenter, cfg: ProtocolConfig, gv: GlobalView | None):
    """Build the poller of ``cfg.kind`` for one run.

    The returned callable poll(node, now) runs one update cycle of ``node``:
    it refreshes the node's cached entries and adds the traffic to the data
    centre's totals and load log.  It assumes the node is alive (the
    event dispatcher checks) and that calls arrive in nondecreasing time.

    For the central and hierarchical kinds ``gv`` supplies only the layout
    (providers, or the aggregator tree); the poller keeps its own caches,
    which start empty as a fresh GlobalView's do, and leaves ``gv.cache``
    and ``gv.served`` untouched.  Each provider or aggregator holds two
    target-indexed lists (believed alive, observed at), and each aggregator
    a third with its next hop per target, so memory is O(servers * n): about
    0.8 MB for the 32-aggregator tree at n=1000, about 24 MB for a
    100-aggregator tree at n=10000.

    ``tests/reference_sim.py`` is the oracle of all four pollers.
    """
    kind = cfg.kind
    if kind == CENTRAL:
        return _make_central_poller(dc, cfg, gv)
    if kind == HIERARCHICAL:
        return _make_hierarchical_poller(dc, cfg, gv)
    if kind == SIMPLE_P2P:
        return _make_simple_poller(dc)
    if kind == TRANSITIVE_P2P:
        return _make_transitive_poller(dc, cfg.staleness_s)
    raise ValueError(f"unknown protocol kind {kind!r}")


def _make_simple_poller(dc: DataCenter):
    # Target-link accesses are deferred: each update adds 2 per subscription
    # (request + response) at window flush, minus one recorded immediately
    # per currently-dead target (no response from the dead).
    upd_counts = [0] * dc.n
    subs = dc.subs
    switch = dc.switch

    def flush(_window: int, _upd=upd_counts, _subs=subs, _wl=dc._win_msgs, _n=dc.n):
        # only the nodes that updated in this window, found in C
        for i in compress(range(_n), _upd):
            cc = 2 * _upd[i]
            for t in _subs[i]:
                _wl[t] += cc
            _upd[i] = 0

    dc.pre_flush = flush

    def poll(i, now, _dc=dc, _subs=subs, _alive=dc.alive, _believed=dc.believed,
             _observed=dc.observed, _dead=dc.dead_targets, _upd=upd_counts,
             _wl=dc._win_msgs, _bad=dc.bad_count, _switch=switch):
        if now >= _dc.next_boundary:
            _dc.advance_window(now)
        subs_i = _subs[i]
        nb = [_alive[t] for t in subs_i]
        k = len(subs_i)
        dead = _dead[i]
        resp = k - len(dead)
        _believed[i] = nb
        _observed[i] = [now] * k
        _upd[i] += 1
        if dead:
            for t in dead:
                _wl[t] -= 1
        traffic = k + resp
        _wl[i] += traffic
        _wl[_switch] += traffic
        _dc.total_messages += traffic
        if _bad[i]:
            _bad[i] = 0
            _dc.inconsistent -= 1

    return poll


def _make_transitive_poller(dc: DataCenter, staleness_s: float):
    pairs = _build_overlap_pairs(dc)

    def poll(i, now, _dc=dc, _subs=dc.subs, _alive=dc.alive, _believed=dc.believed,
             _observed=dc.observed, _pairs=pairs, _wl=dc._win_msgs, _wp=dc._win_pay,
             _bad=dc.bad_count, _switch=dc.switch, _thr=staleness_s):
        if now >= _dc.next_boundary:
            _dc.advance_window(now)
        cut = now - _thr
        subs_i = _subs[i]
        bel_i = _believed[i]
        obs_i = _observed[i]
        prs = _pairs[i]
        traffic = 0  # the requester's messages: 2 per alive target, 1 per dead
        pay = 0
        entry_bad = _bad[i]
        bad = entry_bad
        for s, o in enumerate(obs_i):
            if o < cut:
                t = subs_i[s]
                obs_i[s] = now
                if _alive[t]:
                    if not bel_i[s]:
                        bad -= 1
                        bel_i[s] = True
                    traffic += 2
                    _wl[t] += 2
                    p = prs[s]
                    if p is not None:
                        obs_t = _observed[t]
                        carried = 0
                        for j, m in p:
                            ob = obs_t[j]
                            if ob >= cut:
                                carried += 1
                                if ob > obs_i[m]:
                                    v = _believed[t][j]
                                    if bel_i[m] != v:
                                        truth = _alive[subs_i[m]]
                                        bad += (v != truth) - (bel_i[m] != truth)
                                        bel_i[m] = v
                                    obs_i[m] = ob
                        if carried:
                            _wp[t] += carried
                            pay += carried
                else:
                    if bel_i[s]:
                        bad -= 1
                        bel_i[s] = False
                    traffic += 1
                    _wl[t] += 1
        if traffic:
            _wl[i] += traffic
            _wl[_switch] += traffic
            _dc.total_messages += traffic
            if pay:
                _wp[i] += pay
                _wp[_switch] += pay
                _dc.total_payload += pay
            if bad != entry_bad:
                _bad[i] = bad
                if bad == 0:
                    _dc.inconsistent -= 1
                elif entry_bad == 0:
                    _dc.inconsistent += 1

    return poll


_DIRECT = -1  # next-hop marker: the server polls the target itself


def _make_central_poller(dc: DataCenter, cfg: ProtocolConfig, gv: GlobalView):
    providers = gv.providers
    home = [providers[i % len(providers)] for i in range(dc.n)]
    direct = [_DIRECT] * dc.n  # a provider polls every stale target itself
    return _make_served_poller(dc, cfg, home, {p: direct for p in providers})


def _make_hierarchical_poller(dc: DataCenter, cfg: ProtocolConfig, gv: GlobalView):
    # The next hop of every (aggregator, target) pair: the parent outside
    # the aggregator's range, the covering child inside a child's range, and
    # a direct poll over the rest of the range, which is the aggregator's
    # own leaf group.  The root's range is every node, so its parent of None
    # never shows.
    n = dc.n
    routes = {}
    for agg, children in gv.agg_children.items():
        route = [gv.parent[agg]] * n
        lo, hi = gv.ranges[agg]
        route[lo:hi] = [_DIRECT] * (hi - lo)
        for child, clo, chi in children:
            route[clo:chi] = [child] * (chi - clo)
        routes[agg] = route
    return _make_served_poller(dc, cfg, gv.leaf_agg, routes)


def _make_served_poller(dc: DataCenter, cfg: ProtocolConfig, home: list[int],
                        routes: dict[int, list[int]]):
    """The poller shared by the central and hierarchical kinds.

    ``home[i]`` is the provider or leaf aggregator node i asks, and
    ``routes[s][t]`` the next hop server s sends a stale target t to, or
    _DIRECT to poll it itself.  Staleness is tested as ``now - ob > thr``,
    never as ``ob < now - thr``, which can round differently; forwarded
    hops are visited in ascending id order; the cap counts requests per
    ``int(now)`` second and local serving skips it; and an observation
    applies unless it is older than the cached one.
    """
    n = dc.n
    alive = dc.alive
    thr = cfg.staleness_s
    cap = cfg.max_requests_per_s
    wl = dc._win_msgs
    wp = dc._win_pay
    switch = dc.switch
    cache_alive: list = [None] * n
    cache_obs: list = [None] * n
    route: list = [None] * n
    for s, r in routes.items():
        cache_alive[s] = [False] * n
        cache_alive[s][s] = True  # a server's own entry; serve stamps its time
        cache_obs[s] = [-math.inf] * n  # never observed: stale at any time
        route[s] = r
    served_sec = [-1] * n
    served_count = [0] * n

    def admit(s, now):
        # the per-whole-second request cap of provider_serve
        if cap is None:
            return True
        sec = int(now)
        if served_sec[s] != sec:
            served_sec[s] = sec
            served_count[s] = 1
            return True
        c = served_count[s]
        if c >= cap:
            return False
        served_count[s] = c + 1
        return True

    def serve(s, targets, now, serve):
        # Refresh server s's cache entries for targets.  Every message sent
        # here has s at one end, so s's link count is the total count.
        # serve reaches itself through its last argument, not its closure,
        # so no reference cycle keeps a finished run's state alive.
        ca = cache_alive[s]
        co = cache_obs[s]
        rt = route[s]
        # A server knows its own state as of now.  Stamping it here, whether
        # or not s is among the targets, also marks it fresh for the loop;
        # the entry is read only after a serve of s has stamped it.
        co[s] = now
        # stale targets by next hop; consecutive targets mostly share one
        direct = batch = []
        forward = {}
        last = _DIRECT
        for t in targets:
            if now - co[t] > thr:
                hop = rt[t]
                if hop != last:
                    last = hop
                    if hop == _DIRECT:
                        batch = direct
                    else:
                        batch = forward.get(hop)
                        if batch is None:
                            batch = forward[hop] = []
                batch.append(t)
        m = 0
        pay = 0
        if forward:
            for hop in sorted(forward):
                batch = forward[hop]
                if alive[hop] and admit(hop, now):
                    serve(hop, batch, now, serve)
                    # request and a reply carrying the batch's entries
                    nb = len(batch)
                    m += 2
                    wl[hop] += 2
                    pay += nb
                    wp[hop] += nb
                    hca = cache_alive[hop]
                    hco = cache_obs[hop]
                    for t in batch:
                        ca[t] = hca[t]
                        co[t] = hco[t]
                else:
                    # an unanswered request, then s polls the batch itself
                    m += 1
                    wl[hop] += 1
                    direct += batch
        for t in direct:
            a = alive[t]
            ca[t] = a
            co[t] = now
            x = 2 if a else 1
            m += x
            wl[t] += x
        if m:
            wl[s] += m
            wl[switch] += m
            dc.total_messages += m
            if pay:
                wp[s] += pay
                wp[switch] += pay
                dc.total_payload += pay

    def poll(i, now, _dc=dc, _subs=dc.subs, _alive=alive, _believed=dc.believed,
             _observed=dc.observed, _bad=dc.bad_count, _home=home, _wl=wl, _wp=wp,
             _switch=switch):
        subs_i = _subs[i]
        if not subs_i:
            return
        if now >= _dc.next_boundary:
            _dc.advance_window(now)
        s = _home[i]
        k = len(subs_i)
        if s == i:
            serve(s, subs_i, now, serve)  # local: no cap, no network hop
        elif _alive[s] and admit(s, now):
            serve(s, subs_i, now, serve)
            _wl[i] += 2
            _wl[s] += 2
            _wl[_switch] += 2
            _dc.total_messages += 2
            _wp[i] += k
            _wp[s] += k
            _wp[_switch] += k
            _dc.total_payload += k
        else:
            # the server is dead or refuses: one unanswered request, then
            # direct polls leave every entry true as of now
            m = 1
            for t in subs_i:
                x = 2 if _alive[t] else 1
                m += x
                _wl[t] += x
            _wl[s] += 1
            _wl[i] += m
            _wl[_switch] += m
            _dc.total_messages += m
            _believed[i] = [_alive[t] for t in subs_i]
            _observed[i] = [now] * k
            if _bad[i]:
                _bad[i] = 0
                _dc.inconsistent -= 1
            return
        # apply the served batch to the requester's row
        ca = cache_alive[s]
        co = cache_obs[s]
        bel_i = _believed[i]
        obs_i = _observed[i]
        entry_bad = _bad[i]
        bad = entry_bad
        for j, t in enumerate(subs_i):
            ob = co[t]
            if ob >= obs_i[j]:
                v = ca[t]
                if bel_i[j] != v:
                    truth = _alive[t]
                    bad += (v != truth) - (bel_i[j] != truth)
                    bel_i[j] = v
                obs_i[j] = ob
        if bad != entry_bad:
            _bad[i] = bad
            if bad == 0:
                _dc.inconsistent -= 1
            elif entry_bad == 0:
                _dc.inconsistent += 1

    return poll
