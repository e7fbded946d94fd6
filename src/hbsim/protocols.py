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
for the P2P kinds, and per-target cache lists with the routes that
``build_global_view`` precomputes for the central and hierarchical kinds.
The naive oracle in ``tests/reference_sim.py`` restates all four; the
tests require identical state after every poll and identical whole runs.

Staleness convention everywhere: an entry observed at ``ob`` is fresh at
time ``now`` iff ``now - ob <= staleness_s``; only fresh entries are
relayed, and relays keep the original observation time.  Ties on the
observation time: a transitive relay applies only when strictly newer than
the entry held, so first-hand information wins; a served reply applies on
a tie.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

from .datacenter import DataCenter

CENTRAL = "central"
HIERARCHICAL = "hierarchical"
SIMPLE_P2P = "simple_p2p"
TRANSITIVE_P2P = "transitive_p2p"
PROTOCOL_KINDS = (CENTRAL, HIERARCHICAL, SIMPLE_P2P, TRANSITIVE_P2P)


@dataclass(frozen=True)
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
        if self.kind == HIERARCHICAL and self.hierarchy_levels > sys.float_info.max:
            # build_global_view takes 1 / hierarchy_levels as a float
            raise ValueError(
                f"hierarchy_levels must not exceed the largest float, {sys.float_info.max}")
        if self.max_requests_per_s is not None and self.max_requests_per_s < 1:
            raise ValueError("max_requests_per_s must be >= 1 when set")


_DIRECT = -1  # next-hop marker: the server polls the target itself


@dataclass
class GlobalView:
    """The server layout of the central and hierarchical kinds, as the
    served poller reads it.

    ``home[i]`` is the provider or leaf aggregator node i asks, and
    ``routes[s][t]`` is where server s sends a stale target t: the next
    hop, or ``_DIRECT`` to poll it itself.  The servers are the keys of
    ``routes``.
    """
    home: list[int]
    routes: dict[int, list[int]]


def build_global_view(n: int, cfg: ProtocolConfig) -> GlobalView:
    """Lay out providers (central) or the aggregator tree (hierarchical).

    The layout is deterministic and seed-independent: providers are the
    lowest node ids, asked in turn (node i asks provider i mod p), and poll
    every stale target themselves.  Tree groups are consecutive id ranges
    with fan-out f = max(2, ceil(n^(1/levels))), and each group's
    aggregator is its lowest id.  Level by level, every f consecutive
    aggregators form a group headed by its first, which covers the group's
    ids, until one root is left.  An aggregator sends a target outside its
    range to its parent, a target in a child's range to that child, and
    polls the rest of its range, its own leaf group, itself.

    ``hierarchy_levels`` is a ceiling: the tree's depth is the number of
    f-way groupings that reduce the n ids to one root, which falls below
    it whenever f**(levels - 1) >= n (n=9 at 3 levels builds 2, n=64 at 5
    builds 4, n=20 at 10 builds 5).
    """
    if cfg.kind == CENTRAL:
        p = cfg.provider_count
        return GlobalView([i % p for i in range(n)], dict.fromkeys(range(p), [_DIRECT] * n))
    if cfg.kind != HIERARCHICAL:
        raise ValueError("global view applies only to central/hierarchical")

    fan_out = max(2, math.ceil(n ** (1.0 / cfg.hierarchy_levels)))
    routes = {agg: [_DIRECT] * n for agg in range(0, n, fan_out)}
    end = {agg: min(agg + fan_out, n) for agg in routes}  # range [agg, end[agg])
    level = list(routes)
    while len(level) > 1:
        for j in range(0, len(level), fan_out):
            group = level[j:j + fan_out]
            head = group[0]
            for child in group[1:]:
                hi = end[child]
                routes[head][child:hi] = [child] * (hi - child)
                # the child's range is final, so the rest goes to its parent
                up = routes[child]
                up[:child] = [head] * child
                up[hi:] = [head] * (n - hi)
            end[head] = end[group[-1]]
        level = level[::fan_out]
    return GlobalView([(i // fan_out) * fan_out for i in range(n)], routes)


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


def provider_serve(cache: dict[int, tuple[bool, float]], counter: list[int] | None,
                   provider: int, requester_targets, cfg: ProtocolConfig,
                   dc: DataCenter, now: float):
    """Serve a batch of targets from a provider's ``cache`` (target ->
    (alive, observed_at)).

    Entries missing or older than the staleness threshold are re-fetched
    with an upstream direct poll first.  Returns the (target, alive,
    observed_at) list, or None when the per-second request cap refuses the
    call.  ``counter`` is the provider's [second, requests accepted in
    that second]; a local lookup (a provider serving itself) passes None
    and bypasses the cap.

    Nothing in a run calls this: the served poller keeps its own caches.
    It stays because the benchmark's trace level (``perfbench/probe.py``)
    wraps it by name, and fails to install without it.
    """
    if counter is not None:
        sec = int(now)
        if counter[0] != sec:
            counter[0] = sec
            counter[1] = 0
        cap = cfg.max_requests_per_s
        if cap is not None and counter[1] >= cap:
            return None
        counter[1] += 1
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

def make_poller(dc: DataCenter, cfg: ProtocolConfig, gv: GlobalView | None):
    """Build the poller of ``cfg.kind`` for one run.

    The returned callable poll(node, now) runs one update cycle of ``node``:
    it refreshes the node's cached entries and adds the traffic to the data
    centre's link counts.  It assumes the node is alive (the event
    dispatcher checks) and that calls arrive in nondecreasing time.

    For the central and hierarchical kinds ``gv`` is the layout, whose
    ``home`` and ``routes`` go to the served poller as they are; the poller
    keeps its own caches, which start empty.  Each provider or aggregator
    holds two target-indexed cache lists (believed alive, observed at),
    beside its route list in ``gv`` (the providers share one), so memory is
    O(servers * n): about 0.8 MB for the 32-aggregator tree at n=1000,
    about 24 MB for a 100-aggregator tree at n=10000.

    A simple poll, which the central and hierarchical kinds fall back to
    when their server is dead or refuses, counts itself in
    ``dc.full_polls`` and leaves its target links to the centre's flush.

    The transitive poller relays over ``dc.overlap_pairs``, which
    ``init_run`` has the centre build during its own set-up; for a centre
    made without ``overlap_pairs=True`` this raises ValueError.

    ``tests/reference_sim.py`` is the oracle of all four pollers.
    """
    kind = cfg.kind
    if kind in (CENTRAL, HIERARCHICAL):
        return _make_served_poller(dc, cfg, gv.home, gv.routes)
    if kind == SIMPLE_P2P:
        return _make_simple_poller(dc)
    if kind == TRANSITIVE_P2P:
        return _make_transitive_poller(dc, cfg.staleness_s)
    raise ValueError(f"unknown protocol kind {kind!r}")


def _make_simple_poller(dc: DataCenter):
    # Target-link accesses are deferred: the centre's flush adds 2 per
    # subscription (request + response) for each count in full_polls, and
    # one is taken off here per currently-dead target (no response from the
    # dead).
    def poll(i, now, _dc=dc, _subs=dc.subs, _alive=dc.alive, _believed=dc.believed,
             _observed=dc.observed, _dead=dc.dead_targets, _full=dc.full_polls,
             _wl=dc._win_msgs, _bad=dc.bad_count):
        if now >= _dc.next_boundary:
            _dc.advance_window(now)
        subs_i = _subs[i]
        if _bad[i]:
            # a row with no wrong entry already holds every target's truth,
            # so only a row bad_count marks wrong is rebuilt; the poll trusts
            # bad_count to be exact (see DataCenter)
            _believed[i] = [_alive[t] for t in subs_i]
            _bad[i] = 0
        k = len(subs_i)
        dead = _dead[i]
        resp = k - len(dead)
        _observed[i] = [now] * k
        _full[i] += 1
        if dead:
            for t in dead:
                _wl[t] -= 1
        traffic = k + resp
        _wl[i] += traffic

    return poll


def _make_transitive_poller(dc: DataCenter, staleness_s: float):
    pairs = dc.overlap_pairs
    if pairs is None:
        raise ValueError("a transitive poller needs a centre built with overlap_pairs=True")

    def poll(i, now, _dc=dc, _subs=dc.subs, _alive=dc.alive, _believed=dc.believed,
             _observed=dc.observed, _pairs=pairs, _wl=dc._win_msgs, _wp=dc._win_pay,
             _bad=dc.bad_count, _thr=staleness_s):
        if now >= _dc.next_boundary:
            _dc.advance_window(now)
        cut = now - _thr
        subs_i = _subs[i]
        bel_i = _believed[i]
        obs_i = _observed[i]
        prs = _pairs[i]
        traffic = 0  # the requester's messages: 2 per alive target, 1 per dead
        pay = 0
        # row i's exact running count of wrong entries: while it is 0 every
        # entry holds its target's truth and no first-hand belief is written
        bad = _bad[i]
        for s, o in enumerate(obs_i):
            if o < cut:
                t = subs_i[s]
                obs_i[s] = now
                if _alive[t]:
                    if bad and not bel_i[s]:
                        bad -= 1
                        bel_i[s] = True
                    traffic += 2
                    _wl[t] += 2
                    p = prs[s]
                    if p is not None:
                        obs_t = _observed[t]
                        bad_t = _bad[t]
                        carried = 0
                        for j, m in p:
                            ob = obs_t[j]
                            if ob >= cut:
                                carried += 1
                                if ob > obs_i[m]:
                                    # rows with no wrong entry both hold the
                                    # shared target's truth, so t's belief is
                                    # read only when a count says they can
                                    # differ (t != i: this poll leaves bad_t)
                                    if bad or bad_t:
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
                    if bad and bel_i[s]:
                        bad -= 1
                        bel_i[s] = False
                    traffic += 1
                    _wl[t] += 1
        if traffic:
            _wl[i] += traffic
            _wp[i] += pay
            _bad[i] = bad

    return poll


def _make_served_poller(dc: DataCenter, cfg: ProtocolConfig, home: list[int],
                        routes: dict[int, list[int]]):
    """The poller shared by the central and hierarchical kinds.

    ``home`` and ``routes`` are a GlobalView's layout.  Staleness is
    tested as ``now - ob > thr``, never as ``ob < now - thr``, which can
    round differently; forwarded hops are visited in ascending id order;
    the cap counts requests per ``int(now)`` second and local serving skips
    it; an observation applies unless it is older than the cached one; and
    a requester whose server is dead or refuses sends it one unanswered
    request, then runs the simple poll, which leaves its target-link counts
    to the centre's flush.
    """
    n = dc.n
    alive = dc.alive
    thr = cfg.staleness_s
    cap = cfg.max_requests_per_s
    wl = dc._win_msgs
    wp = dc._win_pay
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
        wl[s] += m
        wp[s] += pay

    def poll(i, now, _dc=dc, _subs=dc.subs, _alive=alive, _believed=dc.believed,
             _observed=dc.observed, _bad=dc.bad_count, _home=home, _wl=wl, _wp=wp,
             _simple=_make_simple_poller(dc)):
        subs_i = _subs[i]
        if not subs_i:
            return
        if now >= _dc.next_boundary:
            _dc.advance_window(now)
        s = _home[i]
        if s == i:
            serve(s, subs_i, now, serve)  # local: no cap, no network hop
        elif _alive[s] and admit(s, now):
            serve(s, subs_i, now, serve)
            k = len(subs_i)
            _wl[i] += 2
            _wl[s] += 2
            _wp[i] += k
            _wp[s] += k
        else:
            # the server is dead or refuses: one unanswered request, then the
            # simple P2P poll leaves every entry true as of now
            _wl[i] += 1
            _wl[s] += 1
            _simple(i, now)
            return
        # apply the served batch to the requester's row
        ca = cache_alive[s]
        co = cache_obs[s]
        bel_i = _believed[i]
        obs_i = _observed[i]
        bad = _bad[i]
        for j, t in enumerate(subs_i):
            ob = co[t]
            if ob >= obs_i[j]:
                v = ca[t]
                if bel_i[j] != v:
                    truth = _alive[t]
                    bad += (v != truth) - (bel_i[j] != truth)
                    bel_i[j] = v
                obs_i[j] = ob
        _bad[i] = bad

    return poll
