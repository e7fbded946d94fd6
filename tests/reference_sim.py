"""Brute-force reference simulator used as an exactness oracle.

Re-implements the run semantics of all four protocols with the most naive
structures available: a linear-scan event list, dict caches per node and
per provider or aggregator, a recursive serve, one record per counted
message, and a full rescan of every subscription entry at each probe and
failure.  It shares only the seeded random streams (the draw sequences are
part of the package contract) with the engine, and restates the failure
calibration itself.  The provider and aggregator-tree layout is its own,
restated by ``tree_layout`` from the rules in ``build_global_view``'s
docstring, and all state handling is independent, so an exact match of
probe series, failure logs, traffic totals and load rows across many
seeds is strong evidence that the layout, the pollers, the incremental
bookkeeping and the batched load accounting are faithful.

``ReferenceState`` is one data centre under one protocol, built from a
given subscription list and driven one poll or liveness flip at a time;
``ReferenceRun`` drives it with its own event list, as a whole run.
"""

from __future__ import annotations

import math

from hbsim.des import RngStream, derive_stream_seed
from hbsim.experiment import ExperimentConfig
from hbsim.protocols import CENTRAL, HIERARCHICAL, ProtocolConfig


def tree_layout(n: int, levels: int):
    """The aggregator tree of n nodes at ``levels`` levels, as
    (leaf_agg, ranges, parent, children), by arithmetic on the fan-out
    f = max(2, ceil(n ** (1 / levels))):

    * node i's leaf aggregator is ``(i // f) * f``, the lowest id of its
      group of f consecutive ids;
    * an aggregator a sits at every level l from 1 up to the highest with
      ``a % f**l == 0``, stopping at the first level whose span ``f**l``
      reaches n, which only the root 0 does; with L that top level, a
      covers ids ``[a, min(a + f**L, n))``;
    * below the root, a's parent is ``(a // f**(L+1)) * f**(L+1)``, and an
      aggregator's children are the aggregators whose parent it is.
    """
    f = max(2, math.ceil(n ** (1 / levels)))
    leaf_agg = [(i // f) * f for i in range(n)]
    ranges: dict[int, tuple[int, int]] = {}
    parent: dict[int, int | None] = {}
    for a in range(0, n, f):
        span = f
        while span < n and a % (span * f) == 0:
            span *= f
        ranges[a] = (a, min(a + span, n))
        parent[a] = None if span >= n else (a // (span * f)) * (span * f)
    children: dict[int, list[int]] = {a: [] for a in ranges}
    for a, up in parent.items():
        if up is not None:
            children[up].append(a)
    return leaf_agg, ranges, parent, children


class ReferenceState:
    def __init__(self, subs: list[list[int]], protocol: ProtocolConfig,
                 load_window_s: float = 10.0):
        self.n = len(subs)
        self.protocol = protocol
        self.load_window_s = load_window_s
        self.subs = {i: sorted(row) for i, row in enumerate(subs)}
        self.alive = {i: True for i in range(self.n)}
        # cache[i][target] = [believed_alive, observed_at]
        self.cache = {i: {t: [True, 0.0] for t in self.subs[i]} for i in range(self.n)}
        # node i asks server home[i]: providers are ids 0..p-1, taken in
        # turn; a tree node asks its leaf aggregator
        servers = ()
        if protocol.kind == CENTRAL:
            servers = range(protocol.provider_count)
            self.home = [i % protocol.provider_count for i in range(self.n)]
        elif protocol.kind == HIERARCHICAL:
            self.home, self.ranges, self.parent, self.children = tree_layout(
                self.n, protocol.hierarchy_levels)
            servers = self.ranges
        # a provider's or aggregator's cache: target -> (alive, observed_at),
        # and its [second, requests accepted in that second]
        self.server_cache = {s: {} for s in servers}
        self.requests = {s: [None, 0] for s in servers}
        # (t, sender, receiver, payload_entries) for every counted message
        self.records: list[tuple[float, int, int, int]] = []

    # -- observable state, recomputed from scratch every time --------------

    @property
    def messages(self) -> int:
        return len(self.records)

    @property
    def payload(self) -> int:
        return sum(record[3] for record in self.records)

    def wrong_entries(self, i: int) -> int:
        return sum(entry[0] != self.alive[t] for t, entry in self.cache[i].items())

    def scan_inconsistent(self) -> int:
        # only operating nodes are probed: a dead node holds no view
        return sum(1 for i in range(self.n) if self.alive[i] and self.wrong_entries(i))

    def load_rows(self) -> list[tuple[float, int, int, int]]:
        """(window_start, component, messages, payload_entries) per window
        and component that saw traffic; every message touches its sender,
        its receiver and the switch (component n)."""
        cells: dict[tuple[int, int], list[int]] = {}
        for t, sender, receiver, payload in self.records:
            window = int(t / self.load_window_s)
            for component in (sender, receiver, self.n):
                cell = cells.setdefault((window, component), [0, 0])
                cell[0] += 1
                cell[1] += payload
        return [(window * self.load_window_s, component, m, p)
                for (window, component), (m, p) in sorted(cells.items())]

    # -- state changes -------------------------------------------------------

    def send(self, sender: int, receiver: int, now: float, payload: int = 0) -> None:
        self.records.append((now, sender, receiver, payload))

    def apply(self, observer: int, target: int, alive: bool, observed_at: float) -> None:
        # first-hand and served information applies unless it is older
        entry = self.cache[observer][target]
        if observed_at >= entry[1]:
            entry[0] = alive
            entry[1] = observed_at

    def relay(self, observer: int, target: int, alive: bool, observed_at: float) -> None:
        # a transitive relay applies only when strictly newer: on a tie the
        # entry already held, which may be first-hand, wins
        entry = self.cache[observer][target]
        if observed_at > entry[1]:
            entry[0] = alive
            entry[1] = observed_at

    # -- protocols -------------------------------------------------------------

    def poll(self, i: int, now: float) -> None:
        """One update cycle of node i; a dead node does not poll."""
        if not self.alive[i]:
            return
        kind = self.protocol.kind
        if kind == "simple_p2p":
            self.poll_simple(i, now)
        elif kind == "transitive_p2p":
            self.poll_transitive(i, now)
        else:
            self.poll_served(i, self.home[i], now)

    def direct(self, requester: int, target: int, now: float) -> bool:
        self.send(requester, target, now)                 # request
        if self.alive[target]:
            self.send(target, requester, now)             # response
        return self.alive[target]

    def poll_simple(self, i: int, now: float) -> None:
        for target in self.subs[i]:
            self.apply(i, target, self.direct(i, target, now), now)

    def poll_transitive(self, i: int, now: float) -> None:
        cut = now - self.protocol.staleness_s
        mine = self.cache[i]
        for target in self.subs[i]:
            if mine[target][1] >= cut:
                continue                            # fresh enough, skip
            self.send(i, target, now)               # request
            if not self.alive[target]:
                self.apply(i, target, False, now)
                continue
            carried = [(u, entry[0], entry[1]) for u, entry in self.cache[target].items()
                       if entry[1] >= cut and u in mine]
            self.send(target, i, now, len(carried))  # response with piggyback
            self.apply(i, target, True, now)
            for u, alive, observed_at in carried:
                self.relay(i, u, alive, observed_at)

    def poll_served(self, i: int, server: int, now: float) -> None:
        targets = self.subs[i]
        if not targets:
            return
        if server != i:                             # a server serves itself locally
            self.send(i, server, now)
            if not (self.alive[server] and self.admit(server, now)):
                for target in targets:              # dead or refusing: poll directly
                    self.apply(i, target, self.direct(i, target, now), now)
                return
        served = self.serve(server, targets, now)
        if server != i:
            self.send(server, i, now, len(targets))
        for target in targets:
            self.apply(i, target, *served[target])

    def admit(self, server: int, now: float) -> bool:
        """Count one request against the server's per-whole-second cap."""
        counter = self.requests[server]
        if counter[0] != int(now):
            counter[0] = int(now)
            counter[1] = 0
        cap = self.protocol.max_requests_per_s
        if cap is not None and counter[1] >= cap:
            return False
        counter[1] += 1
        return True

    def next_hop(self, server: int, target: int) -> int | None:
        """Where a server sends a stale target: None to poll it itself."""
        if self.protocol.kind == CENTRAL or self.home[target] == server:
            return None
        lo, hi = self.ranges[server]
        if not lo <= target < hi:
            return self.parent[server]
        return next(child for child in self.children[server]
                    if self.ranges[child][0] <= target < self.ranges[child][1])

    def serve(self, server: int, targets: list[int], now: float) -> dict:
        """Answer targets from the server's cache, refreshing stale entries
        first: polled directly, or forwarded in one batch per next hop, in
        ascending hop order, with the replies cached here.  A dead or
        refusing hop makes the server poll its batch itself."""
        cache = self.server_cache[server]
        threshold = self.protocol.staleness_s
        forward: dict[int, list[int]] = {}
        for target in targets:
            if target == server:
                cache[target] = (True, now)         # a server knows its own state
            elif target not in cache or now - cache[target][1] > threshold:
                hop = self.next_hop(server, target)
                if hop is None:
                    cache[target] = (self.direct(server, target, now), now)
                else:
                    forward.setdefault(hop, []).append(target)
        for hop in sorted(forward):
            batch = forward[hop]
            self.send(server, hop, now)
            if self.alive[hop] and self.admit(hop, now):
                replies = self.serve(hop, batch, now)
                self.send(hop, server, now, len(batch))
                for target in batch:
                    cache[target] = replies[target]
            else:
                for target in batch:
                    cache[target] = (self.direct(server, target, now), now)
        return {target: cache[target] for target in targets}


class ReferenceRun(ReferenceState):
    def __init__(self, cfg: ExperimentConfig, run_index: int):
        self.cfg = cfg
        n = cfg.nodes
        topology = RngStream("topology", derive_stream_seed(cfg.seed, run_index, "topology"))
        self.update = RngStream("update", derive_stream_seed(cfg.seed, run_index, "update"))
        self.failure = RngStream("failure", derive_stream_seed(cfg.seed, run_index, "failure"))

        subs = []
        for i in range(n):
            chosen: set[int] = set()
            while len(chosen) < cfg.k:
                c = topology.index(n)
                if c != i and c not in chosen:
                    chosen.add(c)
            subs.append(sorted(chosen))
        super().__init__(subs, cfg.protocol, cfg.load_window_s)

        self.events: list[tuple[float, int, tuple]] = []
        self.seq = 0
        self.now = 0.0
        self.probes: list[tuple[float, int]] = []
        self.failure_log: list[tuple[float, int, str, int]] = []

    # -- naive event list ------------------------------------------------

    def schedule(self, delay: float, action: tuple) -> None:
        self.events.append((self.now + delay, self.seq, action))
        self.seq += 1

    def pop_next(self):
        best = 0
        for i in range(1, len(self.events)):
            if self.events[i][:2] < self.events[best][:2]:
                best = i
        return self.events.pop(best)

    # -- run loop -----------------------------------------------------------

    def run(self) -> None:
        cfg = self.cfg
        rate = cfg.failure.rate_pct_per_min
        shape = cfg.failure.gamma_shape
        if rate > 0:
            # rate% of n nodes per minute: a mean gap of 60 / (n * rate/100)
            # seconds, which a gamma of scale mean / shape hits exactly
            scale = 60 / (self.n * rate / 100) / shape

        self.schedule(cfg.probe_start_s, ("probe",))
        for i in range(self.n):
            self.schedule(self.update.uniform(cfg.update_min_s, cfg.update_max_s), ("update", i))
        if rate > 0:
            self.schedule(self.failure.gamma(shape, scale), ("failure",))

        while self.events:
            t, _, action = min(self.events, key=lambda e: (e[0], e[1]))
            if t > cfg.duration_s:
                break
            self.pop_next()
            self.now = t
            kind = action[0]
            if kind == "update":
                self.poll(action[1], t)
                self.schedule(self.update.uniform(cfg.update_min_s, cfg.update_max_s), action)
            elif kind == "probe":
                self.probes.append((t, self.scan_inconsistent()))
                if t + cfg.probe_interval_s <= cfg.duration_s:
                    self.schedule(cfg.probe_interval_s, ("probe",))
            else:
                node = self.failure.index(self.n)
                if self.alive[node]:
                    self.alive[node] = False
                    effect = "failed"
                elif cfg.failure.repair_policy == "toggle_repair":
                    self.alive[node] = True
                    effect = "repaired"
                else:
                    effect = "no_op"
                self.failure_log.append((t, node, effect, self.scan_inconsistent()))
                self.schedule(self.failure.gamma(shape, scale), ("failure",))


def reference_run(cfg: ExperimentConfig, run_index: int) -> ReferenceRun:
    ref = ReferenceRun(cfg, run_index)
    ref.run()
    return ref
