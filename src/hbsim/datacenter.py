"""Data-centre state: ground-truth liveness, subscription caches, load log.

A data centre is n nodes behind a single one-hop switch.  Each node holds
a ground-truth alive flag plus a cache of believed aliveness for the k
nodes it subscribes to, each belief stamped with the time the underlying
observation was made.  A node is *inconsistent* when any cached belief
disagrees with the target's ground truth; the per-second probe counts
the operating (alive) nodes in that state.  A dead node keeps its frozen
cache and usually drifts out of date, but it holds no view anybody acts
on, so it only re-enters the count if it is revived before re-polling.

The count is maintained incrementally (``bad_count`` per node plus a
global tally of alive nodes with at least one bad entry) so probing is
O(1); the test suite checks it against a full rescan after randomized
operation scripts.

Load accounting: every message touches three components once each --
the sender's link, the receiver's link, and the switch.  Counts are
aggregated per component into fixed-width time windows.  Bulk responses
additionally carry a payload_entries count, tracked separately.
"""

from __future__ import annotations

from .des import RngStream


class NotSubscribedError(ValueError):
    """An observation was applied for a target the observer never subscribed to."""


class DataCenter:
    """Mutable state of one simulated data centre.

    The switch is component index ``n`` in the load log; node components
    are their own indices.  Protocol code in this package mutates the
    believed/observed rows directly; everything else must go through
    :meth:`apply_observation` and :meth:`set_liveness` so the incremental
    inconsistency count stays true.
    """

    def __init__(self, subscriptions: list[list[int]], k: int | None = None,
                 load_window_s: float = 10.0):
        n = len(subscriptions)
        for i, targets in enumerate(subscriptions):
            if k is not None and len(targets) != k:
                raise ValueError(f"node {i} has {len(targets)} subscriptions, expected {k}")
            for t in targets:
                if t == i:
                    raise ValueError(f"node {i} subscribes to itself")
                if not 0 <= t < n:
                    raise ValueError(f"node {i} subscribes to unknown node {t}")
            if len(set(targets)) != len(targets):
                raise ValueError(f"node {i} has duplicate subscription targets")

        self.n = n
        sizes = {len(row) for row in subscriptions}
        self.k = k if k is not None else (sizes.pop() if len(sizes) == 1 else None)
        self.switch = n
        self.alive = [True] * n
        self.subs = [sorted(targets) for targets in subscriptions]
        self.sub_slot = [{t: s for s, t in enumerate(row)} for row in self.subs]
        self.believed = [[True] * len(row) for row in self.subs]
        self.observed = [[0.0] * len(row) for row in self.subs]
        # reverse index: subscribers[t] = [(observer, slot), ...]
        self.subscribers: list[list[tuple[int, int]]] = [[] for _ in range(n)]
        for i, row in enumerate(self.subs):
            for s, t in enumerate(row):
                self.subscribers[t].append((i, s))
        self.bad_count = [0] * n
        self.inconsistent = 0
        # per-node list of currently dead targets, kept for cheap response
        # accounting in the hot poll paths
        self.dead_targets: list[list[int]] = [[] for _ in range(n)]

        # windowed load log
        self.load_window_s = load_window_s
        self._win = 0
        self._win_msgs = [0] * (n + 1)
        self._win_pay = [0] * (n + 1)
        self._load_rows: list[tuple[float, int, int, int]] = []
        self.pre_flush = None  # optional callback(window_index) before rotation
        self.total_messages = 0
        self.total_payload = 0

    # -- ground truth -------------------------------------------------

    def set_liveness(self, node: int, alive: bool) -> None:
        """Flip ground truth; subscriber caches are deliberately untouched."""
        if self.alive[node] == alive:
            return
        self.alive[node] = alive
        # the node's own stale cache counts only while the node operates
        if self.bad_count[node]:
            self.inconsistent += 1 if alive else -1
        bad_count = self.bad_count
        believed = self.believed
        alive_flags = self.alive
        for observer, slot in self.subscribers[node]:
            # every subscriber entry flips consistency status
            if believed[observer][slot] == alive:
                bad = bad_count[observer] - 1
                bad_count[observer] = bad
                if bad == 0 and alive_flags[observer]:
                    self.inconsistent -= 1
            else:
                bad = bad_count[observer]
                bad_count[observer] = bad + 1
                if bad == 0 and alive_flags[observer]:
                    self.inconsistent += 1
            if alive:
                self.dead_targets[observer].remove(node)
            else:
                self.dead_targets[observer].append(node)

    # -- belief -------------------------------------------------------

    def apply_observation(self, observer: int, target: int, alive: bool,
                          observed_at: float) -> bool:
        """Apply an observation unless a newer one is already cached.

        Returns True when the entry was (re)written.  Ties on observed_at
        apply; older observations never overwrite newer ones.
        """
        slot = self.sub_slot[observer].get(target)
        if slot is None:
            raise NotSubscribedError(f"node {observer} is not subscribed to {target}")
        row_obs = self.observed[observer]
        if observed_at < row_obs[slot]:
            return False
        row_bel = self.believed[observer]
        if row_bel[slot] != alive:
            truth = self.alive[target]
            was_bad = row_bel[slot] != truth
            now_bad = alive != truth
            row_bel[slot] = alive
            if was_bad != now_bad:
                bad = self.bad_count[observer]
                if now_bad:
                    self.bad_count[observer] = bad + 1
                    if bad == 0 and self.alive[observer]:
                        self.inconsistent += 1
                else:
                    self.bad_count[observer] = bad - 1
                    if bad == 1 and self.alive[observer]:
                        self.inconsistent -= 1
        row_obs[slot] = observed_at
        return True

    def count_inconsistent_nodes(self) -> int:
        """Number of operating nodes holding at least one wrong belief (O(1))."""
        return self.inconsistent

    # -- load log -------------------------------------------------------

    def _flush_window(self) -> None:
        msgs = self._win_msgs
        pay = self._win_pay
        start = self._win * self.load_window_s
        rows = self._load_rows
        for comp in range(self.n + 1):
            m = msgs[comp]
            if m:
                rows.append((start, comp, m, pay[comp]))
                msgs[comp] = 0
                if pay[comp]:
                    pay[comp] = 0

    def advance_window(self, t: float) -> None:
        """Rotate the current window forward so it contains time t."""
        win = int(t / self.load_window_s)
        while win > self._win:
            if self.pre_flush is not None:
                self.pre_flush(self._win)
            self._flush_window()
            self._win += 1

    def message(self, sender: int, receiver: int, t: float,
                payload_entries: int = 0) -> None:
        """Count one message: sender link, receiver link, and switch.

        Component-local traffic (sender == receiver) stays off the network
        and is not counted.
        """
        if sender == receiver:
            return
        self.advance_window(t)
        msgs = self._win_msgs
        msgs[sender] += 1
        msgs[receiver] += 1
        msgs[self.switch] += 1
        if payload_entries:
            pay = self._win_pay
            pay[sender] += payload_entries
            pay[receiver] += payload_entries
            pay[self.switch] += payload_entries
        self.total_messages += 1
        self.total_payload += payload_entries

    def finish_load(self, end_time: float) -> list[tuple[float, int, int, int]]:
        """Flush any open window and return all (window_start, component,
        messages, payload_entries) rows in chronological component order."""
        self.advance_window(end_time + self.load_window_s)
        return self._load_rows


def build_datacenter(n: int, k: int, topology_stream: RngStream,
                     load_window_s: float = 10.0) -> DataCenter:
    """Wire up a fresh data centre: n alive nodes, each subscribed to k
    distinct other nodes drawn uniformly without replacement.

    Rejection sampling against the topology stream keeps the draw sequence
    (and therefore the graph) a pure function of the stream seed.
    """
    if k < 0 or k > n - 1:
        raise ValueError(f"need 0 <= k <= n-1, got k={k} n={n}")
    draw = topology_stream.distinct_indices
    subscriptions = [draw(n, k, i) for i in range(n)]
    return DataCenter(subscriptions, k=k, load_window_s=load_window_s)
