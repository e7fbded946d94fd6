"""Data-centre state: ground-truth liveness, subscription caches, load log.

A data centre is n nodes behind a single one-hop switch.  Each node holds
a ground-truth alive flag plus a cache of believed aliveness for the k
nodes it subscribes to, each belief stamped with the time the underlying
observation was made.  A node is *inconsistent* when any cached belief
disagrees with the target's ground truth; the per-second probe counts
the operating (alive) nodes in that state.  A dead node keeps its frozen
cache and usually drifts out of date, but it holds no view anybody acts
on, so it only re-enters the count if it is revived before re-polling.

Each node's ``bad_count``, its number of wrong entries, is maintained
incrementally, so a poll costs O(k) and a failure event O(subscribers).
The count itself is derived from the bad counts where it is read
(:attr:`DataCenter.inconsistent`), by one C-level pass over the n nodes:
about 10-15 us per 1000 nodes, once per probe and once per failure
event.  The pollers trust ``bad_count`` too, since a row with no wrong
entry already holds every target's truth.  The simple poll rebuilds a
node's belief row only when the count is nonzero, and the transitive poll
reads a responder's belief for a relayed entry only when the requester's
or the responder's count is nonzero.  A wrong ``bad_count`` would
therefore leave a wrong row in place, not just misreport the probe.  The
test suite checks every ``bad_count`` against a full rescan after
randomized operation scripts that poll through all four pollers.

Load accounting: every message touches three components once each --
the sender's link, the receiver's link, and the switch.  Counts are
aggregated per component into fixed-width time windows.  Bulk responses
additionally carry a payload_entries count, tracked separately.  The
link counts are the only record of traffic.  A poll of node i's whole
row only adds 1 to ``full_polls[i]``, and the window flush adds the 2
target-link messages per subscription (request and response) of each such
poll.  Every message touches two distinct links, so the flush sets the
switch row to half the window's link counts, and ``total_messages`` and
``total_payload`` are the switch rows logged plus half the open window.

Memory is what limits the n a run can reach, so the per-subscription
state is three parallel list rows per node (target ids, beliefs,
observation times) plus one 4-byte entry in the target's reverse index,
and nothing keyed by (observer, target): a slot is found by bisecting the
sorted row.  That is about 33 B per subscription at n=10 000, k=100 and
39 B at n=2000, k=45 (tracemalloc, 64-bit CPython 3.11).

Set-up order: peak memory is what bounds n, so a set-up must peak at the
footprint the run keeps, not above it.  ``build_datacenter`` maps each
topology row through the shared ids as it is drawn, so at n=10 000, k=100
the 10**6 drawn ints (about 28 MB) are never alive together.  For a
transitive run the centre then builds the overlap pairs
(:func:`build_overlap_pairs`) from its mapped rows, before it allocates
the beliefs, observation times, reverse index and dead-target lists.  The
pair build's scratch n-bit masks (about 13 MB at n=10 000) are freed by
then, so that state reuses their memory instead of sitting beside them.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left
from collections.abc import Iterable
from itertools import compress
from operator import mul

from .des import RngStream


class NotSubscribedError(ValueError):
    """An observation was applied for a target the observer never subscribed to."""


class DataCenter:
    """Mutable state of one simulated data centre.

    State layout, with bytes per subscription on 64-bit CPython:

    * ``subs[i]``: the targets of node i, a sorted list.  Every row refers
      to one shared int object per node id, so an entry costs its 8-byte
      pointer.  Slot s of node i is the position of ``subs[i][s]``.
    * ``believed[i][s]`` and ``observed[i][s]``: the cached belief about
      target ``subs[i][s]`` and its observation time, 8 B each.  The bools
      are singletons, and a poll stamps all of its slots with one float.
    * ``subscribers[t]``: the observers of t, an ascending ``array('i')``,
      4 B each.  Only :meth:`set_liveness` reads it, once per failure
      event; it finds each observer's slot by ``bisect_left(subs[observer],
      t)``.
    * per node: ``alive``, ``bad_count`` (the number of the node's entries
      that disagree with their target's ground truth, dead nodes
      included) and ``dead_targets``, the latter holding a node's
      currently dead targets for the pollers' response accounting.

    The switch is component index ``n`` in the load log; node components
    are their own indices.  Traffic goes only to the window's link counts,
    ``_win_msgs`` and ``_win_pay``, and a whole-row poll of node i adds 1
    to ``full_polls[i]`` instead of its target links; the switch row and
    the run totals are derived from them.  ``next_window`` is the index of
    the first window that has not opened yet.  The run loop tests ``now /
    load_window_s >= next_window`` before a poll and, once it holds, hands
    :meth:`advance_window` the index ``int(now / load_window_s)``: the same
    division that numbers a message's window.  The pollers only count
    traffic, into the window that is open.

    Protocol code in this package mutates the believed/observed rows
    directly; everything else must go through :meth:`apply_observation`
    and :meth:`set_liveness` so every ``bad_count`` stays true.  Three
    readers depend on it: :attr:`inconsistent` is derived from it; the
    simple poll (also the served kinds' fallback) rebuilds node i's belief
    row only while ``bad_count[i]`` is nonzero; and the transitive poll of
    node i reads responder t's belief for a relayed entry only while
    ``bad_count[i]`` or ``bad_count[t]`` is nonzero.

    ``subscriptions`` is a list of rows, one per node, so n is its length.
    The rows come from outside, so the constructor checks them: they may
    come in any order and are stored sorted, and a row with a target
    outside ``[0, n)``, a duplicate or the node itself raises
    ``ValueError`` naming the node.  :func:`build_datacenter` skips these
    checks, since its sampler's rows pass them by construction.

    ``overlap_pairs`` is the centre's :func:`build_overlap_pairs` result
    when it was made with ``overlap_pairs=True``, else None; only the
    transitive poller reads it.
    """

    def __init__(self, subscriptions: list[Iterable[int]], load_window_s: float = 10.0, *,
                 overlap_pairs: bool = False):
        n = len(subscriptions)
        # every row maps through one list of node ids, so all rows share one
        # int object per node instead of holding their own copies
        ids = list(range(n))
        subs = []
        for i, targets in enumerate(subscriptions):
            row = sorted(targets)
            if row:
                if row[0] < 0:
                    raise ValueError(f"node {i} subscribes to unknown node {row[0]}")
                if row[-1] >= n:
                    raise ValueError(f"node {i} subscribes to unknown node {row[-1]}")
                if len(set(row)) != len(row):
                    raise ValueError(f"node {i} has duplicate subscription targets")
                if i in row:
                    raise ValueError(f"node {i} subscribes to itself")
            subs.append(list(map(ids.__getitem__, row)))
        self._set_up(subs, load_window_s, overlap_pairs)

    def _set_up(self, subs: list[list[int]], load_window_s: float, overlap_pairs: bool) -> None:
        """The state of a fresh centre over ``subs``: one row per node,
        each sorted, distinct, in range, without its node and mapped
        through one shared list of node ids."""
        n = len(subs)
        self.n = n
        self.alive = [True] * n
        self.subs = subs
        # before any per-subscription state: see the module docstring
        self.overlap_pairs = build_overlap_pairs(subs) if overlap_pairs else None
        self.believed = [[True] * len(row) for row in subs]
        self.observed = [[0.0] * len(row) for row in subs]
        # reverse index; each array comes out ascending because i ascends
        self.subscribers = subscribers = [array("i") for _ in range(n)]
        for i, row in enumerate(subs):
            for t in row:
                subscribers[t].append(i)
        self.bad_count = [0] * n
        # per-node list of currently dead targets, kept for cheap response
        # accounting in the hot poll paths
        self.dead_targets: list[list[int]] = [[] for _ in range(n)]

        # windowed load log
        self.load_window_s = load_window_s
        self.next_window = 1
        self._win_msgs = [0] * (n + 1)  # the switch's slot is filled at flush
        self._win_pay = [0] * (n + 1)
        self._load_rows: list[tuple[float, int, int, int]] = []
        # full_polls[i]: node i's whole-row polls in the window, whose 2
        # messages per target link the flush adds
        self.full_polls = [0] * n

    # -- ground truth -------------------------------------------------

    def set_liveness(self, node: int, alive: bool) -> None:
        """Flip ground truth; subscriber caches are deliberately untouched."""
        if self.alive[node] == alive:
            return
        self.alive[node] = alive
        bad_count = self.bad_count
        believed = self.believed
        subs = self.subs
        for observer in self.subscribers[node]:
            # every subscriber entry flips consistency status
            if believed[observer][bisect_left(subs[observer], node)] == alive:
                bad_count[observer] -= 1
            else:
                bad_count[observer] += 1
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
        row = self.subs[observer]
        slot = bisect_left(row, target)
        if slot == len(row) or row[slot] != target:
            raise NotSubscribedError(f"node {observer} is not subscribed to {target}")
        row_obs = self.observed[observer]
        if observed_at < row_obs[slot]:
            return False
        row_bel = self.believed[observer]
        if row_bel[slot] != alive:
            # a flipped belief turns wrong if it now disagrees with the
            # truth, and right otherwise
            self.bad_count[observer] += 1 if alive != self.alive[target] else -1
            row_bel[slot] = alive
        row_obs[slot] = observed_at
        return True

    @property
    def inconsistent(self) -> int:
        """The number of alive nodes with at least one wrong cached belief.

        Derived on every read from ``bad_count`` by one C-level pass over
        the n nodes, which sums the alive flags of those with a nonzero
        count: 10-15 us at n=1000 and 100-140 us at n=10 000 (CPython 3.11
        on a 2-vCPU Xeon VM).  A run reads it once per probe and once per
        failure event.  Read-only: assigning to it raises AttributeError.
        """
        return sum(compress(self.alive, self.bad_count))

    @property
    def total_messages(self) -> int:
        """The run's messages so far: the switch rows logged, half the open
        window's link counts, and the 2 target-link messages per
        subscription that its full-row polls still owe.  Read-only."""
        return (self._switch_logged(2) + sum(self._win_msgs) // 2
                + sum(map(mul, self.full_polls, map(len, self.subs))))

    @property
    def total_payload(self) -> int:
        """The run's payload entries so far, derived alike.  Read-only."""
        return self._switch_logged(3) + sum(self._win_pay) // 2

    def _switch_logged(self, column: int) -> int:
        return sum(row[column] for row in self._load_rows if row[1] == self.n)

    # -- load log -------------------------------------------------------

    def advance_window(self, win: int) -> None:
        """Flush the open window and open window ``win``, an index such as
        ``int(t / load_window_s)``, unless ``win`` has opened already.

        The run loop computes the index only once ``t / load_window_s >=
        next_window``.  For t >= 0 that holds exactly when ``int(t /
        load_window_s) >= next_window``, since ``int`` floors a non-negative
        float and a float compares exactly with an int, so every index the
        loop passes rotates the log.  ``message`` passes its message's index
        unguarded, and ``finish_load`` passes ``next_window``.  Only the open
        window can hold traffic, so it alone is flushed, its rows labelled
        with its start; the windows skipped over would flush no row.
        """
        if win < self.next_window:
            return
        n = self.n
        msgs = self._win_msgs
        pay = self._win_pay
        full = self.full_polls
        subs = self.subs
        # the deferred target links of the nodes that polled, found in C
        for i in compress(range(n), full):
            cc = 2 * full[i]
            for u in subs[i]:
                msgs[u] += cc
            full[i] = 0
        msgs[n] = sum(msgs) // 2  # two links per message; msgs[n] was 0
        pay[n] = sum(pay) // 2
        start = (self.next_window - 1) * self.load_window_s
        rows = self._load_rows
        # compress() skips the quiet components in C
        for comp in compress(range(n + 1), msgs):
            rows.append((start, comp, msgs[comp], pay[comp]))
            msgs[comp] = 0
            if pay[comp]:
                pay[comp] = 0
        self.next_window = win + 1

    def message(self, sender: int, receiver: int, t: float,
                payload_entries: int = 0) -> None:
        """Count one message: sender link, receiver link, and, at the
        window flush, the switch.

        Component-local traffic (sender == receiver) stays off the network
        and is not counted.
        """
        if sender == receiver:
            return
        self.advance_window(int(t / self.load_window_s))
        msgs = self._win_msgs
        msgs[sender] += 1
        msgs[receiver] += 1
        if payload_entries:
            pay = self._win_pay
            pay[sender] += payload_entries
            pay[receiver] += payload_entries

    def finish_load(self) -> list[tuple[float, int, int, int]]:
        """Flush the open window and return all (window_start, component,
        messages, payload_entries) rows in chronological component order.

        The open window is ``next_window - 1``, so opening ``next_window``
        always flushes it, whatever the run's end time."""
        self.advance_window(self.next_window)
        return self._load_rows


def build_overlap_pairs(subs: list[list[int]]) -> list[list[tuple[tuple[int, int], ...] | None]]:
    """pairs[i][s]: for target b = subs[i][s] of the sorted rows ``subs``,
    the (slot_in_b, slot_in_i) index pairs of subscriptions shared by i and
    b, in ascending slot_in_i order, or None when they share none.  Static
    per topology; this is what makes piggyback relay O(overlap) instead of
    O(k).

    Cost: each node's subscriptions become an n-bit int mask, so the
    shared targets of an edge i->b are one C-level AND over the masks'
    n/30 30-bit digits, and only the set bits of the result are walked in
    Python.  For n nodes with k subscriptions each that is n*k ANDs plus
    work linear in the output (about k**3 pairs in all on a uniform random
    topology), instead of n*k*k interpreted dict probes.  A mask is made
    from one n/8-byte bytearray with the row's bits set, converted once, so
    building it allocates no n-bit int per target.  The walk peels the
    highest shared target off the AND result; if nothing is left, the edge
    shares just that one target, which spots the commonest kind of edge
    without a popcount over the whole result.

    No slot dicts: a shared target u's slot in i comes from one scratch
    list, filled once per requester, and its slot in b from a bisect of
    b's sorted row.  Every pair tuple is shared from one k x k table, and
    so is every 1-pair tuple, the commonest kind (about k*k/n shared
    targets per edge), so the result allocates only the tuples of edges
    sharing two targets or more.
    """
    nbytes = (len(subs) + 7) // 8
    masks = []
    for row in subs:
        bits = bytearray(nbytes)
        for t in row:
            bits[t >> 3] |= 1 << (t & 7)
        masks.append(int.from_bytes(bits, "little"))
    k = max(map(len, subs), default=0)
    slot_pairs = [[(j, m) for m in range(k)] for j in range(k)]
    single_pairs = [[(pair,) for pair in pairs_j] for pairs_j in slot_pairs]
    slot_i = [0] * len(subs)  # slot_i[u]: u's slot in the current requester's row
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
            u = c.bit_length() - 1
            c ^= 1 << u
            if not c:
                row.append(single_pairs[bisect_left(subs_b, u)][slot_i[u]])
                continue
            pl = [slot_pairs[bisect_left(subs_b, u)][slot_i[u]]]
            while c:
                u = c.bit_length() - 1
                c ^= 1 << u
                pl.append(slot_pairs[bisect_left(subs_b, u)][slot_i[u]])
            pl.reverse()  # the walk ran from the highest node id down
            row.append(tuple(pl))
        pairs.append(row)
    return pairs


def build_datacenter(n: int, k: int, topology_stream: RngStream,
                     load_window_s: float = 10.0, *,
                     overlap_pairs: bool = False) -> DataCenter:
    """Wire up a fresh data centre: n alive nodes, each subscribed to k
    distinct other nodes drawn uniformly without replacement.

    Rejection sampling against the topology stream keeps the draw sequence
    (and therefore the graph) a pure function of the stream seed.  Each row
    is mapped through the shared node ids as it is drawn, so the draws never
    pile up.  :meth:`RngStream.distinct_indices` returns k sorted, distinct
    ids in ``[0, n)`` without the node, so the rows skip the constructor's
    row checks, which only rows from outside need.  ``overlap_pairs`` has
    the centre build its overlap pairs as well, which a transitive run
    needs.
    """
    if k < 0 or k > n - 1:
        raise ValueError(f"need 0 <= k <= n-1, got k={k} n={n}")
    draw = topology_stream.distinct_indices
    ids = list(range(n))
    dc = DataCenter.__new__(DataCenter)
    dc._set_up([list(map(ids.__getitem__, draw(n, k, i))) for i in range(n)],
               load_window_s, overlap_pairs)
    return dc
