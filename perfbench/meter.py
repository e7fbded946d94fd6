"""A speed meter: how fast the CPU a process runs on is at each moment.

The reference host moves each vCPU between speed regimes that last from
seconds to minutes and differ by up to about 1.7x, and the two vCPUs do so
independently.  A time taken over a stretch of seconds therefore says as
much about the host as about the program.  The meter samples the host's
speed during the measured work itself: every ``PERIOD_S`` of CPU time the
process spends, a signal handler runs one of a few fixed chunks of Python,
in turn, and records how long it took.  A chunk's time against its
reference time gives the speed at that moment, 1.0 at the reference speed.
Scaling a measured time by the mean speed of the samples taken during it
gives the time the same work would take at the reference speed.

The regimes do not slow all code alike, so the chunks differ in kind:
an interpreter-bound loop, a small event-queue simulation, random reads
over a 2 MB list and method calls.  Their mean tracked the program's
slowdown about three times as closely as any one of them did.

Each process runs its own meter, so pool workers measure the vCPU they run
on.  A chunk is timed in thread CPU time, so a chunk the scheduler
interrupts is not read as slow.
"""

from __future__ import annotations

import heapq
import os
import random
import signal
from time import perf_counter, thread_time

PERIOD_S = 0.025

_rng = random.Random(1)
_TABLE = list(range(256))
_DICT = dict.fromkeys(range(1024), 0)
_FLOATS = [_rng.random() for _ in range(1 << 16)]
_INDICES = [_rng.randrange(1 << 16) for _ in range(4096)]


class _Node:
    __slots__ = ("seen", "last")

    def __init__(self):
        self.seen = {}
        self.last = 0.0

    def bump(self, a: int) -> float:
        self.last += a
        return self.last


_NODES = [_Node() for _ in range(1000)]
_HEAP = [(_rng.random(), i) for i in range(1000)]
heapq.heapify(_HEAP)


def _loop() -> None:
    table, d = _TABLE, _DICT
    acc = 0.0
    for i in range(4000):
        k = i & 1023
        d[k] = table[i & 255] + 1
        acc += d[k] * 0.5


def _events() -> None:
    heap, nodes, rand = _HEAP, _NODES, _rng.random
    for _ in range(400):
        t, i = heapq.heappop(heap)
        n = nodes[i]
        n.seen[int(rand() * 1000)] = t
        if len(n.seen) > 32:
            n.seen.clear()
        n.last = t
        heapq.heappush(heap, (t + 0.8 + 0.4 * rand(), i))


def _reads() -> None:
    floats = _FLOATS
    acc = 0.0
    for _ in range(4):
        for j in _INDICES:
            acc += floats[j]


def _calls() -> None:
    nodes = _NODES
    for i in range(4000):
        nodes[i & 63].bump(1)
    for n in nodes[:64]:
        n.last = 0.0


# each chunk with its time on the reference host in its fast regime; the
# times are constants, so that scaled times stay comparable between commits
CHUNKS = ((_loop, 0.00065), (_events, 0.00055), (_reads, 0.00046), (_calls, 0.00042))


class Meter:
    """One process's speed samples and the time its handler took.

    A forked child inherits the object but not the interval timer, so the
    meter counts as running only in the process that started it.
    """

    def __init__(self):
        self.speeds: list[float] = []
        self.overhead_s = 0.0
        self.pid: int | None = None
        self._turn = 0

    @property
    def running(self) -> bool:
        return self.pid == os.getpid()

    def _sample(self, signum, frame) -> None:
        t0 = perf_counter()
        chunk, ref_s = CHUNKS[self._turn % len(CHUNKS)]
        self._turn += 1
        c0 = thread_time()
        chunk()
        dc = thread_time() - c0
        if dc > 0:
            self.speeds.append(ref_s / dc)
        self.overhead_s += perf_counter() - t0

    def start(self) -> None:
        self.pid = os.getpid()
        signal.signal(signal.SIGPROF, self._sample)
        signal.setitimer(signal.ITIMER_PROF, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0, 0)
        signal.signal(signal.SIGPROF, signal.SIG_DFL)
        self.pid = None

    def mark(self) -> tuple[int, float]:
        """A point to measure from: (samples so far, handler time so far)."""
        return len(self.speeds), self.overhead_s

    def since(self, mark: tuple[int, float], raw_s: float) -> tuple[float, list[float]]:
        """``raw_s``, measured from ``mark`` to now, less the handler's time
        in it, and the speeds sampled in it."""
        return raw_s - (self.overhead_s - mark[1]), self.speeds[mark[0]:]


def mean(speeds: list[float]) -> float:
    if not speeds:
        raise RuntimeError("no speed sample was taken: the measured work was too short")
    return sum(speeds) / len(speeds)
