"""Deterministic discrete-event engine.

A simulation is a queue of timestamped events popped in (fire_time, seq)
order, a clock that never runs backwards, and a set of named random
streams that replay identically for a given seed.  Everything downstream
(the data-centre model, the protocols, the experiment harness) is built
on the guarantees made here:

* events with equal fire times pop in insertion order (seq is a
  monotone counter), so replays are exact;
* every distribution is derived from ``random.Random.random()`` alone,
  with the gamma and normal samplers pinned in this file, so draw
  sequences are stable across runs and platforms.  The one draw made
  outside :class:`RngStream` is the per-event update delay: the
  dispatcher in ``experiment._simulate`` computes it as
  ``lo + (hi - lo) * random()`` on the update stream's generator, which
  is :meth:`RngStream.uniform`'s arithmetic without the method call;
* per-stream seeds are derived from a root seed by hashing
  ``root:run_index:name``, so streams never interfere.
"""

from __future__ import annotations

import hashlib
import math
import random
from heapq import heappop, heappush
from itertools import repeat, starmap
from typing import Callable, NamedTuple


class SchedulingError(ValueError):
    """Raised for attempts to schedule into the past or run backwards."""


class DispatchError(RuntimeError):
    """A dispatcher callback failed; ``event`` identifies the offender."""

    def __init__(self, event: "Event"):
        super().__init__(f"dispatcher failed on event {event!r}")
        self.event = event


class EmptyTallyError(ValueError):
    """Summary requested from a tally that has seen no values."""


class Event(NamedTuple):
    """A scheduled action.  Ordering is (fire_time, seq); seq is unique."""

    fire_time: float
    seq: int
    action: tuple


_new_event = tuple.__new__


class EventQueue:
    """Time-ordered event queue with a FIFO tie-break and a monotone clock."""

    __slots__ = ("now", "_heap", "_seq")

    def __init__(self) -> None:
        self.now = 0.0
        self._heap: list[Event] = []
        self._seq = 0

    def __len__(self) -> int:
        return len(self._heap)

    def schedule(self, delay: float, action: tuple) -> int:
        """Enqueue ``action`` at ``now + delay`` and return its seq number."""
        if not delay >= 0:  # also rejects nan, which would break heap order
            raise SchedulingError(f"delay must be a number >= 0, got {delay}")
        seq = self._seq
        self._seq = seq + 1
        # tuple.__new__ skips the NamedTuple constructor's Python frame
        heappush(self._heap, _new_event(Event, (self.now + delay, seq, action)))
        return seq

    def peek(self) -> Event | None:
        return self._heap[0] if self._heap else None

    def run(self, end_time: float, dispatcher: Callable[[Event], None]) -> int:
        """Pop and dispatch every event with fire_time <= end_time (inclusive).

        The clock advances to each event's fire time before its dispatch and
        rests at ``end_time`` on return.  Later events stay queued.
        """
        if not end_time >= self.now:  # also rejects nan, which would stall the clock
            raise SchedulingError(f"end_time must be a number >= now {self.now}, got {end_time}")
        heap = self._heap
        processed = 0
        while heap and heap[0][0] <= end_time:
            event = heappop(heap)
            self.now = event[0]
            try:
                dispatcher(event)
            except Exception as exc:
                raise DispatchError(event) from exc
            processed += 1
        self.now = end_time
        return processed


def derive_stream_seed(root_seed: int, run_index: int, name: str) -> int:
    """Split a root seed into an independent 64-bit seed for one stream.

    SHA-256 of "root:run:name" keeps streams and runs decoupled no matter
    how the root seed was chosen.
    """
    digest = hashlib.sha256(f"{root_seed}:{run_index}:{name}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


class RngStream:
    """A named, seeded random stream with pinned samplers.

    The only primitive consumed is ``random.Random.random()`` (stable across
    CPython versions by documented guarantee); uniform, index, distinct-index,
    normal and gamma draws are built on it here so the exact draw sequence is
    part of this package's contract.
    """

    __slots__ = ("name", "seed", "_rng")

    def __init__(self, name: str, seed: int):
        self.name = name
        self.seed = seed
        self._rng = random.Random(seed)

    def random(self) -> float:
        """Uniform draw in [0, 1)."""
        return self._rng.random()

    def uniform(self, lo: float, hi: float) -> float:
        """Uniform draw in [lo, hi); degenerate lo == hi returns lo."""
        if lo > hi:
            raise ValueError(f"uniform bounds reversed: lo={lo} > hi={hi}")
        return lo + (hi - lo) * self._rng.random()

    def index(self, n: int) -> int:
        """Uniform integer in [0, n)."""
        if n < 1:
            raise ValueError(f"index needs n >= 1, got {n}")
        value = int(n * self._rng.random())
        return value if value < n else n - 1

    def distinct_indices(self, n: int, k: int, exclude: int) -> list[int]:
        """k distinct integers in [0, n) other than ``exclude``, ascending.

        Rejection sampling: the draw sequence is exactly that of calling
        :meth:`index` until k distinct non-excluded values have appeared,
        and the stream is left where that loop leaves it.

        The draws come in batches, each made in C.  A batch holds as many
        draws as values are still missing, ``need``, counting ``exclude``
        as present.  One draw adds at most one value, so the one-at-a-time
        loop could not stop before the batch's last draw: no batch draws
        past the point where it stops.  Each draw is ``floor(float(n) *
        random())``, which is :meth:`index`'s ``int(n * random())``: an
        int times a float multiplies ``float(n)``, and ``floor`` is
        ``int`` on a non-negative float.  :meth:`index` clamps a product
        of n to n - 1.  For n <= 2**53, ``float(n)`` is exact, the largest
        ``random()``, 1 - 2**-53, gives a product that rounds below n, and
        rounding is monotone, so no draw reaches n: the clamp is applied
        only above that size.
        """
        if not 0 <= k <= n - 1:
            raise ValueError(f"need 0 <= k <= n-1, got k={k} n={n}")
        r = self._rng.random
        chosen = {exclude}
        want = k + 1
        while need := want - len(chosen):
            batch = map(math.floor, map(float(n).__mul__, starmap(r, repeat((), need))))
            if n > 2**53:
                batch = map(min, batch, repeat(n - 1))
            chosen.update(batch)
        chosen.discard(exclude)
        return sorted(chosen)

    def _normal(self) -> float:
        # Marsaglia polar method, no spare caching (keeps draw order obvious).
        r = self._rng.random
        while True:
            u = 2.0 * r() - 1.0
            v = 2.0 * r() - 1.0
            s = u * u + v * v
            if 0.0 < s < 1.0:
                return u * math.sqrt(-2.0 * math.log(s) / s)

    def gamma(self, shape: float, scale: float) -> float:
        """Gamma draw with mean shape*scale, Marsaglia-Tsang squeeze method.

        shape < 1 uses the standard boost gamma(a) = gamma(a+1) * U^(1/a).
        The algorithm is pinned: changing it would change every seeded run.
        """
        if shape <= 0.0 or scale <= 0.0:
            raise ValueError(f"gamma needs positive parameters, got shape={shape} scale={scale}")
        if shape < 1.0:
            boost = (1.0 - self._rng.random()) ** (1.0 / shape)
            return self.gamma(shape + 1.0, scale) * boost
        d = shape - 1.0 / 3.0
        c = 1.0 / math.sqrt(9.0 * d)
        r = self._rng.random
        while True:
            x = self._normal()
            v = 1.0 + c * x
            if v <= 0.0:
                continue
            v = v * v * v
            u = r()
            x2 = x * x
            if u < 1.0 - 0.0331 * x2 * x2:
                return d * v * scale
            if u > 0.0 and math.log(u) < 0.5 * x2 + d * (1.0 - v + math.log(v)):
                return d * v * scale


def gamma_draws_vanish(shape: float) -> bool:
    """Whether :meth:`RngStream.gamma` at ``shape`` returns exactly 0.0
    except when ``random()`` returns exactly 0.0, a chance of 2**-53.

    Below shape 1 every draw is multiplied by ``(1 - random()) ** (1 /
    shape)``.  ``random()`` returns multiples of 2**-53, so the largest base
    below 1 is the largest float below 1; when even that power underflows
    to 0, so does every other one.
    """
    return shape < 1.0 and math.nextafter(1.0, 0.0) ** (1.0 / shape) == 0.0


class TallySummary(NamedTuple):
    count: int
    mean: float
    sd: float
    min: float
    max: float


class Tally:
    """Running count/mean/sd/min/max accumulator."""

    __slots__ = ("count", "total", "total_sq", "minimum", "maximum")

    def __init__(self) -> None:
        self.count = 0
        self.total = 0.0
        self.total_sq = 0.0
        self.minimum = math.inf
        self.maximum = -math.inf

    def add(self, x: float) -> None:
        self.count += 1
        self.total += x
        self.total_sq += x * x
        if x < self.minimum:
            self.minimum = x
        if x > self.maximum:
            self.maximum = x

    def summary(self) -> TallySummary:
        """Closed-form statistics of everything added so far.

        sd is the sample standard deviation, reported as 0 for count < 2.
        """
        if self.count == 0:
            raise EmptyTallyError("tally has no values")
        mean = self.total / self.count
        if self.count > 1:
            var = (self.total_sq - self.count * mean * mean) / (self.count - 1)
            sd = math.sqrt(var) if var > 0.0 else 0.0
        else:
            sd = 0.0
        return TallySummary(self.count, mean, sd, self.minimum, self.maximum)
