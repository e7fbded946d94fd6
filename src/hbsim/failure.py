"""Stochastic failure process.

Failures arrive as a renewal process with gamma-distributed gaps whose
mean is calibrated so that, on average, the configured percentage of
nodes is hit per minute.  Each event picks a node uniformly at random:
an alive pick kills it; a dead pick either revives it (toggle_repair --
the event doubles as a repair) or leaves it dead (no_repair -- broken
hardware waits for the whole container to be swapped out).

The rate calibrates failure *events*; under toggle_repair roughly half
of them become repairs once enough nodes are down.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .datacenter import DataCenter
from .des import EventQueue, RngStream

TOGGLE_REPAIR = "toggle_repair"
NO_REPAIR = "no_repair"
REPAIR_POLICIES = (TOGGLE_REPAIR, NO_REPAIR)

FAILURE_ACTION = ("failure",)

EFFECT_FAILED = "failed"
EFFECT_REPAIRED = "repaired"
EFFECT_NO_OP = "no_op"


@dataclass(frozen=True)
class FailureConfig:
    rate_pct_per_min: float = 0.0
    gamma_shape: float = 2.0
    repair_policy: str = TOGGLE_REPAIR


def mean_failure_gap(n: int, cfg: FailureConfig) -> float:
    """The mean gap between failure events for a data centre of n nodes.

    rate% of n nodes per minute means n * rate/100 events per 60 seconds,
    so the mean gap is 60 / (n * rate/100) seconds, and a gamma of scale
    gap / shape hits that mean exactly.  inf at rate 0, and when
    ``n * rate/100`` underflows to 0.
    """
    per_min = n * cfg.rate_pct_per_min / 100.0
    return 60.0 / per_min if per_min > 0 else math.inf


def schedule_next_failure(queue: EventQueue, shape: float, scale: float,
                          failure_stream: RngStream) -> int:
    """Enqueue the next failure event one gamma-distributed gap from now."""
    return queue.schedule(failure_stream.gamma(shape, scale), FAILURE_ACTION)


class ScriptedFailureStream:
    """Failure-stream stand-in that hits chosen nodes at chosen times.

    Drop-in for the RngStream consumed by the failure machinery: ``gamma``
    yields the scripted inter-failure delays, ``index`` the scripted node
    picks.  Once the script runs out, the next event lands beyond any
    horizon, so nothing more fires.
    """

    def __init__(self, delays, picks):
        self._delays = list(delays)
        self._picks = list(picks)

    def gamma(self, shape: float, scale: float) -> float:
        if self._delays:
            return self._delays.pop(0)
        return math.inf

    def index(self, n: int) -> int:
        pick = self._picks.pop(0)
        if not 0 <= pick < n:
            raise ValueError(f"scripted pick {pick} out of range [0, {n})")
        return pick


def fire_failure(dc: DataCenter, cfg: FailureConfig,
                 failure_stream: RngStream) -> tuple[str, int]:
    """Pick a node at random and apply the failure/repair effect.

    Returns (effect, node).  Subscriber caches are never touched here;
    inconsistency arises naturally from the ground-truth flip.
    """
    node = failure_stream.index(dc.n)
    if dc.alive[node]:
        dc.set_liveness(node, False)
        return EFFECT_FAILED, node
    if cfg.repair_policy == TOGGLE_REPAIR:
        dc.set_liveness(node, True)
        return EFFECT_REPAIRED, node
    return EFFECT_NO_OP, node
