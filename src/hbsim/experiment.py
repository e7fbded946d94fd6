"""Experiment harness: configs, run orchestration, sweeps, statistics.

A config is checked once, when it is made, and is frozen, so everything
downstream takes it as given.  ``_CONFIG_KEYS`` declares each key's type
and own rule once; ``ExperimentConfig``'s constructor checks them in one
loop, then the rules that involve two keys.  ``parse_config`` checks only
the file's syntax.

One *run* wires up a data centre, schedules the initial events (the
monitoring probe first, then one update event per node, then the first
failure), and lets the event queue drive everything until the configured
duration expires.  A run is a pure function of (config, seed, run_index):
per-run, per-stream seeds are split off the root seed, so re-executing a
run reproduces it bit for bit and sweeps parallelize freely.

Cross-run statistics use the per-run time-average of the probed
inconsistency counts as the sample unit, with Student-t 95% confidence
half-widths from a quantile table pinned below.
"""

from __future__ import annotations

import gc
import math
import os
import sys
from dataclasses import dataclass, field, replace

from .datacenter import build_datacenter
from .des import EventQueue, RngStream, Tally, derive_stream_seed, gamma_draws_vanish
from .failure import (
    FailureConfig,
    REPAIR_POLICIES,
    fire_failure,
    mean_failure_gap,
    schedule_next_failure,
)
from .protocols import (
    CENTRAL,
    HIERARCHICAL,
    PROTOCOL_KINDS,
    TRANSITIVE_P2P,
    ProtocolConfig,
    build_global_view,
    make_poller,
)

PROBE_ACTION = ("probe",)

TOPOLOGY_STREAM = "topology"
UPDATE_STREAM = "update"
FAILURE_STREAM = "failure"


def fingerprint(nodes: int, rate_pct_per_min: float, kind: str) -> str:
    """The name of one sweep cell, such as ``n1000-r1-simple_p2p``; output
    directories and probe series are keyed by it."""
    return f"n{nodes}-r{rate_pct_per_min:g}-{kind}"


# the upper bound of every ranged number: unlike inf, it also rejects an int
# too large to become a float, which would raise OverflowError in a run
_LARGEST_FLOAT = sys.float_info.max

# config key -> (section, attribute, type, rule).  The type is also the file
# parser.  The rule is a str key's choices, or a number's lowest value and
# whether that value itself is allowed (every ranged number is at most
# _LARGEST_FLOAT), or None where the key's only rules involve another key.
_CONFIG_KEYS = {
    "nodes": ("root", "nodes", int, (1, True)),
    "subscriptions": ("root", "subscriptions", int, None),
    "duration_s": ("root", "duration_s", float, None),
    "runs": ("root", "runs", int, (1, True)),
    # des.derive_stream_seed prints the seed, which an int of over 4,300
    # digits cannot be
    "seed": ("root", "seed", int, (-_LARGEST_FLOAT, True)),
    "probe_start_s": ("root", "probe_start_s", float, (0, True)),
    "probe_interval_s": ("root", "probe_interval_s", float, (0, False)),
    "update_min_s": ("root", "update_min_s", float, (0, True)),
    # zero-delay updates would repeat at t=0 forever
    "update_max_s": ("root", "update_max_s", float, (0, False)),
    "load_window_s": ("root", "load_window_s", float, (0, False)),
    "protocol": ("protocol", "kind", str, PROTOCOL_KINDS),
    "staleness_s": ("protocol", "staleness_s", float, (0, False)),
    "provider_count": ("protocol", "provider_count", int, None),
    "hierarchy_levels": ("protocol", "hierarchy_levels", int, None),
    "max_requests_per_s": ("protocol", "max_requests_per_s", int, (1, True)),
    "failure_rate_pct_per_min": ("failure", "rate_pct_per_min", float, (0, True)),
    "gamma_shape": ("failure", "gamma_shape", float, (0, False)),
    "repair_policy": ("failure", "repair_policy", str, REPAIR_POLICIES),
}
_TAKES_NONE = ("subscriptions", "max_requests_per_s")  # the keys that also take None


class ConfigError(ValueError):
    """Invalid experiment configuration.  ``keys`` are the config keys its
    message names, in order, ``key`` is the first of them, the one at fault,
    and ``line`` is the file line of the first of them that the file sets."""

    def __init__(self, message: str, line: int | None = None, keys: tuple[str, ...] = ()):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line
        self.keys = keys
        self.key = keys[0] if keys else None


def _rejected(rule: str, **values) -> ConfigError:
    """A ``ConfigError`` about the key of the first of ``values``: the rule
    it breaks, then every value the rule reads.  Its keys are that key and
    the config keys among the other values.  An int beyond the float
    range, which can have too many digits for ``str``, shows as its size."""
    shown = ", ".join(f"{name}=an int of {value.bit_length()} bits"
                      if isinstance(value, int) and abs(value) > _LARGEST_FLOAT
                      else f"{name}={value!r}" for name, value in values.items())
    key, *others = values
    return ConfigError(f"{key} {rule}: {shown}",
                       keys=(key, *(name for name in others if name in _CONFIG_KEYS)))


@dataclass(frozen=True)
class ExperimentConfig:
    """A valid, unchangeable experiment: the constructor, which
    ``dataclasses.replace`` also calls, raises ``ConfigError`` naming the
    key of any value, its protocol's or failure's too, of the wrong type,
    that breaks its key's rule, or that would crash a run or stop its
    clock.  Runs read the subscription count ``k``."""

    nodes: int
    subscriptions: int | None = None     # None -> k = round(sqrt(nodes))
    protocol: ProtocolConfig = field(default_factory=ProtocolConfig)
    failure: FailureConfig = field(default_factory=FailureConfig)
    duration_s: float = 3600.0
    runs: int = 10
    seed: int = 1
    probe_start_s: float = 2.0
    probe_interval_s: float = 1.0
    update_min_s: float = 0.8
    update_max_s: float = 1.2
    load_window_s: float = 10.0

    def __post_init__(self) -> None:
        protocol, failure = self.protocol, self.failure
        for name, record in (("protocol", ProtocolConfig), ("failure", FailureConfig)):
            if not isinstance(getattr(self, name), record):
                raise _rejected(f"must be a {record.__name__}", **{name: getattr(self, name)})
        records = {"root": self, "protocol": protocol, "failure": failure}
        for key, (section, attr, kind, rule) in _CONFIG_KEYS.items():
            value = getattr(records[section], attr)
            if value is None and key in _TAKES_NONE:
                continue
            if kind is str:
                if value not in rule:
                    raise _rejected(f"must be one of {', '.join(rule)}", **{key: value})
            # an int key takes an int, and a float key an int or a float
            elif isinstance(value, bool) or not isinstance(value, (int, kind)):
                wanted = "a number" if kind is float else "an int" + " or None" * (key in _TAKES_NONE)
                raise _rejected(f"must be {wanted}", **{key: value})
            elif rule is not None:
                low, low_allowed = rule
                # nan compares false, so it breaks every range
                if not (low <= value <= _LARGEST_FLOAT and (low_allowed or value != low)):
                    interval = f"{'[' if low_allowed else '('}{low}, {_LARGEST_FLOAT}]"
                    raise _rejected(f"must be in {interval}", **{key: value})

        # the rules that involve two keys
        nodes = self.nodes
        if not 0 <= self.k <= nodes - 1:
            raise _rejected("must be in [0, nodes-1]", subscriptions=self.k, nodes=nodes)
        if protocol.kind == CENTRAL and not 1 <= protocol.provider_count <= nodes:
            raise _rejected("must be in [1, nodes] for the central kind",
                            provider_count=protocol.provider_count, nodes=nodes)
        # build_global_view takes 1 / hierarchy_levels as a float
        if protocol.kind == HIERARCHICAL and not 2 <= protocol.hierarchy_levels <= _LARGEST_FLOAT:
            raise _rejected(f"must be in [2, {_LARGEST_FLOAT}] for the hierarchical kind",
                            hierarchy_levels=protocol.hierarchy_levels)
        if not self.update_min_s <= self.update_max_s:
            raise _rejected("must not exceed update_max_s", update_min_s=self.update_min_s,
                            update_max_s=self.update_max_s)
        duration = self.duration_s
        if not self.probe_start_s < duration <= _LARGEST_FLOAT:
            raise _rejected(f"must exceed probe_start_s and be at most {_LARGEST_FLOAT}",
                            duration_s=duration, probe_start_s=self.probe_start_s)
        # an interval that cannot advance the clock at duration_s cannot
        # advance it at any earlier time either: the run would never end
        for name in ("probe_interval_s", "update_max_s"):
            if duration + getattr(self, name) == duration:
                raise _rejected("is too small to advance the clock at duration_s",
                                **{name: getattr(self, name)}, duration_s=duration)
        # the run loop and the message path number a window by t / window
        # for t up to duration_s; that index must be a finite number
        window = self.load_window_s
        if not duration / window < math.inf:
            raise _rejected("is too small: the window index at duration_s is not finite",
                            load_window_s=window, duration_s=duration)
        rate, shape = failure.rate_pct_per_min, failure.gamma_shape
        if rate == 0:
            # -0.0 would name a cell r-0; the caller's FailureConfig is left alone
            object.__setattr__(self, "failure", replace(failure, rate_pct_per_min=abs(rate)))
            return
        # like the probe and update intervals, the mean failure gap must
        # advance the clock at duration_s, and the gamma sampler must not
        # draw only zeros
        try:
            gap = mean_failure_gap(nodes, failure)
        except OverflowError:  # an int rate whose product with nodes is no float
            gap = 0.0  # a run would fail on it too; the true gap is below 1e-306 s
        if not gap < math.inf:
            raise _rejected("is too small: the mean failure gap is not a finite number of "
                            "seconds", failure_rate_pct_per_min=rate, nodes=nodes)
        if duration + gap == duration:
            raise _rejected("is too large: the mean failure gap cannot advance the clock at "
                            "duration_s", failure_rate_pct_per_min=rate, nodes=nodes,
                            mean_gap_s=gap, duration_s=duration)
        if not gap / shape < math.inf:
            raise _rejected("is too small: the gamma scale, mean gap / gamma_shape, is not "
                            "finite", gamma_shape=shape, mean_gap_s=gap)
        if gamma_draws_vanish(shape):
            raise _rejected("is too small: the gamma sampler draws every failure gap as 0 s",
                            gamma_shape=shape)

    @property
    def k(self) -> int:
        """``subscriptions``, or round(sqrt(nodes)) when that is None; the
        clamp only matters for a one-node centre."""
        if self.subscriptions is None:
            return min(round(math.sqrt(self.nodes)), self.nodes - 1)
        return self.subscriptions

    def fingerprint(self) -> str:
        return fingerprint(self.nodes, self.failure.rate_pct_per_min, self.protocol.kind)


def parse_config(text: str) -> ExperimentConfig:
    """Parse the key=value config format (UTF-8, '#' comments).

    A line without ``=``, an unknown or repeated key and a value its key's
    type cannot parse are rejected with their line number, and a text
    without ``nodes``, the only required key, as such.  ``ExperimentConfig``
    checks the values; its error gets the line of the first key it names
    that the text sets.
    """
    values: dict[str, object] = {}
    seen_lines: dict[str, int] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"expected key=value, got {raw.strip()!r}", lineno)
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key not in _CONFIG_KEYS:
            raise ConfigError(f"unknown key {key!r}", lineno)
        if key in seen_lines:
            raise ConfigError(f"duplicate key {key!r} (first on line {seen_lines[key]})", lineno)
        seen_lines[key] = lineno
        _, _, parser, _ = _CONFIG_KEYS[key]
        try:
            values[key] = parser(value)
        except ValueError:
            raise ConfigError(f"bad value for {key!r}: {value!r}", lineno) from None
    if "nodes" not in values:
        raise ConfigError("missing required key 'nodes'")

    sections: dict[str, dict] = {"root": {}, "protocol": {}, "failure": {}}
    for key, value in values.items():
        section, attr, _, _ = _CONFIG_KEYS[key]
        sections[section][attr] = value
    try:
        return ExperimentConfig(protocol=ProtocolConfig(**sections["protocol"]),
                                failure=FailureConfig(**sections["failure"]), **sections["root"])
    except ConfigError as err:
        line = next((seen_lines[key] for key in err.keys if key in seen_lines), None)
        if line is None:
            raise
        raise ConfigError(str(err), line, err.keys) from None


# -- single run ----------------------------------------------------------

@dataclass
class RunSummary:
    mean_inconsistent: float
    total_messages: int
    total_payload_entries: int
    failure_events: int
    update_polls: int


@dataclass
class RunOutput:
    run_index: int
    probes: list[tuple[float, int]]
    failures: list[tuple[float, int, str, int]]
    load: list[tuple[float, int, int, int]]
    summary: RunSummary


def init_run(cfg: ExperimentConfig, run_index: int, failure_stream=None):
    """Build the state for one run and schedule the initial events.

    Event insertion order is pinned (probe, updates for nodes 0..n-1, the
    first failure) so equal-time ties replay identically everywhere.
    A transitive run's centre comes with its overlap pairs, built inside
    ``build_datacenter`` where they cost the least peak memory.
    Returns (datacenter, global_view, queue, streams dict).
    """
    topology = RngStream(TOPOLOGY_STREAM,
                         derive_stream_seed(cfg.seed, run_index, TOPOLOGY_STREAM))
    update = RngStream(UPDATE_STREAM,
                       derive_stream_seed(cfg.seed, run_index, UPDATE_STREAM))
    dc = build_datacenter(cfg.nodes, cfg.k, topology, cfg.load_window_s,
                          overlap_pairs=cfg.protocol.kind == TRANSITIVE_P2P)
    gv = None
    if cfg.protocol.kind in (CENTRAL, HIERARCHICAL):
        gv = build_global_view(cfg.nodes, cfg.protocol)
    queue = EventQueue()
    queue.schedule(cfg.probe_start_s, PROBE_ACTION)
    for i in range(cfg.nodes):
        queue.schedule(update.uniform(cfg.update_min_s, cfg.update_max_s), ("update", i))
    if failure_stream is None and cfg.failure.rate_pct_per_min > 0:
        failure_stream = RngStream(FAILURE_STREAM,
                                   derive_stream_seed(cfg.seed, run_index, FAILURE_STREAM))
    # inf at rate 0, which only a scripted stream sees, and ignores
    shape = cfg.failure.gamma_shape
    scale = mean_failure_gap(cfg.nodes, cfg.failure) / shape
    if failure_stream is not None:
        schedule_next_failure(queue, shape, scale, failure_stream)
    streams = {UPDATE_STREAM: update, FAILURE_STREAM: failure_stream,
               "gamma_shape": shape, "gamma_scale": scale}
    return dc, gv, queue, streams


def run_one(cfg: ExperimentConfig, run_index: int, failure_stream=None) -> RunOutput:
    """Execute one run to completion; deterministic in (cfg, seed, run_index).

    ``failure_stream`` may be replaced by a scripted stand-in (anything with
    gamma/index methods) for recovery-curve experiments.

    CPython's cyclic garbage collector is paused for the span of the run
    and the caller's setting is restored on every exit, a raised exception
    included.  Building the subscription rows and overlap pairs allocates
    enough containers to start hundreds of collector passes, and none of
    them can find anything: a run builds no reference cycles, so reference
    counting alone frees all of its state (the tests check this after
    every kind of run).
    """
    collecting = gc.isenabled()
    gc.disable()
    try:
        return _simulate(cfg, run_index, failure_stream)
    finally:
        if collecting:
            gc.enable()


def _simulate(cfg: ExperimentConfig, run_index: int, failure_stream) -> RunOutput:
    """The body of ``run_one``, which calls it with the collector paused."""
    dc, gv, queue, streams = init_run(cfg, run_index, failure_stream)
    update_stream = streams[UPDATE_STREAM]
    failure_stream = streams[FAILURE_STREAM]
    shape = streams["gamma_shape"]
    scale = streams["gamma_scale"]

    poll = make_poller(dc, cfg.protocol, gv)
    probes: list[tuple[float, int]] = []
    failures: list[tuple[float, int, str, int]] = []
    update_polls = 0  # update polls executed (alive nodes only)

    alive = dc.alive
    lo = cfg.update_min_s
    hi = cfg.update_max_s
    window = cfg.load_window_s
    probe_interval = cfg.probe_interval_s
    duration = cfg.duration_s
    fail_cfg = cfg.failure
    schedule = queue.schedule
    # the update delay is RngStream.uniform(lo, hi) inlined: the same
    # arithmetic on the same generator, so the draws are unchanged, and
    # the config checked lo <= hi when it was made
    draw = update_stream._rng.random

    def dispatch(event):
        nonlocal update_polls
        action = event[2]
        kind = action[0]
        if kind == "update":
            node = action[1]
            if alive[node]:
                t = event[0]
                # a poll counts its traffic into the open window, so the
                # log rotates first once t has left that window
                if t / window >= dc.next_window:
                    dc.advance_window(int(t / window))
                poll(node, t)
                update_polls += 1
            schedule(lo + (hi - lo) * draw(), action)
        elif kind == "probe":
            t = event[0]
            probes.append((t, dc.inconsistent))
            if t + probe_interval <= duration:
                schedule(probe_interval, PROBE_ACTION)
        else:
            t = event[0]
            effect, node = fire_failure(dc, fail_cfg, failure_stream)
            failures.append((t, node, effect, dc.inconsistent))
            schedule_next_failure(queue, shape, scale, failure_stream)

    queue.run(duration, dispatch)
    load = dc.finish_load()

    summary = RunSummary(
        mean_inconsistent=sum(count for _, count in probes) / len(probes),
        total_messages=dc.total_messages,
        total_payload_entries=dc.total_payload,
        failure_events=len(failures),
        update_polls=update_polls,
    )
    return RunOutput(run_index, probes, failures, load, summary)


# -- cross-run statistics -------------------------------------------------

# Two-sided 95% Student-t quantiles, t(0.975, df), df = 1..30; beyond that
# the normal approximation 1.96 is used.
T_QUANTILE_975 = {
    1: 12.706, 2: 4.303, 3: 3.182, 4: 2.776, 5: 2.571,
    6: 2.447, 7: 2.365, 8: 2.306, 9: 2.262, 10: 2.228,
    11: 2.201, 12: 2.179, 13: 2.160, 14: 2.145, 15: 2.131,
    16: 2.120, 17: 2.110, 18: 2.101, 19: 2.093, 20: 2.086,
    21: 2.080, 22: 2.074, 23: 2.069, 24: 2.064, 25: 2.060,
    26: 2.056, 27: 2.052, 28: 2.048, 29: 2.045, 30: 2.042,
}


def ci95_halfwidth(samples) -> float:
    """t(0.975, m-1) * sd / sqrt(m) for m samples; needs m >= 2."""
    m = len(samples)
    if m < 2:
        raise ValueError("confidence interval needs at least 2 samples")
    import statistics  # imported here: only configs of 2 runs or more get here

    t = T_QUANTILE_975.get(m - 1, 1.96)
    return t * statistics.stdev(samples) / math.sqrt(m)


@dataclass
class SweepSummary:
    nodes: int
    rate_pct_per_min: float
    protocol: str
    runs: int
    mean: float
    sd: float
    min: float
    max: float
    ci95_halfwidth: float | None
    normalized_mean: float

    def fingerprint(self) -> str:
        return fingerprint(self.nodes, self.rate_pct_per_min, self.protocol)


def aggregate(cfg: ExperimentConfig, outputs: list[RunOutput]) -> SweepSummary:
    """Cross-run statistics over the per-run mean inconsistency counts."""
    if not outputs:
        raise ValueError("aggregate needs at least one run")
    means = [out.summary.mean_inconsistent for out in outputs]
    tally = Tally()
    for value in means:
        tally.add(value)
    stats = tally.summary()
    ci = ci95_halfwidth(means) if len(means) >= 2 else None
    return SweepSummary(
        nodes=cfg.nodes,
        rate_pct_per_min=cfg.failure.rate_pct_per_min,
        protocol=cfg.protocol.kind,
        runs=len(outputs),
        mean=stats.mean,
        sd=stats.sd,
        min=stats.min,
        max=stats.max,
        ci95_halfwidth=ci,
        normalized_mean=stats.mean / cfg.nodes,
    )


# -- sweeps ---------------------------------------------------------------

def _run_task(payload):
    config_index, cfg, run_index = payload
    return config_index, run_index, run_one(cfg, run_index)


def default_workers() -> int:
    """One per CPU this process may run on, where the platform can tell."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def run_config(cfg: ExperimentConfig, workers: int | None = None):
    """Execute all runs of one config (in parallel when workers > 1) and
    aggregate them.  Returns (outputs, summary); outputs are ordered by
    run index regardless of scheduling.  ``workers`` below 1 raises
    ValueError; None means one per CPU the process may use."""
    workers = default_workers() if workers is None else workers
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    tasks = [(0, cfg, r) for r in range(cfg.runs)]
    if workers > 1 and cfg.runs > 1:
        # imported here, so that a process that opens no pool never loads
        # multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=min(workers, cfg.runs)) as pool:
            results = list(pool.map(_run_task, tasks))
    else:
        results = [_run_task(t) for t in tasks]
    outputs = [out for _, _, out in results]  # both paths keep the tasks' run order
    return outputs, aggregate(cfg, outputs)


def run_sweep(configs, workers: int | None = None):
    """Run every config through ``run_config``, one after another, and
    yield ``(cfg, outputs, summary)`` for each as soon as it finishes.

    Order follows the input, and results do not depend on scheduling or
    worker count.  Nothing runs until the first cell is asked for.  A
    failing config (a run that raises, or a pool worker that dies) prints
    one line to stderr and yields nothing; the other configs still run.
    The generator drops its own reference to a cell's outputs before it
    starts the next config, so a consumer that drops them too holds at
    most one cell's runs at a time.
    """
    for cfg in configs:
        try:
            outputs, summary = run_config(cfg, workers=workers)
        except Exception as exc:  # noqa: BLE001 - isolate per-config failures
            label = cfg.fingerprint() if isinstance(cfg, ExperimentConfig) else repr(cfg)
            print(f"hbsim: sweep config {label} failed: {exc}", file=sys.stderr)
            continue
        yield cfg, outputs, summary
        del outputs


def grid_configs(base: ExperimentConfig, nodes_list, rates, protocols) -> list[ExperimentConfig]:
    """Expand a sweep grid (sizes x failure rates x protocols) over a base
    config.  Each cell is checked as it is made.  A base that leaves
    ``subscriptions`` unset gives each size its own ``k``, round(sqrt(n));
    a base that pins it pins every cell."""
    return [
        replace(base, nodes=n, protocol=replace(base.protocol, kind=kind),
                failure=replace(base.failure, rate_pct_per_min=rate))
        for n in nodes_list for rate in rates for kind in protocols
    ]
