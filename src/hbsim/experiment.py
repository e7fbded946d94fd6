"""Experiment harness: configs, run orchestration, sweeps, statistics.

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
    gamma_params_for_rate,
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


class ConfigError(ValueError):
    """Invalid experiment configuration; ``line`` locates file errors."""

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


@dataclass
class ExperimentConfig:
    nodes: int
    subscriptions: int | None = None     # None -> round(sqrt(nodes))
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

    def normalized(self) -> "ExperimentConfig":
        """Fill defaults and check every invariant; returns a valid copy."""
        cfg = replace(self)
        if cfg.nodes < 1:
            raise ConfigError(f"nodes must be >= 1, got {cfg.nodes}")
        if cfg.nodes > sys.float_info.max:
            # the sqrt default and the failure gap take nodes as a float
            raise ConfigError(f"nodes must not exceed the largest float, {sys.float_info.max}")
        if cfg.subscriptions is None:
            # sqrt default; the clamp only matters for a one-node centre
            cfg.subscriptions = min(round(math.sqrt(cfg.nodes)), cfg.nodes - 1)
        if not 0 <= cfg.subscriptions <= cfg.nodes - 1:
            raise ConfigError(
                f"subscriptions must be in [0, nodes-1], got {cfg.subscriptions} for {cfg.nodes} nodes")
        try:
            cfg.protocol.validate(cfg.nodes)
            cfg.failure.validate()
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        if cfg.failure.rate_pct_per_min == 0:
            # -0.0 would name a cell r-0; replace() shares the caller's failure
            cfg.failure = replace(cfg.failure, rate_pct_per_min=abs(cfg.failure.rate_pct_per_min))
        if cfg.runs < 1:
            raise ConfigError("runs must be >= 1")
        # chained comparisons against inf also reject nan, which compares false
        if not 0 <= cfg.probe_start_s < math.inf:
            raise ConfigError(f"probe_start_s must be >= 0 and finite, got {cfg.probe_start_s}")
        if not 0 < cfg.probe_interval_s < math.inf:
            raise ConfigError(
                f"probe_interval_s must be positive and finite, got {cfg.probe_interval_s}")
        if not 0 <= cfg.update_min_s <= cfg.update_max_s < math.inf:
            raise ConfigError("need 0 <= update_min_s <= update_max_s, both finite")
        if cfg.update_max_s == 0:
            # zero-delay updates would repeat at t=0 forever
            raise ConfigError("update_max_s must be positive")
        if not cfg.probe_start_s < cfg.duration_s < math.inf:
            raise ConfigError(
                f"duration_s must be finite and exceed probe_start_s, got {cfg.duration_s}")
        # an interval that cannot advance the clock at duration_s cannot
        # advance it at any earlier time either: the run would never end
        for name in ("probe_interval_s", "update_max_s"):
            if cfg.duration_s + getattr(cfg, name) == cfg.duration_s:
                raise ConfigError(
                    f"{name}={getattr(cfg, name)} is too small to advance the clock "
                    f"at duration_s={cfg.duration_s}")
        if not 0 < cfg.load_window_s < math.inf:
            raise ConfigError(f"load_window_s must be positive and finite, got {cfg.load_window_s}")
        # the last flush numbers the window after duration_s; that index
        # must be a finite number
        if not (cfg.duration_s + cfg.load_window_s) / cfg.load_window_s < math.inf:
            raise ConfigError(
                f"load_window_s={cfg.load_window_s} is too small: the window index "
                f"at duration_s={cfg.duration_s} is not a finite number")
        if cfg.failure.rate_pct_per_min > 0:
            _check_failure_gaps(cfg)
        return cfg

    def fingerprint(self) -> str:
        return fingerprint(self.nodes, self.failure.rate_pct_per_min, self.protocol.kind)


def _check_failure_gaps(cfg: ExperimentConfig) -> None:
    """Reject failure settings whose gaps cannot move the clock: like the
    probe and update intervals, the mean gap must advance it at
    duration_s, and the gamma sampler must not draw only zeros."""
    rate = cfg.failure.rate_pct_per_min
    gap = mean_failure_gap(cfg.nodes, cfg.failure)
    if not gap < math.inf:
        raise ConfigError(
            f"failure_rate_pct_per_min={rate} is too small: the mean failure gap "
            f"at nodes={cfg.nodes} is not a finite number of seconds")
    if cfg.duration_s + gap == cfg.duration_s:
        raise ConfigError(
            f"failure_rate_pct_per_min={rate} is too large: the mean failure gap {gap} s "
            f"at nodes={cfg.nodes} cannot advance the clock at duration_s={cfg.duration_s}")
    shape, scale = gamma_params_for_rate(cfg.nodes, cfg.failure)
    if not scale < math.inf:
        raise ConfigError(
            f"gamma_shape={shape} is too small: the gamma scale, mean gap {gap} s "
            f"/ gamma_shape, is not finite")
    if gamma_draws_vanish(shape):
        raise ConfigError(
            f"gamma_shape={shape} is too small: the gamma sampler draws every "
            f"failure gap as 0 s, so the clock never advances")


# config file keys -> (section, attribute, parser)
_CONFIG_KEYS = {
    "nodes": ("root", "nodes", int),
    "subscriptions": ("root", "subscriptions", int),
    "duration_s": ("root", "duration_s", float),
    "runs": ("root", "runs", int),
    "seed": ("root", "seed", int),
    "probe_start_s": ("root", "probe_start_s", float),
    "probe_interval_s": ("root", "probe_interval_s", float),
    "update_min_s": ("root", "update_min_s", float),
    "update_max_s": ("root", "update_max_s", float),
    "load_window_s": ("root", "load_window_s", float),
    "protocol": ("protocol", "kind", str),
    "staleness_s": ("protocol", "staleness_s", float),
    "provider_count": ("protocol", "provider_count", int),
    "hierarchy_levels": ("protocol", "hierarchy_levels", int),
    "max_requests_per_s": ("protocol", "max_requests_per_s", int),
    "failure_rate_pct_per_min": ("failure", "rate_pct_per_min", float),
    "gamma_shape": ("failure", "gamma_shape", float),
    "repair_policy": ("failure", "repair_policy", str),
}


def parse_config(text: str) -> ExperimentConfig:
    """Parse the key=value config format (UTF-8, '#' comments).

    Unknown and duplicate keys are rejected with their line number, as are
    values of the wrong type; cross-field invariants are checked after
    defaulting.  ``nodes`` is the only required key.
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
        _, _, parser = _CONFIG_KEYS[key]
        try:
            values[key] = parser(value)
        except ValueError:
            raise ConfigError(f"bad value for {key!r}: {value!r}", lineno) from None
    if "nodes" not in values:
        raise ConfigError("missing required key 'nodes'")
    if "protocol" in values and values["protocol"] not in PROTOCOL_KINDS:
        raise ConfigError(f"unknown protocol {values['protocol']!r}", seen_lines["protocol"])
    if "repair_policy" in values and values["repair_policy"] not in REPAIR_POLICIES:
        raise ConfigError(f"unknown repair_policy {values['repair_policy']!r}",
                          seen_lines["repair_policy"])

    protocol = ProtocolConfig()
    failure = FailureConfig()
    root: dict[str, object] = {}
    for key, value in values.items():
        section, attr, _ = _CONFIG_KEYS[key]
        if section == "protocol":
            setattr(protocol, attr, value)
        elif section == "failure":
            setattr(failure, attr, value)
        else:
            root[attr] = value
    cfg = ExperimentConfig(protocol=protocol, failure=failure, **root)
    cfg.normalized()  # validate now; keep unset fields as intent (e.g. for sweeps)
    return cfg


# -- single run ----------------------------------------------------------

@dataclass
class RunSummary:
    mean_inconsistent: float
    max_inconsistent: int
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
    cfg = cfg.normalized()
    topology = RngStream(TOPOLOGY_STREAM,
                         derive_stream_seed(cfg.seed, run_index, TOPOLOGY_STREAM))
    update = RngStream(UPDATE_STREAM,
                       derive_stream_seed(cfg.seed, run_index, UPDATE_STREAM))
    dc = build_datacenter(cfg.nodes, cfg.subscriptions, topology, cfg.load_window_s,
                          overlap_pairs=cfg.protocol.kind == TRANSITIVE_P2P)
    gv = None
    if cfg.protocol.kind in (CENTRAL, HIERARCHICAL):
        gv = build_global_view(cfg.nodes, cfg.protocol)
    queue = EventQueue()
    queue.schedule(cfg.probe_start_s, PROBE_ACTION)
    for i in range(cfg.nodes):
        queue.schedule(update.uniform(cfg.update_min_s, cfg.update_max_s), ("update", i))
    rate = cfg.failure.rate_pct_per_min
    if failure_stream is None and rate > 0:
        failure_stream = RngStream(FAILURE_STREAM,
                                   derive_stream_seed(cfg.seed, run_index, FAILURE_STREAM))
    shape = scale = 1.0
    if rate > 0:
        shape, scale = gamma_params_for_rate(cfg.nodes, cfg.failure)
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
    cfg = cfg.normalized()
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
    probe_interval = cfg.probe_interval_s
    duration = cfg.duration_s
    fail_cfg = cfg.failure
    schedule = queue.schedule
    # the update delay is RngStream.uniform(lo, hi) inlined: the same
    # arithmetic on the same generator, so the draws are unchanged, and
    # normalized() has already checked lo <= hi
    draw = update_stream._rng.random

    def dispatch(event):
        nonlocal update_polls
        action = event[2]
        kind = action[0]
        if kind == "update":
            node = action[1]
            if alive[node]:
                poll(node, event[0])
                update_polls += 1
            schedule(lo + (hi - lo) * draw(), action)
        elif kind == "probe":
            t = event[0]
            probes.append((t, dc.inconsistent))
            if t + probe_interval <= duration:
                schedule(probe_interval, PROBE_ACTION)
        else:
            t = event[0]
            effect, node = fire_failure(dc, fail_cfg, failure_stream, t)
            failures.append((t, node, effect, dc.inconsistent))
            schedule_next_failure(queue, shape, scale, failure_stream)

    queue.run(duration, dispatch)
    load = dc.finish_load(duration)

    probe_tally = Tally()
    for _, count in probes:
        probe_tally.add(count)
    stats = probe_tally.summary()
    summary = RunSummary(
        mean_inconsistent=stats.mean,
        max_inconsistent=int(stats.max),
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

    sd = statistics.stdev(samples)
    if sd == 0.0:
        return 0.0
    t = T_QUANTILE_975.get(m - 1, 1.96)
    return t * sd / math.sqrt(m)


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
    cfg = cfg.normalized()
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
    return os.cpu_count() or 1


def run_config(cfg: ExperimentConfig, workers: int | None = None):
    """Execute all runs of one config (in parallel when workers > 1) and
    aggregate them.  Returns (outputs, summary); outputs are ordered by
    run index regardless of scheduling.  ``workers`` below 1 raises
    ValueError; None means one per CPU."""
    cfg = cfg.normalized()
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
    config.  Subscriptions re-default to round(sqrt(n)) per size unless the
    base pinned them explicitly."""
    configs = []
    for n in nodes_list:
        for rate in rates:
            for kind in protocols:
                cfg = replace(
                    base,
                    nodes=n,
                    subscriptions=base.subscriptions,
                    protocol=replace(base.protocol, kind=kind),
                    failure=replace(base.failure, rate_pct_per_min=rate),
                )
                configs.append(cfg.normalized())
    return configs
