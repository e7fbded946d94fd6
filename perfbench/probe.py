"""Instrumentation installed from outside the program.

hbsim itself has no hooks, so the benchmark wraps the public calls of its
modules in place (module globals and class attributes) before a workload
starts.  Two levels exist:

* ``light`` -- what the untraced rounds need: the set-up calls
  (``init_run`` and ``make_poller``), ``EventQueue.run``, the per-run task
  and ``run_config``.  These fire a handful of times per run, so they cost
  nothing measurable.
* ``trace`` -- adds the hot call sites of every layer, aggregated per name
  to call count, total time and self time, plus coarse spans (run, setup,
  loop, write) that keep their parent.  This perturbs timing, so
  end-to-end figures never come from a traced round.

Each simulated run's figures are collected inside ``_run_task`` and ride
back to the caller attached to its ``RunOutput``, so runs executed in pool
workers are counted like in-process ones.  ``run_config`` detaches them
into ``Recorder.runs``.  A run's record also carries the host-speed samples
its process's meter (``meter.py``) took during it, and the set-up and loop
calls are also summed at the reference speed.
"""

from __future__ import annotations

import functools
import os
import pickle
from time import perf_counter

import hbsim.cli as cli
import hbsim.des as des
import hbsim.experiment as experiment
import hbsim.protocols as protocols
from hbsim.datacenter import DataCenter
from meter import Meter, mean

LIGHT = "light"
TRACE = "trace"
RECORD_ATTR = "perfbench_record"

# a stats entry is [calls, total_s, self_s, extra]; extra holds a count that
# is not a call count (events dispatched, requests refused)
CALLS, TOTAL, SELF, EXTRA = range(4)
# a call timed with ``scale`` also adds its time, less the meter's handler
# time in it, to SCALED + name at the reference speed (see meter.py), or to
# UNSCALED + name when no speed sample fell inside it
SCALED, UNSCALED = "scaled.", "unscaled."


class Recorder:
    """One process's stats table, self-time stack, spans and run records."""

    def __init__(self, level: str):
        self.level = level
        self.stats: dict[str, list] = {}
        self.stack = [0.0]          # time spent in children of each open call
        self.spans: list[dict] = []
        self.open_spans: list[dict] = []
        self.peak_queue = 0
        self.runs: list[dict] = []  # one record per finished run
        self.meter = Meter()
        self._span_ids = 0

    def entry(self, name: str) -> list:
        s = self.stats.get(name)
        if s is None:
            s = self.stats[name] = [0, 0.0, 0.0, 0]
        return s

    def timed(self, name: str, fn, span: str | None = None, scale: bool = False):
        """Wrap ``fn`` so each call adds to ``name``'s count, total and self
        time; in trace mode a ``span`` name also records a coarse span."""
        stack = self.stack
        with_span = span is not None and self.level == TRACE
        meter = self.meter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if with_span:
                self._open(span)
            if scale:
                mark = meter.mark()
            stack.append(0.0)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                dt = t1 - t0
                s = self.entry(name)
                s[CALLS] += 1
                s[TOTAL] += dt
                s[SELF] += dt - stack.pop()
                stack[-1] += dt
                if scale:
                    own, speeds = meter.since(mark, dt)
                    if speeds:
                        self.entry(SCALED + name)[TOTAL] += own * mean(speeds)
                    else:
                        self.entry(UNSCALED + name)[TOTAL] += own
                if with_span:
                    span_rec = self.open_spans.pop()
                    span_rec["start"] = t0
                    span_rec["end"] = t1
        return wrapper

    def _open(self, name: str) -> None:
        parent = self.open_spans[-1]["id"] if self.open_spans else None
        self._span_ids += 1
        span_rec = {"id": f"{os.getpid()}:{self._span_ids}", "name": name, "parent": parent}
        self.spans.append(span_rec)
        self.open_spans.append(span_rec)


def install(level: str) -> Recorder:
    """Wrap hbsim's calls for ``level`` and return this process's recorder.

    Must run before the first run starts.  Pool workers that fork later
    inherit the wrappers; spawned workers install them again when they
    import the round script.
    """
    if level not in (LIGHT, TRACE):
        raise ValueError(f"unknown probe level {level!r}")
    rec = Recorder(level)
    timed = rec.timed
    tracing = level == TRACE

    # set-up, loop and the per-run task: needed by every round
    experiment.init_run = timed("experiment.init_run", experiment.init_run, "setup",
                                scale=True)
    orig_make_poller = experiment.make_poller

    @functools.wraps(orig_make_poller)
    def make_poller(dc, cfg, gv):
        poll = orig_make_poller(dc, cfg, gv)
        return timed(f"protocols.{cfg.kind}.poll", poll) if tracing else poll

    experiment.make_poller = timed("protocols.make_poller", make_poller, "setup",
                                   scale=True)

    orig_loop = des.EventQueue.run

    def run(queue, end_time, dispatcher):
        if tracing:
            dispatcher = _traced_dispatcher(rec, queue, dispatcher)
        processed = orig_loop(queue, end_time, dispatcher)
        rec.entry("des.events")[EXTRA] += processed
        return processed

    des.EventQueue.run = timed("des.loop", run, "loop", scale=True)

    timed_task = timed("experiment.run", experiment._run_task, "run")

    @functools.wraps(experiment._run_task)
    def run_task(payload):
        # a run outside a metered round (in a pool worker, or in the
        # self-test) meters itself; the timer must not outlive the run,
        # since a process that exits with it armed is killed by it
        own_meter = not rec.meter.running
        if own_meter:
            rec.meter.start()
        saved = rec.stats
        rec.stats = {}
        first_span = len(rec.spans)
        first_speed = len(rec.meter.speeds)
        try:
            config_index, run_index, output = timed_task(payload)
            record = {"kind": payload[1].protocol.kind, "stats": rec.stats,
                      "pid": os.getpid(), "speeds": rec.meter.speeds[first_speed:]}
            if tracing:
                record["result_bytes"] = len(pickle.dumps(output))
                record["peak_queue"] = rec.peak_queue
                record["spans"] = rec.spans[first_span:]
                del rec.spans[first_span:]
                rec.peak_queue = 0
            setattr(output, RECORD_ATTR, record)
        finally:
            rec.stats = saved
            if own_meter:
                rec.meter.stop()
        return config_index, run_index, output

    experiment._run_task = run_task

    orig_run_config = experiment.run_config

    @functools.wraps(orig_run_config)
    def run_config(cfg, workers=None):
        outputs, summary = orig_run_config(cfg, workers)
        for out in outputs:
            rec.runs.append(_take_record(cfg, out))
        return outputs, summary

    experiment.run_config = cli.run_config = run_config

    if not tracing:
        return rec

    # des: scheduling and the random streams
    des.EventQueue.schedule = timed("des.schedule", des.EventQueue.schedule)
    for method in ("random", "uniform", "index", "gamma"):
        setattr(des.RngStream, method, timed("des.rng", getattr(des.RngStream, method)))

    # datacenter: build, the hot state changes and the load log
    experiment.build_datacenter = timed("datacenter.build", experiment.build_datacenter)
    for method in ("apply_observation", "message", "advance_window", "set_liveness",
                   "finish_load"):
        setattr(DataCenter, method, timed(f"datacenter.{method}", getattr(DataCenter, method)))

    # failure
    experiment.fire_failure = timed("failure.fire", experiment.fire_failure)

    # protocols: layout, central serving, and direct polls, which the
    # central and hierarchical pollers reach only by falling back
    experiment.build_global_view = timed("protocols.build_global_view",
                                         experiment.build_global_view)
    orig_serve = protocols.provider_serve

    @functools.wraps(orig_serve)
    def provider_serve(*args, **kwargs):
        served = orig_serve(*args, **kwargs)
        if served is None:
            rec.entry("protocols.central.serve")[EXTRA] += 1
        return served

    protocols.provider_serve = timed("protocols.central.serve", provider_serve)
    protocols.direct_poll = timed("protocols.direct_poll", protocols.direct_poll)

    # aggregation, outputs and the entry point
    experiment.aggregate = timed("experiment.aggregate", experiment.aggregate)
    for name in ("write_outputs", "write_sweep_outputs"):
        setattr(cli, name, timed("outputs.write", getattr(cli, name), "write"))
    cli.main = timed("cli.main", cli.main)
    return rec


def _traced_dispatcher(rec: Recorder, queue, dispatcher):
    """Time each dispatch under its event kind and track the queue length."""
    per_kind = {kind: rec.timed(f"experiment.dispatch_{kind}", dispatcher)
                for kind in ("update", "probe", "failure")}

    def dispatch(event):
        per_kind[event.action[0]](event)
        qlen = len(queue)
        if qlen > rec.peak_queue:
            rec.peak_queue = qlen

    return dispatch


def _take_record(cfg, output) -> dict:
    """Detach a run's record from its output and add what its summary says."""
    record = getattr(output, RECORD_ATTR, None)
    if record is None:
        raise RuntimeError("a run returned without its benchmark record: the "
                           "instrumentation did not reach the process that ran it")
    delattr(output, RECORD_ATTR)
    s = output.summary
    record.update(cell=(cfg.nodes, cfg.failure.rate_pct_per_min, cfg.protocol.kind),
                  run=output.run_index,
                  total_messages=s.total_messages, total_payload_entries=s.total_payload_entries,
                  update_polls=s.update_polls, load_rows=len(output.load))
    return record
