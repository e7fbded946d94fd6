"""Model-level checks: a run's outputs against closed-form results that
restate none of the engine's poll logic.

The brute-force oracle of ``reference_sim.py`` restates the engine's own
reading of the model, so a misreading that both share passes criterion
4.  These checks share with the engine only the seeded topology draws,
which are part of the package's contract.
"""

import csv
import math
import statistics

import pytest

from hbsim.cli import main
from hbsim.datacenter import build_datacenter
from hbsim.des import RngStream, derive_stream_seed

NODES = 1000
SUBSCRIPTIONS = 32
RATE_PCT_PER_MIN = 1.0
DURATION_S = 600.0
RUNS = 8
SEED = 99
# ten probes per update gap: the probes' phase against each flip then adds
# little spread, where the default 1 s interval adds about 7 % per run
PROBE_INTERVAL_S = 0.1
UPDATE_MIN_S = 0.8
UPDATE_MAX_S = 1.2


def mean_wait_to_next_poll(lo, hi):
    """E[X**2] / (2 E[X]) for update gaps X ~ U(lo, hi): the mean time from
    an instant that is independent of a node's poll clock to its next poll
    (the renewal process's mean forward recurrence time)."""
    second_moment = (hi ** 3 - lo ** 3) / (3 * (hi - lo))
    return second_moment / (lo + hi)


def read_by_run(path, fields):
    rows = {}
    with open(path, encoding="utf-8", newline="") as fh:
        for row in csv.DictReader(fh):
            rows.setdefault(int(row["run"]), []).append(tuple(row[f] for f in fields))
    return rows


def test_littles_law_for_simple_p2p(tmp_path):
    """The time-average inconsistent count is flips/s x mean alive
    in-degree at a flip x the mean wait to the next poll.

    A flip of node t's ground truth, a failure or a repair, leaves every
    alive subscriber of t one wrong entry until that subscriber's next
    poll, which comes on average ``mean_wait_to_next_poll`` later (0.5067
    s for U(0.8, 1.2)): Little's law, L = lambda W.  Only what ``hbsim
    run`` writes is used.  The flips and the liveness replay come from
    failures.csv, and the in-degrees from a topology rebuilt from each
    run's topology stream, as criterion 3 does.  The probes count nodes,
    not entries, which at this rate differ by about 0.2 %; a double flip
    or a subscriber dying before its poll is rarer still.  All of these
    sit far inside the tolerance, four standard errors of the runs' own
    ratios.
    """
    cfg = tmp_path / "little.cfg"
    cfg.write_text(
        f"nodes={NODES}\nsubscriptions={SUBSCRIPTIONS}\nprotocol=simple_p2p\n"
        f"failure_rate_pct_per_min={RATE_PCT_PER_MIN}\nrepair_policy=toggle_repair\n"
        f"duration_s={DURATION_S}\nruns={RUNS}\nseed={SEED}\n"
        f"probe_interval_s={PROBE_INTERVAL_S}\n"
        f"update_min_s={UPDATE_MIN_S}\nupdate_max_s={UPDATE_MAX_S}\n", encoding="utf-8")
    out = tmp_path / "out"
    assert main(["run", "--config", str(cfg), "--out", str(out), "--workers", "1"]) == 0
    probes = read_by_run(out / "probes.csv", ("t", "inconsistent_nodes"))
    failures = read_by_run(out / "failures.csv", ("t", "node", "effect"))
    wait = mean_wait_to_next_poll(UPDATE_MIN_S, UPDATE_MAX_S)
    assert wait == pytest.approx(0.50667, abs=1e-5)

    ratios = []
    for run in range(RUNS):
        graph = build_datacenter(NODES, SUBSCRIPTIONS, RngStream(
            "topology", derive_stream_seed(SEED, run, "topology")))
        # each probe stands for the interval that it opens
        start = float(probes[run][0][0])
        end = start + len(probes[run]) * PROBE_INTERVAL_S
        alive = [True] * NODES
        flips = wrong = 0  # flips in [start, end), and the entries they made wrong
        for t, node, effect in failures[run]:
            if effect == "no_op":
                continue
            node = int(node)
            alive[node] = effect == "repaired"
            if start <= float(t) < end:
                flips += 1
                wrong += sum(alive[j] for j in graph.subscribers[node])
        assert flips > 50, run  # about 100 expected at 1 %/min over 600 s
        predicted = wrong / (end - start) * wait
        observed = statistics.fmean(int(count) for _, count in probes[run])
        ratios.append(observed / predicted)

    mean = statistics.fmean(ratios)
    tolerance = 4 * statistics.stdev(ratios) / math.sqrt(RUNS)
    assert tolerance < 0.05, ratios  # runs this loose would make the check vacuous
    assert abs(mean - 1) <= tolerance, (mean, tolerance, ratios)
    print(f"\nLittle's law, simple P2P: observed / predicted = {mean:.4f} "
          f"+- {tolerance:.4f} over {RUNS} runs")
