"""Self-test of the output checks: each must catch a corrupted output.

    python3 perfbench/selftest.py

Runs a small config of every protocol, writes its CSVs, and confirms that
every check passes on them.  Then, for each check, it corrupts one output
in the way that check guards against and confirms that this check reports
it.  Exits 0 when every check passed clean data and caught its corruption.
"""

from __future__ import annotations

import contextlib
import copy
import io
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import probe  # noqa: E402
from workloads import Cell  # noqa: E402

WORKDIR = ROOT / ".perfbench_out" / "selftest"
SEED = 3


def clean_tables(rec) -> dict:
    """kind -> Tables for one small config per protocol, read back from CSV."""
    import hbsim.cli as cli

    shutil.rmtree(WORKDIR, ignore_errors=True)
    tables = {}
    for i, kind in enumerate(("simple_p2p", "transitive_p2p", "central", "hierarchical")):
        cell = Cell(200, 2.0, kind, 3, 40.0, provider_count=2 if kind == "central" else 1,
                    max_requests_per_s=60 if kind == "central" else None)
        d = WORKDIR / f"cell{i}"
        d.mkdir(parents=True)
        (d / "cell.cfg").write_text(cell.config_text(SEED), encoding="utf-8")
        first = len(rec.runs)
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(["run", "--config", str(d / "cell.cfg"), "--out", str(d / "out"),
                             "--workers", "1"])
        if code != 0:
            raise RuntimeError(f"hbsim run failed for {kind}")
        t = checks.read_cell_dir(cell, d / "out")
        t.totals = {r["run"]: r for r in rec.runs[first:]}
        tables[kind] = t
    return tables


def corrupt_quiet(t):
    changes = {(r, time) for r, time, _, effect, _ in t.failures if effect != "no_op"}
    for i, (run, p, count) in enumerate(t.probes):
        if count == 0 and not any(r == run and p - 2.2 <= f <= p for r, f in changes):
            t.probes[i] = (run, p, 1)
            return t
    raise RuntimeError("no quiet probe to corrupt")


def corrupt_load(t):
    i = next(i for i, row in enumerate(t.load) if row[2] == "switch")
    del t.load[i]
    return t


def corrupt_traffic(t):
    run = min(t.totals)
    t.totals[run] = dict(t.totals[run], update_polls=t.totals[run]["update_polls"] * 2)
    return t


def corrupt_replay(t):
    i = next(i for i, row in enumerate(t.failures) if row[3] == "failed")
    run, time, node, _, count = t.failures[i]
    t.failures[i] = (run, time, node, "repaired", count)
    return t


def corrupt_schedule(t):
    run, p, count = t.probes[3]
    t.probes[3] = (run, p + 0.5, count)
    return t


def corrupt_summary(t):
    t.summaries[0] = dict(t.summaries[0], mean=t.summaries[0]["mean"] * 1.001 + 1e-3)
    return t


# check -> (protocol whose output is corrupted, corruption)
CASES = {
    "quiet_windows": ("transitive_p2p", corrupt_quiet),
    "load_identities": ("central", corrupt_load),
    "p2p_traffic": ("simple_p2p", corrupt_traffic),
    "failure_replay": ("hierarchical", corrupt_replay),
    "probe_schedule": ("simple_p2p", corrupt_schedule),
    "summary": ("transitive_p2p", corrupt_summary),
}


def main() -> int:
    rec = probe.install(probe.LIGHT)
    try:
        tables = clean_tables(rec)
    finally:
        shutil.rmtree(WORKDIR, ignore_errors=True)
    ok = True
    for kind, t in tables.items():
        failed = checks.check_cells([t.cell], {t.cell.key: t})
        print(f"clean {kind:<15} {'pass' if not failed else failed}")
        ok &= not failed
    for name, (kind, corrupt) in CASES.items():
        errors = checks.CHECKS[name](corrupt(copy.deepcopy(tables[kind])))
        print(f"corrupt {name:<16} on {kind:<15} -> "
              f"{'caught: ' + errors[0] if errors else 'NOT CAUGHT'}")
        ok &= bool(errors)
    errors = checks.check_determinism(["a" * 64, "b" * 64])
    print(f"corrupt {'determinism':<16} two digests      -> "
          f"{'caught: ' + errors[0][:60] if errors else 'NOT CAUGHT'}")
    ok &= bool(errors) and not checks.check_determinism(["a" * 64] * 3)
    print("self-test", "passed" if ok else "FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
