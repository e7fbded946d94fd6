"""The benchmark's workloads: the configs each one generates from a seed and
how one round of it drives the program.

Every workload is a closed batch job started from one process.  The
program receives only the generated configs: the seed given to the
benchmark becomes the configs' ``seed``, so one seed fixes every input.
A *cell* is one config; an *operation* is one cell here, because the
single-process workloads run one run per config and ``desk_sweep`` counts
whole sweep cells.
"""

from __future__ import annotations

import contextlib
import io
import math
from dataclasses import dataclass
from pathlib import Path

import hbsim.cli as cli
import hbsim.experiment as experiment

# model constants shared by every generated config (the program's defaults,
# written out so the checks do not depend on them silently)
PROBE_START_S = 2.0
PROBE_INTERVAL_S = 1.0
UPDATE_MIN_S = 0.8
UPDATE_MAX_S = 1.2
STALENESS_S = 1.0
LOAD_WINDOW_S = 10.0
REPAIR_POLICY = "toggle_repair"


@dataclass(frozen=True)
class Cell:
    """One config: what the checks need to know about it."""
    nodes: int
    rate: float
    kind: str
    runs: int
    duration_s: float
    provider_count: int = 1
    max_requests_per_s: int | None = None

    @property
    def key(self) -> tuple:
        return (self.nodes, self.rate, self.kind)

    @property
    def k(self) -> int:
        return min(round(math.sqrt(self.nodes)), self.nodes - 1)

    def config_text(self, seed: int) -> str:
        lines = [
            f"nodes={self.nodes}",
            f"protocol={self.kind}",
            f"failure_rate_pct_per_min={self.rate}",
            f"repair_policy={REPAIR_POLICY}",
            f"staleness_s={STALENESS_S}",
            f"duration_s={self.duration_s}",
            f"runs={self.runs}",
            f"seed={seed}",
            f"probe_start_s={PROBE_START_S}",
            f"probe_interval_s={PROBE_INTERVAL_S}",
            f"update_min_s={UPDATE_MIN_S}",
            f"update_max_s={UPDATE_MAX_S}",
            f"load_window_s={LOAD_WINDOW_S}",
        ]
        if self.kind == "central":
            lines.append(f"provider_count={self.provider_count}")
        if self.max_requests_per_s is not None:
            lines.append(f"max_requests_per_s={self.max_requests_per_s}")
        return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class Workload:
    name: str
    cells: tuple[Cell, ...]
    workers: int
    mode: str            # "run": one `hbsim run` per cell; "sweep"; "memory"

    def execute(self, seed: int, workdir: Path):
        """Run one round.  Returns in-memory outputs per cell key for the
        "memory" mode, else None (the CSVs under ``workdir/out`` are the
        result).  Config files are written before this is called."""
        out = workdir / "out"
        if self.mode == "memory":
            results = {}
            for cell in self.cells:
                cfg = experiment.parse_config(cell.config_text(seed))
                outputs, summary = experiment.run_config(cfg, workers=self.workers)
                results[cell.key] = (outputs, summary)
            return results
        with contextlib.redirect_stdout(io.StringIO()):
            if self.mode == "run":
                for i, cell in enumerate(self.cells):
                    _cli(["run", "--config", str(workdir / f"cell{i}.cfg"),
                          "--out", str(out / f"cell{i}"), "--workers", str(self.workers)])
            else:
                _cli(["sweep", "--config", str(workdir / "base.cfg"),
                      "--nodes", ",".join(str(n) for n in _unique(c.nodes for c in self.cells)),
                      "--rates", ",".join(str(r) for r in _unique(c.rate for c in self.cells)),
                      "--protocol", ",".join(_unique(c.kind for c in self.cells)),
                      "--workers", str(self.workers), "--out", str(out)])
        return None

    def write_configs(self, seed: int, workdir: Path) -> None:
        workdir.mkdir(parents=True, exist_ok=True)
        if self.mode == "run":
            for i, cell in enumerate(self.cells):
                (workdir / f"cell{i}.cfg").write_text(cell.config_text(seed), encoding="utf-8")
        elif self.mode == "sweep":
            # the sweep overrides nodes, rate and protocol per cell
            (workdir / "base.cfg").write_text(self.cells[0].config_text(seed), encoding="utf-8")


def _cli(argv: list[str]) -> None:
    code = cli.main(argv)
    if code != 0:
        raise RuntimeError(f"hbsim {argv[0]} exited with {code}")


def _unique(values):
    return list(dict.fromkeys(values))


def _grid(nodes, rates, kinds, runs, duration_s):
    return tuple(Cell(n, r, kind, runs, duration_s)
                 for n in nodes for r in rates for kind in kinds)


P2P = ("simple_p2p", "transitive_p2p")

# Sizes are set so that one round takes a few seconds (transitive_10k: one
# set-up-bound round) and every run still has quiet probe windows; README.md
# gives the reasons for each workload.
WORKLOADS = {w.name: w for w in (
    Workload("p2p_1k", tuple(Cell(1000, 1.0, kind, 1, 60.0) for kind in P2P),
             workers=1, mode="run"),
    Workload("central_tree_1k",
             (Cell(1000, 1.0, "central", 1, 20.0, provider_count=4, max_requests_per_s=200),
              Cell(1000, 1.0, "hierarchical", 1, 20.0)),
             workers=1, mode="run"),
    Workload("desk_sweep", _grid((100, 1000), (0.1, 1.0, 10.0), P2P, runs=2, duration_s=20.0),
             workers=2, mode="sweep"),
    Workload("transitive_10k", (Cell(10000, 0.2, "transitive_p2p", 1, 8.0),),
             workers=1, mode="memory"),
)}
