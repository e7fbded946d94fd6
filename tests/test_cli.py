import functools
import gc
import hashlib
import itertools
import os
import subprocess
import sys
import weakref
from pathlib import Path

import pytest

import hbsim
import hbsim.experiment as experiment
from hbsim.cli import main
from hbsim.outputs import read_probe_rows, read_summaries

BASE_CFG = """\
# tiny experiment
nodes=30
subscriptions=5
protocol=simple_p2p
failure_rate_pct_per_min=4
duration_s=20
runs=2
seed=11
"""


@pytest.fixture
def cfg_file(tmp_path):
    path = tmp_path / "exp.cfg"
    path.write_text(BASE_CFG, encoding="utf-8")
    return path


def test_run_writes_tables_and_prints_summary(cfg_file, tmp_path, capsys):
    out_dir = tmp_path / "results"
    assert main(["run", "--config", str(cfg_file), "--out", str(out_dir)]) == 0
    for name in ("probes.csv", "failures.csv", "load.csv", "summary.csv"):
        assert (out_dir / name).exists()
    stdout = capsys.readouterr().out
    assert "nodes,rate_pct_per_min,protocol" in stdout
    assert "30,4.0,simple_p2p,2," in stdout
    header, *rows = (out_dir / "probes.csv").read_text().splitlines()
    assert header == "run,t,inconsistent_nodes"
    assert rows[0].startswith("0,2.0,")


def test_run_twice_is_byte_identical(cfg_file, tmp_path):
    a = tmp_path / "a"
    b = tmp_path / "b"
    main(["run", "--config", str(cfg_file), "--out", str(a)])
    main(["run", "--config", str(cfg_file), "--out", str(b)])
    for name in ("probes.csv", "failures.csv", "load.csv", "summary.csv"):
        assert (a / name).read_bytes() == (b / name).read_bytes()


def test_sweep_grid_cardinality(cfg_file, tmp_path, capsys):
    out_dir = tmp_path / "sweep"
    code = main(["sweep", "--config", str(cfg_file),
                 "--nodes", "20,30", "--rates", "2,20",
                 "--protocol", "simple_p2p,transitive_p2p",
                 "--runs", "1", "--duration", "15", "--seed", "42",
                 "--out", str(out_dir)])
    assert code == 0
    summaries = read_summaries(out_dir / "summary.csv")
    assert len(summaries) == 8  # 2 sizes x 2 rates x 2 protocols
    for s in summaries:
        sub = out_dir / s.fingerprint()
        assert (sub / "probes.csv").exists()
    stdout = capsys.readouterr().out
    assert stdout.count("\n") == 9  # header + 8 rows


# SHA-256 of every file a small sweep writes (relative path -> digest), and
# of what it prints.  Recorded when ``hbsim sweep`` still kept every cell's
# runs until the end of the grid, before it wrote each cell as it finished.
GOLDEN_SWEEP_SHA256 = {
    "n100-r2-simple_p2p/failures.csv": "350a62e08e6eb4416b3e52e08424088d39ec3af035625774187b6247c7a281cd",
    "n100-r2-simple_p2p/load.csv": "1d9ee4fdc76d9dde25e4d6cd46af09909f16386c6f984b1b75e9f7710d23a10b",
    "n100-r2-simple_p2p/probes.csv": "fccc5478686034c85f5c4f095acedeaf1720e5368a084341ba97d46d3d3f13ed",
    "n100-r2-simple_p2p/summary.csv": "459fb08c287b274dc19a42c93b4336afb97f90fc13d8bd3c4878367009fbed97",
    "n100-r2-transitive_p2p/failures.csv": "350a62e08e6eb4416b3e52e08424088d39ec3af035625774187b6247c7a281cd",
    "n100-r2-transitive_p2p/load.csv": "147715eba31ca47c31ad11bc07c31a7d001011d782a3b35b06a110f32a853a7c",
    "n100-r2-transitive_p2p/probes.csv": "7a31f5c36c5652dc41229c785446fd9b390a9ddcebc084addc2b5200b51a9a63",
    "n100-r2-transitive_p2p/summary.csv": "d974d5a4526f89b8ec370f745a771d5872ef2c4eea313cf625a5f97be04c9620",
    "n100-r20-simple_p2p/failures.csv": "f046ee6aba10ad79a56b7f9c79f1a50bfe831558a6b22c0925376674ba141a44",
    "n100-r20-simple_p2p/load.csv": "e0970547997db29cdd7befb6281d20c06f562d128340f283298290edf13e498c",
    "n100-r20-simple_p2p/probes.csv": "985ef85daa251df37f0cd6d290474901e83ba404f6911f026538d4a8a92e16ea",
    "n100-r20-simple_p2p/summary.csv": "ae40bf834f6aff71d58d65d678db581891e1e0d37360bfabb4a046dea74699ad",
    "n100-r20-transitive_p2p/failures.csv": "65699f43b13e8c4484498d035f5bd171ecb557a4a7f6b78d73b90750aaf45904",
    "n100-r20-transitive_p2p/load.csv": "8122f59a4787448210802e4aa5f94464a0a9347b8e8bc67b0a67ac34832502e4",
    "n100-r20-transitive_p2p/probes.csv": "ec2e0c1cc65d00759bfd966f63940fed99499351edb6d5e90c1b95c5a8f3df64",
    "n100-r20-transitive_p2p/summary.csv": "8f7f40a1ba8d6a4286de6c8cbe1ff4a5fdce3afb8b125934d3ad5ae53496eaef",
    "n30-r2-simple_p2p/failures.csv": "0152aaabbc1f974ffec2bd49ad77ae986aacc0ab11f51cdc59b4a32a6686d02c",
    "n30-r2-simple_p2p/load.csv": "d274bf191a70468f145c49401e10cf29a37cbfb81835303d09fd9a2ee0031c84",
    "n30-r2-simple_p2p/probes.csv": "5743f5fcdd6696d7339fcf08b83715a40787d7820ceb7788d67ea0b6d994e990",
    "n30-r2-simple_p2p/summary.csv": "0174da6e3d3f367651b5b02a1bbab372648108b5a9c99068272d6da5fcab5fcb",
    "n30-r2-transitive_p2p/failures.csv": "0152aaabbc1f974ffec2bd49ad77ae986aacc0ab11f51cdc59b4a32a6686d02c",
    "n30-r2-transitive_p2p/load.csv": "d4487672a0b9e8e9886271babab90517a3c56e9a92672b36a97264d6bf1d2e24",
    "n30-r2-transitive_p2p/probes.csv": "5743f5fcdd6696d7339fcf08b83715a40787d7820ceb7788d67ea0b6d994e990",
    "n30-r2-transitive_p2p/summary.csv": "8e9bab4dbe2db3ea3f1b1531e3d5ba4eef47835385ea37df6512377038a74256",
    "n30-r20-simple_p2p/failures.csv": "820738e1811b1b85bffd18bf1160bd9249b021adb0c12bfaf035874cc98b51fb",
    "n30-r20-simple_p2p/load.csv": "390cab26c0efc435964f6025f2a46e9733b1110346e5dc26c01d3ab094fe5a00",
    "n30-r20-simple_p2p/probes.csv": "b5f452649de00fe906e50ab45e4bf70fe0b079fc9a7fea8947a3fdc66df2634e",
    "n30-r20-simple_p2p/summary.csv": "394b386d0150e8400d8a70bb1ce36fcdbe2da774ac998d594c5905b1fb284612",
    "n30-r20-transitive_p2p/failures.csv": "3a045643c2dea7263b6f4687b180af7a37a64e1ce0ef8bd4896430b8266e1525",
    "n30-r20-transitive_p2p/load.csv": "369ec30747f4d76eb58e83a4e2aab2e1e3eddef24e1917d8f0a8e574b68a4512",
    "n30-r20-transitive_p2p/probes.csv": "8a37292c9bbb9b1eadb508c5b5837a82769a5028cfc58a9e4f0e6350a2c098d1",
    "n30-r20-transitive_p2p/summary.csv": "0d39d6b108bd484453521fed1fb8f10deada726bcc84b722af2ef1fec569e64a",
    "summary.csv": "3bc433e6ba93be00728ff77c5e1d45935cddece5107cd9df93a1d7c2eee27848",
}
GOLDEN_SWEEP_STDOUT_SHA256 = "3bc433e6ba93be00728ff77c5e1d45935cddece5107cd9df93a1d7c2eee27848"

SMALL_SWEEP = ["sweep", "--nodes", "30,100", "--rates", "2,20",
               "--protocol", "simple_p2p,transitive_p2p", "--runs", "2",
               "--duration", "20", "--seed", "42"]


def file_digests(root):
    return {p.relative_to(root).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(root.rglob("*")) if p.is_file()}


def test_sweep_outputs_match_golden_bytes(tmp_path, capsys):
    out_dir = tmp_path / "sweep"
    assert main([*SMALL_SWEEP, "--workers", "2", "--out", str(out_dir)]) == 0
    assert file_digests(out_dir) == GOLDEN_SWEEP_SHA256
    stdout = capsys.readouterr().out
    assert hashlib.sha256(stdout.encode()).hexdigest() == GOLDEN_SWEEP_STDOUT_SHA256


def test_replay_reproduces_single_run(cfg_file, tmp_path):
    full = tmp_path / "full"
    main(["run", "--config", str(cfg_file), "--out", str(full)])
    replayed = tmp_path / "replay"
    assert main(["replay", "--config", str(cfg_file), "--run", "1",
                 "--out", str(replayed)]) == 0
    all_rows = read_probe_rows(full / "probes.csv")
    run1 = [(r, t, c) for r, t, c in all_rows if r == 1]
    assert read_probe_rows(replayed / "probes.csv") == run1


def test_replay_of_a_minus_zero_rate_prints_a_zero_rate(tmp_path, capsys):
    path = tmp_path / "zero.cfg"
    path.write_text("nodes=30\nruns=1\nduration_s=5\nfailure_rate_pct_per_min=-0\n",
                    encoding="utf-8")
    assert main(["replay", "--config", str(path), "--run", "0"]) == 0
    assert capsys.readouterr().out.splitlines()[1].startswith("30,0.0,simple_p2p,1,")


def test_replay_rejects_out_of_range_run(cfg_file, capsys):
    assert main(["replay", "--config", str(cfg_file), "--run", "7"]) == 1
    assert "outside" in capsys.readouterr().err


def test_plotdata_builds_three_tables(cfg_file, tmp_path):
    out_dir = tmp_path / "sweep"
    main(["sweep", "--config", str(cfg_file),
          "--nodes", "20,30", "--rates", "2,20", "--protocol", "simple_p2p",
          "--runs", "2", "--duration", "15", "--out", str(out_dir)])
    assert main(["plotdata", "--out", str(out_dir)]) == 0
    mean_ci = (out_dir / "plot_mean_ci.csv").read_text().splitlines()
    assert mean_ci[0] == "nodes,rate_pct_per_min,protocol,mean,ci95_halfwidth"
    assert len(mean_ci) == 5
    normalized = (out_dir / "plot_normalized.csv").read_text().splitlines()
    assert normalized[0] == "rate_pct_per_min,nodes,protocol,normalized_mean"
    # grouped by rate: both sizes of rate 2 precede rate 20
    assert [line.split(",")[0] for line in normalized[1:]] == ["2.0", "2.0", "20.0", "20.0"]
    series = (out_dir / "plot_probe_series.csv").read_text().splitlines()
    assert series[0] == "nodes,rate_pct_per_min,protocol,run,t,inconsistent_nodes"
    assert len(series) > 1


def test_bad_flags_exit_2(capsys):
    with pytest.raises(SystemExit) as err:
        main(["run", "--config"])  # missing value
    assert err.value.code == 2
    with pytest.raises(SystemExit) as err:
        main(["frobnicate"])
    assert err.value.code == 2


def test_config_error_reported_with_exit_1(tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_text("nodes=10\nsubscriptions=99\n", encoding="utf-8")
    assert main(["run", "--config", str(bad), "--out", str(tmp_path / "o")]) == 1
    assert "config error" in capsys.readouterr().err


def test_config_with_a_byte_order_mark_runs_as_without(cfg_file, tmp_path):
    marked = tmp_path / "marked.cfg"
    marked.write_text(BASE_CFG, encoding="utf-8-sig")
    assert marked.read_bytes().startswith(b"\xef\xbb\xbf")
    a = tmp_path / "a"
    b = tmp_path / "b"
    assert main(["run", "--config", str(cfg_file), "--out", str(a)]) == 0
    assert main(["run", "--config", str(marked), "--out", str(b)]) == 0
    for name in ("probes.csv", "failures.csv", "load.csv", "summary.csv"):
        assert (a / name).read_bytes() == (b / name).read_bytes()


def test_oversized_node_count_is_a_config_error(tmp_path, capsys):
    huge = tmp_path / "huge.cfg"
    huge.write_text("nodes=" + "9" * 400 + "\n", encoding="utf-8")
    assert main(["run", "--config", str(huge), "--out", str(tmp_path / "o")]) == 1
    assert "config error: line 1: nodes must be in [1, " in capsys.readouterr().err


def test_unknown_protocol_in_sweep(cfg_file, capsys):
    assert main(["sweep", "--config", str(cfg_file), "--nodes", "20",
                 "--rates", "1", "--protocol", "carrier_pigeon"]) == 2
    assert "unknown protocol" in capsys.readouterr().err


@pytest.mark.parametrize("option, value, what", [
    ("--nodes", "", "nodes"),
    ("--rates", ",", "rates"),
    ("--protocol", "", "protocols"),
], ids=["nodes", "rates", "protocol"])
def test_sweep_refuses_an_empty_grid_list(tmp_path, capsys, option, value, what):
    # an empty list would make a grid of no cells, which "succeeds" at once
    grid = {"--nodes": "20", "--rates": "1", "--protocol": "simple_p2p"} | {option: value}
    out_dir = tmp_path / "sweep"
    with pytest.raises(SystemExit) as err:
        main(["sweep", *itertools.chain(*grid.items()), "--out", str(out_dir)])
    assert err.value.code == 2
    assert f"argument {option}: empty {what} list: {value!r}" in capsys.readouterr().err
    assert not out_dir.exists()


R1_CLASH = "n20-r1-simple_p2p: (nodes=20, rate=1.0"


@pytest.mark.parametrize("grid, clash", [
    (["--nodes", "20", "--rates", "1,1.0000001", "--protocol", "simple_p2p"], R1_CLASH),
    (["--nodes", "20", "--rates", "1,1", "--protocol", "simple_p2p"], R1_CLASH),
    (["--nodes", "20,20", "--rates", "1", "--protocol", "simple_p2p"], R1_CLASH),
    # a signed zero is the same rate, not a second cell named r-0
    (["--nodes", "20", "--rates", "0,-0", "--protocol", "simple_p2p"],
     "n20-r0-simple_p2p: (nodes=20, rate=0.0"),
], ids=["rates-round-alike", "rate-twice", "size-twice", "zero-and-minus-zero"])
def test_sweep_refuses_cells_sharing_an_output_directory(cfg_file, tmp_path, capsys, grid, clash):
    out_dir = tmp_path / "sweep"
    assert main(["sweep", "--config", str(cfg_file), *grid, "--out", str(out_dir)]) == 2
    captured = capsys.readouterr()
    assert clash in captured.err
    assert captured.out == ""    # refused before any cell ran
    assert not out_dir.exists()


def test_sweep_names_only_the_clashing_cells(cfg_file, capsys):
    assert main(["sweep", "--config", str(cfg_file), "--nodes", "20",
                 "--rates", "1,1.0000001,2", "--protocol", "simple_p2p,transitive_p2p"]) == 2
    lines = capsys.readouterr().err.splitlines()
    assert lines[1:] == [
        "  n20-r1-simple_p2p: (nodes=20, rate=1.0, protocol=simple_p2p), "
        "(nodes=20, rate=1.0000001, protocol=simple_p2p)",
        "  n20-r1-transitive_p2p: (nodes=20, rate=1.0, protocol=transitive_p2p), "
        "(nodes=20, rate=1.0000001, protocol=transitive_p2p)",
    ]


@pytest.mark.parametrize("workers", ["0", "-2"])
@pytest.mark.parametrize("command", ["run", "sweep"])
def test_workers_below_one_exit_2(cfg_file, tmp_path, capsys, command, workers):
    argv = {"run": ["run", "--config", str(cfg_file), "--out", str(tmp_path / "o")],
            "sweep": ["sweep", "--config", str(cfg_file), "--nodes", "20", "--rates", "1",
                      "--protocol", "simple_p2p"]}[command]
    with pytest.raises(SystemExit) as err:
        main([*argv, f"--workers={workers}"])
    assert err.value.code == 2
    assert f"argument --workers: must be >= 1, got {workers}" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("workers", ["1", "2"])
@pytest.mark.parametrize("write", [True, False], ids=["out", "dry"])
def test_sweep_holds_one_cell_at_a_time(monkeypatch, tmp_path, workers, write):
    real = experiment.run_config
    earlier = []      # weak references to every RunOutput of finished cells
    starts = []

    def run_config(cfg, workers=None):
        gc.collect()
        starts.append(sum(ref() is not None for ref in earlier))
        outputs, summary = real(cfg, workers=workers)
        earlier.extend(weakref.ref(out) for out in outputs)
        return outputs, summary

    monkeypatch.setattr(experiment, "run_config", run_config)
    argv = [*SMALL_SWEEP, "--workers", workers]
    if write:
        argv += ["--out", str(tmp_path / "sweep")]
    assert main(argv) == 0
    assert len(starts) == 8 and len(earlier) == 16
    assert starts == [0] * 8   # no earlier cell's run is alive when a cell starts


def test_a_dead_worker_fails_only_its_own_cell(monkeypatch, tmp_path, capsys):
    real = experiment._run_task

    @functools.wraps(real)    # pickled by name, so pool workers find this one
    def run_task(payload):
        _, cfg, _ = payload
        if cfg.fingerprint() == "n30-r20-transitive_p2p":
            os._exit(1)
        return real(payload)

    monkeypatch.setattr(experiment, "_run_task", run_task)
    out_dir = tmp_path / "sweep"
    assert main([*SMALL_SWEEP, "--workers", "2", "--out", str(out_dir)]) == 1
    captured = capsys.readouterr()
    err = captured.err.splitlines()
    assert len(err) == 1
    assert err[0].startswith("hbsim: sweep config n30-r20-transitive_p2p failed: ")
    digests = file_digests(out_dir)
    expected = {name: digest for name, digest in GOLDEN_SWEEP_SHA256.items()
                if "/" in name and not name.startswith("n30-r20-transitive_p2p/")}
    assert {name: digests[name] for name in digests if "/" in name} == expected
    # the combined table lists every other cell, in grid order, with the
    # row that cell's own (golden) summary.csv holds
    cells = ["n30-r2-simple_p2p", "n30-r2-transitive_p2p", "n30-r20-simple_p2p",
             "n100-r2-simple_p2p", "n100-r2-transitive_p2p",
             "n100-r20-simple_p2p", "n100-r20-transitive_p2p"]
    rows = [(out_dir / cell / "summary.csv").read_text(encoding="utf-8").splitlines()
            for cell in cells]
    combined = (out_dir / "summary.csv").read_text(encoding="utf-8").splitlines()
    assert combined == [rows[0][0]] + [row[1] for row in rows]
    assert captured.out.splitlines() == combined


def test_python_m_hbsim_runs_the_command_line(tmp_path):
    env = dict(os.environ)
    src = str(Path(hbsim.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))

    def hbsim_module(*args):
        return subprocess.run([sys.executable, "-m", "hbsim", *args], env=env, cwd=tmp_path,
                              capture_output=True, text=True, timeout=120)

    proc = hbsim_module("--help")
    assert proc.returncode == 0, proc.stderr
    assert "run" in proc.stdout and "sweep" in proc.stdout
    cfg_path = tmp_path / "exp.cfg"
    cfg_path.write_text("nodes=20\nduration_s=10\nruns=1\nfailure_rate_pct_per_min=5\n",
                        encoding="utf-8")
    proc = hbsim_module("run", "--config", str(cfg_path), "--out", "results", "--workers", "1")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("nodes,rate_pct_per_min,protocol")
    for name in ("probes.csv", "failures.csv", "load.csv", "summary.csv"):
        assert (tmp_path / "results" / name).is_file()
