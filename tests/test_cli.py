import pytest

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


def test_replay_reproduces_single_run(cfg_file, tmp_path):
    full = tmp_path / "full"
    main(["run", "--config", str(cfg_file), "--out", str(full)])
    replayed = tmp_path / "replay"
    assert main(["replay", "--config", str(cfg_file), "--run", "1",
                 "--out", str(replayed)]) == 0
    all_rows = read_probe_rows(full / "probes.csv")
    run1 = [(r, t, c) for r, t, c in all_rows if r == 1]
    assert read_probe_rows(replayed / "probes.csv") == run1


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


def test_unknown_protocol_in_sweep(cfg_file, capsys):
    assert main(["sweep", "--config", str(cfg_file), "--nodes", "20",
                 "--rates", "1", "--protocol", "carrier_pigeon"]) == 2
    assert "unknown protocol" in capsys.readouterr().err


@pytest.mark.parametrize("grid", [
    ["--nodes", "20", "--rates", "1,1.0000001", "--protocol", "simple_p2p"],
    ["--nodes", "20", "--rates", "1,1", "--protocol", "simple_p2p"],
    ["--nodes", "20,20", "--rates", "1", "--protocol", "simple_p2p"],
], ids=["rates-round-alike", "rate-twice", "size-twice"])
def test_sweep_refuses_cells_sharing_an_output_directory(cfg_file, tmp_path, capsys, grid):
    out_dir = tmp_path / "sweep"
    assert main(["sweep", "--config", str(cfg_file), *grid, "--out", str(out_dir)]) == 2
    captured = capsys.readouterr()
    assert "n20-r1-simple_p2p: (nodes=20, rate=1.0" in captured.err
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
