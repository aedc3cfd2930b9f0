import json

import pytest

import shardgraph.cli
from shardgraph.cli import main
from shardgraph.sharding import ReplicaSnapshot


def run_cli(*argv):
    return main(list(argv))


def test_formulas_table(capsys):
    assert run_cli("formulas", "-n", "100", "-s", "10",
                   "--throughput", "1000", "--cross-throughput", "50") == 0
    assert capsys.readouterr().out.splitlines() == [
        "comm_per_node_unsharded  990",
        "comm_per_node            90",
        "cross_send_cost          50",
        "replica_count            19",
        "storage_ratio            0.1",
    ]


def test_formulas_s1_reduction(capsys):
    assert run_cli("formulas", "-n", "100", "-s", "1") == 0
    lines = dict(
        line.split(None, 1) for line in capsys.readouterr().out.splitlines()
    )
    assert lines["comm_per_node_unsharded"] == lines["comm_per_node"]


def test_formulas_zero_event_size(capsys):
    assert run_cli("formulas", "-n", "100", "-s", "10",
                   "--event-size", "0") == 0
    lines = dict(
        line.split(None, 1) for line in capsys.readouterr().out.splitlines()
    )
    assert float(lines["comm_per_node_unsharded"]) == 0
    assert lines["replica_count"] == "19"


def test_formulas_invalid_params(capsys):
    assert run_cli("formulas", "-n", "100", "-s", "7") == 2
    assert "s to divide n" in capsys.readouterr().err
    for args, error in [(("-n", "0"), "n must be >= 1"),
                        (("-s", "0"), "s must be >= 1"),
                        (("-s", "-2"), "s must be >= 1"),
                        (("--throughput", "-1000", "--event-size", "-1"),
                         "throughput must be finite and >= 0"),
                        (("--throughput", "nan"),
                         "throughput must be finite and >= 0"),
                        (("--cross-throughput", "-0.5"),
                         "cross_throughput must be finite and >= 0"),
                        (("--cross-throughput", "inf"),
                         "cross_throughput must be finite and >= 0"),
                        (("--event-size", "-1"),
                         "event_size must be finite and >= 0"),
                        (("--event-size", "nan"),
                         "event_size must be finite and >= 0")]:
        assert run_cli("formulas", *args) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and error in err


def test_run_minimal(tmp_path, capsys):
    code = run_cli(
        "run", "--out", str(tmp_path),
        "--set", "n=6", "--set", "s=2", "--set", "duration=20",
        "--set", "tx_rate=6",
    )
    assert code == 0
    # the model has no coordinator term
    assert "comm_per_coordinator: analytic=n/a measured=" in (
        capsys.readouterr().out
    )
    out = tmp_path / "run"
    assert (out / "report.json").is_file()
    assert (out / "per_node_metrics.csv").is_file()
    assert (out / "formula_comparison.csv").is_file()
    assert (out / "cross_latency_histogram.csv").is_file()


def test_run_config_file_and_override(tmp_path, capsys):
    cfg = tmp_path / "scenario.cfg"
    cfg.write_text("n = 6\ns = 2\nduration = 15\ntx_rate = 6\n")
    assert run_cli("run", "--config", str(cfg), "--out", str(tmp_path),
                   "--set", "seed=5") == 0


def test_run_rejects_n_less_than_s(tmp_path, capsys):
    code = run_cli("run", "--out", str(tmp_path), "--set", "n=2", "--set", "s=4")
    assert code == 2
    assert "n must be >= s" in capsys.readouterr().err


def test_run_rejects_unknown_key(tmp_path, capsys):
    code = run_cli("run", "--out", str(tmp_path), "--set", "frobnicate=1")
    assert code == 2
    assert "frobnicate" in capsys.readouterr().err


def test_run_malformed_config_names_line(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("n = 6\nwat\n")
    assert run_cli("run", "--config", str(cfg), "--out", str(tmp_path)) == 2
    assert "line 2" in capsys.readouterr().err


def test_run_missing_config_is_io_error(tmp_path, capsys):
    assert run_cli("run", "--config", str(tmp_path / "nope.cfg"),
                   "--out", str(tmp_path)) == 3


def test_run_deterministic_reports(tmp_path):
    # 12 gossip rounds of injection, each cross transaction ordered once
    args = ["--set", "n=8", "--set", "s=2", "--set", "duration=40",
            "--set", "inject_until=12", "--set", "tx_rate=8",
            "--set", "cross_ratio=0.2"]
    assert run_cli("run", "--out", str(tmp_path / "a"), *args) == 0
    assert run_cli("run", "--out", str(tmp_path / "b"), *args) == 0
    a = (tmp_path / "a" / "run" / "report.json").read_bytes()
    b = (tmp_path / "b" / "run" / "report.json").read_bytes()
    assert a == b
    assert json.loads(a)["tx_audit"]["ordered_exactly_once"] >= 12


def test_run_warns_when_the_drain_window_leaves_little_injection(
        tmp_path, capsys):
    # at d=25 the cross latency's drain window leaves injection one tick; a
    # longer run injects for 36 ticks and keeps every cross transaction
    # ordered exactly once
    args = ["--set", "n=8", "--set", "s=2", "--set", "tx_rate=8",
            "--set", "cross_ratio=0.2"]
    assert run_cli("run", "--out", str(tmp_path), *args,
                   "--set", "duration=25") == 0
    assert ("warning: the automatic drain window leaves injection 1 of 25 "
            "ticks") in capsys.readouterr().err
    assert run_cli("sweep", "--out", str(tmp_path), *args,
                   "--sweep", "duration=25,60") == 0
    err = capsys.readouterr().err
    assert "duration=25: warning" in err
    assert "duration=60" not in err


def test_sweep_grid(tmp_path):
    code = run_cli(
        "sweep", "--out", str(tmp_path),
        "--set", "n=16", "--set", "duration=20", "--set", "tx_rate=16",
        "--sweep", "s=1,2,4,8",
    )
    assert code == 0
    combined = (tmp_path / "sweep" / "combined.csv").read_text().splitlines()
    values = {line.split(",")[1] for line in combined[1:]}
    assert values == {"1", "2", "4", "8"}
    for v in ("1", "2", "4", "8"):
        assert (tmp_path / "sweep" / f"s-{v}" / "report.json").is_file()


def test_sweep_empty_grid(tmp_path, capsys):
    assert run_cli("sweep", "--out", str(tmp_path), "--sweep", "s=") == 2
    assert "empty sweep" in capsys.readouterr().err


def test_sweep_keeps_runs_exactly_once_check(tmp_path, capsys):
    # the cross traffic outruns the drain window at cross_ratio 0.6: run
    # and sweep both exit 4, and sweep still writes every point's rows
    base = ["--set", "n=8", "--set", "s=4", "--set", "duration=20",
            "--set", "tx_rate=24", "--set", "seed=3"]
    assert run_cli("run", "--out", str(tmp_path), *base,
                   "--set", "cross_ratio=0.6") == 4
    assert run_cli("sweep", "--out", str(tmp_path), *base,
                   "--sweep", "cross_ratio=0,0.6") == 4
    err = capsys.readouterr().err
    assert "cross_ratio=0.6: cross-shard exactly-once violated" in err
    assert "cross_ratio=0:" not in err
    combined = (tmp_path / "sweep" / "combined.csv").read_text().splitlines()
    assert {line.split(",")[1] for line in combined[1:]} == {"0", "0.6"}


@pytest.mark.parametrize("kind,count,code", [
    ("churn", "missing_count", 0), ("churn", "duplicate_count", 4),
    ("shard_failure", "missing_count", 0),
    ("shard_failure", "duplicate_count", 4),
])
def test_run_fails_a_duplicate_under_every_adversary(
        tmp_path, capsys, monkeypatch, kind, count, code):
    # churn and shard failure may lose transactions in events that are
    # never ordered, but no adversary excuses one ordered twice
    run = shardgraph.cli.run_scenario

    def audited(config):
        report = run(config)
        report.tx_audit[count] += 1
        return report

    monkeypatch.setattr(shardgraph.cli, "run_scenario", audited)
    assert run_cli("run", "--out", str(tmp_path), "--set", "n=8",
                   "--set", "s=2", "--set", "duration=40",
                   "--set", f"adversary.kind={kind}") == code
    violated = "exactly-once violated for 1 transactions"
    assert (violated in capsys.readouterr().err) == bool(code)


def test_a_diverged_recovery_fails_run_and_sweep(
        tmp_path, capsys, monkeypatch):
    # a replica that does not replay to its checkpointed order, here one
    # that starts one entry late, is an invariant failure, not an anomaly:
    # run exits 4 and sweep counts the point failed
    monkeypatch.setattr(ReplicaSnapshot, "consensus", property(
        lambda r: r.events.store.consensus[1:r.length + 1]))
    base = ["--set", "n=8", "--set", "s=2", "--set", "duration=40",
            "--set", "checkpoint_period=2",
            "--set", "adversary.kind=shard_failure"]
    assert run_cli("run", "--out", str(tmp_path), *base) == 4
    assert run_cli("sweep", "--out", str(tmp_path), *base,
                   "--sweep", "seed=1,2") == 4
    err = capsys.readouterr().err
    assert err.count("replica replay diverged from checkpoint order") == 3
    assert not (tmp_path / "sweep" / "seed-1").exists()


def test_sweep_rejects_a_bad_point_before_running_any(tmp_path, capsys):
    assert run_cli("sweep", "--out", str(tmp_path), "--set", "n=8",
                   "--sweep", "s=2,0") == 2
    assert "s must be >= 1" in capsys.readouterr().err
    assert not (tmp_path / "sweep").exists()
    # a repeated point would run twice, into one directory or two
    for grid, seen, value in (("seed=1,2,1", "1", "1"),
                              ("seed=1,01", "1", "01")):
        assert run_cli("sweep", "--out", str(tmp_path), "--set", "n=8",
                       "--set", "s=2", "--sweep", grid) == 2
        assert (f"sweep values {seen!r} and {value!r} give one point"
                in capsys.readouterr().err)
        assert not (tmp_path / "sweep").exists()
