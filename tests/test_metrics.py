import pytest

from shardgraph.config import ScenarioConfig
from shardgraph.metrics import (
    MetricsError,
    MetricsReport,
    analytic_comm_cost,
    analytic_comm_cost_sharded,
    analytic_cross_cost,
    analytic_replica_count,
)
from shardgraph.simulation import run_scenario


def test_comm_cost_values():
    assert analytic_comm_cost(100, 1000, 1) == pytest.approx(990)
    assert analytic_comm_cost(1, 1000, 1) == 0
    assert analytic_comm_cost(100, 1000, 0) == 0
    with pytest.raises(MetricsError):
        analytic_comm_cost(0, 1, 1)


def test_sharded_comm_cost_values():
    assert analytic_comm_cost_sharded(100, 10, 1000, 1) == pytest.approx(90)
    assert analytic_comm_cost_sharded(100, 1, 1000, 1) == analytic_comm_cost(
        100, 1000, 1
    )
    assert analytic_comm_cost_sharded(64, 64, 1000, 1) == 0
    with pytest.raises(MetricsError):
        analytic_comm_cost_sharded(100, 0, 1000, 1)
    # s need not divide n: committees hold n/s members on average
    assert analytic_comm_cost_sharded(100, 7, 1000, 1) == pytest.approx(
        (100 / 7 - 1) * 10)


@pytest.mark.parametrize("n", [14, 30])
def test_comm_row_holds_when_s_does_not_divide_n(n):
    # unbalanced committees of n // s or n // s + 1 members: the row reads
    # the drift of a balanced run (n=16 s=4: +0.136), not the unsharded
    # (n - 1)(T/n)E, which is off by -0.77
    cfg = ScenarioConfig(n=n, s=4, seed=3, duration=40, tx_rate=2.0 * n)
    report = run_scenario(cfg)
    (row,) = [r for r in report.comparison if r["quantity"] == "comm_per_node"]
    assert abs(row["relative_deviation"]) < 0.25


def test_cross_cost_values():
    assert analytic_cross_cost(0, 1) == 0
    assert analytic_cross_cost(50, 1) == 50
    assert analytic_cross_cost(50, 2) == 2 * analytic_cross_cost(50, 1)


def test_replica_count_values():
    assert analytic_replica_count(100, 10) == 19
    assert analytic_replica_count(64, 1) == 64
    assert analytic_replica_count(8, 8) == 8
    with pytest.raises(MetricsError):
        analytic_replica_count(10, 0)


def test_report_counters_monotone():
    r = MetricsReport(duration=10)
    r.add_comm(1, 5)
    r.add_comm(1, 3)
    assert r.per_node_comm[1] == 8
    r.total_events = 10
    r.empty_events = 2
    assert r.empty_event_fraction == pytest.approx(0.2)
