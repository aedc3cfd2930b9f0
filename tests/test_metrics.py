import pytest

from shardgraph import simulation
from shardgraph.config import ScenarioConfig
from shardgraph.hashgraph import Transfer
from shardgraph.metrics import (
    MetricsError,
    MetricsReport,
    ROWS,
    analytic_comm_cost_sharded,
    analytic_replica_count,
)
from shardgraph.sharding import ReplicaSnapshot
from shardgraph.simulation import run_scenario


def closed_form(quantity, n=1, s=1, T=0.0, T_cross=0.0, E=1.0):
    """The closed form of the ROWS entry for quantity at these inputs."""
    (row,) = [r for r in ROWS if r.quantity == quantity]
    return row.analytic(n, s, T, T_cross, E)


def test_comm_cost_values():
    # the unsharded (n - 1)(T/n)E is the s = 1 case, whatever s is given
    assert analytic_comm_cost_sharded(100, 1, 1000, 1) == pytest.approx(990)
    assert analytic_comm_cost_sharded(1, 1, 1000, 1) == 0
    assert analytic_comm_cost_sharded(100, 1, 1000, 0) == 0
    assert closed_form("comm_per_node_unsharded", 100, 10,
                       T=1000) == pytest.approx(990)
    with pytest.raises(MetricsError):
        analytic_comm_cost_sharded(0, 1, 1, 1)


def test_sharded_comm_cost_values():
    assert analytic_comm_cost_sharded(100, 10, 1000, 1) == pytest.approx(90)
    assert closed_form("comm_per_node", 100, 10, T=1000) == pytest.approx(90)
    assert closed_form("comm_per_node", 100, 1, T=1000) == closed_form(
        "comm_per_node_unsharded", 100, 10, T=1000)
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
    assert closed_form("cross_send_cost", T_cross=0, E=1) == 0
    assert closed_form("cross_send_cost", T_cross=50, E=1) == 50
    assert closed_form("cross_send_cost", T_cross=50, E=2) == 2 * closed_form(
        "cross_send_cost", T_cross=50, E=1)


def test_replica_count_values():
    assert analytic_replica_count(100, 10) == 19
    assert analytic_replica_count(64, 1) == 64
    assert analytic_replica_count(8, 8) == 8
    with pytest.raises(MetricsError):
        analytic_replica_count(10, 0)
    assert closed_form("replica_count", 100, 10) == 19


def test_report_counters_monotone():
    r = MetricsReport(duration=10)
    r.add_comm(1, 5)
    r.add_comm(1, 3)
    assert r.per_node_comm[1] == 8
    r.total_events = 10
    r.empty_events = 2
    assert r.empty_event_fraction == pytest.approx(0.2)


# -- faults a comparison row can and cannot see --------------------------------


def rows(config):
    """The run's comparison rows by quantity."""
    return {r["quantity"]: r for r in run_scenario(config).comparison}


def test_comm_row_fails_when_syncs_count_their_units_twice(monkeypatch):
    # the row reads +0.031 on this run, and +1.06 with every sync's sent
    # units counted twice: the fault is far outside the tolerance
    cfg = ScenarioConfig(n=32, s=2, seed=3, duration=40, tx_rate=64)
    row = rows(cfg)["comm_per_node"]
    assert row["relative_deviation"] == pytest.approx(0.031, abs=1e-3)
    assert row["within_tolerance"]
    add_syncs = MetricsReport.add_syncs
    monkeypatch.setattr(MetricsReport, "add_syncs", lambda self, nodes, sent,
                        made: add_syncs(self, nodes, [2 * u for u in sent],
                                        made))
    row = rows(cfg)["comm_per_node"]
    assert row["relative_deviation"] == pytest.approx(1.06, abs=0.01)
    assert not row["within_tolerance"]


# a cross-shard run with a checkpoint every other tick: its cross_send_cost
# row reads 1.95 against 1.95 and its replica_count row 9 against 9
CROSS = ScenarioConfig(n=16, s=2, seed=3, duration=40, tx_rate=16,
                       cross_ratio=0.3, checkpoint_period=2)


@pytest.mark.xfail(strict=True, reason="cross_send_cost reads the injected "
                   "cross rate, not what the coordinators relay")
def test_cross_row_fails_when_coordinators_relay_each_tx_twice(monkeypatch):
    ingest = simulation.coordinator_ingest_local

    def twice(state, table, committee, payloads):
        payloads = list(payloads)
        ingest(state, table, committee, payloads)
        ingest(state, table, committee, payloads)

    monkeypatch.setattr(simulation, "coordinator_ingest_local", twice)
    report = run_scenario(CROSS)
    assert report.tx_audit["duplicate_count"] == 78
    row = {r["quantity"]: r for r in report.comparison}["cross_send_cost"]
    assert not row["within_tolerance"]


@pytest.mark.xfail(strict=True, reason="replica_count counts the holders of "
                   "a replica, not what the replica holds")
def test_replica_row_fails_when_replicas_hold_nothing(monkeypatch):
    replicate, held = simulation.replicate_checkpoint, []

    def emptied(state, committee, source):
        replicate(state, committee, source)
        if committee in state.replicas:
            held.append(len(state.replicas[committee].events))
            state.replicas[committee] = ReplicaSnapshot(
                state.replicas[committee].population,
                Transfer(source.store, 0), 0)

    monkeypatch.setattr(simulation, "replicate_checkpoint", emptied)
    row = rows(CROSS)["replica_count"]
    assert held and min(held) > 0
    assert not row["within_tolerance"]


# each ROWS entry with a closed form and a measured side -> the test of a
# fault that its row must see, so no row lands without a killing mutant
ROW_MUTANTS = {
    "comm_per_node":
        test_comm_row_fails_when_syncs_count_their_units_twice,
    "cross_send_cost":
        test_cross_row_fails_when_coordinators_relay_each_tx_twice,
    "replica_count": test_replica_row_fails_when_replicas_hold_nothing,
}


def test_every_compared_row_has_a_killing_mutant():
    assert set(ROW_MUTANTS) == {
        r.quantity for r in ROWS
        if r.analytic is not None and r.measured is not None}
