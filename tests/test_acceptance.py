"""End-to-end acceptance checks.

Each test prints one PASS/FAIL line (visible with pytest -s) and asserts the
corresponding property at its stated tolerance.
"""

import sys
import time
from pathlib import Path

import pytest

from shardgraph.config import ScenarioConfig
from shardgraph.hashgraph import consensus_order
from shardgraph.metrics import mean
from shardgraph.simulation import Simulation, run_scenario

from oracles import (
    BruteGraph,
    ancestry,
    engine_ancestry,
    fame_of,
    records,
    report_text,
    round_robin_fixture,
    strongly_seen,
    witness_flags,
)

# reorg_log entries replay through the benchmark's own output check
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

from workloads import _replay  # noqa: E402


def verdict(num, ok, text):
    print(f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {text}")
    return ok


@pytest.fixture(scope="module")
def comm_grid():
    """n=64 sweep over s with a steady workload (about 3 txs per node per
    tick keeps the empty-event fraction well under 0.1)."""
    runs = {}
    for s in (1, 2, 4, 8):
        cfg = ScenarioConfig(n=64, s=s, seed=11, duration=100, tx_rate=192.0,
                             cross_ratio=0.0, inject_until=100)
        t0 = time.monotonic()
        sim = Simulation(cfg)
        report = sim.run()
        runs[s] = (sim, report, time.monotonic() - t0)
    return runs


def test_criterion_1_comm_formula(comm_grid):
    ok = True
    details = []
    for s, (sim, report, elapsed) in sorted(comm_grid.items()):
        row = next(
            r for r in report.comparison if r["quantity"] == "comm_per_node"
        )
        dev = row["relative_deviation"]
        frac = report.metrics.empty_event_fraction
        point_ok = abs(dev) <= 0.15 and frac < 0.1 and elapsed < 60
        ok = ok and point_ok
        details.append(f"s={s} dev={dev:+.3f} empty={frac:.3f} {elapsed:.1f}s")
    assert verdict(
        1, ok, "per-node comm within 15% of (n/s-1)(T/n)E: " + "; ".join(details)
    )


def test_criterion_2_storage_ratio(comm_grid):
    def noncoord_storage(s):
        sim, report, _ = comm_grid[s]
        return mean(
            v
            for node, v in report.metrics.per_node_storage.items()
            if node not in sim.state.seated
        )

    ratio = noncoord_storage(8) / noncoord_storage(1)
    ok = 0.085 <= ratio <= 0.165
    assert verdict(2, ok, f"storage ratio s=8/s=1 = {ratio:.4f} in [0.085, 0.165]")


def test_criterion_3_replica_count():
    cfg = ScenarioConfig(n=100, s=10, seed=21, duration=60, tx_rate=100.0,
                         checkpoint_period=2)
    report = run_scenario(cfg)
    counts = report.metrics.replica_counts
    ok = (
        report.checkpoint_count >= 1
        and len(counts) == 10
        and all(v == 19 for v in counts.values())
    )
    assert verdict(
        3, ok,
        f"{report.checkpoint_count} checkpoints, holder counts "
        f"{sorted(set(counts.values()))} (want exactly 19)",
    )


def test_criterion_4_equivocator_safety():
    ok = True
    checked = 0
    for seed in range(20):
        cfg = ScenarioConfig(n=14, s=2, seed=100 + seed, duration=50,
                             tx_rate=10.0, adversary_kind="equivocator",
                             adversary_fraction=0.1, adversary_interval=5)
        sim = Simulation(cfg)
        report = sim.run()
        forkers = {
            creator
            for cid in report.forks
            for creator, _, _ in report.forks[cid]
        }
        ok = ok and forkers == set(sim.equivocators) and bool(forkers)
        for cid in sorted(sim.table.coordinators):
            members = sim.table.members(cid)
            ok = ok and len(members) >= 7
            honest = [m for m in members if m not in sim.equivocators]
            orders = [consensus_order(sim.views[m]) for m in honest]
            longest = max(orders, key=len)
            ok = ok and bool(longest)
            ok = ok and all(o == longest[: len(o)] for o in orders)
        checked += 1
    assert verdict(
        4, ok,
        f"{checked} seeded runs, committees of 7 with one equivocator: "
        "honest order prefixes identical, forker always reported",
    )


CROSS_SCENARIOS = [
    ScenarioConfig(n=64, s=8, seed=31, duration=100, tx_rate=64.0,
                   cross_ratio=0.2),
    ScenarioConfig(n=32, s=4, seed=7, duration=80, tx_rate=32.0,
                   cross_ratio=0.1),
    ScenarioConfig(n=16, s=2, seed=9, duration=60, tx_rate=16.0,
                   cross_ratio=0.3),
]


def test_criterion_5_cross_exactly_once():
    ok = True
    details = []
    for cfg in CROSS_SCENARIOS:
        report = run_scenario(cfg)
        audit = report.tx_audit
        scenario_ok = (
            audit["injected_cross"] > 0
            and audit["missing_count"] == 0
            and audit["duplicate_count"] == 0
            and audit["ordered_exactly_once"] == audit["injected_cross"]
        )
        ok = ok and scenario_ok
        details.append(
            f"n={cfg.n},s={cfg.s}: {audit['ordered_exactly_once']}/"
            f"{audit['injected_cross']}"
        )
    assert verdict(
        5, ok, "cross-shard txs ordered exactly once: " + "; ".join(details)
    )


def test_criterion_6_oracle_equivalence():
    ok = True
    pairs = 0
    for size in ((4, 3), (4, 5)):
        graph, events = round_robin_fixture(*size)
        assert len(events) <= 20
        store = graph.store
        assert records(store) == events
        oracle = BruteGraph(store.population, events)
        rounds, witness, _ = oracle.rounds()
        ok = ok and list(store.round) == [rounds[e.digest] for e in events]
        ok = ok and witness_flags(store) == [witness[e.digest] for e in events]
        store.elect_fame()
        ok = ok and {
            events[w].digest: f for w, f in fame_of(store).items()
        } == oracle.fame()
        got = [
            (o.event_id, o.round_received, o.consensus_timestamp)
            for o in consensus_order(graph)
        ]
        ok = ok and got == oracle.order()
        anc = ancestry(store)
        for i, a in enumerate(events):
            ok = ok and engine_ancestry(store, i) in (None, anc[i])
            for j, b in enumerate(events):
                ok = ok and bool(anc[i] >> j & 1) == oracle.is_ancestor(
                    a.digest, b.digest
                )
            # strong sight is consulted toward the witnesses of round(a) - 1
            # and round(a)
            for r in (store.round[i] - 1, store.round[i]):
                seen = strongly_seen(store, i, r)
                for w in store.witnesses_by_round.get(r, ()):
                    pairs += 1
                    b = events[w].digest
                    ok = ok and (w in seen) == (
                        oracle.is_ancestor(a.digest, b)
                        and oracle.strongly_sees(a.digest, b)
                    )
    ok = ok and pairs == 57 + 124
    assert verdict(
        6, ok,
        "rounds, fame, order, ancestry, strong seeing toward witnesses match "
        f"brute force on gossiped 4-node DAGs ({pairs} witness pairs)",
    )


def test_criterion_7_reconfiguration():
    cfg = ScenarioConfig(n=30, s=3, seed=8, duration=200, tx_rate=10.0,
                         adversary_kind="churn", adversary_committee=1,
                         adversary_interval=4)
    sim = Simulation(cfg)
    report = sim.run()
    applied = [a for a in report.action_log if a["action"] == "reorg_applied"]
    ok = bool(applied)
    ok = ok and any(
        a["action"] == "reorg_requested" for a in report.action_log
    )
    for a in applied:
        ok = ok and int(a["sizes"][str(a["committee"])]) >= cfg.min_committee_size
    try:
        sim.table.validate()
    except Exception:
        ok = False
    replayed = sum(_replay(entry, cfg.s) for entry in report.reorg_log)
    ok = ok and replayed == len(report.reorg_log) >= 3
    assert verdict(
        7, ok,
        f"churn-triggered reorg: partition valid, rebuilt size >= "
        f"{cfg.min_committee_size}, {replayed} logged selections replay exactly",
    )


def test_criterion_8_shard_failure_recovery():
    cfg = ScenarioConfig(n=20, s=2, seed=6, duration=120, tx_rate=10.0,
                         checkpoint_period=2,
                         adversary_kind="shard_failure",
                         adversary_committee=1,
                         adversary_fail_at=60, adversary_recover_delay=15)
    report = run_scenario(cfg)
    rec = next(
        (e for e in report.recovery_log if e["action"] == "recover_shard"),
        None,
    )
    ok = rec is not None and not report.anomalies
    if ok:
        ckpt = rec["checkpointed_order"]
        post = report.consensus[1]
        ok = bool(ckpt) and post[: len(ckpt)] == ckpt
    assert verdict(
        8, ok,
        "post-recovery order preserves the checkpointed pre-failure prefix "
        "exactly",
    )


def test_criterion_9_determinism():
    ok = True
    for cfg in (
        CROSS_SCENARIOS[2],
        ScenarioConfig(n=14, s=2, seed=104, duration=50, tx_rate=10.0,
                       adversary_kind="equivocator", adversary_fraction=0.1),
    ):
        a = report_text(run_scenario(cfg))
        b = report_text(run_scenario(cfg))
        ok = ok and a == b
    assert verdict(9, ok, "identical configs produce byte-identical reports")
