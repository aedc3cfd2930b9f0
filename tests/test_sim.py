import hashlib
import json
import math
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import shardgraph.simulation
from shardgraph.config import ConfigError, ScenarioConfig
from shardgraph.hashgraph import (
    EventStore,
    Order,
    OrderedEvent,
    consensus_order,
    decided_length,
)
from shardgraph.metrics import mean
from shardgraph.simulation import (
    Simulation,
    SimulationError,
    inject_workload,
    order_summary,
    poisson_sample,
    run_scenario,
    write_report,
)
from shardgraph.sharding import ReplicaSnapshot, partition_nodes
from shardgraph.transactions import KIND_PAYLOAD, control_tx

from oracles import (
    ancestry,
    creator_masks,
    event,
    exit_committee,
    forkers,
    held_payloads,
    hook,
    id_column,
    inject,
    new_record,
    on_enter,
    on_reselect,
    order_columns,
    record_of,
    records,
    report_text,
    set_bits,
    tick,
    walk_position,
)
from test_golden import GOLDEN

# reorg_log entries replay through the benchmark's own output check
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

from workloads import _replay, scenario  # noqa: E402


def small_cfg(**kw):
    base = dict(n=8, s=2, seed=3, duration=30, tx_rate=8.0)
    base.update(kw)
    return ScenarioConfig(**base)


# -- primitives -------------------------------------------------------------


def recursive_poisson(rng, lam):
    """Knuth's method as first written: a recursive call per chunk of 30
    while the rate exceeds 30, then one chunk of what is left."""
    count = 0
    while lam > 30:
        count += recursive_poisson(rng, 30)
        lam -= 30
    if lam <= 0:
        return count
    limit = math.exp(-lam)
    p = 1.0
    while True:
        p *= rng.random()
        if p <= limit:
            return count
        count += 1


def test_poisson_mean_and_determinism():
    rng = random.Random(0)
    samples = [poisson_sample(rng, 5.0) for _ in range(2000)]
    assert abs(mean(samples) - 5.0) < 0.2
    rng2 = random.Random(0)
    assert samples == [poisson_sample(rng2, 5.0) for _ in range(2000)]
    assert poisson_sample(random.Random(1), 0.0) == 0
    # chunked path for large rates must not hang or underflow
    assert poisson_sample(random.Random(2), 200.0) > 100
    # at and around the chunk boundaries the loop draws the numbers the
    # recursion drew: the same counts, and the stream left where it was
    for lam in (0, 0.5, 5.0, 29.5, 30, 30.5, 60, 256):
        ours, ref = random.Random(7), random.Random(7)
        got = [poisson_sample(ours, lam) for _ in range(50)]
        assert got == [recursive_poisson(ref, lam) for _ in range(50)]
        assert ours.getstate() == ref.getstate()


def test_inject_workload_cross_fraction():
    cfg = ScenarioConfig(n=20, s=4, seed=1, cross_ratio=0.3, tx_rate=100.0)
    table = partition_nodes(range(20), 4, seed=1)
    rng = random.Random(5)
    txs = []
    while len(txs) < 10_000:
        txs.extend(inject_workload(cfg, rng, table, set(), 0))
    cross = sum(1 for _, tx in txs if tx.origin != tx.target)
    assert abs(cross / len(txs) - 0.3) < 0.02


def test_inject_workload_extremes():
    table = partition_nodes(range(8), 2, seed=1)
    rng = random.Random(5)
    cfg0 = ScenarioConfig(n=8, s=2, cross_ratio=0.0, tx_rate=50.0)
    assert all(tx.origin == tx.target
               for _, tx in inject_workload(cfg0, rng, table, set(), 0))
    cfg1 = ScenarioConfig(n=8, s=2, cross_ratio=1.0, tx_rate=50.0)
    assert all(tx.origin != tx.target
               for _, tx in inject_workload(cfg1, rng, table, set(), 0))


def test_inject_workload_skips_down_committees():
    table = partition_nodes(range(8), 2, seed=1)
    cfg = ScenarioConfig(n=8, s=2, cross_ratio=0.5, tx_rate=50.0)
    txs = inject_workload(cfg, random.Random(5), table, {0}, 0)
    assert txs and {tx.origin for _, tx in txs} == {1}
    assert all(table.committee_of(node) == 1 for node, _ in txs)
    assert inject_workload(cfg, random.Random(5), table, {0, 1}, 0) == []


def test_inject_workload_numbers_from_first():
    table = partition_nodes(range(8), 2, seed=1)
    cfg = ScenarioConfig(n=8, s=2, cross_ratio=0.5, tx_rate=50.0)
    txs = inject_workload(cfg, random.Random(5), table, set(), 17)
    assert [tx.tx_id for _, tx in txs] == [
        f"t{i}" for i in range(17, 17 + len(txs))]
    assert all(tx.size_units == 1 and tx.kind == KIND_PAYLOAD
               and tx.origin == table.committee_of(node) for node, tx in txs)
    # _inject files the same draws at their origin nodes and stamps
    # exactly the cross ones
    sim = Simulation(small_cfg(cross_ratio=0.5))
    rng = random.Random()
    rng.setstate(sim.rng.getstate())
    expected = inject_workload(sim.cfg, rng, sim.table, set(), 0)
    assert any(tx.origin != tx.target for _, tx in expected)
    assert any(tx.origin == tx.target for _, tx in expected)
    inject(sim, 4)
    assert sim.metrics.injected_tx_units == len(expected)
    filed = {node: [] for node in sim.pending}
    for node, tx in expected:
        filed[node].append(tx)
    assert sim.pending == filed
    assert sim.inject_tick == {tx.tx_id: 4 for _, tx in expected
                               if tx.origin != tx.target}


# -- basic runs -------------------------------------------------------------


def test_unsharded_baseline_agreement():
    sim = Simulation(ScenarioConfig(n=4, s=1, seed=2, duration=25, tx_rate=4.0))
    report = sim.run()
    orders = [consensus_order(v) for v in sim.views.values()]
    longest = max(orders, key=len)
    assert longest
    assert all(o == longest[: len(o)] for o in orders)
    assert report.metrics.injected_cross_units == 0
    assert report.tx_audit["injected_cross"] == 0


def test_determinism_byte_identical():
    cfg = small_cfg(cross_ratio=0.25, seed=11)
    a = report_text(run_scenario(cfg))
    b = report_text(run_scenario(cfg))
    assert a == b
    c = report_text(run_scenario(small_cfg(cross_ratio=0.25, seed=12)))
    assert a != c


# runs each config given as JSON and prints its report's sha256
HASH_SEED_SCRIPT = """
import hashlib, io, json, sys
from shardgraph.config import ScenarioConfig
from shardgraph.simulation import run_scenario
for settings in json.loads(sys.argv[1]):
    buf = io.StringIO()
    run_scenario(ScenarioConfig(**settings)).dump(buf)
    print(hashlib.sha256(buf.getvalue().encode()).hexdigest())
"""


def test_reports_do_not_depend_on_the_hash_seed():
    # str hashes, and so the iteration order of any set of strings, change
    # with PYTHONHASHSEED; no report may follow them.  Churn with rejoins
    # and cross traffic, equivocators, and a shard failure with cross
    # traffic, each short
    configs = json.dumps([cfg.to_dict() for cfg in (
        small_cfg(n=16, seed=9, duration=60, tx_rate=16.0, cross_ratio=0.2,
                  adversary_kind="churn", adversary_interval=3,
                  adversary_rejoin=True),
        small_cfg(n=16, seed=7, duration=50, tx_rate=16.0,
                  adversary_kind="equivocator", adversary_fraction=0.2,
                  adversary_interval=3),
        small_cfg(n=12, seed=6, duration=60, tx_rate=10.0, cross_ratio=0.2,
                  checkpoint_period=2, adversary_kind="shard_failure",
                  adversary_committee=1, adversary_fail_at=20,
                  adversary_recover_delay=9),
    )])
    src = str(Path(shardgraph.simulation.__file__).resolve().parent.parent)
    digests = [
        subprocess.run(
            [sys.executable, "-c", HASH_SEED_SCRIPT, configs],
            env=dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src),
            capture_output=True, text=True, check=True, timeout=60,
        ).stdout.split()
        for seed in ("0", "12345")
    ]
    assert len(digests[0]) == 3
    assert digests[0] == digests[1]


def test_failed_report_write_leaves_no_report(tmp_path):
    report = run_scenario(small_cfg(duration=10))
    report.anomalies.append(object())
    with pytest.raises(TypeError):
        write_report(report, tmp_path / "fresh")
    assert list((tmp_path / "fresh").iterdir()) == []
    # a failed rewrite leaves the previous report.json as it was
    report.anomalies.pop()
    write_report(report, tmp_path)
    before = (tmp_path / "report.json").read_bytes()
    report.anomalies.append(object())
    with pytest.raises(TypeError):
        write_report(report, tmp_path)
    assert (tmp_path / "report.json").read_bytes() == before
    assert not (tmp_path / "report.json.tmp").exists()


def order_of(entries):
    """An Order over fresh columns that hold entries: an id column, the
    entries' places in it, and their rounds and stamps."""
    ids, rounds, stamps = (list(col) for col in zip(*entries)) if entries else (
        [], [], [])
    return Order(bytearray(b"".join(ids)), range(len(ids)), rounds, stamps)


def test_order_summary_tells_orders_apart():
    # 600 entries span several hash chunks
    order = [OrderedEvent(i.to_bytes(32, "big"), i // 10, 1000 + i)
             for i in range(600)]
    base = order_summary(order_of(order))
    # each raw id is written as its 64 hex digits
    text = "".join(f"{i:064x},{i // 10},{1000 + i}\n" for i in range(600))
    assert base["sha256"] == hashlib.sha256(text.encode()).hexdigest()
    # a range of longer columns that starts inside a chunk summarizes as
    # its entries do
    pad = [OrderedEvent(bytes(32), 0, 0)] * 5
    assert order_summary(order_of(pad + order + pad)[5:605]) == base
    assert (base["length"], base["last_round_received"]) == (600, 59)
    assert order_summary(order_of([])) == {
        "length": 0, "last_round_received": None,
        "sha256": hashlib.sha256(b"").hexdigest(),
    }
    e = order[300]

    def with_entry(entry):
        return order[:300] + [entry] + order[301:]

    swapped = list(order)
    swapped[255], swapped[256] = swapped[256], swapped[255]
    variants = [
        with_entry(e._replace(event_id=b"\xff" + e.event_id[1:])),
        with_entry(e._replace(round_received=e.round_received + 1)),
        with_entry(e._replace(consensus_timestamp=e.consensus_timestamp + 1)),
        swapped,
        order[:-1],
    ]
    digests = {order_summary(order_of(v))["sha256"] for v in variants}
    assert len(digests) == len(variants) and base["sha256"] not in digests
    # a digit shifted across a field boundary; an id is always 64 digits
    ab = b"\xab" * 32
    shifted = [
        [OrderedEvent(ab, 1, 230)], [OrderedEvent(ab, 12, 30)],
        [OrderedEvent(ab, 123, 0)], [OrderedEvent(ab, 12, 3)],
    ]
    assert len({order_summary(order_of(v))["sha256"]
                for v in shifted}) == len(shifted)


def record_inserts(monkeypatch):
    """Each event as first inserted into any store, by digest; a store
    keeps only a header of an event whose payload it gave up."""
    inserted = {}
    add = EventStore.add_event

    def recorded(store, *fields):
        i = add(store, *fields)
        event = record_of(store, i)
        inserted.setdefault(event.digest, event)
        return i

    monkeypatch.setattr(EventStore, "add_event", recorded)
    return inserted


def record_ingests(monkeypatch):
    """The (committee, payloads) of every coordinator_ingest_local call."""
    calls = []
    ingest = shardgraph.simulation.coordinator_ingest_local

    def recorded(state, table, committee, payloads):
        calls.append((committee, list(payloads)))
        return ingest(state, table, committee, calls[-1][1])

    monkeypatch.setattr(shardgraph.simulation, "coordinator_ingest_local",
                        recorded)
    return calls


def test_coordinators_send_only_their_own_transactions(monkeypatch):
    # a delivered cross transaction is not echoed back through the global
    # graph by the target committee's coordinator, and each committee's
    # newly ordered payloads are ingested once per poll, not per sync
    ingests = record_ingests(monkeypatch)
    flushed = []

    def recording_flush(state, committee, batch_limit):
        batch = sharding_flush(state, committee, batch_limit)
        flushed.extend((committee, tx) for tx in batch)
        return batch

    sharding_flush = shardgraph.simulation.flush_outbound
    monkeypatch.setattr(shardgraph.simulation, "flush_outbound",
                        recording_flush)
    cfg = ScenarioConfig(n=16, s=4, seed=7, duration=50, tx_rate=16.0,
                         cross_ratio=0.3)
    report = run_scenario(cfg)
    assert report.tx_audit["injected_cross"] > 0
    assert report.tx_audit["missing_count"] == 0
    sent = [tx for _, tx in flushed]
    assert len(sent) == len({tx.tx_id for tx in sent}) > 0
    assert all(tx.origin == committee for committee, tx in flushed)
    assert [c for c, _ in ingests] == list(range(cfg.s)) * cfg.duration
    relayed = {tx.tx_id for c, payloads in ingests for p in payloads
               for tx in p if tx.origin == c and tx.target != c}
    assert relayed == {tx.tx_id for tx in sent}


@pytest.mark.parametrize("name", ["forks", "churn"])
def test_no_ordered_stream_repeats_a_transaction(name, monkeypatch):
    # a transaction enters one event of its origin committee's graph and,
    # once delivered, one of its target's, and a store gives each ordered
    # event's payload up once, so the walk of a committee's order hands
    # ingest no transaction twice, equivocation markers and transactions
    # carried by members that change committee included: the outbound
    # queue needs no seen set
    ingests = record_ingests(monkeypatch)
    report = run_scenario(scenario(name, 11))
    streams = {}
    for c, payloads in ingests:
        streams.setdefault(c, []).extend(tx.tx_id for p in payloads for tx in p)
    for ids in streams.values():
        assert len(ids) == len(set(ids)) > 0
    assert report.tx_audit["duplicate_count"] == 0


def test_cross_exactly_once():
    cfg = ScenarioConfig(n=32, s=4, seed=7, duration=80, tx_rate=32.0,
                         cross_ratio=0.2)
    report = run_scenario(cfg)
    audit = report.tx_audit
    assert audit["injected_cross"] > 0
    assert audit["missing_count"] == 0
    assert audit["duplicate_count"] == 0
    assert audit["ordered_exactly_once"] == audit["injected_cross"]
    assert sum(report.metrics.cross_latency.values()) == audit["injected_cross"]


@pytest.mark.parametrize("cfg", [
    pytest.param(ScenarioConfig(n=32, s=4, seed=7, duration=80, tx_rate=32.0,
                                cross_ratio=0.2), id="cross"),
    pytest.param(ScenarioConfig(n=14, s=2, seed=4, duration=50, tx_rate=10.0,
                                adversary_kind="equivocator",
                                adversary_fraction=0.1, adversary_interval=5),
                 id="equivocator"),
    # fork markers are the only payload-kind transactions: every key is 0
    pytest.param(ScenarioConfig(n=14, s=2, seed=4, duration=50, tx_rate=0.0,
                                adversary_kind="equivocator",
                                adversary_fraction=0.1, adversary_interval=5),
                 id="equivocator-markers-only"),
])
def test_ordered_units_match_a_walk_of_the_final_orders(cfg, monkeypatch):
    # the polls' per-committee sums equal one walk over each committee's
    # final order: the size units of its payload-kind transactions, keyed
    # once any was ordered there, zero-size fork markers included
    inserted = record_inserts(monkeypatch)
    sim = Simulation(cfg)
    report = sim.run()
    walked = {}
    for cid, order in report.consensus.items():
        for oe in order:
            for tx in inserted[oe.event_id].payload:
                if tx.kind == KIND_PAYLOAD:
                    walked[cid] = walked.get(cid, 0) + tx.size_units
    assert report.metrics.ordered_tx_units == walked
    assert sorted(walked) == sorted(report.consensus)
    assert (sum(walked.values()) > 0) == (cfg.tx_rate > 0)


BFT_ANOMALY = ("adversary fraction >= 1/3: attack demonstration, "
               "safety not guaranteed")


def equivocator_shares(sim):
    """Each committee's equivocators over all its members."""
    return [len(set(sim.equivocators) & set(sim.table.members(c)))
            / len(sim.table.members(c)) for c in sorted(sim.table.coordinators)]


def test_equivocator_anomaly_reads_each_committees_actual_share():
    # every committee gets at least one equivocator: at n=6 s=2 that is one
    # of three members, at the BFT bound, though the configured fraction
    # is 0.1
    sim = Simulation(ScenarioConfig(n=6, s=2, seed=1,
                                    adversary_kind="equivocator",
                                    adversary_fraction=0.1))
    assert equivocator_shares(sim) == [1 / 3, 1 / 3]
    assert sim.anomalies == [BFT_ANOMALY]
    # the equivocator golden seats 1 of 8 per committee, forks 6 of 32
    for cfg, share in ((GOLDEN["equivocator"][0], 1 / 8),
                       (scenario("forks", 11), 6 / 32)):
        sim = Simulation(cfg)
        assert max(equivocator_shares(sim)) == share
        assert sim.anomalies == []


def ordered_mask(store):
    """The mask of store's ordered events, from its order column."""
    return sum(1 << i for i in set(order_columns(store).events))


def known_to_seats(sim, seats):
    """The mask of the ordered global events that every seat in seats
    knows."""
    mask = ordered_mask(sim.state.global_store)
    for cid in seats:
        mask &= sim.state.seats[cid].known
    return mask


def check_released(store, inserted, released):
    """Each event of store in the mask released reads back with its payload
    None, its other fields and digest the event's own; every other event
    reads back exactly as inserted.  Returns how many of each there are."""
    freed = kept = 0
    for i, rec in enumerate(records(store)):
        ev = inserted[rec.digest]
        if released >> i & 1:
            assert rec.payload is None
            assert rec == (*ev[:3], None, *ev[4:])
            assert new_record(*rec[:3], ev.payload,
                              rec.created_at).digest == rec.digest
            freed += 1
        else:
            assert rec == ev and rec.payload is not None
            kept += 1
    return freed, kept


def test_poll_releases_the_payloads_it_applied(monkeypatch):
    # after a sharded run every ordered local event, and every ordered
    # global event that every seat knows, reads back with its payload None,
    # its other fields and digest the event's own; the rest keep their
    # payloads
    inserted = record_inserts(monkeypatch)
    sim = Simulation(ScenarioConfig(n=32, s=4, seed=5, duration=60,
                                    tx_rate=32.0, cross_ratio=0.3))
    sim.run()
    applied = kept = 0
    for store in sim.state.local_stores.values():
        freed, held = check_released(store, inserted, ordered_mask(store))
        applied += freed
        kept += held
    assert applied > 10 * kept > 0
    freed, held = check_released(sim.state.global_store, inserted,
                                 known_to_seats(sim, sim.state.seats))
    assert freed > 10 * held > 0


def test_churn_grid_loses_few_cross_transactions():
    # a coordinator change loses nothing: the poll relays what its
    # committee ordered, and the global view, with the global events no
    # other view has received yet, passes to the next coordinator; the
    # losses left are the last event of a member that leaves or moves,
    # which no one gossips on (19 missing at seeds 1-4 when ingest ran per
    # sync)
    missing = 0
    for seed in range(1, 5):
        report = run_scenario(ScenarioConfig(
            n=32, s=4, seed=seed, duration=150, inject_until=100,
            tx_rate=16.0, cross_ratio=0.3, adversary_kind="churn",
            adversary_interval=3, adversary_rejoin=True))
        assert report.tx_audit["duplicate_count"] == 0
        missing += report.tx_audit["missing_count"]
    assert missing <= 6


def test_conservation_and_counters():
    report = run_scenario(small_cfg(seed=4))
    m = report.metrics
    assert sum(m.per_node_comm.values()) == sum(m.per_node_received.values())
    assert all(v >= 0 for v in m.per_node_comm.values())
    assert m.total_events > 0


def test_coordinator_alternates_pools():
    sim = Simulation(small_cfg(duration=20))
    sim.run()
    for cid, coord in sim.table.coordinators.items():
        assert coord in creator_masks(sim.state.local_stores[cid])
        assert coord in creator_masks(sim.state.global_store)


def test_empty_event_fraction_low_at_high_rate():
    cfg = ScenarioConfig(n=16, s=2, seed=5, duration=60, tx_rate=48.0,
                         inject_until=60)
    report = run_scenario(cfg)
    assert report.metrics.empty_event_fraction < 0.1


def test_comm_linearity_in_rate():
    """Measured per-node communication grows linearly with injection rate."""
    xs, ys = [], []
    for rate in (8.0, 16.0, 24.0, 32.0):
        sim = Simulation(
            ScenarioConfig(n=16, s=2, seed=6, duration=50, tx_rate=rate,
                           inject_until=50)
        )
        rep = sim.run()
        plain = [
            v
            for node, v in rep.metrics.per_node_comm.items()
            if node not in sim.state.seated
        ]
        xs.append(rate)
        ys.append(mean(plain) / 50)
    mx, my = mean(xs), mean(ys)
    sxx = sum((x - mx) ** 2 for x in xs)
    sxy = sum((x - mx) * (y - my) for x, y in zip(xs, ys))
    syy = sum((y - my) ** 2 for y in ys)
    r2 = sxy * sxy / (sxx * syy)
    assert r2 >= 0.98


def test_monotone_sharding_benefit():
    comms = []
    for s in (1, 2, 4):
        sim = Simulation(
            ScenarioConfig(n=32, s=s, seed=9, duration=40, tx_rate=64.0,
                           inject_until=40)
        )
        rep = sim.run()
        plain = [
            v
            for node, v in rep.metrics.per_node_comm.items()
            if node not in sim.state.seated
        ]
        comms.append(mean(plain))
    assert comms[0] >= comms[1] >= comms[2]


@pytest.mark.parametrize(
    "name", ["unsharded", "sharded-cross", "equivocator", "sync-interval-2"])
def test_storage_counter_is_what_each_node_holds(name):
    # without churn or recovery, a node's storage counter is the units of
    # the events its views hold: its committee view, plus the global seat
    # for a coordinator.  What the nodes hold beyond their own events is
    # what they were sent, each unit once, which the run's conservation
    # check cannot see: it compares two counters bumped by the same value.
    # Under churn and recovery the counter sums what a node stored in every
    # committee it was in, and differs from what it holds (ROADMAP item 20)
    sim = Simulation(GOLDEN[name][0])
    metrics = sim.run().metrics
    seats = {seat.owner: seat for seat in sim.state.seats.values()}
    received = 0
    for node, view in sim.views.items():
        held = [view, seats[node]] if node in seats else [view]
        assert metrics.per_node_storage.get(node, 0) == sum(
            v.store.units_of(v.known) for v in held)
        received += sum(v.store.units_of(
            v.known & ~creator_masks(v.store).get(node, 0)) for v in held)
    assert sum(metrics.per_node_comm.values()) == received > 0


# -- adversaries ------------------------------------------------------------


def test_equivocator_detected_honest_agree(monkeypatch):
    # each branch view is built where its equivocator's own view stands
    cfg = ScenarioConfig(n=14, s=2, seed=4, duration=50, tx_rate=10.0,
                         adversary_kind="equivocator",
                         adversary_fraction=0.1, adversary_interval=5)
    sim = Simulation(cfg)
    build, branches = shardgraph.simulation.Hashgraph, []

    def branch(*args):
        view = build(*args)
        origin = sim.views[view.owner]
        assert view is not origin and view.store is origin.store
        assert (view.known, view.head) == (origin.known, origin.head)
        assert view.head is not None
        branches.append(view.owner)
        return view

    monkeypatch.setattr(shardgraph.simulation, "Hashgraph", branch)
    report = sim.run()
    assert sim.equivocators and set(branches) <= set(sim.equivocators)
    assert len(branches) == [a["action"] for a in report.action_log].count(
        "equivocate") > 0
    forkers = {
        creator for cid in report.forks for creator, _, _ in report.forks[cid]
    }
    assert forkers == set(sim.equivocators)
    # one sibling pair per equivocation: each splits a tip in two
    assert {cid: len(pairs) for cid, pairs in report.forks.items()} == {
        cid: sum(a["action"] == "equivocate" and a["committee"] == cid
                 for a in report.action_log) for cid in report.forks}
    for cid in sorted(sim.table.coordinators):
        honest = [
            m
            for m in sim.table.members(cid)
            if m not in sim.equivocators
        ]
        orders = [consensus_order(sim.views[m]) for m in honest]
        longest = max(orders, key=len)
        assert longest
        assert all(o == longest[: len(o)] for o in orders)


def test_churn_with_rejoin_keeps_population():
    cfg = ScenarioConfig(n=20, s=2, seed=13, duration=80, tx_rate=8.0,
                         adversary_kind="churn", adversary_interval=8,
                         adversary_rejoin=True)
    sim = Simulation(cfg)
    report = sim.run()
    sim.table.validate()
    joins = [e for e in report.reorg_log if e["purpose"] == "join"]
    requested = [a for a in report.action_log if a["action"] == "join_request"]
    assert requested
    # every settled join landed in the committee its timestamp selects
    assert joins and all(_replay(e, cfg.s) for e in joins)


@pytest.mark.parametrize("name", ["churn-rejoin", "shard-failure-cross"])
def test_membership_agrees_with_the_table_after_every_tick(name):
    # through leaves, joins, reorganizations, reselections, a failure and
    # its recovery, the committee table, each store's population and the
    # nodes that own a view and a pending buffer name the same members
    cfg = GOLDEN[name][0]
    sim = Simulation(cfg)
    ticks = []

    def checked(t):
        table, state = sim.table, sim.state
        for cid, store in state.local_stores.items():
            assert store.population == table.members(cid)
        assert state.global_store.population == table.global_committee()
        nodes = table.assignment.keys()
        assert sim.views.keys() == sim.pending.keys() == nodes
        assert all(view.owner == node for node, view in sim.views.items())
        ticks.append(t)

    hook(sim, "tick", checked)
    sim.run()
    assert ticks == list(range(cfg.duration)) and sim.table.epoch > 0


@pytest.mark.xfail(strict=True, reason=(
    "a reselection completes every reorganization pending on its committee "
    "(ROADMAP item 9)"))
def test_each_reselection_is_pending_in_one_reorganization():
    # in the churn-rejoin golden, the reorganizations of committees 0 and 1
    # are applied at tick 113 and both change committees 1 and 3; each
    # reselection transaction must answer its own reorganization alone,
    # but resel3-113-4 (tick 116) and resel1-113-4 (tick 119) each find
    # both pending and complete them early
    sim = Simulation(GOLDEN["churn-rejoin"][0])
    applied, shared = [], []

    def check(tx, t):
        c = tx.data[0]
        pending = [cid for cid, entry in sorted(sim.reorg.items())
                   if c in entry.get("pending_reselect", ())]
        applied.append(tx.tx_id)
        if len(pending) > 1:
            shared.append((t, tx.tx_id, pending))

    on_reselect(sim, check)
    sim.run()
    assert len(applied) == 12
    assert shared == []


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
    "a leaver's view is dropped before its last event is gossiped on, so "
    "that event is never ordered (ROADMAP item 9)"))
def test_churn_loses_no_transaction_in_a_leavers_last_event():
    # the benchmark's churn workload, cut to 40 ticks: node 49 leaves
    # committee 3 at tick 4, and its tick-3 event, which holds t269, dies
    # with its view
    report = run_scenario(scenario("churn", 11)._replace(duration=40))
    assert report.tx_audit["missing"] == []


MEMBERSHIP_STEPS = ("join_node", "leave_node", "apply_transfers",
                    "recover_failed_shard")


@pytest.mark.parametrize("name, steps", [
    ("churn-rejoin", {"join_node", "leave_node", "apply_transfers"}),
    ("shard-failure", {"recover_failed_shard"}),
])
def test_member_lists_agree_after_every_membership_step(name, steps,
                                                        monkeypatch):
    # after each join, leave, reorganization's moves and recovery, every
    # committee's members are the sorted scan of the assignment and the
    # population of the store the run's views use
    sim = Simulation(GOLDEN[name][0])
    table, stores = sim.table, sim.state.local_stores
    ran = []

    def checked(step, run):
        def wrapped(*args):
            out = run(*args)
            for cid in table.coordinators:
                members = table.members(cid)
                assert members == sorted(
                    n for n, c in table.assignment.items() if c == cid)
                assert members == stores[cid].population
            ran.append(step)
            return out
        return wrapped

    for step in MEMBERSHIP_STEPS:
        monkeypatch.setattr(shardgraph.simulation, step, checked(
            step, getattr(shardgraph.simulation, step)))
    sim.run()
    assert set(ran) == steps


def test_churn_rejoin_single_committee_settles_joins_at_once():
    # with s == 1 there is no global graph to order a join request in, so
    # the single committee takes the joiner on the request's own tick
    cfg = ScenarioConfig(n=8, s=1, seed=3, duration=60, tx_rate=8.0,
                         adversary_kind="churn", adversary_interval=5,
                         adversary_rejoin=True)
    sim = Simulation(cfg)
    report = sim.run()
    joins = [e for e in report.reorg_log if e["purpose"] == "join"]
    requested = [a for a in report.action_log if a["action"] == "join_request"]
    assert len(joins) == len(requested) == 11
    for e in joins:
        assert e["consensus_timestamp"] == e["at"]
        assert e["chosen"] == 0
    assert not [a for a in report.action_log
                if a["action"] == "reorg_requested"]
    sim.table.validate()
    assert set(sim.views) == set(sim.table.assignment)


def shard_failure_cfg():
    # committee 1 is down for 15 gossip rounds, an odd number
    return ScenarioConfig(n=20, s=2, seed=6, duration=120, tx_rate=10.0,
                          checkpoint_period=2,
                          adversary_kind="shard_failure",
                          adversary_committee=1,
                          adversary_fail_at=60, adversary_recover_delay=15)


def test_shard_failure_recovery_preserves_checkpoint():
    # each replacement enters knowing every event of the recovered graph,
    # headless, and its first event anchors on the replayed tip
    sim = Simulation(shard_failure_cfg())
    entered = []

    def checked(node, view):
        size = len(view.store.by_index)
        assert (view.known, view.head) == ((1 << size) - 1, None)
        entered.append((node, view.store, size))

    on_enter(sim, checked)
    report = sim.run()
    assert not report.anomalies
    rec = next(e for e in report.recovery_log if e["action"] == "recover_shard")
    assert [node for node, _, _ in entered] == rec["replacements"]
    tip = entered[0][2] - 1
    for k, (node, store, size) in enumerate(entered):
        anchor = event(store, size)
        assert size == tip + 1 + k
        assert (anchor.creator, anchor.self_parent, anchor.other_parent) == (
            node, None, tip)
    ckpt = rec["checkpointed_order"]
    assert ckpt
    post = report.consensus[1]
    assert post[: len(ckpt)] == ckpt
    assert len(post) > len(ckpt)  # the revived committee keeps ordering
    sim.table.validate()


def test_replacement_coordinator_gossips_globally_after_recovery():
    # coordinators share their global-duty rounds however long a committee
    # was down, so the replacement coordinator joins the global graph and
    # checkpoints continue after the recovery
    sim = Simulation(shard_failure_cfg())
    report = sim.run()
    rec = next(e for e in report.recovery_log if e["action"] == "recover_shard")
    coord = sim.table.coordinators[1]
    assert coord in rec["replacements"]
    store = sim.state.global_store
    assert any(event(store, i).creator == coord
               and event(store, i).created_at > rec["at"]
               for i in store.by_index)
    checkpoints = [a["at"] for a in report.action_log
                   if a["action"] == "checkpoint"]
    assert checkpoints[-1] > rec["at"] + 30


@pytest.mark.parametrize("cfg", [GOLDEN["shard-failure-cross"][0]] + [
    ScenarioConfig(n=16, s=2, seed=seed, duration=90, tx_rate=8.0,
                   cross_ratio=0.2, checkpoint_period=2,
                   adversary_kind="shard_failure", adversary_committee=1,
                   adversary_fail_at=fail_at, adversary_recover_delay=10)
    for seed, fail_at in ((1, 20), (2, 40), (3, 65))
], ids=["shard-failure-cross", "fail-20", "fail-40", "fail-65"])
def test_recovery_replays_the_replica_under_its_ids(cfg, monkeypatch):
    # the recovered store is the replica replayed by index: its id column
    # is the source store's ids of the replica's mask, in index order, and
    # the checkpointed order is a prefix of the order it rebuilds
    recoveries = []
    recover = shardgraph.simulation.recover_failed_shard

    def recorded(state, table, failed, replacements):
        replica = recover(state, table, failed, replacements)
        store = state.local_stores[failed]
        recoveries.append((replica, id_column(store), list(store.consensus)))
        return replica

    monkeypatch.setattr(shardgraph.simulation, "recover_failed_shard",
                        recorded)
    report = Simulation(cfg).run()
    assert not report.anomalies
    ((replica, ids, order),) = recoveries
    source, mask = replica.events.store, replica.events.mask
    assert ids == b"".join(event(source, i).id for i in set_bits(mask))
    assert len(ids) == 32 * mask.bit_count() > 0
    checkpointed = list(replica.consensus)
    assert checkpointed and order[:len(checkpointed)] == checkpointed


def test_decided_prefix_is_inside_each_view_on_churn():
    # after every poll of a short churn run, every event of each view's
    # decided prefix, local and global, is in that view: a view that knows
    # no decider of a round stops below it.  When only the witnesses a
    # view knows were checked, 32 of the 2,368 checks here failed (a
    # joiner's empty view decided every finalized round)
    sim = Simulation(ScenarioConfig(
        n=24, s=3, seed=1, duration=100, tx_rate=12.0, cross_ratio=0.2,
        adversary_kind="churn", adversary_interval=3,
        adversary_rejoin=True))
    lengths = []

    def checked(t):
        for view in [*sim.views.values(), *sim.state.seats.values()]:
            length = decided_length(view)
            lengths.append(length)
            assert all(view.known >> i & 1
                       for i in order_columns(view.store).events[:length])

    hook(sim, "poll", checked)
    sim.run()
    assert len(lengths) == 2368 and 0 in lengths and max(lengths) > 100


@pytest.mark.parametrize("seed", [11, 12])
def test_no_decided_prefix_shrinks_on_the_churn_workload(seed):
    # after every poll of the benchmark's churn run, no member's local view
    # and no committee's global seat decides less than it did at the last
    # poll while it is the same view object, and no committee's replica
    # holds a shorter prefix than the replica before it.  Each seed lands
    # an event with no parents in finalized round 1, a witness that is not
    # famous
    sim = Simulation(scenario("churn", seed))
    views, seats, replicas, falls = {}, {}, {}, []

    def checked(t):
        for kind, graphs, lengths in (("view", sim.views, views),
                                      ("seat", sim.state.seats, seats)):
            for key, view in graphs.items():
                length = decided_length(view)
                last, before = lengths.get(key, (None, 0))
                if last is view and length < before:
                    falls.append((t, kind, key, before, length))
                lengths[key] = view, length
        for cid, replica in sim.state.replicas.items():
            if replica.length < replicas.get(cid, 0):
                falls.append((t, "replica", cid, replicas[cid], replica.length))
            replicas[cid] = replica.length

    hook(sim, "poll", checked)
    sim.run()
    assert max(length for _, length in views.values()) > 1000
    assert max(length for _, length in seats.values()) > 100
    assert replicas and falls == []


def test_shard_recovery_applies_each_event_once(monkeypatch):
    # the recovered store replays the failed store's events, and orders
    # again those the old store ordered after the checkpoint: it skips
    # them, as their payloads were taken, so no event is applied twice and
    # no more units are ordered than were injected
    applied, skipped = [], []
    walk = EventStore.walk

    def recorded(store, take):
        # a local walk applies each event it reaches whose payload is held
        if take:
            held = held_payloads(store)
            for i in order_columns(store).events[walk_position(store):]:
                (applied if i in held else skipped).append(event(store, i).id)
        return walk(store, take)

    monkeypatch.setattr(EventStore, "walk", recorded)
    sim = Simulation(shard_failure_cfg())
    report = sim.run()
    assert len(applied) == len(set(applied))
    assert skipped and not set(skipped) - set(applied)
    # and every event either store ordered was applied
    failed = next(e for e in report.recovery_log
                  if e["action"] == "fail_shard")
    ordered = [*failed["pre_failure_order"], *report.consensus[1]]
    assert {oe.event_id for oe in ordered} <= set(applied)
    m = report.metrics
    assert 0 < sum(m.ordered_tx_units.values()) <= m.injected_tx_units


def test_walk_yields_each_ordered_event_once(monkeypatch):
    # the walk position belongs to the store, so views that advance
    # consensus between polls (consensus_order, decided_length) leave it
    # alone: a store's walks, taken together, yield each ordered event's
    # non-empty payload once, with its consensus timestamp, in consensus
    # order
    inserted = record_inserts(monkeypatch)
    walk, walked, ahead = EventStore.walk, {}, 0

    def recorded(store, take):
        out = walk(store, take)
        walked.setdefault(store, []).extend(out)
        return out

    monkeypatch.setattr(EventStore, "walk", recorded)
    sim = Simulation(ScenarioConfig(n=16, s=2, seed=3, duration=60,
                                    tx_rate=16.0, cross_ratio=0.3))
    stores = [*sim.state.local_stores.values(), sim.state.global_store]

    def advanced(t):
        nonlocal ahead
        for view in [*sim.views.values(), *sim.state.seats.values()]:
            consensus_order(view)
        ahead += sum(len(store.consensus) - walk_position(store)
                     for store in stores)

    hook(sim, "poll", advanced, before=True)
    sim.run()
    assert ahead > 0
    for store in stores:
        payloads = [(inserted[oe.event_id].payload, oe.consensus_timestamp)
                    for oe in store.consensus[:walk_position(store)]]
        assert walked[store] == [(p, ts) for p, ts in payloads if p]
        assert len(walked[store]) > 10


def test_a_committee_walks_only_its_own_transactions(monkeypatch):
    # a node that a reorganization moves leaves its buffered transactions
    # with its old committee's coordinator, so every payload transaction a
    # committee's walk applies has that committee as origin or target.
    # When the buffer moved with the node, node 5 took t1601, t1614, t1631
    # and t1632 from committee 3 into committee 2 at tick 99, and t1614,
    # bound for committee 0, was never relayed.  The run still misses 20
    # cross transactions: 12 dropped with a leaver's buffer, 3 in a
    # leaver's last event, and 5, t1614 now among them, delivered too late
    # to be ordered by the end.  So this checks where transactions are
    # ordered, not that they arrive
    calls = record_ingests(monkeypatch)
    report = run_scenario(ScenarioConfig(
        n=32, s=4, seed=24, duration=150, inject_until=100, tx_rate=16.0,
        cross_ratio=0.3, adversary_kind="churn", adversary_interval=3,
        adversary_rejoin=True, sync_interval=3))
    assert any(a["action"] == "reorg_applied" for a in report.action_log)
    applied = [(cid, tx) for cid, payloads in calls
               for payload in payloads for tx in payload
               if tx.kind == KIND_PAYLOAD]
    assert len(applied) > 1000
    assert [tx.tx_id for cid, tx in applied
            if cid not in (tx.origin, tx.target)] == []


def test_down_seat_holds_the_global_payloads_it_lacks():
    # with four committees the global graph goes on while committee 1 is
    # down, and its seat receives what it missed once it is back: after
    # every poll a global event's payload is freed only once it is ordered
    # and every seat, the down one's too, knows it, and the audit is as it
    # was when every global event kept its payload
    sim = Simulation(ScenarioConfig(
        n=32, s=4, seed=6, duration=120, tx_rate=16.0, cross_ratio=0.3,
        checkpoint_period=2, adversary_kind="shard_failure",
        adversary_committee=1, adversary_fail_at=50,
        adversary_recover_delay=20))
    gstore = sim.state.global_store
    others = [cid for cid in sim.state.seats if cid != 1]
    held_while_down = 0

    def checked(t):
        nonlocal held_while_down
        everywhere = known_to_seats(sim, sim.state.seats)
        held = held_payloads(gstore)
        for i in gstore.by_index:
            if i not in held:
                assert everywhere >> i & 1
        if 1 in sim.down:
            # ordered, known to every other seat and held for the down one
            held_while_down += (known_to_seats(sim, others)
                                & ~everywhere).bit_count()

    hook(sim, "poll", checked)
    audit = sim.run().tx_audit
    assert held_while_down > 0
    assert (audit["injected_cross"], audit["missing_count"],
            audit["duplicate_count"]) == (414, 7, 0)


def test_shard_failure_loses_no_relayed_cross_transaction(monkeypatch):
    # cross traffic through a shard failure, on the shard-failure scenario's
    # shape, failing on ticks 58-65: each cross transaction that its origin
    # committee ordered reaches its target once, since the failed
    # committee's queues and its coordinator's global view pass to the
    # recovered committee's coordinator.  The missing ones were in events
    # the failed committee never ordered, lost with its intra-committee
    # transactions (67 missing here when ingest ran per sync and relayed
    # some of those before the failure; 1320 duplicated when the new
    # coordinator's empty global view received every old event again)
    ingests = record_ingests(monkeypatch)
    missing = 0
    for fail_at in range(58, 66):
        for seed in (1, 2, 3):
            ingests.clear()
            report = run_scenario(ScenarioConfig(**{
                **shard_failure_cfg().to_dict(), "seed": seed,
                "cross_ratio": 0.2, "adversary_fail_at": fail_at}))
            relayed = {tx.tx_id for c, payloads in ingests
                       for p in payloads for tx in p
                       if tx.origin == c and tx.target != c}
            lost = report.tx_audit["missing"]
            assert len(lost) == report.tx_audit["missing_count"]
            assert not relayed & set(lost)
            assert report.tx_audit["duplicate_count"] == 0
            missing += len(lost)
    assert missing <= 49


def churn_rejoin_cfg():
    # the churn-rejoin golden scenario
    return ScenarioConfig(n=32, s=4, seed=9, duration=120, tx_rate=16.0,
                          cross_ratio=0.2, adversary_kind="churn",
                          adversary_interval=3, adversary_rejoin=True)


def test_churn_epoch_counts_applied_reorgs_only():
    # one of the six requested reorganizations finds its committee already
    # back at the refill target; it resets the ledger but opens no epoch
    sim = Simulation(churn_rejoin_cfg())
    report = sim.run()
    actions = [a["action"] for a in report.action_log]
    assert actions.count("reorg_requested") == 6
    assert actions.count("reorg_applied") == 5
    assert sim.table.epoch == 5


def test_member_moved_back_resumes_its_chain():
    # node 53 joins committee 0 at t=73, is moved to committee 3 at t=92
    # and back at t=113.  Its view there resumes at its last event, so it
    # makes no second root and no committee takes it for a forker.  Every
    # node enters a committee where it has no event with an empty,
    # headless view, and one where it has with the ancestry of its last
    sim = Simulation(churn_rejoin_cfg())
    assert {(v.known, v.head) for v in sim.views.values()} == {(0, None)}
    entered, masks = [], {}

    def checked(node, view):
        store = view.store
        own = list(set_bits(creator_masks(store).get(node, 0)))
        if not own:
            assert (view.known, view.head) == (0, None)
        else:
            last = max(own, key=lambda i: event(store, i).seq)
            known = ancestry(store, masks.setdefault(id(store), []))[last]
            assert (view.known, view.head) == (known, last)
        entered.append((node, bool(own)))

    on_enter(sim, checked)
    report = sim.run()
    assert (53, False) in entered and (53, True) in entered
    moved = [a["at"] for a in report.action_log
             if a["action"] == "reorg_applied"
             and any(53 in m for m in a["transfers"].values())]
    assert moved == [92, 113] and sim.table.committee_of(53) == 0
    store = sim.state.local_stores[0]
    own = [ev for ev in records(store) if ev.creator == 53]
    assert [ev.created_at for ev in own if ev.self_parent is None] == [74]
    assert own[-1].created_at > 113
    assert not any(report.forks.values())
    assert not any(forkers(st) for st in sim.state.local_stores.values())


@pytest.mark.parametrize("cfg", [
    scenario("churn", 11), scenario("churn", 12), churn_rejoin_cfg(),
    GOLDEN["shard-failure-cross"][0],
], ids=["churn-11", "churn-12", "churn-rejoin", "shard-failure-cross"])
def test_a_seat_receives_each_global_event_once(cfg, monkeypatch):
    # a committee's global view passes from coordinator to coordinator, on
    # reselection and on recovery, so its seat receives no global event
    # twice, and the next holder chains onto its own last event there, so
    # no honest coordinator forks the global graph (at seed 12 node 5's
    # event died with a dropped view and its next one, when it was seated
    # again, forked)
    receipts = []
    receive = shardgraph.simulation.coordinator_receive_global

    def recorded(state, table, committee, event):
        receipts.append((committee, event))
        return receive(state, table, committee, event)

    monkeypatch.setattr(shardgraph.simulation, "coordinator_receive_global",
                        recorded)
    sim = Simulation(cfg)
    sim.run()
    assert len(receipts) == len(set(receipts)) > 0
    assert not forkers(sim.state.global_store)
    coordinators = sim.table.coordinators
    assert sim.state.global_store.population == sorted(coordinators.values())
    assert {c: seat.owner for c, seat in sim.state.seats.items()} == coordinators


def test_churn_reorg_deferred_when_no_donors():
    # both committees start at min_committee_size, so none can donate
    cfg = ScenarioConfig(n=12, s=2, seed=2, duration=120, tx_rate=8.0,
                         min_committee_size=6, adversary_kind="churn",
                         adversary_committee=0, adversary_interval=3)
    sim = Simulation(cfg)
    report = sim.run()
    assert "reorganization of committee 0 deferred: no donors" in (
        report.anomalies
    )
    rows = [e for e in report.reorg_log if e["purpose"] == "reorg-donors"]
    assert rows and all(e["chosen"] == [] for e in rows)
    assert all(_replay(e, cfg.s) for e in report.reorg_log)
    assert not [a for a in report.action_log if a["action"] == "reorg_applied"]
    sim.table.validate()


def test_shard_failure_without_replica_is_reported():
    # the committee fails before any checkpoint replicates it
    cfg = ScenarioConfig(n=20, s=2, seed=6, duration=60,
                         checkpoint_period=1000,
                         adversary_kind="shard_failure",
                         adversary_committee=1,
                         adversary_fail_at=10, adversary_recover_delay=5)
    report = run_scenario(cfg)
    assert report.anomalies == [
        "shard 1 recovery failed: no replica of committee 1 exists: "
        "unrecoverable loss"
    ]
    assert not [e for e in report.recovery_log
                if e["action"] == "recover_shard"]


def test_shard_recovery_divergence_is_an_invariant_failure(monkeypatch):
    # a replica that exists but does not replay to its checkpointed order
    # is an engine fault, not a lost committee: the run stops.  Each
    # checkpointed order here starts one entry late
    monkeypatch.setattr(ReplicaSnapshot, "consensus", property(
        lambda r: r.events.store.consensus[1:r.length + 1]))
    with pytest.raises(SimulationError, match="shard 1 recovery failed: "
                       "replica replay diverged from checkpoint order"):
        run_scenario(GOLDEN["shard-failure"][0])


def test_exit_hands_the_buffer_to_the_heir():
    sim = Simulation(GOLDEN["sharded-cross"][0])
    node, heir = sim.table.non_coordinators(0)[:2]
    held = control_tx("held", 0)
    sim.pending[node].append(held)
    kept = list(sim.pending[heir])
    exit_committee(sim, node, heir)
    assert node not in sim.views and node not in sim.pending
    assert sim.pending[heir] == [*kept, held]


def test_recovery_drops_the_failed_members_buffers():
    # the failed committee's members exit with no heir: what they held
    # died with the committee
    cfg = GOLDEN["shard-failure"][0]
    recover_at = cfg.adversary_fail_at + cfg.adversary_recover_delay
    sim = Simulation(cfg)
    failed = sim.table.members(1)
    held = control_tx("held", 1)
    for t in range(recover_at + 1):
        if t == recover_at:
            sim.pending[failed[0]].append(held)
        tick(sim, t)
    assert not set(failed) & (sim.views.keys() | sim.pending.keys())
    assert not any(held in buf for buf in sim.pending.values())


def test_a_leavers_buffer_is_ordered_by_its_coordinator(monkeypatch):
    # node 11 leaves committee 0 at tick 24 still holding t196: its last
    # ring, node 11 alone while coordinator 23 was on global duty, did
    # not run.  Coordinator 23 inherits the buffer and orders t196 there
    ingests = record_ingests(monkeypatch)
    report = run_scenario(GOLDEN["churn-literal-trigger"][0])
    assert [c for c, payloads in ingests for p in payloads for tx in p
            if tx.tx_id == "t196"] == [0]
    assert (sum(report.metrics.ordered_tx_units.values())
            == report.metrics.injected_tx_units)


# -- config -----------------------------------------------------------------


def test_one_failure_schedule_for_validate_and_the_run():
    # committee -1 is the last one, and fail tick -1 a third of the run
    assert ScenarioConfig(n=8, s=4, duration=31).failure_schedule() == (
        3, 10, 30)
    cfg = small_cfg(duration=40, checkpoint_period=2,
                    adversary_kind="shard_failure")
    cid, fail_at, recover_at = cfg.failure_schedule()
    assert (cid, fail_at, recover_at) == (1, 13, 33)
    sim = Simulation(cfg)
    sim.run()
    assert [(e["at"], e["action"], e["committee"])
            for e in sim.recovery_log] == [
        (fail_at, "fail_shard", cid), (recover_at, "recover_shard", cid)]
    assert shard_failure_cfg().failure_schedule() == (1, 60, 75)


def test_config_validation_errors():
    with pytest.raises(ConfigError, match="n must be >= s"):
        ScenarioConfig(n=2, s=4).validate()
    with pytest.raises(ConfigError, match="cross_ratio"):
        ScenarioConfig(n=4, s=1, cross_ratio=0.5).validate()
    with pytest.raises(ConfigError, match="adversary.kind"):
        ScenarioConfig(adversary_kind="gremlin").validate()
    # a tick runs the failure before the recovery, so a recovery on the
    # failure's tick or before it has no place in the tick
    for delay in (0, -3):
        with pytest.raises(ConfigError, match="adversary.recover_delay"):
            ScenarioConfig(adversary_kind="shard_failure",
                           adversary_recover_delay=delay).validate()
    ScenarioConfig(adversary_recover_delay=1).validate()
    # the last tick is duration - 1, so a failure or a recovery at duration
    # or past it never runs; the default fail tick is duration // 3
    def failure(fail_at, delay):
        return ScenarioConfig(n=8, s=2, duration=30,
                              adversary_kind="shard_failure",
                              adversary_fail_at=fail_at,
                              adversary_recover_delay=delay)

    for fail_at, delay in ((30, 5), (100, 5)):
        with pytest.raises(ConfigError, match="adversary.fail_at"):
            failure(fail_at, delay).validate()
    for fail_at, delay in ((-1, 20), (20, 10), (29, 1)):
        with pytest.raises(ConfigError, match="adversary.recover_delay"):
            failure(fail_at, delay).validate()
    failure(20, 9).validate()
    failure(-1, 19).validate()
    # the defaults (20 + 20 < 60) and the golden shard-failure run
    # (60 + 15 < 120) fail and recover inside the run
    ScenarioConfig(adversary_kind="shard_failure").validate()
    shard_failure_cfg().validate()
    # a fail tick past the run is a shard failure's alone
    ScenarioConfig(duration=30, adversary_kind="churn",
                   adversary_fail_at=100).validate()
    # validate() only: poisson_sample never returns on nan or inf
    for rate in (math.nan, math.inf, -math.inf, -1.0):
        with pytest.raises(ConfigError, match="tx_rate"):
            ScenarioConfig(tx_rate=rate).validate()
    ScenarioConfig(tx_rate=0.0).validate()
    # a committee id outside [-1, s) is refused, whatever the kind
    for kind in ("churn", "shard_failure", "none"):
        for committee in (5, 2, -2):
            with pytest.raises(ConfigError, match="adversary.committee"):
                ScenarioConfig(n=8, s=2, adversary_kind=kind,
                               adversary_committee=committee).validate()
    for committee in (-1, 0, 1):
        ScenarioConfig(n=8, s=2, adversary_kind="churn",
                       adversary_committee=committee).validate()
    # a committee needs a member to be a committee
    for size in (0, -3):
        with pytest.raises(ConfigError, match="min_committee_size"):
            ScenarioConfig(min_committee_size=size).validate()
    ScenarioConfig(min_committee_size=1).validate()
    # a value below a setting's "auto" one is refused, not read as "auto":
    # at duration 60, inject_until -5 injected until tick 45 and fail_at -9
    # failed the shard at tick 20.  The "auto" values themselves pass
    for kind in ("none", "shard_failure"):
        for key, name, bad, good in (
                ("inject_until", "inject_until", (-5, -1), (0, 1)),
                ("adversary_fail_at", "adversary.fail_at", (-9, -2), (-1, 0))):
            for value in bad:
                with pytest.raises(ConfigError, match=name):
                    ScenarioConfig(duration=60, adversary_kind=kind,
                                   **{key: value}).validate()
            for value in good:
                ScenarioConfig(duration=60, adversary_kind=kind,
                               **{key: value}).validate()


def test_drain_window_covers_the_relay():
    # the perfbench workloads keep their injection ticks; without cross
    # traffic the window is a quarter of the run and at least 8 ticks, with
    # it at least the longest cross latency measured at the sync interval
    assert [scenario(name, 11).resolved_inject_until()
            for name in ("sharded-cross", "forks", "churn")] == [75, 75, 150]
    assert small_cfg(duration=40).resolved_inject_until() == 30
    assert small_cfg(duration=20, sync_interval=3).resolved_inject_until() == 12
    assert small_cfg(duration=60, cross_ratio=0.2).resolved_inject_until() == 36
    assert small_cfg(duration=100, cross_ratio=0.2,
                     sync_interval=2).resolved_inject_until() == 47
    assert small_cfg(duration=40, cross_ratio=0.2,
                     sync_interval=2).resolved_inject_until() == 1
    assert small_cfg(inject_until=50).resolved_inject_until() == 30
    # a window that leaves fewer than four gossip rounds of injection is
    # reported, an explicit inject_until never
    assert small_cfg(duration=60, cross_ratio=0.2).injection_warning() is None
    assert "leaves injection 1 of 40 ticks" in small_cfg(
        duration=40, cross_ratio=0.2, sync_interval=2).injection_warning()
    assert small_cfg(duration=28, cross_ratio=0.2).injection_warning() is None
    assert small_cfg(duration=27, cross_ratio=0.2).injection_warning()
    assert small_cfg(duration=10).injection_warning()
    assert small_cfg(duration=10, inject_until=1).injection_warning() is None


def test_config_parse_and_overrides():
    from shardgraph.config import apply_setting, parse_config

    cfg = parse_config(
        "n = 16\ns = 4  # four committees\n\nadversary.kind = churn\n"
    )
    assert (cfg.n, cfg.s, cfg.adversary_kind) == (16, 4, "churn")
    # each value is cast by its field's type, into a new config that leaves
    # its argument as it was
    parsed = cfg
    cfg = apply_setting(cfg, "duration", "90")
    assert cfg == parsed._replace(duration=90) and parsed.duration == 60
    cfg = apply_setting(cfg, "tx_rate", "12")
    cfg = apply_setting(cfg, "adversary.rejoin", "yes")
    assert (cfg.duration, cfg.tx_rate, cfg.adversary_rejoin) == (90, 12.0, True)
    assert (type(cfg.duration), type(cfg.tx_rate)) == (int, float)
    with pytest.raises(ConfigError, match="unknown config key 'bogus'"):
        apply_setting(cfg, "bogus", "1")
    with pytest.raises(ConfigError, match="expected int"):
        apply_setting(cfg, "n", "1.5")
    with pytest.raises(ConfigError, match="expected bool"):
        apply_setting(cfg, "adversary.rejoin", "maybe")
    with pytest.raises(TypeError):
        ScenarioConfig(bogus=1)
    with pytest.raises(AttributeError):
        cfg.n = 32
    # to_dict gives the fields in declared order, and rebuilds a config
    # with the same fields
    assert list(cfg.to_dict()) == [
        "n", "s", "seed", "duration", "sync_interval", "tx_rate",
        "cross_ratio", "batch_limit", "checkpoint_period", "inject_until",
        "trigger_mode", "min_committee_size", "adversary_kind",
        "adversary_fraction", "adversary_interval", "adversary_committee",
        "adversary_fail_at", "adversary_recover_delay", "adversary_rejoin",
    ]
    assert ScenarioConfig(**cfg.to_dict()).to_dict() == cfg.to_dict()
    assert cfg.to_dict() != ScenarioConfig().to_dict()
    with pytest.raises(ConfigError, match="line 2"):
        parse_config("n = 4\nnot a setting\n")
