"""Micro-benchmarks of the hashgraph engine's insert, fame, ordering,
partial-view ordering and gossip paths on a synthetic 16-member round-robin
DAG (960 events), of 50 gossip rounds of a 16-member committee's ring
(816 events), of sealing and inserting a forked 16-member gossip DAG
(about 1000 events, two equivocators), of consensus polls on a 32-member
round-robin DAG (3840 events), and of the injection ticks of a
`sharded-cross` run.
One timed round each, so they stay cheap in the regular suite;
``pytest tests/test_bench.py --benchmark-autosave`` stores their results
under ``.benchmarks/``.  Memory guards: store bytes per event, the
report writer's allocation peak, and slotted transaction records."""

import hashlib
import random
import sys
import tracemalloc

import pytest

from shardgraph.config import ScenarioConfig
from shardgraph.hashgraph import (
    EventStore,
    Hashgraph,
    consensus_order,
    create_event,
    gossip_chain,
    gossip_sync,
)
from shardgraph.simulation import Simulation, run_scenario, write_report
from shardgraph.transactions import KIND_PAYLOAD, Transaction

from oracles import (
    ancestry,
    check_vote_state_bounds,
    creator_masks,
    event,
    fame_of,
    forkers,
    inject,
    live_records,
    records,
    round_robin_fixture,
    seal,
    units_at,
    vote_state,
)
from test_engine_indices import gossip_dag


def index_fields(events):
    """Each event record's five fields as add_event takes them, its
    parents by index in events."""
    index = {ev.digest: i for i, ev in enumerate(events)}
    return [(ev.creator, index.get(ev.self_parent), index.get(ev.other_parent),
             ev.payload, ev.created_at) for ev in events]


@pytest.fixture(scope="module")
def dag():
    graph, events = round_robin_fixture(n=16, events_per_node=60)
    return graph.store.population, index_fields(events)


def filled_store(population, fields):
    store = EventStore(population)
    for f in fields:
        store.add_event(*f)
    return store


def round_robin_events(n, per_node):
    graph, events = round_robin_fixture(n, per_node)
    return graph.store.population, index_fields(events)


def forked_events():
    built, _ = gossip_dag(3, steps=900, n=16)
    return built.population, index_fields(records(built))


@pytest.mark.parametrize("source", [
    pytest.param(lambda: round_robin_events(16, 60), id="16-60"),
    pytest.param(lambda: round_robin_events(32, 30), id="32-30"),
    pytest.param(forked_events, id="forked-16"),
])
def test_store_bytes_per_event(source):
    # the memory a store allocates to index and annotate events it is
    # given, on two round-robin DAGs and a forked 16-member gossip DAG
    population, events = source()
    tracemalloc.start()
    try:
        store = filled_store(population, events)
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(store.by_index) == len(events)
    assert held / len(events) < 1024


def test_report_write_allocates_less_than_half_its_size(tmp_path):
    # write_report streams report.json, so its allocation peak is bounded
    # by the encoder's working set, not by the report's size; an equivocator
    # every tick fills the fork evidence, which the report holds in full
    report = run_scenario(ScenarioConfig(n=32, s=2, seed=5, duration=160,
                                         tx_rate=32.0,
                                         adversary_kind="equivocator",
                                         adversary_fraction=0.3,
                                         adversary_interval=1))
    # pathlib interns the output paths' parts; a first write into the same
    # directory interns them, so that a resize of the interpreter's table
    # of interned strings (about 1 MB) cannot land in the measured write
    write_report(report, tmp_path)
    tracemalloc.start()
    try:
        start, _ = tracemalloc.get_traced_memory()
        write_report(report, tmp_path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    size = (tmp_path / "report.json").stat().st_size
    assert size >= 500_000
    assert peak - start < size / 2


def test_per_event_records_are_slotted_and_frozen():
    # an event has no record of its own (a store names it by its index);
    # its transactions are records
    tx = Transaction("t1", 0, 1, 2, KIND_PAYLOAD, ())
    tx2 = Transaction("t1", 0, 1, 2, KIND_PAYLOAD, ())
    assert not hasattr(tx, "__dict__")
    with pytest.raises(AttributeError):
        tx.origin = 1
    assert tx == tx2 and hash(tx) == hash(tx2)
    # six fields: 80 bytes as a slotted record, 88 as a tuple
    assert sys.getsizeof(tx) <= 88


def test_bench_add_event(benchmark, dag):
    store = benchmark.pedantic(filled_store, args=dag, rounds=1, iterations=1)
    assert len(store.by_index) == len(dag[1])
    assert len(store.witnesses_by_round) >= 10


def test_bench_gossip_ring(benchmark):
    # 50 gossip rounds of one 16-member committee, each a freshly shuffled
    # ring run as one gossip_chain pass whose receivers record one
    # transaction each: the local gossip the simulator runs every round
    n, rounds = 16, 50
    rng = random.Random(5)
    plan = []
    for t in range(1, rounds + 1):
        ring = rng.sample(range(n), n)
        plan.append((t, ring + ring[:1], [
            (Transaction(f"t{t}-{m}", 0, 0, 1, KIND_PAYLOAD, ()),)
            for m in ring[1:] + ring[:1]]))

    def setup():
        store = EventStore(range(n))
        views = [Hashgraph(store, m) for m in range(n)]
        for view in views:
            create_event(view, None, (), 0)
        return (views,), {}

    def gossip(views):
        syncs = []
        for t, ring, payloads in plan:
            syncs += gossip_chain([views[m] for m in ring], payloads, t)
        return views, syncs

    views, syncs = benchmark.pedantic(gossip, setup=setup, rounds=1,
                                      iterations=1)
    store = views[0].store
    assert len(syncs) == n * rounds
    assert len(store.by_index) == n * (rounds + 1)
    # the ring's first sender receives last, and then knows every event
    assert views[plan[-1][1][0]].known == (1 << len(store.by_index)) - 1
    assert all(units_at(store, i) == 1 for _, i in syncs)
    assert len(store.witnesses_by_round) >= 20


def test_bench_build_events(benchmark):
    # every event of a forked 16-member gossip DAG sealed again from its
    # five fields: the serialization and digest cost of an event alone
    built, _ = gossip_dag(3, steps=900, n=16)
    events = records(built)

    def rebuild():
        return [seal(e.creator, e.self_parent, e.other_parent, e.payload,
                     e.created_at) for e in events]

    rebuilt = benchmark.pedantic(rebuild, rounds=1, iterations=1)
    assert len(rebuilt) == len(events) > 1000
    assert rebuilt == [(e.digest, e.units) for e in events]


def test_bench_inject(benchmark):
    # the 75 injection ticks of a `sharded-cross` run (n=128, s=8,
    # tx_rate=256, cross_ratio=0.1, seed 11) with no gossip in between, so
    # the engine takes no part; the draws, ids and buffers are pinned
    cfg = ScenarioConfig(n=128, s=8, seed=11, duration=100, tx_rate=256.0,
                         cross_ratio=0.1)

    def inject_all(sim):
        for t in range(sim.inject_until):
            inject(sim, t)
        return sim

    sim = benchmark.pedantic(inject_all, setup=lambda: ((Simulation(cfg),), {}),
                             rounds=1, iterations=1)
    assert sim.inject_until == 75
    h = hashlib.sha256()
    for node in sorted(sim.pending):
        for tx in sim.pending[node]:
            h.update(("%d %s %d %d %d %s %r\n" % (
                node, tx.tx_id, tx.origin, tx.target, tx.size_units, tx.kind,
                tx.data)).encode())
    assert sim.metrics.injected_tx_units == 19133
    assert sim.metrics.injected_cross_units == len(sim.inject_tick) == 1990
    # built without the constructor, each is the record it would build
    assert all(tx == Transaction(tx.tx_id, tx.origin, tx.target, 1,
                                 KIND_PAYLOAD, ())
               and type(tx) is Transaction
               for buf in sim.pending.values() for tx in buf)
    assert h.hexdigest() == (
        "caf5bd73a44f5cddc4b2ed089573765a4322f1dc6dd1cb5d5f8c98d99b7e084f")
    assert sim.rng.random() == 0.8175879564680434


def test_bench_add_event_forked(benchmark):
    # the fork-test path: members 0 and 1 equivocate, so inserts test each
    # forker's events in their ancestry until each event inherits both forks
    built, _ = gossip_dag(3, steps=900, n=16)
    events = index_fields(records(built))
    store = benchmark.pedantic(filled_store, args=(built.population, events),
                               rounds=1, iterations=1)
    assert len(store.by_index) == len(events) > 1000
    assert len(forkers(store)) == 2 and len(store.witnesses_by_round) >= 7
    live = live_records(store)
    assert live == live_records(built)
    forked = [entry.forked for entry in live.values()]
    assert len(forked) == len(events)
    assert sum(f.bit_count() == 2 for f in forked) > len(events) // 2


def test_bench_advance_consensus(benchmark, dag):
    def advance(store):
        store.advance_consensus()
        return store

    store = benchmark.pedantic(
        advance, setup=lambda: ((filled_store(*dag),), {}),
        rounds=1, iterations=1,
    )
    assert store.finalized_round >= 8
    assert len(store.consensus) > len(dag[1]) // 2


def test_bench_elect_fame(benchmark, dag):
    def elect(store):
        store.elect_fame()
        return store

    store = benchmark.pedantic(
        elect, setup=lambda: ((filled_store(*dag),), {}),
        rounds=1, iterations=1,
    )
    assert len(fame_of(store)) > len(dag[0]) * 8
    # finalizing the decided rounds drops their vote state, so it is kept
    # only for the rounds still voted on
    store.advance_consensus()
    assert min(vote_state(store).votes) == store.finalized_round + 1 > 8
    check_vote_state_bounds(store)


def test_bench_consensus_polls_32_members(benchmark):
    # a 32-member committee's events replayed into a fresh store with a
    # consensus poll every 32 inserts, so each poll votes on and orders
    # only what the last 32 events changed (insert time included)
    graph, events = round_robin_fixture(n=32, events_per_node=120)
    events = index_fields(events)

    def replay():
        store = EventStore(graph.store.population)
        for i, fields in enumerate(events, 1):
            store.add_event(*fields)
            if i % 32 == 0:
                store.advance_consensus()
        return store

    store = benchmark.pedantic(replay, rounds=1, iterations=1)
    assert (len(store.witnesses_by_round), store.finalized_round) == (18, 16)
    fame = fame_of(store)
    assert len(fame) == sum(fame.values()) == 512
    assert len(store.consensus) == 3158


def test_bench_consensus_order(benchmark, dag):
    # each member's view holds what its own last event reaches, so it
    # lacks what the others created after; ordering it takes the view's
    # finalized round and a prefix of the store's order
    population, events = dag

    def setup():
        store = filled_store(*dag)
        store.advance_consensus()
        own, masks = creator_masks(store), ancestry(store)
        return ([Hashgraph(store, m, masks[own[m].bit_length() - 1])
                 for m in population],), {}

    def order(views):
        return views, [consensus_order(view) for view in views]

    views, orders = benchmark.pedantic(order, setup=setup, rounds=1,
                                       iterations=1)
    full = views[0].store.consensus
    assert all(got == full[:len(got)] for got in orders)
    assert 0 < min(map(len, orders)) < len(full)


def test_bench_gossip_sync(benchmark, dag):
    # a joiner's empty view takes the whole history in one sync
    population, events = dag
    joiner = len(population)

    def setup():
        store = filled_store(*dag)
        store.add_member(joiner)
        full = Hashgraph(store, 0, (1 << len(events)) - 1)
        return (full, Hashgraph(store, joiner)), {}

    def push(full, empty):
        return gossip_sync(full, empty, 1000, ())

    transfer, ev = benchmark.pedantic(push, setup=setup, rounds=1, iterations=1)
    assert len(transfer) == len(events)
    assert list(transfer) == list(range(len(events)))
    recs = records(transfer.store)
    assert index_fields([recs[i] for i in transfer]) == events
    assert transfer.units == sum(recs[i].units for i in transfer) > 0
    assert event(transfer.store, ev).self_parent is None
