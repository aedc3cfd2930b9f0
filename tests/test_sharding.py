import random

import pytest

import shardgraph.sharding
from shardgraph.hashgraph import (
    EventStore,
    Hashgraph,
    HashgraphError,
    Transfer,
    consensus_order,
    create_event,
    gossip_chain,
    gossip_sync,
    member_view,
    replay,
    supermajority,
)
from shardgraph.reconfig import ChurnLedger, leave_node
from shardgraph.sharding import (
    CommitteeTable,
    ShardState,
    ShardingError,
    coordinator_ingest_local,
    coordinator_receive_global,
    flush_inbound,
    flush_outbound,
    partition_nodes,
    recover_failed_shard,
    replica_holder_count,
    replicate_checkpoint,
    seat_coordinator,
)
from shardgraph.transactions import KIND_PAYLOAD, Transaction

from oracles import (
    check_supermajority,
    event,
    id_column,
    packing,
    rewired,
    set_bits,
    take_payload,
    unit_planes,
)


def tx(i, origin, target):
    return Transaction(tx_id=f"tx{i}", origin=origin, target=target,
                       size_units=1, kind=KIND_PAYLOAD, data=())


# -- partitioning -----------------------------------------------------------


def test_partition_single_shard():
    table = partition_nodes(range(4), 1, seed=0)
    assert table.members(0) == [0, 1, 2, 3]
    assert table.global_committee() == [table.coordinators[0]]
    table.validate()


def test_partition_balanced():
    table = partition_nodes(range(100), 10, seed=42)
    for cid in range(10):
        assert len(table.members(cid)) == 10
    assert len(table.global_committee()) == 10
    table.validate()


def test_partition_near_balanced_sizes_differ_by_at_most_one():
    table = partition_nodes(range(23), 5, seed=3)
    sizes = sorted(len(table.members(c)) for c in range(5))
    assert max(sizes) - min(sizes) <= 1
    assert sum(sizes) == 23


def test_partition_deterministic():
    a = partition_nodes(range(50), 7, seed=9)
    b = partition_nodes(range(50), 7, seed=9)
    assert a.assignment == b.assignment
    assert a.coordinators == b.coordinators
    c = partition_nodes(range(50), 7, seed=10)
    assert a.assignment != c.assignment


def test_table_keeps_member_lists_through_moves():
    # place and remove are the only writers: each committee's store
    # population stays the sorted scan of the assignment, and a member
    # list handed out before a move is a copy the move leaves alone
    table = CommitteeTable({5: 0, 1: 1, 3: 0, 2: 1}, {0: 3, 1: 2})
    assert (table.members(0), table.members(1)) == ([3, 5], [1, 2])
    before = table.members(0)
    table.place(5, 1)
    table.place(7, 0)
    assert table.remove(1) == 1 and table.remove(1) is None
    assert before == [3, 5]
    assert (table.members(0), table.members(1)) == ([3, 7], [2, 5])
    assert table.assignment == {2: 1, 3: 0, 5: 1, 7: 0}
    assert table.non_coordinators(0) == [7]
    table.validate()


def test_partition_errors():
    with pytest.raises(ShardingError):
        partition_nodes(range(4), 0, seed=0)
    with pytest.raises(ShardingError):
        partition_nodes(range(3), 4, seed=0)


# -- pipeline ---------------------------------------------------------------


@pytest.fixture
def small_state():
    table = partition_nodes(range(8), 2, seed=1)
    return ShardState(table), table


def local_event(state, table, cid, payload, creator=None, now=0):
    """A genesis event in the committee's graph, made in a fresh view;
    returns its index."""
    creator = creator if creator is not None else table.members(cid)[0]
    view = Hashgraph(state.local_stores[cid], creator)
    return create_event(view, None, payload, now)


def full_view(store):
    """A member's view that knows every event of the store."""
    return Hashgraph(store, store.population[0],
                     (1 << len(store.by_index)) - 1)


def ingest_ordered(state, table, cid, *events):
    """What a poll's walk does with the events its committee's graph newly
    ordered: pop each one's payload, skip those popped before, and queue
    the rest's outbound transactions in one ingest.  Returns the
    committee's queue."""
    store = state.local_stores[cid]
    payloads = [take_payload(store, i) for i in events]
    coordinator_ingest_local(state, table, cid, [p for p in payloads if p])
    return state.queues[cid]


def test_ingest_intra_only_leaves_queue_alone(small_state):
    state, table = small_state
    ev = local_event(state, table, 0, (tx(1, 0, 0),))
    queue = ingest_ordered(state, table, 0, ev)
    assert queue.outbound == []


def test_ingest_queues_cross_and_coordinator_excludes_it(small_state):
    state, table = small_state
    cross = tx(1, 0, 1)
    ev = local_event(state, table, 0, (cross, tx(2, 0, 0)))
    queue = ingest_ordered(state, table, 0, ev)
    assert queue.outbound == [cross]
    # the coordinator's next local event carries inbound deliveries only
    assert cross not in flush_inbound(state, 0, batch_limit=16)


def test_ingest_leaves_delivered_transactions_alone(small_state):
    state, table = small_state
    delivered = tx(1, 1, 0)
    ev = local_event(state, table, 0, (delivered,))
    queue = ingest_ordered(state, table, 0, ev)
    assert queue.outbound == []


def test_ingest_deduplicates(small_state):
    # an event's payload is taken once, so an event walked again, as a
    # recovered store walks the replayed events, queues nothing again
    state, table = small_state
    cross = tx(1, 0, 1)
    ev = local_event(state, table, 0, (cross,))
    ingest_ordered(state, table, 0, ev)
    queue = ingest_ordered(state, table, 0, ev)
    assert queue.outbound == [cross]


def test_ingest_keeps_consensus_order_across_payloads(small_state):
    state, table = small_state
    members = table.members(0)
    first, second = tx(1, 0, 1), tx(2, 0, 1)
    e1 = local_event(state, table, 0, (second,), creator=members[0])
    e2 = local_event(state, table, 0, (tx(3, 0, 0), first),
                     creator=members[1])
    queue = ingest_ordered(state, table, 0, e2, e1)
    assert queue.outbound == [first, second]


def test_emit_global_under_limit_flushes_all(small_state):
    state, _ = small_state
    q = state.queues[0]
    t1, t2 = tx(1, 0, 1), tx(2, 0, 1)
    q.outbound.extend([t1, t2])
    assert flush_outbound(state, 0, batch_limit=10) == [t1, t2]
    assert q.outbound == []


def test_emit_global_fifo_respects_limit(small_state):
    state, _ = small_state
    q = state.queues[0]
    txs = [tx(i, 0, 1) for i in range(5)]
    q.outbound.extend(txs)
    assert flush_outbound(state, 0, batch_limit=2) == txs[:2]
    assert q.outbound == txs[2:]


def test_receive_global_filters_by_target(small_state):
    state, table = small_state
    cross = tx(1, 0, 1)
    coord = table.coordinators[0]
    view = Hashgraph(state.global_store, coord)
    ev = create_event(view, None, (cross,), 5)
    coordinator_receive_global(state, table, 1, ev)
    assert state.queues[1].inbound == [cross]
    # the origin committee's own coordinator ignores it
    coordinator_receive_global(state, table, 0, ev)
    assert state.queues[0].inbound == []


def test_emit_local_delivers_inbound(small_state):
    state, _ = small_state
    q = state.queues[1]
    txs = [tx(i, 0, 1) for i in range(5)]
    q.inbound.extend(txs)
    assert flush_inbound(state, 1, batch_limit=3) == txs[:3]
    assert q.inbound == txs[3:]
    assert flush_inbound(state, 1, batch_limit=16) == txs[3:]
    assert q.inbound == []


def test_emit_local_empty_queue_plain_sync(small_state):
    state, _ = small_state
    assert flush_inbound(state, 1, batch_limit=16) == []


# -- replication ------------------------------------------------------------


def test_replica_holder_count_matches_formula():
    n, s = 100, 10
    table = partition_nodes(range(n), s, seed=5)
    state = ShardState(table)
    for cid in range(s):
        local_event(state, table, cid, ())
        source = full_view(state.local_stores[cid])
        replicate_checkpoint(state, cid, source)
    for cid in range(s):
        assert replica_holder_count(state, table, cid) == n // s + s - 1 == 19


def test_replicate_idempotent(small_state):
    state, table = small_state
    local_event(state, table, 0, (tx(1, 0, 0),))
    source = full_view(state.local_stores[0])
    replicate_checkpoint(state, 0, source)
    first = state.replicas[0]
    holders = replica_holder_count(state, table, 0)
    replicate_checkpoint(state, 0, source)
    assert list(state.replicas) == [0]
    again = state.replicas[0]
    assert again.events.mask == first.events.mask
    assert again.consensus == first.consensus
    assert replica_holder_count(state, table, 0) == holders


def test_replicate_single_committee_builds_no_snapshot(monkeypatch):
    # the lone coordinator is the whole global committee: no one else
    # would hold a copy, so the view's order is not even computed
    def unexpected(graph):
        raise AssertionError("decided_length called")

    table = partition_nodes(range(4), 1, seed=0)
    state = ShardState(table)
    local_event(state, table, 0, ())
    monkeypatch.setattr(shardgraph.sharding, "decided_length", unexpected)
    replicate_checkpoint(state, 0, full_view(state.local_stores[0]))
    assert state.replicas == {}
    assert replica_holder_count(state, table, 0) == 4


# -- coordinator seats -----------------------------------------------------


def test_seat_coordinator_hands_over_the_global_view(small_state):
    state, table = small_state
    old = table.coordinators[0]
    new = next(m for m in table.members(0) if m != old)
    gstore = state.global_store
    create_event(state.seats[0], None, (), 0)
    create_event(state.seats[1], None, (), 0)
    gossip_sync(state.seats[0], state.seats[1], 1, ())
    _, last = gossip_sync(state.seats[1], state.seats[0], 2, ())
    known = state.seats[0].known
    # a node with no event in the global graph takes the seat headless
    seat_coordinator(state, table, 0, new)
    seat = state.seats[0]
    assert table.coordinators[0] == new and seat.owner == new
    assert seat.store is gstore and seat.known == known and seat.head is None
    assert gstore.population == sorted([new, table.coordinators[1]])
    # back with its old holder, the seat is headed by its furthest event
    seat_coordinator(state, table, 0, old)
    seat = state.seats[0]
    assert seat.owner == old and seat.known == known
    assert seat.head == last
    assert gstore.population == table.global_committee()
    # re-seating the holder changes nothing
    population = list(gstore.population)
    seat_coordinator(state, table, 0, old)
    assert state.seats[0] is seat and seat.known == known
    assert seat.head == last and gstore.population == population


# -- recovery ---------------------------------------------------------------


def build_consensus_history(state, table, cid, rounds=30):
    """Drive a committee's graph far enough that events reach consensus."""
    members = table.members(cid)
    store = state.local_stores[cid]
    views = {m: Hashgraph(store, m) for m in members}
    for m in members:
        create_event(views[m], None, (), 0)
    k = 0
    for t in range(1, rounds):
        for i, m in enumerate(members):
            partner = members[(i + 1 + t) % len(members)]
            if partner == m:
                continue
            k += 1
            gossip_sync(
                views[m],
                views[partner],
                t,
                (Transaction(tx_id=f"c{cid}_{k}", origin=cid, target=cid,
                             size_units=1, kind=KIND_PAYLOAD, data=()),),
            )
    return views


def test_recover_preserves_consensus_prefix():
    table = partition_nodes(range(12), 2, seed=2)
    state = ShardState(table)
    build_consensus_history(state, table, 0)
    store = state.local_stores[0]
    store.advance_consensus()
    pre = list(store.consensus)
    assert pre
    replicate_checkpoint(state, 0, full_view(store))
    replacements = [100, 101, 102, 103, 104, 105]
    recover_failed_shard(state, table, 0, replacements)
    table.validate()
    assert table.members(0) == replacements
    post = state.local_stores[0].consensus
    assert list(post[: len(pre)]) == pre


def test_recover_after_members_changed_since_the_checkpoint():
    # a member joins and another leaves after the checkpoint: recovery
    # takes the table's members out of the failed store, empties the
    # replayed store of the replica's, and seats only the replacements
    table = partition_nodes(range(12), 2, seed=2)
    state = ShardState(table)
    build_consensus_history(state, table, 0)
    replicate_checkpoint(state, 0, full_view(state.local_stores[0]))
    checkpointed = state.replicas[0]
    assert checkpointed.length > 0
    leaver = table.non_coordinators(0)[0]
    table.place(50, 0)
    table.remove(leaver)
    old = [*checkpointed.population, 50]
    assert table.members(0) == sorted(set(old) - {leaver})
    replacements = [100, 101, 102, 103, 104, 105]
    recover_failed_shard(state, table, 0, replacements)
    table.validate()
    store = state.local_stores[0]
    assert table.members(0) == replacements == store.population
    assert not set(old) & set(table.assignment)
    assert store.consensus[:checkpointed.length] == checkpointed.consensus


@pytest.mark.xfail(strict=True, raises=ShardingError, reason=(
    "replay runs under one population, the checkpoint's, not under each "
    "event's epoch, so a member that left before the checkpoint fails it "
    "(ROADMAP item 9)"))
def test_recover_replays_the_events_of_a_member_that_left():
    # a member gossips and leaves, the others gossip on and are
    # checkpointed: the replica holds the leaver's events, but not the
    # leaver in its population, so replaying them raises "creator 0 is not
    # a member"
    table = partition_nodes(range(16), 2, seed=3)
    state = ShardState(table)
    ledger = ChurnLedger.from_table(table)
    store = state.local_stores[0]

    def rounds(ticks):
        for t in ticks:
            views = [member_view(store, m) for m in table.members(0)]
            gossip_chain([*views, views[0]], [()] * len(views), t)

    rounds(range(12))
    leave_node(table, ledger, table.non_coordinators(0)[0])
    rounds(range(12, 20))
    replicate_checkpoint(state, 0, member_view(store, table.coordinators[0]))
    replica = state.replicas[0]
    fresh = range(100, 100 + len(table.members(0)))
    assert recover_failed_shard(state, table, 0, fresh) is replica
    rebuilt = state.local_stores[0].consensus
    assert rebuilt[:replica.length] == replica.consensus


def test_replica_order_stays_the_checkpointed_prefix():
    # a member's view orders a prefix of its store's order; the replica
    # keeps that prefix's length, and reads the same entries after the
    # store orders more
    table = partition_nodes(range(12), 2, seed=2)
    state = ShardState(table)
    views = build_consensus_history(state, table, 0)
    view = views[table.members(0)[0]]
    want = consensus_order(view)
    store = state.local_stores[0]
    assert 0 < len(want) < len(store.consensus)
    replicate_checkpoint(state, 0, view)
    replica = state.replicas[0]
    assert replica.length == len(want) and replica.consensus == want
    members = table.members(0)
    for t in range(30, 40):
        gossip_sync(views[members[t % 6]], views[members[(t + 1) % 6]], t, ())
    store.advance_consensus()
    assert len(consensus_order(view)) > len(want)
    assert replica.consensus == want


def test_recover_keeps_supermajority_through_empty_population(monkeypatch):
    # recovery removes every member before the replacements join
    sizes = check_supermajority(monkeypatch)
    table = partition_nodes(range(12), 2, seed=2)
    state = ShardState(table)
    build_consensus_history(state, table, 0)
    replicate_checkpoint(state, 0, full_view(state.local_stores[0]))
    recover_failed_shard(state, table, 0, [100, 101, 102, 103])
    assert 0 in sizes
    store = state.local_stores[0]
    assert store.population == [100, 101, 102, 103]
    assert packing(store).supermajority == supermajority(4)
    store.advance_consensus()


def test_recover_uses_latest_checkpoint():
    table = partition_nodes(range(12), 3, seed=2)
    state = ShardState(table)
    views = build_consensus_history(state, table, 0, rounds=6)
    replicate_checkpoint(state, 0, full_view(state.local_stores[0]))
    first = state.replicas[0]
    members = table.members(0)
    gossip_sync(views[members[0]], views[members[1]], 99, ())
    replicate_checkpoint(state, 0, full_view(state.local_stores[0]))
    latest = state.replicas[0]
    assert len(latest.events) == len(first.events) + 1
    used = recover_failed_shard(state, table, 0, [100, 101, 102, 103])
    assert used is latest
    assert len(state.local_stores[0].by_index) == len(latest.events)


def test_recover_keeps_the_unflushed_outbound_queue():
    # the failed committee ordered the outbound ones before it failed, and
    # the replica replays those events as applied: only the queue still
    # relays them.  The inbound ones its coordinator's global view received
    # are not received again by the seat's next holder
    table = partition_nodes(range(8), 2, seed=2)
    state = ShardState(table)
    local_event(state, table, 0, ())
    replicate_checkpoint(state, 0, full_view(state.local_stores[0]))
    queue = state.queues[0]
    sent = [tx(1, 0, 1), tx(2, 0, 1)]
    queue.outbound.extend(sent)
    received = [tx(3, 1, 0)]
    queue.inbound.extend(received)
    recover_failed_shard(state, table, 0, [50, 51, 52, 53])
    assert state.queues[0] is queue
    assert queue.outbound == sent and queue.inbound == received
    assert flush_outbound(state, 0, 16) == sent


def test_recover_requeues_deliveries_the_replica_lacks():
    # events made after the checkpoint die with the failed store; the cross
    # transactions delivered in them that no poll applied go back to the
    # front of inbound, in index order, and nothing else does
    table = partition_nodes(range(8), 2, seed=2)
    state = ShardState(table)
    members = table.members(0)
    local_event(state, table, 0, (tx(0, 1, 0),))
    replicate_checkpoint(state, 0, full_view(state.local_stores[0]))
    local_event(state, table, 0, (tx(1, 1, 0), tx(2, 0, 0), tx(3, 0, 1)),
                creator=members[1])
    local_event(state, table, 0, (tx(4, 1, 0),), creator=members[2])
    applied = local_event(state, table, 0, (tx(5, 1, 0),), creator=members[3])
    # a poll's walk applied it and popped its payload
    assert take_payload(state.local_stores[0], applied) is not None
    queue = state.queues[0]
    queue.inbound.append(tx(6, 1, 0))
    recover_failed_shard(state, table, 0, [50, 51, 52, 53])
    assert queue.inbound == [tx(1, 1, 0), tx(4, 1, 0), tx(6, 1, 0)]
    assert flush_inbound(state, 0, 2) == [tx(1, 1, 0), tx(4, 1, 0)]


def test_replay_with_a_wrong_parent_index_raises():
    # a replay names each parent by its copy's index and reseals every
    # event that holds its payload, so the copy has the source's ids in
    # index order; a parent index that maps to another event in the
    # transfer, or to none in it, raises instead of building another graph
    table = partition_nodes(range(12), 2, seed=2)
    state = ShardState(table)
    build_consensus_history(state, table, 0)
    source = state.local_stores[0]
    n = len(source.by_index)
    copy = EventStore(source.population)
    replay(copy, Transfer(source, (1 << n) - 1))
    assert id_column(copy) == id_column(source) and copy.round == source.round
    x = n - 1
    sp, op = event(source, x).self_parent, event(source, x).other_parent
    other = next(i for i in range(n - 1, -1, -1) if i != op
                 and event(source, i).creator not in (
                     event(source, x).creator, event(source, op).creator))
    earlier = event(source, sp).self_parent
    dropped = (1 << n) - 1 & ~(1 << op)
    for parent, wrong, mask in (
            ("other_parent", other, (1 << n) - 1),
            ("self_parent", earlier, (1 << n) - 1),
            ("other_parent", op, dropped)):
        with rewired(source, x, parent, wrong):
            with pytest.raises(HashgraphError):
                replay(EventStore(source.population), Transfer(source, mask))


def test_replay_copies_the_unit_planes_over_the_transfer():
    # events of 0 to 7 units, every third with its payload taken, so its
    # copy takes the units replay reads from the planes: each member's
    # down-closed view replays to planes that are the source's over the
    # view, compacted to the copies' indices, and the whole store to the
    # source's planes themselves
    store = EventStore(range(4))
    views = [Hashgraph(store, m) for m in range(4)]
    rng = random.Random(4)
    for t in range(40):
        s, r = rng.sample(range(4), 2)
        gossip_sync(views[s], views[r], t, (Transaction(
            f"u{t}", 0, 0, rng.randrange(8), KIND_PAYLOAD, ()),))
    n = len(store.by_index)
    for i in range(0, n, 3):
        assert take_payload(store, i) is not None
    planes = unit_planes(store)
    assert len(planes) == 3
    for mask in [view.known for view in views] + [(1 << n) - 1]:
        copy = EventStore(store.population)
        replay(copy, Transfer(store, mask))
        kept = list(set_bits(mask))
        want = [sum(1 << j for j, i in enumerate(kept) if plane >> i & 1)
                for plane in planes]
        while want and not want[-1]:
            want.pop()
        assert unit_planes(copy) == want and any(want)
    assert unit_planes(copy) == planes


def test_recover_empty_committee():
    table = partition_nodes(range(8), 2, seed=2)
    state = ShardState(table)
    local_event(state, table, 0, ())
    replicate_checkpoint(state, 0, full_view(state.local_stores[0]))
    recover_failed_shard(state, table, 0, [50, 51, 52, 53])
    assert len(state.local_stores[0].consensus) == 0
    table.validate()


def test_recover_without_replica_fails():
    table = partition_nodes(range(8), 2, seed=2)
    state = ShardState(table)
    with pytest.raises(ShardingError):
        recover_failed_shard(state, table, 0, [50, 51, 52, 53])
