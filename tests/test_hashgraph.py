import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from shardgraph.hashgraph import (
    EventStore,
    Hashgraph,
    HashgraphError,
    Transfer,
    consensus_order,
    create_event,
    decided_length,
    detect_forks,
    gossip_sync,
    supermajority,
)
from shardgraph.transactions import KIND_PAYLOAD, Transaction

from oracles import (
    BruteGraph,
    add_for,
    ancestry,
    check_supermajority,
    engine_ancestry,
    event,
    fame_of,
    head_of,
    index_of,
    insert,
    new_record,
    packing,
    records,
    reference_digest,
    round_robin_fixture,
    seal,
    set_bits,
    state,
    strongly_seen,
    witness_flags,
)


def tx(i, origin=0, target=0):
    return Transaction(tx_id=f"tx{i}", origin=origin, target=target,
                       size_units=1, kind=KIND_PAYLOAD, data=())


def graph_of(population, owner):
    """owner's view of a fresh store of its own."""
    return Hashgraph(EventStore(population), owner)


def shared_views(n):
    """One view per member, all of one store, as a committee gossips."""
    store = EventStore(range(n))
    return [Hashgraph(store, i) for i in range(n)]


@pytest.fixture
def fixture_graph():
    graph, _ = round_robin_fixture(4, 3)
    return graph


@pytest.fixture
def big_fixture_graph():
    graph, _ = round_robin_fixture(4, 5)
    return graph


def known_records(graph):
    """The records of the events graph knows, in index order."""
    recs = records(graph.store)
    return [recs[i] for i in Transfer(graph.store, graph.known)]


def brute(graph):
    return BruteGraph(graph.store.population, known_records(graph))


def by_digest(store, values):
    """values, one per store event in index order, keyed by event digest."""
    return {event(store, i).id: v for i, v in zip(store.by_index, values)}


def fame_by_digest(store):
    return {event(store, w).id: f for w, f in fame_of(store).items()}


# -- supermajority ----------------------------------------------------------


@pytest.mark.parametrize("n,expected", [(4, 3), (3, 3), (10, 7), (1, 1), (6, 5)])
def test_supermajority(n, expected):
    assert supermajority(n) == expected


def test_supermajority_rejects_zero():
    with pytest.raises(HashgraphError):
        supermajority(0)


def test_kept_supermajority_follows_membership(monkeypatch):
    sizes = check_supermajority(monkeypatch)
    store = EventStore(range(3))
    assert packing(store).supermajority == supermajority(3)
    # joins past two widenings of the reach fields and leaves; a leave of a
    # non-member and a join of a member raise and change nothing
    for node in range(3, 20):
        store.add_member(node)
    for node in (0, 7, 12):
        store.remove_member(node)
    with pytest.raises(HashgraphError, match="node 40 is not a member"):
        store.remove_member(40)
    with pytest.raises(HashgraphError, match="node 5 is already a member"):
        store.add_member(5)
    assert packing(store).width == 32 and len(store.population) == 17
    # every member leaves, as in shard recovery before the replacements
    # join: no supermajority is taken of an empty population
    for node in list(store.population):
        store.remove_member(node)
    assert store.add_event(1, None, None, (), 0) == 0
    with pytest.raises(HashgraphError):
        store.add_event(1, 0, None, (), 1)
    assert len(store.by_index) == len(store.round) == 1
    for node in (30, 31):
        store.add_member(node)
    assert sizes[-1] == 2 and 0 in sizes


def test_returning_member_rejoins_population_with_its_bit():
    store = EventStore(range(4))
    store.remove_member(2)
    store.add_member(2)
    assert store.population == [0, 1, 2, 3]
    assert packing(store).supermajority == supermajority(4)
    assert packing(store).member_bits == {0: 0, 1: 1, 2: 2, 3: 3}


def test_insert_by_a_non_member_raises_and_leaves_the_store():
    # a joiner is added with add_member before its first event
    store = EventStore(range(3))
    store.add_event(0, None, None, (), 0)

    before = records(store), state(store)
    with pytest.raises(HashgraphError, match="creator 7 is not a member"):
        store.add_event(7, None, 0, (), 1)
    assert (records(store), state(store)) == before
    store.add_member(7)
    assert store.add_event(7, None, 0, (), 1) == 1


def test_set_bits_matches_brute_force():
    rng = random.Random(4)
    masks = [0, 1, 1 << 700, (1 << 700) - 1] + [
        rng.getrandbits(rng.randrange(1, 900)) << rng.randrange(50)
        for _ in range(50)
    ]
    for m in masks:
        assert list(set_bits(m)) == [
            i for i in range(m.bit_length()) if m >> i & 1
        ]


# -- create_event -----------------------------------------------------------


def test_create_event_genesis():
    g = graph_of([0, 1], owner=0)
    i = create_event(g, None, (), 0)
    ev = records(g.store)[i]
    assert ev.self_parent is None and ev.other_parent is None
    assert g.head == i == 0


def test_create_event_head_chaining():
    g = graph_of([0, 1], owner=0)
    i1 = create_event(g, None, (), 0)
    e2 = add_for(g, 1, event(g.store, i1).id, (), 1)
    assert g.head == 0
    i3 = create_event(g, 1, (tx(1),), 2)
    i4 = create_event(g, None, (), 3)
    recs = records(g.store)
    assert recs[i3].self_parent == recs[i1].digest
    assert recs[i3].other_parent == e2.digest
    assert recs[i4].self_parent == recs[i3].digest
    assert g.head == i4


def test_create_event_errors():
    g = graph_of([0, 1], owner=0)
    e1 = create_event(g, None, (), 0)
    # an other-parent outside the view: none at that index, or one the
    # view does not know
    for unknown in (1, 5, -1):
        with pytest.raises(HashgraphError):
            create_event(g, unknown, (), 0)
    with pytest.raises(HashgraphError):
        create_event(g, e1, (), 1)
    with pytest.raises(HashgraphError):
        create_event(graph_of([0, 1], owner=7), None, (), 0)
    assert g.known.bit_count() == 1


# -- gossip_sync ------------------------------------------------------------


def test_transfer_iterates_its_mask_indices_in_order(big_fixture_graph):
    # a transfer names its events by index: the mask's set bits, lowest
    # first, and as many as its popcount
    store = big_fixture_graph.store
    n = len(store.by_index)
    rng = random.Random(9)
    masks = [0, 1, 1 << n - 1, (1 << n) - 1] + [
        rng.getrandbits(n) for _ in range(20)]
    for mask in masks:
        transfer = Transfer(store, mask)
        assert list(transfer) == [i for i in range(n) if mask >> i & 1]
        assert len(transfer) == mask.bit_count()


def test_gossip_sync_empty_diff():
    a, b = shared_views(2)
    ea = create_event(a, None, (), 0)
    gossip_sync(a, b, 1, ())
    before = b.known.bit_count()
    transferred, ev = gossip_sync(a, b, 2, ())
    assert list(transferred) == []
    assert len(transferred) == 0 and transferred.units == 0
    assert b.known.bit_count() == before + 1
    assert event(a.store, ev).other_parent == ea


def test_gossip_sync_transfers_diff():
    a, b = shared_views(2)
    create_event(a, None, (), 0)
    create_event(a, None, (), 1)
    create_event(a, None, (), 2)
    transferred, ev = gossip_sync(a, b, 3, ())
    assert len(transferred) == 3
    assert b.known.bit_count() == 4
    assert event(a.store, ev).creator == 1


def test_gossip_sync_full_schedule_converges():
    n = 4
    graphs = shared_views(n)
    for i in range(n):
        create_event(graphs[i], None, (), 0)
    rng = random.Random(7)
    for t in range(1, 40):
        sender = rng.randrange(n)
        receiver = (sender + rng.randrange(1, n)) % n
        gossip_sync(graphs[sender], graphs[receiver], t, ())
    snapshot = set().union(
        *({event(g.store, i).id for i in Transfer(g.store, g.known)}
          for g in graphs)
    )
    # closing rounds: everyone pushes to everyone; every pre-existing event
    # must reach every graph
    for t, (s, r) in enumerate(itertools.permutations(range(n), 2), 40):
        gossip_sync(graphs[s], graphs[r], t, ())
    for g in graphs:
        assert snapshot <= {event(g.store, i).id
                            for i in Transfer(g.store, g.known)}


def test_gossip_sync_across_stores_rejected():
    a, b = graph_of([0, 1], owner=0), graph_of([0, 1], owner=1)
    create_event(a, None, (), 0)
    with pytest.raises(HashgraphError):
        gossip_sync(a, b, 1, ())
    assert b.known.bit_count() == 0


def test_gossip_sync_between_views_of_one_owner_rejected():
    # the record event would take its own creator's event as other_parent
    store = EventStore([0, 1])
    a, b = Hashgraph(store, 0), Hashgraph(store, 0)
    create_event(a, None, (), 0)
    with pytest.raises(HashgraphError):
        gossip_sync(a, b, 1, ())
    assert len(store.by_index) == 1
    # the rejected sync leaves the receiver's view as it was
    assert (b.known, b.head) == (0, None)


# -- ancestry ---------------------------------------------------------------


def test_is_ancestor_reflexive_and_edges(fixture_graph):
    store = fixture_graph.store
    masks = ancestry(store)
    for i, e in enumerate(records(store)):
        assert engine_ancestry(store, i) in (None, masks[i])
        assert masks[i] >> i & 1
        if e.self_parent:
            assert masks[i] >> index_of(store)[e.self_parent] & 1


def test_is_ancestor_matches_brute_force(fixture_graph):
    o = brute(fixture_graph)
    store = fixture_graph.store
    evs = records(store)
    assert len(evs) <= 20
    masks = ancestry(store)
    for i, a in enumerate(evs):
        assert engine_ancestry(store, i) in (None, masks[i])
        for j, b in enumerate(evs):
            assert bool(masks[i] >> j & 1) == o.is_ancestor(
                a.digest, b.digest
            )


def test_is_ancestor_unresolved():
    # an index past the store's events, or below 0, names no event, and no
    # event can take it as a parent
    g = graph_of([0, 1], owner=0)
    create_event(g, None, (), 0)
    before = records(g.store)
    # the error names the index
    for unknown in (1, 7, -1):
        with pytest.raises(HashgraphError,
                           match=f"dangling other_parent {unknown}$"):
            g.store.add_event(1, None, unknown, (), 1)
        with pytest.raises(HashgraphError,
                           match=f"dangling self_parent {unknown}$"):
            g.store.add_event(0, unknown, None, (), 1)
    # so does an id the store does not hold, named through the test map
    with pytest.raises(HashgraphError, match="dangling other_parent 1$"):
        insert(g, new_record(1, None, b"\xab" * 32, (), 1))
    assert records(g.store) == before


# -- strong sight -----------------------------------------------------------


def test_strongly_sees_single_member():
    g = graph_of([0], owner=0)
    create_event(g, None, (), 0)
    assert strongly_seen(g.store, 0, 1) == [0]


def test_strongly_sees_two_of_four_is_not_enough():
    g = graph_of([0, 1, 2, 3], owner=0)
    e0 = add_for(g, 0, None, (), 0)
    e1 = add_for(g, 1, e0.digest, (), 1)
    e1b = add_for(g, 1, None, (), 2)
    store = g.store
    a, w = index_of(store)[e1b.digest], index_of(store)[e0.digest]
    # paths from e1b down to e0 touch only creators {0, 1}
    assert store.round[a] == store.round[w] == 1
    assert w in store.witnesses_by_round[1]
    assert w not in strongly_seen(store, a, 1)
    assert ancestry(store)[index_of(store)[e1.digest]] >> w & 1


def test_strongly_sees_matches_brute_force(fixture_graph, big_fixture_graph):
    # strong sight is consulted toward the witnesses of round(a) - 1 and
    # round(a), the only rounds a's creator masks cover
    cases = ((fixture_graph, 57, 15), (big_fixture_graph, 124, 53))
    for graph, pairs, true in cases:
        o = brute(graph)
        store = graph.store
        domain = found = 0
        for a, ev in enumerate(records(store)):
            for r in (store.round[a] - 1, store.round[a]):
                seen = strongly_seen(store, a, r)
                found += len(seen)
                for w in store.witnesses_by_round.get(r, ()):
                    domain += 1
                    b = event(store, w).id
                    assert (w in seen) == (
                        o.is_ancestor(ev.digest, b)
                        and o.strongly_sees(ev.digest, b)
                    )
        assert (domain, found) == (pairs, true)


def test_strongly_sees_outside_domain_rejected():
    # a's reach covers only round(a) - 1 and round(a), so strong sight
    # toward an older witness is never answered, though brute force finds
    # such pairs strongly seen
    graph, _ = round_robin_fixture(4, 8)
    store = graph.store
    o = brute(graph)
    late = max(store.by_index, key=store.round.__getitem__)
    r = store.round[late]
    assert r >= 3
    old = [w for w in store.witnesses_by_round[r - 2]
           if o.strongly_sees(event(store, late).id, event(store, w).id)]
    assert old and strongly_seen(store, late, r - 2) == []


# -- rounds -----------------------------------------------------------------


def test_rounds_all_genesis():
    g = graph_of([0, 1, 2, 3], owner=0)
    for i in range(4):
        add_for(g, i, None, (), 0)
    assert list(g.store.round) == [1] * 4
    assert all(witness_flags(g.store))


def test_rounds_match_brute_force(big_fixture_graph):
    o = brute(big_fixture_graph)
    rounds, witness, _ = o.rounds()
    store = big_fixture_graph.store
    assert by_digest(store, store.round) == rounds
    assert by_digest(store, witness_flags(store)) == witness
    assert max(rounds.values()) >= 2


def test_rounds_never_lowered_by_growth():
    graph, _ = round_robin_fixture(4, 3)
    before = graph.store.round[:]
    g2 = graph_of([0, 1, 2, 3], owner=0)
    for e in known_records(graph):
        insert(g2, e)
    create_event(g2, index_of(g2.store)[head_of(g2, 1)], (), 99)
    assert len(g2.store.round) == len(before) + 1
    assert g2.store.round[:len(before)] == before


# -- fame -------------------------------------------------------------------


def test_fame_matches_brute_force(big_fixture_graph):
    store = big_fixture_graph.store
    store.elect_fame()
    assert fame_by_digest(store) == brute(big_fixture_graph).fame()
    assert any(fame_of(store).values())


def test_fame_idempotent(big_fixture_graph):
    store = big_fixture_graph.store
    store.elect_fame()
    first = fame_of(store)
    store.elect_fame()
    assert fame_of(store) == first


def test_unreferenced_witness_not_famous():
    # node 3 creates its genesis witness but never gossips; nobody can see
    # it, so once voting completes it must be decided not famous
    g = graph_of([0, 1, 2, 3], owner=0)
    genesis = [add_for(g, i, None, (), 0) for i in range(4)]
    active = [0, 1, 2]
    for t in range(1, 60):
        creator = active[t % 3]
        partner = active[(t + 1) % 3]
        add_for(g, creator, head_of(g, partner), (), t)
    g.store.elect_fame()
    lonely = index_of(g.store)[genesis[3].digest]
    assert fame_of(g.store).get(lonely) is False
    assert fame_by_digest(g.store) == brute(g).fame()


# -- consensus order --------------------------------------------------------


def test_consensus_order_single_node_chain():
    g = graph_of([0], owner=0)
    evs = [create_event(g, None, (tx(i),), i) for i in range(5)]
    order = consensus_order(g)
    # the decided prefix follows the self-parent chain with created_at stamps
    k = len(order)
    assert k >= 3
    assert [oe.event_id for oe in order] == [
        event(g.store, i).id for i in evs][:k]
    assert [oe.consensus_timestamp for oe in order] == list(range(k))


def test_empty_view_decides_nothing():
    # a view that knows no event knows no decider of any round, so its
    # decided prefix is empty, a joiner's as any other's, while the store
    # has ordered events
    graph, _ = round_robin_fixture(4, 8)
    store = graph.store
    assert len(consensus_order(graph)) == len(store.consensus) > 0
    store.add_member(4)
    for owner in (0, 4):
        assert decided_length(Hashgraph(store, owner)) == 0
    assert store.view_finalized_round(0) == 0


def test_consensus_order_matches_brute_force(big_fixture_graph):
    got = consensus_order(big_fixture_graph)
    want = brute(big_fixture_graph).order()
    assert [(o.event_id, o.round_received, o.consensus_timestamp) for o in got] == want


def test_consensus_order_matches_brute_force_nonempty():
    graph, _ = round_robin_fixture(4, 8)
    got = consensus_order(graph)
    want = brute(graph).order()
    assert [(o.event_id, o.round_received, o.consensus_timestamp) for o in got] == want
    assert len(got) > 0


def test_consensus_order_identical_after_full_sync():
    n = 4
    graphs = shared_views(n)
    for i in range(n):
        create_event(graphs[i], None, (), 0)
    rng = random.Random(3)
    for t in range(1, 120):
        s = rng.randrange(n)
        r = (s + rng.randrange(1, n)) % n
        gossip_sync(graphs[s], graphs[r], t, (tx(t),))
    # flood until views agree
    for t, (s, r) in enumerate(itertools.permutations(range(n), 2), 200):
        gossip_sync(graphs[s], graphs[r], t, ())
    for t, (s, r) in enumerate(itertools.permutations(range(n), 2), 300):
        gossip_sync(graphs[s], graphs[r], t, ())
    orders = [consensus_order(g) for g in graphs]
    lens = [len(o) for o in orders]
    m = min(lens)
    assert m > 0
    for o in orders[1:]:
        assert o[:m] == orders[0][:m]


def test_prefix_stability():
    n = 4
    graphs = shared_views(n)
    for i in range(n):
        create_event(graphs[i], None, (), 0)
    rng = random.Random(11)
    prev: list = []
    for t in range(1, 300):
        s = rng.randrange(n)
        r = (s + rng.randrange(1, n)) % n
        gossip_sync(graphs[s], graphs[r], t, (tx(t),))
        if t % 25 == 0:
            cur = consensus_order(graphs[0])
            assert list(cur[: len(prev)]) == prev
            prev = list(cur)
    assert len(prev) > 0


def test_annotations_independent_of_arrival_order(fixture_graph):
    evs = known_records(fixture_graph)
    rng = random.Random(5)
    for _ in range(5):
        # any topological shuffle must produce identical annotations
        pending = list(evs)
        g = graph_of([0, 1, 2, 3], owner=0)
        added = set()
        while pending:
            choices = [
                e
                for e in pending
                if (e.self_parent is None or e.self_parent in added)
                and (e.other_parent is None or e.other_parent in added)
            ]
            e = rng.choice(choices)
            insert(g, e)
            added.add(e.digest)
            pending.remove(e)
        assert by_digest(g.store, g.store.round) == by_digest(
            fixture_graph.store, fixture_graph.store.round
        )
        g.store.elect_fame()
        fixture_graph.store.elect_fame()
        assert fame_by_digest(g.store) == fame_by_digest(fixture_graph.store)
        assert consensus_order(g) == consensus_order(fixture_graph)


# -- forks ------------------------------------------------------------------


def test_detect_forks_honest_empty(big_fixture_graph):
    assert detect_forks(big_fixture_graph.store) == set()


def test_detect_forks_reports_equivocation():
    g = graph_of([0, 1, 2, 3], owner=0)
    base = event(g.store, create_event(g, None, (), 0)).id
    f1 = new_record(0, base, None, (), 1)
    f2 = new_record(0, base, None, (tx(1),), 1)
    insert(g, f1)
    insert(g, f2)
    forks = detect_forks(g.store)
    assert forks == {(0,) + tuple(sorted((f1.digest, f2.digest)))}


def test_detect_forks_matches_pairwise_oracle():
    g = graph_of([0, 1, 2, 3], owner=0)
    base = add_for(g, 0, None, (), 0)
    e1 = add_for(g, 1, base.digest, (), 1)
    f1 = new_record(0, base.digest, e1.digest, (), 2)
    f2 = new_record(0, base.digest, None, (tx(9),), 2)
    insert(g, f1)
    insert(g, f2)
    child = new_record(0, f1.digest, e1.digest, (), 3)
    insert(g, child)
    assert detect_forks(g.store) == brute(g).forks()


# -- events / serialization -------------------------------------------------


def test_digest_stable_and_unique():
    d1, _ = seal(0, None, None, (tx(1),), 5)
    d2, _ = seal(0, None, None, (tx(1),), 5)
    d3, _ = seal(0, None, None, (tx(2),), 5)
    assert d1 == d2
    assert d1 != d3


def test_digest_known_answers():
    # digests of the length-prefixed encoding as first written; a rewrite
    # of canonical_bytes must reproduce them bit for bit
    genesis, _ = seal(0, None, None, (), 0)
    assert genesis.hex() == (
        "c4d403b8f5ec9d9abec97ffe663aadcee34472090997bf897c8b5ad6df6958d9"
    )
    peer, _ = seal(1, None, None, (), 0)
    both, units = seal(0, genesis, peer, (
        tx(1), Transaction("x-2", 0, 1, 3, KIND_PAYLOAD, ())), 7)
    assert both.hex() == (
        "c0e76cee6c1260d6e01d430b08eafbebc253d3ff4927fb021c28b609a34a5b02"
    )
    assert units == 4
    # created_at is signed, and a tx_id's length prefix counts its UTF-8
    # bytes (12 here), not its 6 characters
    wide, _ = seal(5, genesis, None, (
        Transaction("tx-é€😀", 1, 2, 1, KIND_PAYLOAD, ()),), -3)
    assert wide.hex() == (
        "676f358aa564f4b9536f9e75cbebe3abe9adf94e2ec9b98b29aa05bb8d4dd971"
    )


# a digest, or any other bytes: the digest is defined for every field value
PARENTS = st.none() | st.binary(min_size=32, max_size=32) | (
    st.binary(max_size=40))
PAYLOADS = st.lists(
    st.builds(Transaction, tx_id=st.text(max_size=12),
              origin=st.integers(0, 7), target=st.integers(0, 7),
              size_units=st.integers(0, 9), kind=st.just(KIND_PAYLOAD),
              data=st.just(())),
    max_size=20,
).map(tuple)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(creator=st.integers(0, 2**31 - 1), self_parent=PARENTS,
       other_parent=PARENTS, payload=PAYLOADS,
       created_at=st.integers(-2**63, 2**63 - 1))
def test_digest_matches_reference_serialization(
        creator, self_parent, other_parent, payload, created_at):
    digest, units = seal(creator, self_parent, other_parent, payload,
                         created_at)
    assert len(digest) == 32
    assert digest.hex() == reference_digest(
        creator, self_parent, other_parent, payload, created_at)
    assert units == sum(t.size_units for t in payload)
