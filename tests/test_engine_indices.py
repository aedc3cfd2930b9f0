"""Differential tests of the EventStore's incremental indices (fork bits,
self-parent walks, digest-sorted witnesses, view heads) against brute-force
recomputation on seeded gossip DAGs with injected forks."""

import random

import pytest

from shardgraph.hashgraph import (
    Event,
    EventStore,
    Hashgraph,
    create_event,
    detect_forks,
    gossip_sync,
)
from shardgraph.simulation import _full_view
from shardgraph.transactions import Transaction

from oracles import BruteGraph, reference_consensus

SEEDS = range(8)


def equivocate(views, node, peers, t):
    """Two events on node's head, each pushed to a different peer, the way
    the simulator's equivocators fork; neither branch reaches the other."""
    view = views[node]
    head = view.heads[node]
    alt = Hashgraph(view.store, node)
    alt.known = view.known
    alt.heads = dict(view.heads)
    for branch, marker in ((alt, "b"), (view, "a")):
        payload = (Transaction(tx_id=f"fork{node}-{t}{marker}", origin=0,
                               target=0, size_units=0),)
        branch.add_event(Event(node, head, None, payload, t))
    gossip_sync(view, views[peers[0]], peers[0], t)
    gossip_sync(alt, views[peers[1]], peers[1], t)


def gossip_dag(seed, steps=250, fork_p=0.3):
    """A random gossip schedule on one store of 4-7 members; member 0 (and
    member 1 too from 7 members, which keeps a supermajority honest)
    equivocates with probability fork_p when it is picked to send."""
    rng = random.Random(seed)
    n = 4 + seed % 4
    forkers = (0, 1) if n >= 7 else (0,)
    store = EventStore(range(n))
    views = [Hashgraph(store, i) for i in range(n)]
    for i in range(n):
        create_event(i, views[i], None, (), 0)
    for t in range(1, steps):
        s = rng.randrange(n)
        if s in forkers and rng.random() < fork_p:
            equivocate(views, s, rng.sample([m for m in range(n) if m != s], 2), t)
            continue
        r = (s + rng.randrange(1, n)) % n
        payload = (Transaction(tx_id=f"t{t}", origin=0, target=0),)
        gossip_sync(views[s], views[r], r, t, payload)
    return store, views


def brute_forked(oracle, digest):
    """Creators with two incomparable events among digest's ancestors: a
    creator's events there form a chain iff, sorted by ancestor count, each
    is an ancestor of the next."""
    by_creator = {}
    for a in oracle.anc[digest]:
        by_creator.setdefault(oracle.by_id[a].creator, []).append(a)
    forked = set()
    for c, evs in by_creator.items():
        evs.sort(key=lambda a: len(oracle.anc[a]))
        if not all(oracle.is_ancestor(b, a) for a, b in zip(evs, evs[1:])):
            forked.add(c)
    return forked


@pytest.mark.parametrize("seed", SEEDS)
def test_fork_bookkeeping_matches_brute_force(seed):
    store, _ = gossip_dag(seed)
    oracle = BruteGraph(store.population, store.by_index)
    forked_any = set()
    for i, ev in enumerate(store.by_index):
        got = {c for c, b in store._member_bit.items() if store._forked[i] >> b & 1}
        assert got == brute_forked(oracle, ev.digest)
        forked_any |= got
    assert forked_any  # the schedule did inject visible forks
    assert detect_forks(_full_view(store)) == oracle.forks()


@pytest.mark.parametrize("seed", SEEDS)
def test_consensus_matches_per_event_median_search(seed):
    store, _ = gossip_dag(seed)
    store.advance_consensus()
    assert store.finalized_round >= 2 and store.consensus
    assert [tuple(oe) for oe in store.consensus] == reference_consensus(store)


def sees_own_fork(store, w):
    return store._forked[w] >> store._member_bit[store.by_index[w].creator] & 1


def test_famous_witness_seeing_own_fork_takes_chain_search():
    # creator 0 forks at tick 1 and its round-2 witness reaches both
    # branches.  Such a witness only gets "no" votes in the first voting
    # round (every voter inherits the fork bit), so fame is decided by hand
    # here to reach the ordering path for it.
    store = EventStore(range(4))
    views = [Hashgraph(store, i) for i in range(4)]
    for i in range(4):
        create_event(i, views[i], None, (), 0)
    equivocate(views, 0, (1, 2), 1)
    for t, (s, r) in enumerate(
        [(1, 3), (2, 3), (3, 0), (0, 1), (1, 2), (2, 3), (3, 0), (0, 1),
         (1, 2), (2, 3), (3, 1), (1, 0)], 2,
    ):
        gossip_sync(views[s], views[r], r, t)
    (w,) = [u for u in store.witnesses_by_round[2] if sees_own_fork(store, u)]
    assert store.by_index[w].creator == 0
    for r in (1, 2):
        for u in store.witnesses_by_round[r]:
            store.fame[u] = True
    searched = []
    chain_of = store._creator_chain
    store._creator_chain = lambda u: searched.append(u) or chain_of(u)
    store.advance_consensus()
    assert store.finalized_round == 2 and store.consensus
    assert searched == [w]
    assert [tuple(oe) for oe in store.consensus] == reference_consensus(store)


@pytest.mark.parametrize("seed", SEEDS[:3])
def test_heads_and_digest_order_after_gossip(seed):
    store, views = gossip_dag(seed, steps=120)
    for view in views:
        best = {}
        for i, ev in enumerate(store.by_index):
            if view.known >> i & 1:
                best[ev.creator] = max(best.get(ev.creator, -1), store._seq[i])
        assert set(view.heads) == set(best)
        for c, digest in view.heads.items():
            i = store.index[digest]
            assert view.known >> i & 1 and store.by_index[i].creator == c
            assert store._seq[i] == best[c]
    assert store._by_digest.keys() == store.witnesses_by_round.keys()
    for r, ws in store.witnesses_by_round.items():
        assert store._by_digest[r] == sorted(
            ws, key=lambda i: store.by_index[i].digest
        )
