"""Differential tests of the EventStore's incremental indices (fork bits,
rounds and witnesses, fame votes and deciders, self-parent walks, view
heads, gossip transfers) against brute-force or reference recomputation,
or against another insert order, on seeded gossip DAGs with injected
forks."""

import functools
import random
import sys

import pytest
from hypothesis import given, settings, strategies as st

import oracles
from shardgraph import hashgraph
from shardgraph.hashgraph import (
    EventStore,
    Hashgraph,
    consensus_order,
    create_event,
    detect_forks,
    gossip_chain,
    gossip_sync,
    supermajority,
)
from shardgraph.config import ScenarioConfig
from shardgraph.simulation import Simulation
from shardgraph.transactions import KIND_PAYLOAD, Transaction

from oracles import (
    BruteGraph,
    ReferenceFame,
    check_column_layout,
    check_vote_state_bounds,
    creator_masks,
    decide_by_hand,
    decider_groups,
    decider_record,
    deciders_of,
    event,
    fame_of,
    fork_evidence,
    forked_masks,
    forked_of,
    forkers,
    held_payloads,
    hook,
    id_column,
    live_record,
    live_records,
    median_stamps,
    order_columns,
    ordered_mask,
    packing,
    records,
    reference_consensus,
    reference_view_finalized_round,
    seal,
    strongly_seen,
    unforked_prev_bits,
    unit_planes,
    vote_sight,
    vote_state,
    walk_position,
    witness_flags,
)

SEEDS = range(8)


def equivocate(views, node, peers, t, sync=gossip_sync):
    """Two events on node's head, each pushed to a different peer, the way
    the simulator's equivocators fork; neither branch reaches the other.
    Branch b is added first, so it has the lower index."""
    view = views[node]
    alt = Hashgraph(view.store, node, view.known, view.head)
    for branch, marker in ((alt, "b"), (view, "a")):
        payload = (Transaction(tx_id=f"fork{node}-{t}{marker}", origin=0,
                               target=0, size_units=0, kind=KIND_PAYLOAD,
                               data=()),)
        create_event(branch, None, payload, t)
    sync(view, views[peers[0]], t, ())
    sync(alt, views[peers[1]], t, ())
    return alt


def gossip_dag(seed, steps=250, fork_p=0.3, sync=gossip_sync, n=None,
               joins=0, poll=None, fork_from=0):
    """A random gossip schedule on one store of n members, 4-7 by default;
    member 0 (and member 1 too from 7 members, which keeps a supermajority
    honest) equivocates with probability fork_p when it is picked to send
    at step fork_from or later.
    Each sync carries one transaction of 1-7 units; sync replaces
    gossip_sync.  Halfway through, joins more members join with a genesis
    event each.  poll(t, views), if given, runs after every step t."""
    rng = random.Random(seed)
    n = 4 + seed % 4 if n is None else n
    forkers = (0, 1) if n >= 7 else (0,)
    store = EventStore(range(n))
    views = [Hashgraph(store, i) for i in range(n)]
    for i in range(n):
        create_event(views[i], None, (), 0)
    for t in range(1, steps):
        if joins and t == steps // 2:
            for i in range(n, n + joins):
                store.add_member(i)
                views.append(Hashgraph(store, i))
                create_event(views[i], None, (), t)
            n += joins
        s = rng.randrange(n)
        if s in forkers and t >= fork_from and rng.random() < fork_p:
            equivocate(views, s, rng.sample([m for m in range(n) if m != s], 2),
                       t, sync)
        else:
            r = (s + rng.randrange(1, n)) % n
            payload = (Transaction(tx_id=f"t{t}", origin=0, target=0,
                                   size_units=1 + t % 7, kind=KIND_PAYLOAD,
                                   data=()),)
            sync(views[s], views[r], t, payload)
        if poll is not None:
            poll(t, views)
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
    oracle = BruteGraph(store.population, records(store))
    forked_any, member_bits = set(), packing(store).member_bits
    for i, ev in enumerate(records(store)):
        got = {c for c, b in member_bits.items()
               if forked_of(store, i) >> b & 1}
        assert got == brute_forked(oracle, ev.digest)
        forked_any |= got
    assert forked_any  # the schedule did inject visible forks
    assert detect_forks(store) == oracle.forks()


@pytest.mark.parametrize("seed", SEEDS)
def test_detect_forks_on_partial_views(seed):
    # early in a schedule some fork branches have not reached every member;
    # the store's evidence holds every pair all the same
    missed = 0
    for steps in (40, 80):
        store, views = gossip_dag(seed, steps=steps)
        forks = detect_forks(store)
        assert forks == BruteGraph(store.population, records(store)).forks()
        index, paired = oracles.index_of(store), 0
        for _, a, b in forks:
            paired |= 1 << index[a] | 1 << index[b]
        missed += sum(paired & ~view.known != 0 for view in views)
    assert missed


def test_fork_shapes_outside_the_equivocator_schedule():
    # the equivocator schedule only splits a tip in two; here member 1
    # makes a second genesis event, member 0 forks off a self-ancestor below
    # its tip, and member 2 forks one of its own branches, each branch
    # made before it sees the other.  Member 3 merges them by other-parents
    store = EventStore(range(4))
    names = {}

    def add(name, creator, self_parent=None, other_parent=None):
        names[name] = store.add_event(
            creator, names.get(self_parent), names.get(other_parent), (),
            len(store.by_index))
        return names[name]

    for c in range(4):
        add(f"g{c}", c)
    add("a1", 0, "g0", "g1")
    add("a2", 0, "a1", "g2")
    add("x", 0, "g0", "g3")            # off g0, two below the tip a2
    add("b1", 1, "g1", "a2")
    add("h", 1, None, "x")             # a second genesis event
    add("c1", 2, "g2")
    add("c1'", 2, "g2", "b1")          # branch c1' ...
    add("c2", 2, "c1'")
    add("c2'", 2, "c1'", "h")          # ... forked in two
    add("d1", 3, "g3", "a2")
    d2 = add("d2", 3, "d1", "x")
    add("d3", 3, "d2", "b1")
    d4 = add("d4", 3, "d3", "h")
    add("d5", 3, "d4", "c2")
    d6 = add("d6", 3, "d5", "c2'")
    add("d7", 3, "d6", "c1")
    assert forkers(store) == [0, 1, 2]
    # each fork is caught by the first event that reaches both branches;
    # member 2's only by the branch's own fork, as c1 comes later
    for i, c in ((d2, 0), (d4, 1), (d6, 2)):
        assert forked_of(store, i - 1) >> c & 1 == 0
        assert forked_of(store, i) >> c & 1
    oracle = BruteGraph(store.population, records(store))
    member_bits = packing(store).member_bits
    for i, ev in enumerate(records(store)):
        got = {c for c, b in member_bits.items()
               if forked_of(store, i) >> b & 1}
        assert got == brute_forked(oracle, ev.digest)
    forks = oracle.forks()
    assert {f[0] for f in forks} == {0, 1, 2}
    assert detect_forks(store) == forks


def bits(mask):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def brute_sight(store):
    """sees(a, w, sm), strong sight from the direct definition over
    parent-link ancestry and the live records' forked masks: a strongly
    sees w when w's creator is not forked in a, and the creators not
    forked in a that own an event in anc(a) & desc(w) number sm."""
    n, anc = len(store.by_index), oracles.ancestry(store)
    member_bits = packing(store).member_bits
    creator_bit = [member_bits[event(store, x).creator]
                   for x in store.by_index]
    events_of = {}
    for x, b in enumerate(creator_bit):
        events_of[b] = events_of.get(b, 0) | 1 << x
    desc = [0] * n
    for x in range(n):
        for y in bits(anc[x]):
            desc[y] |= 1 << x

    def sees(a, w, sm):
        forked = forked_of(store, a)
        if forked >> creator_bit[w] & 1:
            return False
        between = anc[a] & desc[w]
        return sum(1 for b, mask in events_of.items()
                   if between & mask and not forked >> b & 1) >= sm

    return sees


def brute_rounds(store, sms=None):
    """Every event's round and witness flag from ``brute_sight``, each
    event's under the supermajority sms gives it, one per event, or by
    default the population's."""
    sees = brute_sight(store)
    sms = sms or [supermajority(len(store.population))] * len(store.by_index)
    rounds, witness, by_round = [], [], {}
    for a in store.by_index:
        ev = event(store, a)
        parents = [p for p in (ev.self_parent, ev.other_parent)
                   if p is not None]
        r = max((rounds[p] for p in parents), default=1)
        if parents and sum(sees(a, w, sms[a])
                           for w in by_round.get(r, ())) >= sms[a]:
            r += 1
        rounds.append(r)
        sp = ev.self_parent
        witness.append(sp is None or rounds[sp] < r)
        if witness[-1]:
            by_round.setdefault(r, []).append(a)
    return rounds, witness


@pytest.mark.parametrize("seed", SEEDS)
def test_rounds_and_witnesses_match_brute_force(seed):
    store, _ = gossip_dag(seed)
    rounds, witness = brute_rounds(store)
    assert list(store.round) == rounds
    assert witness_flags(store) == witness
    assert len(store.witnesses_by_round) >= 4


def test_round_test_bound_leaves_vote_sight_whole():
    # two joiners raise the supermajority from 4 to 5 at step 50.  Ten
    # round-2 and round-3 witnesses then hold, forked creators masked out,
    # 16 to 21 bits in their round - 1 reach, under 5 * 5, and three of
    # them 4 fields of 5 creators.  The insert's round test may stop at
    # the bit count; the strong sight a vote reads keeps every field
    store, _ = gossip_dag(1, steps=100, joins=2)
    sm = packing(store).supermajority
    sees = brute_sight(store)
    under = []
    for r in range(2, len(store.witnesses_by_round) + 1):
        below = store.witnesses_by_round[r - 1]
        for v in store.witnesses_by_round[r]:
            count = unforked_prev_bits(store, v)
            if forked_of(store, v) and count < sm * sm:
                seen = vote_sight(store, v)
                assert seen == [w for w in below if sees(v, w, sm)]
                under.append((count, len(seen)))
    assert sm == 5
    assert sorted(under) == [(16, 0)] * 7 + [(20, 4)] * 2 + [(21, 4)]


@pytest.mark.parametrize("seed", SEEDS)
def test_rounds_match_brute_force_across_doublings_with_masks_cached(seed):
    # two joiners at step 125 take 7 members past the 8-bit fields and
    # round 1 past 8 witnesses, so the width and the field count double
    # while the store holds the masks of forked sets.  Every kept mask is
    # the one the store's packing builds, and every round is the direct
    # definition's, each event's under the supermajority of its insert
    packings, doubled, sms = [], [], []

    def poll(t, views):
        store = views[0].store
        p = packing(store)
        full = (1 << p.width) - 1
        low = ((1 << p.width * p.fields) - 1) // full
        masks = forked_masks(store)
        assert masks == {f: low * (full & ~f) for f in masks}
        if packings and (p.width, p.fields) != packings[-1][1:]:
            doubled.append((t, packings[-1][0]))
        packings.append((len(masks), p.width, p.fields))
        # the events this step inserted, each under the supermajority now
        sms.extend([p.supermajority] * (len(store.by_index) - len(sms)))

    store, _ = gossip_dag(seed, steps=250, n=7, joins=2, poll=poll)
    assert [t for t, _ in doubled] == [125] and doubled[0][1] > 0
    assert packing(store).width == packing(store).fields == 16
    assert list(store.round) == brute_rounds(store, sms)[0]


def strong_sight(store):
    """Every event's strongly_seen answer toward every round."""
    return [[strongly_seen(store, a, r)
             for r in range(1, len(store.witnesses_by_round) + 1)]
            for a in store.by_index]


@pytest.mark.parametrize("n, steps, width", [(7, 250, 8), (31, 600, 32)])
def test_strong_sight_survives_widening(n, steps, width):
    # three members past the field width double it; once they leave, the
    # supermajority is as before, so every re-laid reach must answer alike
    store, _ = gossip_dag(3, steps=steps, n=n)
    assert forkers(store) and packing(store).width == width
    before = strong_sight(store)
    for m in range(n, n + 3):
        store.add_member(m)
    assert packing(store).width == 2 * width
    for m in range(n, n + 3):
        store.remove_member(m)
    assert store.population == list(range(n))
    assert strong_sight(store) == before
    assert sum(len(seen) for row in before for seen in row) > n


@pytest.mark.parametrize("n, steps, pairs_found",
                         [(7, 250, (4362, 1619)), (31, 600, (33316, 11749))])
def test_strong_sight_after_midway_joins_matches_brute_force(n, steps,
                                                             pairs_found):
    # three members join halfway, past the field width: reaches stored
    # before are re-laid then.  Brute strong sight ignores forks, so
    # the schedule has none.
    store, _ = gossip_dag(3, steps=steps, fork_p=0, n=n, joins=3)
    assert packing(store).width > n + 1 and not forkers(store)
    o = BruteGraph(store.population, records(store))
    pairs = found = 0
    for a, ev in enumerate(records(store)):
        for r in (store.round[a] - 1, store.round[a]):
            seen = strongly_seen(store, a, r)
            found += len(seen)
            for w in store.witnesses_by_round.get(r, ()):
                pairs += 1
                b = event(store, w).id
                assert (w in seen) == (o.is_ancestor(ev.digest, b)
                                       and o.strongly_sees(ev.digest, b))
    assert (pairs, found) == pairs_found
    assert any(event(store, w).creator >= n
               for ws in store.witnesses_by_round.values() for w in ws)


def check_fame_against_reference(built, remove=None, members=None):
    """Replay built's events into a fresh store of members (built's
    population by default; a creator outside it is added as a member just
    before its first event)
    and compare fame with the tuple-keyed reference, then the order with
    the per-event median search.  The deciders depend on which voters
    exist when votes are cast, so both sides vote on the same schedule,
    every 7 inserts, the store through advance_consensus.  Each poll is
    made twice in a row, and the second, with no new witness, must change
    no vote state; with remove, that member leaves at a poll halfway
    through and both sides poll again before the next insert.  Returns the replayed store, per poll the field
    width and the live vote-state entries, and how many witnesses landed in
    a round that witnesses two or more rounds up had voted on."""
    store = EventStore(built.population if members is None else members)
    ref = ReferenceFame(store)
    polls = []
    late = 0

    def poll():
        store.advance_consensus()
        ref.elect_fame()
        assert fame_of(store) == ref.fame
        assert deciders_of(store) == ref.decider
        polls.append((packing(store).width, check_vote_state_bounds(store)))
        return vote_state(store)

    half = len(built.by_index) // 14 * 7
    for i, ev in enumerate(records(built), 1):
        if ev.creator not in packing(store).member_bits:
            store.add_member(ev.creator)
        x = oracles.insert_event(store, ev)
        r = store.round[x]
        late += (x in store.witnesses_by_round[r]
                 and bool(vote_state(store).covered.get(r)))
        if i % 7 == 0 or i == len(built.by_index):
            votes = poll()
            assert poll() == votes
            if remove is not None and i == half:
                store.remove_member(remove)
                assert poll() == votes
    assert len(fame_of(store)) > len(store.population)
    assert vote_state(store).votes and store.consensus
    assert [tuple(oe) for oe in store.consensus] == reference_consensus(store)
    return store, polls, late


@pytest.mark.parametrize("seed", SEEDS)
def test_fame_matches_tuple_keyed_reference(seed):
    check_fame_against_reference(gossip_dag(seed)[0])


@pytest.mark.parametrize("seed", SEEDS[:4])
def test_fame_after_member_leaves_matches_reference(seed):
    # the last member leaves halfway, so every later vote and round is
    # counted against a smaller supermajority on both sides
    built = gossip_dag(seed)[0]
    check_fame_against_reference(built, remove=built.population[-1])


@pytest.mark.parametrize("seed, n", [(0, 7), (3, 6), (5, 6)])
def test_fame_with_coin_rounds_matches_reference(seed, n, monkeypatch):
    # a coin round every other voting round: on these forked schedules
    # some voters' tallies there fall short of a supermajority, and their
    # coin bit, not their majority, is their vote, on both sides
    monkeypatch.setattr(hashgraph, "COIN_PERIOD", 2)
    monkeypatch.setattr(oracles, "COIN_PERIOD", 2)
    check_fame_against_reference(gossip_dag(seed, steps=300, n=n)[0])


def test_fame_matches_reference_on_simulated_equivocators():
    # the simulator's equivocators leave voters that do not strongly see
    # every witness of the round before, so tallies must count only those
    # they do
    sim = Simulation(ScenarioConfig(
        n=8, s=1, seed=7, duration=30, tx_rate=8.0,
        adversary_kind="equivocator", adversary_fraction=0.2,
        adversary_interval=2,
    ))
    sim.run()
    store = sim.state.local_stores[0]
    assert forkers(store)
    check_fame_against_reference(store)


@pytest.mark.parametrize("n, steps, seed, width",
                         [(7, 300, 0, 8), (31, 1500, 1, 32)])
def test_fame_and_order_across_widening(n, steps, seed, width):
    # three members join halfway, past the field width, while rounds are
    # undecided: the replay's vote vectors and voted fields are re-laid at
    # the doubled width and must keep voting as the reference does.  The
    # joiners' genesis events land in round 1 after witnesses two rounds up
    # have voted on it, so those voters vote again on the new fields alone
    built = gossip_dag(seed, steps=steps, n=n, joins=3)[0]
    assert forkers(built) and packing(built).width == 2 * width
    store, polls, late = check_fame_against_reference(built,
                                                      members=range(n))
    assert packing(store).width == 2 * width and late == 3
    before = [live for f, live in polls if f == width]
    assert before and before[-1] > 0
    assert any(f == 2 * width and live for f, live in polls)


def test_voter_deciding_a_round_on_two_polls_keeps_both():
    # a joiner's genesis event lands in round 1 while one of its witnesses
    # is still undecided, and a voter that decided others there on an
    # earlier poll decides it: that voter's group holds both
    built = gossip_dag(35, steps=250, n=6, joins=3)[0]
    store, _, late = check_fame_against_reference(built, members=range(6))
    joined = [{event(store, w).creator >= 6 for w in bits(ws)}
              for ws in decider_groups(store, 1)[1].values()]
    assert late and {False, True} in joined


def shuffled_topological_order(store, rng):
    """store's event indices in a random order that lists every event after
    its parents."""
    waiting, children = [], {}
    for i in store.by_index:
        ev = event(store, i)
        parents = {p for p in (ev.self_parent, ev.other_parent)
                   if p is not None}
        waiting.append(len(parents))
        for p in parents:
            children.setdefault(p, []).append(i)
    ready = [i for i, n in enumerate(waiting) if not n]
    order = []
    while ready:
        i = ready.pop(rng.randrange(len(ready)))
        order.append(i)
        for c in children.get(i, ()):
            waiting[c] -= 1
            if not waiting[c]:
                ready.append(c)
    assert sorted(order) == list(store.by_index)
    return order


@pytest.mark.parametrize("seed", SEEDS)
def test_fame_deciders_and_order_do_not_depend_on_insert_order(seed):
    # a forked DAG inserted into two fresh stores, in index order and in a
    # seeded random topological order, then polled once: witness positions
    # differ, but fame, its deciders and the consensus order are functions
    # of ancestry, so both stores give the same ones, keyed by id
    built = gossip_dag(seed)[0]
    assert forkers(built)
    evs = records(built)
    shuffled = shuffled_topological_order(built, random.Random(seed))
    assert shuffled != list(built.by_index)
    annotations = []
    for order in (built.by_index, shuffled):
        store = EventStore(built.population)
        for i in order:
            oracles.insert_event(store, evs[i])
        store.advance_consensus()
        annotations.append((
            {event(store, w).id: famous
             for w, famous in fame_of(store).items()},
            {event(store, w).id: event(store, d).id
             for w, d in deciders_of(store).items()},
            list(store.consensus)))
    assert annotations[0] == annotations[1]
    assert annotations[0][1] and annotations[0][2]


def test_vote_state_stays_flat_in_history():
    # live vote-state entries are capped by the witnesses of the rounds
    # still voted on, so the last 1200 steps of a forked 7-member schedule
    # hold no more of them at any poll than the first 300 did
    peaks = []

    def poll(t, views):
        if t % 5 == 0:
            store = views[0].store
            store.advance_consensus()
            peaks.append(check_vote_state_bounds(store))

    store, _ = gossip_dag(3, steps=1500, poll=poll)
    assert store.finalized_round > 19 and forkers(store)
    early, late = max(peaks[:60]), max(peaks[60:])
    assert 0 < late <= early <= 5 * len(store.population)
    assert early < sum(map(len, store.witnesses_by_round.values())) // 5


def median_cases(store):
    """Per finalized round with famous witnesses: the famous count, and per
    event ordered in it, its consensus timestamp and its sorted stamps."""
    received, anc = {}, oracles.ancestry(store)
    fame = fame_of(store)
    for oe in store.consensus:
        received.setdefault(oe.round_received, []).append(oe)
    for r in range(1, store.finalized_round + 1):
        famous = [w for w in store.witnesses_by_round[r] if fame.get(w)]
        yield len(famous), [
            (oe.consensus_timestamp,
             median_stamps(store, anc, oracles.index_of(store)[oe.event_id],
                           famous))
            for oe in received.get(r, ())]


def test_bit_sliced_median_matches_per_event_stamps():
    # rounds with an even and an odd famous count, and events whose median
    # stamp is tied with a neighbour in the sorted stamps
    stores = [gossip_dag(seed)[0] for seed in SEEDS]
    sim = Simulation(ScenarioConfig(
        n=8, s=1, seed=7, duration=30, tx_rate=8.0,
        adversary_kind="equivocator", adversary_fraction=0.2,
        adversary_interval=2,
    ))
    sim.run()
    stores.append(sim.state.local_stores[0])
    parities, ties, checked = set(), 0, 0
    for store in stores:
        store.advance_consensus()
        for count, events in median_cases(store):
            if events:
                parities.add(count % 2)
            k = (count - 1) // 2
            for ts, stamps in events:
                assert len(stamps) == count and ts == stamps[k]
                ties += stamps.count(ts) > 1
                checked += 1
    assert parities == {0, 1}
    assert ties > 0 and checked > 1000


@pytest.mark.parametrize("seed", SEEDS)
def test_consensus_matches_per_event_median_search(seed):
    store, _ = gossip_dag(seed)
    store.advance_consensus()
    assert store.finalized_round >= 2 and store.consensus
    assert [tuple(oe) for oe in store.consensus] == reference_consensus(store)


def check_view_records(store):
    """The records view limits read, for each finalized round: the
    decider groups partition its witnesses with fame, and the stored
    highest decider is the largest of them.  A finalized round is decided,
    so its record is one flat tuple, and its masks, shifted down by the
    round's first witness, span the round's witnesses alone."""
    fame = fame_of(store)
    for r in range(1, store.finalized_round + 1):
        ws = store.witnesses_by_round[r]
        frozen, masks = decider_record(store, r)
        assert frozen
        assert all(0 < mask < 1 << ws[-1] - ws[0] + 1 for mask in masks)
        last, groups = decider_groups(store, r)
        union = 0
        for mask in groups.values():
            assert mask and not union & mask
            union |= mask
        assert union == sum(1 << w for w in ws if w in fame)
        assert last == max(groups)


def check_view_limits(store, views):
    """Each view's finalized round against the rescan from round 1, and its
    consensus_order against the canonical order cut at that round; then
    the records the limits are read from.  Returns the rounds."""
    limits = []
    for view in views:
        order = consensus_order(view)
        limit = store.view_finalized_round(view.known)
        assert limit == reference_view_finalized_round(store, view.known)
        assert list(order) == [oe for oe in store.consensus
                               if oe.round_received <= limit]
        limits.append(limit)
    check_view_records(store)
    return limits


@pytest.mark.parametrize("seed", SEEDS)
def test_view_limits_match_rescan(seed):
    # every member's view, polled every 20 steps while the store grows.  On
    # seeds 1 and 5 two members join halfway: their genesis events land in
    # finalized round 1 and are never voted on.  The brute-force oracle
    # decides each not famous, and a view that learns one keeps round 1
    polls = []

    def poll(t, views):
        if t % 20 == 0:
            limits = check_view_limits(views[0].store, views)
            polls.append((views[0].store.finalized_round, limits))

    store, views = gossip_dag(seed, joins=2 * (seed % 4 == 1), poll=poll)
    limits = check_view_limits(store, views)
    polls.append((store.finalized_round, limits))
    assert forkers(store)
    fame = fame_of(store)
    late = [w for r in range(1, store.finalized_round + 1)
            for w in store.witnesses_by_round[r] if w not in fame]
    assert len(late) == 2 * (seed % 4 == 1)
    if late:
        brute = BruteGraph(store.population, records(store)).fame()
        assert [brute.get(event(store, w).id) for w in late] == [False,
                                                                  False]
    # some views reach the store's finalized round and some stop short
    assert any(0 < limit == final for final, ls in polls for limit in ls)
    assert any(limit < final for final, ls in polls for limit in ls)


def test_view_limit_reads_each_decider_group_at_its_round():
    # a view that misses one decider of a round, and every witness that
    # decider decided, but knows another decider keeps the round; one that
    # also knows one of those witnesses stops below it.  The limit is a
    # function of the mask, so these masks, not down-closed, reach the
    # test of each group's round-relative witness mask alone.  Polls every
    # 5 steps and two joiners split rounds into several groups; a group is
    # tried where none of its events decides a lower round
    def poll(t, views):
        if t % 5 == 0:
            views[0].store.advance_consensus()

    kept = stopped = 0
    for seed in SEEDS:
        store, _ = gossip_dag(seed, steps=300, poll=poll, joins=2)
        store.advance_consensus()
        full = (1 << len(store.by_index)) - 1
        below = 0   # the deciders of the rounds below r
        for r in range(1, store.finalized_round + 1):
            groups = decider_groups(store, r)[1]
            pairs = [(d, ws) for d, ws in groups.items()
                     if len(groups) > 1 and not below & (1 << d | ws)]
            below |= sum(1 << d for d in groups)
            for d, ws in pairs:
                for known in (full & ~(1 << d) & ~ws,
                              full & ~(1 << d) & ~ws | ws & -ws):
                    limit = store.view_finalized_round(known)
                    assert limit == reference_view_finalized_round(
                        store, known)
                    kept += limit >= r
                    stopped += limit == r - 1
    assert (kept, stopped) == (9, 9)


def test_late_witness_is_not_famous_and_caps_no_view():
    # all 7 members gossip until member 6's head is in a round above
    # member 5's, and in round 2 or later; then members 0-4, a
    # supermajority, gossip on without 5 and 6, whose last events stay
    # their creators' last, so neither is ancient.  A 6 -> 5 sync then
    # lands 5's record event as a witness in an already finalized round.
    # Its round's deciders predate it, so it is not famous: the engine
    # never votes on it, and member 1's view keeps every finalized round
    # once it has learned it
    store = EventStore(range(7))
    views = [Hashgraph(store, i) for i in range(7)]
    for i in range(7):
        create_event(views[i], None, (), 0)
    rng = random.Random(2)

    def gossip(steps, members=range(5)):
        for _ in range(steps):
            s, r = rng.sample(members, 2)
            gossip_sync(views[s], views[r], len(store.by_index), ())

    def limits():
        full = (1 << len(store.by_index)) - 1
        got = [store.view_finalized_round(known)
               for known in (full, full & ~(1 << late))]
        assert got == [reference_view_finalized_round(store, known)
                       for known in (full, full & ~(1 << late))]
        return got

    while store.round[views[6].head] <= max(1, store.round[views[5].head]):
        gossip(1, range(7))
    gossip(140)
    store.advance_consensus()
    assert store.finalized_round >= 3
    full = (1 << len(store.by_index)) - 1
    assert store.view_finalized_round(full) == store.finalized_round
    watcher = views[1]
    before = store.view_finalized_round(watcher.known)
    assert before == reference_view_finalized_round(store, watcher.known)
    gossip_sync(views[6], views[5], len(store.by_index), ())
    late = views[5].head
    r = store.round[late]
    assert late in store.witnesses_by_round[r]
    assert 2 <= r <= before <= store.finalized_round
    store.advance_consensus()
    check_view_records(store)
    brute = BruteGraph(store.population, records(store)).fame()
    assert brute[event(store, late).id] is False
    assert late not in fame_of(store) and late not in deciders_of(store)
    gossip_sync(views[5], watcher, len(store.by_index), ())
    assert watcher.known >> late & 1
    assert store.view_finalized_round(watcher.known) == (
        reference_view_finalized_round(store, watcher.known)) >= before
    # a view that knows the witness keeps every finalized round, like one
    # that does not
    assert limits() == [store.finalized_round] * 2
    finalized = store.finalized_round
    gossip(60)
    store.advance_consensus()
    assert store.finalized_round > finalized and late not in fame_of(store)
    assert late not in deciders_of(store)
    assert limits() == [store.finalized_round] * 2


def known_events_of(store, view, creator):
    return [i for i in store.by_index
            if event(store, i).creator == creator and view.known >> i & 1]


def sees_own_fork(store, w):
    bit = packing(store).member_bits[event(store, w).creator]
    return forked_of(store, w) >> bit & 1


def test_famous_witness_seeing_own_fork_stamped_by_self_ancestors():
    # creator 0 forks at tick 1 and its round-2 witness reaches both
    # branches.  Such a witness only gets "no" votes in the first voting
    # round (every voter inherits the fork bit), so fame is decided by hand
    # here to reach the ordering path for it.  Its stamp for an event is
    # still the earliest event down its own self-parent chain that reaches
    # the event, never an event of the other branch.
    store = EventStore(range(4))
    views = [Hashgraph(store, i) for i in range(4)]
    for i in range(4):
        create_event(views[i], None, (), 0)
    equivocate(views, 0, (1, 2), 1)
    for t, (s, r) in enumerate(
        [(1, 3), (2, 3), (3, 0), (0, 1), (1, 2), (2, 3), (3, 0), (0, 1),
         (1, 2), (2, 3), (3, 1), (1, 0)], 2,
    ):
        gossip_sync(views[s], views[r], t, ())
    (w,) = [u for u in store.witnesses_by_round[2] if sees_own_fork(store, u)]
    assert event(store, w).creator == 0
    # rounds 1 and 2 famous, each decided by its highest witness, and every
    # witness polled, so the next poll casts no vote and keeps this fame
    decide_by_hand(store, (1, 2))
    store.advance_consensus()
    assert store.finalized_round == 2 and store.consensus
    assert [tuple(oe) for oe in store.consensus] == reference_consensus(store)
    # w's chain runs through creator 0's branch a991fa80, created at 1, so
    # w stamps it 1 and the median is 1.  A search over all of creator 0's
    # ancestors of w, which are not one chain, steps over the branch to the
    # next chain event, created at 4, and gives a median of 3.
    stamp = {oe.event_id.hex()[:8]: oe.consensus_timestamp
             for oe in store.consensus}
    assert stamp["a991fa80"] == 1


@pytest.mark.parametrize("seed", SEEDS[:3])
def test_heads_and_digest_order_after_gossip(seed):
    store, views = gossip_dag(seed, steps=120)
    for view in views:
        own = known_events_of(store, view, view.owner)
        i = view.head
        assert i in own
        assert event(store, i).seq == max(event(store, j).seq for j in own)
    # events ordered at one round and stamp are in digest order
    store.advance_consensus()
    assert store.finalized_round >= 2
    entries = [(oe.round_received, oe.consensus_timestamp, oe.event_id)
               for oe in store.consensus]
    assert entries == sorted(entries)


@pytest.mark.parametrize("seed", SEEDS[:3])
def test_record_event_heads_receiver_view(seed):
    # after each sync of a forked schedule the receiver's head is its
    # record event and its view holds the sender's; an equivocator's alt
    # view, which sends once, heads its own branch b
    heads = []

    def sync(sender, receiver, t, payload=()):
        transfer, ev = gossip_sync(sender, receiver, t, payload)
        assert receiver.head == ev
        assert sender.known & ~receiver.known == 0
        heads.append((sender, sender.head))
        return transfer, ev

    store, views = gossip_dag(seed, steps=120, sync=sync)
    members = {id(view) for view in views}
    alt_heads = [head for sender, head in heads if id(sender) not in members]
    assert alt_heads
    for head in alt_heads:
        (tx,) = held_payloads(store)[head]
        assert tx.tx_id.startswith("fork") and tx.tx_id.endswith("b")


def test_equivocator_head_is_later_absorbed_branch():
    # branch b has the lower index; when gossip brings it back to the
    # equivocator's own view it ties with branch a on seq and, absorbed
    # later, becomes the head the next event chains onto
    store = EventStore(range(4))
    views = [Hashgraph(store, i) for i in range(4)]
    for i in range(4):
        create_event(views[i], None, (), 0)
    alt = equivocate(views, 0, (1, 2), 1)
    a, b = views[0].head, alt.head
    assert event(store, a).seq == event(store, b).seq
    assert b < a
    transfer, ev = gossip_sync(views[2], views[0], 2, ())
    assert b in list(transfer)
    assert event(store, ev).self_parent == b and views[0].head == ev


def transfer_checked(sender, receiver, t, payload=()):
    """gossip_sync, asserting that its transfer is sender.known &
    ~receiver.known as brute force sees it, in index order."""
    store = sender.store
    want = [i for i in store.by_index
            if sender.known >> i & 1 and not receiver.known >> i & 1]
    transfer, ev = gossip_sync(sender, receiver, t, payload)
    assert len(transfer) == len(want)
    assert list(transfer) == want
    held = held_payloads(store)
    assert transfer.units == sum(tx.size_units for i in want
                                 for tx in held[i])
    return transfer, ev


@pytest.mark.parametrize("seed", SEEDS)
def test_transfers_match_brute_force(seed):
    store, views = gossip_dag(seed, sync=transfer_checked)
    assert len(unit_planes(store)) == 3
    # a joiner's empty view takes the whole history in one sync
    joiner = len(views)
    store.add_member(joiner)
    full = Hashgraph(store, 0, (1 << len(store.by_index)) - 1)
    transfer, _ = transfer_checked(full, Hashgraph(store, joiner), 250)
    assert len(transfer) == len(store.by_index) - 1
    # a rejoining member's empty view takes its head back: the furthest
    # along its chain, the last in index order on a tie
    own = known_events_of(store, views[1], 0)
    head = max(own, key=lambda i: (event(store, i).seq, i))
    _, ev = transfer_checked(views[1], Hashgraph(store, 0), 251)
    assert event(store, ev).self_parent == head


# -- gossip chains -------------------------------------------------------------


def chain_fixture(seed, n, steps):
    """A forked gossip DAG of n members, then one more fork of member 0
    whose branch b only member 2 holds, and a joiner, member n, with an
    empty view.  Returns the store, the views and branch b's index."""
    store, views = gossip_dag(seed, steps=steps, n=n)
    alt = equivocate(views, 0, (1, 2), steps)
    store.add_member(n)
    views.append(Hashgraph(store, n))
    return store, views, alt.head


def view_states(views):
    return [(view.known, view.head) for view in views]


TXS = st.lists(st.builds(Transaction, tx_id=st.text("abc", max_size=3),
                         origin=st.just(0), target=st.just(0),
                         size_units=st.integers(0, 3),
                         kind=st.just(KIND_PAYLOAD), data=st.just(())),
               max_size=3)


@settings(derandomize=True, max_examples=40, deadline=None)
@given(seed=st.integers(0, 999), n=st.integers(4, 7),
       steps=st.integers(8, 60), data=st.data())
def test_gossip_chain_equals_its_syncs_one_at_a_time(seed, n, steps, data):
    # a ring over the members and the empty joiner; when learn is drawn,
    # member 2 pushes into the equivocator 0 and the branch it brings moves
    # 0's head.  One receiver is a coordinator, whose payload ends with an
    # inbound batch of cross-shard transactions
    ring = data.draw(st.permutations(range(n + 1)))
    ring = ring[:data.draw(st.integers(2, n + 1))]
    learn = data.draw(st.booleans())
    if learn:
        ring = [m for m in ring if m not in (0, 2)] + [2, 0]
    payloads = [list(data.draw(TXS)) for _ in ring]
    coordinator = data.draw(st.integers(0, len(ring) - 1))
    payloads[coordinator] += [
        Transaction(f"in{k}", 1, 0, 1, KIND_PAYLOAD, ()) for k in range(3)]
    receivers = ring[1:] + ring[:1]
    store, views, branch = chain_fixture(seed, n, steps)
    twin, singles, _ = chain_fixture(seed, n, steps)
    syncs = gossip_chain([views[m] for m in ring + ring[:1]], payloads,
                         steps + 1)
    want = [gossip_sync(singles[s], singles[r], steps + 1, payload)
            for s, r, payload in zip(ring, receivers, payloads)]
    assert [(mask, store.units_of(mask), ev) for mask, ev in syncs] == [
        (transfer.mask, transfer.units, ev) for transfer, ev in want]
    assert oracles.columns(store) == oracles.columns(twin)
    assert view_states(views) == view_states(singles)
    store.advance_consensus()
    twin.advance_consensus()
    assert store.consensus == twin.consensus
    if learn:
        (made,) = [ev for r, (_, ev) in zip(receivers, syncs) if r == 0]
        assert event(store, made).self_parent == branch


@settings(derandomize=True, max_examples=30, deadline=None)
@given(seed=st.integers(0, 999), n=st.integers(4, 7), data=st.data(),
       kind=st.sampled_from(["store", "member", "owner"]))
def test_gossip_chain_rejected_step_leaves_its_receiver(seed, n, data, kind):
    # a view of another store, one whose owner is not a member, and one of
    # its sender's owner (whose record event would take its own creator's
    # event as other_parent) each raise at their step: the syncs before it
    # stand, as gossip_sync makes them, and no view from it on moves
    at = data.draw(st.integers(1, n - 1))
    store, views = gossip_dag(seed, steps=30, n=n)
    twin, singles = gossip_dag(seed, steps=30, n=n)
    owner = {"store": at, "member": n + 5, "owner": at - 1}[kind]
    bad = Hashgraph(EventStore(range(n)) if kind == "store" else store, owner)
    chain = [*views[:at], bad, *views[at:]]
    with pytest.raises(hashgraph.HashgraphError):
        gossip_chain(chain, [()] * n, 30)
    for s, r in zip(singles, singles[1:at]):
        gossip_sync(s, r, 30, ())
    assert (bad.known, bad.head) == (0, None)
    assert oracles.columns(store) == oracles.columns(twin)
    assert view_states(views) == view_states(singles)


# -- frontier records ----------------------------------------------------------


def check_frontier(store):
    """Live records number at most the unordered events plus one per
    creator: an ordered event's record is freed once it has an ordered
    self-child, or as it is ordered if it is not its creator's last event,
    so a forker's dead branch tips go as any superseded event does, and no
    live ordered event has an ordered self-child.
    Returns the live records and their ancestor masks' summed bytes."""
    live, emitted = live_records(store), ordered_mask(store)
    own = creator_masks(store)
    assert len(live) <= (len(store.by_index) - len(store.consensus)
                         + len(own))
    for x in live:
        if emitted >> x & 1:
            later = own[event(store, x).creator] >> x + 1 << x + 1
            assert not any(event(store, y).self_parent == x
                           and emitted >> y & 1 for y in bits(later))
    return len(live), sum(sys.getsizeof(entry.anc) for entry in live.values())


def check_held_payloads(sim):
    """Each store holds exactly the payloads not yet taken: a local store's
    events past its walk, which takes each ordered event's, and the global
    store's events not yet released to every seat."""
    for store in sim.state.local_stores.values():
        taken = set(order_columns(store).events[:walk_position(store)])
        assert held_payloads(store).keys() == set(store.by_index) - taken
    gstore = sim.state.global_store
    released = ordered_mask(gstore)
    for seat in sim.state.seats.values():
        released &= seat.known
    assert held_payloads(gstore).keys() == {
        i for i in gstore.by_index if not released >> i & 1}


@pytest.fixture
def never_polled(monkeypatch):
    """Records each store's construction, membership changes and inserts;
    the returned function replays one store's record into a fresh store
    that is never polled, so none of its live records is freed."""
    log = {}
    methods = {name: getattr(EventStore, name) for name in
               ("__init__", "add_member", "remove_member", "add_event")}

    def recorded(name):
        def call(store, *args):
            result = methods[name](store, *args)
            if name == "__init__":
                args = (list(store.population),)
            log.setdefault(store, []).append((name, args))
            return result
        return call

    for name in methods:
        monkeypatch.setattr(EventStore, name, recorded(name))

    def replay(store):
        fresh = EventStore.__new__(EventStore)
        for name, args in log[store]:
            methods[name](fresh, *args)
        assert fresh.round == store.round
        live = live_records(fresh)
        assert list(live) == list(fresh.by_index)
        assert all(entry.anc >> i & 1 for i, entry in live.items())
        return fresh

    return replay


def check_kept_state(store, fresh):
    """Every live record the polled store kept is the never-polled fresh's
    record for the same event, and a record is freed only for an ordered,
    superseded event; returns how many events' records were freed."""
    freed = 0
    for i in store.by_index:
        entry = live_record(store, i)
        if entry:
            assert entry == live_record(fresh, i)
        else:
            assert oracles.engine_ancestry(store, i) is None
            freed += 1
    return freed


@pytest.mark.parametrize("cfg, forked, widened", [
    pytest.param(ScenarioConfig(n=16, s=2, seed=5, duration=80, tx_rate=16.0,
                                adversary_kind="equivocator",
                                adversary_fraction=0.2, adversary_interval=2),
                 True, False, id="equivocator"),
    # leaves and rejoins past a committee's 8 member bits double its width
    pytest.param(ScenarioConfig(n=24, s=3, seed=4, duration=120,
                                tx_rate=24.0, cross_ratio=0.2,
                                adversary_kind="churn",
                                adversary_fraction=0.3, adversary_interval=5,
                                adversary_rejoin=True),
                 False, True, id="churn-widening"),
    # reorganizations move members back into committees they left, where
    # each chains onto its last event there: only the ordering of that
    # self-child frees the old last event's record
    pytest.param(ScenarioConfig(n=30, s=3, seed=8, duration=200,
                                tx_rate=10.0, adversary_kind="churn",
                                adversary_committee=1, adversary_interval=4),
                 False, True, id="reorg-return"),
])
def test_freed_reach_rebuilds_to_never_polled_entry(cfg, forked, widened,
                                                    never_polled):
    # live records stay at the frontier and payloads are held until taken,
    # after every poll; the run names no ancient parent (add_event would
    # raise), and what is kept is what a never-polled replay of the same
    # inserts holds
    sim = Simulation(cfg)

    def checked(t):
        for store in sim.state.local_stores.values():
            check_frontier(store)
        check_frontier(sim.state.global_store)
        check_held_payloads(sim)

    hook(sim, "poll", checked)
    sim.run()
    stores = list(sim.state.local_stores.values())
    assert any(forkers(store) for store in stores) == forked
    assert any(packing(store).width > 8 for store in stores) == widened
    for store in stores + [sim.state.global_store]:
        fresh = never_polled(store)
        assert check_kept_state(store, fresh) > len(store.by_index) // 2
        assert detect_forks(store) == detect_forks(fresh)


# -- ancient parents -----------------------------------------------------------


def ancient_parents():
    """A polled fork-free store and its views, with two ancient events: an
    early event of member 0 whose self-child is ordered, and an ordered
    event of member 1 that is not its last, which member 0's view knows."""
    store, views = gossip_dag(0, steps=200, fork_p=0)
    store.advance_consensus()
    assert store.finalized_round >= 4
    masks = creator_masks(store)
    own = [i for i in bits(masks[0]) if store.round[i] >= 2]
    base, child = own[0], own[1]
    other = max(i for i in bits(masks[1]) if i < child)
    for i in (base, other):
        assert i not in live_records(store)
        assert oracles.engine_ancestry(store, i) is None
    assert views[0].known >> other & 1
    return store, views, base, other


def check_rejected(store, views, insert, reason):
    """insert() raises HashgraphError for reason and leaves the store and
    every view in views as they were."""
    before = oracles.state(store), view_states(views)
    with pytest.raises(hashgraph.HashgraphError, match=f"^{reason}$"):
        insert()
    assert (oracles.state(store), view_states(views)) == before


def stale_view(store, owner, head):
    """owner's view as it stood when head was its last event."""
    return Hashgraph(store, owner, oracles.ancestry(store)[head], head)


def test_fork_on_a_freed_self_parent_is_rejected():
    # member 0 branches on an early event whose self-child is ordered
    store, views, base, _ = ancient_parents()
    check_rejected(store, views,
                   lambda: store.add_event(0, base, None, (), 500),
                   f"ancient self_parent {base}")


def test_child_of_a_freed_other_parent_is_rejected():
    # member 0's next event names an ordered, superseded event of member 1
    store, views, _, other = ancient_parents()
    check_rejected(store, views,
                   lambda: store.add_event(0, views[0].head, other, (), 500),
                   f"ancient other_parent {other}")


def test_create_event_on_an_ancient_parent_leaves_the_view():
    # a stale view of member 0 chains onto its ancient head, and member 0's
    # own view names an ancient other-parent it knows
    store, views, base, other = ancient_parents()
    stale = stale_view(store, 0, base)
    check_rejected(store, views + [stale],
                   lambda: create_event(stale, None, (), 500),
                   f"ancient self_parent {base}")
    check_rejected(store, views + [stale],
                   lambda: create_event(views[0], other, (), 500),
                   f"ancient other_parent {other}")


def test_every_index_missing_from_live_is_an_ancient_parent():
    # an index is ancient by its absence from the live records alone:
    # every event a poll freed is rejected as either parent, and the store
    # and its views stay as they were
    store, views, _, _ = ancient_parents()
    live, masks = live_records(store), creator_masks(store)
    ancient = [i for i in store.by_index if i not in live]
    assert len(ancient) > len(store.by_index) // 2
    for i in ancient[::len(ancient) // 8]:
        creator = event(store, i).creator
        other = next(c for c in masks if c != creator)
        head = masks[other].bit_length() - 1
        check_rejected(store, views,
                       lambda: store.add_event(creator, i, None, (), 500),
                       f"ancient self_parent {i}")
        check_rejected(store, views,
                       lambda: store.add_event(other, head, i, (), 500),
                       f"ancient other_parent {i}")


def joined_ancient_parents():
    """ancient_parents with two joiners, each with its genesis event."""
    store, views, base, other = ancient_parents()
    for m in range(len(views), len(views) + 2):
        store.add_member(m)
        views.append(Hashgraph(store, m))
        create_event(views[m], None, (), 500)
    return store, views, base, other


@pytest.mark.parametrize("kind", ["receiver", "sender"])
def test_gossip_chain_stops_at_an_ancient_parent(kind):
    # after the joiners' sync stands, a stale view of member 0 receives
    # from a joiner, which brings it no later event of its owner, so its
    # record would chain onto its ancient head; or a stale view of member
    # 1 sends first, and its ancient head would be the record's
    # other-parent.  The syncs before stand, as gossip_sync makes them,
    # and no view from the rejected step on moves
    store, views, base, other = joined_ancient_parents()
    twin, singles, _, _ = joined_ancient_parents()
    a, b = views[-2:]
    if kind == "receiver":
        stale = stale_view(store, 0, base)
        chain, reason = [a, b, stale, views[1]], f"ancient self_parent {base}"
        gossip_sync(singles[-2], singles[-1], 500, ())
    else:
        stale = stale_view(store, 1, other)
        chain, reason = [stale, a, b], f"ancient other_parent {other}"
    head = stale.head
    with pytest.raises(hashgraph.HashgraphError, match=f"^{reason}$"):
        gossip_chain(chain, [()] * (len(chain) - 1), 500)
    assert (stale.known, stale.head) == (oracles.ancestry(store)[head], head)
    assert oracles.state(store) == oracles.state(twin)
    assert view_states(views) == view_states(singles)


def test_detect_forks_from_evidence_matches_brute_force(never_polled):
    # members 0 and 1 gossip honestly while rounds are ordered and their
    # early masks freed, then equivocate: their masks are freed by the rule
    # every creator's are, before and after their first branch point, and
    # the fork pairs recorded at insert are brute force's and those of a
    # never-polled replay
    def poll(t, views):
        if t % 5 == 0:
            views[0].store.advance_consensus()
            check_frontier(views[0].store)

    store, _ = gossip_dag(1, steps=400, n=7, poll=poll, fork_from=150)
    fresh = never_polled(store)
    assert sorted(forkers(store)) == [0, 1]
    ordered = set(oracles.index_of(store)[oe.event_id]
                  for oe in store.consensus)
    live, masks = live_records(store), creator_masks(store)
    for c in forkers(store):
        own = list(bits(masks[c]))
        first = min(b for b in fork_evidence(store)
                    if event(store, b).creator == c)
        assert sum(i not in live for i in own if i < first) > 10
        parents = [event(store, x).self_parent for x in own if x in ordered]
        superseded = {p for p in parents if p is not None and p >= first}
        assert len(superseded) >= 10 and not any(
            x in live for x in superseded)
    forks = BruteGraph(store.population, records(store)).forks()
    assert detect_forks(store) == forks
    assert detect_forks(fresh) == forks


@functools.cache
def grid_run_peaks(duration):
    """The scaling grid's workload at n=16 s=1 (tx_rate 3n, injection to the
    end), checked after every poll: the peaks of the live records and of
    their ancestor masks' summed bytes."""
    sim = Simulation(ScenarioConfig(n=16, s=1, seed=1, duration=duration,
                                    tx_rate=48.0, inject_until=duration))
    store = sim.state.local_stores[0]
    records, mask_bytes = [], []

    def checked(t):
        live, live_bytes = check_frontier(store)
        records.append(live)
        mask_bytes.append(live_bytes)

    hook(sim, "poll", checked)
    sim.run()
    assert len(store.by_index) > 6 * duration
    return max(records), max(mask_bytes)


def test_live_reaches_stay_flat_in_history():
    # the peak of live records over the polls does not grow with the run
    short, long = (grid_run_peaks(d)[0] for d in (100, 400))
    assert long <= short < 200


def test_live_mask_bytes_grow_linearly_in_history():
    # live masks are bounded in number, but each spans the history up to
    # its event, so four times the history takes about four times the
    # bytes, where keeping every mask took 13.6 times
    short, long = (grid_run_peaks(d)[1] for d in (100, 400))
    assert long <= 4.5 * short


# -- column layout ---------------------------------------------------------------


@pytest.mark.parametrize("seed", SEEDS)
def test_columns_read_back_each_inserted_event(seed, monkeypatch):
    # every inserted event reads back from the store's columns with its
    # seven fields, forks and (odd seeds) a width doubling included; a
    # payload the walk took reads back as None; and a store rebuilt from the
    # records of a transfer's indices, under the same membership changes,
    # orders them the same and has nothing to walk
    n, joins, steps = (7, 3, 400) if seed % 2 else (None, 0, 150)
    inserted, log = [], []
    add_event, add_member = EventStore.add_event, EventStore.add_member

    def recorded_insert(store, creator, sp, op, payload, created_at):
        i = add_event(store, creator, sp, op, payload, created_at)
        inserted.append(oracles.new_record(
            creator, None if sp is None else event(store, sp).id,
            None if op is None else event(store, op).id, payload,
            created_at))
        log.append(("add_event", i))
        return i

    def recorded_member(store, node):
        add_member(store, node)
        log.append(("add_member", node))

    monkeypatch.setattr(EventStore, "add_event", recorded_insert)
    monkeypatch.setattr(EventStore, "add_member", recorded_member)
    store, views = gossip_dag(seed, steps=steps, n=n, joins=joins)
    monkeypatch.undo()
    assert forkers(store) and packing(store).width == (16 if joins else 8)
    assert records(store) == inserted
    store.advance_consensus()
    assert store.consensus
    # the walk takes every ordered event's payload and yields the non-empty
    # ones with their consensus timestamps, once
    order = order_columns(store)
    taken = order.events
    assert store.walk(True) == [
        (inserted[i].payload, ts)
        for i, ts in zip(taken, order.stamps) if inserted[i].payload]
    assert store.walk(True) == []
    recs = records(store)
    for i in taken:
        assert recs[i] == (*inserted[i][:3], None, *inserted[i][4:])
    copies = iter(hashgraph.Transfer(store, (1 << len(inserted)) - 1))
    fresh = EventStore(range(len(views) - joins))
    for name, arg in log:
        if name == "add_member":
            fresh.add_member(arg)
        else:
            assert oracles.insert_event(fresh, recs[next(copies)]) == arg
    fresh.advance_consensus()
    assert fresh.consensus == store.consensus
    assert records(fresh) == recs
    assert fresh.walk(True) == []


@settings(derandomize=True, max_examples=30, deadline=None)
@given(seed=st.integers(0, 999), steps=st.integers(20, 160),
       members=st.sampled_from([(4, 0), (5, 2), (6, 3), (7, 2), (7, 3)]))
def test_id_column_is_the_canonical_serialization(seed, steps, members):
    # forked schedules, past a width doubling where 9 or more members end
    # up in the store: each event's digest is the one its five fields seal
    # to and the id column's 32 bytes at its index, and each view's head
    # names its owner's furthest known event
    n, joins = members
    store, views = gossip_dag(seed, steps=steps, n=n, joins=joins)
    assert packing(store).width == (16 if n + joins > 8 else 8)
    ids = id_column(store)
    assert len(ids) == 32 * len(store.by_index)
    for i, rec in enumerate(records(store)):
        digest, units = seal(rec.creator, rec.self_parent, rec.other_parent,
                             rec.payload, rec.created_at)
        assert digest == ids[32 * i:32 * i + 32]
        assert units == rec.units
    for view in views:
        own = known_events_of(store, view, view.owner)
        if not own:
            assert view.head is None
            continue
        assert view.head in own
        assert event(store, view.head).seq == max(event(store, j).seq
                                                  for j in own)


def test_store_keeps_ids_in_one_byte_column():
    # after a sharded run with equivocators, every store keeps its ids in
    # one bytearray and its integer fields, rounds and order in typed
    # arrays; no other attribute holds an id, as a dict key or otherwise,
    # and none is a per-event list: the only lists are per member, per unit
    # bit and per field width, and the live records and held payloads are
    # dicts of the frontier, not of the history
    sim = Simulation(ScenarioConfig(
        n=16, s=2, seed=3, duration=60, tx_rate=16.0, cross_ratio=0.2,
        adversary_kind="equivocator", adversary_fraction=0.2,
        adversary_interval=2))
    sim.run()
    stores = [*sim.state.local_stores.values(), sim.state.global_store]
    assert any(forkers(store) for store in stores)
    for store in stores:
        check_column_layout(store)
        assert store.consensus
        assert len(store.population) < len(store.by_index)


@functools.cache
def retained_per_event(duration):
    """Bytes per event a one-committee, 16-member run of this many ticks
    leaves its stores holding, traced to the engine module, and the
    events."""
    kept, events = oracles.retained_store_bytes(ScenarioConfig(
        n=16, s=1, seed=1, duration=duration, tx_rate=48.0))
    return kept / events, events


def test_store_bytes_per_event_stay_at_the_column_layout():
    # what a small run's stores retain, per event, traced to the engine
    # module: the event columns, masks, reaches, fame and order state.
    # With one record per event (a hex id, an _EventFields header once
    # applied and an OrderedEvent once ordered) it was 437 B; the columns
    # kept 352 B, and reaches without a width tag 348.1 B.  Ids in one
    # byte column, the integer fields and the order in typed arrays and no
    # id -> index dict kept 224.0 to 226.2 B, as what ran before in the
    # process varies.  Fame as two masks, decider masks shifted to their
    # round, 4-byte witness lists and creator, created_at and stamp
    # columns, and no digest-ordered list of a finalized round kept 161.5
    # to 162.9 B once the count traced the objects CPython's free lists
    # hand out.  One dict of live records, in place of three lists of
    # ancestor masks, forked masks and reaches that hold a slot per event,
    # a dict of held payloads and a 4-byte round column keep 134.3 to
    # 135.7 B.  A no-regression bound: never widen it.
    per_event, events = retained_per_event(100)
    assert events == 1600
    assert per_event <= 136.5


def test_store_bytes_per_event_stay_flat_with_equivocators():
    # the same figure on a forking run, two committees of 16 with a fifth
    # equivocating: with each forker's dead branch tips keeping their masks
    # and reaches, a copy of the forked mask per event and every global
    # payload kept for the whole run it was 225.1 B; freeing them kept
    # 180.1 to 180.7 B, and the frontier records keep 157.2 to 157.7 B.
    # A no-regression bound: never widen it.
    kept, events = oracles.retained_store_bytes(ScenarioConfig(
        n=32, s=2, seed=5, duration=100, tx_rate=32.0,
        adversary_kind="equivocator", adversary_fraction=0.2,
        adversary_interval=2))
    assert events == 4376
    assert kept / events <= 158.5


def test_store_bytes_per_event_do_not_grow_with_history():
    # the history slope of the same figure: four times the ticks retain
    # less per event, 0.82 of d=100's, as the frontier records do not grow
    # with the history (0.90 with a slot per event in three lists).  A fame
    # entry per witness, decider masks as wide as the history and an int
    # object per listed witness made it 1.02
    short, _ = retained_per_event(100)
    long, events = retained_per_event(400)
    assert events == 6400
    assert long <= 0.9 * short
