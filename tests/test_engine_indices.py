"""Differential tests of the EventStore's incremental indices (fork bits,
rounds and witnesses, fame votes, self-parent walks, digest-sorted
witnesses, view heads, gossip transfers) against brute-force or reference
recomputation on seeded gossip DAGs with injected forks."""

import copy
import functools
from array import array
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
from shardgraph.simulation import Simulation, _full_view
from shardgraph.transactions import Transaction

from oracles import (
    BruteGraph,
    ReferenceFame,
    check_vote_state_bounds,
    decider_groups,
    deciders_of,
    fame_of,
    median_stamps,
    records,
    reference_consensus,
    reference_view_finalized_round,
    strongly_seen,
    vote_state,
    witness_flags,
)

SEEDS = range(8)


def equivocate(views, node, peers, t, sync=gossip_sync):
    """Two events on node's head, each pushed to a different peer, the way
    the simulator's equivocators fork; neither branch reaches the other.
    Branch b is added first, so it has the lower index."""
    view = views[node]
    head = view.head
    alt = Hashgraph(view.store, node)
    alt.known = view.known
    alt.head = head
    for branch, marker in ((alt, "b"), (view, "a")):
        payload = (Transaction(tx_id=f"fork{node}-{t}{marker}", origin=0,
                               target=0, size_units=0),)
        create_event(branch, None, payload, t)
    sync(view, views[peers[0]], t)
    sync(alt, views[peers[1]], t)
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
                                   size_units=1 + t % 7),)
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
    store, views = gossip_dag(seed)
    oracle = BruteGraph(store.population, records(store))
    forked_any = set()
    for i, ev in enumerate(records(store)):
        got = {c for c, b in store._member_bit.items() if store._forked[i] >> b & 1}
        assert got == brute_forked(oracle, ev.digest)
        forked_any |= got
    assert forked_any  # the schedule did inject visible forks
    forks = oracle.forks()
    assert detect_forks(_full_view(store)) == forks
    check_view_forks(store, views, forks)


def check_view_forks(store, views, forks):
    """Each member's detect_forks equals the brute-force fork pairs whose
    events it knows; returns how many views miss some pair of forks."""
    missed = 0
    for view in views:
        known = {store._id(i) for i in store.by_index
                 if view.known >> i & 1}
        seen = {f for f in forks if f[1] in known and f[2] in known}
        assert detect_forks(view) == seen
        missed += seen != forks
    return missed


@pytest.mark.parametrize("seed", SEEDS)
def test_detect_forks_on_partial_views(seed):
    # early in a schedule some fork branches have not reached every member
    missed = 0
    for steps in (40, 80):
        store, views = gossip_dag(seed, steps=steps)
        forks = BruteGraph(store.population, records(store)).forks()
        missed += check_view_forks(store, views, forks)
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
    assert list(store._forkers) == [0, 1, 2]
    # each fork is caught by the first event that reaches both branches;
    # member 2's only by the branch's own fork, as c1 comes later
    for i, c in ((d2, 0), (d4, 1), (d6, 2)):
        assert store._forked[i - 1] >> c & 1 == 0
        assert store._forked[i] >> c & 1
    oracle = BruteGraph(store.population, records(store))
    for i, ev in enumerate(records(store)):
        got = {c for c, b in store._member_bit.items()
               if store._forked[i] >> b & 1}
        assert got == brute_forked(oracle, ev.digest)
    forks = oracle.forks()
    assert {f[0] for f in forks} == {0, 1, 2}
    assert detect_forks(_full_view(store)) == forks
    views = []
    for anc in oracles.ancestry(store):
        view = Hashgraph(store)
        view.known = anc
        views.append(view)
    assert check_view_forks(store, views, forks)


def bits(mask):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def brute_rounds(store):
    """Every event's round and witness flag from the direct definition over
    parent-link ancestry, _forked and the population: a strongly sees w when
    w's creator is not forked in a, and the creators not forked in a that
    own an event in anc(a) & desc(w) reach a supermajority."""
    n, anc = len(store.by_index), oracles.ancestry(store)
    sm = supermajority(len(store.population))
    creator_bit = [store._member_bit[c] for c in store._creator]
    events_of = {}
    for x, b in enumerate(creator_bit):
        events_of[b] = events_of.get(b, 0) | 1 << x
    desc = [0] * n
    for x in range(n):
        for y in bits(anc[x]):
            desc[y] |= 1 << x
    rounds, witness, by_round = [], [], {}
    for a in store.by_index:
        parents = [p for p in (store._self_parent[a], store._other_parent[a])
                   if p >= 0]
        r = max((rounds[p] for p in parents), default=1)
        if parents:
            forked = store._forked[a]
            seen = 0
            for w in by_round.get(r, ()):
                if forked >> creator_bit[w] & 1:
                    continue
                between = anc[a] & desc[w]
                creators = [b for b, mask in events_of.items()
                            if between & mask and not forked >> b & 1]
                seen += len(creators) >= sm
            if seen >= sm:
                r += 1
        rounds.append(r)
        sp = store._self_parent[a]
        witness.append(sp < 0 or rounds[sp] < r)
        if witness[-1]:
            by_round.setdefault(r, []).append(a)
    return rounds, witness


@pytest.mark.parametrize("seed", SEEDS)
def test_rounds_and_witnesses_match_brute_force(seed):
    store, _ = gossip_dag(seed)
    rounds, witness = brute_rounds(store)
    assert store.round == rounds
    assert witness_flags(store) == witness
    assert store.max_round >= 4


def strong_sight(store):
    """Every event's strongly_seen answer toward every round."""
    return [[strongly_seen(store, a, r)
             for r in range(1, store.max_round + 1)]
            for a in store.by_index]


@pytest.mark.parametrize("n, steps, width", [(7, 250, 8), (31, 600, 32)])
def test_strong_sight_survives_widening(n, steps, width):
    # three members past the field width double it; once they leave, the
    # supermajority is as before, so every re-laid reach must answer alike
    store, _ = gossip_dag(3, steps=steps, n=n)
    assert store._forkers and store._width == width
    before = strong_sight(store)
    for m in range(n, n + 3):
        store.add_member(m)
    assert store._width == 2 * width
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
    assert store._width > n + 1 and not store._forkers
    o = BruteGraph(store.population, records(store))
    pairs = found = 0
    for a, ev in enumerate(records(store)):
        for r in (store.round[a] - 1, store.round[a]):
            seen = strongly_seen(store, a, r)
            found += len(seen)
            for w in store.witnesses_by_round.get(r, ()):
                pairs += 1
                b = store._id(w)
                assert (w in seen) == (o.is_ancestor(ev.digest, b)
                                       and o.strongly_sees(ev.digest, b))
    assert (pairs, found) == pairs_found
    assert any(store._creator[w] >= n
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
        polls.append((store._width, check_vote_state_bounds(store)))
        return vote_state(store)

    half = len(built.by_index) // 14 * 7
    for i, ev in enumerate(records(built), 1):
        if ev.creator not in store._member_bit:
            store.add_member(ev.creator)
        x = oracles.insert_event(store, ev)
        r = store.round[x]
        late += (x in store.witnesses_by_round[r]
                 and bool(store._covered.get(r)))
        if i % 7 == 0 or i == len(built.by_index):
            votes = poll()
            assert poll() == votes
            if remove is not None and i == half:
                store.remove_member(remove)
                assert poll() == votes
    assert len(fame_of(store)) > len(store.population)
    assert store._votes and store.consensus
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
    assert store._forkers
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
    assert built._forkers and built._width == 2 * width
    store, polls, late = check_fame_against_reference(built,
                                                      members=range(n))
    assert store._width == 2 * width and late == 3
    before = [live for f, live in polls if f == width]
    assert before and before[-1] > 0
    assert any(f == 2 * width and live for f, live in polls)


def test_voter_deciding_a_round_on_two_polls_keeps_both():
    # a joiner's genesis event lands in round 1 while one of its witnesses
    # is still undecided, and a voter that decided others there on an
    # earlier poll decides it: that voter's group holds both
    built = gossip_dag(35, steps=250, n=6, joins=3)[0]
    store, _, late = check_fame_against_reference(built, members=range(6))
    joined = [{store._creator[w] >= 6 for w in hashgraph._set_bits(ws)}
              for ws in decider_groups(store, 1)[1].values()]
    assert late and {False, True} in joined


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
    assert store._first_undecided_round > 20 and store._forkers
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
        record = store._deciders[r]
        assert type(record) is tuple
        assert all(0 < mask < 1 << ws[-1] - ws[0] + 1
                   for mask in record[3::2])
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
    assert store._forkers
    fame = fame_of(store)
    late = [w for r in range(1, store.finalized_round + 1)
            for w in store.witnesses_by_round[r] if w not in fame]
    assert len(late) == 2 * (seed % 4 == 1)
    if late:
        brute = BruteGraph(store.population, records(store)).fame()
        assert [brute.get(store._id(w)) for w in late] == [False, False]
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
            gossip_sync(views[s], views[r], len(store.by_index))

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
    gossip_sync(views[6], views[5], len(store.by_index))
    late = views[5].head
    r = store.round[late]
    assert late in store.witnesses_by_round[r]
    assert 2 <= r <= before <= store.finalized_round
    store.advance_consensus()
    check_view_records(store)
    brute = BruteGraph(store.population, records(store)).fame()
    assert brute[store._id(late)] is False
    assert late not in fame_of(store) and late not in deciders_of(store)
    gossip_sync(views[5], watcher, len(store.by_index))
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
            if store._creator[i] == creator and view.known >> i & 1]


def sees_own_fork(store, w):
    return store._forked[w] >> store._member_bit[store._creator[w]] & 1


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
        gossip_sync(views[s], views[r], t)
    (w,) = [u for u in store.witnesses_by_round[2] if sees_own_fork(store, u)]
    assert store._creator[w] == 0
    for r in (1, 2):
        for u in store.witnesses_by_round[r]:
            store._decided |= 1 << u
            store._famous |= 1 << u
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
        assert store._seq[i] == max(store._seq[j] for j in own)
    # a finalized round's list is dropped: ordering has read it
    store.advance_consensus()
    assert store.finalized_round >= 2
    assert store._by_digest.keys() == {
        r for r in store.witnesses_by_round if r > store.finalized_round}
    for r, ranked in store._by_digest.items():
        assert ranked == sorted(store.witnesses_by_round[r], key=store._id)


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
        (tx,) = store._payload[head]
        assert tx.tx_id.startswith("fork") and tx.tx_id.endswith("b")


def test_equivocator_head_is_later_absorbed_branch():
    # branch b has the lower index; when gossip brings it back to the
    # equivocator's own view it ties with branch a on _seq and, absorbed
    # later, becomes the head the next event chains onto
    store = EventStore(range(4))
    views = [Hashgraph(store, i) for i in range(4)]
    for i in range(4):
        create_event(views[i], None, (), 0)
    alt = equivocate(views, 0, (1, 2), 1)
    a, b = views[0].head, alt.head
    assert store._seq[a] == store._seq[b]
    assert b < a
    transfer, ev = gossip_sync(views[2], views[0], 2)
    assert b in list(transfer)
    assert store._self_parent[ev] == b and views[0].head == ev


def transfer_checked(sender, receiver, t, payload=()):
    """gossip_sync, asserting that its transfer is sender.known &
    ~receiver.known as brute force sees it, in index order."""
    store = sender.store
    want = [i for i in store.by_index
            if sender.known >> i & 1 and not receiver.known >> i & 1]
    transfer, ev = gossip_sync(sender, receiver, t, payload)
    assert len(transfer) == len(want)
    assert list(transfer) == want
    assert transfer.units == sum(tx.size_units for i in want
                                 for tx in store._payload[i])
    return transfer, ev


@pytest.mark.parametrize("seed", SEEDS)
def test_transfers_match_brute_force(seed):
    store, views = gossip_dag(seed, sync=transfer_checked)
    assert len(store._unit_planes) == 3
    # a joiner's empty view takes the whole history in one sync
    joiner = len(views)
    store.add_member(joiner)
    transfer, _ = transfer_checked(_full_view(store), Hashgraph(store, joiner),
                                   250)
    assert len(transfer) == len(store.by_index) - 1
    # a rejoining member's empty view takes its head back: the furthest
    # along its chain, the last in index order on a tie
    own = known_events_of(store, views[1], 0)
    head = max(own, key=lambda i: (store._seq[i], i))
    _, ev = transfer_checked(views[1], Hashgraph(store, 0), 251)
    assert store._self_parent[ev] == head


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


def store_columns(store):
    return (store._ids, store._creator, store._created_at,
            store._self_parent, store._other_parent, store._payload,
            store._unit_planes, store.round, store.witnesses_by_round,
            store._forked)


def view_states(views):
    return [(view.known, view.head) for view in views]


TXS = st.lists(st.builds(Transaction, tx_id=st.text("abc", max_size=3),
                         origin=st.just(0), target=st.just(0),
                         size_units=st.integers(0, 3)), max_size=3)


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
    payloads[coordinator] += [Transaction(f"in{k}", 1, 0) for k in range(3)]
    receivers = ring[1:] + ring[:1]
    store, views, branch = chain_fixture(seed, n, steps)
    twin, singles, _ = chain_fixture(seed, n, steps)
    syncs = gossip_chain([views[m] for m in ring + ring[:1]], payloads,
                         steps + 1)
    want = [gossip_sync(singles[s], singles[r], steps + 1, payload)
            for s, r, payload in zip(ring, receivers, payloads)]
    assert [(mask, store.units_of(mask), ev) for mask, ev in syncs] == [
        (transfer.mask, transfer.units, ev) for transfer, ev in want]
    assert store_columns(store) == store_columns(twin)
    assert view_states(views) == view_states(singles)
    store.advance_consensus()
    twin.advance_consensus()
    assert store.consensus == twin.consensus
    if learn:
        (made,) = [ev for r, (_, ev) in zip(receivers, syncs) if r == 0]
        assert store._self_parent[made] == branch


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
        gossip_sync(s, r, 30)
    assert (bad.known, bad.head) == (0, None)
    assert store_columns(store) == store_columns(twin)
    assert view_states(views) == view_states(singles)


@pytest.mark.parametrize("seed", SEEDS[:4])
def test_undecided_mask_is_each_open_rounds_undecided_witnesses(seed):
    # after every poll of a forked schedule whose field width doubles
    # halfway (7 members and 3 joiners outgrow 8 bits), each round still
    # voted on packs exactly its witnesses that fame has not decided, and
    # rounds are decided at both widths
    decided = {}

    def poll(t, views):
        store = views[0].store
        store.advance_consensus()
        f, fur = store._width, store._first_undecided_round
        decided[f] = fur
        fame = fame_of(store)
        assert store._undecided.keys() <= set(range(fur, store.max_round + 1))
        for r in range(fur, store.max_round + 1):
            assert store._undecided.get(r, 0) == sum(
                1 << p * f
                for p, w in enumerate(store.witnesses_by_round[r])
                if w not in fame)

    store, _ = gossip_dag(seed, steps=400, n=7, joins=3, poll=poll)
    assert store._forkers and decided.keys() == {8, 16}
    assert 1 < decided[8] < decided[16]


# -- reach lifetime ------------------------------------------------------------


def live_reaches(store):
    return len(store._reach) - store._reach.count(hashgraph._FREED)


def check_live_reaches(store):
    """Live reaches number at most the unordered events plus one per
    creator: an ordered event's reach is freed once it has an ordered
    self-child, or as it is ordered if it is not its creator's last event,
    so a forker's dead branch tips go as any superseded event does."""
    live = live_reaches(store)
    assert live <= len(store.by_index) - len(store.consensus) + len(
        store._cmask)
    return live


def check_live_masks(store):
    """Live ancestor masks number at most the unordered events plus one per
    creator, by the rule that frees a reach.  Returns the live masks'
    summed bytes."""
    live = [m for m in store._anc if m]
    assert len(live) <= (len(store.by_index) - len(store.consensus)
                         + len(store._cmask))
    return sum(map(sys.getsizeof, live))


@pytest.fixture
def never_polled(monkeypatch):
    """Records each store's construction, membership changes and inserts;
    the returned function replays one store's record into a fresh store
    that is never polled, so none of its reaches or masks is freed."""
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
        assert live_reaches(fresh) == len(fresh.by_index)
        assert all(fresh._anc)
        return fresh

    return replay


def check_kept_state(store, fresh):
    """Every reach and ancestor mask the polled store kept is the
    never-polled fresh's entry for the same event, and the two are freed
    together, only for an ordered, superseded event; returns how many
    events' state was freed."""
    freed = 0
    for i in store.by_index:
        reach, mask = store._reach[i], store._anc[i]
        assert (reach is hashgraph._FREED) == (not mask)
        if mask:
            assert (reach, mask) == (fresh._reach[i], fresh._anc[i])
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
])
def test_freed_reach_rebuilds_to_never_polled_entry(cfg, forked, widened,
                                                    never_polled):
    # live state stays at the frontier after every poll, the run names no
    # ancient parent (add_event would raise), and what is kept is what a
    # never-polled replay of the same inserts holds
    sim = Simulation(cfg)
    poll = sim._poll

    def checked(t):
        poll(t)
        for store in sim.state.local_stores.values():
            check_live_reaches(store)
            check_live_masks(store)

    sim._poll = checked
    sim.run()
    stores = list(sim.state.local_stores.values())
    assert any(store._forkers for store in stores) == forked
    assert any(store._width > 8 for store in stores) == widened
    for store in stores + [sim.state.global_store]:
        fresh = never_polled(store)
        assert check_kept_state(store, fresh) > len(store.by_index) // 2
        assert detect_forks(_full_view(store)) == detect_forks(
            _full_view(fresh))


# -- ancient parents -----------------------------------------------------------


def ancient_parents():
    """A polled fork-free store and its views, with two ancient events: an
    early event of member 0 whose self-child is ordered, and an ordered
    event of member 1 that is not its last, which member 0's view knows."""
    store, views = gossip_dag(0, steps=200, fork_p=0)
    store.advance_consensus()
    assert store.finalized_round >= 4
    own = [i for i in bits(store._cmask[0]) if store.round[i] >= 2]
    base, child = own[0], own[1]
    other = max(i for i in bits(store._cmask[1]) if i < child)
    for i in (base, other):
        assert store._reach[i] is hashgraph._FREED
        assert oracles.engine_ancestry(store, i) is None
    assert views[0].known >> other & 1
    return store, views, base, other


def store_state(store):
    """A copy of every column, mask, unit plane and consensus record the
    store keeps."""
    return copy.deepcopy((
        store_columns(store), store._seq, store._anc, store._reach,
        store._cmask, store._forkers, store._forker_bits, store._apart,
        store._wcreators, store._by_digest, store._undecided, store._votes,
        store._witness_count, store.max_round))


def check_rejected(store, views, insert, reason):
    """insert() raises HashgraphError for reason and leaves the store and
    every view in views as they were."""
    before = store_state(store), view_states(views)
    with pytest.raises(hashgraph.HashgraphError, match=f"^{reason}$"):
        insert()
    assert (store_state(store), view_states(views)) == before


def stale_view(store, owner, head):
    """owner's view as it stood when head was its last event."""
    view = Hashgraph(store, owner)
    view.known, view.head = oracles.ancestry(store)[head], head
    return view


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
        gossip_sync(singles[-2], singles[-1], 500)
    else:
        stale = stale_view(store, 1, other)
        chain, reason = [stale, a, b], f"ancient other_parent {other}"
    head = stale.head
    with pytest.raises(hashgraph.HashgraphError, match=f"^{reason}$"):
        gossip_chain(chain, [()] * (len(chain) - 1), 500)
    assert (stale.known, stale.head) == (oracles.ancestry(store)[head], head)
    assert store_state(store) == store_state(twin)
    assert view_states(views) == view_states(singles)


def test_detect_forks_from_evidence_matches_brute_force(never_polled):
    # members 0 and 1 gossip honestly while rounds are ordered and their
    # early masks freed, then equivocate: their masks are freed by the rule
    # every creator's are, before and after their first branch point, and
    # the fork pairs recorded at insert are, in every view, brute force's
    # and those of a never-polled replay
    def poll(t, views):
        if t % 5 == 0:
            views[0].store.advance_consensus()

    store, views = gossip_dag(1, steps=400, n=7, poll=poll, fork_from=150)
    fresh = never_polled(store)
    assert sorted(store._forkers) == [0, 1]
    ordered = set(oracles.index_of(store)[oe.event_id]
                  for oe in store.consensus)
    for c in store._forkers:
        own = list(bits(store._cmask[c]))
        first = min(b for b in store._apart if store._creator[b] == c)
        assert sum(not store._anc[i] for i in own if i < first) > 10
        superseded = {store._self_parent[x] for x in own
                      if x in ordered and store._self_parent[x] >= first}
        assert len(superseded) >= 10 and not any(
            store._anc[x] for x in superseded)
    forks = BruteGraph(store.population, records(store)).forks()
    assert detect_forks(_full_view(store)) == forks
    assert detect_forks(_full_view(fresh)) == forks
    for view in views:
        twin = Hashgraph(fresh, view.owner)
        twin.known = view.known
        assert detect_forks(view) == detect_forks(twin)
    assert check_view_forks(store, views, forks)


@functools.cache
def grid_run_peaks(duration):
    """The scaling grid's workload at n=16 s=1 (tx_rate 3n, injection to the
    end), checked after every poll: the peaks of the live reaches and of the
    live masks' summed bytes."""
    sim = Simulation(ScenarioConfig(n=16, s=1, seed=1, duration=duration,
                                    tx_rate=48.0, inject_until=duration))
    store, poll = sim.state.local_stores[0], sim._poll
    reaches, mask_bytes = [], []

    def checked(t):
        poll(t)
        reaches.append(check_live_reaches(store))
        mask_bytes.append(check_live_masks(store))

    sim._poll = checked
    sim.run()
    assert len(store.by_index) > 6 * duration
    return max(reaches), max(mask_bytes)


def test_live_reaches_stay_flat_in_history():
    # the peak of live reaches over the polls does not grow with the run
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
    # seven fields, forks and (odd seeds) a width doubling included; a taken
    # payload reads back as None; and a store rebuilt from the records of a
    # transfer's indices, under the same membership changes, orders them
    # the same
    n, joins, steps = (7, 3, 400) if seed % 2 else (None, 0, 150)
    inserted, log = [], []
    add_event, add_member = EventStore.add_event, EventStore.add_member

    def recorded_insert(store, creator, sp, op, payload, created_at):
        i = add_event(store, creator, sp, op, payload, created_at)
        inserted.append(oracles.new_record(
            creator, None if sp is None else store._id(sp),
            None if op is None else store._id(op), payload, created_at))
        log.append(("add_event", i))
        return i

    def recorded_member(store, node):
        add_member(store, node)
        log.append(("add_member", node))

    monkeypatch.setattr(EventStore, "add_event", recorded_insert)
    monkeypatch.setattr(EventStore, "add_member", recorded_member)
    store, views = gossip_dag(seed, steps=steps, n=n, joins=joins)
    monkeypatch.undo()
    assert store._forkers and store._width == (16 if joins else 8)
    assert records(store) == inserted
    store.advance_consensus()
    assert store.consensus
    taken = range(0, len(inserted), 3)
    for i in taken:
        assert store.take_payload(i) == inserted[i].payload
        assert store.take_payload(i) is None
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
    assert [fresh.take_payload(i) for i in taken] == [None] * len(taken)


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
    assert store._width == (16 if n + joins > 8 else 8)
    assert len(store._ids) == 32 * len(store.by_index)
    for i, rec in enumerate(records(store)):
        digest, units = hashgraph._seal(
            rec.creator, rec.self_parent or b"", rec.other_parent or b"",
            rec.payload, rec.created_at)
        assert digest == bytes(store._ids[32 * i:32 * i + 32])
        assert units == rec.units
    for view in views:
        own = known_events_of(store, view, view.owner)
        if not own:
            assert view.head is None
            continue
        assert view.head in own
        assert store._seq[view.head] == max(store._seq[j] for j in own)


def holds_bytes(value):
    """Whether value, or any container in it, holds a bytes object."""
    if isinstance(value, bytes):
        return True
    if isinstance(value, dict):
        return any(holds_bytes(k) or holds_bytes(v) for k, v in value.items())
    if isinstance(value, (list, tuple, set)):
        return any(map(holds_bytes, value))
    return False


def test_store_keeps_ids_in_one_byte_column():
    # after a sharded run with equivocators, every store keeps its ids in
    # one bytearray and its integer fields and order in typed arrays; no
    # other attribute holds an id, as a dict key or otherwise
    sim = Simulation(ScenarioConfig(
        n=16, s=2, seed=3, duration=60, tx_rate=16.0, cross_ratio=0.2,
        adversary_kind="equivocator", adversary_fraction=0.2,
        adversary_interval=2))
    sim.run()
    stores = [*sim.state.local_stores.values(), sim.state.global_store]
    assert any(store._forkers for store in stores)
    for store in stores:
        assert type(store._ids) is bytearray
        assert len(store._ids) == 32 * len(store.by_index) > 0
        for name in ("_creator", "_created_at", "_self_parent",
                     "_other_parent", "_seq", "_order_events",
                     "_order_rounds", "_order_stamps"):
            assert type(getattr(store, name)) is array
        assert type(store.round) is list and store.consensus
        assert [name for name, value in vars(store).items()
                if name != "_ids" and holds_bytes(value)] == []


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
    # columns, and no digest-ordered list of a finalized round keep 156.7
    # to 162.4 B.  A no-regression bound: never widen it.
    per_event, events = retained_per_event(100)
    assert events == 1600
    assert per_event <= 164.0


def test_store_bytes_per_event_stay_flat_with_equivocators():
    # the same figure on a forking run, two committees of 16 with a fifth
    # equivocating: with each forker's dead branch tips keeping their masks
    # and reaches, a copy of the forked mask per event and every global
    # payload kept for the whole run it was 225.1 B; freeing them keeps
    # 173.8 to 176.8 B.  A no-regression bound: never widen it.
    kept, events = oracles.retained_store_bytes(ScenarioConfig(
        n=32, s=2, seed=5, duration=100, tx_rate=32.0,
        adversary_kind="equivocator", adversary_fraction=0.2,
        adversary_interval=2))
    assert events == 4376
    assert kept / events <= 177.0


def test_store_bytes_per_event_do_not_grow_with_history():
    # the history slope of the same figure: four times the ticks retain no
    # more per event (0.92 to 0.93 of d=100's).  A fame entry per witness,
    # decider masks as wide as the history and an int object per listed
    # witness made it 1.02
    short, _ = retained_per_event(100)
    long, events = retained_per_event(400)
    assert events == 6400
    assert long <= short
