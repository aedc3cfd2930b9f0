"""The one adapter through which the tests observe the engine, and
brute-force reference implementations of the consensus rules.

Tests observe the engine only through this module: no other test module
reads, assigns or imports a private name of the package, which
``test_no_test_reads_a_private_name_but_the_adapter`` in
test_api_surface.py enforces, so a change of the store's layout edits
hashgraph.py and this module alone.  The observations, in groups:

- an event's columns (event, id_column, seal, set_bits, and rewired,
  which corrupts a parent link for the length of a block) and the
  records built from them (record_of, records, units_at);
- the live set and the fields of a live record (live_records,
  live_record, engine_ancestry, forked_of, strongly_seen);
- held payloads and the walk position (held_payloads, take_payload,
  walk_position), the unit planes (unit_planes) and each creator's
  events (creator_masks);
- the packed-field layout (packing: width, fields, member bits and the
  kept supermajority) and its SWAR helpers (packed_store, present,
  at_least, seen_flags);
- vote and fame state (vote_state, fame_of, decider_groups, deciders_of,
  decider_record, decide_by_hand), the order columns (order_columns,
  ordered_mask) and fork state (forkers);
- whole-store snapshots (columns, state) and the representation
  invariants (check_vote_state_bounds, check_column_layout,
  retained_store_bytes);
- the Simulation hooks (hook, tick, inject, on_enter, on_reselect,
  exit_committee).

The references work from plain event records (creator, parents,
created_at) using naive set/transitive-closure computations, independent
of the package's incremental bitmask machinery.  The references further
down recompute fame, ordering and a view's finalized round over an
EventStore's own rounds, strong sight and fame, with ancestry built from
the store's parent links (ancestry), not read from the masks it frees once
ordered; round_robin_fixture gossips the small DAGs the oracle tests run
on.  insert and add_for grow a DAG on a view by hand, naming parents by id
through a test-side id to index map (index_of), as the store keeps none;
report_text serializes a report the way write_report does,
check_supermajority checks a store's kept supermajority at every
membership change, and reference_digest serializes an event's fields one
``int.to_bytes`` at a time, as the digest was first defined.  The oracles
read a coin from an event id's last hex digit.  Their event records are
test-side: record_of and records read a store's events from its columns
as Records (the store names an event by its index alone), and new_record
builds the events they insert by hand from reference_digest, not with the
engine's serializer.
"""

from __future__ import annotations

import copy
import gc
import hashlib
import io
import tracemalloc
import weakref
from array import array
from contextlib import contextmanager
from itertools import compress
from typing import NamedTuple, Optional

from shardgraph import hashgraph
from shardgraph.hashgraph import (
    COIN_PERIOD,
    EventStore,
    Hashgraph,
    _seal,
    _set_bits,
    create_event,
    gossip_sync,
    supermajority,
)
from shardgraph.simulation import Simulation
from shardgraph.transactions import KIND_PAYLOAD, Transaction


# an event's columns ---------------------------------------------------------


class Event(NamedTuple):
    """An event as its store's columns hold it, its parents by index (None
    for none)."""
    creator: int
    self_parent: Optional[int]
    other_parent: Optional[int]
    seq: int                    # its place along its self-parent chain
    round: int
    created_at: int
    id: bytes


def event(store, i):
    """Event i of store, read from its columns."""
    sp, op = store._self_parent[i], store._other_parent[i]
    return Event(store._creator[i], sp if sp >= 0 else None,
                 op if op >= 0 else None, store._seq[i], store.round[i],
                 store._created_at[i], store._id(i))


def id_column(store):
    """The store's ids in index order, 32 bytes each, in one bytes
    object."""
    return bytes(store._ids)


def seal(creator, self_parent, other_parent, payload, created_at):
    """The engine's digest and units of these five fields, its parents
    given by digest (None for none)."""
    return _seal(creator, self_parent or b"", other_parent or b"", payload,
                 created_at)


@contextmanager
def rewired(store, i, parent, index):
    """Inside the block, event i's parent ("self_parent" or "other_parent")
    is the event at index (None for none) in the store's columns, as a
    corrupted store would hold it; its digest and everything else stay."""
    column = {"self_parent": store._self_parent,
              "other_parent": store._other_parent}[parent]
    kept = column[i]
    column[i] = -1 if index is None else index
    try:
        yield
    finally:
        column[i] = kept


# the positions of a mask's set bits, lowest first, as the engine lists them
set_bits = _set_bits


# live records, held payloads, unit planes ------------------------------------


class LiveRecord(NamedTuple):
    """A live event's record: its ancestor mask (its own bit included), the
    member bits of the creators it sees forking, and its packed witness
    reaches for round - 1 and for its round."""
    anc: int
    forked: int
    prev: int
    cur: int


def live_records(store):
    """Each live event's LiveRecord, by index in insert order; an index
    missing is ancient."""
    return {i: LiveRecord._make(entry) for i, entry in store._live.items()}


def live_record(store, i):
    """Event i's LiveRecord, or None once it is ancient."""
    entry = store._live.get(i)
    return None if entry is None else LiveRecord._make(entry)


def held_payloads(store):
    """Event -> its payload, for each payload the store still holds."""
    return dict(store._payload)


def take_payload(store, i):
    """Pop event i's payload, as a walk that applies it does; None if it
    is not held."""
    return store._payload.pop(i, None)


def walk_position(store):
    """How many consensus order entries the store's walks have read."""
    return store._walked


def unit_planes(store):
    """The store's unit planes: plane k has a bit per event whose units
    have bit k set."""
    return list(store._unit_planes)


def creator_masks(store):
    """Creator -> the mask of its events, for each creator with one."""
    return dict(store._cmask)


# the packed-field layout -----------------------------------------------------


class Packing(NamedTuple):
    """How the store packs reaches and vote vectors: the field width F, the
    fields its SWAR constants cover, each member's bit (a member that left
    keeps its bit) and the kept supermajority of its population (0 while
    it is empty)."""
    width: int
    fields: int
    member_bits: dict
    supermajority: int


def packing(store):
    return Packing(store._width, store._field_count,
                   dict(store._member_bit), store._sm)


def packed_store(width, n):
    """A store of width members, so with width-bit fields, whose constants
    cover n fields, doubled from 8 the way witness positions double
    them."""
    store = EventStore(range(width))
    assert store._width == width
    while store._field_count < n:
        store._field_count *= 2
    store._pack_constants()
    return store


def present(store, v):
    """The store's LOW bits of v's nonzero fields."""
    return store._present(v)


def at_least(store, counts, t):
    """The store's LOW bits of the fields of counts that are at least t."""
    return store._at_least(counts, t)


def seen_flags(store, reach, q, creators, forked, sm):
    """The store's strong-sight flags of round-q reach, round q's witness
    creators packed as creators: the LOW bits of the fields whose witness
    creator is not in forked and whose creators outside forked number
    sm."""
    store._wcreators[q] = creators
    return store._dense_fields(
        store._unforked(reach, q, forked) if forked else reach, sm)


# order, forks and fame by hand ------------------------------------------------


class OrderColumns(NamedTuple):
    """The consensus order's columns: each entry's event index, round
    received and consensus timestamp."""
    events: list
    rounds: list
    stamps: list


def order_columns(store):
    return OrderColumns(list(store._order_events), list(store._order_rounds),
                        list(store._order_stamps))


def ordered_mask(store):
    """The mask of the store's ordered events, as the store keeps it."""
    return store._emitted


def forkers(store):
    """The creators that made a branch point, in the order of their
    first."""
    return list(store._forkers)


def decider_record(store, r):
    """Round r's decider record as stored: whether it is frozen (a tuple,
    as finalizing the round leaves it), and its masks, each shifted down
    by the round's first witness."""
    record = store._deciders[r]
    return type(record) is tuple, list(record[2::2])


def decide_by_hand(store, rounds):
    """Decide every witness of each of rounds famous, with a decider
    record as a tally would have written it had the round's highest
    witness decided them all, and mark every event polled, so the next
    poll casts no vote and keeps this fame."""
    for r in rounds:
        ws = store.witnesses_by_round[r]
        for w in ws:
            store._famous |= 1 << w
        store._deciders[r] = [max(ws), max(ws),
                              sum(1 << w - ws[0] for w in ws)]
    store._fame_polled = len(store.by_index)


# whole-store snapshots and the column layout ---------------------------------


def columns(store):
    """The store's event columns, payloads, unit planes, rounds, witnesses
    and live records, for comparison on the spot."""
    return (store._ids, store._creator, store._created_at,
            store._self_parent, store._other_parent, store._payload,
            store._unit_planes, store.round, store.witnesses_by_round,
            store._live)


def state(store):
    """A copy of everything the store keeps: its columns, membership and
    packing, masks, unit planes, forkers and consensus records."""
    return copy.deepcopy((
        columns(store), store._seq, store._cmask, store._forkers,
        store._forker_bits, store._wcreators, store._votes,
        len(store.witnesses_by_round),
        store.population, packing(store)))


def holds_bytes(value):
    """Whether value, or any container in it, holds a bytes object."""
    if isinstance(value, bytes):
        return True
    if isinstance(value, dict):
        return any(holds_bytes(k) or holds_bytes(v) for k, v in value.items())
    if isinstance(value, (list, tuple, set)):
        return any(map(holds_bytes, value))
    return False


def check_column_layout(store):
    """The store keeps its ids in one bytearray, 32 bytes per event, and
    its integer fields, rounds and order in typed arrays; no other
    attribute holds an id, as a dict key or otherwise, and none is a
    per-event list: the only lists are per member, per unit bit and per
    field width, and the live records and held payloads are dicts of the
    frontier, each under half the history."""
    assert type(store._ids) is bytearray
    assert len(store._ids) == 32 * len(store.by_index) > 0
    for name in ("_creator", "_created_at", "_self_parent",
                 "_other_parent", "_seq", "round", "_order_events",
                 "_order_rounds", "_order_stamps"):
        assert type(getattr(store, name)) is array
    assert {name for name, value in vars(store).items()
            if type(value) is list} == {"population", "_unit_planes",
                                        "_swar"}
    for frontier in (store._live, store._payload):
        assert type(frontier) is dict
        assert len(frontier) < len(store.by_index) // 2
    assert [name for name, value in vars(store).items()
            if name != "_ids" and holds_bytes(value)] == []


# the simulation's steps --------------------------------------------------------


def hook(sim, step, check, before=False):
    """Run check(t) after each of sim's ticks (step "tick") or polls (step
    "poll"), or before each given before."""
    name = {"tick": "_tick", "poll": "_poll"}[step]
    run = getattr(sim, name)

    def hooked(t):
        if before:
            check(t)
        run(t)
        if not before:
            check(t)

    setattr(sim, name, hooked)


def tick(sim, t):
    """Run sim's tick t alone."""
    sim._tick(t)


def inject(sim, t):
    """File tick t's injected transactions at their origin nodes."""
    sim._inject(t)


def on_enter(sim, check):
    """Run check(node, view) as each node enters its committee with view,
    through the one way in, before the simulator takes the view."""
    enter = sim._enter

    def checked(node, view):
        check(node, view)
        enter(node, view)

    sim._enter = checked


def on_reselect(sim, check):
    """Run check(tx, t) as each ordered reselection transaction tx is
    applied at tick t, before the simulator applies it."""
    reselect = sim._on_reselect

    def checked(tx, ts, t):
        check(tx, t)
        reselect(tx, ts, t)

    sim._on_reselect = checked


def exit_committee(sim, node, heir):
    """Drop node's view and hand its buffered transactions to heir's buffer,
    or drop them with heir None: the one way out of a committee."""
    sim._exit(node, heir)


# the event digest -----------------------------------------------------------


def reference_digest(creator, self_parent, other_parent, payload, created_at):
    """SHA-256 of the canonical serialization, hex: fixed field order, each
    field prefixed by its byte length (4 bytes, big-endian): creator,
    self-parent and other-parent digests (raw bytes, empty for none), the
    transaction count, each transaction id in UTF-8, created_at.  The
    engine's raw digests compare with it through ``.hex()``."""
    sp, op = self_parent or b"", other_parent or b""
    parts = [
        (8).to_bytes(4, "big"), creator.to_bytes(8, "big", signed=True),
        len(sp).to_bytes(4, "big"), sp,
        len(op).to_bytes(4, "big"), op,
        (4).to_bytes(4, "big"), len(payload).to_bytes(4, "big"),
    ]
    for tx in payload:
        raw = tx.tx_id.encode()
        parts += (len(raw).to_bytes(4, "big"), raw)
    parts += ((8).to_bytes(4, "big"), created_at.to_bytes(8, "big", signed=True))
    return hashlib.sha256(b"".join(parts)).hexdigest()


# the kept supermajority ----------------------------------------------------


def check_supermajority(monkeypatch) -> list[int]:
    """Make every EventStore.add_member and remove_member call check that
    the store's kept supermajority is that of its population afterwards;
    returns the population sizes seen, one per call."""
    sizes = []
    for name in ("add_member", "remove_member"):
        def checked(store, node, method=getattr(EventStore, name)):
            method(store, node)
            n = len(store.population)
            sizes.append(n)
            # an empty population has none to compare
            assert store._sm == (supermajority(n) if n else 0)
        monkeypatch.setattr(EventStore, name, checked)
    return sizes


# a gossiped oracle fixture --------------------------------------------------


def round_robin_fixture(
    n: int = 4, events_per_node: int = 3
) -> tuple[Hashgraph, list]:
    """A deterministic n-node gossip schedule: member 0's view of every
    event of the resulting store, and the events' records in creation
    order."""
    store = EventStore(range(n))
    graphs = [Hashgraph(store, i) for i in range(n)]
    events = [create_event(graphs[i], None, (), 0) for i in range(n)]
    tick = 1
    created = [1] * n
    while min(created) < events_per_node:
        for sender in range(n):
            receiver = (sender + 1 + tick % (n - 1)) % n
            if receiver == sender:
                receiver = (receiver + 1) % n
            if created[receiver] >= events_per_node:
                continue
            payload = (
                Transaction(tx_id=f"t{tick}_{receiver}", origin=0, target=0,
                            size_units=1, kind=KIND_PAYLOAD, data=()),
            )
            _, ev = gossip_sync(graphs[sender], graphs[receiver], tick, payload)
            events.append(ev)
            created[receiver] += 1
            tick += 1
            if min(created) >= events_per_node:
                break
    # member 0 creates each of its events on its own view, so that view's
    # head is its furthest event
    full = Hashgraph(store, 0, (1 << len(store.by_index)) - 1, graphs[0].head)
    recs = records(store)
    return full, [recs[i] for i in events]


# a report's text -----------------------------------------------------------


def report_text(report):
    """The report's JSON text, as RunReport.dump streams it."""
    buf = io.StringIO()
    report.dump(buf)
    return buf.getvalue()


# brute force over plain event records --------------------------------------


def sm(n: int) -> int:
    return (2 * n) // 3 + 1


class BruteGraph:
    def __init__(self, population, events):
        """events: iterable with .digest/.creator/.self_parent/.other_parent/
        .payload/.created_at, in topological order."""
        self.population = sorted(population)
        self.events = list(events)
        self.by_id = {e.digest: e for e in self.events}
        self.anc: dict[str, set[str]] = {}
        for e in self.events:
            s = {e.digest}
            for p in (e.self_parent, e.other_parent):
                if p is not None:
                    s |= self.anc[p]
            self.anc[e.digest] = s
        self._rounds = None
        self._fame = None

    # reachability ---------------------------------------------------------

    def is_ancestor(self, a: str, b: str) -> bool:
        return b in self.anc[a]

    def self_ancestors(self, a: str) -> list:
        """a and every event down its self-parent chain."""
        out = []
        while a is not None:
            out.append(self.by_id[a])
            a = self.by_id[a].self_parent
        return out

    def strongly_sees(self, a: str, b: str) -> bool:
        """The creators of the events on a path from b up to a reach a
        supermajority; those events are a's ancestors that descend from b."""
        creators = {self.by_id[mid].creator for mid in self.anc[a]
                    if self.is_ancestor(mid, b)}
        return len(creators) >= sm(len(self.population))

    # rounds ---------------------------------------------------------------

    def rounds(self):
        if self._rounds is not None:
            return self._rounds
        rounds: dict[str, int] = {}
        witness: dict[str, bool] = {}
        witnesses_by_round: dict[int, list[str]] = {}
        for e in self.events:
            parents = [p for p in (e.self_parent, e.other_parent) if p]
            if not parents:
                r = 1
            else:
                r = max(rounds[p] for p in parents)
                seen = [
                    w
                    for w in witnesses_by_round.get(r, [])
                    if self.strongly_sees(e.digest, w)
                ]
                if len(seen) >= sm(len(self.population)):
                    r += 1
            rounds[e.digest] = r
            w = e.self_parent is None or rounds[e.self_parent] < r
            witness[e.digest] = w
            if w:
                witnesses_by_round.setdefault(r, []).append(e.digest)
        self._rounds = (rounds, witness, witnesses_by_round)
        return self._rounds

    # fame -----------------------------------------------------------------

    def fame(self, coin_period=10):
        if self._fame is not None:
            return self._fame
        rounds, _, wbr = self.rounds()
        max_round = max(rounds.values(), default=0)
        votes: dict[tuple[str, str], bool] = {}
        decided: dict[str, bool] = {}

        def digest_sorted(ids):
            return sorted(ids)

        def vote(v: str, w: str) -> bool:
            if (v, w) in votes:
                return votes[(v, w)]
            diff = rounds[v] - rounds[w]
            if diff == 1:
                result = self.is_ancestor(v, w)
            else:
                prev = [
                    u
                    for u in wbr.get(rounds[v] - 1, [])
                    if self.strongly_sees(v, u)
                ]
                yes = sum(1 for u in prev if vote(u, w))
                no = len(prev) - yes
                result = yes >= no
                tally = max(yes, no)
                if diff % coin_period == 0:
                    if tally < sm(len(self.population)):
                        result = bool(int(v.hex()[-1], 16) & 1)
                elif tally >= sm(len(self.population)) and w not in decided:
                    decided[w] = result
            votes[(v, w)] = result
            return result

        for r in range(1, max_round + 1):
            for w in digest_sorted(wbr.get(r, [])):
                if w in decided:
                    continue
                for d in range(r + 1, max_round + 1):
                    for v in digest_sorted(wbr.get(d, [])):
                        vote(v, w)
                        if w in decided:
                            break
                    if w in decided:
                        break
        self._fame = decided
        return decided

    # total order ----------------------------------------------------------

    def order(self):
        rounds, _, wbr = self.rounds()
        fame = self.fame()
        out = []
        received: set[str] = set()
        r = 0
        while True:
            r += 1
            ws = wbr.get(r)
            if not ws or any(w not in fame for w in ws):
                break
            famous = [w for w in ws if fame[w]]
            if not famous:
                continue
            batch = []
            for e in self.events:
                if e.digest in received:
                    continue
                if all(self.is_ancestor(w, e.digest) for w in famous):
                    stamps = []
                    for w in famous:
                        cands = [
                            y
                            for y in self.self_ancestors(w)
                            if self.is_ancestor(y.digest, e.digest)
                        ]
                        y = min(
                            cands, key=lambda y: len(self.anc[y.digest])
                        )
                        stamps.append(y.created_at)
                    stamps.sort()
                    ts = stamps[(len(stamps) - 1) // 2]
                    batch.append((ts, e.digest, r))
                    received.add(e.digest)
            batch.sort()
            out.extend((d, rr, ts) for ts, d, rr in batch)
        return out

    def forks(self):
        """Each creator's sibling pairs: two of its events with one
        self-parent, None counting as a root."""
        out = set()
        for a in self.events:
            for b in self.events:
                if (a.digest < b.digest and a.creator == b.creator
                        and a.self_parent == b.self_parent):
                    out.add((a.creator, a.digest, b.digest))
        return out

    def forked_among(self, digests):
        """The creators with two events among digests neither of which is
        a self-ancestor of the other (Baird's fork rule): a creator's
        events there form one chain iff they all lie down the self-parent
        chain of the one with the most ancestors.  Of an event's ancestors
        (anc), the creators it sees forking; of every event, the
        forkers."""
        by_creator = {}
        for a in digests:
            by_creator.setdefault(self.by_id[a].creator, set()).add(a)
        forked = set()
        for c, evs in by_creator.items():
            top = max(evs, key=lambda a: len(self.anc[a]))
            if not evs <= {e.digest for e in self.self_ancestors(top)}:
                forked.add(c)
        return forked


# growing a DAG for several creators on one view -----------------------------


def head_of(graph, creator):
    """The digest of creator's known event furthest along its self-parent
    chain in graph, or None; the earliest such event on a tie."""
    store = graph.store
    known = [i for i in store.by_index
             if store._creator[i] == creator and graph.known >> i & 1]
    if not known:
        return None
    return store._id(max(known, key=store._seq.__getitem__))


# store -> its id -> index map, extended from the id column as it grows
_ID_INDEX = weakref.WeakKeyDictionary()


def index_of(store):
    """id -> index over the store's events, for tests that name events by
    id (the store keeps no such map); of an id inserted twice, the first
    index."""
    index = _ID_INDEX.setdefault(store, {})
    for i in range(len(index), len(store.by_index)):
        index.setdefault(store._id(i), i)
    return index


def parent_index(store, digest):
    """The index of the event of this id, or None for None; an id the store
    does not hold names one past its last event, which it rejects as
    dangling."""
    if digest is None:
        return None
    return index_of(store).get(digest, len(store.by_index))


def insert_event(store, event):
    """Insert an event record (a Record, built or read from another
    store) into store, its parents named by id and passed by index; returns
    its index, which must hold the event's digest.  A record whose payload
    was taken (None) is replayed with its id and units."""
    header = () if event.payload is not None else (event.digest, event.units)
    i = store.add_event(event.creator, parent_index(store, event.self_parent),
                        parent_index(store, event.other_parent),
                        event.payload, event.created_at, *header)
    assert store._id(i) == event.digest
    return i


def insert(graph, event):
    """Insert a built event into graph's store and view.  The view's head
    moves as a sync would move it: to the event if it is the owner's and
    at least as far along the owner's chain as the head."""
    bit = 1 << insert_event(graph.store, event)
    graph.head = graph._head_after(bit)
    graph.known |= bit
    return event


class Record(NamedTuple):
    """An event's five fields, in the order the store takes them, its
    parents by id (None for none), plus its digest and payload units."""
    creator: int
    self_parent: Optional[bytes]
    other_parent: Optional[bytes]
    payload: Optional[tuple]  # None once taken
    created_at: int
    digest: bytes
    units: int


def new_record(creator, self_parent, other_parent, payload, created_at):
    """The Record of these five fields, its digest from reference_digest
    and its units the transactions' summed size units."""
    payload = tuple(payload)
    digest = bytes.fromhex(reference_digest(
        creator, self_parent, other_parent, payload, created_at))
    return Record(creator, self_parent, other_parent, payload, created_at,
                  digest, sum(tx.size_units for tx in payload))


def record_of(store, i):
    """Event i of store as a Record, read from its columns: the parents'
    ids from the id column, the payload as it stands (None once taken) and
    the units from the unit planes."""
    sp, op = store._self_parent[i], store._other_parent[i]
    return Record(store._creator[i], store._id(sp) if sp >= 0 else None,
                  store._id(op) if op >= 0 else None, store._payload.get(i),
                  store._created_at[i], store._id(i), units_at(store, i))


def units_at(store, i):
    """Event i's payload units: its bits in the store's unit planes."""
    return sum((plane >> i & 1) << k
               for k, plane in enumerate(store._unit_planes))


def records(store):
    """Every event of store as a Record, in index order."""
    return [record_of(store, i) for i in store.by_index]


def add_for(graph, creator, other_parent=None, payload=(), now=0):
    """Add an event by any creator to graph, chained onto head_of(graph,
    creator), as a new_record.  create_event only appends the view owner's
    events; tests that grow a DAG for several creators on one view use
    this instead."""
    return insert(graph, new_record(creator, head_of(graph, creator),
                                    other_parent, payload, now))


def witness_flags(store):
    """Per-event witness flags in index order: an event is a witness iff it
    has a position among its round's witnesses."""
    witnesses = {w for ws in store.witnesses_by_round.values() for w in ws}
    return [i in witnesses for i in store.by_index]


# ancestry from parent links ------------------------------------------------


def ancestry(store, masks=None):
    """Every event's ancestor mask, itself included, in index order, from
    its parent links alone: inserts are parents-first, so each parent's
    mask is built first.  Given masks, an earlier result for the same
    store, it extends that list to the store's events."""
    masks = [] if masks is None else masks
    for i in range(len(masks), len(store.by_index)):
        mask = 1 << i
        for p in (store._self_parent[i], store._other_parent[i]):
            if p >= 0:
                mask |= masks[p]
        masks.append(mask)
    return masks


def ordered_and_superseded(store, i):
    """Whether event i is ordered and not its creator's last event: only
    such an event leaves the store's live records."""
    return bool(store._emitted >> i & 1) and (
        store._cmask[store._creator[i]].bit_length() - 1 != i)


def engine_ancestry(store, i):
    """The store's own ancestor mask of event i, or None where it freed
    it, which it does only for an ordered, superseded event.  Pairwise
    ancestry is checked on ``ancestry(store)``, which a kept mask equals."""
    entry = store._live.get(i)
    if entry:
        return entry[0]
    assert ordered_and_superseded(store, i)
    return None


def forked_of(store, i):
    """The member bits of the creators live event i sees forking."""
    return store._live[i][1]


# fame reference over an EventStore's own annotations ------------------------


def strongly_seen(store, a, r):
    """The round-r witnesses live event a strongly sees, in
    witnesses_by_round order, read from its live record: a's reaches
    answer only rounds round(a) - 1 and round(a), and any other round
    gets [].  The store reads the round(a) - 1 answer when a votes
    (``_strongly_seen_prev``)."""
    below = store.round[a] - r
    if below not in (0, 1):
        return []
    _, forked, prev, cur = store._live[a]
    reach = prev if below else cur
    flags = store._dense_fields(
        store._unforked(reach, r, forked) if forked else reach, store._sm)
    ws = store.witnesses_by_round.get(r, ())
    return list(compress(ws, store._unpack(flags, len(ws))))


def vote_sight(store, v):
    """The round(v) - 1 witnesses that witness v's votes read as strongly
    seen (``_strongly_seen_prev``), kept from its first vote."""
    return store._strongly_seen_prev(v)


def unforked_prev_bits(store, v):
    """The bits of live witness v's round(v) - 1 reach outside the creators
    it sees forking and the fields of their witnesses: the count the
    insert's round test compares with sm * sm."""
    _, forked, prev, _ = store._live[v]
    if forked:
        prev = store._unforked(prev, store.round[v] - 1, forked)
    return prev.bit_count()


class ReferenceFame:
    """Virtual voting as one cached bool per (voter, witness) pair, tallied
    by a recursive loop over the voter's strongly-seen witnesses.  It reads
    rounds, witnesses and strong sight from the store but builds its own
    ancestry (``anc``, from parent links) and keeps its own
    votes, fame and deciders (``decider``: witness -> the voter that
    decided it), so calling its elect_fame on the same schedule
    as the store's checks the store's vote bookkeeping.  Like the store, it
    stops voting on a round once every witness there is decided, so a
    witness that lands in such a round later (a joiner's genesis event)
    stays undecided."""

    def __init__(self, store):
        self.store = store
        self.anc = []
        self.first_undecided_round = 1
        self.votes: dict[tuple[int, int], bool] = {}
        self.ss_prev: dict[int, list[int]] = {}
        self.fame: dict[int, bool] = {}
        self.decider: dict[int, int] = {}

    def strongly_seen_prev(self, v):
        store = self.store
        if v not in self.ss_prev:
            self.ss_prev[v] = strongly_seen(store, v, store.round[v] - 1)
        return self.ss_prev[v]

    def vote(self, v, w):
        key = (v, w)
        if key in self.votes:
            return self.votes[key]
        store = self.store
        diff = store.round[v] - store.round[w]
        if diff == 1:
            # v sees w: w is an ancestor and its creator is not caught forking
            creator = store._member_bit[store._creator[w]]
            result = bool(ancestry(store, self.anc)[v] >> w & 1
                          and not forked_of(store, v) >> creator & 1)
        else:
            yes = no = 0
            for u in self.strongly_seen_prev(v):
                if self.vote(u, w):
                    yes += 1
                else:
                    no += 1
            result = yes >= no
            tally = max(yes, no)
            if diff % COIN_PERIOD == 0:
                if tally < sm(len(store.population)):
                    result = bool(int(store._id(v).hex()[-1], 16) & 1)
            elif tally >= sm(len(store.population)) and w not in self.fame:
                self.fame[w] = result
                self.decider[w] = v
        self.votes[key] = result
        return result

    def elect_fame(self):
        store = self.store

        def digest_sorted(ids):
            return sorted(ids, key=store._id)

        top = len(store.witnesses_by_round)
        for r in range(self.first_undecided_round, top + 1):
            witnesses = store.witnesses_by_round.get(r, ())
            for w in digest_sorted(witnesses):
                if w in self.fame:
                    continue
                for d in range(r + 1, top + 1):
                    for v in digest_sorted(store.witnesses_by_round.get(d, ())):
                        self.vote(v, w)
                        if w in self.fame:
                            break
                    if w in self.fame:
                        break
            if r == self.first_undecided_round and all(
                    w in self.fame for w in witnesses):
                self.first_undecided_round = r + 1


# an EventStore's vote state -----------------------------------------------


def fame_of(store):
    """Witness -> whether it is famous, for every witness whose fame is
    decided: those its round's decider record holds, read against the
    store's famous mask."""
    famous = store._famous
    return {w: bool(famous >> w & 1) for w in deciders_of(store)}


def decider_groups(store, r):
    """Round r's decider record as (highest decider, {decider: mask of
    the round-r witnesses its vote decided}), the masks over event index.
    The store keeps one flat record, [highest decider, decider, mask, ...],
    each mask shifted down by the round's first witness and a voter that
    decided on two polls in two pairs, which this ORs into one mask."""
    record = store._deciders[r]
    base = store.witnesses_by_round[r][0]
    groups = {}
    for d, ws in zip(record[1::2], record[2::2]):
        groups[d] = groups.get(d, 0) | ws << base
    return record[0], groups


def deciders_of(store):
    """Witness -> the witness whose vote decided its fame, read from the
    store's per-round decider groups."""
    return {w: d for r in store._deciders
            for d, ws in decider_groups(store, r)[1].items()
            for w in _set_bits(ws)}


class VoteState(NamedTuple):
    """The vote vectors and the voted field counts per round and voter,
    and the voters' kept strong sight."""
    votes: dict
    covered: dict
    strong_sight: dict


def vote_state(store):
    """A copy of the store's vote state."""
    return VoteState(
        {r: dict(vectors) for r, vectors in store._votes.items()},
        {r: dict(counts) for r, counts in store._covered.items()},
        dict(store._ss_prev))


def check_vote_state_bounds(store):
    """Vote state lives only for the rounds past finalized_round, as
    advance_consensus drops a round's as it finalizes it: a round r's
    vectors are of later witnesses, its voted-field counts of witnesses two
    rounds up or more, each between 1 and the round's witnesses, and
    strong sight is kept for witnesses that can still vote.  A round's
    decider record is frozen as a tuple exactly when it is finalized.
    Returns the live entries, which these bounds cap by the witnesses of
    those rounds."""
    fin = store.finalized_round
    above = {}
    for r in range(len(store.witnesses_by_round), fin, -1):
        above[r] = above.get(r + 1, set()) | set(
            store.witnesses_by_round.get(r + 1, ()))
    assert store._votes.keys() <= above.keys()
    assert store._covered.keys() <= above.keys()
    for r, vectors in store._votes.items():
        assert vectors.keys() <= above[r]
    for r, counts in store._covered.items():
        assert counts.keys() <= above.get(r + 1, set())
        width = len(store.witnesses_by_round[r])
        assert all(type(c) is int and 1 <= c <= width
                   for c in counts.values())
    assert store._ss_prev.keys() <= above.get(fin + 1, set())
    assert store._deciders.keys() >= set(range(1, fin + 1))
    for r, record in store._deciders.items():
        assert isinstance(record, tuple) == (r <= fin)
    live = (sum(map(len, store._votes.values()))
            + sum(map(len, store._covered.values())) + len(store._ss_prev))
    assert live <= sum(2 * len(ws) for ws in above.values()) + len(
        above.get(fin + 1, ()))
    return live


# what a run's stores retain --------------------------------------------------


def retained_store_bytes(cfg):
    """Run cfg's simulation under tracemalloc and return the bytes still
    allocated from the engine module once it has ended and a collection
    has run, and the events in its stores.  A collection before tracing
    starts empties CPython's free lists, so an object the run takes from
    them is traced too."""
    gc.collect()
    tracemalloc.start()
    try:
        sim = Simulation(cfg)
        sim.run()
        gc.collect()
        snapshot = tracemalloc.take_snapshot()
    finally:
        tracemalloc.stop()
    kept = sum(t.size for t in snapshot.filter_traces(
        [tracemalloc.Filter(True, hashgraph.__file__)]).traces)
    stores = [*sim.state.local_stores.values(), sim.state.global_store]
    return kept, sum(len(st.by_index) for st in stores)


# ordering reference over an EventStore's own annotations -------------------


def median_stamps(store, anc, x, famous):
    """The per-event rule: for each famous witness, walk its self-parent
    links down while they descend from x (by anc, the store's ancestry);
    the last one reached is the earliest self-ancestor of the witness that
    descends from x.  Those events' created_at, sorted."""
    stamps = []
    for w in famous:
        earliest = None
        y = w
        while y >= 0 and anc[y] >> x & 1:
            earliest = y
            y = store._self_parent[y]
        stamps.append(store._created_at[earliest])
    return sorted(stamps)


def median_timestamp(store, anc, x, famous):
    """The lower median of x's stamps from the famous witnesses."""
    stamps = median_stamps(store, anc, x, famous)
    return stamps[(len(stamps) - 1) // 2]


def reference_view_finalized_round(store, known):
    """store.view_finalized_round(known) as a rescan from round 1: the
    rounds up to the first finalized round none of whose deciders the view
    knows, or with a witness the view knows that was decided by a witness
    the view does not know.  In a finalized round the only witnesses
    without fame are those that landed once it was finalized, which are
    not famous and stop no view."""
    deciders = deciders_of(store)
    r = 0
    while r < store.finalized_round:
        nxt = r + 1
        ws = store.witnesses_by_round.get(nxt, ())
        if not any(known >> deciders[w] & 1 for w in ws if w in deciders):
            return r
        for w in ws:
            if not (known >> w) & 1:
                continue
            decider = deciders.get(w)
            if decider is not None and not (known >> decider) & 1:
                return r
        r = nxt
    return r


def reference_consensus(store):
    """store.consensus recomputed from the store's rounds and fame decisions,
    one median_timestamp walk per event.  A witness that landed in a round
    after it was finalized is undecided, and not famous."""
    out, anc, fame = [], ancestry(store), fame_of(store)
    emitted = set()
    for r in range(1, store.finalized_round + 1):
        famous = sorted(
            (w for w in store.witnesses_by_round[r] if fame.get(w)),
            key=store._id,
        )
        if not famous:
            continue
        batch = sorted(
            (median_timestamp(store, anc, i, famous), store._id(i), i)
            for i in store.by_index
            if i not in emitted
            and all(anc[w] >> i & 1 for w in famous)
        )
        for ts, digest, i in batch:
            out.append((digest, r, ts))
            emitted.add(i)
    return out
