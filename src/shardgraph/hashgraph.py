"""Event DAG, gossip-about-gossip, and virtual-voting consensus.

The same machinery runs inside every local committee and inside the global
committee; only the population differs.  All consensus annotations (round
numbers, witness flags, fame, round-received, consensus timestamps) are
functions of an event's fixed ancestry, so they are computed once per event
on the backing store and are independent of gossip arrival order.

Each committee's graph is one ``EventStore``; every member holds a
``Hashgraph`` view of it, a bitmask of the events that member knows.  A view
is down-closed (it holds every ancestor of every event in it), so a gossip
sync is the set difference of two masks and needs no walk over history.  A
view keeps one head, its owner's, which the owner's next event chains onto,
and the units a sync carries are popcounts over the store's bit planes of
each event's payload units.

A view is built with what it knows, ``Hashgraph(store, owner, known, head)``,
and afterwards only this module moves it: ``_record`` its ``known`` and
``head`` as its owner records an event, ``reseat`` its ``owner`` and ``head``.
"""

from __future__ import annotations

import bisect
import hashlib
import struct
from array import array
from collections.abc import Sequence
from itertools import compress, groupby, islice
from operator import attrgetter, itemgetter
from typing import Iterable, Iterator, NamedTuple, Optional

from .transactions import Transaction

NodeId = int
# an event's raw 32-byte SHA-256 digest; bytes order is the lowercase-hex
# order, and the program hex-encodes an id only where it leaves it
EventId = bytes

# Deterministic coin flips enter fame voting every COIN_PERIOD virtual-voting
# rounds; they only matter under adversarial scheduling but guarantee
# termination.
COIN_PERIOD = 10


class HashgraphError(Exception):
    """Raised on malformed events or unresolved references."""


def supermajority(member_count: int) -> int:
    """Smallest integer strictly greater than 2/3 of the member count."""
    if member_count < 1:
        raise HashgraphError("member_count must be >= 1")
    return (2 * member_count) // 3 + 1


def _frame(sp_len: int, op_len: int):
    """Packs an event's fields up to its transactions, for parents of
    these byte lengths."""
    return struct.Struct(f">IqI{sp_len}sI{op_len}sII").pack


# the frames of parents that are none or a digest
_FRAMES = {(a, b): _frame(a, b) for a in (0, 32) for b in (0, 32)}
_LENGTH = struct.Struct(">I").pack
_SIZE_UNITS = attrgetter("size_units")
_TAIL = struct.Struct(">Iq").pack
# the 32-byte id at a byte offset of an id column, as a 1-tuple
_ID_AT = struct.Struct("32s").unpack_from


def _seal(
    creator: NodeId,
    self_parent: bytes,
    other_parent: bytes,
    payload: tuple[Transaction, ...],
    created_at: int,
) -> tuple[EventId, int]:
    """The digest and units of the event of these five fields, its parents
    given by id (empty for none).

    The digest is the raw SHA-256 of the canonical serialization: fixed
    field order, each field prefixed by its byte length (4 bytes,
    big-endian): creator, self-parent and other-parent digests (empty for
    none), the transaction count, each transaction id in UTF-8,
    created_at.  Integers are 8-byte signed big-endian, counts 4-byte.
    The units are the payload size, the sum of the transactions' size
    units."""
    a, b = len(self_parent), len(other_parent)
    frame = _FRAMES.get((a, b)) or _frame(a, b)
    if not payload:
        return hashlib.sha256(
            frame(8, creator, a, self_parent, b, other_parent, 4, 0)
            + _TAIL(8, created_at)).digest(), 0
    parts = [frame(8, creator, a, self_parent, b, other_parent, 4,
                   len(payload))]
    for tx in payload:
        raw = tx.tx_id.encode()
        parts += (_LENGTH(len(raw)), raw)
    parts.append(_TAIL(8, created_at))
    return hashlib.sha256(b"".join(parts)).digest(), payload_units(payload)


def payload_units(payload: Iterable[Transaction]) -> int:
    """The units of an event with this payload: its transactions' summed
    size units."""
    return sum(map(_SIZE_UNITS, payload))


_FLAG = bytes.maketrans(b"01", b"\x00\x01")


def _set_bits(mask: int) -> Iterator[int]:
    """The positions of mask's set bits, lowest first, in time linear in
    the span from its lowest to its highest set bit."""
    if not mask:
        return iter(())
    lo = (mask & -mask).bit_length() - 1
    flags = format(mask >> lo, "b")[::-1].encode().translate(_FLAG)
    return compress(range(lo, lo + len(flags)), flags)


class OrderedEvent(NamedTuple):
    event_id: EventId
    round_received: int
    consensus_timestamp: int


class Order(Sequence):
    """Entries start to stop - 1 of a consensus order kept as three
    columns: the event's index in its store, round received and consensus
    timestamp.  The columns only grow, so a range stays fixed once taken;
    an entry is built as an ``OrderedEvent`` when read, its id read from
    the store's id column ``ids``, and a slice is another range of the same
    columns."""

    __slots__ = ("ids", "events", "rounds", "stamps", "start", "stop")

    def __init__(self, ids: bytearray, events: Sequence[int],
                 rounds: Sequence[int], stamps: Sequence[int],
                 start: int = 0, stop: Optional[int] = None):
        self.ids, self.events = ids, events
        self.rounds, self.stamps = rounds, stamps
        self.start = start
        self.stop = len(events) if stop is None else stop

    def __len__(self) -> int:
        return self.stop - self.start

    def __getitem__(self, i):
        if isinstance(i, slice):
            a, b, step = i.indices(len(self))
            if step != 1:
                raise ValueError("an order slice is contiguous")
            return Order(self.ids, self.events, self.rounds, self.stamps,
                         self.start + a, self.start + max(a, b))
        if i < 0:
            i += len(self)
        if not 0 <= i < len(self):
            raise IndexError("order index out of range")
        i += self.start
        (event_id,) = _ID_AT(self.ids, self.events[i] << 5)
        return OrderedEvent(event_id, self.rounds[i], self.stamps[i])

    def __iter__(self) -> Iterator[OrderedEvent]:
        ids, a, b = self.ids, self.start, self.stop
        return map(OrderedEvent,
                   (_ID_AT(ids, x << 5)[0]
                    for x in islice(self.events, a, b)),
                   islice(self.rounds, a, b), islice(self.stamps, a, b))

    def joined_ids(self, i: int, j: int) -> bytes:
        """The ids of column entries i to j - 1, 32 bytes each, in one
        bytes object."""
        ids = self.ids
        return b"".join([_ID_AT(ids, x << 5)[0] for x in self.events[i:j]])

    def __eq__(self, other) -> bool:
        if isinstance(other, Order):
            return list(self) == list(other)
        return NotImplemented


class EventStore:
    """Canonical event storage plus consensus annotations.

    Events must be inserted parents-first (gossip delivers them in
    topological order), which makes every annotation computable at insert
    time from the event's ancestry alone.

    Indices that keep insert, fame and ordering work bounded by what changed
    rather than by history:

    - ``_self_parent[i]`` (-1 for none) and ``_seq[i]``, its place along
      that chain, index the self-parent edges one slot per event.
      ``_forkers`` maps each creator that has made a branch point (an event
      whose self-parent is not the creator's last inserted event, or a
      second root) to its member bit, and ``_forker_bits`` ORs those bits,
      so an insert whose inherited forked bits already hold them all skips
      the fork test in one AND.
    - Fork evidence is recorded at insert: ``_apart[b]`` lists the earlier
      events of a forker's event b's creator that b does not descend from,
      each a fork pair with b (no later event is an ancestor of b).  Before
      its first branch point a creator's events form one chain, so an event
      inserted then has no pair with an earlier one, and ``detect_forks``
      reads this record alone.
    - ``_cmask[c]`` has a bit per event of creator c, and ``_unit_planes[k]``
      a bit per event whose ``units`` has bit k set, so the events of one
      creator in a mask are one AND and the units of a mask are a few
      popcounts (``units_of``).
    - ``witnesses_by_round[r]`` lists round r's witnesses in insertion
      order, its first entry the round's lowest index, in an
      ``array("i")``.  A tally visits a round's voters sorted by digest
      (a stable sort, so equal ids keep insertion order), and ordering
      reads a round's famous witnesses in any order.  Rounds grow one at
      a time, each with a witness, so they are 1 to its length.
    - ``_witness_count`` counts the witnesses inserted so far; a witness's
      position is its place in ``witnesses_by_round[r]``, which is
      append-only.
    - Packed votes: ``_votes[r][v]`` is witness v's vote on every round-r
      witness at once, packed like a reach: the LOW bit of field p is its
      yes on the witness at position p.  A round r + 1 witness gets its
      vector (its first-round votes) at insert, from its own reach: yes on
      the witnesses it sees, the present fields minus the caught ones.  A
      later voter's yes counts are the sum of the vectors of the round-below
      witnesses it strongly sees (``_ss_prev[v]``, computed at its first
      vote), and SWAR threshold compares give its vote and its decided-yes
      and decided-no fields; on a coin round the low bit of its digest
      fills the fields short of a supermajority.  ``_covered[r][v]`` is
      the count of round-r witnesses at v's last vote on the round: one
      that lands later takes a higher position, so v owes a vote on the
      undecided fields at or past the count.
    - Vote state lifetime: ``elect_fame`` visits voters round by round in
      digest order on every pass and stops voting on a decided witness, so
      fame and its deciders are those of one vote per (voter, witness)
      pair cast in that order.  A vote is never recast, so a poll with no
      witness inserted since the last (``_fame_polled``) returns at once.
      A poll packs each round's undecided witnesses like a vote vector,
      for the rounds past ``finalized_round``: a witness is decided iff a
      mask of its round's decider record holds it.  ``advance_consensus``
      finalizes a round once every witness of it is decided, and then
      drops ``_votes[r]``, ``_covered[r]`` and the strong sight of round
      r + 2 witnesses, which vote on no later round: live vote state is
      bounded by the witnesses of unfinalized rounds.  ``elect_fame``
      alone, without the finalization, keeps the state of the rounds it
      decided.  ``add_member`` re-lays the vectors when F doubles.  A
      decision is final, so fame is what outlives the vote: one mask over
      event index, ``_famous``, which ``_tally`` sets as it decides a
      witness famous and ``advance_consensus`` reads, and the decider
      records (see View limits).
    - Bit-sliced median: ordering a round walks each famous witness's
      self-parent chain once (see below) and feeds each chain event's
      (created_at, newly reached events) segment, in created_at order, into
      a counter per event kept as bit planes over the round's fresh events.
      It starts at 2^B - (k + 1) for k = (famous - 1) // 2, so an event's
      carry out of the top plane comes with its lower-median stamp, and the
      events that carry out at one stamp are ordered by digest.
    - View limits are written when their facts are decided.
      ``_deciders[r]`` is [highest decider, decider, mask, decider, mask,
      ...], each mask the round-r witnesses the decider's vote decided,
      shifted down by ``witnesses_by_round[r][0]``, so it spans the round's
      witnesses and not the history; a record is read with its round's
      witness list, so dropping one drops both.  ``_tally`` appends a pair
      per decision, so a voter that decides on two polls has two, and
      ``advance_consensus`` freezes the record as a tuple when it
      finalizes round r, every witness of which is then decided.  A
      witness w landing in a finalized round r is in no tally and no
      group: it is not famous.  A view that knows a decider
      of round r knows its ancestors, all older than w, among them a round
      r + 2 witness whose first tally, not a coin round, decides w not
      famous, as no round r + 1 witness sees w.  ``view_finalized_round``
      checks a round in a few big-int operations, and a round whose
      deciders all lie below the view's lowest missing event in one
      comparison.
    - Live records: ``_live[x]`` is event x's (anc, forked, prev, cur),
      kept only while x is live.  ``anc`` is its ancestor mask, its own
      bit included, and ``forked`` the member bits of the creators it sees
      forking, a parent's own int wherever the other parent adds no bit to
      it, so a chain's events share one.  ``prev`` and ``cur`` are its
      packed witness reaches for round(x) - 1 and round(x): which creators
      own an event on a path from each witness of that round down to x.
      Field p (bits p*F to p*F + F - 1, F = ``_width``) holds the creator
      mask for the witness at position p.  A child ORs its parents' reaches
      and sets its creator's bit in every field the other parent brings; a
      field count, forked creators and witnesses masked out, is a SWAR
      popcount, so strong sight is a few big-int operations, asked of two
      rounds only: of round(x) by x's round test at insert, and of
      round(x) - 1 by a witness's first vote.  F is a power of two, at
      least 8 and at least the member bits; when ``add_member`` outgrows it
      F doubles and re-lays every live reach at once, with the vote state,
      so a stored reach is always at the store's width.
    - Forked masks: the fork rule is written once.  ``_caught(q, forked)``
      names round q's fields whose witness creator is in ``forked``: the
      first-round votes drop them, and ``_unforked`` zeroes them and every
      forked creator's bits in a reach, whose ``_dense_fields`` is strong
      sight, at insert and for a vote.  ``_forked_masks`` keeps
      ``_masks_of(forked)``, LOW times the member bits outside forked, for
      the life of one packing: ``_pack_constants`` drops it when the width
      or the field count doubles.  A store meets few forked values (3 to 5
      on the benchmark's forks workload), so the cache stays small.  The
      insert's round test first compares the masked reach's bit count with
      sm * sm and runs the SWAR count only when it passes; a vote reads
      every field's flag (``_strongly_seen_prev``), so it takes no bound.
    - Reach lifetime: a reach is read by a child's insert and by the
      event's own first vote as a witness (``_strongly_seen_prev``), and by
      nothing else.  Once an event is ordered its round is finalized, so it
      votes no more, and once it also has a later event of its creator, a
      self-child or another branch, no insert but a fork's reads it:
      an honest creator's next event chains onto its last.
      ``advance_consensus`` therefore pops the record of each newly ordered
      event's self-parent, and of each newly ordered event that is not its
      creator's last, a forker's dead branch tip included.  Live records
      are the unordered events plus about one per creator, its last
      ordered event, not the history, and no popped record is read again
      (see Ancient parents).
    - Ancestry lifetime: a record's mask is read by a child's insert, by
      ``advance_consensus`` and ``_order_round`` (the famous witnesses of
      the round being ordered and their self-parent chains) and by
      ``member_view`` (a creator's last event).  An ordered event's
      ancestors are ordered, so ``_order_round`` reads a missing record as
      the empty set it would find, and neither a famous witness of an
      unfinalized round nor a last event is popped.  Live masks are the
      unordered events' and about one per creator, its last ordered
      event's, each spanning the history below it.
    - Ancient parents: an event with no live record, ordered and
      superseded, is ancient, as Hedera's platform calls an event too old
      to take part in consensus.  An honest creator's next event chains
      onto its last, and a sync's other-parent is its sender's head, so
      only a fork on an old event or a stale view names one.
      ``add_event`` rejects a child of an ancient parent before anything
      changes: the lookup that reads a parent's record is the one that
      finds it missing, and no popped record is read again.
    - Column layout: inside a store an event's only name is its index, and
      no per-event object outlives its insert but a live record and a
      held payload.  Ids are one ``bytearray``, ``_ids``, 32 bytes per
      event; creator, created_at, self-parent and other-parent indices (-1
      for none), ``_seq`` and ``round`` are ``array("i")`` columns, 4 bytes
      per event, and units bits in the unit planes.  No attribute is a
      list with a slot per event: what only live events need sits in the
      two frontier dicts, ``_live`` and ``_payload``.  The consensus order
      is three more ``array("i")`` columns, ``_order_events`` (event
      indices), ``_order_rounds`` and ``_order_stamps``.  A value outside
      32 bits raises ``OverflowError`` when appended, so none is
      truncated.  An id is read from its column only where it leaves the
      store: sealing a child, the sorts by id (a round's voters, an ordered
      batch), a coin, a replayed event's copy (``replay``) and the entries
      ``consensus`` builds when read.  ``by_index`` and a ``Transfer``
      yield indices, and a reader takes the column it needs.  No dict is
      keyed by id, so an exact duplicate is inserted again, as a second
      branch of its creator.
    - Payload lifetime: ``_payload`` holds each payload, empty ones too,
      until it is taken.  ``walk`` reads those of the events ordered since
      the store's last walk (``_walked``), in consensus order.  A local
      event's transactions are read once, by the walk that applies them
      and pops them.  A payload not held means "applied": a store rebuilt
      from a replica replays the events with their payloads as they stand
      (``replay``), so its own walk, from its first entry, skips those the
      old store applied.  A global event's are read by each seat's view as
      it first receives the event (``payload``) and by the global walk,
      which reads its join and reorganization transactions; ``release``
      pops them once the event is ordered and every seat knows it.  A seat
      that lacks it, a down committee's until it is back, keeps it held.
    - ``_sm`` is the supermajority of the population, kept by
      ``add_member`` and ``remove_member`` (0 while the population is empty,
      which makes a read raise), so neither insert nor a tally recounts it.

    The fast paths rely on three invariants.  A creator's events in a
    down-closed mask form one chain iff they number one more than the
    ``_seq`` of the highest-index one, which is the only fork test; a
    creator that has never branched has one chain, so only forkers are
    tested.  Forked bits are inherited: a creator caught forking in a
    parent's ancestry stays caught, so insert only tests the forkers not
    already in its parents' forked masks.  Ancestry is monotone along a
    self-parent chain: a later event of the chain descends from everything
    an earlier one does, so one backward walk per famous witness finds, for
    every event of a round, the earliest self-ancestor of the witness that
    reaches it.  That event's created_at is the witness's stamp for the
    event (Baird's consensus-timestamp rule); a self-parent chain is one
    chain even when its creator forks elsewhere.
    """

    def __init__(self, population: Iterable[NodeId]):
        self.population: list[NodeId] = sorted(set(population))
        self._member_bit: dict[NodeId, int] = {
            m: i for i, m in enumerate(self.population)
        }
        self._update_supermajority()
        # the event columns (see Column layout)
        self._ids = ids = bytearray()
        # the sort key of event i: its id, as a 1-tuple
        self._id_key = lambda i: _ID_AT(ids, i << 5)
        self._creator = array("i")
        self._created_at = array("i")
        self._self_parent = array("i")
        self._other_parent = array("i")
        self._seq = array("i")               # position along self-parent chain
        # the payloads still held (see Payload lifetime)
        self._payload: dict[int, tuple[Transaction, ...]] = {}
        # the live events' (ancestor mask, includes self; creators with a
        # fork visible; packed witness reach of round - 1; of round); an
        # index missing here is ancient (see Ancestry lifetime)
        self._live: dict[int, tuple[int, int, int, int]] = {}
        self._cmask: dict[NodeId, int] = {}  # creator -> its events' mask
        self._unit_planes: list[int] = []
        self._forkers: dict[NodeId, int] = {}  # creator -> its member bit
        # forker's event -> its creator's earlier events it does not descend
        # from
        self._apart: dict[int, tuple[int, ...]] = {}
        self._forker_bits = 0
        self.round = array("i")
        self.witnesses_by_round: dict[int, array] = {}
        self._witness_count = 0
        self._wcreators: dict[int, int] = {}  # round -> packed witness creators
        self._width = 8
        while self._width < len(self._member_bit):
            self._width *= 2
        self._field_count = 8                # fields the constants cover
        self._pack_constants()
        # fame machinery
        # round r -> voter -> vote vector, and -> how many of the round's
        # fields it has voted on
        self._votes: dict[int, dict[int, int]] = {}
        self._covered: dict[int, dict[int, int]] = {}
        self._ss_prev: dict[int, list[int]] = {}
        self._famous = 0                     # mask of witnesses decided famous
        # round -> [highest decider, decider, mask of the witnesses it
        # decided shifted down by the round's first, ...], a tuple once the
        # round is finalized
        self._deciders: dict[int, list | tuple] = {}
        self._fame_polled = 0                # witnesses at the last poll
        # total ordering: the consensus order's columns
        self._order_events = array("i")
        self._order_rounds = array("i")
        self._order_stamps = array("i")
        self._emitted = 0                    # bitmask of ordered events
        self._walked = 0                     # order entries walked
        self.finalized_round = 0

    @property
    def by_index(self) -> range:
        """The store's event indices, in insert order."""
        return range(len(self._creator))

    @property
    def consensus(self) -> Order:
        """The consensus order as it stands: a fixed range of its columns,
        which later appends leave as it is."""
        return Order(self._ids, self._order_events, self._order_rounds,
                     self._order_stamps)

    def _id(self, i: int) -> EventId:
        """Event i's id, from the id column."""
        return _ID_AT(self._ids, i << 5)[0]

    # -- membership ---------------------------------------------------------

    def add_member(self, node: NodeId) -> None:
        # a returning member takes its old bit back
        if node in self.population:
            raise HashgraphError(f"node {node} is already a member")
        bisect.insort(self.population, node)
        self._update_supermajority()
        if node in self._member_bit:
            return
        self._member_bit[node] = len(self._member_bit)
        if len(self._member_bit) > self._width:
            old, self._width = self._width, 2 * self._width
            self._wcreators = {r: self._relay(v, old)
                               for r, v in self._wcreators.items()}
            relay = self._relay
            self._live = {i: (anc, forked, relay(prev, old), relay(cur, old))
                          for i, (anc, forked, prev, cur)
                          in self._live.items()}
            for r, vectors in self._votes.items():
                self._votes[r] = {v: relay(x, old) for v, x in vectors.items()}
            self._pack_constants()

    def remove_member(self, node: NodeId) -> None:
        # Bit assignments are kept stable; only the supermajority base shrinks.
        if node not in self.population:
            raise HashgraphError(f"node {node} is not a member")
        self.population.remove(node)
        self._update_supermajority()

    def _update_supermajority(self) -> None:
        # an empty population has no supermajority: 0 makes the next read
        # raise, as supermajority(0) does
        pop = len(self.population)
        self._sm = supermajority(pop) if pop else 0

    # -- insertion ----------------------------------------------------------

    def add_event(self, creator: NodeId, self_parent: Optional[int],
                  other_parent: Optional[int],
                  payload: Optional[tuple[Transaction, ...]], created_at: int,
                  event_id: Optional[EventId] = None, units: int = 0) -> int:
        """Insert the event of these five fields, its parents given by
        index (None for none), and return its index.  Its id and units are
        sealed from the fields, the parents' ids read from the id column.
        A replayed event (``replay``) gives its source's ``event_id``: it
        must reseal to it, or, if its payload was taken (None), it takes
        that id and ``units`` as given.  A parent whose live record
        ``advance_consensus`` popped is ancient, and a child of it is
        rejected before anything changes (see Ancient parents)."""
        spi, opi = self_parent, other_parent
        ids, creators, live = self._ids, self._creator, self._live
        idx = len(creators)
        if spi is not None:
            if not 0 <= spi < idx:
                raise HashgraphError(f"dangling self_parent {spi}")
            if creators[spi] != creator:
                raise HashgraphError("self_parent by a different creator")
            sp_live = live.get(spi)
            if sp_live is None:
                raise HashgraphError(f"ancient self_parent {spi}")
        if opi is not None:
            if not 0 <= opi < idx:
                raise HashgraphError(f"dangling other_parent {opi}")
            if creators[opi] == creator:
                raise HashgraphError("other_parent created by creator itself")
            op_live = live.get(opi)
            if op_live is None:
                raise HashgraphError(f"ancient other_parent {opi}")
        if creator not in self._member_bit:
            raise HashgraphError(f"creator {creator} is not a member")
        sm = self._sm
        if not sm and (spi is not None or opi is not None):
            raise HashgraphError("no members to take a supermajority of")
        if payload is not None:
            digest, units = _seal(
                creator, b"" if spi is None else _ID_AT(ids, spi << 5)[0],
                b"" if opi is None else _ID_AT(ids, opi << 5)[0],
                payload, created_at)
            if event_id is not None and digest != event_id:
                raise HashgraphError("replayed event reseals to another id")
            self._payload[idx] = payload
        elif event_id is None or len(event_id) != 32:
            raise HashgraphError("an event without a payload needs its id")
        else:
            digest = event_id

        ids += digest
        creators.append(creator)
        self._created_at.append(created_at)
        self._other_parent.append(-1 if opi is None else opi)
        bit = 1 << idx
        cbit = 1 << self._member_bit[creator]
        own = self._cmask.get(creator, 0)
        self._cmask[creator] = own | bit
        if units:
            planes = self._unit_planes
            planes += [0] * (units.bit_length() - len(planes))
            while units:
                low = units & -units
                planes[low.bit_length() - 1] |= bit
                units ^= low

        # fork bookkeeping: while a creator has not branched, its last
        # inserted event is its tip, so an event whose self-parent is not
        # the tip (or a second root) is a branch point
        rounds, seq = self.round, self._seq
        sp = -1 if spi is None else spi
        self._self_parent.append(sp)
        if spi is None:
            seq.append(0)
            anc, forked, prev, cur, r = bit, 0, 0, 0, 1
        else:
            anc, forked, prev, cur = sp_live
            anc |= bit
            r = rounds[spi]
            seq.append(seq[spi] + 1)
        if opi is not None:
            other_anc, other, pp, pc = op_live
            anc |= other_anc
            if other & ~forked:
                # a child shares a parent's int where the other parent's
                # mask adds no bit to it
                forked = forked | other if forked else other
        if self._forker_bits & cbit or sp != own.bit_length() - 1:
            self._forkers[creator] = cbit
            self._forker_bits |= cbit
            if own & anc != own:
                self._apart[idx] = tuple(_set_bits(own & ~anc))
        if self._forker_bits & ~forked:
            cmask = self._cmask
            for c, cb in self._forkers.items():
                if not forked & cb:
                    x = anc & cmask[c]
                    if x and x.bit_count() != seq[x.bit_length() - 1] + 1:
                        forked |= cb

        # round assignment: the parent of the lower round gives its round
        # reach as the round - 1 reach if it is one round below, and
        # nothing else; every field the self-parent brings has the
        # creator's bit already, and the other parent's new fields get it
        # here.  A field is present iff its low F - 1 bits plus
        # 2^(F-1) - 1 carry into its top bit or the top bit is set
        # (``_present``, inlined)
        nh, low, top = self._nh, self._low, self._width - 1
        if opi is not None:
            ro = rounds[opi]
            if ro < r:
                pp, pc = (pc if ro == r - 1 else 0), 0
            elif ro > r:
                prev, cur, r = (cur if ro == r + 1 else 0), 0, ro
            if pp & ~prev:
                prev |= pp | ((((pp & nh) + nh) | pp) >> top & low) * cbit
            if pc & ~cur:
                cur |= pc | ((((pc & nh) + nh) | pc) >> top & low) * cbit
        # an empty reach (a genesis event's) sees nothing, and sm fields of
        # sm bits need sm * sm bits, counted again once the forked
        # creators' bits and fields are masked out: the fields' counts, a
        # SWAR popcount, are read only when the bits are there
        if cur and cur.bit_count() >= sm * sm:
            seen = self._unforked(cur, r, forked) if forked else cur
            if (seen.bit_count() >= sm * sm
                    and self._dense_fields(seen, sm).bit_count() >= sm):
                r += 1
                prev, cur = cur, 0
        rounds.append(r)
        if spi is None or rounds[spi] < r:
            same_round = self.witnesses_by_round.get(r)
            if same_round is None:
                same_round = self.witnesses_by_round[r] = array("i")
            pos = len(same_round)
            same_round.append(idx)
            self._witness_count += 1
            if pos == self._field_count:
                self._field_count *= 2
                self._pack_constants()
                nh, low = self._nh, self._low
            field = cbit << pos * self._width
            cur |= field
            self._wcreators[r] = self._wcreators.get(r, 0) | field
            if r - 1 > self.finalized_round:
                # first-round votes: yes on the round r - 1 witnesses this
                # one sees, those it descends from and has not caught
                # forking
                yes = (((prev & nh) + nh) | prev) >> top & low
                if forked:
                    yes &= ~self._caught(r - 1, forked)
                self._votes.setdefault(r - 1, {})[idx] = yes
        live[idx] = (anc, forked, prev, cur)
        return idx

    def payload(self, i: int) -> tuple[Transaction, ...]:
        """Event i's transactions while held, else none."""
        return self._payload.get(i, ())

    def walk(self, take: bool) -> list[tuple[tuple[Transaction, ...], int]]:
        """(payload, consensus timestamp) of each event ordered since the
        last walk, in consensus order, skipping payloads not held or empty;
        if ``take``, every walked payload is popped."""
        events, stamps = self._order_events, self._order_stamps
        read = self._payload.pop if take else self._payload.get
        start, self._walked = self._walked, len(events)
        return [(p, stamps[k]) for k in range(start, len(events))
                if (p := read(events[k], None))]

    def release(self, views: Iterable[Hashgraph]) -> None:
        """Pop the payloads of the ordered events that every view knows."""
        freed = self._emitted
        for view in views:
            freed &= view.known
        held = self._payload
        for i in [i for i in held if freed >> i & 1]:
            del held[i]

    def _pack_constants(self) -> None:
        """LOW, bit 0 of each of ``_field_count`` fields, and the SWAR masks
        for the current width; the forked masks built from the old ones
        are dropped."""
        f = self._width
        full = self._full = (1 << f) - 1
        low = self._low = ((1 << f * self._field_count) - 1) // full
        self._forked_masks: dict[int, int] = {}
        self._nh = low * ((1 << f - 1) - 1)
        self._swar = [(k, low * (full // ((1 << 2 * k) - 1) * ((1 << k) - 1)))
                      for k in (1 << j for j in range(f.bit_length() - 1))]

    def _relay(self, v: int, f: int) -> int:
        """v, packed at width f, re-laid at the store's width; fields are
        whole bytes, so each gets zero bytes appended."""
        fb, pad = f // 8, bytes((self._width - f) // 8)
        raw = v.to_bytes(-(-v.bit_length() // f) * fb, "little")
        return int.from_bytes(b"".join(
            raw[i:i + fb] + pad for i in range(0, len(raw), fb)), "little")

    def _unpack(self, flags: int, n: int) -> bytes:
        """The LOW bits of flags' first n fields, one byte each; fields are
        whole bytes."""
        fb = self._width // 8
        return flags.to_bytes(n * fb, "little")[::fb]

    def _present(self, v: int) -> int:
        """LOW bits of v's nonzero fields."""
        # a field's low F - 1 bits plus 2^(F-1) - 1 carry into its top bit
        # iff they are nonzero
        nh = self._nh
        return (((v & nh) + nh) | v) >> self._width - 1 & self._low

    def _masks_of(self, forked: int) -> int:
        """Every field's bits outside forked, built once per forked value
        and packing."""
        honest = self._forked_masks.get(forked)
        if honest is None:
            honest = self._forked_masks[forked] = (
                self._low * (self._full & ~forked))
        return honest

    def _caught(self, q: int, forked: int) -> int:
        """LOW bits of round q's fields whose witness creator is in
        forked."""
        return self._present(self._wcreators.get(q, 0) & self._low * forked)

    def _unforked(self, v: int, q: int, forked: int) -> int:
        """Round-q reach v without the bits of the creators in forked and
        without the fields whose witness creator is in forked."""
        return (v & self._masks_of(forked)
                & ~(self._caught(q, forked) * self._full))

    def _dense_fields(self, v: int, sm: int) -> int:
        """LOW bits of the fields of v with at least sm bits set."""
        for k, mk in self._swar:
            v = (v & mk) + ((v >> k) & mk)
        return self._at_least(v, sm)

    def _at_least(self, counts: int, t: int) -> int:
        """LOW bits of the fields of counts, each at most F, that are at
        least t, for 0 <= t <= F."""
        # a field's count plus 2F - t reaches bit log2(F) + 1 iff count >= t
        f, low = self._width, self._low
        return (counts + low * (2 * f - t)) >> f.bit_length() & low

    def units_of(self, mask: int) -> int:
        """The summed payload units of the events in mask."""
        total = 0
        for k, plane in enumerate(self._unit_planes):
            total += (mask & plane).bit_count() << k
        return total

    # -- fame ---------------------------------------------------------------

    def _strongly_seen_prev(self, v: int) -> list[int]:
        """The round(v) - 1 witnesses that witness v strongly sees, in
        position order, from its round - 1 reach, kept from its first
        vote."""
        ss = self._ss_prev.get(v)
        if ss is None:
            r = self.round[v] - 1
            _, forked, prev, _ = self._live[v]
            flags = self._dense_fields(
                self._unforked(prev, r, forked) if forked else prev, self._sm)
            ws = self.witnesses_by_round[r]
            ss = self._ss_prev[v] = list(
                compress(ws, self._unpack(flags, len(ws))))
        return ss

    def _decided_in(self, r: int) -> int:
        """The round-r witnesses whose fame is decided, as a mask shifted
        down by the round's first witness: the OR of its decider masks."""
        decided = 0
        for won in islice(self._deciders.get(r, ()), 2, None, 2):
            decided |= won
        return decided

    def elect_fame(self) -> None:
        """Decide witness fame where decidable; decisions are final."""
        if self._fame_polled == self._witness_count:
            # no new witness, so no (voter, witness) pair left to vote on
            return
        self._fame_polled = self._witness_count
        f = self._width
        # only a round with voters two rounds up can be tallied
        for r in range(self.finalized_round + 1,
                       len(self.witnesses_by_round) - 1):
            # round r's undecided fields, LOW bits over its witness positions
            ws = self.witnesses_by_round[r]
            base, decided = ws[0], self._decided_in(r)
            undecided = sum(1 << p * f for p, w in enumerate(ws)
                            if not decided >> w - base & 1)
            if undecided:
                self._tally(r, undecided)

    def _tally(self, r: int, undecided: int) -> None:
        """Have every round r + 2 or later witness, round by round in digest
        order, vote on the fields of undecided (LOW bits over round r's
        witness positions) it has not voted on, those at or past the count
        it has voted on: a witness that lands in round r later takes the
        next position.  A voter's yes count per field is the sum of the
        vote vectors of the round-below witnesses it strongly sees, which
        have all voted on those fields before it."""
        votes = self._votes[r]
        covered = self._covered.setdefault(r, {})
        ws = self.witnesses_by_round[r]
        base, f, n = ws[0], self._width, len(ws)
        sm = self._sm
        if not sm:
            raise HashgraphError("no members to take a supermajority of")
        for d in range(r + 2, len(self.witnesses_by_round) + 1):
            coin = (d - r) % COIN_PERIOD == 0
            # undecided only shrinks, so a voter that owes no vote now owes
            # none later in the round
            voters = [v for v in self.witnesses_by_round[d]
                      if undecided >> covered.get(v, 0) * f]
            voters.sort(key=self._id_key)
            for v in voters:
                todo = undecided & -(1 << covered.get(v, 0) * f)
                if not todo:
                    continue
                ss = self._strongly_seen_prev(v)
                s = len(ss)
                yes = sum(map(votes.__getitem__, ss))
                # vote yes iff yes >= no; decide iff yes or no reaches the
                # supermajority
                vote = self._at_least(yes, (s + 1) // 2)
                decided = 0
                if s >= sm:
                    decided = todo & (self._at_least(yes, sm)
                                      | ~self._at_least(yes, s - sm + 1))
                if coin:
                    # deterministic coin, the low bit of the voter's digest,
                    # where the tally is short of a supermajority
                    vote = (vote & decided
                            | (self._ids[(v << 5) + 31] & 1) * (todo & ~decided))
                covered[v] = n
                votes[v] = votes.get(v, 0) | vote & todo
                if decided and not coin:
                    flags = self._unpack(decided, n)
                    won = fame = 0
                    for w, famous in zip(compress(ws, flags), compress(
                            self._unpack(vote, n), flags)):
                        won |= 1 << w - base
                        fame |= famous << w - base
                    self._famous |= fame << base
                    record = self._deciders.setdefault(r, [v])
                    record[0] = max(record[0], v)
                    record += v, won
                    undecided &= ~decided
                    if not undecided:
                        return

    # -- total order --------------------------------------------------------

    def _order_round(self, r: int, famous: list[int], fresh: int,
                     lo: int) -> None:
        """Append the events of fresh (a mask shifted down by lo) to the
        order, by the lower median of their famous witnesses' stamps, then
        digest.  Each famous witness's self-parent walk stamps the events a
        chain event reaches and its self-parent does not with the chain
        event's created_at.  Those segments, in created_at order, count up
        a B-bit counter per event, kept as B bit planes over fresh, that
        starts at 2^B - (k + 1) for k = (len(famous) - 1) // 2 and
        B = k.bit_length(): an event carries out of the top plane at its
        (k + 1)-th smallest stamp, the lower median."""
        live, self_parent, created_at = (self._live, self._self_parent,
                                         self._created_at)
        segments = []
        for w in famous:
            y, hit = w, fresh
            while hit:
                sp = self_parent[y]
                # an ancient event is ordered, and reaches nothing fresh
                entry = live.get(sp)
                below = (entry[0] >> lo) & fresh if entry else 0
                if hit != below:
                    segments.append((created_at[y], hit ^ below))
                y, hit = sp, below
        segments.sort(key=itemgetter(0))
        k = (len(famous) - 1) // 2
        start = (1 << k.bit_length()) - (k + 1)
        planes = [fresh if start >> j & 1 else 0
                  for j in range(k.bit_length())]
        pending = fresh
        for ts, group in groupby(segments, key=itemgetter(0)):
            median = 0
            for _, carry in group:
                carry &= pending
                for j, plane in enumerate(planes):
                    if not carry:
                        break
                    planes[j] = plane ^ carry
                    carry &= plane
                else:
                    median |= carry
                    pending ^= carry
            if median:
                batch = sorted(map(lo.__add__, _set_bits(median)),
                               key=self._id_key)
                self._order_events.extend(batch)
                self._order_rounds.extend([r] * len(batch))
                self._order_stamps.extend([ts] * len(batch))
                if not pending:
                    return

    def advance_consensus(self) -> None:
        """Assign round-received and consensus timestamps for every round
        whose witnesses are all fame-decided, and, as each such round is
        finalized, freeze its deciders and drop its vote state (see Vote
        state lifetime)."""
        self.elect_fame()
        live, self_parent = self._live, self._self_parent
        creators, cmask = self._creator, self._cmask
        fame = self._famous
        r = self.finalized_round + 1
        while True:
            witnesses = self.witnesses_by_round.get(r)
            if (not witnesses
                    or self._decided_in(r).bit_count() < len(witnesses)):
                break
            famous = [w for w in witnesses if fame >> w & 1]
            if famous:
                inter = live[famous[0]][0]
                for w in famous[1:]:
                    inter &= live[w][0]
                fresh = inter & ~self._emitted
                if fresh:
                    lo = (fresh & -fresh).bit_length() - 1
                    self._order_round(r, famous, fresh >> lo, lo)
                    self._emitted |= fresh
                    # an ordered event's self-parent is ordered and has a
                    # self-child, and an ordered event that is not its
                    # creator's last has one too or is a dead fork tip:
                    # only a fork on either would read its entry again
                    for x in _set_bits(fresh):
                        live.pop(self_parent[x], None)
                        if cmask[creators[x]].bit_length() - 1 != x:
                            live.pop(x)
            # nothing votes on round r again: freeze its deciders and drop
            # its vote state and the strong sight of the voters that only
            # voted on it
            self._deciders[r] = tuple(self._deciders[r])
            self._votes.pop(r, None)
            self._covered.pop(r, None)
            for v in self.witnesses_by_round.get(r + 2, ()):
                self._ss_prev.pop(v, None)
            self.finalized_round = r
            r += 1

    def view_finalized_round(self, known: int) -> int:
        """Largest finalized round fully decidable inside a node's view: up
        to it, the view knows a decider of every round, and every witness
        with fame it knows was decided by a decider it knows; a witness
        without fame is not famous (see View limits).  A decider of round r
        strongly sees a supermajority of round r + 1 witnesses, so it
        descends from every famous witness of round r, and the view, down-
        closed, knows every event received by round r."""
        # the view knows every event below its lowest missing index
        low = (~known & known + 1).bit_length() - 1
        deciders = self._deciders
        for r in range(1, self.finalized_round + 1):
            record = deciders[r]
            if record[0] >= low:
                # the view must know a decider, and every decider of a
                # witness it knows; masks are shifted down by the round's
                # first witness
                base, knows_one = self.witnesses_by_round[r][0], False
                pairs = islice(record, 1, None)
                for d, ws in zip(pairs, pairs):
                    if known >> d & 1:
                        knows_one = True
                    elif known & ws << base:
                        return r - 1
                if not knows_one:
                    return r - 1
        return self.finalized_round


class Transfer:
    """The events of a mask over a store: read-only, sized by popcount and
    iterated as the mask's indices in increasing order (a topological
    order)."""

    __slots__ = ("store", "mask")

    def __init__(self, store: EventStore, mask: int):
        self.store = store
        self.mask = mask

    def __len__(self) -> int:
        return self.mask.bit_count()

    def __iter__(self) -> Iterator[int]:
        return _set_bits(self.mask)

    @property
    def units(self) -> int:
        return self.store.units_of(self.mask)


def replay(store: EventStore, events: Transfer) -> None:
    """Insert the events of a transfer from another store into store, in
    index order, each parent named by its copy's index.  A copy keeps its
    source's id (see ``add_event``), so a parent index that maps wrong
    raises: one outside the transfer is dangling, and one inside it makes
    a child that holds its payload reseal to another id.  The copies'
    units are read in one pass per unit plane over the transfer."""
    source, copies, units = events.store, {}, {}
    # each event's units, one pass over each unit plane
    for k, plane in enumerate(source._unit_planes):
        for i in _set_bits(plane & events.mask):
            units[i] = units.get(i, 0) | 1 << k
    creators, created_at = source._creator, source._created_at
    self_parent, other_parent = source._self_parent, source._other_parent
    for i in events:
        sp, op = self_parent[i], other_parent[i]
        copies[i] = store.add_event(
            creators[i], None if sp < 0 else copies.get(sp, -1),
            None if op < 0 else copies.get(op, -1), source._payload.get(i),
            created_at[i], source._id(i), units.get(i, 0))


class Hashgraph:
    """A node's view of an event store: what ``owner``, the node, knows.

    ``known`` is a down-closed mask of the store's events.  Of the heads the
    view keeps only ``head``, the index of the owner's known event furthest
    along its self-parent chain, which the owner's next event chains onto.
    On a tie, which only a forked owner has, the later-absorbed event wins:
    an equivocator's second branch that gossip brings back becomes its
    head.

    A view starts with the ``known`` and ``head`` it is built with, empty and
    headless by default; then only ``_record`` and ``reseat`` move it.
    """

    def __init__(self, store: EventStore, owner: NodeId, known: int = 0,
                 head: Optional[int] = None):
        self.store = store
        self.owner = owner
        self.known = known
        self.head = head

    def reseat(self, owner: NodeId) -> None:
        """Hand the view to owner, headed by its furthest known event."""
        self.owner, self.head = owner, None
        self.head = self._head_after(self.known)

    def _head_after(self, mask: int) -> Optional[int]:
        """The head once the view learns the events in mask: the owner's
        among them, walked in index order, move it."""
        head, store = self.head, self.store
        seq = store._seq
        for i in _set_bits(mask & store._cmask.get(self.owner, 0)):
            if head is None or seq[head] <= seq[i]:
                head = i
        return head


def member_view(store: EventStore, owner: NodeId) -> Hashgraph:
    """The owner's view as its last event in store left it, headed by that
    event, so a node back in a committee it left starts no second root;
    empty if it has no event there."""
    last = store._cmask.get(owner, 0).bit_length() - 1
    return (Hashgraph(store, owner, store._live[last][0], last) if last >= 0
            else Hashgraph(store, owner))


def create_event(
    graph: Hashgraph,
    other_parent: Optional[int],
    payload: Sequence[Transaction],
    now: int,
) -> int:
    """Append a new event created by the view's owner, chained onto the
    view's head, and return its index.  The store checks the parents'
    creators; the other-parent must be in the view, which keeps the view
    down-closed."""
    if other_parent is not None and not (
            other_parent >= 0 and graph.known >> other_parent & 1):
        raise HashgraphError(f"other_parent {other_parent} not in the view")
    return _record(graph, 0, other_parent, payload, now)


def _record(
    graph: Hashgraph,
    learned: int,
    other_parent: Optional[int],
    payload: Sequence[Transaction],
    now: int,
) -> int:
    """The owner's next event, chained onto the head the view has once it
    learns the events in ``learned``, becomes the view's head: it is past
    every owner event the view then knows.  The view learns them only after
    the store accepts the event, so a rejected event leaves the view as it
    was."""
    store = graph.store
    # only the owner's events among those learned can move the head
    head = (graph._head_after(learned)
            if learned & store._cmask.get(graph.owner, 0) else graph.head)
    idx = store.add_event(graph.owner, head, other_parent, tuple(payload), now)
    graph.known |= learned | 1 << idx
    graph.head = idx
    return idx


def gossip_chain(
    views: Sequence[Hashgraph],
    payloads: Sequence[Sequence[Transaction]],
    now: int,
) -> list[tuple[int, int]]:
    """Each view, in turn, pushes into the next, of the same store, which
    learns what it was missing and records the sync as its owner's event
    with payload ``payloads[i]`` for ``views[i + 1]``.  A ring is its views
    with the first appended.  Returns each sync's transferred mask and
    record event's index.  A rejected sync raises and leaves its receiver's
    view unchanged; the syncs before it stand."""
    store = views[0].store
    syncs = []
    for sender, receiver, payload in zip(views, views[1:], payloads):
        if receiver.store is not store:
            raise HashgraphError("gossip between views of different stores")
        mask = sender.known & ~receiver.known
        syncs.append(
            (mask, _record(receiver, mask, sender.head, payload, now)))
    return syncs


def gossip_sync(
    sender_graph: Hashgraph,
    receiver_graph: Hashgraph,
    now: int,
    payload: Sequence[Transaction],
) -> tuple[Transfer, int]:
    """Push the sender's view into the receiver's and record the sync:
    the chain of the two views.  Returns the events the receiver was
    missing and the index of its new gossip-record event, whose
    other_parent is the sender's head."""
    ((mask, event),) = gossip_chain(
        (sender_graph, receiver_graph), (payload,), now)
    return Transfer(sender_graph.store, mask), event


def decided_length(graph: Hashgraph) -> int:
    """The length of the view's total order: the canonical order truncated
    at the last round this view can fully decide.  The canonical order is
    appended round by round, so the view's order is the prefix a bisect on
    round_received finds."""
    store = graph.store
    store.advance_consensus()
    return bisect.bisect_right(store._order_rounds,
                               store.view_finalized_round(graph.known))


def consensus_order(graph: Hashgraph) -> Order:
    """The view's total order, a prefix of its store's."""
    length = decided_length(graph)
    return graph.store.consensus[:length]


def detect_forks(store: EventStore) -> set[tuple[NodeId, EventId, EventId]]:
    """Every same-creator event pair of the store where neither is the
    other's ancestor, each as (creator, lower id, higher id), from the
    evidence recorded at insert (``_apart``)."""
    forks: set[tuple[NodeId, EventId, EventId]] = set()
    for b, apart in store._apart.items():
        creator, db = store._creator[b], store._id(b)
        for da in map(store._id, apart):
            forks.add((creator,) + ((da, db) if da < db else (db, da)))
    return forks
