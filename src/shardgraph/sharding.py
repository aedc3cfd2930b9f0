"""Committee partitioning and the cross-shard transaction pipeline.

Nodes are split into local committees, each running its own hashgraph; the
per-committee coordinators together form the global committee, which runs a
hashgraph of its own, relays cross-shard transactions through coordinator
cache queues, and holds replicas of the local graphs.
"""

from __future__ import annotations

import bisect
import random
from typing import Iterable, NamedTuple, Optional

from .hashgraph import (
    EventStore,
    Hashgraph,
    Order,
    Transfer,
    decided_length,
    replay,
)
from .transactions import KIND_PAYLOAD, Transaction

NodeId = int
CommitteeId = int


class ShardingError(Exception):
    pass


class CommitteeTable:
    """Node -> committee assignment plus per-committee coordinators.

    Beside ``assignment`` the table keeps each committee's members in node
    order, so no reader sorts or scans the assignment.  ``place`` and
    ``remove`` are the only writers of either, so the two never disagree;
    ``members`` hands out a copy, which a later move leaves as it is."""

    def __init__(self, assignment: dict[NodeId, CommitteeId],
                 coordinators: dict[CommitteeId, NodeId], epoch: int = 0):
        self.assignment: dict[NodeId, CommitteeId] = {}
        self._members: dict[CommitteeId, list[NodeId]] = {
            c: [] for c in coordinators}
        for node, committee in assignment.items():
            self.place(node, committee)
        self.coordinators = coordinators
        self.epoch = epoch

    @property
    def num_committees(self) -> int:
        return len(self.coordinators)

    def place(self, node: NodeId, committee: CommitteeId) -> None:
        """Put node in committee, moving it out of its old one if any."""
        self.remove(node)
        self.assignment[node] = committee
        bisect.insort(self._members.setdefault(committee, []), node)

    def remove(self, node: NodeId) -> Optional[CommitteeId]:
        """Take node out of its committee and return that committee, or
        None for a node the table does not hold."""
        committee = self.assignment.pop(node, None)
        if committee is not None:
            self._members[committee].remove(node)
        return committee

    def members(self, committee: CommitteeId) -> list[NodeId]:
        """The committee's members in node order, as a new list."""
        return list(self._members.get(committee, ()))

    def non_coordinators(self, committee: CommitteeId) -> list[NodeId]:
        """The committee's members other than its coordinator, which is
        never an equivocator, a churn victim or a reorganization mover."""
        coordinator = self.coordinators[committee]
        return [m for m in self._members[committee] if m != coordinator]

    def global_committee(self) -> list[NodeId]:
        return sorted(self.coordinators.values())

    def committee_of(self, node: NodeId) -> CommitteeId:
        return self.assignment[node]

    def validate(self) -> None:
        for cid, coord in self.coordinators.items():
            if self.assignment.get(coord) != cid:
                raise ShardingError(
                    f"coordinator {coord} is not a member of committee {cid}"
                )
        for cid in self.coordinators:
            if not self.members(cid):
                raise ShardingError(f"committee {cid} is empty")


def partition_nodes(
    nodes: Iterable[NodeId], s: int, seed: int
) -> CommitteeTable:
    """Random balanced assignment; committee sizes differ by at most one."""
    nodes = sorted(set(nodes))
    if s < 1:
        raise ShardingError("shard count must be >= 1")
    if len(nodes) < s:
        raise ShardingError(f"{len(nodes)} nodes cannot fill {s} committees")
    rng = random.Random(seed)
    shuffled = nodes[:]
    rng.shuffle(shuffled)
    n = len(nodes)
    base, extra = divmod(n, s)
    assignment: dict[NodeId, CommitteeId] = {}
    coordinators: dict[CommitteeId, NodeId] = {}
    pos = 0
    for cid in range(s):
        size = base + (1 if cid < extra else 0)
        members = shuffled[pos : pos + size]
        pos += size
        for m in members:
            assignment[m] = cid
        coordinators[cid] = rng.choice(sorted(members))
    return CommitteeTable(assignment=assignment, coordinators=coordinators)


class CacheQueue:
    """A committee's FIFO buffers for cross-shard transactions, held by
    whoever holds its seat in the global committee.  They stay with the
    seat, as its global view does, so each global event is received once
    and each transaction is filed into ``inbound`` once."""

    def __init__(self):
        self.outbound: list[Transaction] = []
        self.inbound: list[Transaction] = []


class ShardState:
    """Graphs, seats, queues and replicas of one sharded deployment.  A
    committee's seat in the global committee is its queues and its view of
    the global graph, ``seats[c]``, owned by the committee's coordinator;
    ``seat_coordinator`` hands both to a new coordinator.  ``seated`` holds
    every node that has ever held a seat."""

    def __init__(self, table: CommitteeTable):
        self.local_stores: dict[CommitteeId, EventStore] = {
            cid: EventStore(table.members(cid))
            for cid in range(table.num_committees)
        }
        self.global_store = EventStore(table.global_committee())
        self.queues: dict[CommitteeId, CacheQueue] = {
            cid: CacheQueue() for cid in table.coordinators
        }
        self.seats: dict[CommitteeId, Hashgraph] = {
            cid: Hashgraph(self.global_store, coord)
            for cid, coord in table.coordinators.items()
        }
        self.seated: set[NodeId] = set(table.coordinators.values())
        # each committee's latest checkpoint; every global-committee member
        # other than the committee's coordinator holds it
        self.replicas: dict[CommitteeId, ReplicaSnapshot] = {}


class ReplicaSnapshot(NamedTuple):
    population: list[NodeId]
    events: Transfer
    length: int      # of the checkpointed prefix of the store's order

    @property
    def consensus(self) -> Order:
        """The checkpointed order: a prefix of the events' store's order,
        which is append-only."""
        return self.events.store.consensus[:self.length]


def seat_coordinator(
    state: ShardState,
    table: CommitteeTable,
    committee: CommitteeId,
    new: NodeId,
) -> None:
    """Seat ``new`` as the committee's coordinator: it takes the outgoing
    one's place in the global graph's membership and the seat's global
    view, headed by its own furthest event there, so a seat receives each
    global event once and none dies with a dropped view.  Seating the
    current coordinator changes nothing."""
    old = table.coordinators[committee]
    if new == old:
        return
    table.coordinators[committee] = new
    state.seated.add(new)
    state.global_store.remove_member(old)
    state.global_store.add_member(new)
    state.seats[committee].reseat(new)


# -- pipeline steps ---------------------------------------------------------


def coordinator_ingest_local(
    state: ShardState,
    table: CommitteeTable,
    committee: CommitteeId,
    payloads: Iterable[tuple[Transaction, ...]],
) -> None:
    """Step 1: queue the cross-shard transactions that originate in this
    committee, from the payloads of the events its local graph has newly
    ordered, in consensus order, for the global graph.  A transaction is
    relayed only once its origin committee has ordered it, whoever is the
    committee's coordinator then.  Each payload is ordered once, so no
    transaction is queued twice; a delivered transaction from another
    committee is not sent back through the global graph."""
    outbound = state.queues[committee].outbound
    for payload in payloads:
        for tx in payload:
            if (tx.target != committee and tx.origin == committee
                    and tx.kind == KIND_PAYLOAD):
                outbound.append(tx)


def _take_oldest(queued: list[Transaction], limit: int) -> list[Transaction]:
    """Remove and return the oldest queued transactions, at most limit."""
    batch = queued[:limit]
    del queued[:limit]
    return batch


def flush_outbound(
    state: ShardState, committee: CommitteeId, batch_limit: int
) -> list[Transaction]:
    """Step 2a: the oldest queued outbound transactions, at most batch_limit,
    for the coordinator's next global event."""
    return _take_oldest(state.queues[committee].outbound, batch_limit)


def flush_inbound(
    state: ShardState, committee: CommitteeId, batch_limit: int
) -> list[Transaction]:
    """Step 3: the oldest queued inbound transactions, at most batch_limit,
    for delivery in the coordinator's next local event."""
    return _take_oldest(state.queues[committee].inbound, batch_limit)


def coordinator_receive_global(
    state: ShardState,
    table: CommitteeTable,
    receiver_committee: CommitteeId,
    event: int,
) -> None:
    """Step 2b: file transactions targeting this committee, from the
    global graph's event of this index, into the receiving coordinator's
    inbound queue."""
    state.queues[receiver_committee].inbound += delivered_to(
        receiver_committee, state.global_store.payload(event))


def delivered_to(
    committee: CommitteeId, txs: Iterable[Transaction]
) -> list[Transaction]:
    """The cross-shard transactions among txs that target committee."""
    return [tx for tx in txs if tx.target == committee
            and tx.origin != committee and tx.kind == KIND_PAYLOAD]


# -- replication and recovery ----------------------------------------------


def replicate_checkpoint(
    state: ShardState, committee: CommitteeId, source: Hashgraph
) -> None:
    """Replace the committee's replica with ``source``, the coordinator's
    view of its graph, when the global committee has a member to hold it:
    when there are other committees."""
    if len(state.local_stores) > 1:
        state.replicas[committee] = ReplicaSnapshot(
            population=list(source.store.population),
            events=Transfer(source.store, source.known),
            length=decided_length(source),
        )


def replica_holder_count(
    state: ShardState, table: CommitteeTable, committee: CommitteeId
) -> int:
    """Holders of a complete copy: committee members plus, once the
    committee has a replica, the global committee."""
    holders = set(table.members(committee))
    if committee in state.replicas:
        holders |= set(table.global_committee())
    return len(holders)


def recover_failed_shard(
    state: ShardState,
    table: CommitteeTable,
    failed: CommitteeId,
    replacement_members: Iterable[NodeId],
) -> ReplicaSnapshot:
    """Rebuild a failed committee from its global-committee replica,
    preserving the pre-failure consensus prefix.  Returns that replica."""
    replacements = sorted(set(replacement_members))
    if not replacements:
        raise ShardingError("no replacement members supplied")
    replica = state.replicas.get(failed)
    if replica is None:
        raise ShardingError(
            f"no replica of committee {failed} exists: unrecoverable loss"
        )

    store = EventStore(replica.population)
    replay(store, replica.events)
    store.advance_consensus()
    prefix, want = store.consensus, replica.consensus
    if prefix[: len(want)] != want and want[: len(prefix)] != prefix:
        raise ShardingError("replica replay diverged from checkpoint order")
    for node in replica.population:
        store.remove_member(node)
    for node in replacements:
        store.add_member(node)
    state.local_stores[failed] = store

    for node in table.members(failed):
        table.remove(node)
    for node in replacements:
        table.place(node, failed)
    seat_coordinator(state, table, failed, replacements[0])
    # the new coordinator takes over the committee's queues.  The cross
    # transactions delivered in events the replica lacks, and not applied,
    # die with those events, so they go back to the front of inbound, in
    # index order
    source, held = replica.events.store, replica.events.mask
    lost = Transfer(source, (1 << len(source.by_index)) - 1 & ~held)
    state.queues[failed].inbound[:0] = delivered_to(
        failed, (tx for i in lost for tx in source.payload(i)))
    table.epoch += 1
    return replica
