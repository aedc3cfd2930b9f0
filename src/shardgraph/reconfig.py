"""Node churn and committee reorganization seeded by consensus timestamps.

Every reconfiguration choice (which committee a joining node enters, which
committees donate members to a depleted one, which members move, who the new
coordinator is) is derived from the consensus timestamp of a control
transaction, so any observer of the consensus order can recompute it.
"""

from __future__ import annotations

import hashlib
import random
from typing import Iterable, Optional

from .sharding import CommitteeTable, ShardState, seat_coordinator

NodeId = int
CommitteeId = int

# Reorg-trigger interpretations ("exceeds half of ..."):
TRIGGER_COMMITTEE_FRACTION = "committee-fraction"  # half the committee's own baseline
TRIGGER_LITERAL = "literal-s-over-2"               # half the number of committees
TRIGGER_MODES = (TRIGGER_COMMITTEE_FRACTION, TRIGGER_LITERAL)

DEFAULT_DONOR_COUNT = 2


class ReconfigError(Exception):
    pass


def derive_value(consensus_timestamp: int) -> int:
    """Unsigned integer derived from the canonical serialization of a
    consensus timestamp."""
    blob = consensus_timestamp.to_bytes(8, "big", signed=True)
    return int.from_bytes(hashlib.sha256(blob).digest(), "big")


class ChurnLedger:
    """Per-committee departure counts since the last reorganization."""

    def __init__(self, exits: dict[CommitteeId, int],
                 baseline: dict[CommitteeId, int]):
        self.exits = exits
        self.baseline = baseline

    @classmethod
    def from_table(cls, table: CommitteeTable) -> "ChurnLedger":
        return cls(
            exits={cid: 0 for cid in table.coordinators},
            baseline={
                cid: len(table.members(cid)) for cid in table.coordinators
            },
        )

    def note_exit(self, committee: CommitteeId) -> None:
        self.exits[committee] = self.exits.get(committee, 0) + 1

    def reset(self, committee: CommitteeId, new_size: int) -> None:
        self.exits[committee] = 0
        self.baseline[committee] = new_size


def check_reorg_trigger(
    ledger: ChurnLedger, committee: CommitteeId, mode: str, num_committees: int
) -> bool:
    exits = ledger.exits.get(committee, 0)
    if mode == TRIGGER_LITERAL:
        return exits > num_committees / 2
    return exits > ledger.baseline.get(committee, 0) / 2


# -- pure choice helpers ----------------------------------------------------


def choose_join_committee(consensus_timestamp: int, s: int) -> CommitteeId:
    return derive_value(consensus_timestamp) % s


def _draw(consensus_timestamp: int, pool: Iterable[int], k: int) -> list[int]:
    """k distinct members of pool, or all of them when it holds fewer,
    drawn by the timestamp's seed from the sorted pool, in sorted order."""
    pool = sorted(pool)
    rng = random.Random(derive_value(consensus_timestamp))
    return sorted(rng.sample(pool, min(k, len(pool))))


def choose_donors(
    consensus_timestamp: int,
    depleted: CommitteeId,
    eligible: Iterable[CommitteeId],
    k: int,
) -> list[CommitteeId]:
    """Expand one timestamp into k distinct donor committees."""
    return _draw(consensus_timestamp,
                 (c for c in eligible if c != depleted), k)


def choose_split_members(
    consensus_timestamp: int, candidates: Iterable[NodeId], count: int
) -> list[NodeId]:
    return _draw(consensus_timestamp, candidates, count)


def choose_coordinator(
    consensus_timestamp: int, members: Iterable[NodeId]
) -> NodeId:
    pool = sorted(members)
    if not pool:
        raise ReconfigError("cannot select a coordinator of an empty committee")
    return pool[derive_value(consensus_timestamp) % len(pool)]


def join_request_receiver(table: CommitteeTable) -> NodeId:
    """The global-committee member that handles a join request: the lowest
    node id among the coordinators (deterministic stand-in for 'whoever
    receives the request')."""
    return min(table.coordinators.values())


# -- membership operations --------------------------------------------------


def join_node(
    state: ShardState,
    table: CommitteeTable,
    new_node: NodeId,
    consensus_timestamp: int,
) -> CommitteeId:
    if new_node in table.assignment:
        raise ReconfigError(f"node {new_node} already assigned")
    cid = choose_join_committee(consensus_timestamp, table.num_committees)
    table.place(new_node, cid)
    state.local_stores[cid].add_member(new_node)
    return cid


def leave_node(
    state: ShardState,
    table: CommitteeTable,
    ledger: ChurnLedger,
    node: NodeId,
) -> None:
    """Remove a node from its committee and note the exit in the ledger."""
    cid = table.remove(node)
    if cid is None:
        raise ReconfigError(f"unknown node {node}")
    ledger.note_exit(cid)
    state.local_stores[cid].remove_member(node)


def reselect_coordinator(
    state: ShardState,
    table: CommitteeTable,
    committee: CommitteeId,
    consensus_timestamp: int,
) -> NodeId:
    new = choose_coordinator(consensus_timestamp, table.members(committee))
    seat_coordinator(state, table, committee, new)
    return new


# -- reorganization -----------------------------------------------------------
#
# A depleted committee is refilled in two phases, each seeded by an ordered
# control transaction.  When the global ``reorg`` transaction is ordered, the
# donor pool is fixed (donor_pool) and donors are drawn from it with that
# transaction's timestamp (choose_donors).  Once every donor's ``intra_reorg``
# transaction is ordered in its own committee, the per-donor quotas are fixed
# (split_quotas), each donor's movers are drawn with its own timestamp
# (choose_split_members), and apply_transfers moves them.


def _committee_sizes(table: CommitteeTable) -> dict[CommitteeId, int]:
    return {cid: len(table.members(cid)) for cid in sorted(table.coordinators)}


def _refill_target(sizes: dict[CommitteeId, int], min_size: int) -> int:
    """The (ceiling) average committee size, never below min_size."""
    return max(min_size, -(-sum(sizes.values()) // len(sizes)))


def donor_pool(
    table: CommitteeTable, depleted: CommitteeId, min_size: int
) -> Optional[list[CommitteeId]]:
    """Committees that may donate members to ``depleted``: every other
    committee above min_size.  None when ``depleted`` already holds its
    refill target and there is nothing to do."""
    sizes = _committee_sizes(table)
    if sizes[depleted] >= _refill_target(sizes, min_size):
        return None
    return [c for c in sizes if c != depleted and sizes[c] > min_size]


def split_quotas(
    table: CommitteeTable,
    depleted: CommitteeId,
    donors: list[CommitteeId],
    min_size: int,
) -> list[tuple[CommitteeId, list[NodeId], int]]:
    """(donor, candidates, quota) for each donor that gives members.

    Donors, in order, each give an even share of what ``depleted`` still
    lacks of its refill target, without dropping below min_size; the
    candidates are the donor's members other than its coordinator."""
    sizes = _committee_sizes(table)
    remaining = _refill_target(sizes, min_size) - sizes[depleted]
    quotas = []
    for i, donor in enumerate(donors):
        left = len(donors) - i
        quota = min(-(-remaining // left), sizes[donor] - min_size)
        if quota <= 0:
            continue
        candidates = table.non_coordinators(donor)
        quotas.append((donor, candidates, quota))
        remaining -= min(quota, len(candidates))
    return quotas


def apply_transfers(
    state: ShardState,
    table: CommitteeTable,
    ledger: ChurnLedger,
    depleted: CommitteeId,
    transfers: dict[CommitteeId, list[NodeId]],
) -> None:
    """Move each donor's drawn members into ``depleted``, rebase the churn
    ledger and open a new epoch."""
    for donor, moved in transfers.items():
        for node in moved:
            table.place(node, depleted)
            state.local_stores[donor].remove_member(node)
            state.local_stores[depleted].add_member(node)
        # donors keep their exit counts; only their baseline moves
        ledger.baseline[donor] = len(table.members(donor))
    ledger.reset(depleted, len(table.members(depleted)))
    table.epoch += 1
