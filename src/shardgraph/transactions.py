"""Transaction payload units carried inside hashgraph events."""

from __future__ import annotations

from typing import NamedTuple

# Lifecycle kinds.  Ordinary value transfers are "payload"; the remaining
# kinds are control transactions whose consensus timestamps seed
# reconfiguration randomness.
KIND_PAYLOAD = "payload"
KIND_JOIN = "join"
KIND_REORG = "reorg"
KIND_INTRA_REORG = "intra_reorg"
KIND_RESELECT = "reselect"


class Transaction(NamedTuple):
    """A payload unit tagged with origin/target committee, as an immutable
    tuple record: built positionally at tuple speed, compared and hashed by
    its fields.

    A transaction is cross-shard exactly when origin != target.  Control
    transactions (join/reorg/...) carry their arguments in ``data``.
    """

    tx_id: str
    origin: int
    target: int
    size_units: int
    kind: str
    data: tuple


def control_tx(tx_id: str, committee: int, kind: str = KIND_PAYLOAD,
               data: tuple = ()) -> Transaction:
    """A zero-size transaction a committee addresses to itself: a control
    transaction of kind with its arguments in data, or, of the payload
    kind, an equivocation marker."""
    return Transaction(tx_id, committee, committee, 0, kind, data)
