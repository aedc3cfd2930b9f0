"""Dump small event graphs to a structured text format.

Fixture files drive the brute-force oracle tests, which load them back.
Format, one event per line, referencing parents by earlier line index
(``-`` for absent)::

    population 0 1 2 3
    # creator  self_parent  other_parent  payload_count  created_at
    0 - - 0 0
    1 - - 0 0
    0 0 1 1 1

Only payload counts are kept; the loader synthesizes intra-shard
transactions with deterministic ids derived from the line index.
"""

from __future__ import annotations

from typing import Iterable

from .hashgraph import Event, EventStore, Hashgraph, create_event, gossip_sync
from .transactions import Transaction


def dump_fixture(population: Iterable[int], events: list[Event]) -> str:
    index = {ev.digest: i for i, ev in enumerate(events)}
    lines = ["population " + " ".join(str(p) for p in sorted(population))]
    for ev in events:
        sp = "-" if ev.self_parent is None else str(index[ev.self_parent])
        op = "-" if ev.other_parent is None else str(index[ev.other_parent])
        lines.append(
            f"{ev.creator} {sp} {op} {len(ev.payload)} {ev.created_at}"
        )
    return "\n".join(lines) + "\n"


def round_robin_fixture(n: int = 4, events_per_node: int = 3) -> str:
    """A deterministic n-node gossip schedule used by the oracle tests."""
    store = EventStore(range(n))
    graphs = [Hashgraph(store, i) for i in range(n)]
    events: list[Event] = []
    for i in range(n):
        events.append(create_event(graphs[i], None, (), 0))
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
                Transaction(tx_id=f"t{tick}_{receiver}", origin=0, target=0),
            )
            _, ev = gossip_sync(graphs[sender], graphs[receiver], tick, payload)
            events.append(ev)
            created[receiver] += 1
            tick += 1
            if min(created) >= events_per_node:
                break
    return dump_fixture(range(n), events)
