"""Deterministic simulation of the sharded gossip protocol over logical ticks.

One tick loop drives the run, ticks 0 to duration - 1.  Each tick runs, in
this order:

1. the adversary's move, every ``adversary_interval`` ticks from tick
   ``adversary_interval`` on (equivocation or churn);
2. the shard failure, at its tick;
3. the recovery, ``adversary_recover_delay`` ticks after the failure;
4. workload injection, until ``inject_until``;
5. a gossip round, every ``sync_interval`` ticks;
6. the consensus poll, which also takes checkpoints.

A failed committee is down until its recovery succeeds: its members
inject no transactions and do not gossip, and its checkpoint is not
replaced.  Every run is a pure function of its ScenarioConfig: running the
same config twice produces byte-identical reports.

Gossip is push-style.  Each round every node outside the down committees
pushes its view to the next node along a freshly shuffled ring inside its
committee, and the receiver records the sync as a new event carrying its
pending transaction buffer.  The ring gives every node exactly one
reception per round (the partner is still uniform over the other members),
which keeps the empty-event fraction near the ideal no-empty-events regime
at moderate injection rates.  A committee's ring runs as one engine pass
(``gossip_chain``) and is accounted in one call; the receivers' buffers
are detached before it, as nothing fills them during it.  Coordinators
alternate rounds between their local committee and the global committee
ring, whose syncs run and are accounted one at a time.
"""

from __future__ import annotations

import csv
import json
import math
import os
import random
from itertools import chain
from pathlib import Path
from typing import Iterable, NamedTuple, Optional, Sequence, TextIO

from .config import CHURN, EQUIVOCATOR, NO_ADVERSARY, SHARD_FAILURE, ScenarioConfig
from .hashgraph import (
    Hashgraph,
    Order,
    consensus_order,
    create_event,
    detect_forks,
    full_view,
    gossip_chain,
    gossip_sync,
    member_view,
    payload_units,
)
from .metrics import COMPARISON_COLUMNS, MetricsReport, compare_measured
from .reconfig import (
    DEFAULT_DONOR_COUNT,
    ChurnLedger,
    apply_transfers,
    check_reorg_trigger,
    choose_donors,
    choose_split_members,
    donor_pool,
    join_node,
    join_request_receiver,
    leave_node,
    reselect_coordinator,
    split_quotas,
)
from .sharding import (
    ShardState,
    ShardingError,
    coordinator_ingest_local,
    coordinator_receive_global,
    delivered_to,
    flush_inbound,
    flush_outbound,
    partition_nodes,
    recover_failed_shard,
    replica_holder_count,
    replicate_checkpoint,
)
from .transactions import (
    KIND_INTRA_REORG,
    KIND_JOIN,
    KIND_PAYLOAD,
    KIND_REORG,
    KIND_RESELECT,
    Transaction,
    control_tx,
)


class SimulationError(Exception):
    pass


class Tick(NamedTuple):
    at: int


class Scheduler:
    """The run's ticks, 0 to duration - 1, in order.  The run loop takes
    each tick from ``pop``, so a wrapper of ``pop`` sees every tick start."""

    def __init__(self, duration: int):
        self._ticks = map(Tick, range(duration))

    def pop(self) -> Optional[Tick]:
        """The next tick, or None after the last."""
        return next(self._ticks, None)


def event_units(payload: list[Transaction]) -> int:
    return payload_units(payload)


def poisson_sample(rng: random.Random, lam: float) -> int:
    """Knuth's method, in chunks of rate at most 30 so exp() never
    underflows for large rates."""
    count = 0
    while lam > 0:
        chunk = min(lam, 30)
        lam -= chunk
        limit = math.exp(-chunk)
        p = rng.random()
        while p > limit:
            count += 1
            p *= rng.random()
    return count


def inject_workload(config, rng, table, down, first):
    """Poisson arrivals for one tick at the members of the committees not
    in ``down``: (origin node, transaction) pairs, each transaction a
    one-unit payload from the node's committee, numbered ``t{first}``,
    ``t{first + 1}`` and on."""
    committees = sorted(table.coordinators)
    pool = sorted(chain.from_iterable(
        table.members(c) for c in committees if c not in down))
    if not pool:
        return []
    out = []
    assignment = table.assignment
    others = {c: [d for d in committees if d != c] for c in committees}
    choice, rand, ratio = rng.choice, rng.random, config.cross_ratio
    cross = len(committees) > 1
    # tuple.__new__ builds each record without the generated __new__'s call
    new = tuple.__new__
    for i in range(first, first + poisson_sample(rng, config.tx_rate)):
        origin_node = choice(pool)
        ocid = assignment[origin_node]
        if cross and rand() < ratio:
            target = choice(others[ocid])
        else:
            target = ocid
        out.append((origin_node, new(
            Transaction, (f"t{i}", ocid, target, 1, KIND_PAYLOAD, ()))))
    return out


def _str_keys(value):
    """Maps get string keys before json.dumps(sort_keys=True), so integer
    keys sort as text."""
    if isinstance(value, dict):
        return {str(k): v for k, v in value.items()}
    return value


# the recovery_log keys whose values are consensus orders
_RECOVERY_ORDER_KEYS = ("pre_failure_order", "checkpointed_order")


def order_summary(order: Order) -> dict:
    """What report.json holds of a consensus order: its length, the
    round_received of its last entry (None when empty) and its
    ``fingerprint``, the sha256 of its entries as text."""
    return {
        "length": len(order),
        "last_round_received": order[-1].round_received if order else None,
        "sha256": order.fingerprint(),
    }


class RunReport(NamedTuple):
    config: dict
    metrics: MetricsReport
    comparison: list
    # committee id -> its store's Order; report.json holds each order's
    # order_summary
    consensus: dict
    order_lengths: dict        # node -> decided-prefix length of its view
    # committee id -> sorted fork evidence, (creator, hex id, hex id)
    forks: dict
    reorg_log: list
    action_log: list
    # shard failures and recoveries; report.json holds the order_summary
    # of each entry's pre_failure_order or checkpointed_order, each an Order
    recovery_log: list
    tx_audit: dict
    anomalies: list
    checkpoint_count: int

    def to_dict(self) -> dict:
        """The serialized report, with every consensus order replaced by
        its order_summary."""
        out = {k: _str_keys(v) for k, v in self._asdict().items()}
        out["consensus"] = {
            cid: order_summary(order) for cid, order in out["consensus"].items()
        }
        out["recovery_log"] = [
            {k: order_summary(v) if k in _RECOVERY_ORDER_KEYS else v
             for k, v in entry.items()}
            for entry in self.recovery_log
        ]
        m = self.metrics
        out["metrics"] = {k: _str_keys(v) for k, v in vars(m).items()}
        out["metrics"]["empty_event_fraction"] = m.empty_event_fraction
        return out

    def dump(self, fh: TextIO) -> None:
        """Stream the report as indented JSON with sorted keys, and a
        final newline, into the open text file fh, chunk by chunk, so the
        whole text is never held in memory.  ``write_report`` streams it
        into a temporary file that then atomically replaces report.json."""
        json.dump(self.to_dict(), fh, sort_keys=True, indent=2)
        fh.write("\n")


class Simulation:
    def __init__(self, config: ScenarioConfig):
        config.validate()
        self.cfg = config
        self.rng = random.Random(config.seed)
        self.table = partition_nodes(range(config.n), config.s, seed=config.seed)
        self.state = ShardState(self.table)
        self.ledger = ChurnLedger.from_table(self.table)
        self.down: set[int] = set()   # failed committees not yet recovered
        self.views: dict[int, Hashgraph] = {}
        self.pending: dict[int, list[Transaction]] = {}
        for node in range(config.n):
            self._enter(node, self._local_view(node))
        self.metrics = MetricsReport(config.duration)
        self.inject_until = config.resolved_inject_until()
        self.next_node_id = config.n
        self.inject_tick: dict[str, int] = {}
        self.ordered_count: dict[str, int] = {}
        self.reorg: dict[int, dict] = {}
        self.reorg_log: list = []
        self.action_log: list = []
        self.recovery_log: list = []
        self.anomalies: list = []
        self.last_ckpt_round = 0
        self.equivocators: list[int] = []
        if config.adversary_kind == EQUIVOCATOR:
            at_bound = False
            for cid in sorted(self.table.coordinators):
                members = self.table.non_coordinators(cid)
                count = max(1, int(config.adversary_fraction * len(members)))
                count = min(count, len(members))
                self.equivocators.extend(
                    sorted(self.rng.sample(members, count))
                )
                # equivocators over all its members, the coordinator too
                at_bound |= 3 * count >= len(members) + 1
            if at_bound:
                self.anomalies.append(
                    "adversary fraction >= 1/3: attack demonstration, "
                    "safety not guaranteed"
                )
        self.sched = Scheduler(config.duration)

    def _local_view(self, node) -> Hashgraph:
        """The node's view of its committee graph: empty for a newcomer,
        and for a node moved back, what its own events there knew."""
        return member_view(
            self.state.local_stores[self.table.committee_of(node)], node
        )

    # -- membership: the one way into a committee and the one way out --------

    def _enter(self, node, view):
        """Give node, a new member of its committee, view of the committee
        graph and an empty transaction buffer."""
        self.views[node] = view
        self.pending[node] = []

    def _exit(self, node, heir):
        """Drop node's view and hand its buffered transactions to heir's
        buffer; with heir None they are dropped."""
        del self.views[node]
        buffered = self.pending.pop(node)
        if heir is not None:
            self.pending[heir] += buffered

    def _chose(self, purpose, t, ts, pool, chosen, **where):
        """Log a reconfiguration choice: chosen, drawn from pool by the
        consensus timestamp ts, so any observer can recompute it."""
        self.reorg_log.append({"purpose": purpose, "at": t,
                               "consensus_timestamp": ts, "pool": pool,
                               "chosen": chosen, **where})

    def _act(self, t, action, **fields):
        """Log an action of the run at tick t."""
        self.action_log.append({"at": t, "action": action, **fields})

    # -- run loop ------------------------------------------------------------

    def run(self) -> RunReport:
        while (tick := self.sched.pop()) is not None:
            self._tick(tick.at)
        return self._finalize()

    def _tick(self, t):
        """One tick, in the order the module docstring gives.  An adversary
        kind runs alone, so no equivocator or churn victim is ever in a
        down committee."""
        cfg = self.cfg
        kind = cfg.adversary_kind
        if kind == SHARD_FAILURE:
            cid, fail_at, recover_at = cfg.failure_schedule()
            if t == fail_at:
                self._fail_shard(t, cid)
            elif t == recover_at:
                self._recover_shard(t, cid)
        elif kind != NO_ADVERSARY and t and t % cfg.adversary_interval == 0:
            if kind == EQUIVOCATOR:
                for node in self.equivocators:
                    self._equivocate(node, t)
            elif kind == CHURN:
                self._churn_act(t)
        if t < self.inject_until:
            self._inject(t)
        if t % cfg.sync_interval == 0:
            self._gossip(t)
        self._poll(t)

    # -- tick steps ------------------------------------------------------------

    def _inject(self, t):
        pending, inject_tick = self.pending, self.inject_tick
        # the injected count so far numbers the next transaction
        arrivals = inject_workload(self.cfg, self.rng, self.table, self.down,
                                   self.metrics.injected_tx_units)
        for node, tx in arrivals:
            pending[node].append(tx)
            if tx.origin != tx.target:
                inject_tick[tx.tx_id] = t
        self.metrics.injected_tx_units += len(arrivals)
        self.metrics.injected_cross_units = len(inject_tick)

    def _gossip(self, t):
        table, down, views = self.table, self.down, self.views
        # every coordinator outside the down committees is on global duty on
        # odd gossip rounds, so they all meet there however long any of them
        # was down
        global_duty = set()
        if self.cfg.s > 1 and (t // self.cfg.sync_interval) % 2 == 1:
            global_duty = {
                coord for cid, coord in table.coordinators.items()
                if cid not in down
            }
        # each committee's ring in node order before it is shuffled
        for cid in sorted(table.coordinators):
            if cid in down:
                continue
            ring = table.members(cid)
            if global_duty:
                ring = [node for node in ring if node not in global_duty]
            if len(ring) < 2:
                continue
            self.rng.shuffle(ring)
            self._chain(cid, [views[m] for m in ring + ring[:1]], t)
        ring = sorted(global_duty)
        if len(ring) >= 2:
            self.rng.shuffle(ring)
            for i, sender in enumerate(ring):
                self._global_sync(sender, ring[(i + 1) % len(ring)], t)

    def _chain(self, cid, views, t):
        """Gossip along views of committee cid in one engine pass (see
        ``gossip_chain``).  Each receiver's record event carries its pending
        buffer and, for the coordinator, its inbound batch, all detached
        before the pass: nothing adds to either during it.  The pass's
        communication, storage and event counts are accounted at once."""
        pending, coord = self.pending, self.table.coordinators[cid]
        payloads = []
        for view in views[1:]:
            node = view.owner
            payload, pending[node] = pending[node], []
            if node == coord:
                payload += flush_inbound(self.state, cid, self.cfg.batch_limit)
            payloads.append(payload)
        syncs = gossip_chain(views, payloads, t)
        units_of = views[0].store.units_of
        self.metrics.add_syncs([view.owner for view in views],
                               [units_of(mask) for mask, _ in syncs],
                               [payload_units(p) for p in payloads])

    def _global_sync(self, sender, receiver, t):
        """One global gossip sync, accounted sync by sync."""
        seats, committee_of = self.state.seats, self.table.committee_of
        rcid = committee_of(receiver)
        batch = flush_outbound(self.state, rcid, self.cfg.batch_limit)
        transferred, _ = gossip_sync(
            seats[committee_of(sender)], seats[rcid], t, batch)
        units = transferred.units
        self.metrics.add_comm(sender, units)
        self.metrics.add_received(receiver, units)
        self.metrics.add_storage(receiver, units + event_units(batch))
        self.metrics.add_handshake(sender, 1)
        # the receiver's own new event holds only its committee's outbound
        for i in transferred:
            coordinator_receive_global(self.state, self.table, rcid, i)

    def _poll(self, t):
        ordered_units = self.metrics.ordered_tx_units
        latency = self.metrics.cross_latency
        ordered_count, inject_tick = self.ordered_count, self.inject_tick
        for cid in sorted(self.state.local_stores):
            store = self.state.local_stores[cid]
            store.advance_consensus()
            # the committee's key exists once any payload-kind transaction,
            # a zero-size marker included, has been ordered there
            keyed = cid in ordered_units
            units = ordered_units.get(cid, 0)
            payloads = []
            for payload, stamp in store.walk(True):
                payloads.append(payload)
                for tx in payload:
                    kind = tx.kind
                    if kind == KIND_PAYLOAD:
                        keyed = True
                        units += tx.size_units
                    elif kind == KIND_INTRA_REORG:
                        self._on_intra_reorg(tx, stamp, t)
                    elif kind == KIND_RESELECT:
                        self._on_reselect(tx, stamp, t)
            for tx in delivered_to(cid, chain.from_iterable(payloads)):
                tx_id = tx.tx_id
                ordered_count[tx_id] = ordered_count.get(tx_id, 0) + 1
                lat = t - inject_tick.get(tx_id, t)
                latency[lat] = latency.get(lat, 0) + 1
            if keyed:
                ordered_units[cid] = units
            coordinator_ingest_local(self.state, self.table, cid, payloads)
        gstore = self.state.global_store
        gstore.advance_consensus()
        for payload, stamp in gstore.walk(False):
            for tx in payload:
                if tx.kind == KIND_JOIN:
                    self._apply_join(tx, stamp, t)
                elif tx.kind == KIND_REORG:
                    self._on_reorg_global(tx, stamp, t)
        # an ordered event every seat knows has been received by each seat
        # and applied by the walk above, so nothing reads its payload again;
        # a seat still missing it, a down committee's too, keeps it held
        gstore.release(self.state.seats.values())
        self._maybe_checkpoint(t)

    def _maybe_checkpoint(self, t):
        if self.cfg.s == 1:
            store = self.state.local_stores[0]
        else:
            store = self.state.global_store
        order = store.consensus
        finalized = order[-1].round_received if order else 0
        if finalized < self.last_ckpt_round + self.cfg.checkpoint_period:
            return
        self.last_ckpt_round = finalized
        for cid in sorted(self.table.coordinators):
            if cid in self.down:
                continue
            coord = self.table.coordinators[cid]
            replicate_checkpoint(self.state, cid, source=self.views[coord])
            self.metrics.replica_counts[cid] = replica_holder_count(
                self.state, self.table, cid
            )
        self._act(t, "checkpoint")

    # -- adversaries -----------------------------------------------------------

    def _equivocate(self, node, t):
        """Create two events on the same self-parent and push each branch to
        a different honest peer."""
        cid = self.table.committee_of(node)
        view = self.views[node]
        if view.head is None:
            return
        peers = [m for m in self.table.members(cid) if m != node]
        if len(peers) < 2:
            return
        p1, p2 = self.rng.sample(peers, 2)
        marker_a = control_tx(f"fork{node}-{t}a", cid)
        marker_b = control_tx(f"fork{node}-{t}b", cid)
        alt = Hashgraph(view.store, node, view.known, view.head)
        create_event(alt, None, (marker_b,), t)
        create_event(view, None, (marker_a,), t)
        self._chain(cid, [view, self.views[p1]], t)
        self._chain(cid, [alt, self.views[p2]], t)
        self._act(t, "equivocate", node=node, committee=cid)

    def _churn_act(self, t):
        cfg = self.cfg
        if cfg.adversary_committee >= 0:
            cid = cfg.adversary_committee
        else:
            cid = self.rng.choice(sorted(self.table.coordinators))
        victims = self.table.non_coordinators(cid)
        if len(victims) <= 1:
            return
        victim = self.rng.choice(victims)
        self._leave(victim, t)
        if cfg.adversary_rejoin:
            self._request_join(self.next_node_id, t)
            self.next_node_id += 1

    def _fail_shard(self, t, cid):
        self.down.add(cid)
        store = self.state.local_stores[cid]
        store.advance_consensus()
        self.recovery_log.append(
            {
                "at": t,
                "action": "fail_shard",
                "committee": cid,
                "pre_failure_order": store.consensus,
            }
        )

    def _recover_shard(self, t, cid):
        old_members = self.table.members(cid)
        replacements = list(
            range(self.next_node_id, self.next_node_id + len(old_members))
        )
        self.next_node_id += len(old_members)
        try:
            replica = recover_failed_shard(
                self.state, self.table, cid, replacements
            )
        except ShardingError as exc:
            if cid in self.state.replicas:
                # the replica exists but does not rebuild the committee
                raise SimulationError(
                    f"shard {cid} recovery failed: {exc}") from exc
            self.anomalies.append(f"shard {cid} recovery failed: {exc}")
            return
        self.down.discard(cid)
        for m in old_members:
            self._exit(m, None)
        store = self.state.local_stores[cid]
        tip = store.last_event
        for node in replacements:
            g = full_view(store, node)
            self._enter(node, g)
            if tip is not None:
                # anchor the new member's chain to the recovered graph so
                # rounds keep advancing past the replayed history
                create_event(g, tip, (), t)
        self.recovery_log.append(
            {"at": t, "action": "recover_shard", "committee": cid,
             "replacements": replacements,
             "checkpointed_order": replica.consensus}
        )

    # -- churn / reconfiguration ----------------------------------------------

    def _leave(self, node, t):
        cid = self.table.committee_of(node)
        leave_node(self.table, self.ledger, node)
        self._exit(node, self.table.coordinators[cid])
        self._act(t, "leave", node=node, committee=cid)
        if (
            self.cfg.s > 1
            and cid not in self.reorg
            and check_reorg_trigger(
                self.ledger, cid, self.cfg.trigger_mode, self.cfg.s)
        ):
            self._raise_reorg(cid, t)

    def _request_join(self, node, t):
        receiver = join_request_receiver(self.table)
        rcid = self.table.committee_of(receiver)
        tx = control_tx(f"join{node}-{t}", rcid, KIND_JOIN, (node,))
        if self.cfg.s == 1:
            # no global graph to order the request in; settle it on the
            # single committee's clock
            self._apply_join(tx, t, t)
        else:
            self.state.queues[rcid].outbound.append(tx)
        self._act(t, "join_request", node=node)

    def _apply_join(self, tx, consensus_ts, t):
        node = tx.data[0]
        cid = join_node(self.table, node, consensus_ts)
        self._enter(node, self._local_view(node))
        self._chose("join", t, consensus_ts, list(range(self.cfg.s)), cid,
                    node=node)

    def _raise_reorg(self, cid, t):
        tx = control_tx(f"reorg{cid}-{t}", cid, KIND_REORG, (cid,))
        self.state.queues[cid].outbound.append(tx)
        self.reorg[cid] = {}
        self._act(t, "reorg_requested", committee=cid)

    def _on_reorg_global(self, tx, ts_g, t):
        cid = tx.data[0]
        entry = self.reorg[cid]
        pool = donor_pool(self.table, cid, self.cfg.min_committee_size)
        if pool is None:
            del self.reorg[cid]
            self.ledger.reset(cid, self.table.sizes()[cid])
            return
        donors = choose_donors(ts_g, cid, pool, DEFAULT_DONOR_COUNT)
        self._chose("reorg-donors", t, ts_g, pool, donors, committee=cid)
        if not donors:
            del self.reorg[cid]
            self.anomalies.append(
                f"reorganization of committee {cid} deferred: no donors"
            )
            return
        entry.update(donors=donors, donor_ts={})
        for donor in donors:
            coord = self.table.coordinators[donor]
            self.pending[coord].append(control_tx(
                f"ireorg{cid}-{donor}-{t}", donor, KIND_INTRA_REORG,
                (cid, donor)))

    def _on_intra_reorg(self, tx, ts, t):
        depleted, donor = tx.data
        entry = self.reorg[depleted]
        entry["donor_ts"][donor] = ts
        if len(entry["donor_ts"]) == len(entry["donors"]):
            self._apply_reorg_transfers(depleted, entry, t)

    def _apply_reorg_transfers(self, depleted, entry, t):
        transfers = {}
        for donor, candidates, quota in split_quotas(
            self.table, depleted, entry["donors"], self.cfg.min_committee_size
        ):
            ts_d = entry["donor_ts"][donor]
            transfers[donor] = choose_split_members(ts_d, candidates, quota)
            self._chose("reorg-split", t, ts_d, candidates, transfers[donor],
                        committee=depleted, donor=donor)
        apply_transfers(self.table, self.ledger, depleted, transfers)
        for donor, moved in transfers.items():
            # a mover's buffer stays with its old committee's coordinator
            for node in moved:
                self._exit(node, self.table.coordinators[donor])
                self._enter(node, self._local_view(node))
        changed = [depleted, *transfers]
        entry["pending_reselect"] = set(changed)
        for c in changed:
            coord = self.table.coordinators[c]
            self.pending[coord].append(control_tx(
                f"resel{c}-{t}-{self.table.epoch}", c, KIND_RESELECT, (c,)))
        self._act(t, "reorg_applied", committee=depleted,
                  transfers={str(d): m for d, m in sorted(transfers.items())},
                  sizes={str(c): size
                         for c, size in self.table.sizes().items()})

    def _on_reselect(self, tx, ts, t):
        c = tx.data[0]
        members = self.table.members(c)
        new = reselect_coordinator(self.state, self.table, c, ts)
        self._chose("reselect", t, ts, members, new, committee=c)
        for entry_cid, entry in list(self.reorg.items()):
            pend = entry.get("pending_reselect")
            if pend is not None and c in pend:
                pend.discard(c)
                if not pend:
                    del self.reorg[entry_cid]
                    self._act(t, "reorg_complete", committee=entry_cid)

    # -- wrap-up ---------------------------------------------------------------

    def _finalize(self) -> RunReport:
        sent = sum(self.metrics.per_node_comm.values())
        received = sum(self.metrics.per_node_received.values())
        if sent != received:
            raise SimulationError(
                f"conservation violated: {sent} units sent, {received} received"
            )
        consensus = {}
        forks = {}
        for cid in sorted(self.state.local_stores):
            store = self.state.local_stores[cid]
            store.advance_consensus()
            consensus[cid] = store.consensus
            forks[cid] = sorted((creator, a.hex(), b.hex())
                                for creator, a, b in detect_forks(store))
        order_lengths = {
            node: len(consensus_order(view))
            for node, view in sorted(self.views.items())
        }
        missing = sorted(
            tid
            for tid in self.inject_tick
            if self.ordered_count.get(tid, 0) == 0
        )
        duplicated = sorted(
            tid for tid, k in self.ordered_count.items() if k > 1
        )
        audit = {
            "injected_cross": len(self.inject_tick),
            "ordered_exactly_once": sum(
                1 for k in self.ordered_count.values() if k == 1
            ),
            "missing": missing[:50],
            "missing_count": len(missing),
            "duplicated": duplicated[:50],
            "duplicate_count": len(duplicated),
        }
        comparison = compare_measured(
            self.metrics, self.cfg, sorted(self.state.seated))
        return RunReport(
            config=self.cfg.to_dict(),
            metrics=self.metrics,
            comparison=comparison,
            consensus=consensus,
            order_lengths=order_lengths,
            forks=forks,
            reorg_log=self.reorg_log,
            action_log=self.action_log,
            recovery_log=self.recovery_log,
            tx_audit=audit,
            anomalies=self.anomalies,
            checkpoint_count=sum(
                a["action"] == "checkpoint" for a in self.action_log),
        )


def run_scenario(config: ScenarioConfig) -> RunReport:
    return Simulation(config).run()


# -- report output -----------------------------------------------------------


def write_report(report: RunReport, outdir) -> None:
    """Write report.json and the per-node, formula and cross-latency CSV
    tables into outdir.  The report is streamed into a temporary file in
    outdir that then atomically replaces report.json, so a write that
    fails raises and leaves report.json as it was, never partial."""
    out = Path(outdir)
    out.mkdir(parents=True, exist_ok=True)
    tmp = out / "report.json.tmp"
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            report.dump(fh)
        os.replace(tmp, out / "report.json")
    finally:
        tmp.unlink(missing_ok=True)
    m = report.metrics
    nodes = sorted(set(m.per_node_comm) | set(m.per_node_received)
                   | set(m.per_node_storage) | set(report.order_lengths))
    write_csv(out / "per_node_metrics.csv",
              ["node", "sent_units", "handshakes", "received_units",
               "storage_units", "order_len"],
              ([node, m.per_node_comm.get(node, 0),
                m.per_node_handshake.get(node, 0),
                m.per_node_received.get(node, 0),
                m.per_node_storage.get(node, 0),
                report.order_lengths.get(node, "")] for node in nodes))
    write_csv(out / "formula_comparison.csv", COMPARISON_COLUMNS,
              ([row[k] for k in COMPARISON_COLUMNS]
               for row in report.comparison))
    write_csv(out / "cross_latency_histogram.csv", ["latency_ticks", "count"],
              sorted(m.cross_latency.items()))


def write_csv(path, header: Sequence, rows: Iterable[Sequence]) -> None:
    """Write a CSV table to path: the header row, then rows."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows(rows)
