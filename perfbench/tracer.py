"""Outside-in tracing: spans around the calls into each shardgraph module.

Functions are wrapped where the simulator looks them up: module functions
in the ``shardgraph.simulation`` namespace (it imports them by name), and
methods on their classes.  Each wrapped call records a span (name, start,
end, parent) in memory.  A span's self time is its duration minus the time
covered by its child spans.  The hottest leaf calls (``event_units`` and the
``MetricsReport.add_*`` counters) are kept as aggregate counters instead of
individual spans; their time is still subtracted from the enclosing span.

Hooks that stamp counts run outside the measured interval of the call they
observe, and their own time is subtracted from the enclosing span too, so
tracing cost shows up in the tracing overhead, not in any layer.
"""

from __future__ import annotations

import hashlib
import json
import math
import time
from collections import Counter
from pathlib import Path

from shardgraph import hashgraph, simulation
from shardgraph.hashgraph import EventStore
from shardgraph.metrics import MetricsReport

RECONFIG_CALLS = (
    "leave_node",
    "join_node",
    "reselect_coordinator",
    "choose_donors",
    "choose_split_members",
    "check_reorg_trigger",
)


def nearest_rank(values, q):
    """The q-quantile (0 < q <= 1) of a list by the nearest-rank rule."""
    if not values:
        return None
    ordered = sorted(values)
    return ordered[max(1, math.ceil(len(ordered) * q)) - 1]


def reference_loop():
    """A fixed slice of pure-Python work shaped like the simulator's hot code
    (dict and set updates, big-int masks, a sort, one hash), 0.15-0.3 ms on
    a 2-CPU Xeon host.  Its time, taken next to each piece of a run, is how
    fast the host runs at that moment.  It creates no tuples, so it almost
    never triggers a garbage collection of the simulator's heap."""
    table, seen, mask = {}, set(), 0
    for i in range(400):
        key = (i * 7919) % 251
        table[key] = table.get(key, 0) + 1
        seen.add(key * 8 + (i & 7))
        mask |= 1 << key
    order = sorted(table, key=table.__getitem__)
    digest = hashlib.sha256(bytes(order[:64])).digest()
    return mask.bit_count() + len(seen) + digest[0]


def reference_ms(samples):
    """Median ms of `samples` timed reference runs, after one untimed run
    that warms the caches."""
    reference_loop()
    times = []
    for _ in range(samples):
        t0 = time.perf_counter()
        reference_loop()
        times.append((time.perf_counter() - t0) * 1e3)
    return sorted(times)[samples // 2]


class TickClock:
    """Cuts a run into pieces and times each, with a reference sample.

    Wraps one Scheduler's ``pop``: a piece ends when the next popped event
    carries a later ``at`` (a new simulated tick), or, via ``stamp_calls``,
    when a stamped function is called.  At every boundary the clock samples
    ``reference_loop`` (see ``boundary``), unless ``reference`` is false, as
    in traced runs, whose spans would count it; the next piece starts after
    the sample, so the reference time stays out of every piece.  ``now`` is
    the tick being processed.
    """

    def __init__(self, sched, reference=True):
        self.now = None
        self.reference = reference
        self.bounds = []           # (piece end, reference start, next piece start)
        pop = sched.pop

        def timed_pop():
            ev = pop()
            at = None if ev is None else ev.at
            if at != self.now:
                self.boundary()
                self.now = at
            return ev

        sched.pop = timed_pop

    def boundary(self):
        """Ends a piece, samples the reference, starts the next piece.  The
        reference runs twice and only the second run is timed: the first
        refills the caches the simulator evicted, so the sample tracks the
        host's speed, not the simulator's memory footprint."""
        t0 = time.perf_counter()
        if self.reference:
            reference_loop()
            t1 = time.perf_counter()
            reference_loop()
        else:
            t1 = t0
        self.bounds.append((t0, t1, time.perf_counter()))

    def stamp_calls(self, owner, attr):
        """Also cut at each call of owner.attr, so that work after the tick
        loop splits into the same pieces on every run."""
        fn = getattr(owner, attr)

        def stamped(*args, **kwargs):
            self.boundary()
            return fn(*args, **kwargs)

        setattr(owner, attr, stamped)

    def pieces(self, start, end):
        """(piece ms, reference ms) lists from start to end.  Piece 0 runs
        from start to the first boundary and has no reference sample of its
        own; it takes the first boundary's.  Pieces 1..duration are the
        simulated ticks in order (every tick pops at least one event, as
        consensus polls repeat each tick)."""
        ends = [t0 for t0, _, _ in self.bounds] + [end]
        starts = [start] + [t2 for _, _, t2 in self.bounds]
        ref = [(t2 - t1) * 1e3 for _, t1, t2 in self.bounds]
        piece_ms = [(b - a) * 1e3 for a, b in zip(starts, ends)]
        return piece_ms, ref[:1] + ref


class Tracer:
    def __init__(self):
        self.spans = []            # (name, start, end, parent span index)
        self._stack = []           # [span index, child seconds] per open span
        self.self_s = Counter()
        self.calls = Counter()
        self.counts = Counter()
        self.out_wait = []         # ticks from outbound enqueue to flush
        self.in_wait = []          # ticks from inbound enqueue to flush
        self._enqueued = {}        # (direction, committee, tx id) -> tick
        self._undo = []
        self.names = set()         # every span and counter name wrapped
        self.clock = None          # TickClock giving the current tick

    # -- wrapping ----------------------------------------------------------

    def _patch(self, owner, attr, wrapper):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def restore(self):
        """Put every wrapped function back, newest first."""
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def span(self, name, fn, before=None, after=None):
        """Wrap fn so each call records a span; before(args, kwargs) returns a
        token handed to after(token, args, kwargs, result)."""
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        self_s, calls = self.self_s, self.calls
        self.names.add(name)

        def wrapper(*args, **kwargs):
            h0 = clock()
            token = before(args, kwargs) if before else None
            frame = [len(spans), 0.0]
            parent = stack[-1][0] if stack else -1
            spans.append(None)
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[frame[0]] = (name, start, end, parent)
                self_s[name] += end - start - frame[1]
                calls[name] += 1
            if after:
                after(token, args, kwargs, result)
            if stack:
                # the parent's children: this span plus the hook time
                stack[-1][1] += clock() - h0
            return result

        return wrapper

    def leaf(self, name, fn):
        """Wrap a hot leaf call as an aggregate counter, not a span."""
        stack, clock = self._stack, time.perf_counter
        self_s, calls = self.self_s, self.calls
        self.names.add(name)

        def wrapper(*args, **kwargs):
            start = clock()
            result = fn(*args, **kwargs)
            took = clock() - start
            self_s[name] += took
            calls[name] += 1
            if stack:
                stack[-1][1] += took
            return result

        return wrapper

    # -- count hooks -------------------------------------------------------

    def _stamp_new(self, direction):
        """before/after hooks stamping the entries a call appends to the
        committee's ``direction`` queue with the current tick."""

        def before(args, kwargs):
            queue = args[0].queues[args[2]]
            return queue, len(getattr(queue, direction))

        def after(token, args, kwargs, result):
            queue, start = token
            for tx in getattr(queue, direction)[start:]:
                self._enqueued[(direction, args[2], tx.tx_id)] = self.clock.now

        return before, after

    def _flushed(self, direction, waits, count_echoes=False):
        """after hook: flushed-tx counts and enqueue-to-flush waits."""

        def after(token, args, kwargs, batch):
            committee = args[1]
            self.counts[direction + ".txs"] += len(batch)
            for tx in batch:
                at = self._enqueued.pop((direction, committee, tx.tx_id), None)
                if at is not None:
                    waits.append(self.clock.now - at)
                if count_echoes:
                    key = "useful" if tx.origin == committee else "echo"
                    self.counts[direction + "." + key] += 1

        return after

    # -- installation ------------------------------------------------------

    def install(self, clock):
        """Wrap every traced call; ``clock`` supplies the current tick."""
        self.clock = clock
        sim_mod, counts = simulation, self.counts

        def ordered_before(args, kwargs):
            return len(args[0].consensus)

        def ordered_after(before_len, args, kwargs, result):
            got = len(args[0].consensus) - before_len
            counts["hashgraph.advance_consensus.events_ordered"] += got
            counts["hashgraph.advance_consensus.useful"] += got > 0

        def synced(token, args, kwargs, result):
            counts["hashgraph.gossip_sync.events_transferred"] += len(result[0])

        def forks_found(token, args, kwargs, result):
            counts["hashgraph.detect_forks.forks_found"] += len(result)

        def copied_before(args, kwargs):
            source = kwargs.get("source") or (args[3] if len(args) > 3 else None)
            return source.known.bit_count() if source is not None else 0

        def copied_after(n_events, args, kwargs, result):
            counts["sharding.replicate_checkpoint.events_copied"] += n_events

        def report_bytes(token, args, kwargs, result):
            counts["simulation.write_report.bytes"] += sum(
                p.stat().st_size for p in Path(args[1]).iterdir()
            )

        for meth in ("add_event", "elect_fame", "view_finalized_round"):
            self._patch(
                EventStore, meth,
                self.span("hashgraph." + meth, getattr(EventStore, meth)),
            )
        self._patch(
            EventStore, "advance_consensus",
            self.span(
                "hashgraph.advance_consensus", EventStore.advance_consensus,
                ordered_before, ordered_after,
            ),
        )
        order = self.span("hashgraph.consensus_order", hashgraph.consensus_order)
        # replicate_checkpoint imports consensus_order from hashgraph at call
        # time; the simulator bound its own name at import
        self._patch(hashgraph, "consensus_order", order)
        self._patch(sim_mod, "consensus_order", order)
        self._patch(
            sim_mod, "gossip_sync",
            self.span("hashgraph.gossip_sync", sim_mod.gossip_sync, after=synced),
        )
        self._patch(
            sim_mod, "detect_forks",
            self.span("hashgraph.detect_forks", sim_mod.detect_forks,
                      after=forks_found),
        )

        for fn_name, direction in (
            ("coordinator_ingest_local", "outbound"),
            ("coordinator_receive_global", "inbound"),
        ):
            before, after = self._stamp_new(direction)
            self._patch(
                sim_mod, fn_name,
                self.span("sharding." + fn_name, getattr(sim_mod, fn_name),
                          before, after),
            )
        self._patch(
            sim_mod, "flush_outbound",
            self.span(
                "sharding.flush_outbound", sim_mod.flush_outbound,
                after=self._flushed("outbound", self.out_wait, count_echoes=True),
            ),
        )
        self._patch(
            sim_mod, "flush_inbound",
            self.span(
                "sharding.flush_inbound", sim_mod.flush_inbound,
                after=self._flushed("inbound", self.in_wait),
            ),
        )
        self._patch(
            sim_mod, "replicate_checkpoint",
            self.span(
                "sharding.replicate_checkpoint", sim_mod.replicate_checkpoint,
                copied_before, copied_after,
            ),
        )

        for fn_name in RECONFIG_CALLS:
            self._patch(
                sim_mod, fn_name,
                self.span("reconfig." + fn_name, getattr(sim_mod, fn_name)),
            )

        self._patch(
            sim_mod.Simulation, "run",
            self.span("simulation.run", sim_mod.Simulation.run),
        )
        self._patch(
            sim_mod, "event_units",
            self.leaf("simulation.event_units", sim_mod.event_units),
        )
        self._patch(
            sim_mod, "inject_workload",
            self.span("simulation.inject_workload", sim_mod.inject_workload),
        )
        self._patch(
            sim_mod, "write_report",
            self.span("simulation.write_report", sim_mod.write_report,
                      after=report_bytes),
        )

        for meth in ("add_comm", "add_received", "add_storage", "add_handshake"):
            self._patch(
                MetricsReport, meth,
                self.leaf("metrics.MetricsReport.add", getattr(MetricsReport, meth)),
            )
        self._patch(
            sim_mod, "compare_measured",
            self.span("metrics.compare_measured", sim_mod.compare_measured),
        )

    # -- results -----------------------------------------------------------

    def layer_metrics(self, reorgs_completed):
        """Per-layer metrics named as in BENCHMARK.json's per_layer list."""
        m = {}
        for name in self.names:
            m[name + ".calls"] = self.calls[name]
            m[name + ".self_s"] = float(self.self_s[name])
        c = self.counts
        for key in (
            "hashgraph.gossip_sync.events_transferred",
            "hashgraph.advance_consensus.events_ordered",
            "hashgraph.detect_forks.forks_found",
            "sharding.replicate_checkpoint.events_copied",
            "simulation.write_report.bytes",
        ):
            m[key] = c[key]
        calls = self.calls["hashgraph.advance_consensus"]
        m["hashgraph.advance_consensus.useful_frac"] = (
            c["hashgraph.advance_consensus.useful"] / calls if calls else 0.0
        )
        m["sharding.flush_outbound.txs"] = c["outbound.txs"]
        m["sharding.flush_inbound.txs"] = c["inbound.txs"]
        m["sharding.flush_outbound.useful_frac"] = (
            c["outbound.useful"] / c["outbound.txs"] if c["outbound.txs"] else 0.0
        )
        m["sharding.cross_echoes"] = c["outbound.echo"]
        for prefix, waits in (("outbound", self.out_wait), ("inbound", self.in_wait)):
            for label, q in (("p50", 0.5), ("p90", 0.9)):
                m[f"sharding.{prefix}_wait_ticks_{label}"] = (
                    nearest_rank(waits, q) or 0
                )
        m["reconfig.reorgs_completed"] = reorgs_completed
        return m

    def hashgraph_share(self):
        """hashgraph.* self time as a share of the traced run span."""
        total = sum(end - start for name, start, end, parent in self.spans
                    if name == "simulation.run")
        hg = sum(v for k, v in self.self_s.items() if k.startswith("hashgraph."))
        return hg / total if total else 0.0

    def write_spans(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent in self.spans:
                fh.write(json.dumps([name, start, end, parent]) + "\n")
            fh.write(json.dumps({
                "aggregate": {
                    name: {"calls": self.calls[name], "self_s": self.self_s[name]}
                    for name in ("simulation.event_units",
                                 "metrics.MetricsReport.add")
                }
            }) + "\n")
