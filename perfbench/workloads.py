"""The benchmark's workloads and the output checks each run must pass.

A workload is a set of ScenarioConfig fields plus the seed the benchmark is
given; the simulator receives only the resulting ScenarioConfig.  Every
check here runs after the timed region of a repetition.
"""

from __future__ import annotations

from shardgraph.config import ScenarioConfig
from shardgraph.hashgraph import consensus_order
from shardgraph.reconfig import (
    DEFAULT_DONOR_COUNT,
    choose_coordinator,
    choose_donors,
    choose_join_committee,
    choose_split_members,
)
from shardgraph.sharding import ShardingError

# Each run takes 2-5 s on a 2-CPU host, so that the repetitions of one
# measurement fit in about 30 seconds.
WORKLOADS = {
    # 8 committees of 16 plus an 8-coordinator global graph: short
    # histories, so the cross-shard pipeline, checkpoints, consensus polls
    # and report writing carry the load.  Offered cross load is 3.2 tx/tick
    # per committee against a flush capacity of 8 tx/tick.
    "sharded-cross": dict(
        n=128, s=8, duration=100, tx_rate=256.0, cross_ratio=0.1,
    ),
    # 20% equivocators: the same insert path with a growing branch-pair
    # scan, plus fork detection at the end of the run.  With two committees
    # of 32, hashgraph insert, fame and ordering carry most of the run.
    "forks": dict(
        n=64, s=2, duration=100, tx_rate=64.0,
        adversary_kind="equivocator", adversary_fraction=0.2,
        adversary_interval=2,
    ),
    # Leaves with rejoins: the only workload that exercises reconfig
    # (joins, reorganizations, coordinator reselection) and full-history
    # syncs to empty joiner views.
    "churn": dict(
        n=64, s=4, duration=200, tx_rate=64.0, cross_ratio=0.2,
        adversary_kind="churn", adversary_interval=4, adversary_rejoin=True,
    ),
}


def scenario(name, seed):
    return ScenarioConfig(seed=seed, **WORKLOADS[name])


def _check_exactly_once(sim, report):
    audit = report.tx_audit
    if audit["injected_cross"] == 0:
        return ["no cross-shard transactions were injected"]
    if audit["ordered_exactly_once"] != audit["injected_cross"]:
        return [
            f"cross-shard exactly-once: {audit['ordered_exactly_once']} of "
            f"{audit['injected_cross']} ordered once "
            f"({audit['missing_count']} missing, "
            f"{audit['duplicate_count']} duplicated)"
        ]
    return []


def _check_forks(sim, report):
    errors = []
    forkers = {c for evidence in report.forks.values() for c, _, _ in evidence}
    if forkers != set(sim.equivocators):
        errors.append(
            f"forker set {sorted(forkers)} != equivocators "
            f"{sorted(sim.equivocators)}"
        )
    bad = set(sim.equivocators)
    for cid in sorted(sim.state.local_stores):
        orders = [
            [tuple(o) for o in consensus_order(view)]
            for node, view in sorted(sim.views.items())
            if node not in bad and sim.table.committee_of(node) == cid
        ]
        longest = max(orders, key=len, default=[])
        for order in orders:
            if order != longest[: len(order)]:
                errors.append(
                    f"committee {cid}: an honest consensus order is not a "
                    "prefix of the longest one"
                )
                break
    return errors


def _replay(entry, s):
    ts, pool, chosen = entry["consensus_timestamp"], entry["pool"], entry["chosen"]
    purpose = entry["purpose"]
    if purpose == "join":
        return choose_join_committee(ts, s) == chosen
    if purpose == "reorg-donors":
        return choose_donors(ts, entry["committee"], pool, DEFAULT_DONOR_COUNT) == chosen
    if purpose == "reorg-split":
        return choose_split_members(ts, pool, len(chosen)) == chosen
    if purpose == "reselect":
        return choose_coordinator(ts, pool) == chosen
    return False


def _check_churn(sim, report):
    errors = []
    try:
        sim.table.validate()
    except ShardingError as exc:
        errors.append(f"committee table invalid: {exc}")
    for entry in report.reorg_log:
        if not _replay(entry, sim.cfg.s):
            errors.append(f"reorg_log selection does not replay: {entry}")
    if not report.reorg_log:
        errors.append("churn produced no reconfiguration selections")
    return errors


CHECKS = {
    "sharded-cross": (_check_exactly_once,),
    "forks": (_check_forks,),
    "churn": (_check_churn,),
}


def check(name, sim, report):
    """Every output-check failure of one repetition, as messages."""
    errors = []
    for fn in CHECKS[name]:
        errors.extend(fn(sim, report))
    return errors
