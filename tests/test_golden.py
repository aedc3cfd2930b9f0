"""Golden report digests.

Each scenario pins the sha256 of the ``report.json`` that ``write_report``
writes, read back from disk, so the digests cover the output path itself.
A refactor that claims to keep behaviour must leave every digest unchanged;
a change that alters report bytes on purpose regenerates them and says why.
The same files are checked to be strict JSON and to summarize the orders
that the in-memory report holds.
"""

import hashlib
import json
import re

import pytest

from shardgraph.config import ScenarioConfig
from shardgraph.simulation import run_scenario, write_report

GOLDEN = {
    "unsharded": (
        ScenarioConfig(n=16, s=1, seed=3, duration=40, tx_rate=16.0),
        "90f61da4d0088db56321f9ee85b66e3777169af06e833dc8a260dc3640810f8c",
    ),
    "sharded-cross": (
        ScenarioConfig(n=32, s=4, seed=5, duration=60, tx_rate=32.0,
                       cross_ratio=0.3),
        "77c2789aba7adca9ebad170b4d0c237cef6e7525c9ebbcade1af12c98020ea83",
    ),
    "equivocator": (
        ScenarioConfig(n=16, s=2, seed=7, duration=50, tx_rate=16.0,
                       adversary_kind="equivocator", adversary_fraction=0.2,
                       adversary_interval=3),
        "4840048c3a0a1a3079f7a66c7ac9e8c3f4dcd6bff51ab7d11584af1f6414fac9",
    ),
    # five applied reorganizations and one already at its target size;
    # node 53 is moved out of committee 0 and back, and resumes its chain
    "churn-rejoin": (
        ScenarioConfig(n=32, s=4, seed=9, duration=120, tx_rate=16.0,
                       cross_ratio=0.2, adversary_kind="churn",
                       adversary_interval=3, adversary_rejoin=True),
        "83ff708fc4e875fe60ba3319a2b74269f3b5e1a1ef67c6edc95297bdae8ddfb0",
    ),
    "churn-literal-trigger": (
        ScenarioConfig(n=24, s=4, seed=4, duration=150, tx_rate=8.0,
                       adversary_kind="churn", adversary_committee=0,
                       adversary_interval=3,
                       trigger_mode="literal-s-over-2"),
        "e79c5f1bfbcc78699bafceda99e39c9469053d331d5ebdd0e69c4b3f9622d439",
    ),
    # the reorganization is deferred: no committee is above the minimum size
    "churn-no-donors": (
        ScenarioConfig(n=12, s=2, seed=2, duration=120, tx_rate=8.0,
                       min_committee_size=6, adversary_kind="churn",
                       adversary_committee=0, adversary_interval=3),
        "74a8172c32473291165e05114d3a9a138b737fe310f2ba31c37d7f7effcaefcf",
    ),
    # gossip every other tick: a gossip tick injects before its round; 45
    # ticks of injection and a drain window longer than the cross latency
    "sync-interval-2": (
        ScenarioConfig(n=16, s=2, seed=8, duration=100, tx_rate=16.0,
                       cross_ratio=0.2, sync_interval=2, inject_until=45),
        "2a45677e08367ef5242490690a241ee664357cf3f6c5c8af908b323dac1d1d65",
    ),
    # committee 1 is down for 15 gossip rounds; both coordinators keep
    # taking global duty on the same rounds before and after it
    "shard-failure": (
        ScenarioConfig(n=20, s=2, seed=6, duration=120, tx_rate=10.0,
                       checkpoint_period=2, adversary_kind="shard_failure",
                       adversary_committee=1, adversary_fail_at=60,
                       adversary_recover_delay=15),
        "e3e599a6847ae601f32d9cec4750aa0d6b2051c0eacbc2ff3687ecc83818dffb",
    ),
    # the shard-failure scenario with cross traffic: replica replay reads
    # every record of the failed store, applied ones included.  It injects
    # 172 cross transactions and delivers none twice: the recovered
    # committee keeps its queues and its coordinator's global view.  The 6
    # never delivered were in events the failed committee never ordered.
    "shard-failure-cross": (
        ScenarioConfig(n=20, s=2, seed=6, duration=120, tx_rate=10.0,
                       cross_ratio=0.2, checkpoint_period=2,
                       adversary_kind="shard_failure", adversary_committee=1,
                       adversary_fail_at=60, adversary_recover_delay=15),
        "ee02f3bda6102cdeb63c865c49b6fe7c103cf4fa34bf924bbf57fb40466fa020",
    ),
}


@pytest.fixture(scope="module", params=sorted(GOLDEN))
def golden(request, tmp_path_factory):
    """(name, in-memory report, written report.json bytes) of a scenario."""
    name = request.param
    report = run_scenario(GOLDEN[name][0])
    out = tmp_path_factory.mktemp(name)
    write_report(report, out)
    return name, report, (out / "report.json").read_bytes()


def test_report_digest_unchanged(golden):
    name, _, written = golden
    assert hashlib.sha256(written).hexdigest() == GOLDEN[name][1]


def _reject(constant):
    raise ValueError(f"{constant} in report.json")


def test_report_is_strict_json(golden):
    json.loads(golden[2], parse_constant=_reject)


HEX_ID = re.compile("[0-9a-f]{64}")


def test_report_ids_are_lowercase_hex(golden):
    # an event id leaves the program only as its 64 lowercase hex digits;
    # in memory it is the raw 32-byte digest
    name, report, written = golden
    forks = json.loads(written)["forks"]
    ids = [x for pairs in forks.values() for _, *pair in pairs for x in pair]
    assert all(HEX_ID.fullmatch(x) for x in ids)
    assert bool(ids) == (name == "equivocator")
    assert all(len(oe.event_id) == 32 for order in report.consensus.values()
               for oe in order)


def reference_summary(order):
    """order_summary written out entry by entry, each raw id hex-encoded
    on its own."""
    digest = hashlib.sha256()
    for event_id, round_received, timestamp in order:
        digest.update(
            f"{event_id.hex()},{round_received},{timestamp}\n".encode())
    return {
        "length": len(order),
        "last_round_received": order[-1][1] if order else None,
        "sha256": digest.hexdigest(),
    }


def test_report_summarizes_the_in_memory_orders(golden):
    name, report, written = golden
    data = json.loads(written)
    assert data["consensus"] == {
        str(cid): reference_summary(order)
        for cid, order in report.consensus.items()
    }
    assert len(data["recovery_log"]) == len(report.recovery_log)
    for got, entry in zip(data["recovery_log"], report.recovery_log):
        for key in ("pre_failure_order", "checkpointed_order"):
            if key in entry:
                assert got[key] == reference_summary(entry[key])
    if name.startswith("shard-failure"):
        assert len(report.recovery_log) == 2
    if name == "shard-failure-cross":
        audit = report.tx_audit
        assert (audit["injected_cross"], audit["duplicate_count"],
                audit["missing_count"]) == (172, 0, 6)
    if name == "sharded-cross":
        # 197 KB while the file held every committee's full order
        assert len(written) < 16_000
