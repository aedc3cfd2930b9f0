"""Golden report digests.

Each scenario pins the sha256 of every file that ``write_report`` writes,
``report.json`` and its three CSV tables, read back from disk, so the
digests cover the output path itself.
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
    # node 11 leaves committee 0 at tick 24 holding t196 in its buffer,
    # which goes to coordinator 23: all 957 injected units are ordered
    "churn-literal-trigger": (
        ScenarioConfig(n=24, s=4, seed=4, duration=150, tx_rate=8.0,
                       adversary_kind="churn", adversary_committee=0,
                       adversary_interval=3,
                       trigger_mode="literal-s-over-2"),
        "e4d7084a1e4a83be8448da1e90bcbcb16f8a80d55bf858bee3cda170038a11b9",
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


CSV_TABLES = ("per_node_metrics.csv", "formula_comparison.csv",
              "cross_latency_histogram.csv")
# a run that delivers no cross transaction writes the header row alone
HEADER_ONLY_HISTOGRAM = (
    "d4b45e27cac96e2061dd10a1d74d1b63d5b256e6e39e62ed77adb0f06ab8c4a1")
# each scenario's CSV table digests, in CSV_TABLES order
CSV_GOLDEN = {
    "unsharded": (
        "c15f5a15204f51ca1e1cabdbdf4d3f9258139236782b25488029f63b8361957d",
        "b7912788f54f376f934fe87bdbddd843dd2639a93550f9a0d815faf9b96cd798",
        HEADER_ONLY_HISTOGRAM,
    ),
    "sharded-cross": (
        "eb6376c58ce5ed07653003fd2ae7dc9ea2d61983d20f42993004c0df70f0a15c",
        "fba773c961a461b39bf4d931c3d4b5c7560984034d826bf0f627a83f03bdf7e6",
        "f49703126249a5ce5796227555c4beb1aab4928efc2dbd107668d0330dbed212",
    ),
    "equivocator": (
        "9e27cc3e361ded22457b4560cfd4487fc5dc8a61c73443c00509d28f1b22e3f9",
        "8897b6dc3397d63084a71d19da1202121611503ad3dffd7e405897e5d82f30e8",
        HEADER_ONLY_HISTOGRAM,
    ),
    "churn-rejoin": (
        "f61d9dd2046a462ba7f3d9afcb2283f4faa714b518484e8295881a2d70a6de24",
        "3f59d57d4e0abf7809872218cea51146f8ce96cce53beb7ac25ac410f4001a34",
        "dacbbe412d292bc0832fa2e606ed60e3636b7fc95be13de5847dda4c059f5c93",
    ),
    "churn-literal-trigger": (
        "ea28d7cbbc3b47eaaafd37ac118ba39c4fc3d0e5a5ed897135c06fedf2c7d6f9",
        "1f704b78d8ef3d2c536014becc1f15e4e805ec45cb7ef9e8d968e52d01463422",
        HEADER_ONLY_HISTOGRAM,
    ),
    "churn-no-donors": (
        "8e6ec2521aad684ff8f62a3480a75fec6a168b9cdb6385a426d1dba31c37e6fa",
        "a5840977262a6037a6e68366f878f2ef9610ea1278e15232cfc2490416bf195c",
        HEADER_ONLY_HISTOGRAM,
    ),
    "sync-interval-2": (
        "6165aaec4432ba876fb3bd7dc36eae88c79e5461d4adeb99b4732b9ab2df3bf7",
        "adcbdd30628f9b674f42d7515c3ec1cd8974a166756793491a8f8093fb531f4a",
        "9b8e64e040e7b70f5897b97da926d94a86d3da5a3a0a6b9b339dee7e46c7fbdd",
    ),
    "shard-failure": (
        "535fad7537a181457977cb409aa8954edcd7b1291ac45be99b30bf7297854e40",
        "401c7efa7d05daf2a95e71902e577a662476c1a80e5f1fd87bb52c976f3df940",
        HEADER_ONLY_HISTOGRAM,
    ),
    "shard-failure-cross": (
        "5cbb8b1c5725772617f3a78c6f250b30e8ef943c124e8b1464fe94d9507d65fe",
        "97f12c2704700ea3a6e341fccdf3db40775b97c540f213f929b902847acd1c4e",
        "3214193e48d30519a8e6969b13a2a1421a37b34778b7092e91007f3f43dd6e54",
    ),
}


@pytest.fixture(scope="module", params=sorted(GOLDEN))
def golden(request, tmp_path_factory):
    """(name, in-memory report, written report.json bytes, output
    directory) of a scenario."""
    name = request.param
    report = run_scenario(GOLDEN[name][0])
    out = tmp_path_factory.mktemp(name)
    write_report(report, out)
    return name, report, (out / "report.json").read_bytes(), out


def test_report_digest_unchanged(golden):
    name, _, written, _ = golden
    assert hashlib.sha256(written).hexdigest() == GOLDEN[name][1]


def test_csv_digests_unchanged(golden):
    name, _, _, out = golden
    assert tuple(hashlib.sha256((out / table).read_bytes()).hexdigest()
                 for table in CSV_TABLES) == CSV_GOLDEN[name]


def _reject(constant):
    raise ValueError(f"{constant} in report.json")


def test_report_is_strict_json(golden):
    json.loads(golden[2], parse_constant=_reject)


HEX_ID = re.compile("[0-9a-f]{64}")


def test_report_ids_are_lowercase_hex(golden):
    # an event id leaves the program only as its 64 lowercase hex digits;
    # in memory it is the raw 32-byte digest
    name, report, written, _ = golden
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
    name, report, written, _ = golden
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
