"""Golden report digests.

Each scenario pins the sha256 of the ``report.json`` that ``write_report``
writes, read back from disk, so the digests cover the output path itself.
A refactor that claims to keep behaviour must leave every digest unchanged;
a change that alters report bytes on purpose regenerates them and says why.
"""

import hashlib

import pytest

from shardgraph.config import ScenarioConfig
from shardgraph.simulation import run_scenario, write_report

GOLDEN = {
    "unsharded": (
        ScenarioConfig(n=16, s=1, seed=3, duration=40, tx_rate=16.0),
        "f0bcbb871e78bfb857df58f250c0496e3305840d754da5d196e04fb7dbe0c97d",
    ),
    "sharded-cross": (
        ScenarioConfig(n=32, s=4, seed=5, duration=60, tx_rate=32.0,
                       cross_ratio=0.3),
        "bee80eff37578830970adb2079aed53f207c5c3a36f8d376b0fd3adedcefe8fb",
    ),
    "equivocator": (
        ScenarioConfig(n=16, s=2, seed=7, duration=50, tx_rate=16.0,
                       adversary_kind="equivocator", adversary_fraction=0.2,
                       adversary_interval=3),
        "aa287eb602718eaf3512449d0f0489963c7b7f65e465c7a2cafdb06b0761bd8d",
    ),
    # five applied reorganizations and one already at its target size;
    # node 53 is moved out of committee 0 and back, and resumes its chain
    "churn-rejoin": (
        ScenarioConfig(n=32, s=4, seed=9, duration=120, tx_rate=16.0,
                       cross_ratio=0.2, adversary_kind="churn",
                       adversary_interval=3, adversary_rejoin=True),
        "9d7ffb3051a2316fbce35a755e736e543ab07b5fe5f6daa35fec95c71310efc3",
    ),
    "churn-literal-trigger": (
        ScenarioConfig(n=24, s=4, seed=4, duration=150, tx_rate=8.0,
                       adversary_kind="churn", adversary_committee=0,
                       adversary_interval=3,
                       trigger_mode="literal-s-over-2"),
        "14a83dd6b9fb9273b325c92fa45319f5889c4264cc336af4d9debbfeeefc106e",
    ),
    # the reorganization is deferred: no committee is above the minimum size
    "churn-no-donors": (
        ScenarioConfig(n=12, s=2, seed=2, duration=120, tx_rate=8.0,
                       min_committee_size=6, adversary_kind="churn",
                       adversary_committee=0, adversary_interval=3),
        "8fdf2501a6673889c175e321af97728b5e8a791221faf2ba06e81edb0366ef7e",
    ),
    # gossip every other tick: a gossip tick injects before its round
    "sync-interval-2": (
        ScenarioConfig(n=16, s=2, seed=8, duration=60, tx_rate=16.0,
                       cross_ratio=0.2, sync_interval=2),
        "67d905f5451a6d3e0b1db7c2e33f5be9373eeaf400b6a4a7e82eb70abf8c3cd4",
    ),
    # committee 1 is down for 15 gossip rounds; both coordinators keep
    # taking global duty on the same rounds before and after it
    "shard-failure": (
        ScenarioConfig(n=20, s=2, seed=6, duration=120, tx_rate=10.0,
                       checkpoint_period=2, adversary_kind="shard_failure",
                       adversary_committee=1, adversary_fail_at=60,
                       adversary_recover_delay=15),
        "e148a6075464ad25e25ae076f2db2dc036cb84d39df3533bdb3ab11ec31b598b",
    ),
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_report_digest_unchanged(name, tmp_path):
    cfg, digest = GOLDEN[name]
    write_report(run_scenario(cfg), tmp_path)
    written = (tmp_path / "report.json").read_bytes()
    assert hashlib.sha256(written).hexdigest() == digest
