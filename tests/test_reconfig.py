import random

import pytest

from shardgraph.reconfig import (
    DEFAULT_DONOR_COUNT,
    ChurnLedger,
    ReconfigError,
    apply_transfers,
    check_reorg_trigger,
    choose_coordinator,
    choose_donors,
    choose_join_committee,
    choose_split_members,
    derive_value,
    donor_pool,
    join_node,
    join_request_receiver,
    leave_node,
    reselect_coordinator,
    split_quotas,
)
from shardgraph.config import (
    TRIGGER_COMMITTEE_FRACTION,
    TRIGGER_LITERAL,
    TRIGGER_MODES,
    ConfigError,
    ScenarioConfig,
)
from shardgraph.sharding import ShardState, partition_nodes


def make_state(n, s, seed=1):
    table = partition_nodes(range(n), s, seed=seed)
    state = ShardState(table)
    ledger = ChurnLedger.from_table(table)
    return state, table, ledger


# -- derive / join ----------------------------------------------------------


def test_derive_value_deterministic():
    assert derive_value(42) == derive_value(42)
    assert derive_value(42) != derive_value(43)


def test_join_modulo_one_shard():
    for ts in range(10):
        assert choose_join_committee(ts, 1) == 0


def test_join_assigns_and_registers():
    state, table, _ = make_state(20, 4)
    cid = join_node(table, 99, consensus_timestamp=123)
    assert table.assignment[99] == cid
    assert 99 in state.local_stores[cid].population
    with pytest.raises(ReconfigError):
        join_node(table, 99, consensus_timestamp=124)


def test_join_deterministic_given_timestamp():
    a = [choose_join_committee(ts, 10) for ts in range(100)]
    b = [choose_join_committee(ts, 10) for ts in range(100)]
    assert a == b


def test_join_histogram_near_uniform():
    s = 10
    counts = [0] * s
    for ts in range(1000):
        counts[choose_join_committee(ts, s)] += 1
    # chi-square against uniform; 3-sigma-ish bound for 9 dof is ~ 27
    expected = 1000 / s
    chi2 = sum((c - expected) ** 2 / expected for c in counts)
    assert chi2 < 27.9


def test_join_request_receiver_is_lowest_coordinator():
    _, table, _ = make_state(20, 4)
    assert join_request_receiver(table) == min(table.coordinators.values())


# -- leave / trigger --------------------------------------------------------


def test_leave_non_coordinator():
    _, table, ledger = make_state(12, 2)
    cid = 0
    member = next(
        m for m in table.members(cid) if m != table.coordinators[cid]
    )
    leave_node(table, ledger, member)
    assert ledger.exits[cid] == 1
    assert member not in table.assignment


def test_leave_unknown_node():
    _, table, ledger = make_state(12, 2)
    with pytest.raises(ReconfigError):
        leave_node(table, ledger, 999)


@pytest.mark.parametrize(
    "baseline,exits,expected",
    [(10, 5, False), (10, 6, True), (9, 5, True)],
)
def test_trigger_committee_fraction(baseline, exits, expected):
    ledger = ChurnLedger(exits={0: exits}, baseline={0: baseline})
    assert check_reorg_trigger(
        ledger, 0, TRIGGER_COMMITTEE_FRACTION, 1) == expected


def test_trigger_literal_mode():
    ledger = ChurnLedger(exits={0: 3}, baseline={0: 100})
    assert not check_reorg_trigger(ledger, 0, TRIGGER_LITERAL, 10)
    ledger.exits[0] = 6
    assert check_reorg_trigger(ledger, 0, TRIGGER_LITERAL, 10)


def test_config_accepts_exactly_the_trigger_modes():
    def accepted(mode):
        try:
            ScenarioConfig(trigger_mode=mode).validate()
        except ConfigError:
            return False
        return True

    near = ["", "committee_fraction", "literal", "s-over-2"]
    near += [m.upper() for m in TRIGGER_MODES]
    near += [m + " " for m in TRIGGER_MODES]
    assert [m for m in (*TRIGGER_MODES, *near) if accepted(m)] == list(
        TRIGGER_MODES)
    assert ScenarioConfig().trigger_mode in TRIGGER_MODES


def test_trigger_monotone_until_reset():
    _, table, ledger = make_state(20, 2)
    cid = 0
    removed = 0
    for m in list(table.members(cid)):
        if m == table.coordinators[cid]:
            continue
        leave_node(table, ledger, m)
        removed += 1
        if removed > len(table.members(cid)):
            break
        if check_reorg_trigger(ledger, cid, TRIGGER_COMMITTEE_FRACTION, 2):
            break
    assert check_reorg_trigger(ledger, cid, TRIGGER_COMMITTEE_FRACTION, 2)
    leave_node(
        table, ledger,
        next(m for m in table.members(cid) if m != table.coordinators[cid]),
    )
    # still true
    assert check_reorg_trigger(ledger, cid, TRIGGER_COMMITTEE_FRACTION, 2)
    ledger.reset(cid, len(table.members(cid)))
    assert not check_reorg_trigger(ledger, cid, TRIGGER_COMMITTEE_FRACTION, 2)


# -- donors / reorg ---------------------------------------------------------


def test_forced_donor_with_two_shards():
    for ts in range(20):
        assert choose_donors(ts, 0, [1], 2) == [1]


@pytest.mark.parametrize("size", [0, 1, 2, 5, 9])
def test_donor_draw_is_the_split_draw_without_the_depleted(size):
    # one seeded k-of-a-pool draw serves both phases: the donors are the
    # split draw from the eligible committees other than the depleted one,
    # for an empty pool and for k past the pool's size too
    for ts in range(-3, 40, 7):
        pool = random.Random(ts).sample(range(12), size)
        for depleted in (0, 3, 11):
            for k in (0, 1, 2, 4, 12):
                split = choose_split_members(
                    ts, [c for c in pool if c != depleted], k)
                assert choose_donors(ts, depleted, pool, k) == split
                assert len(split) == min(k, len(set(pool) - {depleted}))


def deplete(table, ledger, committee, to_size):
    """Remove non-coordinator members until the committee has to_size."""
    for m in list(table.members(committee)):
        if len(table.members(committee)) <= to_size:
            break
        if m != table.coordinators[committee]:
            leave_node(table, ledger, m)


def reorganize(table, ledger, depleted, global_ts, donor_ts,
               min_size=4):
    """Both phases back to back, seeded by the given ordered timestamps."""
    pool = donor_pool(table, depleted, min_size)
    donors = choose_donors(global_ts, depleted, pool, DEFAULT_DONOR_COUNT)
    quotas = split_quotas(table, depleted, donors, min_size)
    transfers = {
        donor: choose_split_members(donor_ts(donor), candidates, quota)
        for donor, candidates, quota in quotas
    }
    apply_transfers(table, ledger, depleted, transfers)
    return pool, donors, quotas, transfers


def test_reorg_rebalances_and_preserves_partition():
    state, table, ledger = make_state(100, 10, seed=7)
    depleted = 3
    deplete(table, ledger, depleted, 4)
    assert len(table.members(depleted)) == 4
    assert check_reorg_trigger(
        ledger, depleted, TRIGGER_COMMITTEE_FRACTION, 10)
    _, donors, _, transfers = reorganize(
        table, ledger, depleted, global_ts=500,
        donor_ts=lambda cid: 600 + cid,
    )
    assert len(donors) == 2 and list(transfers) == donors
    # refilled to the ceiling average of 94 nodes over 10 committees
    assert len(table.members(depleted)) == 10
    for donor, moved in transfers.items():
        assert len(table.members(donor)) == 7
        for node in moved:
            assert node in state.local_stores[depleted].population
            assert node not in state.local_stores[donor].population
        assert ledger.baseline[donor] == 7
    table.validate()
    sizes = sum(len(table.members(c)) for c in range(10))
    assert sizes == len(table.assignment)
    assert ledger.exits[depleted] == 0
    assert ledger.baseline[depleted] == 10
    assert not check_reorg_trigger(
        ledger, depleted, TRIGGER_COMMITTEE_FRACTION, 10)
    assert table.epoch == 1


def test_reorg_deterministic_replay():
    def run():
        _, table, ledger = make_state(100, 10, seed=7)
        deplete(table, ledger, 3, 4)
        result = reorganize(
            table, ledger, 3, global_ts=500,
            donor_ts=lambda cid: 600 + cid,
        )
        return result, dict(table.assignment), dict(table.coordinators)

    assert run() == run()


def test_reorg_skipped_when_already_at_target():
    _, table, ledger = make_state(8, 2, seed=1)
    # both committees hold the average size: nothing to refill
    assert donor_pool(table, 0, min_size=4) is None
    assert donor_pool(table, 0, min_size=2) is None


def test_reorg_no_donor_above_minimum():
    _, table, ledger = make_state(12, 2, seed=1)
    deplete(table, ledger, 0, 4)
    # committee 1 holds exactly the minimum, so it cannot donate
    assert donor_pool(table, 0, min_size=6) == []
    assert donor_pool(table, 0, min_size=4) == [1]


def test_split_quotas_share_need_and_keep_minimum():
    _, table, ledger = make_state(40, 4, seed=3)
    deplete(table, ledger, 0, 2)
    deplete(table, ledger, 1, 7)
    # 29 nodes: target ceil(29/4) = 8, so committee 0 lacks 6; committee 1
    # can spare only 1 above min_size 6, the later donors share the rest
    quotas = split_quotas(table, 0, [1, 2, 3], min_size=6)
    assert [(d, q) for d, _, q in quotas] == [(1, 1), (2, 3), (3, 2)]
    for donor, candidates, _ in quotas:
        assert table.coordinators[donor] not in candidates
        assert sorted(candidates + [table.coordinators[donor]]) == (
            table.members(donor)
        )
    # a committee that cannot spare anything is left out
    assert [d for d, _, _ in split_quotas(table, 0, [1], min_size=7)] == []


def test_reorg_plan_recomputable_from_timestamps():
    _, table, ledger = make_state(100, 10, seed=7)
    depleted = 2
    deplete(table, ledger, depleted, 4)
    pool, donors, quotas, transfers = reorganize(
        table, ledger, depleted, global_ts=911,
        donor_ts=lambda c: 1000 + c,
    )
    # replaying the recorded timestamps reproduces every choice
    assert pool == [c for c in range(10) if c != depleted]
    assert choose_donors(911, depleted, pool, 2) == donors
    for donor, candidates, quota in quotas:
        assert choose_split_members(1000 + donor, candidates, quota) == (
            transfers[donor]
        )


# -- coordinator reselection ------------------------------------------------


def test_reselect_single_member():
    assert choose_coordinator(123, [7]) == 7


def test_reselect_updates_table_and_global_membership():
    state, table, ledger = make_state(12, 2)
    old = table.coordinators[0]
    new = reselect_coordinator(state, table, 0, consensus_timestamp=321)
    assert table.coordinators[0] == new
    assert new in table.members(0)
    if new != old:
        assert old not in state.global_store.population
        assert new in state.global_store.population


def test_reselect_uniform_histogram():
    members = list(range(10))
    counts = [0] * 10
    for ts in range(500):
        counts[choose_coordinator(ts, members)] += 1
    expected = 50
    chi2 = sum((c - expected) ** 2 / expected for c in counts)
    assert chi2 < 27.9


def test_reselect_deterministic():
    members = list(range(37, 61))
    assert [choose_coordinator(t, members) for t in range(50)] == [
        choose_coordinator(t, members) for t in range(50)
    ]
