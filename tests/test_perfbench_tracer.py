"""The benchmark tracer still finds what it wraps.

perfbench/tracer.py wraps simulator calls by name where the simulator looks
them up, and reads some of their arguments by position (the committee as
the 3rd argument of the coordinator pipeline steps) or by keyword
(``source`` of ``replicate_checkpoint``, which the simulator passes by
keyword, where the tracer looks first).  A rename or a reordered parameter
would leave a per-layer metric missing or stuck at zero, so one traced run
must produce every per-layer metric BENCHMARK.json lists.  Its tick clock
wraps ``Scheduler.pop``, which must return each tick 0 to duration - 1 once,
in order, and then None.
"""

import json
import sys
from pathlib import Path

from shardgraph import simulation
from shardgraph.config import ScenarioConfig

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

import tracer  # noqa: E402

# the churn-rejoin golden scenario: reorganizations, reselections, joins,
# checkpoints and cross-shard traffic in one short run
CHURN_REJOIN = ScenarioConfig(
    n=32, s=4, seed=9, duration=120, tx_rate=16.0, cross_ratio=0.2,
    adversary_kind="churn", adversary_interval=3, adversary_rejoin=True,
)


def test_tracer_produces_every_per_layer_metric(tmp_path):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    wanted = {
        m["name"] for m in spec["per_layer"]
        if not m["name"].startswith("tracing.")
    }
    sim = simulation.Simulation(CHURN_REJOIN)
    popped = []
    pop = sim.sched.pop

    def recorded_pop():
        tick = pop()
        popped.append(None if tick is None else tick.at)
        return tick

    sim.sched.pop = recorded_pop
    clock = tracer.TickClock(sim.sched, reference=False)
    traced = tracer.Tracer()
    traced.install(clock)
    try:
        report = sim.run()
        simulation.write_report(report, tmp_path)
    finally:
        traced.restore()
    layers = traced.layer_metrics(
        sum(1 for a in sim.action_log if a["action"] == "reorg_complete")
    )
    assert sorted(wanted - set(layers)) == []
    idle = sorted(k for k, v in layers.items() if k.endswith(".calls") and v <= 0)
    assert idle == []
    # the clock cuts one piece per tick, so pieces 1..duration are the
    # ticks in order, as perfbench/run.py's at_reference_speed reads them
    duration = CHURN_REJOIN.duration
    assert popped == [*range(duration), None]
    assert len(clock.bounds) == duration + 1
    # read from replicate_checkpoint's ``source``
    assert layers["sharding.replicate_checkpoint.events_copied"] > 0
    # one filing per global event a seat receives
    assert (layers["sharding.coordinator_receive_global.calls"]
            == layers["hashgraph.gossip_sync.events_transferred"])
    assert traced.out_wait and traced.in_wait
