"""One benchmark repetition, run in a fresh process by perfbench/run.py.

Usage: python3 perfbench/rep.py {setup|run|trace} WORKLOAD SEED OUTDIR [SPANS]

``setup`` imports shardgraph, builds the workload's ScenarioConfig and
constructs the Simulation.  ``run`` then times run() plus write_report into
OUTDIR, cut into pieces (each simulated tick, each view ordered after the
tick loop) with a reference-loop sample next to each piece, and checks the
outputs outside the timed region.  ``trace`` does the same without the
reference samples and with every traced call wrapped, and writes its spans
to SPANS.  wall_s and cpu_s leave out the reference samples.

Prints one JSON object on stdout.  A repetition that raises exits nonzero
with the traceback on stderr.
"""

import time

T0 = time.perf_counter()

import hashlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))


def simulated_metrics(report):
    """The end-to-end metrics that are functions of the config alone."""
    from tracer import nearest_rank

    latencies = [
        lat for lat, count in sorted(report.metrics.cross_latency.items())
        for _ in range(count)
    ]
    comm = next(r for r in report.comparison if r["quantity"] == "comm_per_node")
    audit = report.tx_audit
    injected = audit["injected_cross"]
    return {
        "cross_latency_p50_ticks": nearest_rank(latencies, 0.5),
        "cross_latency_p90_ticks": nearest_rank(latencies, 0.9),
        "comm_formula_dev": abs(comm["relative_deviation"]),
        "cross_tx_failed_frac": (
            (audit["missing_count"] + audit["duplicate_count"]) / injected
            if injected else None
        ),
        "cross_injected": injected,
        "cross_missing": audit["missing_count"],
        "cross_duplicated": audit["duplicate_count"],
    }


def main(argv):
    mode, name, seed, outdir = argv[0], argv[1], int(argv[2]), argv[3]
    from shardgraph import simulation

    import workloads

    sim = simulation.Simulation(workloads.scenario(name, seed))
    out = {"setup_s": time.perf_counter() - T0}
    if mode == "setup":
        print(json.dumps(out))
        return 0

    from tracer import TickClock, Tracer, reference_ms

    # the host's speed right after set-up, to rescale setup_s
    out["setup_ref_ms"] = reference_ms(5)
    clock = TickClock(sim.sched, reference=mode == "run")
    tracer = None
    if mode == "trace":
        tracer = Tracer()
        tracer.install(clock)
    # the end of the run orders each view once; stamp each
    clock.stamp_calls(simulation, "consensus_order")
    c0, w0 = time.process_time(), time.perf_counter()
    report = sim.run()
    w1 = time.perf_counter()
    simulation.write_report(report, outdir)
    w2, c2 = time.perf_counter(), time.process_time()
    rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if tracer:
        tracer.restore()

    stores = list(sim.state.local_stores.values()) + [sim.state.global_store]
    report_bytes = (Path(outdir) / "report.json").read_bytes()
    pieces_ms, ref_ms = clock.pieces(w0, w1)
    ref_s = sum(t2 - t0 for t0, _, t2 in clock.bounds)
    out.update(
        config=sim.cfg.to_dict(),
        wall_s=w2 - w0 - ref_s,
        cpu_s=c2 - c0 - ref_s,
        events=sum(len(st.by_index) for st in stores),
        pieces_ms=pieces_ms,
        ref_ms=ref_ms,
        write_ms=(w2 - w1) * 1e3,
        peak_rss_mb=rss_kib / 1024,
        report_sha256=hashlib.sha256(report_bytes).hexdigest(),
        sim=simulated_metrics(report),
        errors=workloads.check(name, sim, report),
    )
    if tracer:
        out["layers"] = tracer.layer_metrics(
            sum(1 for a in sim.action_log if a["action"] == "reorg_complete")
        )
        out["hashgraph_share"] = tracer.hashgraph_share()
        tracer.write_spans(argv[4])
    print(json.dumps(out, allow_nan=False))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
