"""Benchmark of the shardgraph simulator on fixed workloads.

Usage:
  python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

NAME is a workload listed in BENCHMARK.json, or ``all`` to run each in turn.
Every repetition runs in its own child process (perfbench/rep.py), one at a
time, with no threads: a closed loop with one client.  Inside a run,
transactions arrive open-loop (Poisson, ``tx_rate`` per tick).

With ``--trace 0`` the benchmark sets up once to warm up, then makes a fixed
number of untraced repetitions and reports the end-to-end metrics, with host
times rescaled to a reference speed of the host (see at_reference_speed).  With
``--trace 1`` it makes a fixed number of rounds of one untraced and one
traced repetition, and reports the per-layer metrics and the tracing
overhead (median traced minus median untraced wall time).  The counts are
in REPS; a run takes about ``run_seconds`` of BENCHMARK.json on a 2-CPU
host.  ``--seconds`` is accepted, so that the common benchmark command line
works, and ignored: the number of repetitions changes the estimates, so it
is fixed.  Output checks run outside the timed region; a repetition that
raises, fails a check, or does not repeat the first repetition's outputs
exactly counts as failed, and the benchmark exits 1.  If the program cannot
even be set up, it exits 2 with no result.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  A fuller strict-JSON record of
each invocation, and the spans of the last traced run, go under
``.perfbench_out/``; report directories live under ``.perfbench_tmp/`` for
the duration of one repetition.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
REP = Path(__file__).resolve().parent / "rep.py"
OUT_DIR = ROOT / ".perfbench_out"
TMP_DIR = ROOT / ".perfbench_tmp"

REPS = (7, 3)               # repetitions untraced; rounds of untraced + traced
DEADLINE_S = 170            # whole invocation, per workload
REF_MS = 0.2                # host speed the host metrics are rescaled to
ALPHA = 0.75                # see rescaled()
SMOOTH = 3                  # see smoothed()
CPU_WALL_TOLERANCE = 0.05   # warn when CPU and wall time of a run disagree

# End-to-end metrics that are functions of the config alone: the same seed
# must give the same value, so they are checked for exact repetition rather
# than bounded.  None where a workload has no cross-shard traffic.
SIMULATED = (
    ("cross_latency_p50_ticks", "ticks", "lower"),
    ("cross_latency_p90_ticks", "ticks", "lower"),
    ("comm_formula_dev", "ratio", "lower"),
    ("cross_tx_failed_frac", "ratio", "lower"),
)


class SetupError(Exception):
    """The program could not be imported or constructed."""


def load_spec():
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


class Child:
    """Runs rep.py processes one at a time under a shared deadline."""

    def __init__(self, name, seed, deadline):
        self.name, self.seed, self.deadline = name, seed, deadline

    def __call__(self, mode, spans=None):
        """(result dict or None, failure message or None)."""
        TMP_DIR.mkdir(exist_ok=True)
        outdir = tempfile.mkdtemp(dir=TMP_DIR)
        argv = [sys.executable, str(REP), mode, self.name, str(self.seed), outdir]
        if spans:
            argv.append(str(spans))
        try:
            proc = subprocess.run(
                argv, capture_output=True, text=True, cwd=ROOT,
                timeout=max(1.0, self.deadline - time.monotonic()),
            )
        except subprocess.TimeoutExpired:
            return None, f"{mode} repetition timed out"
        finally:
            shutil.rmtree(outdir, ignore_errors=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            tail = proc.stderr.strip().splitlines()[-1:] or ["no output"]
            return None, f"{mode} repetition exited {proc.returncode}: {tail[0]}"
        return json.loads(lines[-1]), None


def repeat(child, modes, failures):
    """REPS rounds of one repetition per mode, alternating; stops at the
    first failed repetition.  {mode: [results]}."""
    spans = OUT_DIR / f"{child.name}-seed{child.seed}.spans.jsonl"
    results = {mode: [] for mode in modes}
    for _ in range(REPS[len(modes) > 1]):
        for mode in modes:
            result, failure = child(mode, spans if mode == "trace" else None)
            if failure:
                failures.append(failure)
                return results
            results[mode].append(result)
    return results


def outputs(rep):
    """What every repetition of one workload and seed must repeat exactly."""
    return (rep["report_sha256"], rep["events"], rep["sim"],
            len(rep["pieces_ms"]))


def layer_counts(rep):
    return {k: v for k, v in rep["layers"].items() if not k.endswith("_s")}


def bench(name, seed, trace):
    deadline = time.monotonic() + DEADLINE_S
    child = Child(name, seed, deadline)
    OUT_DIR.mkdir(exist_ok=True)
    _, failure = child("setup")  # warm-up: byte-compiles, checks the import
    if failure:
        raise SetupError(f"{name}: {failure}")

    failures = []
    modes = ("run", "trace") if trace else ("run",)
    got = repeat(child, modes, failures)
    plain, traced = got["run"], got.get("trace", [])
    reps = plain + traced
    attempted = len(reps) + len(failures)
    failed = len(failures)
    for i, rep in enumerate(reps):
        errors = list(rep["errors"])
        if outputs(rep) != outputs(reps[0]):
            errors.append("outputs differ from repetition 0")
        if "layers" in rep and layer_counts(rep) != layer_counts(traced[0]):
            errors.append("per-layer counts differ from the first traced run")
        failures.extend(f"repetition {i}: {err}" for err in errors)
        failed += bool(errors)

    result = {
        "workload": name,
        "seed": seed,
        "trace": trace,
        "config": reps[0]["config"] if reps else None,
        "attempted": attempted,
        "failed": failed,
        "failures": failures,
        "setup_s_samples": [rescaled(r["setup_s"], r["setup_ref_ms"])
                            for r in reps],
        "repetitions": [
            {k: r[k] for k in ("setup_s", "setup_ref_ms", "wall_s", "cpu_s",
                               "peak_rss_mb", "events", "report_sha256",
                               "pieces_ms", "ref_ms", "write_ms")}
            for r in reps
        ],
    }
    result["end_to_end"] = end_to_end(result, plain)
    if traced:
        result["per_layer"], result["tracing"] = per_layer(plain, traced)
    return result


def rescaled(host_time, ref_ms):
    """host_time as it would read on a host where reference_loop takes
    REF_MS, given that it took ref_ms next to it.  The simulator slows down
    less than the reference when the host is busy: on a shared 2-CPU Xeon
    VM its pieces' times went as the reference's time to the power
    0.71-0.73 on all three workloads (regression over every piece of ten
    runs each), and the spread of ten runs was least for powers of 0.7-0.8;
    hence ALPHA."""
    return host_time * (REF_MS / ref_ms) ** ALPHA


def smoothed(ref):
    """Each piece's reference time: the median of the samples taken within
    SMOOTH boundaries of it.  The host keeps one speed for a second or more,
    while a piece lasts milliseconds, so the neighbours show the same speed
    and outvoice a sample that an interrupt delayed."""
    return [statistics.median(ref[max(0, i - SMOOTH): i + SMOOTH + 1])
            for i in range(len(ref))]


def at_reference_speed(plain):
    """Host time of one run, rescaled to a host on which reference_loop
    takes REF_MS.

    Every repetition replays the same work, cut into the same pieces: each
    simulated tick, and each view ordered after the tick loop.  On a shared
    host the machine's speed changes every second or so, by up to 1.8x, in
    a mix that drifts over minutes; so each piece's time is rescaled by
    the reference time sampled next to it, and the median over repetitions
    is taken per piece.  Returns (per-tick ms, wall s, run() s).
    """
    duration = plain[0]["config"]["duration"]
    runs, writes = [], []
    for rep in plain:
        ref = smoothed(rep["ref_ms"])
        runs.append([rescaled(ms, r) for ms, r in zip(rep["pieces_ms"], ref)])
        writes.append(rescaled(rep["write_ms"], ref[-1]))
    pieces = [statistics.median(col) for col in zip(*runs)]
    run = sum(pieces) / 1e3
    return pieces[1:duration + 1], run + statistics.median(writes) / 1e3, run


def end_to_end(result, plain):
    """All end-to-end metrics: host ones from the untraced repetitions."""
    e2e = {}
    if result["setup_s_samples"]:
        e2e["setup_s"] = statistics.median(result["setup_s_samples"])
    if plain:
        ticks, wall, run = at_reference_speed(plain)
        e2e.update(
            wall_s=wall,
            events_per_s=plain[0]["events"] / run,
            tick_ms_p50=statistics.median(ticks),
            tick_ms_p90=statistics.quantiles(ticks, n=10, method="inclusive")[8],
            peak_rss_mb=statistics.median(r["peak_rss_mb"] for r in plain),
            wall_s_median_run=statistics.median(r["wall_s"] for r in plain),
            cpu_wall_max_dev=max(abs(r["cpu_s"] / r["wall_s"] - 1) for r in plain),
        )
        e2e.update({k: plain[0]["sim"][k] for k, _, _ in SIMULATED})
        e2e["cross_shard"] = {
            k: plain[0]["sim"][k]
            for k in ("cross_injected", "cross_missing", "cross_duplicated")
        }
    e2e["run_failed_frac"] = (
        result["failed"] / result["attempted"] if result["attempted"] else 1.0
    )
    return e2e


def per_layer(plain, traced):
    """Per-layer metrics (times as medians over traced repetitions) and the
    tracing overhead against the untraced repetitions."""
    layers = {}
    for key in traced[0]["layers"]:
        values = [r["layers"][key] for r in traced]
        layers[key] = statistics.median(values) if key.endswith("_s") else values[0]
    traced_wall = statistics.median(r["wall_s"] for r in traced)
    plain_wall = statistics.median(r["wall_s"] for r in plain)
    layers["tracing.overhead_s"] = traced_wall - plain_wall
    layers["tracing.overhead_frac"] = (traced_wall - plain_wall) / plain_wall
    tracing = {
        "traced_wall_s": traced_wall,
        "untraced_wall_s": plain_wall,
        "hashgraph_share_of_run": statistics.median(r["hashgraph_share"] for r in traced),
    }
    return layers, tracing


def fmt(value):
    if value is None:
        return "null"
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


def print_result(result, spec):
    e2e = result["end_to_end"]
    print(f"== {result['workload']}  seed={result['seed']}  trace={result['trace']}")
    if result["config"]:
        cfg = result["config"]
        print("   config: " + " ".join(
            f"{k}={cfg[k]}" for k in ("n", "s", "duration", "tx_rate",
                                       "cross_ratio", "adversary_kind")
        ))
    rows = [(m["name"], m["unit"], m["better"], "host") for m in spec["end_to_end"]]
    rows += [(n, u, b, "simulated") for n, u, b in SIMULATED]
    rows.append(("run_failed_frac", "ratio", "lower", "output checks"))
    for metric, unit, better, kind in rows:
        if metric in e2e:
            print(f"   {metric:<26} {fmt(e2e[metric]):>14} {unit:<9} "
                  f"({better} is better, {kind})")
    if "wall_s_median_run" in e2e:
        print(f"   samples: {len(result['repetitions'])} runs "
              f"(median run {e2e['wall_s_median_run']:.3f} s), "
              f"{len(result['setup_s_samples'])} set-ups; "
              f"max |cpu/wall - 1| = {e2e['cpu_wall_max_dev']:.4f}")
        if e2e["cpu_wall_max_dev"] > CPU_WALL_TOLERANCE:
            print("   warning: CPU and wall time disagree; the host was busy")
    if "per_layer" in result:
        for m in spec["per_layer"]:
            print(f"   {m['name']:<44} {fmt(result['per_layer'][m['name']]):>14} "
                  f"{m['unit']}")
        tr = result["tracing"]
        print(f"   traced wall {tr['traced_wall_s']:.3f} s vs untraced "
              f"{tr['untraced_wall_s']:.3f} s; hashgraph self time is "
              f"{tr['hashgraph_share_of_run']:.1%} of the traced run")
    for failure in result["failures"]:
        print(f"   FAILED: {failure}")


def contract_metrics(result, spec, trace):
    """The metrics the last line carries: end_to_end or per_layer ones."""
    if trace:
        source, listed = result.get("per_layer", {}), spec["per_layer"]
    else:
        source, listed = result["end_to_end"], spec["end_to_end"]
    return {
        m["name"]: {"value": source[m["name"]], "unit": m["unit"]}
        for m in listed if source.get(m["name"]) is not None
    }


def main(argv=None):
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=names + ["all"])
    ap.add_argument("--seed", type=int, default=11)
    ap.add_argument("--seconds", type=float,
                    help="ignored; the number of repetitions is fixed")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    chosen = names if args.workload == "all" else [args.workload]
    results = []
    try:
        for name in chosen:
            result = bench(name, args.seed, bool(args.trace))
            print_result(result, spec)
            path = OUT_DIR / f"{name}-seed{args.seed}-trace{args.trace}.json"
            path.write_text(json.dumps(result, indent=1, allow_nan=False) + "\n")
            results.append(result)
    except SetupError as exc:
        print(f"set-up failed: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(TMP_DIR, ignore_errors=True)

    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    if len(results) == 1:
        metrics = contract_metrics(results[0], spec, args.trace)
    else:
        metrics = {
            f"{r['workload']}.{k}": v
            for r in results
            for k, v in contract_metrics(r, spec, args.trace).items()
        }
    line = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    print(json.dumps(line, allow_nan=False))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
