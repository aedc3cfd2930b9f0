"""Command line front end: run scenarios, sweep grids and print formula
tables.

Exit codes:
  0  success
  2  configuration error (bad key, bad value, invalid parameter combination)
  3  I/O error (unreadable config, unwritable output directory)
  4  invariant or acceptance failure during a run
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from pathlib import Path

from .config import (EQUIVOCATOR, NO_ADVERSARY, ConfigError, ScenarioConfig,
                     apply_setting, load_config)
from .metrics import COMPARISON_COLUMNS, ROWS, MetricsError
from .simulation import SimulationError, run_scenario, write_csv, write_report

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_IO = 3
EXIT_INVARIANT = 4


def _load(args) -> ScenarioConfig:
    if args.config:
        config = load_config(args.config)
    else:
        config = ScenarioConfig()
    for item in args.set or []:
        if "=" not in item:
            raise ConfigError(f"--set expects key=value, got {item!r}")
        key, _, value = item.partition("=")
        apply_setting(config, key.strip(), value.strip())
    config.validate()
    return config


def _fmt(value) -> str:
    """A comparison value for the run summary; n/a where the model has
    none."""
    return "n/a" if value is None else f"{value:.3f}"


def _warn_short_injection(config: ScenarioConfig, label: str = "") -> None:
    note = config.injection_warning()
    if note:
        print(f"{label}warning: {note}", file=sys.stderr)


def _exactly_once(config: ScenarioConfig, report, label: str = "") -> bool:
    """Whether the run ordered no cross-shard transaction twice and, unless
    churn or a shard failure lost some in events never ordered, each one
    once; says why not on stderr."""
    bad = report.tx_audit["duplicate_count"]
    if config.adversary_kind in (NO_ADVERSARY, EQUIVOCATOR):
        bad += report.tx_audit["missing_count"]
    if bad:
        print(
            f"{label}cross-shard exactly-once violated for {bad} transactions",
            file=sys.stderr,
        )
        return False
    return True


def cmd_run(args) -> int:
    config = _load(args)
    _warn_short_injection(config)
    report = run_scenario(config)
    out = Path(args.out) / "run"
    write_report(report, out)
    print(f"report written to {out}")
    print(f"  injected tx units: {report.metrics.injected_tx_units}")
    print(f"  empty event fraction: {report.metrics.empty_event_fraction:.3f}")
    for row in report.comparison:
        print(
            f"  {row['quantity']}: analytic={_fmt(row['analytic'])} "
            f"measured={_fmt(row['measured'])}"
        )
    if report.anomalies:
        for a in report.anomalies:
            print(f"  anomaly: {a}", file=sys.stderr)
    return EXIT_OK if _exactly_once(config, report) else EXIT_INVARIANT


def cmd_formulas(args) -> int:
    for rate in ("throughput", "cross_throughput", "event_size"):
        if not 0 <= getattr(args, rate) < math.inf:
            raise ConfigError(f"{rate} must be finite and >= 0")
    model = (args.n, args.s, args.throughput, args.cross_throughput,
             args.event_size)
    rows = [(row.quantity, row.analytic(*model))
            for row in ROWS if row.analytic is not None]
    width = max(len(name) for name, _ in rows)
    for name, value in rows:
        print(f"{name:<{width}}  {value:g}")
    return EXIT_OK


def cmd_sweep(args) -> int:
    config = _load(args)
    param, _, values_text = args.sweep.partition("=")
    param = param.strip()
    values = [v.strip() for v in values_text.split(",") if v.strip()]
    if not param or not values:
        raise ConfigError(f"empty sweep grid in {args.sweep!r}")
    # every point is checked before any runs, so a bad one leaves no
    # half-written grid
    points = []
    for value in values:
        point = ScenarioConfig(**config.to_dict())
        apply_setting(point, param, value)
        point.validate()
        for seen, other in points:
            if other.to_dict() == point.to_dict():
                raise ConfigError(
                    f"sweep values {seen!r} and {value!r} give one point")
        points.append((value, point))
    out_root = Path(args.out) / "sweep"
    combined = []
    failures = 0
    for value, point in points:
        point_dir = out_root / f"{param}-{value}"
        _warn_short_injection(point, f"{param}={value}: ")
        try:
            report = run_scenario(point)
            write_report(report, point_dir)
        except SimulationError as exc:
            print(f"{param}={value}: invariant failure: {exc}", file=sys.stderr)
            failures += 1
            continue
        failures += not _exactly_once(point, report, f"{param}={value}: ")
        combined += ([param, value, *(row[k] for k in COMPARISON_COLUMNS)]
                     for row in report.comparison)
        print(f"{param}={value}: report written to {point_dir}")
    out_root.mkdir(parents=True, exist_ok=True)
    write_csv(out_root / "combined.csv",
              ["param", "value", *COMPARISON_COLUMNS], combined)
    print(f"combined comparison written to {out_root / 'combined.csv'}")
    return EXIT_INVARIANT if failures else EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="shardgraph",
        description="sharded hashgraph simulator",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    scenario = argparse.ArgumentParser(add_help=False)
    scenario.add_argument("--config", help="scenario config file (key = value)")
    scenario.add_argument(
        "--out", default=os.environ.get("SHARDGRAPH_OUT", "runs"),
        help="output directory root",
    )
    scenario.add_argument(
        "--set", action="append", metavar="KEY=VALUE",
        help="override a config key (repeatable)",
    )

    p_run = sub.add_parser("run", parents=[scenario],
                           help="run one scenario and write a report")
    p_run.set_defaults(func=cmd_run)

    p_form = sub.add_parser("formulas", help="print the analytic cost table")
    p_form.add_argument("-n", type=int, default=100)
    p_form.add_argument("-s", type=int, default=10)
    p_form.add_argument("--throughput", type=float, default=1000.0)
    p_form.add_argument("--cross-throughput", type=float, default=50.0,
                        dest="cross_throughput")
    p_form.add_argument("--event-size", type=float, default=1.0,
                        dest="event_size")
    p_form.set_defaults(func=cmd_formulas)

    p_sweep = sub.add_parser("sweep", parents=[scenario],
                             help="run a parameter grid")
    p_sweep.add_argument(
        "--sweep", required=True, metavar="PARAM=V1,V2,...",
        help="parameter and comma-separated value grid",
    )
    p_sweep.set_defaults(func=cmd_sweep)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, MetricsError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return EXIT_IO
    except SimulationError as exc:
        print(f"invariant failure: {exc}", file=sys.stderr)
        return EXIT_INVARIANT


if __name__ == "__main__":
    sys.exit(main())
