"""Measured communication/storage counters and the closed-form cost model,
declared once as ``ROWS``: the report compares each entry with a run, and
the ``formulas`` command prints each closed form.
"""

from __future__ import annotations

from typing import Callable, NamedTuple, Optional


class MetricsError(Exception):
    pass


# the fields of a formula comparison row, in report and CSV column order
COMPARISON_COLUMNS = ("quantity", "analytic", "measured",
                      "relative_deviation", "within_tolerance")
# the largest |relative deviation| of a formula row within tolerance
TOLERANCE = 0.15


def analytic_comm_cost_sharded(
    n: int, s: int, throughput: float, event_size: float
) -> float:
    if n < 1:
        raise MetricsError("n must be >= 1")
    if s < 1:
        raise MetricsError("s must be >= 1")
    return (n / s - 1) * (throughput / n) * event_size


def analytic_replica_count(n: int, s: int) -> int:
    if s < 1:
        raise MetricsError("s must be >= 1")
    if n % s != 0:
        raise MetricsError("balanced case requires s to divide n")
    return n // s + s - 1


class MetricsReport:
    """Counters accumulated during one simulation run."""

    def __init__(self, duration: int):
        self.duration = duration
        self.per_node_comm: dict[int, float] = {}
        self.per_node_handshake: dict[int, float] = {}
        self.per_node_received: dict[int, float] = {}
        self.per_node_storage: dict[int, float] = {}
        self.ordered_tx_units: dict[int, int] = {}  # per committee
        self.injected_tx_units = 0
        self.injected_cross_units = 0
        self.cross_latency: dict[int, int] = {}
        self.replica_counts: dict[int, int] = {}
        self.total_events = 0
        self.empty_events = 0

    @property
    def empty_event_fraction(self) -> float:
        return self.empty_events / self.total_events if self.total_events else 0.0

    def add_comm(self, node: int, units: float) -> None:
        self.per_node_comm[node] = self.per_node_comm.get(node, 0.0) + units

    def add_handshake(self, node: int, units: float) -> None:
        self.per_node_handshake[node] = (
            self.per_node_handshake.get(node, 0.0) + units
        )

    def add_received(self, node: int, units: float) -> None:
        self.per_node_received[node] = (
            self.per_node_received.get(node, 0.0) + units
        )

    def add_storage(self, node: int, units: float) -> None:
        self.per_node_storage[node] = (
            self.per_node_storage.get(node, 0.0) + units
        )

    def add_syncs(self, nodes: list[int], sent: list[int],
                  made: list[int]) -> None:
        """A chain of local gossip syncs: nodes[i] sends sent[i] units to
        nodes[i + 1], which stores them and its record event of made[i]
        units.  The counters grow in the order the syncs ran, so each
        dict's key order, which ``compare_measured``'s float sums follow,
        is the same as with one ``add_*`` call per sync."""
        comm, received = self.per_node_comm, self.per_node_received
        storage, handshake = self.per_node_storage, self.per_node_handshake
        for sender, receiver, units, own in zip(nodes, nodes[1:], sent, made):
            comm[sender] = comm.get(sender, 0.0) + units
            received[receiver] = received.get(receiver, 0.0) + units
            storage[receiver] = storage.get(receiver, 0.0) + (units + own)
            handshake[sender] = handshake.get(sender, 0.0) + 1
        self.total_events += len(made)
        self.empty_events += made.count(0)


def mean(values) -> float:
    values = list(values)
    return sum(values) / len(values) if values else 0.0


def _per_tick(report: MetricsReport, units: float) -> float:
    return units / report.duration if report.duration else 0.0


def _comm_rate(report: MetricsReport, nodes: list[int]) -> float:
    """The mean units per tick that nodes sent."""
    return mean(report.per_node_comm[v] / report.duration for v in nodes)


class Row(NamedTuple):
    """A quantity of the cost model: its closed form in (n, s, T, T_cross,
    E), for n nodes, s shards, throughput T, cross-shard throughput T_cross
    and event size E, or None for no model term; what a run measures of
    it, of the report and its plain and coordinator nodes that sent, or
    None where no run measures it (it gives None for a run without any);
    and the (n, s) where the closed form holds."""
    quantity: str
    analytic: Optional[Callable[..., float]]
    measured: Optional[Callable[..., Optional[float]]]
    holds: Callable[[int, int], bool] = lambda n, s: True


ROWS = (
    # the unsharded network is the sharded form's s = 1 case
    Row("comm_per_node_unsharded",
        lambda n, s, T, T_cross, E: analytic_comm_cost_sharded(n, 1, T, E),
        None),
    # averaged over the nodes that coordinate no committee
    Row("comm_per_node",
        lambda n, s, T, T_cross, E: analytic_comm_cost_sharded(n, s, T, E),
        lambda report, plain, coords: _comm_rate(report, plain)),
    Row("cross_send_cost", lambda n, s, T, T_cross, E: T_cross * E,
        lambda report, plain, coords: _per_tick(
            report, report.injected_cross_units)),
    # n/s + s - 1 copies of the complete graph
    Row("replica_count",
        lambda n, s, T, T_cross, E: analytic_replica_count(n, s),
        lambda report, plain, coords: (mean(report.replica_counts.values())
                                       if report.replica_counts else 0),
        holds=lambda n, s: n % s == 0),
    # coordinators carry the global committee's load too
    Row("comm_per_coordinator", None, lambda report, plain, coords: (
        _comm_rate(report, coords) if coords else None)),
    Row("storage_ratio", lambda n, s, T, T_cross, E: 1 / s, None),
)


def compare_measured(
    report: MetricsReport,
    config,
    coordinators,
) -> list[dict]:
    """A comparison row per entry of ``ROWS`` that the run measures at its
    (n, s), with E = 1.  An analytic value of None has no deviation (null
    in report.json) and is within tolerance."""
    n, s = config.n, config.s
    coordinators = set(coordinators)
    nodes = ([v for v in report.per_node_comm if v not in coordinators],
             [v for v in report.per_node_comm if v in coordinators])
    model = (_per_tick(report, report.injected_tx_units),
             _per_tick(report, report.injected_cross_units), 1.0)
    rows = []
    for row in ROWS:
        if row.measured is None or not row.holds(n, s):
            continue
        measured = row.measured(report, *nodes)
        if measured is None:
            continue
        analytic = row.analytic and row.analytic(n, s, *model)
        if analytic:
            dev = (measured - analytic) / analytic
        else:
            dev = None if analytic is None else 0.0
        within = abs(dev) <= TOLERANCE if analytic else True
        rows.append(dict(zip(COMPARISON_COLUMNS,
                             (row.quantity, analytic, measured, dev, within))))
    return rows
