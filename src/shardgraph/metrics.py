"""Measured communication/storage counters and the closed-form cost model.

Analytic quantities, for n nodes, s shards, throughput T and event size E:

* sharded per-node communication    (n/s - 1) * (T / n) * E; the
  unsharded (n - 1) * (T / n) * E is its s = 1 case
* cross-shard send cost             T_cross * E
* complete-graph copy count         n/s + s - 1
* per-node storage ratio            1/s
"""

from __future__ import annotations


class MetricsError(Exception):
    pass


# the fields of a formula comparison row, in report and CSV column order
COMPARISON_COLUMNS = ("quantity", "analytic", "measured",
                      "relative_deviation", "within_tolerance")
# the largest |relative deviation| of a formula row within tolerance
TOLERANCE = 0.15


def analytic_comm_cost(n: int, throughput: float, event_size: float) -> float:
    return analytic_comm_cost_sharded(n, 1, throughput, event_size)


def analytic_comm_cost_sharded(
    n: int, s: int, throughput: float, event_size: float
) -> float:
    if n < 1:
        raise MetricsError("n must be >= 1")
    if s < 1:
        raise MetricsError("s must be >= 1")
    return (n / s - 1) * (throughput / n) * event_size


def analytic_cross_cost(cross_throughput: float, event_size: float) -> float:
    return cross_throughput * event_size


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


def compare_measured(
    report: MetricsReport,
    config,
    coordinators,
) -> list[dict]:
    """Per-quantity (analytic, measured, relative deviation) rows.

    Coordinator nodes carry the additional global-committee load, so formula
    rows average over non-coordinator nodes only; coordinators get their own
    informational row, whose analytic value and deviation are None (null in
    report.json): the model has no coordinator term.
    """
    n, s = config.n, config.s
    coordinators = set(coordinators)
    rate = report.injected_tx_units / report.duration if report.duration else 0.0
    cross_rate = (
        report.injected_cross_units / report.duration if report.duration else 0.0
    )
    event_size = 1.0

    def comm_rate(nodes):
        return mean(
            report.per_node_comm.get(v, 0.0) / report.duration for v in nodes
        )

    plain = [v for v in report.per_node_comm if v not in coordinators]
    coords = [v for v in report.per_node_comm if v in coordinators]

    rows = []

    def row(quantity, analytic, measured):
        # an analytic of None is no model term: no deviation, and in bounds
        if analytic:
            dev = (measured - analytic) / analytic
        else:
            dev = None if analytic is None else 0.0
        within = abs(dev) <= TOLERANCE if analytic else True
        rows.append(dict(zip(COMPARISON_COLUMNS,
                             (quantity, analytic, measured, dev, within))))

    row(
        "comm_per_node",
        analytic_comm_cost_sharded(n, s, rate, event_size),
        comm_rate(plain),
    )
    row("cross_send_cost", analytic_cross_cost(cross_rate, event_size), cross_rate)
    if n % s == 0:
        row(
            "replica_count",
            analytic_replica_count(n, s),
            mean(report.replica_counts.values()) if report.replica_counts else 0,
        )
    if coords:
        row("comm_per_coordinator", None, comm_rate(coords))
    return rows
