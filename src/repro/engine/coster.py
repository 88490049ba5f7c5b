"""Communication cost accounting and static estimation.

Two complementary tools:

* **Measured cost** — :meth:`CostModel.log_cost` prices a
  :class:`~repro.engine.transfers.TransferLog` after an actual run,
  optionally through a network model with per-link latency/bandwidth
  (see :class:`repro.distributed.network.NetworkModel`).

* **Estimated cost** — :func:`estimate_assignment_cost` predicts the
  bytes an assignment will ship *before* running it, from per-relation
  :class:`TableStats`, using textbook System-R style estimates
  (join output cardinality ``|L|·|R| / max(V(L,a), V(R,b))``).  The
  exhaustive optimum (:mod:`repro.baselines.exhaustive`) ranks safe
  assignments with this estimate, pricing each join through the same
  :func:`join_flows`.
"""

from __future__ import annotations

from typing import Dict, Mapping, Optional, Tuple

from repro.algebra.tree import (
    PROJECT,
    JoinNode,
    LeafNode,
    UnaryNode,
)
from repro.core.assignment import Assignment
from repro.engine.data import Table, cell_width
from repro.engine.transfers import TransferLog
from repro.exceptions import ExecutionError

#: Default selectivity of one selection predicate atom.
DEFAULT_SELECTIVITY = 0.1

#: Default per-attribute width (characters) when stats carry no widths.
DEFAULT_WIDTH = 8.0


def join_path_key(path) -> str:
    """Stable string key of a join path, for observed-selectivity lookup.

    Built from :meth:`~repro.algebra.joins.JoinPath.canonical_key`, so
    equivalent paths (same conditions, any order or attribute flip) map
    to the same key — the `StatsStore` files observed selectivities
    under it.
    """
    return "&".join(f"{a}={b}" for a, b in path.canonical_key())


class TableStats:
    """Cardinality statistics of one (base or derived) relation.

    Attributes:
        rows: tuple count.
        distinct: per-attribute distinct-value counts.
        widths: per-attribute average value widths (characters).
    """

    __slots__ = ("rows", "distinct", "widths")

    def __init__(
        self,
        rows: float,
        distinct: Mapping[str, float],
        widths: Optional[Mapping[str, float]] = None,
    ) -> None:
        self.rows = max(0.0, float(rows))
        self.distinct = dict(distinct)
        self.widths = dict(widths) if widths is not None else {}

    @classmethod
    def of_table(cls, table: Table) -> "TableStats":
        """Exact statistics of a concrete table.

        Widths use the **same canonical accounting** as
        ``Table.byte_size`` (:func:`repro.engine.data.cell_width`), so
        ``bytes_for(table.attributes)`` of an exact-stats table equals
        the payload the executor measures for shipping it — the test
        suite asserts this agreement.  Columnar tables answer from their
        memoized ``column_bytes`` / ``distinct_count`` (one scan per
        resident relation, not per call) into a fresh ``TableStats``.
        """
        rows = len(table)
        distinct = {a: float(table.distinct_count(a)) for a in table.attributes}
        if isinstance(table, Table):
            totals = map(table.column_bytes, table.attributes)
        else:  # duck-typed row-shaped table (e.g. the frozen oracle)
            totals = (sum(map(cell_width, table.column(a))) for a in table.attributes)
        widths = (
            {a: total / rows for a, total in zip(table.attributes, totals)} if rows else {}
        )
        return cls(float(rows), distinct, widths)

    def width_of(self, attribute: str) -> float:
        """Average width of one attribute."""
        return self.widths.get(attribute, DEFAULT_WIDTH)

    def distinct_of(self, attribute: str) -> float:
        """Distinct count of one attribute (bounded by the row count)."""
        return min(self.distinct.get(attribute, self.rows), self.rows) or 1.0

    def row_width(self, attributes) -> float:
        """Average width of a row restricted to ``attributes``."""
        return sum(self.width_of(a) for a in attributes)

    def bytes_for(self, attributes) -> float:
        """Estimated payload of shipping the relation's ``attributes``."""
        return self.rows * self.row_width(attributes)

    def __repr__(self) -> str:
        return f"TableStats(rows={self.rows:.0f}, attrs={sorted(self.distinct)})"


class CostModel:
    """Prices transfers, optionally through a network model.

    Args:
        network: object exposing ``transfer_cost(sender, receiver,
            byte_size)`` — a network model, or another cost model to
            price on top of; ``None`` means cost = bytes (uniform
            network).
    """

    def __init__(self, network=None) -> None:
        self._network = network

    def transfer_cost(self, sender: str, receiver: str, byte_size: float) -> float:
        """Cost of one shipment."""
        if self._network is None:
            return float(byte_size)
        return float(self._network.transfer_cost(sender, receiver, byte_size))

    def log_cost(self, log: TransferLog) -> float:
        """Total cost of an execution's transfer log."""
        return sum(
            self.transfer_cost(t.sender, t.receiver, t.byte_size) for t in log
        )


def plan_stats(
    plan, base_stats: Mapping[str, TableStats], selectivities=None
) -> Dict[int, TableStats]:
    """Estimated output statistics of every node of ``plan``, by node id.

    One post-order pass: each node is estimated from its operands'
    entries.  ``selectivities`` is an optional object exposing
    ``selectivity(path_key) -> Optional[float]`` (duck-typed; in
    practice a :class:`repro.profiling.StatsStore`).  When it yields an
    observed selectivity for a join's :func:`join_path_key`, that
    replaces the System-R ``1 / max(V(L,a), V(R,b))`` estimate.
    """
    stats: Dict[int, TableStats] = {}
    for node in plan:
        if isinstance(node, LeafNode):
            name = node.relation.name
            if name not in base_stats:
                raise ExecutionError(f"no statistics provided for relation {name!r}")
            estimate = base_stats[name]
        elif isinstance(node, UnaryNode):
            child = stats[node.left.node_id]
            if node.operator == PROJECT:
                kept = node.projection_attributes
                estimate = TableStats(
                    child.rows,
                    {a: child.distinct_of(a) for a in kept},
                    {a: child.width_of(a) for a in kept},
                )
            else:
                atoms = max(1, len(node.predicate.comparisons))
                rows = max(1.0, child.rows * DEFAULT_SELECTIVITY ** atoms)
                estimate = TableStats(
                    rows, {a: min(d, rows) for a, d in child.distinct.items()}, child.widths
                )
        elif isinstance(node, JoinNode):
            left, right = stats[node.left.node_id], stats[node.right.node_id]
            observed = (
                selectivities.selectivity(join_path_key(node.path))
                if selectivities is not None
                else None
            )
            if observed is not None:
                rows = left.rows * right.rows * observed
            else:
                rows = left.rows * right.rows
                for condition in node.path:
                    if condition.first in left.distinct or condition.second in left.distinct:
                        left_attr = condition.first if condition.first in left.distinct else condition.second
                        right_attr = condition.other(left_attr)
                    else:
                        left_attr, right_attr = condition.first, condition.second
                    rows /= max(left.distinct_of(left_attr), right.distinct_of(right_attr))
            rows = max(1.0, rows)
            distinct = {a: min(d, rows) for a, d in {**left.distinct, **right.distinct}.items()}
            estimate = TableStats(rows, distinct, {**left.widths, **right.widths})
        else:
            raise ExecutionError(f"unknown node kind: {type(node).__name__}")
        stats[node.node_id] = estimate
    return stats


def join_flows(
    node: JoinNode,
    executor,
    left_server: str,
    right_server: str,
    stats: Mapping[int, TableStats],
    left_attrs,
    right_attrs,
) -> Tuple[Tuple[str, str, float, str], ...]:
    """The predicted ``(sender, receiver, bytes, kind)`` flows of one join.

    ``executor`` is the join's Figure 5 execution, the operands sit at
    ``left_server`` / ``right_server`` with attributes ``left_attrs`` /
    ``right_attrs``, and ``stats`` is :func:`plan_stats` of the plan.  A
    regular join ships the non-master operand whole (kind
    ``"regular"``).  A local join — both operands already at the master
    — is priced the same way: a full-size hand-off ``transfer_cost(S,
    S, bytes)``, which under the default :class:`CostModel` is the byte
    count (ROADMAP item 14 revisits this charge).  A semi-join ships a
    probe of the master's join attributes (``"probe"``) and the
    slave-side join restricted to probe and slave columns back
    (``"back"``).  The estimator and the exhaustive optimum both price
    joins here.
    """
    left_stats, right_stats = stats[node.left.node_id], stats[node.right.node_id]
    if executor.slave is None:
        if executor.master == left_server:
            return ((right_server, left_server, right_stats.bytes_for(right_attrs), "regular"),)
        return ((left_server, right_server, left_stats.bytes_for(left_attrs), "regular"),)
    if executor.master == left_server:
        master_stats, slave_stats = left_stats, right_stats
        master_attrs, slave_attrs = left_attrs, right_attrs
    else:
        master_stats, slave_stats = right_stats, left_stats
        master_attrs, slave_attrs = right_attrs, left_attrs
    join_attrs = sorted(node.path.attributes & master_attrs)
    probe_rows = min(
        master_stats.rows,
        max(master_stats.distinct_of(a) for a in join_attrs) if join_attrs else master_stats.rows,
    )
    probe_bytes = probe_rows * master_stats.row_width(join_attrs)
    back_bytes = stats[node.node_id].rows * (
        master_stats.row_width(join_attrs) + slave_stats.row_width(slave_attrs)
    )
    return (
        (executor.master, executor.slave, probe_bytes, "probe"),
        (executor.slave, executor.master, back_bytes, "back"),
    )


class AssignmentEstimate:
    """Per-node, per-flow breakdown of an assignment's cost estimate.

    Attributes:
        total_cost: priced cost of every flow (through the cost model).
        total_bytes: raw predicted bytes on the wire (model-independent).
        node_rows: node id -> estimated output cardinality.
        node_bytes: join node id -> raw predicted bytes its flows ship.
        flows: ``(node_id, sender, receiver)`` -> list of
            ``(bytes, kind)`` predicted flows on that link, in pricing
            order; ``kind`` is one of ``"regular"``, ``"probe"``,
            ``"back"``, ``"coordinator"``.  The profiler matches actual
            transfers against this map to pair estimate with outcome.
    """

    __slots__ = ("total_cost", "total_bytes", "node_rows", "node_bytes", "flows")

    def __init__(self) -> None:
        self.total_cost = 0.0
        self.total_bytes = 0.0
        self.node_rows: Dict[int, float] = {}
        self.node_bytes: Dict[int, float] = {}
        self.flows: Dict[Tuple[int, str, str], list] = {}

    def _add_flow(
        self,
        model: CostModel,
        node_id: int,
        sender: str,
        receiver: str,
        byte_size: float,
        kind: str,
    ) -> None:
        self.total_cost += model.transfer_cost(sender, receiver, byte_size)
        self.total_bytes += byte_size
        self.node_bytes[node_id] = self.node_bytes.get(node_id, 0.0) + byte_size
        self.flows.setdefault((node_id, sender, receiver), []).append(
            (byte_size, kind)
        )


def estimate_assignment_detail(
    assignment: Assignment,
    base_stats: Mapping[str, TableStats],
    cost_model: Optional[CostModel] = None,
    selectivities=None,
) -> AssignmentEstimate:
    """Predicted communication of executing ``assignment``, per flow.

    Estimates every node's output statistics (:func:`plan_stats`), then
    prices every flow the assignment entails: each join's
    :func:`join_flows` — local joins included, at full size — and two
    operand shipments for coordinator joins.  ``selectivities``
    optionally refines join cardinalities with observed per-path
    selectivities.
    """
    model = cost_model or CostModel()
    plan = assignment.plan
    estimate = AssignmentEstimate()
    stats = plan_stats(plan, base_stats, selectivities)
    estimate.node_rows = {node_id: s.rows for node_id, s in stats.items()}
    # A resumed run pins materialized subtrees: they and everything
    # below them ship nothing (and carry no executor to ask).
    resumed = assignment.skipped_node_ids().union(assignment.materialized_nodes())
    for node in plan:
        if not isinstance(node, JoinNode) or node.node_id in resumed:
            continue
        left_id, right_id = node.left.node_id, node.right.node_id
        left_server = assignment.master(left_id)
        right_server = assignment.master(right_id)
        left_attrs = assignment.profile(left_id).attributes
        right_attrs = assignment.profile(right_id).attributes
        coordinator = assignment.coordinator(node.node_id)
        if coordinator is not None:
            flows = (
                (left_server, coordinator, stats[left_id].bytes_for(left_attrs), "coordinator"),
                (right_server, coordinator, stats[right_id].bytes_for(right_attrs), "coordinator"),
            )
        else:
            flows = join_flows(
                node, assignment.executor(node.node_id), left_server, right_server,
                stats, left_attrs, right_attrs,
            )
        for sender, receiver, byte_size, kind in flows:
            estimate._add_flow(model, node.node_id, sender, receiver, byte_size, kind)
    return estimate


def estimate_assignment_cost(
    assignment: Assignment,
    base_stats: Mapping[str, TableStats],
    cost_model: Optional[CostModel] = None,
    selectivities=None,
) -> float:
    """Predicted communication cost of executing ``assignment`` — the
    ``total_cost`` of :func:`estimate_assignment_detail`."""
    return estimate_assignment_detail(
        assignment, base_stats, cost_model, selectivities
    ).total_cost
