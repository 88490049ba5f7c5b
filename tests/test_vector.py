"""Unit tests for the columnar execution core.

Covers the contracts the columnar refactor added or tightened:

* null join keys never match, in both key-matching operators
  (``equi_join`` and ``natural_join``);
* the ``project`` contract (duplicates rejected, table-order result),
  at the table and through a plan's projection node;
* canonical byte accounting: ``byte_size()``, ``cell_width`` and the
  coster agree on every value kind, including ``None``;
* a resident relation's derived state (key indexes, the semi-join
  probe) is derived once per loaded instance, not once per request,
  while every transfer is still shipped and audited per request
  (checked by object identity and call counts, not by a clock);
* columnar wire format round trips;
* the compiled gather (``_getter``) at every arity, tuple-only column
  storage across every operator, the single-column first-occurrence
  projection and its fallback once the pool holds an alias;
* a pickled or copied table lands on the receiving process's shared
  intern pool.
"""

import copy
import os
import pathlib
import pickle
import re
import subprocess
import sys

import pytest

from repro.algebra.builder import QuerySpec, build_plan
from repro.algebra.joins import JoinPath
from repro.algebra.predicates import Comparison, Predicate
from repro.core.authorization import Policy
from repro.engine import data as data_module
from repro.engine.coster import TableStats
from repro.distributed.system import DistributedSystem
from repro.engine.data import Table, _getter, cell_width, shared_pool
from repro.engine.operators import evaluate_plan
from repro.exceptions import ExecutionError, PredicateError
from repro.io.serialize import table_from_columns, table_to_columns
from repro.testing import grant, quick_catalog

from tests._row_oracle import OracleTable


class TestNullKeys:
    """A ``None`` join key matches nothing — in every operator."""

    left = Table(("A", "K"), [("a1", "x"), ("a2", None), ("a3", "y")])
    right = Table(("B", "L"), [("b1", "x"), ("b2", None)])

    def test_equi_join_skips_none_keys(self):
        joined = self.left.equi_join(self.right, JoinPath.of(("K", "L")))
        assert set(joined.rows) == {("a1", "x", "b1", "x")}

    def test_natural_join_skips_none_keys(self):
        left = Table(("A", "K"), [("a1", "x"), ("a2", None)])
        right = Table(("K", "B"), [("x", "b1"), (None, "b2")])
        joined = left.natural_join(right)
        assert set(joined.rows) == {("a1", "x", "b1")}

    def test_semi_join_reduction_agrees_with_join(self):
        # The Figure 5 sequence on the kernels the executor calls: the
        # probe carries a None key, the slave operand carries one too,
        # and neither may survive the reduction or the recombination.
        path = JoinPath.of(("K", "L"))
        probe = self.left.project(["K"])
        assert None in probe.column("K")
        reduced = probe.equi_join(self.right, path)
        assert set(reduced.rows) == {("x", "b1", "x")}
        assert self.left.natural_join(reduced) == self.left.equi_join(
            self.right, path
        )


class TestProjectContract:
    table = Table(("C", "A", "B"), [("c", "a", "b"), ("c2", "a", "b2")])

    def test_duplicate_columns_rejected(self):
        with pytest.raises(ExecutionError) as err:
            self.table.project(["A", "B", "A"])
        assert "cannot project on duplicated columns: ['A']" in str(err.value)

    def test_missing_columns_rejected(self):
        with pytest.raises(ExecutionError) as err:
            self.table.project(["A", "Z"])
        assert "cannot project on missing columns: ['Z']" in str(err.value)

    def test_empty_projection_rejected(self):
        # Zero columns is a table the constructor forbids; it used to
        # come back as ``Table([], 0 rows)``, every row silently gone.
        with pytest.raises(ExecutionError) as err:
            self.table.project([])
        assert "a table needs at least one column" in str(err.value)

    def test_result_keeps_table_order(self):
        # Output columns follow *table* attribute order, not request
        # order — now documented, previously incidental.
        assert self.table.project(["A", "C"]).attributes == ("C", "A")
        assert self.table.project(["C", "A"]).attributes == ("C", "A")

    def test_operator_matches_table(self):
        # A plan's projection node is the table kernel: same rows, and
        # table attribute order whatever order the plan names them in.
        catalog = quick_catalog("R(C, A, B) @ S1")
        plan = build_plan(catalog, QuerySpec(["R"], [], frozenset({"A", "C"})))
        projected = evaluate_plan(plan, {"R": self.table})
        assert projected == self.table.project(["A", "C"])
        assert projected.attributes == ("C", "A")


class TestDerivedStateMemo:
    """``Table.memoized``: one bounded memo per table, emptied when the
    storage moves, never holding the table itself."""

    def test_projections_are_derived_once_and_full_width_is_self(self):
        table = Table(("C", "A", "B"), [("c", "a", "b"), ("c2", "a", "b2")])
        narrowed = table.project(["A", "C"])
        assert table.project(("C", "A")) is narrowed
        assert table.project(["B", "A", "C"]) is table
        assert ("project", frozenset("ABC")) not in table._memo  # no cycle

    def test_a_failed_derivation_memoizes_nothing(self):
        table = Table(("A", "B"), [(1, 2)])
        for _ in range(2):
            with pytest.raises(ExecutionError, match="missing columns"):
                table.project(["A", "Z"])
        assert not table._memo

    def test_memo_is_bounded_oldest_out(self):
        from itertools import combinations

        from repro.engine.data import _MEMO_LIMIT

        attrs = tuple("ABCDEF")
        table = Table(attrs, [tuple(range(6)), tuple(range(1, 7))])
        requests = [list(triple) for triple in combinations(attrs, 3)]
        assert len(requests) > _MEMO_LIMIT
        size = table.byte_size()  # the oldest entry
        first = table.project(requests[0])
        for requested in requests[1:]:
            table.project(requested)
        assert len(table._memo) == _MEMO_LIMIT
        assert "column_bytes" not in table._memo
        again = table.project(requests[0])
        assert again is not first and again == first
        assert table.byte_size() == size

    def test_canonicalization_empties_the_memo(self):
        table = Table(("A", "B"), [(2, "x"), (1, "y"), (1, "z")])
        probe = Table(("K",), [(1,)])
        assert len(probe.equi_join(table, JoinPath.of(("K", "A")))) == 2
        table.byte_size()
        assert set(table._memo) == {("index", (0,)), "column_bytes"}
        assert table.rows[0] == (1, "y")  # sorts the storage in place
        assert not table._memo
        assert probe.equi_join(table, JoinPath.of(("K", "A"))).rows == (
            (1, 1, "y"), (1, 1, "z"),
        )
        assert table.byte_size() == 6


class TestByteAccounting:
    rows = [
        ("s", 1, 1.5, True, None),
        ("longer", -12, 2.0, False, None),
    ]
    table = Table(("S", "I", "F", "B", "N"), rows)

    def test_cell_width_matches_seed_rendering(self):
        # One canonical accounting: cell_width(v) == len(str(v)) for
        # every allowed scalar, None included (len("None") == 4).
        for row in self.rows:
            for value in row:
                assert cell_width(value) == len(str(value))

    def test_byte_size_is_sum_of_cell_widths(self):
        expected = sum(cell_width(v) for row in self.rows for v in row)
        assert self.table.byte_size() == expected

    def test_oracle_agrees(self):
        assert self.table.byte_size() == OracleTable(
            self.table.attributes, self.rows
        ).byte_size()

    def test_coster_agrees_with_actual_bytes(self):
        # The estimator's exact stats must reproduce the measured
        # payload — for the columnar table and for a row-shaped
        # duck-typed table alike.
        for t in (self.table, OracleTable(self.table.attributes, self.rows)):
            stats = TableStats.of_table(t)
            assert stats.bytes_for(t.attributes) == pytest.approx(t.byte_size())


class TestKeyIndexResidency:
    """Guards against a regression to per-request re-derivation by
    identity and by count, never by a clock: what a base relation's memo
    holds after the first request (key indexes, the semi-join probe) is
    the *same object* for the next one, while every shipment is still
    built, measured and authorized per request."""

    SQL = "SELECT a, b, d, f FROM R JOIN T ON a = c JOIN U ON c = e"

    @staticmethod
    def instances(rows):
        return {
            "R": [{"a": i % 7, "b": f"r{i}"} for i in range(rows)],
            "T": [{"c": i % 5, "d": f"t{i}"} for i in range(rows)],
            "U": [{"e": i % 3, "f": f"u{i}"} for i in range(rows)],
        }

    @pytest.fixture()
    def system(self):
        policy = Policy()
        for server in ("S1", "S2", "S3"):
            for attrs in ("a b", "c d", "e f"):
                policy.add(grant(server, attrs))
            policy.add(grant(server, "a b c d", "a = c"))
            policy.add(grant(server, "a b c d e f", "a = c, c = e"))
        catalog = quick_catalog(
            "R(a, b) @ S1", "T(c, d) @ S2", "U(e, f) @ S3", edges=["a = c", "c = e"]
        )
        system = DistributedSystem(catalog, policy)
        system.load_instances(self.instances(30))
        return system

    @staticmethod
    def memos(system):
        return {name: dict(table._memo) for name, table in system.tables().items()}

    def test_second_request_reuses_and_reload_replaces(self, system):
        first = system.execute(self.SQL, recipient="S1").table
        built = self.memos(system)
        assert sum(kind == "index" for memo in built.values() for kind, _ in memo) >= 2
        assert system.execute(self.SQL, recipient="S1").table == first
        again = self.memos(system)
        for name, memo in built.items():
            assert again[name].keys() == memo.keys()
            for key, derived in memo.items():
                assert again[name][key] is derived
        # A reload installs new tables; their memos start empty and the
        # joins answer from the new rows.
        system.load_instances(self.instances(12))
        assert not any(self.memos(system).values())
        reloaded = system.execute(self.SQL, recipient="S1").table
        assert reloaded == evaluate_plan(system.plan(self.SQL)[0], system.tables())
        assert len(reloaded) < len(first)
        for name, memo in self.memos(system).items():
            for key, derived in memo.items():
                assert built[name].get(key) is not derived

    def test_second_request_rederives_nothing_but_ships_and_audits_everything(
        self, system, monkeypatch
    ):
        from repro.engine.audit import AuditLog
        from repro.engine.executor import DistributedExecutor

        distinct_passes, shipped, authorized = [], [], []
        distinct, ship_once, authorize = (
            Table._distinct, DistributedExecutor._ship_once, AuditLog.authorize,
        )

        def counting_distinct(table, columns):
            distinct_passes.append(table)
            return distinct(table, columns)

        def recording_ship_once(executor, table, *rest):
            shipped.append(table)
            return ship_once(executor, table, *rest)

        def counting_authorize(log, *probe):
            authorized.append(probe)
            return authorize(log, *probe)

        monkeypatch.setattr(Table, "_distinct", counting_distinct)
        monkeypatch.setattr(DistributedExecutor, "_ship_once", recording_ship_once)
        monkeypatch.setattr(AuditLog, "authorize", counting_authorize)

        def request():
            del distinct_passes[:], shipped[:]
            result = system.execute(self.SQL, recipient="S1")
            bases = list(system.tables().values())
            over_bases = sum(any(t is base for base in bases) for t in distinct_passes)
            ledger = [
                (t.description, t.sender, t.receiver, t.row_count, t.byte_size)
                for t in result.transfers
            ]
            return result, over_bases, list(shipped), ledger

        first, cold_passes, cold_shipped, cold_ledger = request()
        second, warm_passes, warm_shipped, warm_ledger = request()
        assert cold_passes >= 1 and warm_passes == 0
        # n2's master is the base relation T: its probe is T's memoized
        # projection, the very same table on both requests.
        assert cold_ledger[0][0].endswith("probe -> slave")
        assert warm_shipped[0] is cold_shipped[0] is system.tables()["T"].project(["c"])
        # ... and still every transfer is built, measured, authorized and
        # recorded per request: nothing that crosses a server is memoized.
        assert warm_ledger == cold_ledger and len(cold_ledger) == 5
        assert len(second.audit.checked) == len(first.audit.checked) == 5
        assert second.audit is not first.audit
        assert len(authorized) == 2 * 5
        for _ in range(3):
            request()
        assert len(authorized) == 5 * 5
        # A reload starts from nothing and answers from the new rows.
        system.load_instances(self.instances(12))
        assert not any(self.memos(system).values())
        reloaded, reload_passes, reload_shipped, _ = request()
        assert reload_passes >= 1 and reload_shipped[0] is not cold_shipped[0]
        assert reloaded.table == evaluate_plan(system.plan(self.SQL)[0], system.tables())
        assert len(reloaded.table) < len(first.table)


class TestColumnarWireFormat:
    def test_roundtrip(self):
        table = Table(
            ("S", "I", "F", "B", "N"),
            [("s", 1, 1.5, True, None), ("t", 1, 2.5, False, "x")],
        )
        assert table_from_columns(table_to_columns(table)) == table

    def test_dictionary_is_shared_per_column(self):
        table = Table(("A", "B"), [("x", i) for i in range(10)])
        data = table_to_columns(table)
        assert data["columns"]["A"]["values"] == ["x"]
        assert data["columns"]["A"]["codes"] == [0] * 10


class TestCompiledGather:
    """One compiled ``itemgetter`` per position vector; every stored
    column, whichever operator made it, is an immutable tuple."""

    def test_getter_at_zero_one_and_many_positions(self):
        column = ("a", "b", "c", "d")
        assert _getter([])(column) == ()
        assert _getter([2])(column) == ("c",)
        get = _getter([3, 0, 3])
        assert get(column) == ("d", "a", "d")
        assert get(list("wxyz")) == ("z", "w", "z")  # reused across columns
        assert _getter((7, 7))({7: True}) == (True, True)  # a lookup table too

    def test_every_operator_stores_only_tuples(self):
        left = Table(("A", "K"), [("a1", 1), ("a2", 2), ("a3", 1), ("a4", None)])
        right = Table(("K", "B"), [(1, "b1"), (2, "b2"), (1, "b3")])
        renamed = Table(("L", "C"), [(1, "c1"), (3, "c3")])
        keyed = Predicate([Comparison("K", "=", 1)])
        outputs = [
            left,
            Table.empty(("A", "B")),
            left.equi_join(renamed, JoinPath.of(("K", "L"))),
            left.natural_join(right),
            left.project(["K"]),
            right.project(["K"]),
            left.natural_join(right).project(["K", "B"]),
            left.select(keyed),
            left.select(Predicate([Comparison("A", "=", "a2")])),
            left.select(Predicate([Comparison("A", "=", "none")])),
            left.select(Predicate([Comparison("A", "=", "a1"), Comparison("K", "=", 1)])),
            left.union(Table(("K", "A"), [(5, "a5"), (1, "a1")])),
            right.union(right),
            *left.partition([0, 1, 0, 1], 2),
            *right.partition([0, 0, 0], 2),  # one part empty
        ]
        unsorted = left.natural_join(right)
        assert not unsorted._canonical
        unsorted.rows  # the canonical sort regathers storage
        outputs.append(unsorted)
        for table in outputs:
            assert table._columns, table
            for column in table._columns:
                assert type(column) is tuple and len(column) == len(table), table
            for attribute in table.attributes:
                assert type(table.column_ids(attribute)) is tuple
                assert type(table.column(attribute)) is list
            assert all(type(row) is tuple for row in table.rows)

    def test_single_column_projection_keeps_first_occurrences(self):
        rows = [(i % 7 if i % 5 else None, f"v{i}") for i in range(40)]
        table = Table(("A", "B"), rows)
        # Projection may sort its input first (alias corner), so read the
        # input's storage order afterwards.
        projected = table.project(["A"])
        classes = shared_pool()._classes
        seen, expected = set(), []
        for interned in table.column_ids("A"):
            if classes[interned] not in seen:
                seen.add(classes[interned])
                expected.append(interned)
        assert projected.column_ids("A") == tuple(expected)
        assert projected.rows == OracleTable(("A", "B"), rows).project(["A"]).rows

    def test_single_column_projection_falls_back_after_a_late_alias(self):
        # A fresh interpreter: this process's pool already holds aliases.
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([os.path.join(root, "src"), root]))
        done = subprocess.run(
            [sys.executable, "-c", _SINGLE_COLUMN_ALIAS],
            env=env, capture_output=True, text=True, timeout=60,
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == "single column ok"

    def test_no_gather_outside_the_compiled_getter(self):
        source = pathlib.Path(data_module.__file__).read_text()
        assert not re.findall(r"map\([\w.]*__getitem__|map\(width", source)

    def test_selection_answers_each_distinct_id_once(self, monkeypatch):
        table = Table(("A", "B"), [(i % 4, f"b{i}") for i in range(12)] + [(None, "n")])
        calls = []

        def less(value, operand):
            calls.append(value)
            return value < operand

        monkeypatch.setitem(data_module._OPERATORS, "<", less)
        below = table.select(Predicate([Comparison("A", "<", 2)]))
        assert calls == [0, 1, 2, 3]  # the None row never reaches the operator
        assert set(below.rows) == {row for row in table.rows if row[0] in (0, 1)}
        assert table.select(Predicate([Comparison("B", "<", "c")])) is not table  # "n" fails
        whole = Table(("A",), [(3,), (1,), (3,), (2,)])
        assert whole.select(Predicate([Comparison("A", "<", 4)])) is whole

    def test_first_incomparable_value_in_storage_order_raises(self):
        table = Table(("A",), [(1,), ("t",), (2,), ("s",)])
        with pytest.raises(PredicateError, match="cannot compare 't' < 2"):
            table.select(Predicate([Comparison("A", "<", 2)]))


_SINGLE_COLUMN_ALIAS = """
from repro.engine.data import Table, shared_pool
from tests._row_oracle import OracleTable

pool = shared_pool()
passes = []
general = Table._keys
Table._keys = lambda table, columns: passes.append(len(columns)) or general(table, columns)

rows = [(i % 7 if i % 5 else None, "v%d" % i) for i in range(60)]
table = Table(("A", "B"), rows)
assert not pool.has_aliases
del passes[:]
fast = table._distinct([table.column_ids("A")])
assert passes == []  # ids are class ids: one first-occurrence pass
pool.has_aliases = True  # force the general path over the same ids
try:
    slow = table._distinct([table.column_ids("A")])
finally:
    pool.has_aliases = False
assert passes == [1] and fast == slow and len(fast[0]) == 8
projected = table.project(["A"])
assert projected.column_ids("A") == fast[0]

Table(("Z",), [(True,)])  # True joins 1's class
assert pool.has_aliases
del passes[:]
aliased = [(1,), (True,), (2,), (1,)]
assert Table(("A",), aliased).rows == OracleTable(("A",), aliased).rows == ((1,), (2,))
assert passes == [1]
mixed = [(True, "t"), (1, "o"), (2, "x")]
expected = OracleTable(("A", "B"), mixed).project(["A"]).rows
assert Table(("A", "B"), mixed).project(["A"]).rows == expected
assert table.project(["A"]) is projected  # memoized before the alias, still right
assert projected.rows == OracleTable(("A", "B"), rows).project(["A"]).rows
print("single column ok")
"""


class TestPickledTables:
    """Ids are process-local: a pickled or copied table ships its values
    and lands on the receiving process's shared pool."""

    CLONES = {"pickle": lambda t: pickle.loads(pickle.dumps(t)), "deepcopy": copy.deepcopy}

    @pytest.mark.parametrize("how", sorted(CLONES))
    def test_round_trip_lands_on_the_shared_pool(self, how):
        clone = self.CLONES[how]
        table = Table(("a", "b"), [(1, "x"), (True, "y"), (2, None), (2.5, "x")])
        partner = Table(("b", "e"), [("x", f"{how} e"), ("y", "e2"), (None, "n")])
        for original in (table.natural_join(partner), table):
            storage = [original.column_ids(a) for a in original.attributes]
            copied = clone(original)
            assert copied.pool is shared_pool()
            assert [copied.column_ids(a) for a in copied.attributes] == storage
            assert copied == original and hash(copied) == hash(original)
            assert copied.byte_size() == original.byte_size()
            assert copied.rows == original.rows
        copied = clone(table)
        later = Table(("a", "b"), [(5, f"first interned after the {how} copy")])
        assert copied.union(later).rows == table.union(later).rows
        assert copied.union(later).byte_size() == table.union(later).byte_size()
        other = Table(("k", "d"), [(1, "one"), (5, f"{how} partner")])
        path = JoinPath.of(("a", "k"))
        assert copied.equi_join(other, path).rows == table.equi_join(other, path).rows
        assert len(copied.equi_join(other, path)) == 2  # 1 and True both match
        later_partner = Table(("b", "f"), [("x", f"{how} f")])
        assert copied.natural_join(later_partner).rows == table.natural_join(later_partner).rows

