"""Negative-path validation of the partition-scheme constructors.

Every malformed distribution policy must die eagerly — at construction
or at catalog validation — with a :class:`PartitionSchemeError` naming
the offending piece, never later as a silent mis-route, a ``KeyError``
deep inside a shard run, or a ``trivial`` verdict that quietly runs the
query single-copy.  Same discipline as the fault-injector and
retry-policy constructors: invalid configuration is a caller error with
a clear message, not a runtime surprise.
"""

from __future__ import annotations

import io

import pytest

from repro.cli import main
from repro.core.authorization import Policy
from repro.distributed.system import DistributedSystem
from repro.engine.data import Table
from repro.exceptions import PartitionSchemeError, ReproError
from repro.sharding import (
    MAX_SHARDS,
    HashPartitionScheme,
    PartitionGroup,
    RangePartitionScheme,
)
from repro.service import QueryService
from repro.testing import quick_catalog

GROUP = PartitionGroup("g", ["G1", "G2"])

CATALOG = quick_catalog(
    "R(a, b) @ S1",
    "T(c, d) @ S2",
    edges=["a = c"],
)


class TestExceptionContract:
    def test_is_both_repro_error_and_value_error(self):
        """Callers catching either the library root or plain ValueError
        (the stdlib idiom for bad constructor arguments) see it."""
        assert issubclass(PartitionSchemeError, ReproError)
        assert issubclass(PartitionSchemeError, ValueError)


class TestPartitionGroup:
    def test_empty_group_rejected(self):
        with pytest.raises(PartitionSchemeError, match="no member servers"):
            PartitionGroup("g", [])

    def test_invalid_name_rejected(self):
        with pytest.raises(PartitionSchemeError, match="invalid partition group name"):
            PartitionGroup("", ["G1"])
        with pytest.raises(PartitionSchemeError, match="invalid partition group name"):
            PartitionGroup(None, ["G1"])

    def test_invalid_member_rejected(self):
        with pytest.raises(PartitionSchemeError, match="invalid server"):
            PartitionGroup("g", ["G1", ""])
        with pytest.raises(PartitionSchemeError, match="invalid server"):
            PartitionGroup("g", ["G1", 7])

    def test_duplicate_member_rejected(self):
        with pytest.raises(PartitionSchemeError, match="twice"):
            PartitionGroup("g", ["G1", "G2", "G1"])

    def test_round_robin_placement(self):
        group = PartitionGroup("g", ["A", "B", "C"])
        assert [group.member(i) for i in range(5)] == ["A", "B", "C", "A", "B"]


class TestSchemeConstruction:
    def test_invalid_relation_name(self):
        with pytest.raises(PartitionSchemeError, match="invalid relation name"):
            HashPartitionScheme("", ["a"], 2, GROUP)

    def test_no_partition_attributes(self):
        with pytest.raises(PartitionSchemeError, match="no partition attributes"):
            HashPartitionScheme("R", [], 2, GROUP)

    def test_repeated_partition_attributes(self):
        with pytest.raises(PartitionSchemeError, match="repeats attributes"):
            HashPartitionScheme("R", ["a", "a"], 2, GROUP)

    def test_shard_count_type_checked(self):
        with pytest.raises(PartitionSchemeError, match="must be an int"):
            HashPartitionScheme("R", ["a"], 2.0, GROUP)
        # bool is an int subclass; still nonsense as a shard count.
        with pytest.raises(PartitionSchemeError, match="must be an int"):
            HashPartitionScheme("R", ["a"], True, GROUP)

    def test_shard_count_bounds(self):
        with pytest.raises(PartitionSchemeError, match=r"\[2, "):
            HashPartitionScheme("R", ["a"], 1, GROUP)
        with pytest.raises(PartitionSchemeError, match=r"\[2, "):
            HashPartitionScheme("R", ["a"], MAX_SHARDS + 1, GROUP)
        # Boundary values themselves are fine.
        HashPartitionScheme("R", ["a"], 2, GROUP)
        HashPartitionScheme("R", ["a"], MAX_SHARDS, GROUP)

    def test_group_type_checked(self):
        with pytest.raises(PartitionSchemeError, match="PartitionGroup"):
            HashPartitionScheme("R", ["a"], 2, ["G1", "G2"])

    def test_hash_function_name_checked(self):
        with pytest.raises(PartitionSchemeError, match="invalid hash function"):
            HashPartitionScheme("R", ["a"], 2, GROUP, function="")
        with pytest.raises(PartitionSchemeError, match="invalid hash function"):
            HashPartitionScheme("R", ["a"], 2, GROUP, function=None)


class TestRangeBoundaries:
    def test_needs_at_least_one_boundary(self):
        with pytest.raises(PartitionSchemeError, match="at least one boundary"):
            RangePartitionScheme("R", "a", [], GROUP)

    def test_none_boundary_rejected(self):
        with pytest.raises(PartitionSchemeError, match="None boundary"):
            RangePartitionScheme("R", "a", [1, None, 5], GROUP)

    def test_equal_boundaries_are_overlapping_ranges(self):
        with pytest.raises(PartitionSchemeError, match="overlapping ranges"):
            RangePartitionScheme("R", "a", [1, 1], GROUP)
        # Aliased representations of the same split point too: 2 == 2.0.
        with pytest.raises(PartitionSchemeError, match="overlapping ranges"):
            RangePartitionScheme("R", "a", [2, 2.0], GROUP)

    def test_descending_boundaries_are_overlapping_ranges(self):
        with pytest.raises(PartitionSchemeError, match="overlapping ranges"):
            RangePartitionScheme("R", "a", [5, 3], GROUP)

    def test_incomparable_boundary_types_rejected(self):
        with pytest.raises(PartitionSchemeError, match="incomparable"):
            RangePartitionScheme("R", "a", [1, "x"], GROUP)

    def test_shard_count_is_boundaries_plus_one(self):
        scheme = RangePartitionScheme("R", "a", [10, 20, 30], GROUP)
        assert scheme.shards == 4
        assert scheme.shard_of((5,)) == 0
        assert scheme.shard_of((10,)) == 1
        assert scheme.shard_of((25,)) == 2
        assert scheme.shard_of((99,)) == 3
        assert scheme.shard_of((None,)) == 0  # total routing by convention

    def test_unorderable_key_at_routing_time(self):
        scheme = RangePartitionScheme("R", "a", [10, 20], GROUP)
        with pytest.raises(PartitionSchemeError, match="cannot order"):
            scheme.shard_of(("oops",))


class TestCatalogValidation:
    def test_unknown_relation(self):
        scheme = HashPartitionScheme("Nope", ["a"], 2, GROUP)
        with pytest.raises(PartitionSchemeError, match="unknown relation 'Nope'"):
            scheme.validate_against(CATALOG)

    def test_unknown_attributes_listed_with_actual_schema(self):
        scheme = HashPartitionScheme("R", ["a", "zz"], 2, GROUP)
        with pytest.raises(PartitionSchemeError) as excinfo:
            scheme.validate_against(CATALOG)
        message = str(excinfo.value)
        assert "'R'" in message and "zz" in message
        assert "['a', 'b']" in message  # what the relation actually has

    def test_valid_scheme_passes(self):
        HashPartitionScheme("R", ["a", "b"], 2, GROUP).validate_against(CATALOG)
        RangePartitionScheme("T", "c", [10], GROUP).validate_against(CATALOG)


class TestUnknownRelationIsAConfigurationError:
    """A scheme naming a relation the catalog does not hold dies where
    every path builds its coordinator — it is not a ``trivial`` verdict
    under which a typo runs the query single-copy unnoticed."""

    TYPO = {"Rr": HashPartitionScheme("Rr", ["a"], 2, GROUP)}

    def test_execute_sharded(self):
        system = DistributedSystem(CATALOG, Policy())
        with pytest.raises(PartitionSchemeError, match="unknown relation 'Rr'"):
            system.execute_sharded("SELECT a FROM R", self.TYPO)

    def test_service_constructor(self):
        system = DistributedSystem(CATALOG, Policy())
        with pytest.raises(PartitionSchemeError, match="unknown relation 'Rr'"):
            QueryService(system, shard_schemes=self.TYPO)

    def test_cli_exits_2(self):
        out = io.StringIO()
        code = main(
            [
                "shard",
                "--sql", "SELECT Holder, Plan FROM Insurance",
                "--scheme", "Insuranse:hash:Holder:2",
                "--group", "S_N",
                "--diff",
                "--citizens", "30",
            ],
            out=out,
        )
        assert code == 2
        assert "unknown relation 'Insuranse'" in out.getvalue()


class TestSplitValidation:
    def test_split_requires_partition_attributes(self):
        scheme = HashPartitionScheme("R", ["a"], 2, GROUP)
        table = Table(("x", "y"), [(1, 2)])
        with pytest.raises(PartitionSchemeError, match="missing partition"):
            scheme.split(table)
        partly = HashPartitionScheme("R", ["x", "a"], 2, GROUP)
        with pytest.raises(PartitionSchemeError, match=r"attributes \['a'\]"):
            partly.split(table)

    def test_split_is_disjoint_and_exhaustive(self):
        scheme = HashPartitionScheme("R", ["a"], 4, GROUP)
        table = Table(("a", "b"), [(i, f"v{i}") for i in range(20)])
        shards = scheme.split(table)
        assert len(shards) == 4
        assert sum(len(s) for s in shards) == len(table)
        seen = set()
        for shard in shards:
            rows = set(shard.rows)
            assert not rows & seen
            seen |= rows
