"""Unit tests for the compact test builders (repro.testing)."""

import pytest

from repro.algebra.joins import JoinPath
from repro.core.authorization import Policy
from repro.core.openpolicy import OpenPolicy
from repro.exceptions import ReproError
from repro.testing import deny, grant, quick_catalog, quick_path, quick_relation


class TestQuickRelation:
    def test_full_spec(self):
        schema = quick_relation("Insurance(Holder, Plan) @ S_I")
        assert schema.name == "Insurance"
        assert schema.attributes == ("Holder", "Plan")
        assert schema.primary_key == ("Holder",)
        assert schema.server == "S_I"

    def test_space_separated_attributes(self):
        assert quick_relation("R(a b c)").attributes == ("a", "b", "c")

    def test_no_server(self):
        assert quick_relation("R(a)").server is None

    @pytest.mark.parametrize("bad", ["R", "R()", "(a, b) @ S", "R(a) at S"])
    def test_malformed(self, bad):
        with pytest.raises(Exception):
            quick_relation(bad)


class TestQuickCatalog:
    def test_catalog_with_edges(self):
        catalog = quick_catalog(
            "R(a, b) @ S1", "T(c, d) @ S2", edges=["a = c", "b=d"]
        )
        assert catalog.relation_names() == ["R", "T"]
        assert len(catalog.join_edges()) == 2

    def test_bad_edge(self):
        with pytest.raises(ReproError):
            quick_catalog("R(a) @ S1", edges=["a c"])

    def test_usable_by_planner(self):
        from repro.algebra.builder import QuerySpec, build_plan
        from repro.core.planner import SafePlanner

        catalog = quick_catalog("R(a, b) @ S1", "T(c, d) @ S2", edges=["a = c"])
        policy = Policy([grant("S1", "c d")])
        spec = QuerySpec(
            ["R", "T"], [JoinPath.of(("a", "c"))], frozenset({"b", "d"})
        )
        assignment, _ = SafePlanner(policy).plan(build_plan(catalog, spec))
        assert assignment.result_server() == "S1"


class TestQuickPath:
    def test_empty(self):
        assert quick_path("").is_empty()
        assert quick_path("   ").is_empty()

    def test_multi_condition(self):
        path = quick_path("a = c, b = d")
        assert path == JoinPath.of(("a", "c"), ("b", "d"))

    def test_malformed(self):
        with pytest.raises(ReproError):
            quick_path("a =")


class TestGrantAndDeny:
    def test_grant_empty_path(self):
        rule = grant("S2", "a b")
        assert rule.server == "S2"
        assert rule.attributes == frozenset({"a", "b"})
        assert rule.join_path.is_empty()

    def test_grant_with_path(self):
        rule = grant("S1", "a, c, d", "a = c")
        assert rule.join_path == JoinPath.of(("a", "c"))

    def test_grants_form_a_policy(self):
        policy = Policy([grant("S1", "a"), grant("S1", "b", "a = c")])
        assert len(policy) == 2

    def test_deny_forms_open_policy(self):
        policy = OpenPolicy([deny("S1", "Disease"), deny("S2", "Plan", "a = c")])
        assert len(policy) == 2
        assert not policy.can_view(
            __import__("repro.core.profile", fromlist=["RelationProfile"]).RelationProfile(
                {"Disease"}
            ),
            "S1",
        )


def test_module_doctests():
    import doctest

    import repro.testing

    results = doctest.testmod(repro.testing)
    assert results.failed == 0
    assert results.attempted > 0
