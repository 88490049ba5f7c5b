"""Unit tests for JSON (de)serialization."""

import json

import pytest

from repro.algebra.joins import JoinPath
from repro.core.openpolicy import Denial, OpenPolicy
from repro.io import (
    catalog_from_dict,
    catalog_to_dict,
    load_json,
    open_policy_from_dict,
    open_policy_to_dict,
    policy_from_dict,
    policy_to_dict,
    save_json,
    spec_from_dict,
    spec_to_dict,
)
from repro.exceptions import ReproError
from repro.workloads.medical import example_query_spec, medical_catalog, medical_policy


class TestCatalogRoundTrip:
    def test_round_trip(self):
        original = medical_catalog()
        restored = catalog_from_dict(catalog_to_dict(original))
        assert restored.describe() == original.describe()
        assert restored.join_edges() == original.join_edges()

    def test_deterministic_encoding(self):
        first = json.dumps(catalog_to_dict(medical_catalog()), sort_keys=True)
        second = json.dumps(catalog_to_dict(medical_catalog()), sort_keys=True)
        assert first == second

    def test_missing_relations_key(self):
        with pytest.raises(ReproError):
            catalog_from_dict({})

    def test_placement_preserved(self):
        restored = catalog_from_dict(catalog_to_dict(medical_catalog()))
        assert restored.server_of("Insurance") == "S_I"

    def test_primary_keys_preserved(self):
        restored = catalog_from_dict(catalog_to_dict(medical_catalog()))
        assert restored.relation("Hospital").primary_key == ("Patient", "Disease")


class TestPolicyRoundTrip:
    def test_round_trip(self):
        original = medical_policy()
        restored = policy_from_dict(policy_to_dict(original))
        assert len(restored) == len(original)
        for rule in original:
            assert rule in restored

    def test_join_paths_survive(self):
        restored = policy_from_dict(policy_to_dict(medical_policy()))
        rule7 = [
            r
            for r in restored.rules_for("S_H")
            if r.join_path
            == JoinPath.of(("Patient", "Citizen"), ("Citizen", "Holder"))
        ]
        assert len(rule7) == 1

    def test_missing_key(self):
        with pytest.raises(ReproError):
            policy_from_dict({"rules": []})


class TestOpenPolicyRoundTrip:
    def test_round_trip(self):
        original = OpenPolicy(
            [
                Denial({"Disease"}, None, "S_I"),
                Denial({"Plan"}, JoinPath.of(("Holder", "Patient")), "S_N"),
            ]
        )
        restored = open_policy_from_dict(open_policy_to_dict(original))
        assert len(restored) == 2
        assert restored.describe() == original.describe()

    def test_missing_key(self):
        with pytest.raises(ReproError):
            open_policy_from_dict({})


class TestSpecRoundTrip:
    def test_round_trip(self):
        original = example_query_spec()
        restored = spec_from_dict(spec_to_dict(original))
        assert restored.relations == original.relations
        assert restored.join_paths == original.join_paths
        assert restored.select == original.select
        assert restored.where == original.where

    def test_where_round_trip(self, catalog):
        from repro.sql import parse_query

        original = parse_query(
            "SELECT Plan FROM Insurance WHERE Plan = 'gold' AND Holder != Plan",
            catalog,
        )
        restored = spec_from_dict(spec_to_dict(original))
        assert restored.where == original.where

    def test_join_tree_round_trip(self, catalog):
        from repro.sql import parse_query

        original = parse_query(
            "SELECT Plan FROM Insurance JOIN (Nat_registry JOIN Hospital "
            "ON Citizen = Patient) ON Holder = Citizen WHERE Plan = 'gold'",
            catalog,
        )
        encoded = spec_to_dict(original)
        assert encoded["join_tree"][0] == "Insurance"
        restored = spec_from_dict(json.loads(json.dumps(encoded)))
        assert restored.join_tree == original.join_tree
        assert restored.fingerprint() == original.fingerprint()
        assert "join_tree" not in spec_to_dict(example_query_spec())

    def test_missing_key(self):
        with pytest.raises(ReproError):
            spec_from_dict({"relations": ["R"]})


class TestFiles:
    def test_save_and_load(self, tmp_path):
        path = str(tmp_path / "catalog.json")
        save_json(catalog_to_dict(medical_catalog()), path)
        restored = catalog_from_dict(load_json(path))
        assert restored.relation_names() == medical_catalog().relation_names()

    def test_load_non_object(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("[1, 2, 3]")
        with pytest.raises(ReproError):
            load_json(str(path))

    def test_saved_file_is_stable(self, tmp_path):
        first = tmp_path / "a.json"
        second = tmp_path / "b.json"
        save_json(policy_to_dict(medical_policy()), str(first))
        save_json(policy_to_dict(medical_policy()), str(second))
        assert first.read_text() == second.read_text()
