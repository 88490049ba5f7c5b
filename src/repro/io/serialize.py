"""JSON-friendly dictionaries for the model's value objects.

Catalogs, policies (closed and open), and bound query specs round-trip
through plain dictionaries — the interchange format of the CLI
(:mod:`repro.cli`) and the natural way to version policies in a
repository.  All encodings are deterministic: sets are emitted sorted,
join paths as sorted condition pairs, so serialized policies diff
cleanly.

Schema sketch::

    catalog: {"relations": [{"name", "attributes", "primary_key",
                             "server"}], "join_edges": [[a, b], ...]}
    policy:  {"authorizations": [{"attributes": [...],
                                  "join_path": [[a, b], ...],
                                  "server": ...}]}
    open policy: {"denials": [... same rule shape ...]}
    spec:    {"relations": [...], "join_steps": [[[a, b], ...], ...],
              "select": [...], "where": [{"attribute", "op", "operand",
                                          "operand_is_attribute"}],
              "join_tree": name | [left, right, [[a, b], ...]]}
             (``join_tree`` only for a parenthesized FROM clause; its
             relations and post-order join paths are the other two)
"""

from __future__ import annotations

import json
from typing import Any, Dict, List

from repro.algebra.builder import QuerySpec
from repro.algebra.joins import JoinPath
from repro.algebra.predicates import Comparison, Predicate
from repro.algebra.schema import Catalog, RelationSchema
from repro.core.authorization import Authorization, Policy
from repro.core.openpolicy import Denial, OpenPolicy
from repro.core.profile import RelationProfile
from repro.engine.checkpoint import CheckpointEntry, CheckpointJournal
from repro.engine.data import Table
from repro.exceptions import ReproError


def _path_pairs(path: JoinPath) -> List[List[str]]:
    return [[c.first, c.second] for c in path.sorted_conditions()]


def _path_from_pairs(pairs: Any) -> JoinPath:
    if not isinstance(pairs, list):
        raise ReproError(f"join path must be a list of pairs, got {type(pairs).__name__}")
    return JoinPath.of(*[tuple(pair) for pair in pairs])


# ---------------------------------------------------------------------------
# Catalog
# ---------------------------------------------------------------------------

def catalog_to_dict(catalog: Catalog) -> Dict[str, Any]:
    """Encode a catalog (relations sorted by name, edges sorted)."""
    return {
        "relations": [
            {
                "name": relation.name,
                "attributes": list(relation.attributes),
                "primary_key": list(relation.primary_key),
                "server": relation.server,
            }
            for relation in catalog.relations()
        ],
        "join_edges": [[edge.first, edge.second] for edge in catalog.join_edges()],
    }


def catalog_from_dict(data: Dict[str, Any]) -> Catalog:
    """Decode a catalog.

    Raises:
        ReproError: on missing keys; schema errors propagate as
            :class:`~repro.exceptions.SchemaError`.
    """
    if "relations" not in data:
        raise ReproError("catalog dictionary lacks 'relations'")
    catalog = Catalog()
    for entry in data["relations"]:
        catalog.add_relation(
            RelationSchema(
                entry["name"],
                entry["attributes"],
                primary_key=entry.get("primary_key"),
                server=entry.get("server"),
            )
        )
    for left, right in data.get("join_edges", []):
        catalog.add_join_edge(left, right)
    return catalog


# ---------------------------------------------------------------------------
# Policies
# ---------------------------------------------------------------------------

def _rule_to_dict(rule: Authorization) -> Dict[str, Any]:
    return {
        "attributes": sorted(rule.attributes),
        "join_path": _path_pairs(rule.join_path),
        "server": rule.server,
    }


def policy_to_dict(policy: Policy) -> Dict[str, Any]:
    """Encode a closed policy (rules in policy iteration order)."""
    return {"authorizations": [_rule_to_dict(rule) for rule in policy]}


def policy_from_dict(data: Dict[str, Any]) -> Policy:
    """Decode a closed policy."""
    if "authorizations" not in data:
        raise ReproError("policy dictionary lacks 'authorizations'")
    policy = Policy()
    for entry in data["authorizations"]:
        policy.add(
            Authorization(
                entry["attributes"],
                _path_from_pairs(entry.get("join_path", [])),
                entry["server"],
            )
        )
    return policy


def open_policy_to_dict(policy: OpenPolicy) -> Dict[str, Any]:
    """Encode an open policy's denials."""
    return {"denials": [_rule_to_dict(denial) for denial in policy]}


def open_policy_from_dict(data: Dict[str, Any]) -> OpenPolicy:
    """Decode an open policy."""
    if "denials" not in data:
        raise ReproError("open policy dictionary lacks 'denials'")
    policy = OpenPolicy()
    for entry in data["denials"]:
        policy.deny(
            Denial(
                entry["attributes"],
                _path_from_pairs(entry.get("join_path", [])),
                entry["server"],
            )
        )
    return policy


# ---------------------------------------------------------------------------
# Query specs
# ---------------------------------------------------------------------------

def _tree_to_list(shape: Any) -> Any:
    if isinstance(shape, str):
        return shape
    return [_tree_to_list(shape[0]), _tree_to_list(shape[1]), _path_pairs(shape[2])]


def _tree_from_list(data: Any) -> Any:
    if isinstance(data, str):
        return data
    if not (isinstance(data, list) and len(data) == 3):
        raise ReproError(f"join tree node must be a name or a triple, got {data!r}")
    return (_tree_from_list(data[0]), _tree_from_list(data[1]), _path_from_pairs(data[2]))


def spec_to_dict(spec: QuerySpec) -> Dict[str, Any]:
    """Encode a bound query spec."""
    encoded = {
        "relations": list(spec.relations),
        "join_steps": [_path_pairs(path) for path in spec.join_paths],
        "select": sorted(spec.select),
        "where": [
            {
                "attribute": comparison.attribute,
                "op": comparison.op,
                "operand": comparison.operand,
                "operand_is_attribute": comparison.operand_is_attribute,
            }
            for comparison in spec.where.comparisons
        ],
    }
    if spec.join_tree is not None:
        encoded["join_tree"] = _tree_to_list(spec.join_tree)
    return encoded


def spec_from_dict(data: Dict[str, Any]) -> QuerySpec:
    """Decode a bound query spec."""
    for key in ("relations", "join_steps", "select"):
        if key not in data:
            raise ReproError(f"query spec dictionary lacks {key!r}")
    comparisons = [
        Comparison(
            entry["attribute"],
            entry["op"],
            entry["operand"],
            operand_is_attribute=entry.get("operand_is_attribute", False),
        )
        for entry in data.get("where", [])
    ]
    if "join_tree" in data:
        return QuerySpec.of_join_tree(
            _tree_from_list(data["join_tree"]),
            frozenset(data["select"]),
            Predicate(comparisons),
        )
    return QuerySpec(
        data["relations"],
        [_path_from_pairs(step) for step in data["join_steps"]],
        frozenset(data["select"]),
        Predicate(comparisons),
    )


# ---------------------------------------------------------------------------
# Tables, profiles, checkpoints
# ---------------------------------------------------------------------------

def table_to_dict(table: Table) -> Dict[str, Any]:
    """Encode a table (columns in table order, rows canonical)."""
    return {
        "attributes": list(table.attributes),
        "rows": [list(row) for row in table.rows],
    }


def table_from_dict(data: Dict[str, Any]) -> Table:
    """Decode a table."""
    if "attributes" not in data:
        raise ReproError("table dictionary lacks 'attributes'")
    return Table(
        data["attributes"], [tuple(row) for row in data.get("rows", [])]
    )


def table_to_columns(table: Table) -> Dict[str, Any]:
    """Encode a table as columnar, dictionary-compressed payloads.

    This is the wire shape of the batch-first engine: per attribute a
    ``values`` dictionary (distinct cell values in first-use order) and
    a ``codes`` array (one index per row, rows in canonical order).
    Repeated values ship once, so wide low-cardinality shipments
    compress well while staying plain JSON.  Deterministic like every
    other encoding in this module.
    """
    attributes = list(table.attributes)
    columns: Dict[str, Any] = {}
    for attribute in attributes:
        dictionary: List[Any] = []
        codes: List[int] = []
        index: Dict[Any, int] = {}
        for value in table.column(attribute):
            # Typed key: 1, 1.0 and True are distinct dictionary entries
            # even though they compare equal.
            key = (value.__class__.__name__, str(value))
            code = index.get(key)
            if code is None:
                code = len(dictionary)
                index[key] = code
                dictionary.append(value)
            codes.append(code)
        columns[attribute] = {"values": dictionary, "codes": codes}
    return {"attributes": attributes, "columns": columns}


def table_from_columns(data: Dict[str, Any]) -> Table:
    """Decode a columnar table payload (inverse of
    :func:`table_to_columns`).

    Raises:
        ReproError: on missing keys, a missing column, an out-of-range
            code, or ragged column lengths.
    """
    if "attributes" not in data:
        raise ReproError("columnar table dictionary lacks 'attributes'")
    attributes = list(data["attributes"])
    columns = data.get("columns", {})
    decoded: List[List[Any]] = []
    length = None
    for attribute in attributes:
        entry = columns.get(attribute)
        if entry is None:
            raise ReproError(f"columnar table payload lacks column {attribute!r}")
        values = entry.get("values", [])
        codes = entry.get("codes", [])
        if length is None:
            length = len(codes)
        elif len(codes) != length:
            raise ReproError(
                f"columnar table payload is ragged: column {attribute!r} has "
                f"{len(codes)} rows, expected {length}"
            )
        try:
            decoded.append([values[code] for code in codes])
        except (IndexError, TypeError) as exc:
            raise ReproError(
                f"columnar table payload has invalid codes for column {attribute!r}"
            ) from exc
    rows = list(zip(*decoded)) if decoded and decoded[0] else []
    return Table(attributes, rows)


def profile_to_dict(profile: RelationProfile) -> Dict[str, Any]:
    """Encode a Figure 4 relation profile ``[Rπ, R⋈, Rσ]``."""
    return {
        "attributes": sorted(profile.attributes),
        "join_path": _path_pairs(profile.join_path),
        "selection_attributes": sorted(profile.selection_attributes),
    }


def profile_from_dict(data: Dict[str, Any]) -> RelationProfile:
    """Decode a relation profile."""
    if "attributes" not in data:
        raise ReproError("profile dictionary lacks 'attributes'")
    return RelationProfile(
        data["attributes"],
        _path_from_pairs(data.get("join_path", [])),
        data.get("selection_attributes", ()),
    )


def checkpoint_to_dict(journal: CheckpointJournal) -> Dict[str, Any]:
    """Encode a checkpoint journal (entries sorted by node id).

    The profile of every entry rides along: resume re-audits each
    holder against the *current* policy from exactly this profile, so
    the journal must carry the information content it claims, not just
    the bytes.
    """
    return {
        "plan_signature": journal.signature,
        "entries": [
            {
                "node_id": entry.node_id,
                "server": entry.server,
                "profile": profile_to_dict(entry.profile),
                "table": table_to_dict(entry.table),
            }
            for entry in journal
        ],
    }


def checkpoint_from_dict(data: Dict[str, Any]) -> CheckpointJournal:
    """Decode a checkpoint journal.

    Decoding performs no authorization checks — the journal is untrusted
    until :meth:`~repro.engine.checkpoint.CheckpointJournal.verify` runs
    against the current plan and policy.
    """
    if "plan_signature" not in data:
        raise ReproError("checkpoint dictionary lacks 'plan_signature'")
    entries = [
        CheckpointEntry(
            int(entry["node_id"]),
            entry["server"],
            profile_from_dict(entry["profile"]),
            table_from_dict(entry["table"]),
        )
        for entry in data.get("entries", [])
    ]
    return CheckpointJournal(data["plan_signature"], entries)


# ---------------------------------------------------------------------------
# Service journals (chaos / crash-consistent recovery)
# ---------------------------------------------------------------------------

def service_journal_to_dict(journal) -> Dict[str, Any]:
    """Encode a :class:`~repro.chaos.journal.ServiceJournal`.

    Entries ride in admission order.  Queries serialize structurally
    (SQL text as-is, bound specs via :func:`spec_to_dict`) and parked
    checkpoint subtrees via :func:`checkpoint_to_dict` — everything a
    restarted service needs to re-verify and resume, nothing transient
    (futures never serialize).
    """
    entries = []
    for entry in journal.entries():
        if isinstance(entry.query, str):
            query: Dict[str, Any] = {"sql": entry.query}
        else:
            query = {"spec": spec_to_dict(entry.query)}
        entries.append(
            {
                "request_id": entry.request_id,
                "tenant": entry.tenant,
                "query": query,
                "recipient": entry.recipient,
                "admitted_epoch": entry.admitted_epoch,
                "state": entry.state,
                "outcome_status": entry.outcome_status,
                "attempts": entry.attempts,
                "checkpoint": (
                    checkpoint_to_dict(entry.checkpoint)
                    if entry.checkpoint is not None
                    else None
                ),
            }
        )
    return {"entries": entries}


def service_journal_from_dict(data: Dict[str, Any]):
    """Decode a :class:`~repro.chaos.journal.ServiceJournal`.

    Decoding performs no authorization checks — recovery re-verifies
    every incomplete entry against the current policy before anything
    runs (see :meth:`repro.service.service.QueryService.recover`).
    """
    from repro.chaos.journal import JournalEntry, ServiceJournal

    if "entries" not in data:
        raise ReproError("service journal dictionary lacks 'entries'")
    journal = ServiceJournal()
    for raw in data["entries"]:
        query_data = raw.get("query", {})
        if "sql" in query_data:
            query: Any = query_data["sql"]
        elif "spec" in query_data:
            query = spec_from_dict(query_data["spec"])
        else:
            raise ReproError(
                "service journal entry query needs 'sql' or 'spec'"
            )
        entry = JournalEntry(
            int(raw["request_id"]),
            raw["tenant"],
            query,
            raw.get("recipient"),
            int(raw.get("admitted_epoch", 0)),
        )
        entry.attempts = int(raw.get("attempts", 0))
        checkpoint = raw.get("checkpoint")
        if checkpoint is not None:
            entry.checkpoint = checkpoint_from_dict(checkpoint)
        if raw.get("state") == "completed":
            entry.state = "completed"
            entry.outcome_status = raw.get("outcome_status") or "ok"
        journal.restore(entry)
    return journal


# ---------------------------------------------------------------------------
# Query profiles and the runtime stats store (EXPLAIN ANALYZE artifacts)
# ---------------------------------------------------------------------------

def _optional_float(value: Any) -> Any:
    return None if value is None else float(value)


def _optional_int(value: Any) -> Any:
    return None if value is None else int(value)


def query_profile_to_dict(profile) -> Dict[str, Any]:
    """Encode a :class:`~repro.profiling.QueryProfile`.

    Deterministic: operators sorted by node id, transfers in shipment
    order, relations sorted by key — so profile
    artifacts written via :func:`save_json` are byte-stable under a
    pinned clock.
    """
    return {
        "query": profile.query,
        "started": float(profile.started),
        "finished": float(profile.finished),
        "estimated_bytes": float(profile.estimated_bytes),
        "estimated_cost": float(profile.estimated_cost),
        "canview_probes": int(profile.canview_probes),
        "misestimate_factor": float(profile.misestimate_factor),
        "operators": [
            {
                "node_id": op.node_id,
                "kind": op.kind,
                "server": op.server,
                "rows": op.rows,
                "est_rows": _optional_float(op.est_rows),
                "left_rows": _optional_int(op.left_rows),
                "right_rows": _optional_int(op.right_rows),
                "selectivity": _optional_float(op.selectivity),
                "path_key": op.path_key,
                "relation": op.relation,
                "started": float(op.started),
                "finished": float(op.finished),
            }
            for op in profile.sorted_operators()
        ],
        "transfers": [
            {
                "node_id": t.node_id,
                "sender": t.sender,
                "receiver": t.receiver,
                "rows": t.rows,
                "bytes": float(t.bytes),
                "est_bytes": _optional_float(t.est_bytes),
                "kind": t.kind,
                "description": t.description,
            }
            for t in profile.transfers
        ],
        "relations": {
            name: {
                "rows": float(obs.rows),
                "distinct": dict(sorted(obs.distinct.items())),
                "widths": dict(sorted(obs.widths.items())),
            }
            for name, obs in sorted(profile.relations.items())
        },
        "misestimates": [dict(flag) for flag in profile.misestimates],
    }


def query_profile_from_dict(data: Dict[str, Any]):
    """Decode a query profile (inverse of :func:`query_profile_to_dict`).

    Raises:
        ReproError: on missing keys.
    """
    from repro.profiling.profile import (
        OperatorProfile,
        QueryProfile,
        RelationObservation,
        TransferProfile,
    )

    for key in ("operators", "transfers"):
        if key not in data:
            raise ReproError(f"query profile dictionary lacks {key!r}")
    profile = QueryProfile(
        data.get("query", ""),
        float(data.get("misestimate_factor", 2.0)),
    )
    profile.started = float(data.get("started", 0.0))
    profile.finished = float(data.get("finished", 0.0))
    profile.estimated_bytes = float(data.get("estimated_bytes", 0.0))
    profile.estimated_cost = float(data.get("estimated_cost", 0.0))
    profile.canview_probes = int(data.get("canview_probes", 0))
    for entry in data["operators"]:
        record = OperatorProfile(
            int(entry["node_id"]),
            entry["kind"],
            entry["server"],
            int(entry["rows"]),
            est_rows=_optional_float(entry.get("est_rows")),
            left_rows=_optional_int(entry.get("left_rows")),
            right_rows=_optional_int(entry.get("right_rows")),
            selectivity=_optional_float(entry.get("selectivity")),
            path_key=entry.get("path_key"),
            relation=entry.get("relation"),
            started=float(entry.get("started", 0.0)),
            finished=float(entry.get("finished", 0.0)),
        )
        profile.operators[record.node_id] = record
    for entry in data["transfers"]:
        profile.transfers.append(
            TransferProfile(
                int(entry["node_id"]),
                entry["sender"],
                entry["receiver"],
                int(entry["rows"]),
                float(entry["bytes"]),
                est_bytes=_optional_float(entry.get("est_bytes")),
                kind=entry.get("kind", "unplanned"),
                description=entry.get("description", ""),
            )
        )
    for name, entry in data.get("relations", {}).items():
        profile.relations[name] = RelationObservation(
            name,
            float(entry["rows"]),
            entry.get("distinct", {}),
            entry.get("widths", {}),
        )
    profile.misestimates = [dict(flag) for flag in data.get("misestimates", [])]
    return profile


def stats_store_to_dict(store) -> Dict[str, Any]:
    """Encode a :class:`~repro.profiling.StatsStore` (its deterministic
    :meth:`~repro.profiling.StatsStore.snapshot` shape)."""
    return store.snapshot()


def stats_store_from_dict(data: Dict[str, Any]):
    """Decode a stats store.

    The decayed state is restored verbatim (the snapshot *is* the
    state): observed relations and selectivities are replayed at decay
    1.0 into a store configured with the serialized decay, so blending
    behavior continues exactly where it left off.

    Raises:
        ReproError: on missing keys.
    """
    from repro.profiling.stats import StatsStore

    if "relations" not in data or "selectivities" not in data:
        raise ReproError(
            "stats store dictionary lacks 'relations' or 'selectivities'"
        )
    store = StatsStore(decay=float(data.get("decay", 0.5)))
    # Direct state restore: bypass blending so the serialized averages
    # come back bit-exact.
    for name, entry in data["relations"].items():
        store._rows[name] = float(entry["rows"])
        store._distinct[name] = {
            attribute: float(value)
            for attribute, value in entry.get("distinct", {}).items()
        }
        store._widths[name] = {
            attribute: float(value)
            for attribute, value in entry.get("widths", {}).items()
        }
    for path_key, value in data["selectivities"].items():
        store._selectivities[path_key] = float(value)
    store.harvests = int(data.get("harvests", 0))
    return store


# ---------------------------------------------------------------------------
# Files
# ---------------------------------------------------------------------------

def save_json(data: Dict[str, Any], path: str) -> None:
    """Write a dictionary as pretty, key-stable JSON."""
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(data, handle, indent=2, sort_keys=True)
        handle.write("\n")


def load_json(path: str) -> Dict[str, Any]:
    """Read a JSON dictionary.

    Raises:
        ReproError: when the file does not contain a JSON object.
    """
    with open(path, "r", encoding="utf-8") as handle:
        data = json.load(handle)
    if not isinstance(data, dict):
        raise ReproError(f"{path} does not contain a JSON object")
    return data
