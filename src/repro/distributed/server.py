"""Servers: named parties holding relations.

A :class:`Server` is a party of the distributed system (Figure 1's
``S_I``, ``S_H``, ...): it owns relation instances and is the grantee of
authorizations.  Servers are deliberately thin — the executor simulates
computation and shipping itself — but they give instances a home, keep
placement consistent with the catalog, and provide the per-server view
used by examples and reports.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Tuple

from repro.algebra.schema import RelationSchema
from repro.engine.data import Table
from repro.exceptions import ExecutionError, UnknownRelationError


class Server:
    """One party of the distributed system.

    Args:
        name: unique server name (e.g. ``"S_I"``).
    """

    def __init__(self, name: str) -> None:
        if not name or not isinstance(name, str):
            raise ExecutionError(f"invalid server name: {name!r}")
        self._name = name
        self._schemas: Dict[str, RelationSchema] = {}
        self._tables: Dict[str, Table] = {}

    @property
    def name(self) -> str:
        """The server's name."""
        return self._name

    # ------------------------------------------------------------------
    # Schemas
    # ------------------------------------------------------------------

    def host_relation(self, schema: RelationSchema) -> None:
        """Declare that this server stores ``schema``.

        Raises:
            ExecutionError: if the schema is placed at a different server
                or a relation of that name is already hosted.
        """
        if schema.server is not None and schema.server != self._name:
            raise ExecutionError(
                f"relation {schema.name!r} is placed at {schema.server!r}, "
                f"not at {self._name!r}"
            )
        if schema.name in self._schemas:
            raise ExecutionError(f"{self._name} already hosts {schema.name!r}")
        self._schemas[schema.name] = schema

    def hosts(self, relation_name: str) -> bool:
        """Whether this server stores ``relation_name``."""
        return relation_name in self._schemas

    def relations(self) -> List[RelationSchema]:
        """Hosted relation schemas, sorted by name."""
        return [self._schemas[name] for name in sorted(self._schemas)]

    # ------------------------------------------------------------------
    # Instances
    # ------------------------------------------------------------------

    def load_table(self, relation_name: str, table: Table) -> None:
        """Attach an instance to a hosted relation.

        The table must carry every attribute of the relation's schema.

        Raises:
            UnknownRelationError: if the relation is not hosted here.
            ExecutionError: on a schema/instance column mismatch.
        """
        if relation_name not in self._schemas:
            raise UnknownRelationError(relation_name)
        schema = self._schemas[relation_name]
        missing = set(schema.attributes) - set(table.attributes)
        if missing:
            raise ExecutionError(
                f"instance of {relation_name!r} lacks columns {sorted(missing)}"
            )
        fresh = relation_name not in self._tables
        self._tables[relation_name] = table
        if fresh:
            # Kept in name order here, once per relation, so that reading
            # the instances back (every execution does) never sorts.
            self._tables = dict(sorted(self._tables.items()))

    def table(self, relation_name: str) -> Table:
        """The instance of a hosted relation.

        Raises:
            ExecutionError: if no instance was loaded.
        """
        if relation_name not in self._tables:
            raise ExecutionError(
                f"{self._name} holds no instance of {relation_name!r}"
            )
        return self._tables[relation_name]

    def tables(self) -> Iterator[Tuple[str, Table]]:
        """(relation name, instance) pairs, sorted by name."""
        return iter(self._tables.items())

    def __repr__(self) -> str:
        return f"Server({self._name}, relations={sorted(self._schemas)})"
