"""The runtime statistics store — harvested profiles, decayed, fed
back into planning.

`StatsStore` keeps three families of observations:

* per-relation row counts,
* per-attribute distinct-value counts (NDV) and average widths,
* per-join-path observed selectivities (keyed by
  :func:`repro.engine.coster.join_path_key`).

Each family blends new observations with an exponential moving
average: with decay ``d``, an observation enters at weight ``d`` and an
observation ``k`` harvests old retains weight ``d·(1-d)^k`` — the store
tracks drifting data without a stale observation pinning plans forever.
``decay=1.0`` means "trust the latest run completely".

`table_stats` merges the store over a static base-stats mapping,
producing the effective `TableStats` the plan search fed this store
(`cheapest_safe_plan(..., store.table_stats(stats), selectivities=store)`)
plans with; relations the store has never seen keep their static entries.
"""

from __future__ import annotations

from typing import Any, Dict, Mapping, Optional

from repro.engine.coster import TableStats
from repro.exceptions import ReproError


class StatsStore:
    """Decayed runtime statistics harvested from query profiles."""

    __slots__ = ("decay", "_rows", "_distinct", "_widths", "_selectivities", "harvests")

    def __init__(self, decay: float = 0.5) -> None:
        if not 0.0 < decay <= 1.0:
            raise ReproError(f"decay must be in (0, 1], got {decay}")
        self.decay = float(decay)
        self._rows: Dict[str, float] = {}
        self._distinct: Dict[str, Dict[str, float]] = {}
        self._widths: Dict[str, Dict[str, float]] = {}
        self._selectivities: Dict[str, float] = {}
        self.harvests = 0

    def __len__(self) -> int:
        return len(self._rows) + len(self._selectivities)

    def _blend(self, old: Optional[float], new: float) -> float:
        if old is None:
            return float(new)
        return (1.0 - self.decay) * old + self.decay * float(new)

    # -- observations --------------------------------------------------

    def observe_relation(
        self,
        name: str,
        rows: float,
        distinct: Mapping[str, float] = (),
        widths: Mapping[str, float] = (),
    ) -> None:
        """Fold one observed scan of a base relation into the store."""
        self._rows[name] = self._blend(self._rows.get(name), rows)
        seen_distinct = self._distinct.setdefault(name, {})
        for attribute, value in dict(distinct).items():
            seen_distinct[attribute] = self._blend(
                seen_distinct.get(attribute), value
            )
        seen_widths = self._widths.setdefault(name, {})
        for attribute, value in dict(widths).items():
            seen_widths[attribute] = self._blend(seen_widths.get(attribute), value)

    def observe_selectivity(self, path_key: str, value: float) -> None:
        """Fold one observed join selectivity into the store."""
        value = min(1.0, max(0.0, float(value)))
        self._selectivities[path_key] = self._blend(
            self._selectivities.get(path_key), value
        )

    def harvest(self, profile) -> int:
        """Fold one `QueryProfile` into the store.

        Returns the number of observations applied (relation scans plus
        join selectivities), so callers can meter harvest activity.
        """
        applied = 0
        for name in sorted(profile.relations):
            observation = profile.relations[name]
            self.observe_relation(
                name, observation.rows, observation.distinct, observation.widths
            )
            applied += 1
        for operator in profile.sorted_operators():
            if operator.path_key and operator.selectivity is not None:
                self.observe_selectivity(operator.path_key, operator.selectivity)
                applied += 1
        if applied:
            self.harvests += 1
        return applied

    # -- queries -------------------------------------------------------

    def relation_rows(self, name: str) -> Optional[float]:
        return self._rows.get(name)

    def selectivity(self, path_key: str) -> Optional[float]:
        return self._selectivities.get(path_key)

    def table_stats(
        self, static: Mapping[str, TableStats]
    ) -> Dict[str, TableStats]:
        """Effective statistics: observed values over the static base.

        For observed relations, observed rows/NDV/widths win and any
        attribute the store has not seen falls back to the static entry
        (NDV clamped to the observed row count).  Unobserved relations
        pass through untouched.
        """
        effective: Dict[str, TableStats] = dict(static)
        for name, rows in self._rows.items():
            base = static.get(name)
            distinct = dict(base.distinct) if base is not None else {}
            widths = dict(base.widths) if base is not None else {}
            distinct = {a: min(d, rows) for a, d in distinct.items()}
            distinct.update(
                {a: min(d, rows) for a, d in self._distinct.get(name, {}).items()}
            )
            widths.update(self._widths.get(name, {}))
            effective[name] = TableStats(rows, distinct, widths)
        return effective

    def snapshot(self) -> Dict[str, Any]:
        """Deterministic plain-data view (also the serialized form)."""
        return {
            "decay": self.decay,
            "harvests": self.harvests,
            "relations": {
                name: {
                    "rows": self._rows[name],
                    "distinct": dict(sorted(self._distinct.get(name, {}).items())),
                    "widths": dict(sorted(self._widths.get(name, {}).items())),
                }
                for name in sorted(self._rows)
            },
            "selectivities": dict(sorted(self._selectivities.items())),
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"StatsStore(decay={self.decay}, relations={len(self._rows)}, "
            f"paths={len(self._selectivities)}, harvests={self.harvests})"
        )
