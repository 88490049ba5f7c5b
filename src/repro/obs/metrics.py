"""Process-wide metrics: counters, gauges and histograms with labels.

A :class:`MetricsRegistry` is a flat namespace of metric *families*;
each family owns labeled *series* (one per distinct label set).  The
design follows the Prometheus data model closely enough that
:meth:`MetricsRegistry.prometheus_text` produces valid text exposition
format, while :meth:`MetricsRegistry.snapshot` yields a plain nested
dictionary for embedding into ``BENCH_*.json`` artifacts (see
:func:`repro.analysis.reporting.write_bench_json`).

Everything here is dependency-free and deterministic: no wall clock, no
background threads, no global state beyond the registry the caller
holds.  Creation of series is lazy — incrementing a counter with a
never-seen label set materializes the series — so instrumented code
never needs to pre-declare its label universe.
"""

from __future__ import annotations

import math
from itertools import accumulate
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

#: Default histogram bucket upper bounds (bytes/latency friendly).
DEFAULT_BUCKETS: Tuple[float, ...] = (
    1.0, 4.0, 16.0, 64.0, 256.0, 1024.0, 4096.0, 16384.0, 65536.0,
)

LabelSet = Tuple[Tuple[str, str], ...]

#: Label value types the registry's series index trusts: two equal
#: values of one of these types render the same string.
_INDEXED = frozenset({str, int, bool, type(None)})


def _labelset(labels: Dict[str, object]) -> LabelSet:
    """Canonical (sorted, stringified) form of one label mapping."""
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


def _format_value(value: float) -> str:
    """Prometheus-style number rendering: integers without the dot,
    non-finite values as the exposition format spells them."""
    if math.isnan(value):
        return "NaN"
    if math.isinf(value):
        return "+Inf" if value > 0 else "-Inf"
    if value == int(value):
        return str(int(value))
    return repr(value)


def _format_labels(labels: LabelSet) -> str:
    if not labels:
        return ""
    inner = ",".join(f'{k}="{_escape(v)}"' for k, v in labels)
    return "{" + inner + "}"


def _escape(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


class _Family:
    """Common series bookkeeping shared by the three metric kinds."""

    kind = "untyped"

    def __init__(self, name: str, help_text: str = "") -> None:
        _validate_metric_name(name)
        self.name = name
        self.help = help_text
        # A series is a one-slot *cell*, so whoever resolved it once
        # (the registry's index) updates it without asking again.
        self._series: Dict[LabelSet, List[float]] = {}

    def _cell(self, key: LabelSet) -> List[float]:
        """The series' cell, materialized at 0.0 on first touch."""
        return self._series.get(key) or self._series.setdefault(key, [0.0])

    def labelsets(self) -> List[LabelSet]:
        """Every label set with a live series, sorted."""
        return sorted(self._series)

    def value(self, **labels: object) -> float:
        """Current value of one series (0.0 if never touched)."""
        cell = self._series.get(_labelset(labels))
        return cell[0] if cell is not None else 0.0

    def snapshot(self) -> Dict[str, float]:
        """``rendered-labels -> value`` for every series."""
        return {
            _format_labels(key) or "": cell[0]
            for key, cell in sorted(self._series.items())
        }


class Counter(_Family):
    """A monotonically increasing family of labeled series."""

    kind = "counter"

    def inc(self, amount: float = 1.0, **labels: object) -> None:
        """Add ``amount`` (must be >= 0) to one series."""
        if amount < 0:
            raise ValueError(f"counters only go up (got {amount!r})")
        self._cell(_labelset(labels))[0] += amount


class Gauge(_Family):
    """A settable family of labeled series."""

    kind = "gauge"

    def set(self, value: float, **labels: object) -> None:
        """Set one series to ``value``."""
        self._cell(_labelset(labels))[0] = float(value)

    def inc(self, amount: float = 1.0, **labels: object) -> None:
        """Add ``amount`` (may be negative) to one series."""
        self._cell(_labelset(labels))[0] += amount


class _HistogramSeries:
    """One histogram series (its cell): per-bucket counts (the last slot
    is ``+Inf``), sum and observation count."""

    __slots__ = ("buckets", "counts", "sum", "total")

    def __init__(self, buckets: Tuple[float, ...]) -> None:
        self.buckets = buckets
        self.counts = [0] * (len(buckets) + 1)
        self.sum = 0.0
        self.total = 0

    def observe(self, value: float) -> None:
        counts = self.counts
        for index, bound in enumerate(self.buckets):
            if value <= bound:
                counts[index] += 1
                break
        else:
            counts[-1] += 1
        self.sum += value
        self.total += 1

    def cumulative(self) -> List[int]:
        """Cumulative counts per bucket, ``+Inf`` last."""
        return list(accumulate(self.counts))


class Histogram:
    """Cumulative-bucket histogram family (Prometheus semantics).

    Args:
        name: metric name (exposed as ``name_bucket/_sum/_count``).
        help_text: one-line description.
        buckets: strictly increasing upper bounds; a ``+Inf`` bucket is
            implicit.
    """

    kind = "histogram"

    def __init__(
        self,
        name: str,
        help_text: str = "",
        buckets: Sequence[float] = DEFAULT_BUCKETS,
    ) -> None:
        _validate_metric_name(name)
        if not buckets or list(buckets) != sorted(set(buckets)):
            raise ValueError("histogram buckets must be strictly increasing")
        self.name = name
        self.help = help_text
        self.buckets = tuple(float(b) for b in buckets)
        self._series: Dict[LabelSet, _HistogramSeries] = {}

    def _cell(self, key: LabelSet) -> _HistogramSeries:
        """The series' cell, materialized empty on first touch."""
        return self._series.get(key) or self._series.setdefault(
            key, _HistogramSeries(self.buckets)
        )

    def observe(self, value: float, **labels: object) -> None:
        """Record one observation into the matching cumulative buckets."""
        self._cell(_labelset(labels)).observe(value)

    def labelsets(self) -> List[LabelSet]:
        return sorted(self._series)

    def count(self, **labels: object) -> int:
        """Observations recorded for one series."""
        cell = self._series.get(_labelset(labels))
        return cell.total if cell is not None else 0

    def sum(self, **labels: object) -> float:
        """Sum of observations for one series."""
        cell = self._series.get(_labelset(labels))
        return cell.sum if cell is not None else 0.0

    def quantile(self, q: float, **labels: object) -> Optional[float]:
        """Nearest-rank quantile estimate from the cumulative buckets.

        Returns the upper bound of the first bucket whose cumulative
        count reaches rank ``ceil(q * count)`` — the standard Prometheus
        ``histogram_quantile`` resolution, conservative to one bucket
        width.  ``None`` for a series with no observations; the largest
        finite bound when the rank lands in the ``+Inf`` bucket (there
        is no finite upper estimate beyond it).
        """
        if not 0.0 < q <= 1.0:
            raise ValueError(f"quantile must be in (0, 1] (got {q!r})")
        cell = self._series.get(_labelset(labels))
        if cell is None or cell.total == 0:
            return None
        rank = max(1, math.ceil(q * cell.total))
        for bound, cumulative in zip(self.buckets, cell.cumulative()):
            if cumulative >= rank:
                return bound
        return self.buckets[-1]

    def snapshot(self) -> Dict[str, Dict[str, float]]:
        out: Dict[str, Dict[str, float]] = {}
        for key, cell in sorted(self._series.items()):
            cumulative = cell.cumulative()
            rendered: Dict[str, float] = {
                f"le={_format_value(bound)}": count
                for bound, count in zip(self.buckets, cumulative)
            }
            rendered["le=+Inf"] = cumulative[-1]
            rendered["sum"] = cell.sum
            rendered["count"] = cell.total
            out[_format_labels(key) or ""] = rendered
        return out


def _validate_metric_name(name: str) -> None:
    if not name or not all(c.isalnum() or c in "_:" for c in name) or name[0].isdigit():
        raise ValueError(f"invalid metric name: {name!r}")


class MetricsRegistry:
    """A namespace of metric families.

    Families are created on first use (:meth:`counter` / :meth:`gauge` /
    :meth:`histogram` are get-or-create); re-requesting a name with a
    different kind raises ``ValueError`` — a name means one thing.
    """

    def __init__(self) -> None:
        self._families: Dict[str, object] = {}
        # (family class, name, label items, label value types) -> the
        # series' cell: what `inc` / `set_gauge` / `observe` resolve a
        # call to, once per live series (and keyword order).
        self._cells: Dict[tuple, object] = {}

    def _get_or_create(self, cls, name: str, help_text: str, **kwargs):
        family = self._families.get(name)
        if family is not None:
            if not isinstance(family, cls):
                raise ValueError(
                    f"metric {name!r} is already registered as "
                    f"{family.kind}, not {cls.kind}"
                )
            return family
        family = cls(name, help_text, **kwargs)
        self._families[name] = family
        return family

    def counter(self, name: str, help_text: str = "") -> Counter:
        """Get or create a counter family."""
        return self._get_or_create(Counter, name, help_text)

    def gauge(self, name: str, help_text: str = "") -> Gauge:
        """Get or create a gauge family."""
        return self._get_or_create(Gauge, name, help_text)

    def histogram(
        self,
        name: str,
        help_text: str = "",
        buckets: Sequence[float] = DEFAULT_BUCKETS,
    ) -> Histogram:
        """Get or create a histogram family."""
        return self._get_or_create(Histogram, name, help_text, buckets=buckets)

    def families(self) -> List[object]:
        """Every registered family, sorted by name."""
        return [self._families[name] for name in sorted(self._families)]

    def __len__(self) -> int:
        return len(self._families)

    # ------------------------------------------------------------------
    # Convenience increments (used by instrumented call sites)
    # ------------------------------------------------------------------

    def _cell(self, cls, name: str, labels: Dict[str, object]):
        """The cell of series ``labels`` of family ``name``: the family
        lookup, the kind check and :func:`_labelset` run on a series'
        first touch, later calls are one probe of the index.  The index
        never merges what :func:`_labelset` keeps apart: its key carries
        each value's type (``1``, ``True`` and ``1.0`` are ``==`` but
        render differently) and only ``_INDEXED`` types enter it; any
        other value (``0.0 == -0.0``, an unhashable) resolves afresh on
        every call."""
        key = (cls, name)
        if labels:
            key = (cls, name, *labels.items(), *map(type, labels.values()))
        try:
            return self._cells[key]
        except KeyError:
            indexed = _INDEXED.issuperset(map(type, labels.values()))
        except TypeError:  # an unhashable label value
            indexed = False
        cell = self._get_or_create(cls, name, "")._cell(_labelset(labels))
        if indexed:
            self._cells[key] = cell
        return cell

    def inc(self, name: str, amount: float = 1.0, **labels: object) -> None:
        """Increment counter ``name`` (creating it if needed)."""
        if amount < 0:
            # Refused as the family refuses it (after registering it).
            return self.counter(name).inc(amount, **labels)
        self._cell(Counter, name, labels)[0] += amount

    def set_gauge(self, name: str, value: float, **labels: object) -> None:
        """Set gauge ``name`` (creating it if needed)."""
        self._cell(Gauge, name, labels)[0] = float(value)

    def observe(self, name: str, value: float, **labels: object) -> None:
        """Observe into histogram ``name`` (creating it if needed)."""
        self._cell(Histogram, name, labels).observe(value)

    # ------------------------------------------------------------------
    # Export
    # ------------------------------------------------------------------

    def snapshot(self) -> Dict[str, dict]:
        """Nested plain-dict snapshot, fit for JSON artifacts."""
        out: Dict[str, dict] = {}
        for family in self.families():
            out[family.name] = {
                "kind": family.kind,
                "help": family.help,
                "series": family.snapshot(),
            }
        return out

    def prometheus_text(self) -> str:
        """Prometheus text exposition (version 0.0.4) of every family."""
        lines: List[str] = []
        for family in self.families():
            # A family declared but never observed has no samples; a
            # TYPE line with nothing under it is invalid exposition
            # (parse_prometheus_text rejects it), so skip it entirely.
            if not family.labelsets():
                continue
            if family.help:
                lines.append(f"# HELP {family.name} {family.help}")
            lines.append(f"# TYPE {family.name} {family.kind}")
            if isinstance(family, Histogram):
                for key, cell in sorted(family._series.items()):
                    bounds = [*map(_format_value, family.buckets), "+Inf"]
                    for bound, cumulative in zip(bounds, cell.cumulative()):
                        lines.append(
                            f"{family.name}_bucket"
                            f"{_format_labels(key + (('le', bound),))} {cumulative}"
                        )
                    lines.append(
                        f"{family.name}_sum{_format_labels(key)} "
                        f"{_format_value(cell.sum)}"
                    )
                    lines.append(
                        f"{family.name}_count{_format_labels(key)} {cell.total}"
                    )
            else:
                for key, cell in sorted(family._series.items()):
                    lines.append(
                        f"{family.name}{_format_labels(key)} {_format_value(cell[0])}"
                    )
        return "\n".join(lines) + "\n" if lines else ""
