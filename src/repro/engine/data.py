"""Columnar, immutable in-memory tables with set semantics.

The relational model of the paper (and of its reference [2]) is
set-based: a relation is a *set* of tuples.  :class:`Table` therefore
deduplicates rows, and every operator returns a new table.  Attribute
names are globally distinct (Section 2), which makes natural joins on
shared column names unambiguous — the semi-join recombination step
relies on this.

Row values must be hashable scalars (``str``, ``int``, ``float``,
``bool`` or ``None``); this keeps rows hashable for set semantics and
byte accounting honest.

Storage model
-------------

The engine is **columnar**: a :class:`Table` holds one value array per
attribute, where each cell is a small integer id interned in a
process-wide :class:`InternPool`.  The constructor, equality,
iteration, and every operator keep exactly the row-at-a-time semantics
of the seed implementation (the frozen oracle in
``tests/_row_oracle.py`` documents them, and the Hypothesis differential
suite asserts row-for-row identity), but the operators are
**positional**: each decides which storage positions survive, compiles
them once into one C-level ``operator.itemgetter`` (:func:`_getter`) and
gathers every output column through it — no row tuple is ever built.
Every stored column is an immutable tuple of ids:

* ``select`` turns a boolean mask into positions — no re-validation, no
  re-deduplication, no re-sort;
* ``project``/``union`` keep the first position of each distinct
  class-id key (``union`` takes any number of operands and deduplicates
  once; a single column without cross-type aliases is one
  first-occurrence pass, ``dict.fromkeys``);
* ``equi_join``/``natural_join`` probe the build side's key -> position
  index and emit two aligned position lists (their outputs are
  duplicate-free by construction, so no dedup pass runs at all).
  ``equi_join`` builds on its argument; ``natural_join`` — the
  semi-join's recombination — builds on ``self``, the master's operand,
  and probes with the shipped-back rows, so its output is stored
  shipped-back-major;
* the canonical row order the seed eagerly sorted into is materialized
  **lazily** — intermediate pipeline results that are only joined,
  filtered, counted or shipped never pay for a sort; the order is
  computed (from per-value cached sort keys) the first time ``rows``,
  ``column`` or iteration observes it, and is byte-identical to the
  seed's.

Derived state
-------------

A table never changes, so what is a pure function of **one** table is
derived on first use and kept on it (:meth:`Table.memoized`): its key
indexes, per-column byte and distinct counts (so ``byte_size``) and
narrowed projections, keyed by attribute set (a full-width ``project``
is the table itself, like an all-true ``select``).  A resident relation
answers its ``π`` nodes, semi-join probe, that probe's payload size and
build-side indexes once per loaded instance, not once per request.
``select`` stays out — its constants are an unbounded key space — and so
does everything involving a second server: every request builds,
measures and authorizes each of its transfers (docs/model.md §10).

Interning notes
---------------

The pool assigns one id per *typed* value, and one **class id** per
``==``-equivalence class (``1 == 1.0 == True`` share a class, mirroring
Python set semantics the seed relied on).  Dedup, joins and distinct
counts run on class ids — value-equal cells match across tables even
when their types differ — while each table keeps the exact
representative values it was built with, so rendering, canonical
ordering and byte accounting are unchanged.  Two float zeros of
opposite sign intern to one representative (they are ``==``-equal and
the seed already collapsed them within any single table).

Byte accounting
---------------

:func:`cell_width` is the **one canonical accounting** of a cell's
payload contribution: the length of the cell's JSON token with strings
unquoted — ``None`` costs ``len("null") == 4``, booleans cost
``len("true")``/``len("false")``, and numbers and strings cost the
length of their Python rendering (identical to their JSON token).
``Table.byte_size`` and the static estimator
(:meth:`repro.engine.coster.TableStats.of_table`) both use it, so the
coster's exact-statistics estimate of a shipment equals the executor's
measured bytes (a property the test suite asserts).
"""

from __future__ import annotations

from itertools import chain, compress
from operator import itemgetter
from typing import Dict, FrozenSet, Iterable, Iterator, List, Mapping, Optional, Sequence, Tuple

from repro.algebra.joins import JoinPath
from repro.algebra.predicates import _OPERATORS, Predicate
from repro.exceptions import ExecutionError, PredicateError

#: Allowed scalar types for cell values.
_SCALARS = (str, int, float, bool)

Row = Tuple[object, ...]


def cell_width(value: object) -> int:
    """Canonical payload width of one cell (characters of its JSON
    token, strings unquoted): ``None`` -> ``len("null")``, everything
    else -> ``len(str(value))`` (which equals the JSON rendering for
    every allowed scalar, including booleans)."""
    if value is None:
        return 4  # len("null") — and, deliberately, len("None") too.
    return len(str(value))


class InternPool:
    """Process-wide value interner shared by every table.

    Maps each distinct typed scalar to a stable integer id and caches,
    per id: the value itself, its canonical sort key, its payload width
    (:func:`cell_width`), and its ``==``-equivalence **class id** (the
    id of the first interned value equal to it — ``1``, ``1.0`` and
    ``True`` share one class).  Ids are append-only; the pool grows with
    the number of distinct values a process touches, which is
    workload-bounded in this simulator.
    """

    __slots__ = ("_typed_ids", "_class_ids", "_values", "_classes", "_sort_keys", "_widths", "has_aliases")

    def __init__(self) -> None:
        self._typed_ids: Dict[type, Dict[object, int]] = {}
        self._class_ids: Dict[object, int] = {}
        self._values: List[object] = []
        self._classes: List[int] = []
        self._sort_keys: List[Tuple[bool, str, str]] = []
        self._widths: List[int] = []
        #: Whether any two interned values of different ids compare
        #: equal (e.g. ``1`` and ``True``).  While false, ids *are*
        #: class ids and the per-cell class lookup is skipped.
        self.has_aliases = False

    def intern(self, value: object) -> int:
        """Intern one cell value, validating it is an allowed scalar.

        Raises:
            ExecutionError: on non-scalar values.
        """
        by_value = self._typed_ids.get(value.__class__)
        if by_value is not None:
            interned = by_value.get(value)
            if interned is not None:
                return interned
        if value is not None and not isinstance(value, _SCALARS):
            raise ExecutionError(
                f"cell values must be scalars (str/int/float/bool/None), got "
                f"{type(value).__name__}"
            )
        if by_value is None:
            by_value = self._typed_ids[value.__class__] = {}
        interned = len(self._values)
        by_value[value] = interned
        self._values.append(value)
        class_id = self._class_ids.get(value)
        if class_id is None:
            class_id = interned
            self._class_ids[value] = interned
        else:
            self.has_aliases = True
        self._classes.append(class_id)
        self._sort_keys.append((value is None, str(type(value)), str(value)))
        self._widths.append(cell_width(value))
        return interned

    def value(self, interned: int) -> object:
        """The exact value behind an id."""
        return self._values[interned]

    def __len__(self) -> int:
        return len(self._values)

    def __repr__(self) -> str:
        return f"InternPool({len(self._values)} values)"


#: The shared pool every table interns into.  One pool means interned
#: ids are comparable across tables, which is what lets joins match
#: keys with integer equality.
_POOL = InternPool()


def shared_pool() -> InternPool:
    """The process-wide :class:`InternPool` tables intern into."""
    return _POOL


#: How many derived values (:meth:`Table.memoized`) one table keeps,
#: oldest out: room to spare for the handful of attribute sets a
#: relation is joined on and projected to, not a knob.
_MEMO_LIMIT = 16


class Table:
    """An immutable relation instance stored as per-attribute id arrays.

    Args:
        attributes: ordered column names.
        rows: iterable of value tuples aligned with ``attributes`` (or
            use :meth:`from_rows` for dict-shaped input).  Duplicates are
            removed; row order is canonicalized, so two tables with the
            same content compare equal.

    The public API is row-shaped (``rows``, iteration, ``row_dicts``)
    and byte-identical to the seed engine; the storage and the
    operators are columnar.
    """

    __slots__ = (
        "_attributes",
        "_index",
        "_pool",
        "_columns",
        "_length",
        "_canonical",
        "_rows_cache",
        "_hash_cache",
        "_memo",
    )

    def __init__(self, attributes: Sequence[str], rows: Iterable[Row] = ()) -> None:
        attrs = tuple(attributes)
        if len(set(attrs)) != len(attrs):
            raise ExecutionError(f"duplicate column names: {attrs}")
        if not attrs:
            raise ExecutionError("a table needs at least one column")
        self._pool = _POOL
        arity = len(attrs)
        intern = _POOL.intern
        id_rows: List[Tuple[int, ...]] = []
        for row in rows:
            id_row = tuple(intern(v) for v in row)
            if len(id_row) != arity:
                raise ExecutionError(
                    f"row arity {len(id_row)} does not match schema arity {arity}"
                )
            id_rows.append(id_row)
        columns = list(zip(*id_rows)) if id_rows else [() for _ in attrs]
        self._adopt(attrs, self._distinct(columns), canonical=False)

    def __reduce__(self):
        """Pickle (and ``copy``) by value: ids are process-local, so the
        rows travel decoded, in storage order, and the receiving
        process's constructor interns them into its own shared pool."""
        values = self._pool._values
        return Table, (self._attributes, tuple(zip(*[_getter(c)(values) for c in self._columns])))

    # ------------------------------------------------------------------
    # Internal plumbing
    # ------------------------------------------------------------------

    def _adopt(
        self, attributes: Tuple[str, ...], columns: List[Tuple[int, ...]], canonical: bool
    ) -> None:
        """Adopt duplicate-free id columns (all equal length) as storage."""
        self._attributes = attributes
        self._index = {name: i for i, name in enumerate(attributes)}
        self._columns = columns
        self._length = len(columns[0])
        self._canonical = canonical or not self._length
        self._rows_cache: Optional[Tuple[Row, ...]] = None
        self._hash_cache: Optional[int] = None
        self._memo: Dict[object, object] = {}

    @classmethod
    def _from_columns(
        cls,
        attributes: Sequence[str],
        columns: List[Tuple[int, ...]],
        pool: InternPool,
        canonical: bool = False,
    ) -> "Table":
        """Operator fast path: adopt duplicate-free id columns unvalidated."""
        self = object.__new__(Table)
        self._pool = pool
        self._adopt(tuple(attributes), columns, canonical)
        return self

    def _class_view(self, column: Tuple[int, ...]) -> Tuple[int, ...]:
        """The column's ids mapped to ``==``-equivalence class ids (a
        no-op while the pool has no cross-type aliases)."""
        pool = self._pool
        if not pool.has_aliases:
            return column
        return _getter(column)(pool._classes)

    def _keys(self, columns: Sequence[Tuple[int, ...]]) -> Sequence:
        """One hashable key per stored row over the class views of
        ``columns``: the bare view for one column, zipped tuples only
        for several."""
        views = [self._class_view(column) for column in columns]
        return views[0] if len(views) == 1 else list(zip(*views))

    def _distinct(self, columns: List[Tuple[int, ...]]) -> List[Tuple[int, ...]]:
        """``columns`` without value-equal duplicate rows, each class's
        first occurrence kept in place (the representative Python
        ``set`` semantics keep)."""
        if len(columns) == 1 and not self._pool.has_aliases:
            # Ids are class ids: the first occurrences are the keys.
            kept = tuple(dict.fromkeys(columns[0]))
            return columns if len(kept) == len(columns[0]) else [kept]
        keys = self._keys(columns)
        # Reversed, so an earlier position overwrites a later one.
        first = dict(zip(reversed(keys), reversed(range(len(keys)))))
        if len(first) == len(keys):
            return columns
        get = _getter(sorted(first.values()))
        return [get(column) for column in columns]

    def memoized(self, key, derive, *args):
        """``derive(self, *args)``, computed once per stored instance and
        kept until the table dies or its storage positions move — which
        happens in exactly one place, :meth:`_ensure_canonical`.  At most
        :data:`_MEMO_LIMIT` entries are kept, oldest out; a ``derive``
        that raises memoizes nothing.  Only for pure functions of this
        one table (see the module docstring)."""
        memo = self._memo
        if key not in memo:
            value = derive(self, *args)  # may sort, which empties ``memo``
            if len(memo) >= _MEMO_LIMIT:
                del memo[next(iter(memo))]
            memo[key] = value
        return memo[key]

    def _key_index(self, key_columns: Tuple[int, ...]) -> Dict:
        """This table as a join's build side: key -> storage position
        (a list of positions, in storage order, only when the key
        repeats) over the class view of ``key_columns``; ``None`` keys
        are left out, so they never match.

        Memoized per column tuple by :meth:`_matches`.  A value's class
        id is fixed when it is interned, so an index built while ids
        *were* class ids stays keyed by class ids after a later alias
        (``True`` after ``1``) flips ``has_aliases``: the alias joins
        the older value's class, never the reverse.
        """
        index: Dict = {}
        get = index.get
        for position, key in enumerate(self._keys([self._columns[c] for c in key_columns])):
            held = get(key)
            if held is None:
                index[key] = position
            elif held.__class__ is list:
                held.append(position)
            else:
                index[key] = [held, position]
        none_class = _none_class(self._pool)
        if len(key_columns) == 1:
            index.pop(none_class, None)
        else:
            for key in [key for key in index if none_class in key]:
                del index[key]
        return index

    def _matches(
        self, key_columns: Sequence[int], build: "Table", build_key_columns: Tuple[int, ...]
    ) -> Tuple[List[int], List[int]]:
        """The one hash join: probe ``build``'s :meth:`_key_index` with
        this table's keys and return the aligned (own, build) storage
        positions of every match — own-major, build-side matches in
        storage order.  The callers gather columns at those positions;
        no row is ever built."""
        index = build.memoized(
            ("index", build_key_columns), Table._key_index, build_key_columns
        )
        mine: List[int] = []
        theirs: List[int] = []
        keys = self._keys([self._columns[c] for c in key_columns])
        for position, match in enumerate(map(index.get, keys)):
            if match is None:
                continue
            if match.__class__ is list:
                mine.extend([position] * len(match))
                theirs.extend(match)
            else:
                mine.append(position)
                theirs.append(match)
        return mine, theirs

    def _beside(
        self, mine: List[int], other: "Table", emitted: Sequence[str], theirs: List[int]
    ) -> "Table":
        """A join's output: this table's columns gathered at ``mine``
        beside ``other``'s ``emitted`` ones at the aligned ``theirs``."""
        get_mine, get_theirs = _getter(mine), _getter(theirs)
        return Table._from_columns(
            self._attributes + tuple(emitted),
            [get_mine(column) for column in self._columns]
            + [get_theirs(other._columns[other._index[a]]) for a in emitted],
            self._pool,
        )

    def _ensure_canonical(self) -> None:
        """Materialize the seed's canonical row order (lazy sort).

        The sort key per cell is the seed's
        ``(value is None, str(type(value)), str(value))`` tuple, cached
        per interned value, so canonicalization costs index lookups
        instead of string renderings.
        """
        if self._canonical:
            return
        sort_keys = self._pool._sort_keys
        keys = list(zip(*[_getter(column)(sort_keys) for column in self._columns]))
        get = _getter(sorted(range(self._length), key=keys.__getitem__))
        self._columns = [get(column) for column in self._columns]
        self._memo.clear()  # positions moved
        self._canonical = True

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------

    @classmethod
    def from_rows(
        cls, attributes: Sequence[str], rows: Iterable[Mapping[str, object]]
    ) -> "Table":
        """Build from dict-shaped rows (missing keys become ``None``)."""
        attrs = tuple(attributes)
        return cls(attrs, (tuple(row.get(a) for a in attrs) for row in rows))

    @classmethod
    def empty(cls, attributes: Sequence[str]) -> "Table":
        """An empty table with the given columns."""
        return cls(attributes, ())

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def attributes(self) -> Tuple[str, ...]:
        """Ordered column names."""
        return self._attributes

    @property
    def pool(self) -> InternPool:
        """The intern pool this table's columns are encoded against."""
        return self._pool

    @property
    def rows(self) -> Tuple[Row, ...]:
        """Canonically ordered, deduplicated rows."""
        if self._rows_cache is None:
            self._ensure_canonical()
            values = self._pool._values
            self._rows_cache = tuple(zip(*[_getter(c)(values) for c in self._columns]))
        return self._rows_cache

    def row_dicts(self) -> List[Dict[str, object]]:
        """Rows as dictionaries (for predicates and display)."""
        return [dict(zip(self._attributes, row)) for row in self.rows]

    def column(self, attribute: str) -> List[object]:
        """All values of one column, in row order."""
        index = self._column_index(attribute)
        self._ensure_canonical()
        return list(_getter(self._columns[index])(self._pool._values))

    def column_ids(self, attribute: str) -> Tuple[int, ...]:
        """One column as an immutable tuple of interned ids, in current
        storage order.

        Storage order is only guaranteed canonical after something
        observed the row order; kernels that don't care about
        order read this directly."""
        return self._columns[self._column_index(attribute)]

    def distinct_count(self, attribute: str) -> int:
        """Number of distinct values in a column (memoized)."""
        index = self._column_index(attribute)
        return self.memoized("distinct_counts", Table._distinct_counts)[index]

    def _distinct_counts(self) -> Tuple[int, ...]:
        return tuple(len(set(self._class_view(column))) for column in self._columns)

    def column_bytes(self, attribute: str) -> int:
        """The summed :func:`cell_width` of one column (from the pool's
        cached per-value widths: no cell is decoded; memoized)."""
        index = self._column_index(attribute)
        return self.memoized("column_bytes", Table._column_bytes)[index]

    def _column_bytes(self) -> Tuple[int, ...]:
        widths = self._pool._widths
        return tuple(sum(_getter(column)(widths)) for column in self._columns)

    def byte_size(self) -> int:
        """Canonical payload size: the summed :func:`cell_width` of every
        cell — deterministic, identical to the width the static coster
        accounts, and good enough for relative communication-cost
        comparisons.  Cells are scanned once per (immutable) table."""
        return sum(self.memoized("column_bytes", Table._column_bytes))

    def _column_index(self, attribute: str) -> int:
        try:
            return self._index[attribute]
        except KeyError:
            raise ExecutionError(
                f"table has no column {attribute!r}; columns: {self._attributes}"
            ) from None

    def __len__(self) -> int:
        return self._length

    def __iter__(self) -> Iterator[Row]:
        return iter(self.rows)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Table):
            return NotImplemented
        if frozenset(self._attributes) != frozenset(other._attributes):
            return False
        if self._length != other._length:
            return False
        if self._pool is other._pool:
            # Interned fast path: align the other table's columns to this
            # one's attribute order and compare class-id row sets.
            mine = [self._class_view(c) for c in self._columns]
            theirs = [
                other._class_view(other._columns[other._index[a]])
                for a in self._attributes
            ]
            return frozenset(zip(*mine)) == frozenset(zip(*theirs))
        return self._row_set() == other._row_set()

    def _row_set(self) -> FrozenSet[FrozenSet[Tuple[str, object]]]:
        return frozenset(
            frozenset(zip(self._attributes, row)) for row in self.rows
        )

    def __hash__(self) -> int:
        if self._hash_cache is None:
            self._hash_cache = hash((frozenset(self._attributes), self._row_set()))
        return self._hash_cache

    def __repr__(self) -> str:
        return f"Table({list(self._attributes)}, {self._length} rows)"

    # ------------------------------------------------------------------
    # Operators
    # ------------------------------------------------------------------

    def project(self, attributes: Iterable[str]) -> "Table":
        """:math:`\\pi_X` with set semantics (duplicates collapse).

        Contract: the result's columns follow **this table's** attribute
        order, not the requested order, and requesting the same column
        twice is an error — the output of a set-semantics projection has
        no meaningful duplicate columns, so a duplicated request is
        always a caller bug.

        Raises:
            ExecutionError: on missing or duplicated requested columns,
                and on an empty request (a table needs a column).
        """
        requested = list(attributes)
        wanted = frozenset(requested)
        if len(wanted) != len(requested):
            duplicates = sorted(a for a in wanted if requested.count(a) > 1)
            raise ExecutionError(f"cannot project on duplicated columns: {duplicates}")
        if wanted == self._index.keys():
            # Full-width projection: rows are already deduplicated.
            return self
        return self.memoized(("project", wanted), Table._narrowed, wanted)

    def _narrowed(self, wanted: FrozenSet[str]) -> "Table":
        missing = wanted - self._index.keys()
        if missing:
            raise ExecutionError(f"cannot project on missing columns: {sorted(missing)}")
        attrs = [a for a in self._attributes if a in wanted]
        if not attrs:
            raise ExecutionError("a table needs at least one column")
        if self._pool.has_aliases:
            # Dropping columns can collide value-equal rows whose cells
            # differ only in type (1 vs True).  The seed deduplicated in
            # canonical parent order (its rows were pre-sorted), so the
            # surviving representative is the canonically-first one —
            # reproduce that by sorting first.  Without aliases the
            # colliding rows are bit-identical and order cannot matter
            # (a table interned before the first alias holds none, so
            # what it memoized stays right after one).
            self._ensure_canonical()
        kept = [self._columns[self._index[a]] for a in attrs]
        return Table._from_columns(attrs, self._distinct(kept), self._pool)

    def select(self, predicate: Predicate) -> "Table":
        """:math:`\\sigma_C` — keep rows satisfying the predicate."""
        if not self._length or predicate.is_true():
            return self
        mask = self._predicate_mask(predicate)
        if mask is None:
            return self
        get = _getter(list(compress(range(self._length), mask)))
        # A filtered subset of deduplicated rows stays deduplicated, and
        # an order-preserving subset of a sorted sequence stays sorted.
        return Table._from_columns(
            self._attributes,
            [get(column) for column in self._columns],
            self._pool,
            canonical=self._canonical,
        )

    def _predicate_mask(self, predicate: Predicate) -> Optional[Sequence[bool]]:
        """Boolean selection mask, one entry per stored row, or ``None``
        when every row passes.

        Single-atom predicates over present attributes evaluate
        column-at-a-time; anything else falls back to per-row dict
        evaluation, preserving the seed's short-circuit and error
        semantics exactly.
        """
        comparisons = predicate.comparisons
        if len(comparisons) == 1:
            comp = comparisons[0]
            index = self._index.get(comp.attribute)
            if index is not None and not comp.operand_is_attribute:
                return _compare_column(
                    self._columns[index], self._pool, comp
                )
        values = self._pool._values
        attrs = self._attributes
        evaluate = predicate.evaluate
        mask = []
        for id_row in zip(*self._columns):
            row = {a: values[i] for a, i in zip(attrs, id_row)}
            mask.append(evaluate(row))
        return None if all(mask) else mask

    def equi_join(self, other: "Table", conditions: JoinPath) -> "Table":
        """Hash equi-join on a join path's conditions.

        Every condition must have one attribute in each table.  The
        result's columns are this table's followed by the other's.
        """
        pairs: List[Tuple[int, int]] = []
        for condition in conditions:
            if condition.first in self._index and condition.second in other._index:
                pairs.append((self._index[condition.first], other._index[condition.second]))
            elif condition.second in self._index and condition.first in other._index:
                pairs.append((self._index[condition.second], other._index[condition.first]))
            else:
                raise ExecutionError(
                    f"join condition {condition} does not bridge the tables"
                )
        overlap = set(self._attributes) & set(other._attributes)
        if overlap:
            raise ExecutionError(
                f"equi-join operands share columns {sorted(overlap)}; use "
                "natural_join for recombination joins"
            )
        # Join outputs are duplicate-free by construction: both operands
        # are deduplicated sets and every (left, right) pairing is
        # emitted once, so two output rows value-equal everywhere would
        # have to come from one pairing.
        mine, theirs = self._matches([i for i, _ in pairs], other, tuple(j for _, j in pairs))
        return self._beside(mine, other, other._attributes, theirs)

    def natural_join(self, other: "Table") -> "Table":
        """Join on all shared column names: the semi-join's final
        recombination (Figure 5 step 5), ``self`` the master's full
        operand and ``other`` the reduction the slave shipped back.

        The build side is **this** table — it recurs across requests
        and, for a base relation, is already indexed — so no index is
        built on a table that exists for one request.  Columns are this
        table's, then ``other``'s extra ones; storage is ``other``-major
        (per row of ``other``, this table's matches, in storage order).

        Raises:
            ExecutionError: if the tables share no columns (that would be
                a cartesian product, which the model never produces).
        """
        shared = [a for a in self._attributes if a in other._index]
        if not shared:
            raise ExecutionError("natural join requires at least one shared column")
        # Duplicate-free by the same argument as ``equi_join``: the
        # matched slave rows agree with the master row on every shared
        # column, so they must differ in the extras.
        theirs, mine = other._matches(
            [other._index[a] for a in shared],
            self,
            tuple(self._index[a] for a in shared),
        )
        extra = [a for a in other._attributes if a not in self._index]
        return self._beside(mine, other, extra, theirs)

    def union(self, *others: "Table") -> "Table":
        """Set union with any number of same-schema tables: aligned
        columns are concatenated once and deduplicated once, each
        distinct row's first occurrence winning."""
        if not others:
            return self
        schema = frozenset(self._attributes)
        if any(frozenset(other._attributes) != schema for other in others):
            raise ExecutionError("union requires identical column sets")
        columns = [
            tuple(chain(mine, *[other._columns[other._index[a]] for other in others]))
            for a, mine in zip(self._attributes, self._columns)
        ]
        return Table._from_columns(self._attributes, self._distinct(columns), self._pool)

    def partition(self, targets: Sequence[int], parts: int) -> List["Table"]:
        """Split into ``parts`` disjoint tables: the row at storage
        position ``i`` goes to table ``targets[i]``.

        Each part is an order-preserving subset of deduplicated rows, so
        it adopts its id columns as they are — nothing is re-interned,
        re-deduplicated or re-sorted, and a canonical input yields
        canonical parts.
        """
        positions: List[List[int]] = [[] for _ in range(parts)]
        for position, target in enumerate(targets):
            positions[target].append(position)
        return [
            Table._from_columns(
                self._attributes,
                list(map(_getter(chosen), self._columns)),
                self._pool,
                canonical=self._canonical,
            )
            for chosen in positions
        ]


def _getter(positions: Sequence[int]):
    """Compile ``positions`` into one C-level gather, reused for every
    column gathered there: ``_getter(positions)(column)`` is the tuple of
    ``column``'s cells at ``positions`` (``itemgetter()`` raises and
    ``itemgetter(p)`` returns a bare cell, hence the two short cases)."""
    if len(positions) > 1:
        return itemgetter(*positions)
    if positions:
        only = positions[0]
        return lambda column: (column[only],)
    return lambda column: ()


def _none_class(pool: InternPool) -> int:
    """The class id of ``None`` (interning it on first use)."""
    return pool._classes[pool.intern(None)]


def _compare_column(column: Tuple[int, ...], pool: InternPool, comp) -> Optional[Sequence[bool]]:
    """Vectorized single-comparison mask with the seed's semantics:
    ``None`` on either side is false, incomparable types raise — once
    per distinct id in first-occurrence order, so the first incomparable
    value raises, as a row loop would.  ``None`` when every row passes."""
    operand = comp.operand
    if operand is None:
        return [False] * len(column)
    values = pool._values
    op = _OPERATORS[comp.op]
    answers: Dict[int, bool] = {}
    for interned in dict.fromkeys(column):
        value = values[interned]
        try:
            answers[interned] = value is not None and bool(op(value, operand))
        except TypeError as exc:
            raise PredicateError(f"cannot compare {value!r} {comp.op} {operand!r}") from exc
    return None if all(answers.values()) else _getter(column)(answers)
