"""ABL15 — the columnar table kernels, measured.

The columnar refactor claims the local evaluation hot path got fast:
interned id columns, positional class-id hash joins that skip the
per-step dedup-and-sort, and lazy canonical ordering.  This bench
measures it and *asserts* the headline number — a 3-join chain of
``Table.equi_join`` (the kernel the executor and ``evaluate_plan`` run)
must beat a faithful inline transcription of the seed's row-at-a-time
evaluation by at least 3x in rows/sec on the same data.

The kernel chain runs in two lanes.  ``resident`` joins against the same
right operands every repeat, as a served system does: their key indexes
are built once and memoized on the tables.  ``cold`` hands every repeat
right operands built afresh outside the timed region (their memo is
asserted empty), so all three indexes are rebuilt each time.  The gate
is on the **cold** lane — the memo cannot satisfy it.

A third, ungated pair of lanes runs the Figure 5 semi-join the way
``exec_scan`` does — ``project`` the master on its join attribute,
``equi_join`` the probe with the slave's operand, ``natural_join`` the
reduction back onto the master — once with both operands resident
(probe, probe bytes and both key indexes come off the tables' memo) and
once with fresh operands per repeat.

The legacy lane is the seed's ``Table`` transcribed verbatim — tuple
rows, a ``set`` for dedup, the eager canonical sort in the constructor,
and an ``equi_join`` that materializes (re-dedups, re-sorts) a full
table per step — no interning, no columns.  Both lanes consume
identical generated data and must produce identical result rows before
anything is timed.

The second test sweeps the batched ``CanView`` kernel across batch
sizes 1/64/4096 on a replayed planner probe trace (fresh policy per
timed repeat, so the memo cache never answers for the mask kernel) and
reports probes/sec per size into ``BENCH_ABL15.json``.
"""

import random
import time

import pytest

from repro.algebra.builder import build_plan
from repro.algebra.joins import JoinPath
from repro.analysis.reporting import write_bench_json
from repro.core.authorization import Policy
from repro.core.closure import close_policy
from repro.core.planner import SafePlanner
from repro.engine.data import Table
from repro.workloads.synthetic import SyntheticWorkload, WorkloadConfig

#: the acceptance floor for the kernel-chain speedup.
MIN_PIPELINE_SPEEDUP = 3.0

#: the canonical batch sizes of the CanView sweep (the ``batch_sweep``
#: columns of the bench file).
BATCH_SIZES = (1, 64, 4096)


# --- verbatim transcription of the seed implementation ----------------


class _LegacyTable:
    """Seed ``Table``: tuple rows deduplicated through a ``set`` and
    eagerly sorted into canonical order by the constructor; every
    operator builds (and therefore re-dedups and re-sorts) a full new
    table."""

    __slots__ = ("_attributes", "_index", "_rows")

    def __init__(self, attributes, rows=()):
        attrs = tuple(attributes)
        self._attributes = attrs
        self._index = {name: i for i, name in enumerate(attrs)}
        unique = set()
        for row in rows:
            unique.add(tuple(row))
        self._rows = tuple(
            sorted(
                unique,
                key=lambda r: tuple((v is None, str(type(v)), str(v)) for v in r),
            )
        )

    def equi_join(self, other, conditions):
        pairs = []
        for condition in conditions:
            if condition.first in self._index and condition.second in other._index:
                pairs.append(
                    (self._index[condition.first], other._index[condition.second])
                )
            else:
                pairs.append(
                    (self._index[condition.second], other._index[condition.first])
                )
        buckets = {}
        for row in other._rows:
            key = tuple(row[j] for _, j in pairs)
            if any(v is None for v in key):
                continue
            buckets.setdefault(key, []).append(row)
        joined = []
        for row in self._rows:
            key = tuple(row[i] for i, _ in pairs)
            if any(v is None for v in key):
                continue
            for match in buckets.get(key, ()):
                joined.append(row + match)
        return _LegacyTable(self._attributes + other._attributes, joined)


def _time_best(fn, repeats=5, setup=tuple):
    """Best-of-``repeats`` wall time of ``fn(*setup())``; ``setup`` runs
    before the clock starts."""
    best = float("inf")
    for _ in range(repeats):
        args = setup()
        start = time.perf_counter()
        fn(*args)
        best = min(best, time.perf_counter() - start)
    return best


def _pipeline_data(rows_per_table=4000, seed=15):
    """Four chained relations with near-unique keys (so the 3-join
    output stays O(rows)) plus a sprinkle of ``None`` keys to exercise
    the null-skip path in both lanes."""
    rng = random.Random(seed)
    schemas = [
        ("c00", "c01"),
        ("c10", "c11", "c12"),
        ("c20", "c21", "c22"),
        ("c30", "c31"),
    ]
    domain = rows_per_table

    def key(column):
        if rng.random() < 0.01:
            return None
        return f"k{column}_{rng.randrange(domain)}"

    raw = []
    for t, attrs in enumerate(schemas):
        rows = []
        for i in range(rows_per_table):
            row = []
            for a in attrs:
                if a in ("c01", "c12", "c22"):
                    row.append(key(t))
                elif a in ("c10", "c20", "c30"):
                    row.append(key(t - 1))
                else:
                    row.append(f"v{t}_{i}")
            rows.append(tuple(row))
        raw.append((attrs, rows))
    paths = [
        JoinPath.of(("c01", "c10")),
        JoinPath.of(("c12", "c20")),
        JoinPath.of(("c22", "c30")),
    ]
    return raw, paths


def test_abl15_pipeline_throughput(benchmark):
    raw, paths = _pipeline_data()
    columnar = [Table(attrs, rows) for attrs, rows in raw]
    legacy = [_LegacyTable(attrs, rows) for attrs, rows in raw]

    def chain(rights):
        result = columnar[0]
        for right, path in zip(rights, paths):
            result = result.equi_join(right, path)
        return result

    def resident_lane():
        return chain(columnar[1:])

    def fresh(*which):
        # New tables over the same rows (a full-width ``project`` would
        # hand back the resident, already-indexed table itself): nothing
        # is derived on them yet.  Runs outside the timed region.
        tables = [Table(*raw[i]) for i in which]
        assert not any(table._memo for table in tables)
        return tables

    def cold_lane(*rights):
        return chain(rights)

    def semi_join_lane(master, slave):
        # Figure 5 on the first join: steps 1-2 probe, 3-4 the slave's
        # reduction (measured as a shipment would be), 5 recombination.
        probe = master.project(["c10"])
        probe.byte_size()
        back = probe.equi_join(slave, paths[0])
        back.byte_size()
        return master.natural_join(back)

    def legacy_lane():
        result = legacy[0]
        for right, path in zip(legacy[1:], paths):
            result = result.equi_join(right, path)
        return result

    kernel_result = resident_lane()
    legacy_result = legacy_lane()
    # Parity before timing: every lane must produce the same relation.
    assert kernel_result.attributes == legacy_result._attributes
    assert set(kernel_result.rows) == set(legacy_result._rows)
    assert cold_lane(*fresh(1, 2, 3)) == kernel_result
    out_rows = len(kernel_result)
    assert out_rows > 0, "degenerate pipeline: no output rows"
    semi_rows = len(semi_join_lane(columnar[1], columnar[0]))
    assert semi_join_lane(*fresh(1, 0)) == columnar[0].equi_join(columnar[1], paths[0])
    assert semi_rows == len(columnar[0].equi_join(columnar[1], paths[0])) > 0

    benchmark.pedantic(
        cold_lane, setup=lambda: (fresh(1, 2, 3), {}), rounds=5, warmup_rounds=1
    )
    # The speedup ratios are taken over identical hand-rolled timings of
    # the lanes (best-of-5), not mixed benchmark-fixture statistics.
    legacy_time = _time_best(legacy_lane)
    cold_time = _time_best(cold_lane, setup=lambda: fresh(1, 2, 3))
    resident_time = _time_best(resident_lane)
    semi_cold_time = _time_best(semi_join_lane, setup=lambda: fresh(1, 0))
    semi_resident_time = _time_best(
        semi_join_lane, setup=lambda: (columnar[1], columnar[0])
    )
    speedup = legacy_time / cold_time
    print(
        f"\n3-join pipeline, {out_rows} output rows: "
        f"legacy {out_rows / legacy_time:.0f} rows/s, "
        f"cold {out_rows / cold_time:.0f} rows/s -> {speedup:.1f}x, "
        f"resident {out_rows / resident_time:.0f} rows/s -> "
        f"{legacy_time / resident_time:.1f}x\n"
        f"semi-join, {semi_rows} output rows: "
        f"cold {semi_cold_time * 1e3:.2f} ms, "
        f"resident master and slave {semi_resident_time * 1e3:.2f} ms"
    )
    write_bench_json(
        "ABL15",
        {
            "pipeline": {
                "input_rows_per_table": len(raw[0][1]),
                "output_rows": out_rows,
                "legacy_rows_per_second": round(out_rows / legacy_time, 1),
                "cold_rows_per_second": round(out_rows / cold_time, 1),
                "resident_rows_per_second": round(out_rows / resident_time, 1),
                "speedup": round(speedup, 2),
                "resident_speedup": round(legacy_time / resident_time, 2),
                "acceptance_floor": MIN_PIPELINE_SPEEDUP,
            },
            "semi_join": {
                "gated": False,
                "input_rows_per_table": len(raw[0][1]),
                "output_rows": semi_rows,
                "cold_seconds": round(semi_cold_time, 6),
                "resident_seconds": round(semi_resident_time, 6),
                "resident_vs_cold": round(semi_cold_time / semi_resident_time, 2),
            },
        },
    )
    assert speedup >= MIN_PIPELINE_SPEEDUP, (
        f"cold kernel chain speedup {speedup:.2f}x below the "
        f"{MIN_PIPELINE_SPEEDUP}x acceptance floor"
    )


# --- CanView batch sweep ----------------------------------------------


class _RecordingPolicy:
    """A ``can_view`` wrapper recording every probe the planner issues,
    so the sweep replays a real trace."""

    def __init__(self, inner):
        self._inner = inner
        self.probes = []

    def can_view(self, profile, server):
        self.probes.append((profile, server))
        return self._inner.can_view(profile, server)


def _probe_trace():
    workload = SyntheticWorkload(
        seed=15,
        config=WorkloadConfig(
            servers=4,
            relations=8,
            attributes_per_relation=(3, 5),
            grant_probability=0.6,
            join_grant_probability=0.4,
            extra_join_edges=2,
        ),
    )
    closed = close_policy(workload.policy, workload.catalog, 50_000)
    recorder = _RecordingPolicy(closed)
    planner = SafePlanner(recorder)
    for _ in range(6):
        try:
            planner.plan(build_plan(workload.catalog, workload.random_query(4)))
        except Exception:
            continue
    assert recorder.probes, "planner issued no CanView probes"
    by_server = {}
    for profile, server in recorder.probes:
        by_server.setdefault(server, []).append(profile)
    # Tile every server's profile list so even the 4096-wide lane gets
    # full batches (the replay is the same probes, more of them).
    target = 2 * max(BATCH_SIZES)
    for server, profiles in by_server.items():
        tiled = profiles * (target // len(profiles) + 1)
        by_server[server] = tiled[:target]
    return closed, by_server


def test_abl15_canview_batch_sweep(benchmark):
    closed, by_server = _probe_trace()
    total = sum(len(profiles) for profiles in by_server.values())

    def fresh_policy():
        # A policy with an empty memo cache sharing the closed policy's
        # universe: every timed repeat exercises the mask kernel, never
        # the per-profile answer cache.
        return Policy(list(closed), universe=closed.universe)

    # Batched and scalar answers must agree before anything is timed.
    scalar = {
        server: [closed.can_view(p, server) for p in profiles]
        for server, profiles in by_server.items()
    }
    for size in BATCH_SIZES:
        policy = fresh_policy()
        for server, profiles in by_server.items():
            answers = []
            for start in range(0, len(profiles), size):
                answers.extend(
                    policy.can_view_batch(profiles[start : start + size], server)
                )
            assert answers == scalar[server], f"batch size {size} disagrees"

    sweep = {}
    for size in BATCH_SIZES:
        best = float("inf")
        for _ in range(5):
            policy = fresh_policy()

            def lane():
                hits = 0
                for server, profiles in by_server.items():
                    for start in range(0, len(profiles), size):
                        hits += sum(
                            policy.can_view_batch(
                                profiles[start : start + size], server
                            )
                        )
                return hits

            start_time = time.perf_counter()
            lane()
            best = min(best, time.perf_counter() - start_time)
        sweep[size] = round(total / best, 1)
        print(f"\nbatch size {size}: {sweep[size]:.0f} probes/s")

    def widest_lane():
        policy = fresh_policy()
        hits = 0
        for server, profiles in by_server.items():
            hits += sum(policy.can_view_batch(profiles, server))
        return hits

    benchmark(widest_lane)
    write_bench_json(
        "ABL15",
        {
            "canview_batch": {
                "probes": total,
                "probes_per_second": sweep[max(BATCH_SIZES)],
            }
        },
        batch_sweep=sweep,
    )
    # Sanity, not a perf gate: batching must never lose to one-at-a-time
    # batches of itself by more than noise allows.
    assert sweep[max(BATCH_SIZES)] > 0
