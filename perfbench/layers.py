"""Outside-in layer tracing for the benchmark.

The traced run wraps the public calls into each ``repro`` layer from
here, never from inside the package: while a :class:`LayerTracer` is
installed, the listed methods are replaced on their classes by timing
wrappers, and the originals come back on exit.  ``repro``'s own
telemetry (registry, tracer, recorder, live windows) stays off, so the
traced passes run the same code paths as the untraced ones.

Every wrapped call becomes a frame on one stack.  A frame's duration is
added to its parent's child time, so a layer's *self* time is its
duration minus the time its wrapped callees took, and the self times of
all layers plus the self time of the two phase roots (``setup`` and
``run``, reported as ``unattributed_s``) add up to the traced wall time.
Time the host-clock calibration kernel (``hostclock.py``) spends inside
a frame is taken out of its duration, so layer times are the program's
own, and the traced wall time is the phases' wall time less the kernel.
Frames of most layers are kept as spans ``(id, name, start, end,
parent)``; the tick-loop and R-tree layers (hundreds of thousands of
calls per run) only aggregate into counters.
"""

from __future__ import annotations

import json
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace
from typing import Any, Callable, Iterator

from repro.core.policy import UpdatePolicy
from repro.dbms.batch import BatchQueryEngine
from repro.dbms.database import MovingObjectDatabase
from repro.exec.cache import TripTickCache
from repro.exec.executor import SweepExecutor
from repro.geometry.bbox import Box3D
from repro.index.oplane import OPlane
from repro.index.rtree import RTree, SearchStats
from repro.index.timespace import TimeSpaceIndex
from repro.routes.network import RouteNetwork
from repro.shard.parallel import ShardedBatchQueryEngine
from repro.shard.sharded import ShardedDatabase
from repro.sim.trip import Trip
from repro.sim.vehicle import OnboardComputer

#: Timing keys, grouped into the module layers whose self times are
#: reported.  A key is one wrapped call site (or a family of them).
_GROUPS = {
    "routes": ("routes",),
    "sim.trip": ("sim.trip",),
    "sim.vehicle": ("sim.vehicle",),
    "core.policies": ("core.policies",),
    "dbms.insert": ("dbms.insert",),
    "dbms.update": ("dbms.update",),
    "dbms.query": tuple(
        f"dbms.query.{kind}"
        for kind in ("position", "range", "within", "nearest", "proximity")
    ),
    "dbms.batch": ("dbms.batch",),
    "index.timespace": ("index.insert", "index.replace", "index.search"),
    "index.oplane": ("index.oplane",),
    "index.rtree": ("index.rtree.insert", "index.rtree.delete",
                    "index.rtree.search"),
    "shard": ("shard.update", "shard.batch", "shard.window", "shard.owner"),
    "exec": ("exec.run", "exec.grid"),
}

#: Keys that aggregate into counters only (no span records).
_COUNTER_ONLY = frozenset({
    "sim.vehicle", "core.policies", "index.oplane", "index.rtree.insert",
    "index.rtree.delete", "index.rtree.search", "shard.owner",
})

_QUERY_KINDS = ("position", "range", "within", "nearest", "proximity")

#: Every per-layer metric, in report order, with its unit.  A traced
#: run reports all of them on every workload; a layer the workload does
#: not reach reads 0.
METRICS: tuple[tuple[str, str], ...] = (
    ("routes.calls", "count"), ("routes.busy_s", "s"),
    ("sim.trip.calls", "count"), ("sim.trip.busy_s", "s"),
    ("sim.vehicle.calls", "count"), ("sim.vehicle.busy_s", "s"),
    ("core.policies.busy_s", "s"), ("core.policies.send_ratio", "ratio"),
    ("dbms.insert.calls", "count"), ("dbms.insert.busy_s", "s"),
    ("dbms.update.calls", "count"), ("dbms.update.busy_s", "s"),
    ("index.replace.calls", "count"), ("index.replace.busy_s", "s"),
    ("index.replace.skip_ratio", "ratio"),
    ("index.boxes_per_replace", "count"), ("index.total_boxes", "count"),
    ("index.search.busy_s", "s"),
    ("index.oplane.calls", "count"), ("index.oplane.busy_s", "s"),
    ("index.rtree.insert_s", "s"), ("index.rtree.delete_s", "s"),
    ("index.rtree.search_s", "s"),
    ("index.rtree.nodes_per_query", "count"),
    ("index.rtree.entries_per_query", "count"),
    *(
        (f"dbms.query.{kind}.{field}", unit)
        for kind in _QUERY_KINDS
        for field, unit in (("calls", "count"), ("busy_s", "s"))
    ),
    ("dbms.query.candidates_per_query", "count"),
    ("dbms.query.may_per_candidate", "ratio"),
    ("dbms.query.must_per_may", "ratio"),
    ("dbms.batch.calls", "count"), ("dbms.batch.busy_s", "s"),
    ("dbms.batch.cache_hit_rate", "ratio"),
    ("shard.update.busy_s", "s"), ("shard.batch.busy_s", "s"),
    ("shard.fanout_per_query", "count"), ("shard.owner_moves", "count"),
    ("shard.size_skew", "ratio"),
    ("exec.run.busy_s", "s"), ("exec.grid.busy_s", "s"),
    ("exec.grid.hit_rate", "ratio"),
    *((f"{group}.self_s", "s") for group in _GROUPS),
    ("trace.setup_s", "s"), ("trace.run_s", "s"),
    ("unattributed_s", "s"), ("trace.overhead_ratio", "ratio"),
)


#: Stands in for a :class:`~perfbench.hostclock.HostClock` when none runs.
_NO_CLOCK = SimpleNamespace(kernel_s=0.0)


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


class LayerTracer:
    """Frame stack, per-key timing totals, counters and kept spans."""

    def __init__(self) -> None:
        #: key -> [calls, busy seconds, self seconds].  Calls and busy
        #: time count only calls not nested in a call of the same key;
        #: busy times of different keys can nest (an R-tree delete
        #: reinserting orphans), self times never overlap.
        self.timing: dict[str, list[float]] = defaultdict(lambda: [0, 0.0, 0.0])
        self.counts: dict[str, float] = defaultdict(float)
        self.spans: list[tuple[int, str, float, float, int | None]] = []
        self.phase_s = {"setup": 0.0, "run": 0.0}
        self.root_self_s = 0.0
        self._depth: dict[str, int] = defaultdict(int)
        #: Frames: [child seconds, span id of the nearest kept ancestor].
        self._stack: list[list[Any]] = []
        self._next_id = 0
        self._saved: list[tuple[type, str, Any]] = []
        #: The calibration sampler running beside the traced passes, if
        #: any; its kernel time is taken out of every frame.
        self.clock: Any = _NO_CLOCK

    # -- frames ---------------------------------------------------------

    def _call(self, key: str, fn: Callable, args: tuple, kwargs: dict,
              before: Callable | None = None,
              after: Callable | None = None) -> Any:
        stack = self._stack
        if not stack:  # outside a phase root: not part of a measurement
            return fn(*args, **kwargs)
        token = None
        if before is not None:
            args, token = before(args, kwargs)
        parent = stack[-1]
        span_id = None
        if key not in _COUNTER_ONLY:
            span_id = self._next_id
            self._next_id += 1
        frame = [0.0, span_id if span_id is not None else parent[1]]
        depth = self._depth
        depth[key] += 1
        stack.append(frame)
        clock = self.clock
        start = perf_counter()
        kernel = clock.kernel_s
        try:
            result = fn(*args, **kwargs)
        finally:
            kernel = clock.kernel_s - kernel
            end = perf_counter()
            stack.pop()
            depth[key] -= 1
            elapsed = end - start - kernel
            parent[0] += elapsed
            totals = self.timing[key]
            totals[2] += elapsed - frame[0]
            if depth[key] == 0:
                totals[0] += 1
                totals[1] += elapsed
            if span_id is not None:
                self.spans.append((span_id, key, start, end, parent[1]))
        if after is not None:
            after(result, token)
        return result

    @contextmanager
    def phase(self, name: str) -> Iterator[None]:
        """A root frame; its self time is work no wrapped layer covers."""
        span_id = self._next_id
        self._next_id += 1
        frame = [0.0, span_id]
        self._stack.append(frame)
        clock = self.clock
        start = perf_counter()
        kernel = clock.kernel_s
        try:
            yield
        finally:
            kernel = clock.kernel_s - kernel
            end = perf_counter()
            self._stack.pop()
            self.phase_s[name] += end - start - kernel
            self.root_self_s += end - start - kernel - frame[0]
            self.spans.append((span_id, name, start, end, None))

    # -- installation ---------------------------------------------------

    def _patch(self, cls: type, name: str, key: str,
               after: Callable | None = None,
               before: Callable | None = None) -> None:
        """Wrap ``cls.name`` under timing key ``key``.

        Inside a phase, ``before(args, kwargs)`` runs ahead of the call
        and returns the arguments to call with and a token;
        ``after(result, token)`` runs once the call returned.
        """
        raw = cls.__dict__[name]
        is_classmethod = isinstance(raw, classmethod)
        fn = raw.__func__ if is_classmethod else raw
        call = self._call

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            return call(key, fn, args, kwargs, before, after)

        self._saved.append((cls, name, raw))
        setattr(cls, name, classmethod(wrapper) if is_classmethod else wrapper)

    @contextmanager
    def installed(self) -> Iterator["LayerTracer"]:
        """Wrap every traced public call; restore the originals on exit."""
        counts = self.counts
        patch = self._patch

        def on_decide(decision: Any, token: None) -> None:
            counts["decisions"] += 1
            counts["sends"] += bool(decision.send)

        def on_replace(stats: Any, token: None) -> None:
            counts["box_work"] += stats.boxes_removed + stats.boxes_inserted
            if stats.boxes_removed == 0 and stats.boxes_inserted == 0:
                counts["replace_skips"] += 1

        def on_range(answer: Any, token: None) -> None:
            counts["query_candidates"] += len(answer.candidates)
            counts["query_spatial"] += 1
            counts["query_may"] += len(answer.may)
            counts["query_must"] += len(answer.must)

        def on_window(shards: tuple, token: None) -> None:
            counts["fanout_windows"] += 1
            counts["fanout_shards"] += len(shards)

        def own_search_stats(args: tuple, kwargs: dict) -> tuple:
            # Count nodes and entries through the public ``SearchStats``:
            # search with our own, then add it to the caller's, if any.
            tree, boxes, *rest = args
            caller = rest[0] if rest else kwargs.pop("stats", None)
            own = SearchStats()
            return (tree, boxes, own), (own, caller, boxes)

        def on_search(result: Any, token: tuple) -> None:
            own, caller, boxes = token
            counts["rtree_queries"] += 1 if isinstance(boxes, Box3D) else len(boxes)
            counts["rtree_nodes"] += own.nodes_visited
            counts["rtree_entries"] += own.entries_tested
            if caller is not None:
                caller.nodes_visited += own.nodes_visited
                caller.entries_tested += own.entries_tested
                caller.results += own.results

        def batch_cache(args: tuple, kwargs: dict) -> tuple:
            engine = args[0]
            return args, (engine, engine.cache_hits, engine.cache_misses)

        def on_batch(result: Any, token: tuple) -> None:
            engine, hits, misses = token
            counts["batch_hits"] += engine.cache_hits - hits
            counts["batch_misses"] += engine.cache_misses - misses

        def owner_before(args: tuple, kwargs: dict) -> tuple:
            database, message = args
            return args, (database, message.object_id,
                          database.owner_of(message.object_id))

        def on_sharded_update(result: Any, token: tuple) -> None:
            database, object_id, owner = token
            counts["owner_moves"] += database.owner_of(object_id) != owner

        def grid_hits(args: tuple, kwargs: dict) -> tuple:
            cache = args[0]
            return args, (cache, cache.hits)

        def on_grid(result: Any, token: tuple) -> None:
            cache, hits = token
            counts["grid_lookups"] += 1
            counts["grid_hits"] += cache.hits - hits

        patch(RouteNetwork, "random_route", "routes")
        patch(Trip, "__init__", "sim.trip")
        patch(Trip, "synthetic", "sim.trip")
        patch(OnboardComputer, "observe", "sim.vehicle")
        for policy_cls in _subclasses(UpdatePolicy):
            if "decide" in policy_cls.__dict__:
                patch(policy_cls, "decide", "core.policies", on_decide)
        patch(MovingObjectDatabase, "insert_moving_object", "dbms.insert")
        patch(MovingObjectDatabase, "process_update", "dbms.update")
        for kind, method in (("position", "position_of"),
                             ("range", "range_query"),
                             ("within", "within_distance"),
                             ("nearest", "nearest"),
                             ("proximity", "within_distance_of_object")):
            after = None if kind in ("position", "nearest") else on_range
            patch(MovingObjectDatabase, method, f"dbms.query.{kind}", after)
        patch(TimeSpaceIndex, "insert", "index.insert")
        patch(TimeSpaceIndex, "replace", "index.replace", on_replace)
        patch(TimeSpaceIndex, "candidates_at", "index.search")
        patch(TimeSpaceIndex, "candidates_at_many", "index.search")
        patch(OPlane, "boxes", "index.oplane")
        patch(RTree, "insert", "index.rtree.insert")
        patch(RTree, "delete", "index.rtree.delete")
        for name in ("search", "search_many"):
            patch(RTree, name, "index.rtree.search", on_search, own_search_stats)
        patch(BatchQueryEngine, "run", "dbms.batch", on_batch, batch_cache)
        patch(ShardedBatchQueryEngine, "run", "shard.batch")
        patch(ShardedDatabase, "process_update", "shard.update",
              on_sharded_update, owner_before)
        patch(ShardedDatabase, "shards_for_window", "shard.window", on_window)
        patch(ShardedDatabase, "owner_of", "shard.owner")
        patch(SweepExecutor, "run", "exec.run")
        patch(TripTickCache, "grid_for", "exec.grid", on_grid, grid_hits)
        try:
            yield self
        finally:
            for cls, name, raw in reversed(self._saved):
                setattr(cls, name, raw)
            self._saved.clear()

    # -- results --------------------------------------------------------

    def gauge(self, name: str, value: float) -> None:
        """Add a sampled value (averaged over traced passes)."""
        self.counts[name] += value

    def partition_error(self) -> float:
        """|sum of self times + unattributed - traced wall time|."""
        self_total = sum(totals[2] for totals in self.timing.values())
        wall = self.phase_s["setup"] + self.phase_s["run"]
        return abs(self_total + self.root_self_s - wall)

    def metrics(self, passes: int, overhead_ratio: float) -> dict[str, float]:
        """Every per-layer metric, per traced pass."""
        timing = self.timing
        counts = self.counts

        def calls(key: str) -> float:
            return timing[key][0] / passes if key in timing else 0.0

        def busy(*keys: str) -> float:
            return sum(timing[k][1] for k in keys if k in timing) / passes

        replaces = calls("index.replace") * passes
        values: dict[str, float] = {
            "routes.calls": calls("routes"),
            "routes.busy_s": busy("routes"),
            "sim.trip.calls": calls("sim.trip"),
            "sim.trip.busy_s": busy("sim.trip"),
            "sim.vehicle.calls": calls("sim.vehicle"),
            "sim.vehicle.busy_s": busy("sim.vehicle"),
            "core.policies.busy_s": busy("core.policies"),
            "core.policies.send_ratio": _ratio(counts["sends"], counts["decisions"]),
            "dbms.insert.calls": calls("dbms.insert"),
            "dbms.insert.busy_s": busy("dbms.insert"),
            "dbms.update.calls": calls("dbms.update"),
            "dbms.update.busy_s": busy("dbms.update"),
            "index.replace.calls": calls("index.replace"),
            "index.replace.busy_s": busy("index.replace"),
            "index.replace.skip_ratio": _ratio(
                counts["replace_skips"], replaces),
            "index.boxes_per_replace": _ratio(counts["box_work"], replaces),
            "index.total_boxes": counts["total_boxes"] / passes,
            "index.search.busy_s": busy("index.search"),
            "index.oplane.calls": calls("index.oplane"),
            "index.oplane.busy_s": busy("index.oplane"),
            "index.rtree.insert_s": busy("index.rtree.insert"),
            "index.rtree.delete_s": busy("index.rtree.delete"),
            "index.rtree.search_s": busy("index.rtree.search"),
            "index.rtree.nodes_per_query": _ratio(
                counts["rtree_nodes"], counts["rtree_queries"]),
            "index.rtree.entries_per_query": _ratio(
                counts["rtree_entries"], counts["rtree_queries"]),
        }
        for kind in _QUERY_KINDS:
            values[f"dbms.query.{kind}.calls"] = calls(f"dbms.query.{kind}")
            values[f"dbms.query.{kind}.busy_s"] = busy(f"dbms.query.{kind}")
        values.update({
            "dbms.query.candidates_per_query": _ratio(
                counts["query_candidates"], counts["query_spatial"]),
            "dbms.query.may_per_candidate": _ratio(
                counts["query_may"], counts["query_candidates"]),
            "dbms.query.must_per_may": _ratio(
                counts["query_must"], counts["query_may"]),
            "dbms.batch.calls": calls("dbms.batch"),
            "dbms.batch.busy_s": busy("dbms.batch"),
            "dbms.batch.cache_hit_rate": _ratio(
                counts["batch_hits"],
                counts["batch_hits"] + counts["batch_misses"]),
            "shard.update.busy_s": busy("shard.update"),
            "shard.batch.busy_s": busy("shard.batch"),
            "shard.fanout_per_query": _ratio(
                counts["fanout_shards"], counts["fanout_windows"]),
            "shard.owner_moves": counts["owner_moves"] / passes,
            "shard.size_skew": counts["size_skew"] / passes,
            "exec.run.busy_s": busy("exec.run"),
            "exec.grid.busy_s": busy("exec.grid"),
            "exec.grid.hit_rate": _ratio(
                counts["grid_hits"], counts["grid_lookups"]),
        })
        for group, keys in _GROUPS.items():
            values[f"{group}.self_s"] = sum(
                timing[k][2] for k in keys if k in timing
            ) / passes
        values.update({
            "trace.setup_s": self.phase_s["setup"] / passes,
            "trace.run_s": self.phase_s["run"] / passes,
            "unattributed_s": self.root_self_s / passes,
            "trace.overhead_ratio": overhead_ratio,
        })
        return values

    def write_spans(self, path: Path, meta: dict[str, Any]) -> None:
        """Write the kept spans, oldest first, as one JSON document."""
        path.parent.mkdir(parents=True, exist_ok=True)
        spans = sorted(self.spans, key=lambda s: s[2])
        document = {
            **meta,
            "fields": ["id", "name", "start", "end", "parent"],
            "spans": spans,
        }
        path.write_text(json.dumps(document) + "\n")


def _subclasses(cls: type) -> list[type]:
    """``cls`` and every subclass below it, each once."""
    found: dict[type, None] = {cls: None}
    for sub in cls.__subclasses__():
        found.update(dict.fromkeys(_subclasses(sub)))
    return list(found)
