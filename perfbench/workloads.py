"""The benchmark's four workloads over public ``repro`` APIs.

Each workload is a closed loop in simulated time: one caller issues the
next call only after the previous one returned, with no wall-clock
pacing.  A workload splits one pass into

* ``setup``   -- the timed build: network, routes, trips and the
  trip-start inserts (or the sweep's trips);
* ``prepare`` -- untimed input generation (query streams) from the seed;
* ``run``     -- the timed phase, which records the latency of every
  foreground call;
* ``check``   -- untimed correctness checks on semantic answers.

The first pass of a run is checked against independent references
(an index-free replica database, the scalar single-trip simulator);
later passes, which see identical inputs, must reproduce the first
pass's answers exactly.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from time import perf_counter
from typing import Any

from repro.core.policies import make_policy
from repro.dbms.batch import (
    BatchQueryEngine,
    PositionQuery,
    RangeQuery,
    WithinDistanceQuery,
)
from repro.dbms.database import MovingObjectDatabase
from repro.exec import SweepExecutor
from repro.experiments.sweep import SweepSpec, build_curves
from repro.geometry.bbox import Rect2D
from repro.geometry.point import Point
from repro.index.timespace import TimeSpaceIndex
from repro.shard.parallel import ShardedBatchQueryEngine
from repro.shard.partition import uniform_grid_for
from repro.shard.sharded import ShardedDatabase
from repro.sim.clock import SimulationClock
from repro.sim.engine import simulate_trip
from repro.sim.metrics import aggregate_metrics
from repro.sim.trip import Trip
from repro.workloads.query_workloads import mixed_query_workload
from repro.workloads.scenarios import taxi_fleet_scenario, trucking_scenario

from .answers import count_mismatches, same, semantic

#: Vehicles per run whose fleet message count is re-derived by the
#: scalar single-trip simulator.
SAMPLED_VEHICLES = 5

#: Answers checked against the index-free replica: one in this many
#: (the replica scans every object, so it is the costly check).
REPLICA_STRIDE = 4

#: Tick width of trucking-live, in minutes (2 s): highway speeds change
#: slowly, and the coarser tick buys more trucks, so more updates, per
#: second.
TRUCK_DT = 2.0 / 60.0

#: Shards of trucking-live's database (a 2x2 grid).
SHARDS = 4

#: Policies of policy-sweep, as in the paper's figures.
POLICIES = ("dl", "ail", "cil")

Interval = tuple[float, float]


@dataclass
class PassResult:
    """What one timed pass produced."""

    #: Wall intervals ``(start, end)`` of the foreground calls (the
    #: ``op_*`` metrics).
    op_latencies: list[Interval]
    #: Operations issued (updates, queries, sweep cells).
    attempted: int
    #: Named wall intervals for the per-kind report lines.
    samples: dict[str, list[Interval]] = field(default_factory=dict)
    #: Queries answered inside batch engines, and their wall intervals.
    batch_queries: int = 0
    batch_spans: list[Interval] = field(default_factory=list)
    #: Everything ``check`` compares.
    outputs: dict[str, Any] = field(default_factory=dict)


# ----------------------------------------------------------------------
# Shared helpers
# ----------------------------------------------------------------------

def answer_sequentially(database: Any, query: Any) -> Any:
    """Answer one batch query through the database's sequential method."""
    if isinstance(query, PositionQuery):
        return database.position_of(query.object_id, query.time)
    if isinstance(query, RangeQuery):
        return database.range_query(query.polygon, query.time)
    if isinstance(query, WithinDistanceQuery):
        return database.within_distance(query.center, query.radius, query.time)
    raise TypeError(f"unsupported query type {type(query).__name__}")


def _kind(query: Any) -> str:
    if isinstance(query, PositionQuery):
        return "position"
    return "range" if isinstance(query, RangeQuery) else "within"


def _attributes(database: Any, object_id: str, class_name: str) -> dict:
    if isinstance(database, ShardedDatabase):
        owner = database.shard_databases[database.owner_of(object_id)]
        return owner.table(class_name).get(object_id)
    return database.table(class_name).get(object_id)


def scan_replica(scenario: Any) -> MovingObjectDatabase:
    """An index-free database holding the scenario's trip-start inserts.

    Built from the fleet's trips, policies and attribute rows, so it
    shares no index or shard code with the database under test; feed
    it the logged updates with :meth:`MovingObjectDatabase.process_update`.
    """
    database = scenario.database
    replica = MovingObjectDatabase(schema=database.schema, index=None)
    for object_id, vehicle in scenario.fleet.vehicles.items():
        trip = vehicle.trip
        if trip.route.route_id not in replica.routes:
            replica.register_route(trip.route)
        class_name = database.record(object_id).class_name
        replica.insert_moving_object(
            object_id=object_id, class_name=class_name,
            route_id=trip.route.route_id, t=0.0,
            position=trip.position(0.0), direction=trip.direction,
            speed=trip.speed(0.0), policy=vehicle.policy,
            max_speed=trip.max_speed,
            attributes=_attributes(database, object_id, class_name),
        )
    return replica


def _timed_updates(database: Any, latencies: list[Interval]) -> None:
    """Shadow ``process_update`` on the instance with a timing shim."""
    install = database.process_update

    def process_update(message: Any) -> None:
        start = perf_counter()
        install(message)
        latencies.append((start, perf_counter()))

    database.process_update = process_update


def _message_failures(scenario: Any, counts: dict[str, int],
                      updates_seen: int, policy: str) -> tuple[int, int]:
    """Checks on the tick loop's message counts: (attempted, failed).

    The fleet, the database's update log and the ingest shim must agree
    on the total, and a sample of vehicles must send exactly as many
    messages as the scalar single-trip simulator predicts.
    """
    total = sum(counts.values())
    failed = int(not total == scenario.database.message_count() == updates_seen)
    vehicles = list(scenario.fleet.vehicles.values())
    step = max(1, len(vehicles) // SAMPLED_VEHICLES)
    sample = vehicles[::step][:SAMPLED_VEHICLES]
    for vehicle in sample:
        expected = simulate_trip(
            vehicle.trip, make_policy(policy, vehicle.policy.update_cost),
            scenario.fleet.dt,
        ).metrics.num_updates
        failed += counts[vehicle.object_id] != expected
    return 1 + len(sample), failed


def _signature_failures(outputs: dict[str, Any],
                        first: dict[str, Any]) -> int:
    """Items of a later pass that differ from the first pass."""
    failed = 0
    for key, value in outputs.items():
        reference = first.get(key)
        if isinstance(value, list) and isinstance(reference, list) \
                and len(value) == len(reference):
            failed += sum(not same(a, b) for a, b in zip(value, reference))
        else:
            failed += not same(value, reference)
    return failed


# ----------------------------------------------------------------------
# Workloads
# ----------------------------------------------------------------------

class Workload:
    """Base: ``setup`` -> ``prepare`` -> ``run`` -> ``check``."""

    name = ""

    def setup(self, seed: int) -> Any:
        raise NotImplementedError

    def prepare(self, state: Any, seed: int) -> None:
        """Generate the pass inputs (untimed)."""

    def run(self, state: Any) -> PassResult:
        raise NotImplementedError

    def check(self, state: Any, result: PassResult,
              first: PassResult | None) -> int:
        """Failed operations of a pass.

        ``first`` is the run's first pass on the same scenario, or
        ``None`` for that first pass itself, which is checked against
        independent references instead.
        """
        raise NotImplementedError

    def gauges(self, state: Any) -> dict[str, float]:
        """End-of-pass layer gauges for the traced run."""
        return {}


@dataclass
class TaxiSizes:
    taxis: int = 50
    minutes: float = 30.0
    final_queries: int = 200
    instants: int = 30
    stream: int = 10


class _TaxiBuild(Workload):
    """The Manhattan-grid taxi fleet with its own time-space index."""

    def __init__(self, sizes: TaxiSizes | None = None) -> None:
        self.sizes = sizes or TaxiSizes()

    def setup(self, seed: int) -> dict[str, Any]:
        index = TimeSpaceIndex()
        scenario = taxi_fleet_scenario(
            num_taxis=self.sizes.taxis, duration=self.sizes.minutes,
            seed=seed, policy="ail", update_cost=5.0,
            database_factory=lambda network: MovingObjectDatabase(index=index),
        )
        return {"scenario": scenario, "index": index}

    def gauges(self, state: dict[str, Any]) -> dict[str, float]:
        return {"total_boxes": state["index"].total_boxes()}


class TaxiPipeline(_TaxiBuild):
    """Tick loop with update ingest and reindex, then one query batch."""

    name = "taxi-pipeline"

    def prepare(self, state: dict[str, Any], seed: int) -> None:
        scenario = state["scenario"]
        rng = random.Random(f"{self.name}/{seed}")
        state["queries"] = mixed_query_workload(
            scenario.network, rng, self.sizes.final_queries,
            scenario.database.object_ids(), [self.sizes.minutes],
        )

    def run(self, state: dict[str, Any]) -> PassResult:
        scenario = state["scenario"]
        database = scenario.database
        updates: list[Interval] = []
        _timed_updates(database, updates)
        try:
            counts = scenario.fleet.run(self.sizes.minutes)
        finally:
            del database.process_update
        engine = BatchQueryEngine(database)
        start = perf_counter()
        answers = engine.run(state["queries"])
        batch = (start, perf_counter())
        state["counts"] = counts
        state["updates_seen"] = len(updates)
        return PassResult(
            op_latencies=updates,
            attempted=len(updates) + len(answers),
            samples={"update": updates},
            batch_queries=len(answers), batch_spans=[batch],
            outputs={
                "messages": tuple(sorted(counts.items())),
                "answers": [semantic(a) for a in answers],
            },
        )

    def check(self, state: dict[str, Any], result: PassResult,
              first: PassResult | None) -> int:
        if first is not None:
            return _signature_failures(result.outputs, first.outputs)
        scenario = state["scenario"]
        attempted, failed = _message_failures(
            scenario, state["counts"], state["updates_seen"], "ail"
        )
        result.attempted += attempted
        # Every REPLICA_STRIDE-th query against an index-free replica.
        replica = scan_replica(scenario)
        for message in scenario.database.update_log.messages():
            replica.process_update(message)
        queries = state["queries"][::REPLICA_STRIDE]
        expected = [answer_sequentially(replica, q) for q in queries]
        return failed + count_mismatches(
            result.outputs["answers"][::REPLICA_STRIDE], expected)


#: Position, range and within shares of each taxi-serve stream.  With
#: the instant's nearest and proximity queries, range queries hold the
#: middle of the latency distribution and nearest queries its top
#: twelfth, so op_p50_ms and op_p95_ms each fall inside one kind's
#: spread rather than on the edge between two kinds.
STREAM_SHARES = (0.2, 0.6, 0.2)
_ONE_KIND = ((1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0))


class TaxiServe(_TaxiBuild):
    """Read-only: trip-start inserts, then query streams at 30 instants."""

    name = "taxi-serve"

    def prepare(self, state: dict[str, Any], seed: int) -> None:
        scenario = state["scenario"]
        database = scenario.database
        rng = random.Random(f"{self.name}/{seed}")
        ids = database.object_ids()
        min_x, min_y, max_x, max_y = scenario.network.bounding_extent()
        instants = []
        step = self.sizes.minutes / self.sizes.instants
        for i in range(1, self.sizes.instants + 1):
            t = i * step
            # A fixed split, so the pooled latency percentiles do not
            # move with a randomly drawn mix.
            stream = [
                query
                for share, mix in zip(STREAM_SHARES, _ONE_KIND)
                for query in mixed_query_workload(
                    scenario.network, rng, round(self.sizes.stream * share),
                    ids, [t], mix=mix,
                    side_miles=(2.0, 8.0), radius_miles=(1.0, 4.0),
                )
            ]
            center = Point(rng.uniform(min_x, max_x), rng.uniform(min_y, max_y))
            instants.append((t, stream, center, rng.choice(ids)))
        state["instants"] = instants

    def run(self, state: dict[str, Any]) -> PassResult:
        database = state["scenario"].database
        engine = BatchQueryEngine(database)
        samples: dict[str, list[Interval]] = {
            kind: [] for kind in
            ("position", "range", "within", "nearest", "proximity")
        }
        latencies: list[Interval] = []
        sequential: list[Any] = []
        batched: list[Any] = []
        extras: list[Any] = []
        batch_spans: list[Interval] = []
        for t, stream, center, anchor in state["instants"]:
            for query in stream:
                start = perf_counter()
                answer = answer_sequentially(database, query)
                span = (start, perf_counter())
                latencies.append(span)
                samples[_kind(query)].append(span)
                sequential.append(answer)
            start = perf_counter()
            nearest = database.nearest(center, 5, t)
            span = (start, perf_counter())
            latencies.append(span)
            samples["nearest"].append(span)
            start = perf_counter()
            proximity = database.within_distance_of_object(anchor, 1.0, t)
            span = (start, perf_counter())
            latencies.append(span)
            samples["proximity"].append(span)
            extras.extend((nearest, proximity))
            start = perf_counter()
            batched.extend(engine.run(stream))
            batch_spans.append((start, perf_counter()))
        state["batched"] = batched
        state["extras"] = extras
        return PassResult(
            op_latencies=latencies,
            attempted=len(latencies) + len(batched),
            samples=samples, batch_queries=len(batched),
            batch_spans=batch_spans,
            outputs={
                "sequential": [semantic(a) for a in sequential],
                "extras": [semantic(a) for a in extras],
            },
        )

    def check(self, state: dict[str, Any], result: PassResult,
              first: PassResult | None) -> int:
        # Every pass: the batch engine must agree with the sequential path.
        failed = count_mismatches(result.outputs["sequential"], state["batched"])
        if first is not None:
            return failed + _signature_failures(result.outputs, first.outputs)
        # First pass: every tenth instant against an index-free replica.
        replica = scan_replica(state["scenario"])
        stream_len = len(state["instants"][0][1])
        for i, (t, stream, center, anchor) in enumerate(state["instants"]):
            if i % 10 != 9 and i != len(state["instants"]) - 1:
                continue
            views = result.outputs["sequential"][i * stream_len:(i + 1) * stream_len]
            expected = [answer_sequentially(replica, q) for q in stream]
            expected.append(replica.nearest(center, 5, t))
            expected.append(replica.within_distance_of_object(anchor, 1.0, t))
            views = views + result.outputs["extras"][2 * i:2 * i + 2]
            failed += count_mismatches(views, expected)
        return failed


@dataclass
class TruckSizes:
    trucks: int = 80
    minutes: float = 45.0
    batch_every: int = 30
    batch_size: int = 100


class TruckingLive(Workload):
    """Updates beside query batches on a 2x2-sharded database."""

    name = "trucking-live"

    def __init__(self, sizes: TruckSizes | None = None) -> None:
        self.sizes = sizes or TruckSizes()

    def setup(self, seed: int) -> dict[str, Any]:
        def sharded(network: Any) -> ShardedDatabase:
            bounds = Rect2D(*network.bounding_extent())
            return ShardedDatabase(uniform_grid_for(bounds, SHARDS),
                                   index_factory=TimeSpaceIndex)

        scenario = trucking_scenario(
            num_trucks=self.sizes.trucks, duration=self.sizes.minutes,
            seed=seed, policy="dl", update_cost=5.0, dt=TRUCK_DT,
            database_factory=sharded,
        )
        return {"scenario": scenario}

    def prepare(self, state: dict[str, Any], seed: int) -> None:
        scenario = state["scenario"]
        rng = random.Random(f"{self.name}/{seed}")
        ids = scenario.database.object_ids()
        clock = SimulationClock(self.sizes.minutes, scenario.fleet.dt)
        every = self.sizes.batch_every
        state["batches"] = [
            mixed_query_workload(scenario.network, rng, self.sizes.batch_size,
                                 ids, [t])
            for i, t in clock.ticks() if i % every == 0
        ]

    def run(self, state: dict[str, Any]) -> PassResult:
        scenario = state["scenario"]
        database = scenario.database
        engine = ShardedBatchQueryEngine(database, jobs=1)
        batches = state["batches"]
        every = self.sizes.batch_every
        answers: list[list[Any]] = []
        batch_spans: list[Interval] = []
        ticks = [0]

        def on_tick(t: float) -> None:
            ticks[0] += 1
            if ticks[0] % every == 0:
                start = perf_counter()
                answers.append(engine.run(batches[len(answers)]))
                batch_spans.append((start, perf_counter()))

        updates: list[Interval] = []
        _timed_updates(database, updates)
        try:
            counts = scenario.fleet.run(self.sizes.minutes, on_tick=on_tick)
        finally:
            del database.process_update
        state["counts"] = counts
        state["updates_seen"] = len(updates)
        state["answers"] = answers
        batch_queries = sum(len(batch) for batch in answers)
        return PassResult(
            op_latencies=updates,
            attempted=len(updates) + batch_queries,
            samples={"update": updates},
            batch_queries=batch_queries, batch_spans=batch_spans,
            outputs={
                "messages": tuple(sorted(counts.items())),
                "answers": [semantic(a) for batch in answers for a in batch],
            },
        )

    def check(self, state: dict[str, Any], result: PassResult,
              first: PassResult | None) -> int:
        if first is not None:
            return _signature_failures(result.outputs, first.outputs)
        scenario = state["scenario"]
        attempted, failed = _message_failures(
            scenario, state["counts"], state["updates_seen"], "dl"
        )
        result.attempted += attempted
        # Replay the update log into an unsharded, index-free replica and
        # compare some batches at their own instants.
        replica = scan_replica(scenario)
        messages = scenario.database.update_log.messages()
        applied = 0
        stride = 5 * REPLICA_STRIDE
        for i, (batch, answers) in enumerate(zip(state["batches"], state["answers"])):
            if i % stride != stride - 1:
                continue
            t = batch[0].time
            while applied < len(messages) and messages[applied].time <= t:
                replica.process_update(messages[applied])
                applied += 1
            expected = [answer_sequentially(replica, q) for q in batch]
            failed += count_mismatches([semantic(a) for a in answers], expected)
        if len(state["answers"]) != len(state["batches"]):
            failed += 1
        return failed

    def gauges(self, state: dict[str, Any]) -> dict[str, float]:
        database = state["scenario"].database
        sizes = database.shard_sizes()
        mean = sum(sizes) / len(sizes)
        return {
            "total_boxes": sum(index.total_boxes()
                               for index in database.shard_indexes()),
            "size_skew": max(sizes) / mean if mean else 0.0,
        }


@dataclass
class SweepSizes:
    trips: int = 100
    minutes: float = 60.0
    costs: tuple[float, ...] = (1.0, 2.0, 5.0, 10.0, 20.0, 40.0)
    #: Trips re-simulated one at a time for the reference check, which
    #: runs once per run (it costs about half a pass).
    sampled_trips: int = 32


class PolicySweep(Workload):
    """The paper's policy x update-cost grid through the sweep executor."""

    name = "policy-sweep"

    def __init__(self, sizes: SweepSizes | None = None) -> None:
        self.sizes = sizes or SweepSizes()
        self._referenced = False

    def setup(self, seed: int) -> dict[str, Any]:
        sizes = self.sizes
        spec = SweepSpec(policy_names=POLICIES, update_costs=sizes.costs,
                         num_curves=sizes.trips, duration=sizes.minutes,
                         seed=seed)
        trips = [Trip.synthetic(curve, route_id=f"sweep-{i}")
                 for i, curve in enumerate(build_curves(spec))]
        return {"spec": spec, "trips": trips, "seed": seed}

    def run(self, state: dict[str, Any]) -> PassResult:
        start = perf_counter()
        result = SweepExecutor(jobs=1).run(state["spec"], trips=state["trips"])
        call = (start, perf_counter())
        state["result"] = result
        cells = [
            result.cells[policy][cost]
            for policy in POLICIES for cost in self.sizes.costs
        ]
        return PassResult(
            op_latencies=[call],
            attempted=len(cells),
            outputs={"cells": [_cell_view(cell) for cell in cells]},
        )

    def check(self, state: dict[str, Any], result: PassResult,
              first: PassResult | None) -> int:
        failed = 0
        trips = self.sizes.trips
        for cell in state["result"].cells.values():
            for aggregate in cell.values():
                total = aggregate.update_cost * aggregate.num_updates \
                    + aggregate.deviation_cost
                failed += not (
                    aggregate.num_trips == trips
                    and same(aggregate.total_cost, total)
                    and abs(aggregate.num_updates * trips
                            - round(aggregate.num_updates * trips)) < 1e-6
                )
        if first is not None:
            return failed + _signature_failures(result.outputs, first.outputs)
        if self._referenced:
            return failed
        self._referenced = True
        # Once per run: one seed-chosen cell over a trip sample, through
        # the executor and through the scalar single-trip simulator.
        sizes = self.sizes
        seed = state["seed"]
        policy = POLICIES[seed % len(POLICIES)]
        cost = sizes.costs[(seed // len(POLICIES)) % len(sizes.costs)]
        sample = state["trips"][:sizes.sampled_trips]
        spec = SweepSpec(policy_names=(policy,), update_costs=(cost,),
                         num_curves=len(sample), duration=sizes.minutes,
                         seed=seed)
        swept = SweepExecutor(jobs=1).run(spec, trips=sample).cells[policy][cost]
        expected = aggregate_metrics([
            simulate_trip(trip, make_policy(policy, cost), spec.dt).metrics
            for trip in sample
        ])
        result.attempted += 1
        return failed + (not same(_cell_view(swept), _cell_view(expected)))


def _cell_view(aggregate: Any) -> tuple:
    return (aggregate.policy, aggregate.num_trips, aggregate.update_cost,
            aggregate.num_updates, aggregate.deviation_integral,
            aggregate.deviation_cost, aggregate.total_cost,
            aggregate.avg_deviation, aggregate.max_deviation,
            aggregate.avg_uncertainty, aggregate.max_uncertainty)


WORKLOADS: dict[str, type[Workload]] = {
    cls.name: cls
    for cls in (TaxiPipeline, TaxiServe, TruckingLive, PolicySweep)
}
