"""Deterministic (parallel) execution of simulation sweeps.

The §3.4 grid is embarrassingly parallel: every (policy, update-cost,
trip) cell is an independent simulation run.  :class:`SweepExecutor`
decomposes a :class:`~repro.experiments.sweep.SweepSpec` into those
cells, runs them serially or fans them out over a
``ProcessPoolExecutor``, and re-assembles the cells in canonical
(policy, cost, trip) order before aggregating — so the resulting
:class:`~repro.experiments.sweep.SweepResult` is float-for-float
identical no matter the job count or the order in which workers finish.

Determinism stack, bottom to top:

* every cell simulation is a pure function of (trip kinematics, policy,
  C, dt) — no RNG is drawn at run time (each cell still carries a
  stable seed, derived from ``spec.seed`` and its grid coordinates, so
  future stochastic components inherit schedule-independence for free);
* trip kinematics reach workers as prebuilt :class:`TickGrid` arrays
  (workers never rebuild trips, so there is no rebuild to diverge);
* results are keyed by cell index and aggregated in spec order, never
  in completion order.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from time import perf_counter

from repro.errors import ExperimentError
from repro.exec.cache import GridTrip, TickGrid, TripTickCache
from repro.experiments.sweep import (
    SweepResult,
    SweepSpec,
    build_curves,
)
from repro.obs.live.windows import get_live
from repro.obs.registry import get_registry, get_tracer, span
from repro.sim.engine import PolicySimulation, supports_fast_path
from repro.sim.metrics import TripMetrics, aggregate_metrics
from repro.sim.speed_curves import SpeedCurve
from repro.sim.trip import Trip
from repro.vec.batch import VecTripBatch
from repro.vec.engine import simulate_batch


@dataclass(frozen=True, slots=True)
class SweepCell:
    """One independent unit of sweep work: (policy, cost, trip).

    ``seed`` is a stable function of the spec seed and the cell's grid
    coordinates — identical across serial/parallel execution and across
    runs — reserved for stochastic simulation components (noise models)
    so that adding randomness later cannot break order-independence.
    """

    policy_index: int
    cost_index: int
    trip_index: int
    seed: int


def cell_seed(spec_seed: int, policy_index: int, cost_index: int,
              trip_index: int) -> int:
    """A stable 31-bit per-cell seed from the spec seed and coordinates."""
    mixed = (
        spec_seed * 1_000_003
        ^ policy_index * 8_191
        ^ cost_index * 131_071
        ^ trip_index * 524_287
    )
    return mixed & 0x7FFFFFFF


def _decompose(spec: SweepSpec) -> list[SweepCell]:
    """All cells of the spec grid in canonical (policy, cost, trip) order."""
    return [
        SweepCell(
            policy_index=p,
            cost_index=c,
            trip_index=t,
            seed=cell_seed(spec.seed, p, c, t),
        )
        for p in range(len(spec.policy_names))
        for c in range(len(spec.update_costs))
        for t in range(spec.num_curves)
    ]


def _simulate_cell(spec: SweepSpec, grid: TickGrid,
                   cell: SweepCell) -> TripMetrics:
    """Run one cell against its tick grid (pure; process-agnostic)."""
    from repro.core.policies import make_policy

    policy_name = spec.policy_names[cell.policy_index]
    policy = make_policy(
        policy_name,
        spec.update_costs[cell.cost_index],
        **spec.policy_kwargs.get(policy_name, {}),
    )
    simulation = PolicySimulation(
        GridTrip(grid), policy, dt=spec.dt, grid=grid
    )
    return simulation.run().metrics


#: Smallest trip block worth dispatching to the vectorized engine.
#: Below this the per-tick NumPy call overhead outweighs the scalar
#: loop (the crossover sits around a few dozen vehicles); above it the
#: batch amortizes that overhead across the whole fleet row.
_MIN_VEC_TRIPS = 32


def _run_cells(spec: SweepSpec, indexed_cells: list[tuple[int, SweepCell]],
               grids: list[TickGrid]) -> list[tuple[int, TripMetrics]]:
    """Run cells (with their aligned grids), vectorizing uniform runs.

    ``_decompose`` orders cells (policy, cost, trip), so consecutive
    cells sharing a (policy, cost) pair form one sweep cell's trip
    block.  Each maximal such run is dispatched to the vectorized
    engine when eligible; everything else takes the scalar engine,
    cell by cell.  Results keep input order, so the output is
    positionally identical to a plain per-cell loop.
    """
    results: list[tuple[int, TripMetrics]] = []
    count = len(indexed_cells)
    start = 0
    while start < count:
        head = indexed_cells[start][1]
        stop = start + 1
        while stop < count:
            cell = indexed_cells[stop][1]
            if (cell.policy_index != head.policy_index
                    or cell.cost_index != head.cost_index):
                break
            stop += 1
        results.extend(_run_cell_group(
            spec, indexed_cells[start:stop], grids[start:stop]
        ))
        start = stop
    return results


def _run_cell_group(spec: SweepSpec, run: list[tuple[int, SweepCell]],
                    run_grids: list[TickGrid]) -> list[tuple[int, TripMetrics]]:
    """One (policy, cost) trip block: vectorized when eligible.

    Eligibility mirrors the scalar engine's own fast-path gate plus
    the batch layout requirements: a supported policy family, at
    least :data:`_MIN_VEC_TRIPS` trips to amortize the array setup,
    and grids that share the spec's tick layout.  Ineligible runs fall back to
    :func:`_simulate_cell` per cell — same results, scalar speed.
    """
    if len(run) >= _MIN_VEC_TRIPS:
        from repro.core.policies import make_policy

        head = run[0][1]
        policy_name = spec.policy_names[head.policy_index]
        policy = make_policy(
            policy_name,
            spec.update_costs[head.cost_index],
            **spec.policy_kwargs.get(policy_name, {}),
        )
        if supports_fast_path(policy) and _uniform_grids(run_grids, spec.dt):
            batch = VecTripBatch.from_grids(run_grids)
            batch_results = simulate_batch(batch, policy,
                                           collect_events=False)
            return [
                (position, result.metrics)
                for (position, _), result in zip(run, batch_results)
            ]
    return [
        (position, _simulate_cell(spec, grid, cell))
        for (position, cell), grid in zip(run, run_grids)
    ]


def _uniform_grids(grids: list[TickGrid], dt: float) -> bool:
    """Whether every grid shares the spec tick layout (batchable)."""
    first = grids[0]
    if first.dt != dt:
        return False
    return all(
        grid.dt == first.dt
        and grid.num_ticks == first.num_ticks
        and grid.duration == first.duration
        for grid in grids
    )


# Worker-process state, installed once per worker by the pool
# initializer so tasks only carry lightweight cell tuples.
_WORKER_SPEC: SweepSpec | None = None
_WORKER_GRIDS: list[TickGrid] | None = None


def _init_worker(spec: SweepSpec, grids: list[TickGrid]) -> None:
    global _WORKER_SPEC, _WORKER_GRIDS
    _WORKER_SPEC = spec
    _WORKER_GRIDS = grids


def _run_chunk(
    chunk: list[tuple[int, SweepCell]],
) -> tuple[list[tuple[int, TripMetrics]], float, dict | None, list | None]:
    """Run a batch of cells in a worker.

    Returns ``(indexed results, secs, metrics snapshot, span dicts)``.
    The parent's registry/tracer objects arrive here through fork
    inheritance, but mutations to them are lost with the worker process
    — so when the parent is observing, the chunk runs under *fresh*
    worker-local instances and ships their contents back as plain data
    for the parent to merge (:meth:`MetricsRegistry.merge_snapshot`,
    :meth:`Tracer.adopt_spans`).  When nobody observes, the fast path
    returns no telemetry at all.
    """
    assert _WORKER_SPEC is not None and _WORKER_GRIDS is not None
    observed = get_registry().enabled
    traced = get_tracer().enabled
    start = perf_counter()
    if not observed and not traced:
        grids = [_WORKER_GRIDS[cell.trip_index] for _, cell in chunk]
        results = _run_cells(_WORKER_SPEC, chunk, grids)
        return results, perf_counter() - start, None, None
    from contextlib import ExitStack

    from repro.obs.registry import use_registry, use_tracer

    with ExitStack() as stack:
        registry = stack.enter_context(use_registry()) if observed else None
        tracer = stack.enter_context(use_tracer()) if traced else None
        results = [
            (position, _simulate_cell(
                _WORKER_SPEC, _WORKER_GRIDS[cell.trip_index], cell
            ))
            for position, cell in chunk
        ]
        snapshot = registry.snapshot() if registry is not None else None
        span_dicts = tracer.to_dicts() if tracer is not None else None
    return results, perf_counter() - start, snapshot, span_dicts


def _pool_context():
    """Fork where available (cheap on Linux), default context elsewhere."""
    import multiprocessing

    try:
        return multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - non-POSIX platforms
        return multiprocessing.get_context()


class SweepExecutor:
    """Runs sweep grids deterministically, serially or in parallel.

    ``jobs=1`` executes in-process; ``jobs>1`` fans cells out over a
    process pool.  Either way the same tick-grid cache backs every cell
    and the output is byte-identical to the legacy serial loop (the
    parallel-equivalence tests assert exact float equality).

    The executor (and its :class:`TripTickCache`) may be reused across
    ``run`` calls: passing the same trip objects again reuses their
    grids, which is how the ablation tables share kinematics across
    policies.
    """

    def __init__(self, jobs: int = 1,
                 cache: TripTickCache | None = None) -> None:
        if jobs < 1:
            raise ExperimentError(f"jobs must be >= 1, got {jobs}")
        self.jobs = jobs
        self.cache = cache if cache is not None else TripTickCache()

    def run(self, spec: SweepSpec,
            curves: list[SpeedCurve] | None = None,
            trips: list[Trip] | None = None) -> SweepResult:
        """Execute the full (policy x cost x trip) grid of ``spec``.

        ``curves`` overrides the spec-seeded curve set; ``trips``
        additionally overrides trip construction (callers that reuse
        trip objects across several ``run`` calls get tick-grid cache
        hits across them).
        """
        if trips is None:
            if curves is None:
                curves = build_curves(spec)
            trips = [Trip.synthetic(curve, route_id=f"sweep-{i}")
                     for i, curve in enumerate(curves)]
        if len(trips) != spec.num_curves:
            raise ExperimentError(
                f"spec expects {spec.num_curves} trips, got {len(trips)}"
            )
        cells = _decompose(spec)

        registry = get_registry()
        observed = registry.enabled
        start = perf_counter()
        mode = "parallel" if self.jobs > 1 else "serial"
        with span("sweep_execute", jobs=self.jobs, cells=len(cells),
                  policies=len(spec.policy_names),
                  costs=len(spec.update_costs), trips=spec.num_curves):
            if self.jobs == 1:
                # Each cell fetches its grid through the cache, so the
                # cache's hit rate reflects the actual cross-cell
                # sharing (all but the first lookup per trip hit).
                cell_grids = [
                    self.cache.grid_for(trips[cell.trip_index], spec.dt)
                    for cell in cells
                ]
                if not observed and not get_tracer().enabled:
                    # The vectorized engine emits one span per batch
                    # and no per-tick instruments, so it only runs
                    # when nobody is observing; results are identical
                    # either way.
                    cell_metrics = [
                        metrics for _, metrics in _run_cells(
                            spec, list(enumerate(cells)), cell_grids
                        )
                    ]
                else:
                    cell_metrics = [
                        _simulate_cell(spec, grid, cell)
                        for cell, grid in zip(cells, cell_grids)
                    ]
            else:
                # Workers receive prebuilt grids (one cache lookup per
                # trip here; the sharing happens inside each worker).
                grids = [self.cache.grid_for(trip, spec.dt)
                         for trip in trips]
                cell_metrics = self._run_parallel(spec, grids, cells)
        elapsed = perf_counter() - start

        live = get_live()
        if live.enabled:
            if self.jobs == 1:
                # Parallel runs feed progress per finished chunk in
                # _run_parallel; serial runs land it here in one go.
                live.inc("exec_cells_completed", float(len(cells)))
            live.observe("exec_sweep_seconds", elapsed)

        if observed:
            registry.counter(
                "exec_tasks_total",
                help="Sweep executions dispatched through the executor.",
                mode=mode,
            ).inc()
            registry.counter(
                "exec_cells_total",
                help="Simulation cells executed by the executor.",
                mode=mode,
            ).inc(len(cells))
            registry.histogram(
                "exec_pool_seconds",
                help="Wall-clock seconds per sweep execution.",
                mode=mode,
            ).observe(elapsed)

        return SweepResult(spec=spec, cells=self._aggregate(spec, cell_metrics))

    def _run_parallel(self, spec: SweepSpec, grids: list[TickGrid],
                      cells: list[SweepCell]) -> list[TripMetrics]:
        """Fan cells out over a process pool; results in cell order."""
        indexed = list(enumerate(cells))
        # A handful of chunks per worker balances load (cells near the
        # end of a trip list can be slower) against dispatch overhead.
        chunk_size = max(1, math.ceil(len(indexed) / (self.jobs * 4)))
        chunks = [indexed[i:i + chunk_size]
                  for i in range(0, len(indexed), chunk_size)]

        registry = get_registry()
        observed = registry.enabled
        results: list[TripMetrics | None] = [None] * len(cells)
        with ProcessPoolExecutor(
            max_workers=min(self.jobs, len(chunks)),
            mp_context=_pool_context(),
            initializer=_init_worker,
            initargs=(spec, grids),
        ) as pool:
            for chunk_index, future in enumerate(
                [pool.submit(_run_chunk, chunk) for chunk in chunks]
            ):
                (chunk_results, task_seconds,
                 snapshot, span_dicts) = future.result()
                worker = f"chunk-{chunk_index}"
                if observed:
                    registry.histogram(
                        "exec_task_seconds",
                        help="Wall-clock seconds per worker task (chunk).",
                    ).observe(task_seconds)
                    if snapshot is not None:
                        registry.merge_snapshot(snapshot, worker=worker)
                tracer = get_tracer()
                if tracer.enabled and span_dicts:
                    tracer.adopt_spans(span_dicts, worker=worker)
                live = get_live()
                if live.enabled:
                    live.inc("exec_cells_completed",
                             float(len(chunk_results)))
                for position, metrics in chunk_results:
                    results[position] = metrics
        missing = [i for i, r in enumerate(results) if r is None]
        if missing:  # pragma: no cover - worker protocol violation
            raise ExperimentError(f"cells {missing} returned no result")
        return results  # type: ignore[return-value]

    @staticmethod
    def _aggregate(spec: SweepSpec, cell_metrics: list[TripMetrics]):
        """Group per-cell metrics back into the spec-ordered result grid.

        ``cell_metrics`` is indexed like :func:`_decompose`'s output, so
        the per-(policy, cost) trip lists are rebuilt in trip order —
        the same order (and therefore the same float summation) as the
        legacy serial loop, regardless of completion order.
        """
        num_costs = len(spec.update_costs)
        num_trips = spec.num_curves
        cells: dict[str, dict[float, object]] = {}
        for p, policy_name in enumerate(spec.policy_names):
            by_cost = {}
            for c, update_cost in enumerate(spec.update_costs):
                base = (p * num_costs + c) * num_trips
                by_cost[update_cost] = aggregate_metrics(
                    cell_metrics[base:base + num_trips]
                )
            cells[policy_name] = by_cost
        return cells

__all__ = [
    "SweepCell",
    "SweepExecutor",
    "cell_seed",
]
