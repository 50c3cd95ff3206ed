"""Parallel per-shard query fan-out over the batch engine.

:class:`ShardedBatchQueryEngine` is the sharded counterpart of
:class:`~repro.dbms.batch.BatchQueryEngine`: it routes each query of a
batch to the shards that can contribute candidates (the owner shard
for position queries, the coverage-intersecting shards for range and
within-distance queries), answers every shard's sub-batch with a
per-shard :class:`BatchQueryEngine`, and merges the per-shard answers
back into original query order — byte-identical to running the whole
batch on a single-shard engine.

``jobs > 1`` fans the shard sub-batches over a fork
``ProcessPoolExecutor`` using the same inherit-via-fork state passing
the sweep executor uses: the shard databases are installed as worker
globals by the pool initializer, so nothing heavyweight is pickled per
task.  Every per-shard engine (worker or in-process) is built fresh
per ``run`` call, so cache hit/miss counts — and therefore the
recorded ``cache`` trace event — are identical for every ``jobs``
value.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor

from repro.dbms.batch import (
    BatchAnswer,
    BatchQuery,
    BatchQueryEngine,
    PositionQuery,
    RangeQuery,
    record_batch,
    validate_queries,
)
from repro.dbms.database import MovingObjectDatabase
from repro.dbms.query import disc_window
from repro.errors import QueryError
from repro.index.rtree import SearchStats
from repro.shard.sharded import ShardedDatabase, _merge_range, quiet_recording
from repro.trace.recorder import set_recorder


def _pool_context():
    """Fork where available (cheap on Linux), default context elsewhere."""
    import multiprocessing

    try:
        return multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - non-POSIX platforms
        return multiprocessing.get_context()


_WORKER_SHARDS: list[MovingObjectDatabase] | None = None


def _init_worker(shards: list[MovingObjectDatabase]) -> None:
    """Install the forked shard databases as this worker's globals."""
    global _WORKER_SHARDS
    _WORKER_SHARDS = shards
    # The parent's recorder arrives through fork; workers must not
    # append to it — the facade emits the canonical event stream.
    set_recorder(None)


def _run_shard_batch(shard: int, queries: list[BatchQuery]) -> tuple[
        int, list[BatchAnswer], int, int, tuple[int, int, int]]:
    """Answer one shard's sub-batch in a worker process."""
    assert _WORKER_SHARDS is not None
    engine = BatchQueryEngine(_WORKER_SHARDS[shard])
    stats = SearchStats()
    answers = engine.run(queries, stats)
    return (shard, answers, engine.cache_hits, engine.cache_misses,
            (stats.nodes_visited, stats.entries_tested, stats.results))


class ShardedBatchQueryEngine:
    """Batched queries over a :class:`ShardedDatabase`.

    Mirrors the :class:`BatchQueryEngine` surface (``run``,
    ``cache_hits``/``cache_misses``, ``hit_rate``); ``jobs`` selects
    serial or process-parallel shard execution.  Answers are identical
    for every ``(shards, jobs)`` combination.
    """

    def __init__(self, database: ShardedDatabase, jobs: int = 1) -> None:
        if jobs < 1:
            raise QueryError(f"jobs must be >= 1, got {jobs}")
        self._db = database
        self.jobs = jobs
        self.cache_hits = 0
        self.cache_misses = 0

    @property
    def database(self) -> ShardedDatabase:
        return self._db

    def hit_rate(self) -> float:
        """Lifetime hit rate across all per-shard engines run so far."""
        total = self.cache_hits + self.cache_misses
        return self.cache_hits / total if total else 0.0

    def run(self, queries: list[BatchQuery],
            stats: SearchStats | None = None) -> list[BatchAnswer]:
        """Answer ``queries`` in order via per-shard sub-batches."""
        validate_queries(self._db, queries)
        num_shards = self._db.num_shards
        shard_queries: list[list[BatchQuery]] = [
            [] for _ in range(num_shards)
        ]
        shard_slots: list[list[int]] = [[] for _ in range(num_shards)]
        stationary_queries: list[BatchQuery] = []
        stationary_slots: list[int] = []
        for i, query in enumerate(queries):
            if isinstance(query, PositionQuery):
                owner = self._db.owner_of(query.object_id)
                shard_queries[owner].append(query)
                shard_slots[owner].append(i)
                continue
            if isinstance(query, RangeQuery):
                window = query.polygon.bounding_rect
                kind = "range"
            else:
                window = disc_window(query.center, query.radius)
                kind = "within"
            fanned = self._db.shards_for_window(window)
            for shard in fanned:
                shard_queries[shard].append(query)
                shard_slots[shard].append(i)
            self._db._publish_fanout(kind, len(fanned))
            stationary_queries.append(query)
            stationary_slots.append(i)

        active = [
            shard for shard in range(num_shards) if shard_queries[shard]
        ]
        shard_answers: list[list[BatchAnswer]] = [
            [] for _ in range(num_shards)
        ]
        run_hits = 0
        run_misses = 0
        if self.jobs > 1 and len(active) > 1:
            run_hits, run_misses = self._run_parallel(
                active, shard_queries, shard_answers, stats
            )
        else:
            with quiet_recording():
                for shard in active:
                    engine = BatchQueryEngine(self._db.shard_databases[shard])
                    shard_answers[shard] = engine.run(
                        shard_queries[shard], stats
                    )
                    run_hits += engine.cache_hits
                    run_misses += engine.cache_misses

        stationary_answers: list[BatchAnswer] = []
        if stationary_queries:
            with quiet_recording():
                stationary_engine = BatchQueryEngine(
                    self._db.stationary_database
                )
                stationary_answers = stationary_engine.run(
                    stationary_queries
                )
                run_hits += stationary_engine.cache_hits
                run_misses += stationary_engine.cache_misses

        merged: list[BatchAnswer | None] = [None] * len(queries)
        for shard in active:
            for slot, piece in zip(shard_slots[shard],
                                   shard_answers[shard]):
                if isinstance(queries[slot], PositionQuery):
                    merged[slot] = piece
                else:
                    merged[slot] = _merge_range(merged[slot], piece)
        for slot, piece in zip(stationary_slots, stationary_answers):
            merged[slot] = _merge_range(merged[slot], piece)

        self.cache_hits += run_hits
        self.cache_misses += run_misses
        answers: list[BatchAnswer] = [
            answer for answer in merged if answer is not None
        ]
        if len(answers) != len(queries):  # pragma: no cover - routing bug
            raise QueryError("sharded batch produced incomplete answers")
        record_batch(queries, answers, run_hits, run_misses)
        return answers

    def _run_parallel(self, active: list[int],
                      shard_queries: list[list[BatchQuery]],
                      shard_answers: list[list[BatchAnswer]],
                      stats: SearchStats | None) -> tuple[int, int]:
        """Fan active shards over a fork pool; one task per shard."""
        run_hits = 0
        run_misses = 0
        with ProcessPoolExecutor(
            max_workers=min(self.jobs, len(active)),
            mp_context=_pool_context(),
            initializer=_init_worker,
            initargs=(list(self._db.shard_databases),),
        ) as pool:
            futures = [
                pool.submit(_run_shard_batch, shard, shard_queries[shard])
                for shard in active
            ]
            for future in futures:
                shard, answers, hits, misses, counted = future.result()
                shard_answers[shard] = answers
                run_hits += hits
                run_misses += misses
                if stats is not None:
                    stats.nodes_visited += counted[0]
                    stats.entries_tested += counted[1]
                    stats.results += counted[2]
        return run_hits, run_misses


__all__ = [
    "ShardedBatchQueryEngine",
]
