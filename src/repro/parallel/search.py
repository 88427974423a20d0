"""Root-split parallel exact search with work-stealing shards.

The A* search tree of Algorithm 1 branches at the root into one subtree
per assignment of the first expansion-order event (``order[0] → b`` for
each target ``b ∈ U2``).  Those subtrees are disjoint — no mapping lives
in two of them — so any partition of the root targets into chunks,
searched independently, covers exactly the serial search space.

Three mechanisms make the fan-out cheaper than K cold searches:

* **Shared incumbent** — a cross-process max cell holding the best
  complete-mapping score any worker has realized.  Workers poll it every
  ``sync_interval`` expansions and adopt it as their strictly-below
  pruning threshold; they offer improvements back.  Pruning stays
  admissible because every shared score is *realized* by a complete
  injective mapping somewhere — a lower bound on the global optimum
  (see DESIGN.md, "Shared-incumbent protocol").
* **Work-stealing chunks** — the root targets are split into more chunks
  than workers, and workers claim chunks from a shared fetch-and-
  increment cursor until none remain.  A fast worker drains chunks a
  static partition would have stranded on a slow one; the chunk *list*
  is deterministic, only the claim order is dynamic, and the exact merge
  makes the result scheduling-independent.
* **Pickled-once payloads + warm pools** — the logs, patterns and bound
  travel to workers as one :class:`~repro.parallel.pool.ModelHandle`
  payload the parent pickles once per live log generation, and the
  persistent :class:`~repro.parallel.pool.WarmPool` keeps worker
  processes (and their cached score models) alive across calls, so a
  warm worker never unpickles it again and per-call setup is amortized
  to nothing in the steady state.
* **Warm-start dominance** — the parent runs the advanced heuristic
  once (milliseconds), rescores its mapping through the search's own
  incremental ``g`` accumulation (so the seed score is bit-comparable
  with every chunk score), seeds the shared incumbent with it, and
  ships it to every chunk as a *dominance threshold*: children whose
  ``g + h`` cannot beat the seed by more than the fp tolerance are
  pruned, ties included.  The score alone, used strictly-below, is not
  enough — the admissible ``h`` overestimates, so on real instances
  tens of thousands of nodes sit with ``g + h`` inside the tolerance
  band around the optimum, and a chunk that does not own the winning
  goal must drain that whole plateau one expansion at a time before it
  can stop (the serial search never pays this: its goal pops first and
  the open plateau is discarded unexamined).  Under dominance a chunk
  terminates the moment its frontier holds nothing *strictly* better
  than the seed; the merge falls back to the seed mapping unless some
  chunk beat it, which preserves exactness to within the 1e-12 score
  tolerance used everywhere else (see
  :class:`~repro.core.astar.AStarMatcher`, ``dominated_at``).

The merge is exact: a chunk's winner never prunes its own optimal branch
(pruning is strictly-below achieved scores, which are ≤ the optimum), so
the best chunk outcome carries the globally optimal score.  Ties between
equally-scored chunk winners break on the lexicographically smallest
assignment tuple in expansion order, making the result deterministic
regardless of worker scheduling or chunk sizes.  When budgets trip
(budgets apply per chunk), the combined optimality gap is sound: every
unexplored mapping lies either under some degraded chunk's frontier
(bounded by that chunk's best open ``g + h``) or in a subtree pruned
strictly below an achieved score (bounded by the global incumbent), so
``gap = max(0, max_chunk_upper − best_score)``.
"""

from __future__ import annotations

import time
from collections.abc import Mapping as MappingABC, Sequence
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass

from repro.core.astar import AStarMatcher, SearchBudgetExceeded
from repro.core.bounds import BoundKind
from repro.core.mapping import Mapping
from repro.core.result import MatchOutcome
from repro.core.scoring import ScoreModel, build_pattern_set
from repro.core.stats import SearchStats
from repro.log.events import Event
from repro.log.eventlog import EventLog
from repro.obs.probe import NULL_PROBE, Probe
from repro.parallel.pool import (
    ModelHandle,
    WarmPool,
    current_warm_pool,
    get_warm_pool,
    materialize_model,
    worker_cells,
)
from repro.patterns.ast import Pattern
from repro.patterns.index import PatternIndex

#: Work-stealing granularity: chunks per worker.  More chunks = finer
#: stealing but more per-chunk matcher setups; 4 keeps the steady-state
#: claim loop short while letting a 2x-slower shard shed most of its
#: backlog.
CHUNKS_PER_WORKER = 4


@dataclass(frozen=True)
class ShardOutcome:
    """One chunk's search result, shipped back from a worker process."""

    shard: int
    score: float
    mapping: dict[Event, Event]
    degraded: bool
    gap: float
    exhausted: bool
    stats: SearchStats
    elapsed_seconds: float
    stolen: bool = False

    @property
    def upper(self) -> float:
        """Upper bound on any mapping rooted in this chunk's subtree.

        A completed chunk proved its subtree's optimum; a degraded one
        is bounded by its best open ``g + h`` (``score + gap``); an
        exhausted chunk's unexplored mappings all fell strictly below
        an achieved incumbent, so they cannot raise the global bound.
        """
        if self.exhausted:
            return float("-inf")
        return self.score + self.gap


@dataclass(frozen=True)
class WorkerReport:
    """Everything one pool task returns: its claimed chunks plus costs."""

    outcomes: tuple[ShardOutcome, ...]
    model_cache_hit: bool
    elapsed_seconds: float


def partition_root_targets(
    targets: Sequence[Event], shards: int
) -> list[list[Event]]:
    """Deterministic round-robin split of the sorted root targets.

    Round-robin (rather than contiguous blocks) spreads the low-index
    targets — which the serial search explores first and which tend to
    carry the promising assignments under the sorted tie-break — across
    shards, so no single chunk hoards all the likely-incumbent work.
    """
    ordered = sorted(targets)
    shards = max(1, min(shards, len(ordered)))
    return [list(ordered[i::shards]) for i in range(shards)]


def chunk_root_targets(
    targets: Sequence[Event], workers: int
) -> list[list[Event]]:
    """The deterministic work-stealing chunk list for a run.

    Targets split into ``workers * CHUNKS_PER_WORKER`` chunks (clamped
    to the target count).  The list depends only on the sorted targets
    and the worker count — never on scheduling — so every run over the
    same inputs steals from the same queue.
    """
    return partition_root_targets(targets, workers * CHUNKS_PER_WORKER)


def _canonical_key(
    mapping: MappingABC[Event, Event], order: Sequence[Event]
) -> tuple:
    """Tie-break key: the assignment tuple in expansion order."""
    return tuple(mapping[event] for event in order if event in mapping)


def _run_worker_shard(
    worker: int,
    workers: int,
    handle: ModelHandle,
    chunks: list[list[Event]],
    node_budget: int | None,
    time_budget: float | None,
    sync_interval: int,
    dominated_at: float = float("-inf"),
) -> WorkerReport:
    """One pool task: materialize the model, then drain the chunk queue.

    Runs in a worker process.  The shared cells (incumbent + claim
    cursor) arrive by pool inheritance; the model comes from the
    worker's LRU cache or is built from the handle's payload.  The
    parent seeds the shared incumbent with the rescored heuristic
    warm-start before any task starts and ships the same score here as
    the chunks' dominance threshold, so every chunk search hunts only
    for mappings *strictly* better than the warm start and terminates
    instead of draining the near-optimal ``g + h`` plateau.  A chunk
    whose home worker (``index % workers``) differs from the claimer
    was *stolen* — the work-stealing count the merged stats report.
    """
    incumbent, cursor = worker_cells()
    model, cache_hit = materialize_model(handle)
    started = time.perf_counter()
    outcomes: list[ShardOutcome] = []
    while True:
        chunk_index = cursor.claim()
        if chunk_index >= len(chunks):
            break
        chunk_started = time.perf_counter()
        seed = incumbent.peek()
        matcher = AStarMatcher(
            model,
            node_budget=node_budget,
            time_budget=time_budget,
            incumbent_score=seed if seed > float("-inf") else None,
            strict=False,
            root_targets=list(chunks[chunk_index]),
            incumbent_sync=incumbent,
            sync_interval=sync_interval,
            dominated_at=dominated_at if dominated_at > float("-inf") else None,
        )
        outcome = matcher.match()
        if outcome.score > float("-inf"):
            incumbent.offer(outcome.score)
        outcomes.append(
            ShardOutcome(
                shard=chunk_index,
                score=outcome.score,
                mapping=outcome.mapping.as_dict(),
                degraded=outcome.degraded,
                gap=outcome.gap,
                exhausted=bool(outcome.stats.extra.get("frontier_exhausted")),
                stats=outcome.stats,
                elapsed_seconds=time.perf_counter() - chunk_started,
                stolen=chunk_index % workers != worker,
            )
        )
    return WorkerReport(
        outcomes=tuple(outcomes),
        model_cache_hit=cache_hit,
        elapsed_seconds=time.perf_counter() - started,
    )


def _warm_seed(
    pool: WarmPool,
    handle: ModelHandle,
    log_1: EventLog,
    log_2: EventLog,
    full_patterns,
    bound: BoundKind,
    order: Sequence[Event],
    targets: Sequence[Event],
) -> tuple[float, dict[Event, Event]]:
    """The parent-side warm start: ``(rescored score, mapping)``.

    Runs the advanced heuristic once per model cache key (the result is
    cached in the warm pool), costing milliseconds against chunk
    searches costing seconds, then *rescores* its mapping through the
    exact search's own incremental ``g`` accumulation in expansion
    order.  Rescoring matters: the heuristic sums the same terms in a
    different order, so its reported score can differ from the search's
    by a few ulps — enough to break the bit-exact score comparisons the
    merge and the equality tests rely on.  The rescored seed is what
    every chunk prunes against (dominance) and what the merge falls
    back to when no chunk strictly beats it.  ``-inf`` (heuristic
    failed or did not cover the expansion order) disables both.
    """
    goal_depth = min(len(order), len(targets))

    def build() -> tuple[float, dict[Event, Event]]:
        from repro.core.heuristic import AdvancedHeuristicMatcher

        model = ScoreModel(log_1, log_2, list(full_patterns), bound=bound)
        outcome = AdvancedHeuristicMatcher(model).match()
        mapping = outcome.mapping.as_dict()
        if outcome.score == float("-inf") or any(
            source not in mapping for source in order[:goal_depth]
        ):
            return float("-inf"), mapping
        rescore_stats = SearchStats()
        partial: dict[Event, Event] = {}
        score = 0.0
        for source in order[:goal_depth]:
            partial[source] = mapping[source]
            score += model.g_increment(source, partial, rescore_stats)
        return score, dict(partial)

    return pool.seed_for(handle.key, build)


def parallel_match(
    log_1: EventLog,
    log_2: EventLog,
    patterns: Sequence[Pattern] = (),
    bound: BoundKind = BoundKind.TIGHT,
    workers: int = 2,
    node_budget: int | None = None,
    time_budget: float | None = None,
    sync_interval: int = 128,
    strict: bool = False,
    include_vertices: bool = True,
    include_edges: bool = True,
    probe: Probe | None = None,
) -> MatchOutcome:
    """Exact A* matching, root-split over ``workers`` processes.

    Returns the same mapping and score as the serial
    :class:`~repro.core.astar.AStarMatcher` (ties broken by the
    lexicographic rule above).  ``workers <= 1`` runs the serial matcher
    in-process — byte-identical to the historical behaviour.  Budgets
    apply *per chunk*; when any chunk degrades, the merged outcome is
    flagged ``degraded`` with the sound combined gap (``strict=True``
    raises :class:`~repro.core.astar.SearchBudgetExceeded` instead,
    mirroring the serial matcher).

    Runs on the persistent module-level
    :class:`~repro.parallel.pool.WarmPool`, so worker processes and their
    cached score models survive into the next call; a cold run is
    :func:`~repro.parallel.pool.close_warm_pool` followed by a call.

    Worker processes run with the null probe; the parent emits the
    ``parallel.match`` span, per-shard metrics and pool gauges through
    ``probe``.  Chunk and steal counts travel in the merged stats
    (``parallel_chunks``/``parallel_steals`` extras).
    """
    if probe is None:
        probe = NULL_PROBE
    full_patterns = build_pattern_set(
        log_1,
        complex_patterns=patterns,
        include_vertices=include_vertices,
        include_edges=include_edges,
    )
    targets = sorted(log_2.alphabet())
    sources = sorted(log_1.alphabet())
    effective = max(1, min(workers, len(targets)))
    if effective <= 1 or not sources:
        model = ScoreModel(log_1, log_2, full_patterns, bound=bound, probe=probe)
        return AStarMatcher(
            model,
            node_budget=node_budget,
            time_budget=time_budget,
            strict=strict,
        ).match()

    # The expansion order only needs the pattern index, not the full
    # score model — the parent stays cheap while workers pay for the
    # evaluators exactly once per process lifetime.
    order = PatternIndex(full_patterns).expansion_order(sources)
    chunks = chunk_root_targets(targets, effective)
    tasks = min(effective, len(chunks))

    reused = current_warm_pool() is not None
    pool = get_warm_pool(effective)
    reused = reused and current_warm_pool() is pool
    handle = pool.handle_for(log_1, log_2, tuple(full_patterns), bound)
    seed_score, seed_mapping = _warm_seed(
        pool, handle, log_1, log_2, full_patterns, bound, order, targets
    )
    with probe.span("parallel.match", workers=effective, chunks=len(chunks)):
        if probe.enabled:
            probe.gauge("repro_parallel_workers", effective)
            probe.gauge("repro_parallel_pool_reuse", float(reused))
            probe.count(
                "repro_parallel_pool_reuses_total"
                if reused
                else "repro_parallel_pool_spawns_total"
            )
        with pool.lock:
            pool.begin_run(seed_score)
            futures = [
                pool.submit(
                    _run_worker_shard,
                    worker,
                    tasks,
                    handle,
                    chunks,
                    node_budget,
                    time_budget,
                    sync_interval,
                    seed_score,
                )
                for worker in range(tasks)
            ]
            reports: list[WorkerReport] = []
            try:
                for future in futures:
                    reports.append(future.result())
            except BrokenProcessPool:
                # A worker died mid-run (OOM kill, hard crash).  The
                # pool is unusable; fall back to an in-process serial
                # search so the caller still gets an exact answer.
                pool.close()
                model = ScoreModel(
                    log_1, log_2, full_patterns, bound=bound, probe=probe
                )
                outcome = AStarMatcher(
                    model,
                    node_budget=node_budget,
                    time_budget=time_budget,
                    strict=strict,
                ).match()
                outcome.stats.extra["parallel_pool_broken"] = 1
                return outcome
        if probe.enabled:
            for report in reports:
                probe.count("repro_parallel_shards_total")
                probe.observe(
                    "repro_parallel_shard_seconds", report.elapsed_seconds
                )
    outcomes = [o for report in reports for o in report.outcomes]
    merged = _merge_chunks(
        outcomes, order, effective, strict, seed=(seed_score, seed_mapping)
    )
    merged.stats.extra["parallel_chunks"] = len(chunks)
    merged.stats.extra["parallel_steals"] = sum(
        1 for o in outcomes if o.stolen
    )
    merged.stats.extra["parallel_model_cache_hits"] = sum(
        1 for r in reports if r.model_cache_hit
    )
    merged.stats.extra["parallel_pool_reused"] = int(reused)
    if seed_score > float("-inf"):
        merged.stats.extra["parallel_seed_score"] = seed_score
    return merged


def _merge_chunks(
    outcomes: list[ShardOutcome],
    order: Sequence[Event],
    workers: int,
    strict: bool,
    seed: tuple[float, dict[Event, Event]] | None = None,
) -> MatchOutcome:
    stats = SearchStats()
    for outcome in outcomes:
        stats.merge(outcome.stats)
    stats.extra["parallel_workers"] = workers
    stats.extra["parallel_shards"] = workers

    seed_score = seed[0] if seed is not None else float("-inf")
    withscore = [o for o in outcomes if o.score > float("-inf")]
    best_score = max((o.score for o in withscore), default=float("-inf"))
    if best_score == float("-inf") and seed_score == float("-inf"):
        # Every chunk exhausted without a complete mapping and there was
        # no warm start: only possible when the root split itself was
        # empty (no targets), which the caller already routed to the
        # serial matcher.
        return MatchOutcome(Mapping({}), 0.0, stats)
    if best_score > seed_score + 1e-12:
        winners = [o for o in withscore if o.score == best_score]
        winner_mapping = dict(
            min(
                winners, key=lambda o: _canonical_key(o.mapping, order)
            ).mapping
        )
    else:
        # No chunk strictly beat the warm start — under dominance
        # pruning that is the expected steady state whenever the
        # heuristic already found the optimum: every chunk proved its
        # subtree holds nothing better than ``seed_score + 1e-12``.  The
        # seed mapping is complete and realizes ``seed_score`` through
        # the search's own ``g`` accumulation, so it is the answer.
        best_score = seed_score
        winner_mapping = dict(seed[1])
        stats.extra["seed_dominated"] = 1

    degraded = any(o.degraded for o in outcomes)
    upper = max((o.upper for o in outcomes), default=float("-inf"))
    gap = max(0.0, upper - best_score)
    if degraded and strict:
        raise SearchBudgetExceeded(
            "parallel chunk budget exhausted "
            f"({sum(1 for o in outcomes if o.degraded)}/{len(outcomes)} "
            "chunks degraded)",
            stats,
        )
    if not degraded:
        gap = 0.0
    stats.extra.pop("frontier_exhausted", None)
    exhausted = sum(1 for o in outcomes if o.exhausted)
    if exhausted:
        stats.extra["shards_exhausted"] = exhausted
    if degraded:
        stats.extra["optimality_gap"] = gap
    return MatchOutcome(
        Mapping(winner_mapping),
        best_score,
        stats,
        degraded=degraded,
        gap=gap,
    )
