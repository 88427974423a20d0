"""Tests for repro.parallel — the root-split parallel search.

The load-bearing property is determinism-equivalence: the root-split
parallel matcher must return exactly the serial matcher's mapping,
score, and gap (the shards cover the serial search space and ties break
on the canonical assignment tuple, so worker scheduling cannot leak into
the result).
"""

import os

import pytest

from repro.core.astar import AStarMatcher, SearchBudgetExceeded
from repro.core.bounds import BoundKind
from repro.core.matcher import EventMatcher
from repro.core.scoring import ScoreModel, build_pattern_set
from repro.datagen import generate_reallike, generate_synthetic
from repro.datagen.random_logs import generate_random_pair
from repro.log.eventlog import EventLog
from repro.parallel import (
    SharedIncumbent,
    parallel_match,
    partition_root_targets,
)


def serial_outcome(task, bound=BoundKind.TIGHT, **kwargs):
    model = ScoreModel(
        task.log_1,
        task.log_2,
        build_pattern_set(task.log_1, complex_patterns=task.patterns),
        bound=bound,
    )
    return AStarMatcher(model, **kwargs).match()


@pytest.fixture(scope="module")
def seed_tasks():
    # Exact-search-sized slices: 8 events keeps the serial reference
    # under a second while still splitting into 4 non-trivial shards.
    return [
        generate_reallike(num_traces=30, seed=11).project_events(8),
        generate_synthetic(num_blocks=1, num_traces=40, seed=5),
        generate_random_pair(num_events=5, num_traces=60, seed=3),
    ]


@pytest.fixture(scope="module")
def chaos_task():
    """A datagen task whose left log went through the chaos injector."""
    from repro.resilience.chaos import ChaosConfig, ChaosInjector

    task = generate_reallike(num_traces=40, seed=23).project_events(8)
    injector = ChaosInjector(ChaosConfig(
        drop_event_rate=0.05,
        corrupt_event_rate=0.05,
        reorder_event_rate=0.05,
        seed=23,
    ))
    # Corruption may emit non-string sentinels; keep the well-formed
    # remainder (the validated-ingest tests own the reject path).
    traces = [
        [e for e in events if isinstance(e, str) and e]
        for _case_id, events in injector.perturb(task.log_1.traces)
    ]
    dirty = EventLog([t for t in traces if t], name="chaos")
    return task, dirty


class TestSharedIncumbent:
    def test_offer_is_compare_and_max(self):
        cell = SharedIncumbent()
        assert cell.peek() == float("-inf")
        assert cell.offer(3.0) == 3.0
        assert cell.offer(1.0) == 3.0  # lower offers never regress
        assert cell.offer(7.5) == 7.5
        assert cell.peek() == 7.5


class TestPartition:
    def test_disjoint_cover_and_determinism(self):
        targets = ["3", "1", "4", "2", "5"]
        shards = partition_root_targets(targets, 3)
        assert shards == partition_root_targets(list(reversed(targets)), 3)
        flat = [t for shard in shards for t in shard]
        assert sorted(flat) == sorted(targets)
        assert len(set(flat)) == len(targets)

    def test_clamped_to_target_count(self):
        shards = partition_root_targets(["a", "b"], 8)
        assert len(shards) == 2
        assert all(shard for shard in shards)


class TestParallelMatchEqualsSerial:
    @pytest.mark.parametrize("bound", [BoundKind.TIGHT, BoundKind.SIMPLE])
    def test_seed_fixtures(self, seed_tasks, bound):
        for task in seed_tasks:
            serial = serial_outcome(task, bound=bound)
            par = parallel_match(
                task.log_1, task.log_2, task.patterns,
                bound=bound, workers=4,
            )
            assert par.score == pytest.approx(serial.score, abs=1e-12)
            assert par.mapping.as_dict() == serial.mapping.as_dict()
            assert par.gap == serial.gap == 0.0
            assert not par.degraded
            assert par.stats.extra["parallel_workers"] == 4

    def test_chaos_seeded_task(self, chaos_task):
        task, dirty = chaos_task
        model = ScoreModel(
            dirty,
            task.log_2,
            build_pattern_set(dirty, complex_patterns=task.patterns),
            bound=BoundKind.TIGHT,
        )
        serial = AStarMatcher(model).match()
        par = parallel_match(
            dirty, task.log_2, task.patterns, workers=4
        )
        assert par.score == pytest.approx(serial.score, abs=1e-12)
        assert par.mapping.as_dict() == serial.mapping.as_dict()
        assert par.gap == serial.gap == 0.0

    def test_workers_one_routes_serial(self, seed_tasks):
        task = seed_tasks[0]
        serial = serial_outcome(task)
        par = parallel_match(task.log_1, task.log_2, task.patterns, workers=1)
        assert par.score == serial.score
        assert par.mapping.as_dict() == serial.mapping.as_dict()
        assert "parallel_workers" not in par.stats.extra

    def test_scheduling_independence(self, seed_tasks):
        # Shard-count changes reshuffle which worker finds the optimum
        # first; the merged result must not care.
        task = seed_tasks[2]
        results = [
            parallel_match(
                task.log_1, task.log_2, task.patterns,
                workers=workers, sync_interval=interval,
            )
            for workers, interval in [(2, 1), (3, 64), (4, 1024)]
        ]
        scores = {round(r.score, 9) for r in results}
        mappings = {tuple(sorted(r.mapping.as_dict().items())) for r in results}
        assert len(scores) == 1
        assert len(mappings) == 1


class TestParallelBudgets:
    def test_degraded_outcome_is_complete_with_gap(self, seed_tasks):
        task = seed_tasks[0]
        par = parallel_match(
            task.log_1, task.log_2, task.patterns,
            workers=3, node_budget=5,
        )
        assert par.degraded
        assert par.gap >= 0.0
        assert len(par.mapping) == len(task.log_1.alphabet())
        serial = serial_outcome(task)
        # The sound gap really bounds the distance to the optimum.
        assert serial.score <= par.score + par.gap + 1e-9

    def test_strict_raises(self, seed_tasks):
        task = seed_tasks[0]
        with pytest.raises(SearchBudgetExceeded):
            parallel_match(
                task.log_1, task.log_2, task.patterns,
                workers=3, node_budget=5, strict=True,
            )


class TestMatcherFacadeWorkers:
    def test_run_with_workers_matches_serial(self, seed_tasks):
        task = seed_tasks[0]
        matcher = EventMatcher(task.log_1, task.log_2, patterns=task.patterns)
        serial = matcher.run("pattern-tight")
        par = matcher.run("pattern-tight", workers=3)
        assert par.score == pytest.approx(serial.score, abs=1e-12)
        assert par.mapping.as_dict() == serial.mapping.as_dict()

    def test_warm_start_ignores_workers(self, seed_tasks):
        task = seed_tasks[0]
        matcher = EventMatcher(task.log_1, task.log_2, patterns=task.patterns)
        serial = matcher.run("pattern-tight")
        warm = matcher.run(
            "pattern-tight", workers=3, warm_start=serial.mapping.as_dict()
        )
        assert warm.score == pytest.approx(serial.score, abs=1e-12)
        assert "parallel_workers" not in warm.stats.extra


class TestCliWorkers:
    def test_match_accepts_workers_flag(self, tmp_path, capsys):
        from repro.cli import main
        from repro.log.csvio import write_csv

        task = generate_random_pair(num_events=4, num_traces=30, seed=2)
        path_1 = tmp_path / "one.csv"
        path_2 = tmp_path / "two.csv"
        write_csv(task.log_1, path_1)
        write_csv(task.log_2, path_2)
        assert main([
            "match", str(path_1), str(path_2), "--workers", "2",
        ]) == 0
        out = capsys.readouterr().out
        assert "score" in out.lower()


@pytest.mark.skipif(
    (os.cpu_count() or 1) < 2,
    reason="observed-parallelism smoke needs >= 2 cores",
)
class TestActualParallelism:
    def test_shards_run_in_distinct_processes(self, seed_tasks):
        # On multi-core runners the pool genuinely fans out; the merged
        # stats still account for every shard exactly once.
        task = seed_tasks[1]
        par = parallel_match(task.log_1, task.log_2, task.patterns, workers=2)
        assert par.stats.extra["parallel_shards"] == 2


class TestWorkStealing:
    @pytest.mark.parametrize("workers", [2, 3, 4])
    def test_adversarial_chunk_sizes_are_deterministic(
        self, seed_tasks, workers
    ):
        # Chunk granularity only changes who does the work, never the
        # answer.  The seed task's five root targets split into one
        # target per chunk at every worker count here, which maximizes
        # steal pressure.
        from repro.parallel.search import CHUNKS_PER_WORKER

        task = seed_tasks[2]
        serial = serial_outcome(task)
        par = parallel_match(
            task.log_1, task.log_2, task.patterns, workers=workers
        )
        assert par.score == serial.score
        assert par.mapping.as_dict() == serial.mapping.as_dict()
        assert par.gap == 0.0 and not par.degraded
        targets = task.log_2.alphabet()
        assert par.stats.extra["parallel_chunks"] == min(
            len(targets), workers * CHUNKS_PER_WORKER
        )

    def test_chunking_covers_targets_disjointly(self):
        from repro.parallel import chunk_root_targets

        targets = tuple(range(7))
        chunks = chunk_root_targets(targets, workers=1)
        assert len(chunks) == 4
        flat = [t for chunk in chunks for t in chunk]
        assert sorted(flat) == list(targets)
        # Default granularity: several chunks per worker so fast shards
        # have something to steal.
        assert len(chunk_root_targets(tuple(range(100)), workers=2)) == 8

    def test_steal_counters_exported(self, seed_tasks):
        task = seed_tasks[0]
        par = parallel_match(
            task.log_1, task.log_2, task.patterns, workers=2
        )
        assert par.stats.extra["parallel_chunks"] >= 2
        assert par.stats.extra["parallel_steals"] >= 0


class TestWarmPoolReuse:
    def test_warm_runs_equal_cold_run(self, seed_tasks):
        from repro.parallel import close_warm_pool, warm_pool_stats

        task = seed_tasks[0]
        serial = serial_outcome(task)
        # A cold run is a call on a freshly closed pool.
        close_warm_pool()
        cold = parallel_match(
            task.log_1, task.log_2, task.patterns, workers=2
        )
        close_warm_pool()
        warm_1 = parallel_match(
            task.log_1, task.log_2, task.patterns, workers=2
        )
        warm_2 = parallel_match(
            task.log_1, task.log_2, task.patterns, workers=2
        )
        for outcome in (cold, warm_1, warm_2):
            assert outcome.score == pytest.approx(serial.score, abs=1e-12)
            assert outcome.mapping.as_dict() == serial.mapping.as_dict()
        assert cold.stats.extra["parallel_pool_reused"] == 0
        assert warm_1.stats.extra["parallel_pool_reused"] == 0
        assert warm_2.stats.extra["parallel_pool_reused"] == 1
        # The second warm run hits the worker-side model cache: the
        # handle key is stable, so no worker rebuilds the model.
        assert warm_2.stats.extra["parallel_model_cache_hits"] >= 1
        stats = warm_pool_stats()
        assert stats["live"] and stats["reuses"] >= 1
        close_warm_pool()


class TestWarmStartDominance:
    """The parent heuristic seed + dominance pruning (PR 7 tentpole).

    The parallel layer rescores the advanced heuristic's mapping through
    the search's own ``g`` accumulation and ships it to every chunk as a
    dominance threshold.  Two regimes must both stay bit-equal to the
    serial search: the heuristic already found the optimum (chunks prove
    nothing strictly better exists and the merge falls back to the
    seed), and the heuristic fell short (some chunk strictly beats it
    and wins the merge as before).
    """

    def test_optimal_seed_dominates_and_falls_back(self):
        # Pinned instance where the advanced heuristic finds the optimal
        # mapping: the merge must return the rescored seed, bit-equal to
        # serial, and the chunks must have drained by pop-drops.
        task = generate_random_pair(num_events=6, num_traces=20, seed=1)
        serial = serial_outcome(task)
        par = parallel_match(
            task.log_1, task.log_2, task.patterns, workers=2
        )
        assert par.score == serial.score
        assert par.mapping.as_dict() == serial.mapping.as_dict()
        assert par.stats.extra.get("seed_dominated") == 1
        assert par.stats.extra.get("dropped_on_pop", 0) > 0
        assert par.stats.extra["parallel_seed_score"] == serial.score

    def test_suboptimal_seed_is_strictly_beaten(self):
        # Pinned instance where the heuristic is suboptimal: chunks must
        # find the strictly better optimum and the merge must prefer it.
        task = generate_random_pair(num_events=6, num_traces=20, seed=7)
        serial = serial_outcome(task)
        par = parallel_match(
            task.log_1, task.log_2, task.patterns, workers=2
        )
        assert par.score == serial.score
        assert par.mapping.as_dict() == serial.mapping.as_dict()
        assert "seed_dominated" not in par.stats.extra

    def test_dominated_shard_drains_by_drops_not_expansions(self):
        task = generate_random_pair(num_events=5, num_traces=30, seed=3)
        model = ScoreModel(
            task.log_1,
            task.log_2,
            build_pattern_set(task.log_1, complex_patterns=task.patterns),
        )
        serial = AStarMatcher(model).match()
        shard = AStarMatcher(
            model,
            incumbent_score=serial.score,
            root_targets=sorted(task.log_2.alphabet()),
            dominated_at=serial.score,
        ).match()
        # Nothing beats the dominance threshold by more than the fp
        # tolerance, and proving that must cost pop-drops, not a full
        # re-expansion of the serial search tree.
        assert shard.score <= serial.score + 1e-12
        assert shard.stats.extra.get("dropped_on_pop", 0) > 0
        assert shard.stats.expanded_nodes < serial.stats.expanded_nodes
