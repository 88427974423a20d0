"""Tests for repro.blocking — signals, plan, tiered matching, wiring.

The load-bearing properties: blocking off stays bit-identical to the
plain exact path; blocked-exact composes to the unblocked optimum on
instances where the partition keeps the optimum enumerable; every block
escalation and auto-accept is visible through the stats counters; and
the ``blocking`` knob survives every transport boundary (CLI args,
service payloads, stream checkpoints).
"""

import pytest

from repro.blocking import (
    BlockingConfig,
    build_plan,
    normalize_blocking,
    tiered_match,
)
from repro.blocking.signals import compute_signals
from repro.core.astar import SearchBudgetExceeded
from repro.core.matcher import match
from repro.datagen import generate_largevocab
from repro.evaluation.harness import run_method
from repro.log.eventlog import EventLog
from repro.obs.probe import ObservabilityProbe
from repro.obs.report import format_observability_report
from repro.parallel import close_warm_pool, current_warm_pool


@pytest.fixture(scope="module")
def gate_task():
    """Small large-vocab task where unblocked exact stays feasible."""
    return generate_largevocab(
        num_families=3, roles_per_family=2, num_traces=150, seed=0
    )


@pytest.fixture(scope="module")
def unblocked(gate_task):
    return match(
        gate_task.log_1, gate_task.log_2, patterns=gate_task.patterns,
        method="pattern-tight",
    )


@pytest.fixture(scope="module")
def blocked(gate_task):
    return match(
        gate_task.log_1, gate_task.log_2, patterns=gate_task.patterns,
        method="pattern-tight", blocking=True,
    )


class TestConfig:
    def test_defaults_roundtrip(self):
        config = BlockingConfig()
        assert BlockingConfig.from_dict(config.to_dict()) == config

    def test_validation(self):
        with pytest.raises(ValueError):
            BlockingConfig(frequency_gap=0.0)
        with pytest.raises(ValueError):
            BlockingConfig(signal_bands=0)
        with pytest.raises(ValueError):
            BlockingConfig(exact_cutoff=0)
        with pytest.raises(ValueError):
            BlockingConfig.from_dict({"no_such_knob": 1})

    def test_normalize(self):
        assert normalize_blocking(None) is None
        assert normalize_blocking(False) is None
        assert normalize_blocking(True) == BlockingConfig()
        config = BlockingConfig(frequency_gap=0.1)
        assert normalize_blocking(config) is config
        assert normalize_blocking({"frequency_gap": 0.1}) == config
        with pytest.raises(TypeError):
            normalize_blocking("yes")


class TestPlan:
    def test_partitions_whole_vocabulary(self, gate_task):
        plan = build_plan(
            gate_task.log_1, gate_task.log_2, BlockingConfig()
        )
        sources = [
            event for block in plan.blocks for event in block.sources
        ] + list(plan.residual_sources)
        targets = [
            event for block in plan.blocks for event in block.targets
        ] + list(plan.residual_targets)
        assert sorted(sources) == sorted(gate_task.log_1.alphabet())
        assert sorted(targets) == sorted(gate_task.log_2.alphabet())
        assert len(sources) == len(set(sources))
        assert plan.pairs_considered < plan.pairs_total

    def test_balanced_profile_refinement_splits(self):
        # a always precedes b; the 1:1 degree profiles (a/x pure
        # sources, b/y pure sinks) are balanced, so the shared-frequency
        # cluster refines into two singleton blocks.
        log_1 = EventLog(["ab"] * 30, name="one")
        log_2 = EventLog(["xy"] * 30, name="two")
        plan = build_plan(log_1, log_2, BlockingConfig())
        assert {(b.sources, b.targets) for b in plan.blocks} == {
            (("a",), ("x",)),
            (("b",), ("y",)),
        }

    def test_unbalanced_refinement_rejected(self):
        # a and b alternate order (identical symmetric profiles) while x
        # and y stay ordered (distinct profiles): the profile groups are
        # unbalanced, so the cluster conservatively stays one 2x2 block.
        log_1 = EventLog(["ab", "ba"] * 15, name="one")
        log_2 = EventLog(["xy"] * 30, name="two")
        plan = build_plan(log_1, log_2, BlockingConfig())
        assert len(plan.blocks) == 1
        assert plan.blocks[0].sources == ("a", "b")
        assert plan.blocks[0].targets == ("x", "y")

    def test_one_sided_clusters_pool_into_residual(self):
        # c appears in every trace of log_1 while no log_2 event tops
        # 0.5: its frequency-1.0 cluster is one-sided and pools into the
        # residual sources.
        log_1 = EventLog(["abc", "bac", "c", "c"] * 10, name="one")
        log_2 = EventLog(["xy", "yx", "uv", "vu"] * 10, name="two")
        plan = build_plan(log_1, log_2, BlockingConfig())
        assert "c" in plan.residual_sources
        assert not plan.is_candidate("a", "q")


class TestTieredMatch:
    def test_blocked_equals_unblocked_exact(self, unblocked, blocked):
        assert blocked.mapping.as_dict() == unblocked.mapping.as_dict()
        assert blocked.score == pytest.approx(unblocked.score)
        assert blocked.gap >= 0.0

    def test_auto_accepted_pairs_are_in_the_mapping(
        self, gate_task, blocked
    ):
        # F-measure parity rests on auto-accepted pairs counting like
        # searched ones: the composed mapping must cover them.
        stats = blocked.stats
        assert stats.blocking_auto_accepted > 0
        assert len(blocked.mapping.as_dict()) == len(
            gate_task.log_1.alphabet()
        )

    def test_tier_counters_consistent(self, blocked):
        stats = blocked.stats
        assert stats.blocking_blocks == (
            stats.blocking_auto_accepted + stats.blocking_escalated
        )
        assert 0 < stats.blocking_pairs_considered < (
            stats.blocking_pairs_total
        )
        assert 0.0 < stats.extra["blocking_pruned_ratio"] < 1.0
        assert stats.extra["blocking_elapsed_seconds"] > 0.0

    def test_counters_survive_merge_and_report(self, blocked):
        from repro.core.stats import SearchStats

        merged = SearchStats()
        merged.merge(blocked.stats)
        merged.merge(blocked.stats)
        assert merged.blocking_blocks == 2 * blocked.stats.blocking_blocks
        report = format_observability_report(stats=merged)
        assert "blocking_blocks" in report
        assert "blocking_pruned_ratio" in report

    def test_off_is_bit_identical(self, gate_task, unblocked):
        plain = match(
            gate_task.log_1, gate_task.log_2, patterns=gate_task.patterns,
            method="pattern-tight", blocking=False,
        )
        assert plain.mapping.as_dict() == unblocked.mapping.as_dict()
        assert plain.score == unblocked.score
        assert plain.gap == unblocked.gap
        assert plain.stats.blocking_blocks == 0

    def test_rejects_non_pattern_methods(self, gate_task):
        with pytest.raises(ValueError, match="blocking"):
            match(
                gate_task.log_1, gate_task.log_2,
                method="greedy", blocking=True,
            )

    def test_heuristic_escalation_via_exact_cutoff(self):
        task = generate_largevocab(
            num_families=2, roles_per_family=4, num_traces=200, seed=3,
            family_chains=True, families_per_level=1,
        )
        outcome = tiered_match(
            task.log_1, task.log_2, task.patterns,
            config=BlockingConfig(auto_accept=False, exact_cutoff=1),
        )
        # Every block exceeds the cutoff: all heuristic, so every
        # pattern contributes cap-based slack and the gap is positive.
        assert outcome.gap > 0.0
        assert len(outcome.mapping.as_dict()) == len(task.log_1.alphabet())

    def test_strict_budget_raises(self, gate_task):
        with pytest.raises(SearchBudgetExceeded):
            tiered_match(
                gate_task.log_1, gate_task.log_2, gate_task.patterns,
                config=BlockingConfig(auto_accept=False),
                node_budget=1, strict=True,
            )

    def test_probe_sees_plan_and_tiers(self, gate_task):
        probe = ObservabilityProbe()
        match(
            gate_task.log_1, gate_task.log_2, patterns=gate_task.patterns,
            method="pattern-tight", blocking=True, probe=probe,
        )
        snapshot = probe.metrics.snapshot()
        assert snapshot["gauges"]["repro_blocking_blocks"] > 0
        assert 0.0 < snapshot["gauges"]["repro_blocking_pruned_ratio"] < 1.0
        tiers = {
            name: value
            for name, value in snapshot["counters"].items()
            if name.startswith("repro_blocking_tier_total")
        }
        assert sum(tiers.values()) > 0

    def test_parallel_blocked_is_identical(self, gate_task):
        # Blocked runs search their blocks serially whatever ``workers``
        # says: same answer, and no worker pool is started.
        close_warm_pool()
        config = {"auto_accept": False}
        serial = match(
            gate_task.log_1, gate_task.log_2, patterns=gate_task.patterns,
            method="pattern-tight", blocking=config,
        )
        fanned = match(
            gate_task.log_1, gate_task.log_2, patterns=gate_task.patterns,
            method="pattern-tight", blocking=config, workers=2,
        )
        assert current_warm_pool() is None
        assert fanned.mapping.as_dict() == serial.mapping.as_dict()
        assert fanned.score == pytest.approx(serial.score)
        assert fanned.gap == pytest.approx(serial.gap)


class TestHarnessParity:
    def test_blocked_run_reports_same_f_measure(self, gate_task):
        base = run_method(gate_task, "pattern-tight")
        blocked = run_method(gate_task, "pattern-tight", blocking=True)
        assert blocked.f_measure == base.f_measure
        assert blocked.stats.blocking_blocks > 0


class TestTransportWiring:
    def test_cli_blocking_flags(self, tmp_path, capsys):
        from repro.cli import main
        from repro.log.csvio import write_csv

        task = generate_largevocab(
            num_families=2, roles_per_family=2, num_traces=60, seed=5
        )
        path_1 = tmp_path / "one.csv"
        path_2 = tmp_path / "two.csv"
        write_csv(task.log_1, path_1)
        write_csv(task.log_2, path_2)
        metrics_path = tmp_path / "metrics.json"
        assert main([
            "match", str(path_1), str(path_2),
            "--blocking", "--blocking-gap", "0.08",
            "--metrics", str(metrics_path),
        ]) == 0
        captured = capsys.readouterr()
        assert "blocking_blocks" in captured.err
        assert "repro_blocking_blocks" in metrics_path.read_text()

    def test_service_job_payload_roundtrip(self):
        from repro.service.jobs import MatchJob

        job = MatchJob(
            job_id="j1", log_1="a.xes", log_2="b.xes",
            blocking={"frequency_gap": 0.1},
        )
        restored = MatchJob.from_payload(job.to_payload())
        assert restored.blocking == {"frequency_gap": 0.1}

    def test_stream_checkpoint_roundtrip(self):
        from repro.stream.engine import OnlineMatcher
        from repro.stream.ingest import StreamingLog

        reference = EventLog(["abc", "acb"] * 10, name="ref")
        matcher = OnlineMatcher(
            reference, StreamingLog(name="live"),
            blocking={"frequency_gap": 0.2},
        )
        state = matcher.checkpoint()
        assert state["config"]["blocking"]["frequency_gap"] == 0.2
        restored = OnlineMatcher.restore(state)
        assert restored.blocking == BlockingConfig(frequency_gap=0.2)
