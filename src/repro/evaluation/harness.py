"""Experiment harness.

Runs matching methods on :class:`~repro.datagen.task.MatchingTask`
instances, with the budgets that turn intractable exact runs into honest
DNF rows (the paper's Figure 12 reports exactly such "cannot return
results" outcomes), and sweeps over event-set sizes and trace counts the
way the paper's figures do.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

from repro.core.astar import SearchBudgetExceeded
from repro.core.mapping import Mapping
from repro.core.matcher import EventMatcher
from repro.core.stats import SearchStats
from repro.datagen.task import MatchingTask
from repro.evaluation.metrics import MatchQuality, evaluate_mapping
from repro.obs.probe import NULL_PROBE, Probe


@dataclass(frozen=True)
class MethodRun:
    """One (method, task) execution with quality and cost measurements."""

    method: str
    task_name: str
    num_events: int
    num_traces: int
    quality: MatchQuality | None
    score: float
    elapsed_seconds: float
    processed_mappings: int
    expanded_nodes: int
    dnf: bool
    mapping: Mapping | None = None
    #: Full counter set of the run (kernel observability included).
    stats: SearchStats | None = None

    @property
    def f_measure(self) -> float:
        return self.quality.f_measure if self.quality else 0.0


def run_method(
    task: MatchingTask,
    method: str,
    node_budget: int | None = None,
    time_budget: float | None = None,
    probe: Probe | None = None,
    blocking=None,
) -> MethodRun:
    """Run one method on one task; budget overruns become DNF rows.

    ``probe`` threads observability hooks (a ``harness.run`` span plus
    everything the matcher reports) into the run; DNF rows still record
    the partial stats gathered before the budget tripped.
    """
    if probe is None:
        probe = NULL_PROBE
    matcher = EventMatcher(task.log_1, task.log_2, patterns=task.patterns)
    num_events = len(task.log_1.alphabet())
    num_traces = len(task.log_1)
    try:
        # Strict: the paper's figures report budget overruns as DNF rows,
        # not as anytime incumbents — keep those rows honest.
        with probe.span(
            "harness.run",
            task=task.name,
            method=method,
            num_events=num_events,
        ):
            result = matcher.run(
                method, node_budget=node_budget, time_budget=time_budget,
                strict=True, probe=probe, blocking=blocking,
            )
    except SearchBudgetExceeded as overrun:
        if probe.enabled:
            probe.record_search_stats(overrun.stats)
        return MethodRun(
            method=method,
            task_name=task.name,
            num_events=num_events,
            num_traces=num_traces,
            quality=None,
            score=float("nan"),
            elapsed_seconds=float("nan"),
            processed_mappings=overrun.stats.processed_mappings,
            expanded_nodes=overrun.stats.expanded_nodes,
            dnf=True,
            mapping=None,
            stats=overrun.stats,
        )
    quality = (
        evaluate_mapping(result.mapping, task.truth) if len(task.truth) else None
    )
    return MethodRun(
        method=method,
        task_name=task.name,
        num_events=num_events,
        num_traces=num_traces,
        quality=quality,
        score=result.score,
        elapsed_seconds=result.elapsed_seconds,
        processed_mappings=result.stats.processed_mappings,
        expanded_nodes=result.stats.expanded_nodes,
        dnf=False,
        mapping=result.mapping,
        stats=result.stats,
    )


def sweep_events(
    task: MatchingTask,
    sizes: Sequence[int],
    methods: Sequence[str],
    node_budget: int | None = None,
    time_budget: float | None = None,
    probe: Probe | None = None,
) -> list[MethodRun]:
    """Vary the event-set size (the paper's Figures 7, 9, 12 x-axis).

    Each size projects both logs onto the first ``size`` events of
    ``log_1`` (and their ground-truth images in ``log_2``).
    """
    runs = []
    for size in sizes:
        subtask = task.project_events(size)
        for method in methods:
            runs.append(
                run_method(
                    subtask,
                    method,
                    node_budget=node_budget,
                    time_budget=time_budget,
                    probe=probe,
                )
            )
    return runs


def sweep_traces(
    task: MatchingTask,
    counts: Sequence[int],
    methods: Sequence[str],
    node_budget: int | None = None,
    time_budget: float | None = None,
    probe: Probe | None = None,
) -> list[MethodRun]:
    """Vary the trace count (the paper's Figures 8 and 10 x-axis)."""
    runs = []
    for count in counts:
        subtask = task.take_traces(count)
        for method in methods:
            runs.append(
                run_method(
                    subtask,
                    method,
                    node_budget=node_budget,
                    time_budget=time_budget,
                    probe=probe,
                )
            )
    return runs
