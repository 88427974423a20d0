"""Figure 7 — exact approaches over various event-set sizes.

Regenerates the three panels (F-measure, time, processed mappings) of the
paper's Figure 7 on the real-like dataset, comparing Pattern-Tight,
Pattern-Simple, Vertex, Vertex+Edge and Iterative, and benchmarks the
exact matcher at a mid-size configuration.
"""

import math

import pytest

from benchmarks.conftest import bench_scale, record_bench, save_report
from repro.datagen import generate_reallike
from repro.evaluation.experiments import figure7_exact_vs_events
from repro.evaluation.harness import run_method
from repro.evaluation.reporting import (
    format_observability_report,
    format_series,
)


@pytest.fixture(scope="module")
def fig7_runs(scale):
    if scale == "paper":
        runs = figure7_exact_vs_events(
            sizes=(2, 4, 6, 8, 10, 11), num_traces=3000,
            node_budget=2_000_000, time_budget=600.0,
        )
    else:
        runs = figure7_exact_vs_events(
            sizes=(2, 4, 6, 8, 10), num_traces=500,
            node_budget=300_000, time_budget=60.0,
        )
    report = "\n\n".join(
        format_series(runs, extractor, name)
        for extractor, name in (
            (lambda r: r.f_measure, "F-measure (Fig 7a)"),
            (lambda r: r.elapsed_seconds, "time seconds (Fig 7b)"),
            (lambda r: float(r.processed_mappings), "processed mappings (Fig 7c)"),
        )
    )
    tight = [
        r
        for r in runs
        if r.method == "pattern-tight"
        and not r.dnf
        and not math.isnan(r.elapsed_seconds)
    ]
    if tight:
        total_seconds = sum(r.elapsed_seconds for r in tight)
        largest = max(tight, key=lambda r: r.num_events)
        if largest.stats is not None:
            report += "\n\n" + format_observability_report(
                stats=largest.stats,
                label=f"pattern-tight @ {largest.num_events} events",
            )
        record_bench(
            "fig7",
            {"scale": bench_scale()},
            {
                "pattern_tight_total_s": round(total_seconds, 6),
                "pattern_tight_largest_events": largest.num_events,
                "pattern_tight_largest_s": round(largest.elapsed_seconds, 6),
                "processed_mappings_largest": largest.processed_mappings,
            },
        )
    save_report("fig7", report)
    return runs


def test_fig7_kernel_benchmark(benchmark, fig7_runs):
    """Time the Pattern-Tight exact search at 8 events / 300 traces."""
    task = generate_reallike(num_traces=300, seed=7).project_events(8)
    benchmark(lambda: run_method(task, "pattern-tight", node_budget=300_000))

    by_method = {}
    for run in fig7_runs:
        by_method.setdefault(run.method, []).append(run)
    # Shape assertions: the pattern approaches dominate the structural
    # baselines in accuracy at the largest completed size.
    completed = [r for r in by_method["pattern-tight"] if not r.dnf]
    assert completed, "pattern-tight never completed"
    largest = max(r.num_events for r in completed)

    def f_at_largest(method):
        return next(
            r.f_measure
            for r in by_method[method]
            if r.num_events == largest and not r.dnf
        )

    assert f_at_largest("pattern-tight") >= f_at_largest("vertex")
    assert f_at_largest("pattern-tight") >= f_at_largest("iterative")
    # Both exact pattern variants return the same (optimal) quality.
    for tight, simple in zip(
        by_method["pattern-tight"], by_method["pattern-simple"]
    ):
        if not tight.dnf and not simple.dnf:
            assert tight.f_measure == pytest.approx(simple.f_measure)
