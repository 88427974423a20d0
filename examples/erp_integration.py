"""ERP log integration: the paper's motivating scenario end-to-end.

Two departments of a manufacturer run the same order-processing workflow
on independent ERP systems.  This example:

1. generates the two logs (the library's substitute for the paper's
   proprietary bus-manufacturer data),
2. exports/imports them through the XES interchange format (as a real
   integration would),
3. inspects the dependency graphs,
4. matches the event vocabularies with every method and reports
   precision/recall/F-measure against the known ground truth.

Run:  python examples/erp_integration.py
"""

import tempfile
from pathlib import Path

from repro import EventMatcher, MatchOptions
from repro.datagen import generate_reallike
from repro.evaluation.metrics import evaluate_mapping
from repro.graph.dependency import dependency_graph
from repro.log.xes import read_xes, write_xes


def main() -> None:
    task = generate_reallike(num_traces=2000, seed=7)
    print(f"Department 1 log: {task.log_1!r}")
    print(f"Department 2 log: {task.log_2!r} (opaque codes)")
    print(f"Hand-assigned complex patterns ({len(task.patterns)}):")
    for pattern in task.patterns:
        print(f"  {pattern!r}")

    # Round-trip through XES, like a real integration pipeline.
    with tempfile.TemporaryDirectory() as tmp:
        path_1 = Path(tmp) / "department1.xes"
        path_2 = Path(tmp) / "department2.xes"
        write_xes(task.log_1, path_1)
        write_xes(task.log_2, path_2)
        log_1 = read_xes(path_1, name="department-1")
        log_2 = read_xes(path_2, name="department-2")
    assert log_1 == task.log_1 and log_2 == task.log_2

    graph_1 = dependency_graph(log_1)
    graph_2 = dependency_graph(log_2)
    print(
        f"\nDependency graphs: "
        f"{len(graph_1)} events / {graph_1.num_edges()} edges vs "
        f"{len(graph_2)} events / {graph_2.num_edges()} edges"
    )

    matcher = EventMatcher(log_1, log_2, patterns=task.patterns)
    print(f"\n{'method':20s} {'F':>6} {'prec':>6} {'rec':>6} {'time':>9}")
    for method in (
        "pattern-tight",
        "heuristic-simple",
        "heuristic-advanced",
        "vertex",
        "iterative",
        "entropy",
    ):
        result = matcher.run(
            MatchOptions(method, node_budget=500_000, time_budget=120.0)
        )
        quality = evaluate_mapping(result.mapping, task.truth)
        print(
            f"{method:20s} {quality.f_measure:6.3f} {quality.precision:6.3f} "
            f"{quality.recall:6.3f} {result.elapsed_seconds:8.2f}s"
        )

    best = matcher.run(MatchOptions("pattern-tight", node_budget=500_000))
    print("\nRecovered correspondence (pattern-tight):")
    for source, target in sorted(best.mapping.as_dict().items()):
        marker = "" if task.truth[source] == target else "   <-- WRONG"
        print(f"  {source:16s} -> {target}{marker}")


if __name__ == "__main__":
    main()
