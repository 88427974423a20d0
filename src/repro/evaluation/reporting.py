"""Paper-style text reporting of experiment results.

The benchmark harness prints the same rows/series the paper's figures
plot: one row per x-axis value, one column per method, for each measured
quantity (F-measure, time, processed mappings).
"""

from __future__ import annotations

import math
from collections.abc import Callable, Sequence

from repro.evaluation.harness import MethodRun
from repro.obs.report import format_observability_report

__all__ = [
    "format_observability_report",
    "format_runs_table",
    "format_series",
    "format_stream_report",
]


def format_runs_table(runs: Sequence[MethodRun]) -> str:
    """A flat table of every run with all measured quantities."""
    header = (
        f"{'task':<28} {'method':<20} {'events':>6} {'traces':>7} "
        f"{'F':>6} {'prec':>6} {'rec':>6} {'score':>8} "
        f"{'time(s)':>9} {'processed':>10}"
    )
    lines = [header, "-" * len(header)]
    for run in runs:
        if run.dnf:
            f_text = prec_text = rec_text = "  DNF"
            score_text = time_text = "     DNF"
        else:
            quality = run.quality
            f_text = f"{quality.f_measure:6.3f}" if quality else "   n/a"
            prec_text = f"{quality.precision:6.3f}" if quality else "   n/a"
            rec_text = f"{quality.recall:6.3f}" if quality else "   n/a"
            score_text = f"{run.score:8.3f}"
            time_text = f"{run.elapsed_seconds:9.4f}"
        lines.append(
            f"{run.task_name:<28} {run.method:<20} {run.num_events:>6} "
            f"{run.num_traces:>7} {f_text:>6} {prec_text:>6} {rec_text:>6} "
            f"{score_text:>8} {time_text:>9} {run.processed_mappings:>10}"
        )
    return "\n".join(lines)


def format_series(
    runs: Sequence[MethodRun],
    value: Callable[[MethodRun], float],
    value_name: str,
    x_axis: str = "num_events",
) -> str:
    """A figure-shaped series table: x-axis rows × method columns.

    ``value`` extracts the plotted quantity from a run (DNF runs print as
    ``DNF``); ``x_axis`` is ``"num_events"`` or ``"num_traces"``.
    """
    methods: list[str] = []
    xs: list[int] = []
    cells: dict[tuple[int, str], str] = {}
    for run in runs:
        x = getattr(run, x_axis)
        if run.method not in methods:
            methods.append(run.method)
        if x not in xs:
            xs.append(x)
        if run.dnf:
            text = "DNF"
        else:
            number = value(run)
            if isinstance(number, float) and math.isnan(number):
                text = "n/a"
            elif abs(number) >= 1000:
                text = f"{number:.3g}"
            else:
                text = f"{number:.3f}"
        cells[(x, run.method)] = text

    x_label = "#events" if x_axis == "num_events" else "#traces"
    width = max(12, max((len(m) for m in methods), default=12) + 1)
    header = f"{value_name} by {x_label}"
    column_header = f"{x_label:>8} " + " ".join(
        f"{method:>{width}}" for method in methods
    )
    lines = [header, column_header, "-" * len(column_header)]
    for x in sorted(xs):
        row = f"{x:>8} " + " ".join(
            f"{cells.get((x, method), '—'):>{width}}" for method in methods
        )
        lines.append(row)
    return "\n".join(lines)


def format_stream_report(updates: Sequence["StreamUpdate"]) -> str:
    """A per-update table of an online matching run.

    One row per :meth:`~repro.stream.engine.OnlineMatcher.update` call:
    the committed trace count, the realized pattern normal distance at
    the live frequencies, the relative drift against the last re-match's
    baseline, and what the engine did about it (``hold``, or the matcher
    method it ran and why).
    """
    actions = []
    for update in updates:
        if update.rematched:
            action = f"re-match[{update.reason}]:{update.method}"
            if update.degraded:
                action += f" gap<={update.gap:.3f}"
            actions.append(action)
        else:
            actions.append("hold")
    action_width = max([len(action) for action in actions] + [6])
    header = (
        f"{'update':>6} {'traces':>7} {'score':>9} {'drift':>7} "
        f"{'action':<{action_width}} {'time(s)':>8} {'mapping':<9}"
    )
    lines = [header, "-" * len(header)]
    for update, action in zip(updates, actions):
        mapping_text = (
            ("changed" if update.mapping_changed else "kept")
            if update.rematched
            else "-"
        )
        drift_text = (
            "inf" if math.isinf(update.drift) else f"{update.drift:7.4f}"
        )
        lines.append(
            f"{update.update_id:>6} {update.num_traces:>7} "
            f"{update.score:9.3f} {drift_text:>7} {action:<{action_width}} "
            f"{update.elapsed_seconds:8.3f} {mapping_text:<9}"
        )
    return "\n".join(lines)
