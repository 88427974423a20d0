"""One text report for everything the system observed about itself.

:func:`format_observability_report` is the single operator-facing
formatter for search and kernel counters, resilience counters,
quarantine and live metrics: give it whichever of the stats objects a
run produced and it renders the matching sections, in a fixed order,
with one indented line per fact.  Everything is duck-typed
(``to_dict``/``as_dict``/``snapshot``/``summary``) so this module stays
import-free of the layers it reports on.
"""

from __future__ import annotations


def _counter_lines(counts: dict, indent: str = "  ") -> list[str]:
    width = max((len(str(key)) for key in counts), default=0)
    lines = []
    for key in counts:
        value = counts[key]
        if isinstance(value, float):
            text = f"{value:.6g}"
        else:
            text = str(value)
        lines.append(f"{indent}{key:<{width}}  {text}")
    return lines


def format_observability_report(
    stats=None,
    recovery=None,
    quarantine=None,
    registry=None,
    label: str = "",
) -> str:
    """Render every provided observability source as one text report.

    Parameters
    ----------
    stats:
        A ``SearchStats``-shaped object (``to_dict()``): search and
        kernel counters of one or more matcher runs.
    recovery:
        A ``RecoveryStats``-shaped object (``as_dict()``): the
        resilience funnel.  All-zero sections are rendered compactly.
    quarantine:
        A ``QuarantineStore``-shaped object (``total_seen`` /
        ``summary()``): appended when it saw anything.
    registry:
        A :class:`~repro.obs.metrics.MetricsRegistry` (``snapshot()``):
        live counters/gauges, e.g. from an enabled probe.
    """
    sections: list[str] = []
    title = f"observability report — {label}" if label else "observability report"
    sections.append(title)

    if stats is not None:
        payload = stats.to_dict()
        extra = payload.pop("extra", {})
        sections.append("search:")
        sections.extend(_counter_lines(payload))
        if extra:
            sections.append("search extras:")
            sections.extend(_counter_lines(extra))

    if recovery is not None:
        counts = recovery.as_dict()
        if any(counts.values()):
            sections.append("recovery:")
            sections.extend(_counter_lines(counts))
        else:
            sections.append("recovery: all clear (no degradations)")

    if quarantine is not None and getattr(quarantine, "total_seen", 0):
        sections.append("quarantine:")
        sections.append("  " + quarantine.summary())

    if registry is not None:
        snapshot = registry.snapshot()
        counters = snapshot.get("counters", {})
        gauges = snapshot.get("gauges", {})
        histograms = snapshot.get("histograms", {})
        if counters:
            sections.append("metrics (counters):")
            sections.extend(_counter_lines(counters))
        if gauges:
            sections.append("metrics (gauges):")
            sections.extend(_counter_lines(gauges))
        if histograms:
            sections.append("metrics (histograms):")
            for key, data in histograms.items():
                count = data["count"]
                total = data["sum"]
                mean = total / count if count else 0.0
                sections.append(
                    f"  {key}  count {count}, sum {total:.6g}, "
                    f"mean {mean:.6g}"
                )

    return "\n".join(sections)
