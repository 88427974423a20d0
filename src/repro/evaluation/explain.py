"""Explaining a mapping: per-pattern contribution breakdown.

A matching result is only trustworthy if an analyst can see *why* the
matcher preferred it.  :func:`explain_mapping` decomposes the pattern
normal distance of a mapping into one row per pattern — its frequency in
each log under the mapping and its contribution ``d(p)`` — and
:func:`format_explanation` renders the breakdown as a text table, worst
matched patterns first, so disagreements jump out.
"""

from __future__ import annotations

from collections.abc import Mapping as MappingABC, Sequence
from dataclasses import dataclass

from repro.core.distance import frequency_similarity
from repro.core.scoring import build_pattern_set
from repro.log.events import Event
from repro.log.eventlog import EventLog
from repro.patterns.ast import Pattern
from repro.patterns.matching import PatternFrequencyEvaluator


@dataclass(frozen=True)
class PatternExplanation:
    """One pattern's role in a mapping's score."""

    pattern: Pattern
    frequency_1: float
    frequency_2: float
    contribution: float
    #: False when some event of the pattern is not covered by the mapping
    #: (the pattern then contributes nothing).
    covered: bool


@dataclass(frozen=True)
class MappingExplanation:
    """Full decomposition of a mapping's pattern normal distance."""

    rows: tuple[PatternExplanation, ...]
    total_score: float

    def worst(self, count: int = 5) -> list[PatternExplanation]:
        """The ``count`` covered patterns with the lowest contribution."""
        covered = [row for row in self.rows if row.covered]
        return sorted(covered, key=lambda row: row.contribution)[:count]


def explain_mapping(
    log_1: EventLog,
    log_2: EventLog,
    mapping: MappingABC[Event, Event],
    patterns: Sequence[Pattern] = (),
) -> MappingExplanation:
    """Decompose the pattern normal distance of ``mapping``.

    The pattern set is composed the same way the matchers compose it:
    vertices and edges of ``log_1``'s dependency graph plus the given
    complex ``patterns``.
    """
    full_set = build_pattern_set(log_1, complex_patterns=patterns)
    evaluator_1 = PatternFrequencyEvaluator(log_1)
    evaluator_2 = PatternFrequencyEvaluator(log_2)
    mapping_dict = dict(mapping)

    rows = []
    total = 0.0
    for pattern in full_set:
        frequency_1 = evaluator_1.frequency(pattern)
        if pattern.event_set() <= mapping_dict.keys():
            frequency_2 = evaluator_2.mapped_frequency(pattern, mapping_dict)
            contribution = frequency_similarity(frequency_1, frequency_2)
            covered = True
            total += contribution
        else:
            frequency_2 = 0.0
            contribution = 0.0
            covered = False
        rows.append(
            PatternExplanation(
                pattern=pattern,
                frequency_1=frequency_1,
                frequency_2=frequency_2,
                contribution=contribution,
                covered=covered,
            )
        )
    return MappingExplanation(rows=tuple(rows), total_score=total)


def format_explanation(
    explanation: MappingExplanation, limit: int | None = None
) -> str:
    """Render the breakdown, lowest contributions first.

    ``limit`` caps the number of printed rows (all rows by default).
    """
    ordered = sorted(
        explanation.rows,
        key=lambda row: (not row.covered, row.contribution),
    )
    if limit is not None:
        ordered = ordered[:limit]
    header = f"{'pattern':<52} {'f1':>6} {'f2':>6} {'d(p)':>6}"
    lines = [header, "-" * len(header)]
    for row in ordered:
        if row.covered:
            lines.append(
                f"{repr(row.pattern):<52.52} {row.frequency_1:>6.3f} "
                f"{row.frequency_2:>6.3f} {row.contribution:>6.3f}"
            )
        else:
            lines.append(
                f"{repr(row.pattern):<52.52} {row.frequency_1:>6.3f} "
                f"{'—':>6} {'n/a':>6}"
            )
    lines.append("-" * len(header))
    lines.append(f"{'pattern normal distance':<52} {'':>6} {'':>6} "
                 f"{explanation.total_score:>6.2f}")
    return "\n".join(lines)


__all__ = [
    "MappingExplanation",
    "PatternExplanation",
    "explain_mapping",
    "format_explanation",
]
