"""Frequent event-pattern discovery (extension; paper §7.3).

The paper takes patterns as given, citing sequential-pattern /
frequent-episode mining [8, 9, 10] as the standard source.  This module
implements that source so the library is usable end-to-end without
hand-written patterns:

* :func:`frequent_sequences` — level-wise (Apriori-style) mining of
  frequent *contiguous* event sequences, the SEQ patterns of Definition 3.
  Candidates of length k+1 are joins of overlapping frequent k-sequences,
  so the trace scans stay near the frequent part of the lattice.
* :func:`fold_and_operators` — detects permutation families among the
  frequent sequences (all orders of the same event set frequent with
  similar support) and folds them into AND patterns.
* :func:`discover_patterns` — the composition: mine, fold, drop
  sub-patterns of kept patterns, rank by the §2.2 discriminativeness
  guidelines, return the top patterns.
"""

from __future__ import annotations

from repro.log.events import Event
from repro.log.eventlog import EventLog
from repro.patterns.ast import AND, EventPattern, Pattern, SEQ
from repro.patterns.selection import rank_patterns


def frequent_sequences(
    log: EventLog,
    min_support: float,
    max_length: int = 5,
) -> dict[tuple[Event, ...], float]:
    """Contiguous sequences with frequency ≥ ``min_support``.

    Returns sequences (length ≥ 2, distinct events only — the pattern
    algebra forbids duplicates) mapped to their normalized frequency.
    """
    if not 0.0 < min_support <= 1.0:
        raise ValueError("min_support must be in (0, 1]")
    if len(log) == 0:
        return {}
    total = len(log)

    def support(sequence: tuple[Event, ...]) -> float:
        count = log.count_traces_with_any_substring([sequence])
        return count / total

    frequent: dict[tuple[Event, ...], float] = {}
    current: dict[tuple[Event, ...], float] = {}
    for event in sorted(log.alphabet()):
        frequency = log.vertex_frequency(event)
        if frequency >= min_support:
            current[(event,)] = frequency

    length = 1
    while current and length < max_length:
        # Join step: (a₁..aₖ) ⨝ (a₂..aₖ, b) → (a₁..aₖ, b).
        by_prefix: dict[tuple[Event, ...], list[tuple[Event, ...]]] = {}
        for sequence in current:
            by_prefix.setdefault(sequence[:-1], []).append(sequence)
        candidates: set[tuple[Event, ...]] = set()
        for left in current:
            for right in by_prefix.get(left[1:], ()):
                candidate = left + (right[-1],)
                if len(set(candidate)) == len(candidate):
                    candidates.add(candidate)
        next_level: dict[tuple[Event, ...], float] = {}
        for candidate in candidates:
            frequency = support(candidate)
            if frequency >= min_support:
                next_level[candidate] = frequency
        frequent.update(next_level)
        current = next_level
        length += 1
    return frequent


def fold_and_operators(
    sequences: dict[tuple[Event, ...], float],
    similarity_tolerance: float = 0.2,
) -> dict[Pattern, float]:
    """Fold permutation families of frequent sequences into AND patterns.

    When *every* permutation of an event set is frequent and their
    supports lie within ``similarity_tolerance`` (relative), the family is
    replaced by one ``AND`` pattern whose frequency is the fraction of
    traces matching any order — approximated here by the family's summed
    support (orders are mutually exclusive within a window).  Other
    sequences become ``SEQ`` patterns.
    """
    by_event_set: dict[frozenset[Event], list[tuple[Event, ...]]] = {}
    for sequence in sequences:
        by_event_set.setdefault(frozenset(sequence), []).append(sequence)

    folded: dict[Pattern, float] = {}
    for event_set, members in by_event_set.items():
        size = len(event_set)
        complete_family = size >= 2 and len(members) == _factorial(size)
        if complete_family:
            supports = [sequences[member] for member in members]
            low, high = min(supports), max(supports)
            if low > 0 and (high - low) / high <= similarity_tolerance:
                pattern = AND([EventPattern(event) for event in sorted(event_set)])
                folded[pattern] = min(1.0, sum(supports))
                continue
        for member in members:
            pattern: Pattern = (
                SEQ([EventPattern(event) for event in member])
                if len(member) >= 2
                else EventPattern(member[0])
            )
            folded[pattern] = sequences[member]
    return folded


def _factorial(n: int) -> int:
    result = 1
    for i in range(2, n + 1):
        result *= i
    return result


def discover_patterns(
    log: EventLog,
    min_support: float = 0.3,
    max_length: int = 5,
    max_patterns: int = 10,
) -> list[Pattern]:
    """Mine, fold and select discriminative complex patterns from ``log``.

    The returned patterns all have ≥ 3 events (vertex and edge patterns
    are added separately by the matcher) and are ranked by the paper's
    §2.2 guidelines via :func:`~repro.patterns.selection.rank_patterns`.
    """
    sequences = frequent_sequences(log, min_support, max_length=max_length)
    folded = fold_and_operators(sequences)
    complex_patterns = {
        pattern: frequency
        for pattern, frequency in folded.items()
        if len(pattern) >= 3
    }
    # Drop patterns wholly contained (as event sets) in a larger kept
    # pattern with comparable support: they carry little extra signal.
    kept: dict[Pattern, float] = {}
    for pattern in sorted(complex_patterns, key=len, reverse=True):
        events = pattern.event_set()
        frequency = complex_patterns[pattern]
        subsumed = any(
            events < other.event_set()
            and abs(kept[other] - frequency) <= 0.1
            for other in kept
        )
        if not subsumed:
            kept[pattern] = frequency
    ranked = rank_patterns(log, list(kept))
    return ranked[:max_patterns]
