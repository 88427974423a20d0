"""Pattern inverted index ``I_p`` (Section 3.2.1).

Maps each event to the patterns containing it.  During A* search the set
of *newly completed* patterns after extending a partial mapping with
``a → b`` is exactly the subset of ``I_p(a)`` whose remaining events are
already mapped — no scan over the full pattern set is needed.

The index also provides the static expansion order of Section 3.1: events
are visited by descending pattern involvement, so patterns complete (and
prune) as early as possible.
"""

from __future__ import annotations

from collections.abc import Collection, Iterable, Sequence

from repro.log.events import Event
from repro.patterns.ast import Pattern


class PatternIndex:
    """Inverted index from events to the patterns involving them."""

    def __init__(self, patterns: Iterable[Pattern] = ()):
        self._patterns: tuple[Pattern, ...] = ()
        self._by_event: dict[Event, tuple[Pattern, ...]] = {}
        # Each pattern is additionally filed under exactly one
        # *representative* event, so alphabet-candidate scans visit it
        # once without a dedup set.
        self._by_representative: dict[Event, list[Pattern]] = {}
        self._positions: dict[Pattern, int] = {}
        self.extend(patterns)

    def extend(self, patterns: Iterable[Pattern]) -> tuple[Pattern, ...]:
        """Register additional patterns, returning the genuinely new ones.

        This is the ``I_p`` update path used by the streaming subsystem:
        re-matching introduces freshly mapped patterns mid-stream, and
        only those need indexing (and back-filling) — existing postings
        are untouched.  Duplicates of already-registered patterns are
        ignored.
        """
        fresh: list[Pattern] = []
        collecting: dict[Event, list[Pattern]] = {}
        for pattern in patterns:
            if pattern in self._positions:
                continue
            fresh.append(pattern)
            self._positions[pattern] = len(self._positions)
            events = pattern.event_set()
            for event in events:
                collecting.setdefault(event, []).append(pattern)
            self._by_representative.setdefault(
                next(iter(events)), []
            ).append(pattern)
        if not fresh:
            return ()
        self._patterns = self._patterns + tuple(fresh)
        for event, involved in collecting.items():
            self._by_event[event] = self._by_event.get(event, ()) + tuple(
                involved
            )
        return tuple(fresh)

    @property
    def patterns(self) -> tuple[Pattern, ...]:
        return self._patterns

    def __len__(self) -> int:
        return len(self._patterns)

    def __contains__(self, pattern: object) -> bool:
        return pattern in self._positions

    def involving(self, event: Event) -> tuple[Pattern, ...]:
        """``I_p(event)`` — the patterns containing ``event``."""
        return self._by_event.get(event, ())

    def involvement(self, event: Event) -> int:
        """How many patterns contain ``event``."""
        return len(self.involving(event))

    def expansion_order(self, events: Iterable[Event]) -> list[Event]:
        """``events`` sorted by descending pattern involvement.

        Ties break alphabetically so the search is deterministic.
        """
        return sorted(events, key=lambda event: (-self.involvement(event), event))

    def newly_completed(
        self, event: Event, mapped_events: Collection[Event]
    ) -> list[Pattern]:
        """Patterns completed by mapping ``event``, given ``mapped_events``.

        A pattern is *newly completed* when it contains ``event`` and every
        other of its events is in ``mapped_events`` (``event`` itself need
        not be).  This computes the paper's ``P_new = P_{M'} \\ P_M``.
        """
        completed = []
        for pattern in self.involving(event):
            if all(
                other == event or other in mapped_events
                for other in pattern.event_set()
            ):
                completed.append(pattern)
        return completed

    def candidates_for_alphabet(
        self, alphabet: Collection[Event]
    ) -> list[Pattern]:
        """Patterns whose whole event set occurs in ``alphabet``.

        Used by streaming delta maintenance: a newly committed trace can
        only raise the count of patterns whose events all appear in it,
        and those are found through the representative-event partition of
        the trace's (usually small) alphabet — each pattern is examined
        at most once, with no dedup set.  Registration order is
        preserved.
        """
        alphabet_set = (
            alphabet
            if isinstance(alphabet, (set, frozenset))
            else set(alphabet)
        )
        by_representative = self._by_representative
        candidates: list[Pattern] = []
        for event in alphabet_set:
            for pattern in by_representative.get(event, ()):
                if pattern.event_set() <= alphabet_set:
                    candidates.append(pattern)
        candidates.sort(key=self._positions.__getitem__)
        return candidates


def validate_patterns(
    patterns: Sequence[Pattern], alphabet: Collection[Event]
) -> None:
    """Check that every pattern only uses events from ``alphabet``.

    Raises ``ValueError`` naming the offending pattern and events.
    """
    alphabet_set = set(alphabet)
    for pattern in patterns:
        unknown = pattern.event_set() - alphabet_set
        if unknown:
            raise ValueError(
                f"pattern {pattern!r} uses events not in the log: "
                f"{sorted(unknown)}"
            )
