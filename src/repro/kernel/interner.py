"""Event interning: dense integer ids and int-materialized traces.

Every hot-path structure in :mod:`repro.kernel` works on small dense
integers instead of event-name strings: integer hashing is identity,
integer tuples compare with ``memcmp``-like speed, and dense ids double
as indices into flat arrays.  The :class:`EventInterner` owns the
string ↔ id mapping for one log and materializes each committed trace,
exactly once, as an immutable ``tuple[int, ...]``.  It lives inside the
log's :class:`~repro.log.index.TraceIndex`, which also packs consecutive
id pairs into single ints (``(a << 32) | b``, see :func:`pack_bigram`)
to key its bigram postings.

Ids are assigned in first-appearance order and never change, so every
structure derived from them (bitset posting lists, memoized automata)
stays valid as the log grows: appends only ever *add* ids.
"""

from __future__ import annotations

from collections.abc import Sequence
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    # Type-only: repro.log's trace index imports this module at runtime.
    from repro.log.events import Event

#: Bigrams are packed as ``(first << BIGRAM_SHIFT) | second``.  32 bits per
#: component is far beyond any realistic alphabet while keeping the packed
#: value a cheap small-int key.
BIGRAM_SHIFT = 32


def pack_bigram(first: int, second: int) -> int:
    """Pack an id pair into one int key (see :data:`BIGRAM_SHIFT`)."""
    return (first << BIGRAM_SHIFT) | second


class EventInterner:
    """Append-only dense-id assignment plus int-materialized traces."""

    __slots__ = ("_id_of", "_events", "_traces")

    def __init__(self) -> None:
        self._id_of: dict[Event, int] = {}
        self._events: list[Event] = []
        self._traces: list[tuple[int, ...]] = []

    # ------------------------------------------------------------------
    # Id assignment
    # ------------------------------------------------------------------
    def intern(self, event: Event) -> int:
        """The dense id of ``event``, assigning a fresh one if unseen."""
        event_id = self._id_of.get(event)
        if event_id is None:
            event_id = len(self._events)
            self._id_of[event] = event_id
            self._events.append(event)
        return event_id

    def id_of(self, event: Event) -> int | None:
        """The id of ``event``, or ``None`` if it never occurred."""
        return self._id_of.get(event)

    def event_of(self, event_id: int) -> Event:
        """The event name owning ``event_id``."""
        return self._events[event_id]

    @property
    def events(self) -> list[Event]:
        """Every interned event, indexed by id (do not mutate)."""
        return self._events

    def __len__(self) -> int:
        return len(self._events)

    # ------------------------------------------------------------------
    # Trace materialization
    # ------------------------------------------------------------------
    def absorb(self, events: Sequence[Event]) -> tuple[int, ...]:
        """Materialize one committed trace; returns its interned tuple."""
        intern = self.intern
        interned = tuple(intern(event) for event in events)
        self._traces.append(interned)
        return interned

    @property
    def interned_traces(self) -> list[tuple[int, ...]]:
        """All materialized traces as int tuples (do not mutate)."""
        return self._traces

    @property
    def num_traces(self) -> int:
        return len(self._traces)

    def translate(self, order: Sequence[Event]) -> tuple[int, ...] | None:
        """``order`` as an id tuple, or ``None`` if any event is unseen.

        An unseen event cannot occur in any trace, so a ``None`` here
        short-circuits a frequency query to zero matches.
        """
        id_of = self._id_of
        ids = []
        for event in order:
            event_id = id_of.get(event)
            if event_id is None:
                return None
            ids.append(event_id)
        return tuple(ids)
