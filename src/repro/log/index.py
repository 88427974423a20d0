"""The trace index ``I_t`` of one log (Section 3.2.3 of the paper).

For each event ``v`` the paper's ``I_t`` stores the ids of traces
containing ``v``, so evaluating a pattern's frequency only scans
``⋂_{v ∈ V(p)} I_t(v)`` instead of the whole log.  Here the index is
also the one place a log's derived counts live.  A :class:`TraceIndex`
holds

* the :class:`~repro.kernel.interner.EventInterner`: dense event ids in
  first-appearance order and every trace as an int tuple;
* per-event posting bitsets: bit ``i`` of the posting int of ``v`` is
  set iff trace ``i`` contains ``v``;
* per-bigram posting bitsets: bit ``i`` of the posting int of the packed
  id pair ``(a, b)`` is set iff ``a`` immediately precedes ``b``
  somewhere in trace ``i``.

Everything else is a view of these: the alphabet, vertex counts (a
posting popcount), edge counts (a bigram popcount), the dependency
edges and the first-appearance order.  Intersection is a chain of
CPython-native ``&`` operations over machine words and counting one
``int.bit_count()``.

Each :class:`~repro.log.eventlog.EventLog` owns exactly one index
(:meth:`~repro.log.eventlog.EventLog.trace_index`), built in one pass on
first use and extended by :meth:`TraceIndex.add` from every
:meth:`~repro.log.eventlog.EventLog.append_trace` in O(|trace|).
Postings only gain bits under append and interned ids never change, so
nothing that reads the index can fall behind it.  The index holds no
reference to its log: dropping a log frees both by reference counting.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence

from repro.kernel.frequency import iter_bits
from repro.kernel.interner import BIGRAM_SHIFT, EventInterner
from repro.log.events import Event


class TraceIndex:
    """Interned traces plus event and bigram posting bitsets.

    ``event_postings`` (event → bitset) and ``bigram_postings`` (packed
    id pair → bitset) are exposed for the frequency kernel's inner loop
    and the blocking signals; treat them as read-only.
    """

    __slots__ = ("interner", "event_postings", "bigram_postings", "_alphabet")

    def __init__(self, traces: Iterable[Sequence[Event]] = ()):
        self.interner = EventInterner()
        self.event_postings: dict[Event, int] = {}
        self.bigram_postings: dict[int, int] = {}
        self._alphabet: frozenset[Event] | None = None
        for events in traces:
            self.add(events)

    def add(self, events: Sequence[Event]) -> None:
        """Index the next trace: one set bit per distinct event and bigram."""
        interner = self.interner
        bit = 1 << interner.num_traces
        known = len(interner)
        interned = interner.absorb(events)
        if len(interner) != known:
            self._alphabet = None
        postings = self.event_postings
        for event in set(events):
            postings[event] = postings.get(event, 0) | bit
        bigrams = self.bigram_postings
        for code in {
            (first << BIGRAM_SHIFT) | second
            for first, second in zip(interned, interned[1:])
        }:
            bigrams[code] = bigrams.get(code, 0) | bit

    @property
    def num_traces(self) -> int:
        return self.interner.num_traces

    # ------------------------------------------------------------------
    # Postings
    # ------------------------------------------------------------------
    def posting_bits(self, event: Event) -> int:
        """The posting list of ``event`` as a bitset (0 if unseen).

        Bit ``i`` is set iff trace ``i`` contains ``event``.  This is
        the fast-path accessor: ``&`` chains intersect, ``|`` unions,
        ``int.bit_count()`` counts.
        """
        return self.event_postings.get(event, 0)

    def postings(self, event: Event) -> frozenset[int]:
        """Ids of traces containing ``event`` (empty set if unseen).

        The returned set is an immutable snapshot decoded from the
        bitset; callers cannot corrupt the index through it.
        """
        return frozenset(iter_bits(self.event_postings.get(event, 0)))

    def bigram_bits(self, first: Event, second: Event) -> int:
        """Bitset of traces where ``first`` immediately precedes ``second``."""
        id_of = self.interner.id_of
        first_id, second_id = id_of(first), id_of(second)
        if first_id is None or second_id is None:
            return 0
        return self.bigram_postings.get(
            (first_id << BIGRAM_SHIFT) | second_id, 0
        )

    def candidate_bits(self, events: Iterable[Event]) -> int:
        """Bitset of traces containing *all* of ``events``."""
        postings = self.event_postings
        result = -1
        for event in set(events):
            result &= postings.get(event, 0)
            if not result:
                return 0
        if result == -1:  # no events: every trace qualifies
            return (1 << self.num_traces) - 1
        return result

    def candidate_traces(self, events: Iterable[Event]) -> frozenset[int]:
        """Ids of traces containing *all* of ``events``.

        An ``&`` chain over the bitset posting lists; an event with no
        postings short-circuits to the empty set.
        """
        return frozenset(iter_bits(self.candidate_bits(events)))

    # ------------------------------------------------------------------
    # Log statistics (views of the postings)
    # ------------------------------------------------------------------
    def alphabet(self) -> frozenset[Event]:
        """The distinct events of the indexed traces."""
        if self._alphabet is None:
            self._alphabet = frozenset(self.interner.events)
        return self._alphabet

    def edges(self) -> list[tuple[Event, Event]]:
        """Every consecutive event pair occurring in some trace, sorted."""
        events = self.interner.events
        mask = (1 << BIGRAM_SHIFT) - 1
        return sorted(
            (events[code >> BIGRAM_SHIFT], events[code & mask])
            for code in self.bigram_postings
        )
