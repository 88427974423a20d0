"""Inverted trace index ``I_t`` (Section 3.2.3 of the paper).

For each event ``v`` the index stores the ids of traces containing ``v``.
Evaluating a pattern's frequency then only scans
``⋂_{v ∈ V(p)} I_t(v)`` instead of the whole log, which is the paper's
second index for accelerating normal-distance computation.

Posting lists are stored as **big-int bitsets**: bit ``i`` of the posting
int for event ``v`` is set iff trace ``i`` contains ``v``.  Intersection
is then a chain of CPython-native ``&`` operations over machine words,
candidate counting is one ``int.bit_count()``, and delta maintenance
under append is a single set-bit per (event, new trace) — the same
append-only contract the previous set-backed representation had, so the
streaming delta layer is unaffected.

The index supports append-only logs: :meth:`TraceIndex.refresh` absorbs
traces appended to the wrapped log since the last sync (each new trace
contributes its postings exactly once — postings are monotone under
append).  Querying an index that has fallen behind its log raises
:class:`~repro.log.eventlog.StaleIndexError` rather than silently
answering for a shorter log.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence

from repro.log.events import Event
from repro.log.eventlog import EventLog, StaleIndexError


def _decode_bits(bits: int) -> frozenset[int]:
    """The set-bit positions of ``bits`` as a frozen set."""
    positions = []
    while bits:
        low = bits & -bits
        positions.append(low.bit_length() - 1)
        bits ^= low
    return frozenset(positions)


class TraceIndex:
    """Posting lists from events to the traces that contain them."""

    def __init__(self, log: EventLog):
        self._log = log
        self._postings: dict[Event, int] = {}
        self._empty: frozenset[int] = frozenset()
        self._synced_traces = 0
        self._generation = log.generation
        self.refresh()

    @property
    def log(self) -> EventLog:
        return self._log

    @property
    def generation(self) -> int:
        """The log generation this index last synced with."""
        return self._generation

    def refresh(self) -> int:
        """Absorb traces appended since the last sync; return how many.

        This is the ``I_t`` delta-maintenance path: each committed trace
        is indexed exactly once, immediately after its append — one
        set-bit per distinct event — and never rescanned.
        """
        traces = self._log.traces
        postings = self._postings
        added = 0
        for trace_id in range(self._synced_traces, len(traces)):
            bit = 1 << trace_id
            for event in traces[trace_id].alphabet():
                postings[event] = postings.get(event, 0) | bit
            added += 1
        self._synced_traces = len(traces)
        self._generation = self._log.generation
        return added

    def _check_fresh(self) -> None:
        if self._log.generation != self._generation:
            raise StaleIndexError(
                f"trace index synced at generation {self._generation} but "
                f"log {self._log.name!r} is at generation "
                f"{self._log.generation}; call refresh() or rebuild"
            )

    def posting_bits(self, event: Event) -> int:
        """The posting list of ``event`` as a bitset (0 if unseen).

        Bit ``i`` is set iff trace ``i`` contains ``event``.  This is
        the fast-path accessor: ``&`` chains intersect, ``|`` unions,
        ``int.bit_count()`` counts.
        """
        self._check_fresh()
        return self._postings.get(event, 0)

    def postings(self, event: Event) -> frozenset[int]:
        """Ids of traces containing ``event`` (empty set if unseen).

        The returned set is an immutable snapshot decoded from the
        bitset; callers cannot corrupt the index through it.
        """
        self._check_fresh()
        bits = self._postings.get(event, 0)
        if not bits:
            return self._empty
        return _decode_bits(bits)

    def candidate_bits(self, events: Iterable[Event]) -> int:
        """Bitset of traces containing *all* of ``events``."""
        self._check_fresh()
        postings = self._postings
        result = -1
        for event in set(events):
            result &= postings.get(event, 0)
            if not result:
                return 0
        if result == -1:  # no events: every trace qualifies
            return (1 << len(self._log)) - 1
        return result

    def candidate_traces(self, events: Iterable[Event]) -> frozenset[int]:
        """Ids of traces containing *all* of ``events``.

        An ``&`` chain over the bitset posting lists; an event with no
        postings short-circuits to the empty set.
        """
        return _decode_bits(self.candidate_bits(events))

    def count_traces_with_any_substring(
        self, sequences: Iterable[Sequence[Event]]
    ) -> int:
        """Traces containing at least one of ``sequences`` as a substring.

        This is exactly the pattern-frequency primitive: ``sequences`` is
        the allowed-order set ``I(p)`` of a pattern, and a trace matches the
        pattern when some allowed order occurs contiguously (Definition 4).
        All sequences of a pattern share the same event set, so a single
        posting-list intersection covers every alternative.

        This is the *naive* per-order scan retained as the oracle;
        :class:`~repro.kernel.frequency.FrequencyKernel` answers the
        same query through bigram bitsets and Aho–Corasick automata.
        """
        needles = [tuple(sequence) for sequence in sequences]
        if not needles:
            return 0
        events = set(needles[0])
        for needle in needles[1:]:
            if set(needle) != events:
                raise ValueError(
                    "all sequences of a pattern must share one event set"
                )
        count = 0
        traces = self._log.traces
        candidates = self.candidate_bits(events)
        while candidates:
            low = candidates & -candidates
            trace = traces[low.bit_length() - 1]
            candidates ^= low
            if any(trace.contains_substring(needle) for needle in needles):
                count += 1
        return count
