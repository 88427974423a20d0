"""The compiled pattern-frequency kernel.

:class:`FrequencyKernel` is the machine-sympathetic fast path behind
:class:`~repro.patterns.matching.PatternFrequencyEvaluator`.  Given an
allowed-order set ``I(p)`` it counts matching traces using three tiers,
cheapest applicable first:

1. **single events** — the answer is the population count of the event's
   bitset posting list (one ``int.bit_count()``);
2. **length-2 orders** — dependency edges and ``AND`` pairs, the
   overwhelming majority of patterns in practice — are answered from
   *bigram posting bitsets*: the traces containing consecutive pair
   ``(a, b)`` are one dict lookup, a pattern with several allowed pairs
   is the ``|`` of their bitsets, and the count one ``bit_count()``.
   No trace is ever touched;
3. **longer orders** — the candidate set is the ``&`` chain of the
   events' bitset postings, and each candidate trace is scanned exactly
   once by a memoized :class:`~repro.kernel.automaton.OrderAutomaton`
   that decides all ω(p) orders simultaneously (the naive path scans
   each candidate once *per order* — ``k!`` times for an AND of ``k``).

All structures are append-only, mirroring the log's own contract:
:meth:`refresh` sets bits for the newly committed traces and leaves
everything else untouched.  Interned ids are stable under append, so
memoized automata survive refreshes — a property the streaming engine
leans on, where the same drift patterns are re-evaluated after every
batch.

The kernel records :class:`KernelCounters` so benchmarks and the search
statistics can attribute wins to the tier that produced them.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from dataclasses import dataclass, fields

from repro.kernel.automaton import OrderAutomaton
from repro.kernel.interner import BIGRAM_SHIFT, EventInterner
from repro.log.events import Event
from repro.log.eventlog import EventLog, StaleIndexError
from repro.log.index import TraceIndex


@dataclass
class KernelCounters:
    """Observability counters for one kernel instance."""

    #: Automata compiled (distinct allowed-order sets seen).
    automaton_builds: int = 0
    #: Queries answered by a memoized automaton.
    automaton_hits: int = 0
    #: Bitset ``&``/``|`` operations on posting lists.
    bitset_intersections: int = 0
    #: Queries answered by one posting-list popcount (tier 1).
    popcount_queries: int = 0
    #: Queries answered purely from bigram posting bitsets (tier 2).
    bigram_queries: int = 0
    #: Tier-3 queries scanned naively, without an automaton.
    naive_queries: int = 0
    #: Trace cells fed through an automaton or naive scan (tier 3).
    trace_cells_scanned: int = 0
    #: Candidate traces visited by tier 3.
    candidates_scanned: int = 0

    def as_dict(self) -> dict[str, int]:
        return {f.name: getattr(self, f.name) for f in fields(self)}


def iter_bits(bits: int):
    """Yield the set-bit positions of ``bits`` in ascending order."""
    while bits:
        low = bits & -bits
        yield low.bit_length() - 1
        bits ^= low


class FrequencyKernel:
    """Bitset + automaton counting of pattern matches on one log.

    Parameters
    ----------
    log:
        The log to count against.  The kernel attaches to the log's
        :class:`~repro.kernel.interner.EventInterner`.
    trace_index:
        Optional shared ``I_t``; built from ``log`` when omitted.
    use_automaton:
        Tier 3 ablation switch: when ``False`` candidates are scanned
        once per order with naive tuple search instead of one automaton
        pass (the "bitset-only" configuration of the benchmarks).
    use_bigrams:
        Tier 2 ablation switch: when ``False`` length-2 orders fall
        through to tier 3 like any other order.

    Each query that reaches a tier counts in :attr:`counters`:
    ``popcount_queries``, ``bigram_queries``, ``naive_queries``, and for
    the automaton tier ``automaton_builds + automaton_hits``.
    """

    def __init__(
        self,
        log: EventLog,
        trace_index: TraceIndex | None = None,
        use_automaton: bool = True,
        use_bigrams: bool = True,
        counters: KernelCounters | None = None,
    ):
        if trace_index is not None and trace_index.log is not log:
            raise ValueError("trace_index was built for a different log")
        self._log = log
        self._interner: EventInterner = log.interner()
        self._index = trace_index if trace_index is not None else TraceIndex(log)
        self._use_automaton = use_automaton
        self._use_bigrams = use_bigrams
        self._bigram_bits: dict[int, int] = {}
        self._synced_traces = 0
        self._generation = log.generation
        self._automata: dict[frozenset[tuple[int, ...]], OrderAutomaton] = {}
        self.counters = counters if counters is not None else KernelCounters()
        self._sync_bigrams()

    @property
    def log(self) -> EventLog:
        return self._log

    @property
    def trace_index(self) -> TraceIndex:
        return self._index

    @property
    def generation(self) -> int:
        return self._generation

    @property
    def num_automata(self) -> int:
        return len(self._automata)

    # ------------------------------------------------------------------
    # Maintenance
    # ------------------------------------------------------------------
    def refresh(self) -> int:
        """Absorb appended traces into every kernel structure.

        Returns the number of traces absorbed.  Memoized automata are
        *kept*: interned ids never change, so a compiled order set stays
        valid for the grown log.
        """
        self._index.refresh()
        added = self._sync_bigrams()
        self._generation = self._log.generation
        return added

    def _sync_bigrams(self) -> int:
        bigram_sets = self._interner.bigram_sets
        bigram_bits = self._bigram_bits
        start = self._synced_traces
        for trace_id in range(start, len(bigram_sets)):
            bit = 1 << trace_id
            for code in bigram_sets[trace_id]:
                bigram_bits[code] = bigram_bits.get(code, 0) | bit
        self._synced_traces = len(bigram_sets)
        return self._synced_traces - start

    def _check_fresh(self) -> None:
        if self._log.generation != self._generation:
            raise StaleIndexError(
                f"frequency kernel synced at generation {self._generation} "
                f"but log {self._log.name!r} is at generation "
                f"{self._log.generation}; call refresh()"
            )

    # ------------------------------------------------------------------
    # Counting
    # ------------------------------------------------------------------
    def count_matching(
        self, orders: Iterable[Sequence[Event]]
    ) -> int:
        """Traces containing at least one of ``orders`` as a substring.

        Semantically identical to
        :meth:`TraceIndex.count_traces_with_any_substring`; all orders
        must share one event set (they are the ``I(p)`` of one pattern).
        """
        self._check_fresh()
        needles = [tuple(order) for order in orders]
        if not needles:
            return 0
        events = set(needles[0])
        for needle in needles[1:]:
            if set(needle) != events:
                raise ValueError(
                    "all sequences of a pattern must share one event set"
                )

        interned = []
        for needle in needles:
            ids = self._interner.translate(needle)
            if ids is None:
                return 0  # an event never seen in the log: no matches
            interned.append(ids)

        counters = self.counters
        size = len(interned[0])

        # Tier 1: a single event is its posting list's popcount.
        if size == 1:
            counters.popcount_queries += 1
            return self._index.posting_bits(needles[0][0]).bit_count()

        # Tier 2: length-2 orders straight from bigram posting bitsets.
        if size == 2 and self._use_bigrams:
            bigram_bits = self._bigram_bits
            acc = 0
            for first, second in interned:
                acc |= bigram_bits.get((first << BIGRAM_SHIFT) | second, 0)
            counters.bigram_queries += 1
            counters.bitset_intersections += len(interned)
            return acc.bit_count()

        # Tier 3: bitset candidates, one automaton pass per candidate.
        posting_bits = self._index.posting_bits
        candidates = -1
        for event in events:
            candidates &= posting_bits(event)
            counters.bitset_intersections += 1
            if not candidates:
                return 0
        traces = self._interner.interned_traces
        count = 0
        if self._use_automaton:
            key = frozenset(interned)
            automaton = self._automata.get(key)
            if automaton is None:
                automaton = OrderAutomaton(interned)
                self._automata[key] = automaton
                counters.automaton_builds += 1
            else:
                counters.automaton_hits += 1
            find = automaton.find
            for trace_id in iter_bits(candidates):
                trace = traces[trace_id]
                end = find(trace)
                counters.trace_cells_scanned += end if end else len(trace)
                counters.candidates_scanned += 1
                if end:
                    count += 1
        else:
            counters.naive_queries += 1
            for trace_id in iter_bits(candidates):
                trace = traces[trace_id]
                counters.candidates_scanned += 1
                for needle in interned:
                    counters.trace_cells_scanned += len(trace)
                    if _contains(trace, needle):
                        count += 1
                        break
        return count


def _contains(trace: tuple[int, ...], needle: tuple[int, ...]) -> bool:
    """Naive contiguous-subsequence test on interned tuples."""
    size = len(needle)
    if size > len(trace):
        return False
    first = needle[0]
    for start in range(len(trace) - size + 1):
        if trace[start] == first and trace[start:start + size] == needle:
            return True
    return False
