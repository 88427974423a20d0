"""Compiled pattern-frequency kernel (interning, bitsets, automata).

Pattern-frequency evaluation is the inner loop of everything the library
does: the A* search calls ``mapped_frequency`` on thousands of branches,
the heuristics score every candidate augmentation with it, and the
streaming engine re-checks drift patterns after every batch.  This
package makes that loop machine-sympathetic while staying pure-python
and stdlib-only:

* :class:`~repro.kernel.interner.EventInterner` — dense integer event
  ids; traces materialized once as immutable int tuples (held by the
  log's one :class:`~repro.log.index.TraceIndex`, next to its event and
  bigram posting bitsets);
* :class:`~repro.kernel.automaton.OrderAutomaton` — an Aho–Corasick
  automaton deciding all ω(p) allowed orders of a pattern in a single
  pass over a trace;
* :class:`~repro.kernel.frequency.FrequencyKernel` — three counting
  tiers over the log's index: a posting popcount (``int.bit_count()``)
  for single events, the ``|`` of bigram postings for the dominant
  length-2 patterns, and ``&``-chained candidates scanned by memoized
  automata for the rest, with
  :class:`~repro.kernel.frequency.KernelCounters` observability.

The naive evaluator survives unchanged behind ``use_kernel=False`` as
the oracle for ablation benchmarks and property tests.
"""

from repro.kernel.automaton import OrderAutomaton
from repro.kernel.frequency import FrequencyKernel, KernelCounters, iter_bits
from repro.kernel.interner import BIGRAM_SHIFT, EventInterner, pack_bigram

__all__ = [
    "BIGRAM_SHIFT",
    "EventInterner",
    "FrequencyKernel",
    "KernelCounters",
    "OrderAutomaton",
    "iter_bits",
    "pack_bigram",
]
