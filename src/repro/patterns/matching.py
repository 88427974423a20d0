"""Trace/pattern matching and pattern frequencies (Definitions 4–5).

A trace matches pattern ``p`` when a substring of the trace belongs to the
allowed-order set ``I(p)``.  The normalized frequency ``f(p)`` is the
number of matching traces divided by ``|L|``.

:class:`PatternFrequencyEvaluator` is the production entry point: it reads
the log's one :class:`~repro.log.index.TraceIndex` (the paper's ``I_t``),
caches allowed orders per pattern and memoizes frequencies per concrete
order set — during A* search the same mapped pattern is evaluated across
thousands of branches, and the memo turns those into dictionary hits.
Cache misses are counted by a
:class:`~repro.kernel.frequency.FrequencyKernel` (interned events, bitset
posting lists, multi-order Aho–Corasick automata) unless
``use_kernel=False`` selects the naive per-order scan, which is kept as
the oracle for ablation benchmarks and property tests.
"""

from __future__ import annotations

from repro.log.events import Event, Trace
from repro.log.eventlog import EventLog, StaleIndexError
from repro.obs.probe import NULL_PROBE, Probe
from repro.patterns.ast import Pattern
from repro.patterns.orders import allowed_orders

#: Bound on the process-wide allowed-orders cache.  Pattern sets are a few
#: hundred entries per matching task; the bound only matters to long-lived
#: processes (test runs, services) churning through many unrelated logs,
#: where the cache previously grew without limit.
ORDERS_CACHE_MAX = 4096

_orders_cache: dict[Pattern, frozenset[tuple[Event, ...]]] = {}


def cached_allowed_orders(pattern: Pattern) -> frozenset[tuple[Event, ...]]:
    """``I(p)`` with a bounded process-wide cache keyed by the pattern.

    Allowed orders depend only on the pattern's structure — never on a
    log — so sharing across tasks is sound; the bound (FIFO eviction at
    :data:`ORDERS_CACHE_MAX` entries) just keeps the cache from leaking
    memory across unrelated workloads.
    """
    orders = _orders_cache.get(pattern)
    if orders is None:
        orders = allowed_orders(pattern)
        if len(_orders_cache) >= ORDERS_CACHE_MAX:
            _orders_cache.pop(next(iter(_orders_cache)))
        _orders_cache[pattern] = orders
    return orders


def clear_orders_cache() -> None:
    """Drop every cached allowed-order set (test isolation hook)."""
    _orders_cache.clear()


def trace_matches(trace: Trace, pattern: Pattern) -> bool:
    """Whether ``trace`` matches ``pattern`` (Definition 4)."""
    orders = cached_allowed_orders(pattern)
    return any(trace.contains_substring(order) for order in orders)


def pattern_frequency(log: EventLog, pattern: Pattern) -> float:
    """Normalized frequency ``f(p)`` of ``pattern`` in ``log``.

    One-shot convenience; use :class:`PatternFrequencyEvaluator` when many
    frequencies are needed on the same log.
    """
    if len(log) == 0:
        return 0.0
    matches = sum(1 for trace in log if trace_matches(trace, pattern))
    return matches / len(log)


class PatternFrequencyEvaluator:
    """Indexed, memoized pattern-frequency evaluation on one log.

    Parameters
    ----------
    log:
        The event log frequencies are evaluated against.
    use_index:
        When ``False`` every evaluation scans the full log instead of the
        posting-list candidates.  Only the index-ablation benchmark should
        ever disable this (implies ``use_kernel=False``).
    use_kernel:
        When ``True`` (the default) cache misses are answered by the
        compiled :class:`~repro.kernel.frequency.FrequencyKernel`; when
        ``False`` the naive per-order candidate scan runs instead — the
        oracle configuration for ablations and equivalence tests.
    probe:
        Observability hooks (one ``frequency.eval`` span per memo miss).
        Defaults to the no-op null probe.
    """

    def __init__(
        self,
        log: EventLog,
        use_index: bool = True,
        use_kernel: bool = True,
        probe: Probe | None = None,
    ):
        self._log = log
        self._use_index = use_index
        self._generation = log.generation
        self._probe = probe if probe is not None else NULL_PROBE
        if use_index and use_kernel:
            # Local import: the kernel package builds on this module's
            # sibling layers.
            from repro.kernel.frequency import FrequencyKernel

            self._kernel = FrequencyKernel(log)
        else:
            self._kernel = None
        # Frequencies memoized by the *instantiated* allowed-order set, so
        # structurally equal patterns (and the same pattern renamed to the
        # same targets) share one entry.
        self._frequency_memo: dict[frozenset[tuple[Event, ...]], float] = {}
        self.evaluations = 0  # trace scans actually performed
        self.cache_hits = 0  # lookups answered from the memo
        self._taken: dict[str, int] = {}

    @property
    def log(self) -> EventLog:
        return self._log

    @property
    def kernel(self):
        """The compiled kernel, or ``None`` in naive configurations."""
        return self._kernel

    def frequency(self, pattern: Pattern) -> float:
        """``f(p)`` with memoization and posting-list acceleration."""
        return self._frequency_of_orders(cached_allowed_orders(pattern))

    def mapped_frequency(
        self, pattern: Pattern, mapping: dict[Event, Event]
    ) -> float:
        """``f(M(p))`` — frequency of the renamed pattern in this log.

        ``mapping`` must cover every event of ``pattern``.  The allowed
        orders of the base pattern are translated tuple-by-tuple, avoiding
        any AST rebuild on the search hot path.
        """
        base_orders = cached_allowed_orders(pattern)
        mapped_orders = frozenset(
            tuple(mapping[event] for event in order) for order in base_orders
        )
        return self._frequency_of_orders(mapped_orders)

    def take_counts(self) -> dict[str, int]:
        """This evaluator's and its kernel's counts since the last call.

        Keyed by ``SearchStats`` field name (plus kernel-only counters).
        Every count is handed out exactly once — the first call gets
        everything since construction — so score models sharing one
        evaluator never report the same evaluation twice.
        """
        counts = {
            "frequency_evaluations": self.evaluations,
            "frequency_cache_hits": self.cache_hits,
        }
        if self._kernel is not None:
            counts.update(self._kernel.counters.as_dict())
        taken, self._taken = self._taken, counts
        return {
            name: value - taken.get(name, 0) for name, value in counts.items()
        }

    def clear_cache(self) -> None:
        """Drop memoized frequencies (used by ablation benchmarks)."""
        self._frequency_memo.clear()

    def refresh(self) -> None:
        """Re-sync with an appended-to log.

        Memoized frequencies are normalized by ``|L|``, so *every* entry
        is invalidated by a single append; the memo is dropped and
        frequencies are recomputed lazily on demand from the log's trace
        index, which the append already extended.  Compiled automata
        survive: interned ids are stable under append.
        """
        self._frequency_memo.clear()
        self._generation = self._log.generation

    def _frequency_of_orders(
        self, orders: frozenset[tuple[Event, ...]]
    ) -> float:
        if self._log.generation != self._generation:
            raise StaleIndexError(
                f"frequency evaluator synced at generation "
                f"{self._generation} but log {self._log.name!r} is at "
                f"generation {self._log.generation}; call refresh()"
            )
        cached = self._frequency_memo.get(orders)
        if cached is not None:
            self.cache_hits += 1
            return cached
        if len(self._log) == 0:
            frequency = 0.0
        else:
            self.evaluations += 1
            probe = self._probe
            if probe.enabled:
                span = probe.begin_span(
                    "frequency.eval",
                    log=self._log.name,
                    orders=len(orders),
                )
            if self._kernel is not None:
                matches = self._kernel.count_matching(orders)
            elif self._use_index:
                matches = self._log.count_traces_with_any_substring(orders)
            else:
                matches = sum(
                    1
                    for trace in self._log
                    if any(trace.contains_substring(order) for order in orders)
                )
            if probe.enabled:
                probe.end_span(span, matches=matches)
            frequency = matches / len(self._log)
        self._frequency_memo[orders] = frequency
        return frequency
