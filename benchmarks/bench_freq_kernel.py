"""Frequency-kernel ablation — naive vs bitset-only vs bitset+automaton.

Pattern-frequency evaluation is the matcher's inner loop; this benchmark
isolates it on an AND-heavy workload (the worst case for the naive
evaluator, which scans every candidate trace once per allowed order —
``k!`` scans for an AND over ``k`` events) and measures three tiers:

* **naive** — the oracle: posting-list candidates, then one Python
  substring scan per allowed order
  (:meth:`~repro.log.eventlog.EventLog.count_traces_with_any_substring`);
* **bitset** — :class:`~repro.kernel.frequency.FrequencyKernel` with the
  automaton and bigram tiers disabled: candidates from big-int bitset
  ``&`` chains, interned int-tuple scans, still once per order;
* **kernel** — the full kernel: bigram posting bitsets answer length-2
  patterns without touching traces, and a memoized Aho–Corasick
  automaton checks all ω(p) orders of longer patterns in one pass.

Numbers land in ``benchmarks/results/freq_kernel.txt`` and, machine-
readable, under the ``"freq_kernel"`` key of ``BENCH_freq_kernel.json``
at the repo root.
"""

import random
import time

import pytest

from benchmarks.conftest import record_bench, save_report
from repro.kernel.frequency import FrequencyKernel, KernelCounters
from repro.log.eventlog import EventLog
from repro.patterns.ast import and_, seq
from repro.patterns.matching import cached_allowed_orders

SCALES = {
    # (num_traces, min_len, max_len, num_patterns_per_shape, rounds)
    "smoke": (150, 4, 10, 2, 2),
    "quick": (4000, 4, 14, 8, 5),
    "paper": (20000, 4, 14, 12, 5),
}


def _workload(scale: str):
    num_traces, min_len, max_len, per_shape, rounds = SCALES[scale]
    rng = random.Random(3)
    alphabet = [chr(65 + i) for i in range(12)]
    log = EventLog(
        [
            [rng.choice(alphabet) for _ in range(rng.randint(min_len, max_len))]
            for _ in range(num_traces)
        ],
        name="and-heavy",
    )
    patterns = []
    for _ in range(per_shape):
        patterns.append(and_(*rng.sample(alphabet, 2)))
        patterns.append(and_(*rng.sample(alphabet, 3)))
        patterns.append(and_(*rng.sample(alphabet, 4)))
        head, *rest = rng.sample(alphabet, 4)
        patterns.append(seq(head, and_(*rest)))
    order_sets = [cached_allowed_orders(pattern) for pattern in patterns]
    return log, patterns, order_sets, rounds


def _time_counter(count, order_sets, rounds):
    """Total seconds for ``rounds`` sweeps; returns (seconds, counts)."""
    counts = []
    started = time.perf_counter()
    for _ in range(rounds):
        counts = [count(orders) for orders in order_sets]
    return time.perf_counter() - started, counts


@pytest.fixture(scope="module")
def freq_kernel(scale):
    log, patterns, order_sets, rounds = _workload(scale)
    omega = sum(len(orders) for orders in order_sets)

    log.trace_index()  # shared by all three columns; built outside the timing
    naive_seconds, naive_counts = _time_counter(
        log.count_traces_with_any_substring, order_sets, rounds
    )

    bitset = FrequencyKernel(log, use_automaton=False, use_bigrams=False)
    bitset_seconds, bitset_counts = _time_counter(
        bitset.count_matching, order_sets, rounds
    )

    kernel = FrequencyKernel(log, counters=KernelCounters())
    kernel_seconds, kernel_counts = _time_counter(
        kernel.count_matching, order_sets, rounds
    )

    assert naive_counts == bitset_counts == kernel_counts

    speedup_bitset = naive_seconds / max(bitset_seconds, 1e-9)
    speedup_kernel = naive_seconds / max(kernel_seconds, 1e-9)
    counters = kernel.counters
    lines = [
        f"AND-heavy frequency workload: {len(patterns)} patterns "
        f"(Σω = {omega} allowed orders) × {rounds} rounds over "
        f"{len(log)} traces:",
        f"  naive (per-order scans)   : {naive_seconds:8.3f}s",
        f"  bitset candidates only    : {bitset_seconds:8.3f}s "
        f"({speedup_bitset:5.2f}x)",
        f"  bitset + bigrams + AC     : {kernel_seconds:8.3f}s "
        f"({speedup_kernel:5.2f}x)",
        "",
        f"  kernel counters: automata built {counters.automaton_builds}, "
        f"memo hits {counters.automaton_hits}, "
        f"bigram queries {counters.bigram_queries}, "
        f"bitset ops {counters.bitset_intersections}, "
        f"trace cells scanned {counters.trace_cells_scanned}",
    ]
    save_report("freq_kernel", "\n".join(lines))
    record_bench(
        "freq_kernel",
        {
            "scale": scale,
            "num_traces": len(log),
            "num_patterns": len(patterns),
            "total_allowed_orders": omega,
            "rounds": rounds,
        },
        {
            "naive_s": round(naive_seconds, 6),
            "bitset_s": round(bitset_seconds, 6),
            "kernel_s": round(kernel_seconds, 6),
            "speedup_bitset": round(speedup_bitset, 3),
            "speedup_kernel": round(speedup_kernel, 3),
            "automaton_builds": counters.automaton_builds,
            "automaton_hits": counters.automaton_hits,
            "bigram_queries": counters.bigram_queries,
        },
    )
    return scale, speedup_bitset, speedup_kernel


def test_freq_kernel_benchmark(benchmark, freq_kernel):
    """Time one full-kernel sweep over the AND-heavy pattern set."""
    log, patterns, order_sets, _ = _workload("smoke")
    kernel = FrequencyKernel(log)

    benchmark(lambda: [kernel.count_matching(orders) for orders in order_sets])

    scale, speedup_bitset, speedup_kernel = freq_kernel
    if scale != "smoke":
        # The acceptance bar: the compiled kernel must beat the naive
        # evaluator by at least 3x on the AND-heavy workload.
        assert speedup_kernel >= 3.0
        # And the automaton must contribute on top of bare bitsets.
        assert speedup_kernel > speedup_bitset
