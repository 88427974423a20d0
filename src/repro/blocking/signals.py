"""Per-event blocking signals: cheap keys that survive renaming.

Blocking only works if a true pair ``(v, M*(v))`` lands in the same
block, so every signal here is computed from *aggregate, label-free*
statistics — quantities preserved exactly when ``log_2`` is a renamed
copy of ``log_1`` and unchanged under any reordering of the traces:

* **vertex frequency** — fraction of traces containing the event (the
  dependency graph's vertex weight);
* **occurrence entropy** — Shannon entropy of the per-trace occurrence-
  count distribution (the same statistic the entropy baseline matches
  on), squashed to ``[0, 1)`` via ``H / (1 + H)`` before banding;
* **degree profile** — in/out degree of the event in the dependency
  graph, capped at ``degree_cap`` (raw degrees, not normalized: a hub
  stays a hub whatever the vocabulary size);
* **bigram signature** — the banded frequencies of the event's
  strongest incident bigrams: popcounts of the bigram posting bitsets of
  the log's trace index (:class:`~repro.log.index.TraceIndex`), so the
  signature costs one pass over postings that already exist.

Every signal reads the log's one trace index — its interned traces and
its posting bitsets — so computing signals builds nothing the matcher
does not share.

Everything per-event is folded into an :class:`EventSignals` value: the
raw frequency (clustered by *gaps*, not bands — robust to global drift)
plus a discrete ``profile`` tuple used for refinement under the
balance-conservation rule (see :mod:`repro.blocking.plan`).
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import asdict, dataclass
from typing import NamedTuple

from repro.kernel.interner import BIGRAM_SHIFT
from repro.log.events import Event
from repro.log.eventlog import EventLog


@dataclass(frozen=True)
class BlockingConfig:
    """Knobs of the blocking tier.

    Parameters
    ----------
    frequency_gap:
        Single-linkage threshold of the primary frequency clustering:
        sorted event frequencies (both logs pooled) split into clusters
        wherever consecutive values differ by more than this.  A true
        pair survives as long as heterogeneity moves its frequency by
        less than the gap — there is no band boundary to fall across.
    signal_bands:
        Quantization granularity of the secondary profile signals
        (entropy, bigram signature, and the in-cluster frequency band).
        Finer bands split harder but flip more easily under noise; the
        balance-conservation rule rejects refinements that would split a
        cluster unevenly, so over-fine bands degrade to coarse blocks
        instead of losing recall.
    degree_cap:
        Dependency-graph in/out degrees are capped here before entering
        the profile (beyond a few neighbours, degree is noise).
    bigram_top:
        How many strongest incident-bigram frequencies enter the
        signature.
    auto_accept:
        Accept 1-source/1-target blocks as fixed assignments without
        running any search.
    exact_cutoff:
        Escalated blocks with more than this many sources run the
        advanced heuristic instead of the exact search (their patterns
        then contribute cap-based slack to the combined gap).  ``None``
        runs every escalated block exactly.
    """

    frequency_gap: float = 0.05
    signal_bands: int = 8
    degree_cap: int = 4
    bigram_top: int = 3
    auto_accept: bool = True
    exact_cutoff: int | None = None

    def __post_init__(self) -> None:
        if self.frequency_gap <= 0.0:
            raise ValueError("frequency_gap must be positive")
        if self.signal_bands < 1:
            raise ValueError("signal_bands must be >= 1")
        if self.degree_cap < 1:
            raise ValueError("degree_cap must be >= 1")
        if self.bigram_top < 0:
            raise ValueError("bigram_top must be >= 0")
        if self.exact_cutoff is not None and self.exact_cutoff < 1:
            raise ValueError("exact_cutoff must be >= 1 or None")

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, payload: dict) -> "BlockingConfig":
        known = {f for f in cls.__dataclass_fields__}  # noqa: C416
        unknown = set(payload) - known
        if unknown:
            raise ValueError(f"unknown blocking options: {sorted(unknown)}")
        return cls(**payload)


def normalize_blocking(
    blocking: "BlockingConfig | dict | bool | None",
) -> BlockingConfig | None:
    """Coerce the facade/CLI/service ``blocking`` value to a config.

    ``None``/``False`` → off, ``True`` → defaults, a dict → knobs (the
    JSON form jobs and checkpoints carry), a config → itself.
    """
    if blocking is None or blocking is False:
        return None
    if blocking is True:
        return BlockingConfig()
    if isinstance(blocking, BlockingConfig):
        return blocking
    if isinstance(blocking, dict):
        return BlockingConfig.from_dict(blocking)
    raise TypeError(
        "blocking must be a BlockingConfig, dict, bool or None, "
        f"not {type(blocking).__name__}"
    )


class EventSignals(NamedTuple):
    """One event's blocking key: raw frequency + discrete profile."""

    frequency: float
    profile: tuple


def _band(value: float, bands: int) -> int:
    """Quantize ``value`` in ``[0, 1]`` into ``bands`` buckets."""
    if value >= 1.0:
        return bands - 1
    if value <= 0.0:
        return 0
    return min(bands - 1, int(value * bands))


def _occurrence_entropies(log: EventLog) -> dict[int, float]:
    """Per event id: entropy of the per-trace occurrence-count histogram.

    Matches :func:`repro.baselines.entropy.event_entropy` exactly
    (including the zero-occurrences bucket) but computes every event in
    one pass over the interned traces instead of one scan per event.
    """
    interner = log.interner()
    total = interner.num_traces
    histograms: dict[int, Counter] = {}
    for trace in interner.interned_traces:
        for event_id, count in Counter(trace).items():
            histogram = histograms.get(event_id)
            if histogram is None:
                histogram = histograms[event_id] = Counter()
            histogram[count] += 1
    entropies: dict[int, float] = {}
    for event_id, histogram in histograms.items():
        occupied = sum(histogram.values())
        entropy = 0.0
        zero = total - occupied
        if zero:
            probability = zero / total
            entropy -= probability * math.log2(probability)
        for count in histogram.values():
            probability = count / total
            entropy -= probability * math.log2(probability)
        entropies[event_id] = entropy
    return entropies


def _bigram_incidence(
    log: EventLog,
) -> tuple[dict[int, list[float]], dict[int, int], dict[int, int]]:
    """Incident bigram frequencies and degrees from the bigram postings.

    Returns, per event id, the trace-level frequencies of every bigram
    the event participates in, plus its distinct-successor (out) and
    distinct-predecessor (in) counts — exactly the dependency graph's
    edge frequencies and degrees, popcounted off the trace index's
    bigram posting bitsets without rebuilding the graph.
    """
    index = log.trace_index()
    total = index.num_traces
    mask = (1 << BIGRAM_SHIFT) - 1
    incident: dict[int, list[float]] = {}
    out_degree: dict[int, int] = {}
    in_degree: dict[int, int] = {}
    for packed, bits in index.bigram_postings.items():
        first = packed >> BIGRAM_SHIFT
        second = packed & mask
        frequency = bits.bit_count() / total
        incident.setdefault(first, []).append(frequency)
        out_degree[first] = out_degree.get(first, 0) + 1
        in_degree[second] = in_degree.get(second, 0) + 1
        if second != first:
            incident.setdefault(second, []).append(frequency)
    return incident, out_degree, in_degree


def compute_signals(
    log: EventLog, config: BlockingConfig
) -> dict[Event, EventSignals]:
    """The blocking key of every event of ``log``'s alphabet.

    All signals are multiset statistics of the trace collection, so the
    result is invariant under trace reordering (hypothesis-tested) and
    under any renaming of the events themselves — the two invariances
    blocking soundness rests on.
    """
    interner = log.interner()
    bands = config.signal_bands
    entropies = _occurrence_entropies(log)
    incident, out_degree, in_degree = _bigram_incidence(log)
    signals: dict[Event, EventSignals] = {}
    for event in log.alphabet():
        event_id = interner.id_of(event)
        frequency = log.vertex_frequency(event)
        entropy = entropies.get(event_id, 0.0)
        strongest = sorted(incident.get(event_id, ()), reverse=True)
        signature = tuple(
            _band(value, bands) for value in strongest[: config.bigram_top]
        )
        profile = (
            _band(frequency, bands),
            min(in_degree.get(event_id, 0), config.degree_cap),
            min(out_degree.get(event_id, 0), config.degree_cap),
            _band(entropy / (1.0 + entropy), bands),
            signature,
        )
        signals[event] = EventSignals(frequency=frequency, profile=profile)
    return signals
