"""Counters, gauges and fixed-bucket histograms with two writers.

:class:`MetricsRegistry` is the process-local metrics substrate: a live
probe resolves each :class:`Counter`/:class:`Gauge`/:class:`Histogram`
series once and updates it in place, and the registry renders
everything either as a JSON snapshot
(:meth:`MetricsRegistry.snapshot`) or in the Prometheus text exposition
format (:meth:`MetricsRegistry.to_prometheus`), so a long-running
service can expose the same numbers a benchmark writes to disk.

Series are identified by a metric name plus an optional label set, the
Prometheus model: ``registry.counter("repro_kernel_tier_total",
labels={"tier": "bigram"})`` and the ``tier="automaton"`` series share
one family (one ``# HELP``/``# TYPE`` header) but count independently.
Everything is stdlib-only by design — the observability layer must not
add dependencies to the matcher.

The metric *names* live here too: :data:`METRIC_HELP` describes every
family once, and :func:`record_counts` is the one publisher of a
finished run's ``SearchStats``.
"""

from __future__ import annotations

import json
import re
from bisect import bisect_left

#: Default histogram upper bounds, in seconds — tuned for span-ish
#: durations from sub-millisecond frequency evaluations to minute-long
#: exact searches.  ``+Inf`` is implicit.
DEFAULT_BUCKETS = (
    0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1.0, 5.0, 10.0, 60.0, 300.0,
)

_NAME_OK = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_NAME_FIX = re.compile(r"[^a-zA-Z0-9_:]")


def sanitize_metric_name(name: str) -> str:
    """Coerce an arbitrary string into a legal Prometheus metric name."""
    if _NAME_OK.match(name):
        return name
    fixed = _NAME_FIX.sub("_", name)
    if not fixed or not re.match(r"[a-zA-Z_:]", fixed[0]):
        fixed = "_" + fixed
    return fixed


def _format_value(value) -> str:
    """Exposition-format number: integers bare, floats via ``repr``."""
    if isinstance(value, bool):
        return str(int(value))
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float) and value.is_integer() and abs(value) < 1e15:
        return str(int(value))
    return repr(value)


def _format_le(bound: float) -> str:
    """Histogram ``le`` label text (``0.005``, ``1``, ``+Inf``)."""
    if bound == float("inf"):
        return "+Inf"
    return _format_value(bound)


class Counter:
    """Monotonically increasing count."""

    __slots__ = ("value",)

    def __init__(self):
        self.value = 0

    def inc(self, amount: int | float = 1) -> None:
        if amount < 0:
            raise ValueError("counters only go up")
        self.value += amount


class Gauge:
    """A value that can go anywhere."""

    __slots__ = ("value",)

    def __init__(self):
        self.value = 0

    def set(self, value: int | float) -> None:
        self.value = value

    def inc(self, amount: int | float = 1) -> None:
        self.value += amount

    def dec(self, amount: int | float = 1) -> None:
        self.value -= amount


class Histogram:
    """Fixed-bucket histogram (cumulative buckets at export time)."""

    __slots__ = ("bounds", "bucket_counts", "sum", "count")

    def __init__(self, buckets=DEFAULT_BUCKETS):
        bounds = tuple(sorted(float(b) for b in buckets))
        if not bounds:
            raise ValueError("a histogram needs at least one bucket bound")
        self.bounds = bounds
        # One slot per finite bound plus the +Inf overflow slot.
        self.bucket_counts = [0] * (len(bounds) + 1)
        self.sum = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        self.bucket_counts[bisect_left(self.bounds, value)] += 1
        self.sum += value
        self.count += 1

    def cumulative(self) -> list[tuple[float, int]]:
        """``(le, cumulative_count)`` rows, ending at ``(+Inf, count)``."""
        rows = []
        running = 0
        for bound, bucket in zip(self.bounds, self.bucket_counts):
            running += bucket
            rows.append((bound, running))
        rows.append((float("inf"), self.count))
        return rows


class MetricsRegistry:
    """Named metric families with get-or-create semantics."""

    _KINDS = {"counter": Counter, "gauge": Gauge, "histogram": Histogram}

    def __init__(self):
        # family name -> (kind, help); series (name, labels-key) -> metric
        self._families: dict[str, tuple[str, str]] = {}
        self._series: dict[tuple[str, tuple[tuple[str, str], ...]], object] = {}

    # ------------------------------------------------------------------
    # Get-or-create
    # ------------------------------------------------------------------
    def _get(self, kind, name, help_text, labels, **kwargs):
        name = sanitize_metric_name(name)
        family = self._families.get(name)
        if family is None:
            self._families[name] = (kind, help_text)
        elif family[0] != kind:
            raise ValueError(
                f"metric {name!r} already registered as a {family[0]}, "
                f"cannot re-register as a {kind}"
            )
        labels_key = tuple(sorted((labels or {}).items()))
        series = self._series.get((name, labels_key))
        if series is None:
            series = self._KINDS[kind](**kwargs)
            self._series[(name, labels_key)] = series
        return series

    def counter(
        self, name: str, help_text: str = "", labels: dict | None = None
    ) -> Counter:
        return self._get("counter", name, help_text, labels)

    def gauge(
        self, name: str, help_text: str = "", labels: dict | None = None
    ) -> Gauge:
        return self._get("gauge", name, help_text, labels)

    def histogram(
        self,
        name: str,
        help_text: str = "",
        labels: dict | None = None,
        buckets=DEFAULT_BUCKETS,
    ) -> Histogram:
        return self._get(
            "histogram", name, help_text, labels, buckets=buckets
        )

    # ------------------------------------------------------------------
    # Export
    # ------------------------------------------------------------------
    @staticmethod
    def _series_key(name: str, labels_key) -> str:
        if not labels_key:
            return name
        rendered = ",".join(f'{k}="{v}"' for k, v in labels_key)
        return f"{name}{{{rendered}}}"

    def snapshot(self) -> dict:
        """All series as one JSON-safe dict, grouped by metric kind."""
        out: dict[str, dict] = {"counters": {}, "gauges": {}, "histograms": {}}
        for (name, labels_key), metric in sorted(self._series.items()):
            key = self._series_key(name, labels_key)
            kind = self._families[name][0]
            if kind == "counter":
                out["counters"][key] = metric.value
            elif kind == "gauge":
                out["gauges"][key] = metric.value
            else:
                out["histograms"][key] = {
                    "count": metric.count,
                    "sum": metric.sum,
                    "buckets": {
                        _format_le(le): cum for le, cum in metric.cumulative()
                    },
                }
        return out

    def counter_samples(self) -> list[dict]:
        """Every counter series as ``{name, labels, value}`` rows.

        The structured twin of :meth:`snapshot`'s flattened counter
        keys: because a fresh per-job registry starts at zero, a worker
        can snapshot its counters this way at job end and the parent
        can fold them into the global registry as exact deltas without
        parsing ``name{label="..."}`` strings back apart.
        """
        rows = []
        for (name, labels_key), metric in sorted(self._series.items()):
            if self._families[name][0] != "counter":
                continue
            rows.append(
                {"name": name, "labels": dict(labels_key), "value": metric.value}
            )
        return rows

    def write_json(self, path) -> None:
        with open(path, "w") as handle:
            json.dump(self.snapshot(), handle, indent=2, sort_keys=True)
            handle.write("\n")

    def to_prometheus(self) -> str:
        """The text exposition format (one ``# HELP``/``# TYPE`` per family)."""
        by_family: dict[str, list] = {}
        for (name, labels_key), metric in sorted(self._series.items()):
            by_family.setdefault(name, []).append((labels_key, metric))
        lines: list[str] = []
        for name in sorted(by_family):
            kind, help_text = self._families[name]
            if help_text:
                lines.append(f"# HELP {name} {help_text}")
            lines.append(f"# TYPE {name} {kind}")
            for labels_key, metric in by_family[name]:
                if kind in ("counter", "gauge"):
                    series = self._series_key(name, labels_key)
                    lines.append(f"{series} {_format_value(metric.value)}")
                    continue
                for le, cum in metric.cumulative():
                    bucket_labels = labels_key + (("le", _format_le(le)),)
                    series = self._series_key(f"{name}_bucket", bucket_labels)
                    lines.append(f"{series} {cum}")
                lines.append(
                    f"{self._series_key(f'{name}_sum', labels_key)} "
                    f"{_format_value(metric.sum)}"
                )
                lines.append(
                    f"{self._series_key(f'{name}_count', labels_key)} "
                    f"{metric.count}"
                )
        return "\n".join(lines) + "\n"

    def write_prometheus(self, path) -> None:
        with open(path, "w") as handle:
            handle.write(self.to_prometheus())


#: ``# HELP`` text per metric family.  Every series a probe creates
#: looks its help up here, so a name is described once, whichever site
#: (or process) first uses it.
METRIC_HELP = {
    "repro_search_expansions_total": "A* tree nodes expanded",
    "repro_search_frontier_size": "Open nodes on the A* frontier",
    "repro_search_incumbent_score": "Best complete incumbent mapping score",
    "repro_search_bound_gap": (
        "Best open g+h minus the incumbent score (optimality-gap bound)"
    ),
    "repro_search_incumbent_updates_total": (
        "Times the anytime incumbent improved"
    ),
    "repro_heuristic_passes_total": (
        "Hill-climb sweeps / augmentation rounds of the heuristics"
    ),
    "repro_frequency_evaluations_total": (
        "Pattern-frequency evaluations that missed the memo"
    ),
    "repro_frequency_cache_hits_total": (
        "Pattern-frequency evaluations answered from the memo"
    ),
    "repro_kernel_tier_total": "Frequency-kernel queries answered, by tier",
    "repro_bounds_caps_total": (
        "ScoreModel.h calls whose TIGHT maxima came from sorted caps"
    ),
    "repro_stream_commits_total": "Traces committed to the stream",
    "repro_stream_events_total": "Events inside committed traces",
    "repro_stream_updates_total": "OnlineMatcher.update calls",
    "repro_stream_rematches_total": "Updates that ran a re-match",
    "repro_stream_score": "Realized D^N(M) at the live frequencies",
    "repro_stream_drift": "Relative drift against the last baseline",
    "repro_stream_rematch_seconds": "Wall-clock seconds per re-match",
    "repro_parallel_workers": (
        "Worker processes of the most recent parallel run"
    ),
    "repro_parallel_shards_total": (
        "Root-split shards completed by parallel searches"
    ),
    "repro_parallel_shard_seconds": (
        "Wall-clock seconds per parallel search shard"
    ),
    "repro_parallel_chunks_total": (
        "Work-stealing root chunks completed by parallel searches"
    ),
    "repro_parallel_steals_total": (
        "Chunks claimed by a worker other than their home worker"
    ),
    "repro_parallel_pool_reuse": (
        "Whether the most recent parallel run reused a warm pool (1/0)"
    ),
    "repro_parallel_pool_spawns_total": (
        "Parallel runs that had to create a fresh worker pool"
    ),
    "repro_parallel_pool_reuses_total": (
        "Parallel runs served by an already-warm worker pool"
    ),
    "repro_blocking_blocks": (
        "Candidate blocks of the most recent blocking plan"
    ),
    "repro_blocking_pruned_ratio": (
        "Fraction of the |V1|x|V2| pair space pruned by blocking"
    ),
    "repro_blocking_tier_total": (
        "Blocks resolved by the tiered matcher, by tier"
    ),
    "repro_service_queue_depth": "Match jobs waiting for a worker",
    "repro_service_job_seconds": (
        "Wall-clock seconds per finished service job"
    ),
    "repro_service_jobs_submitted_total": (
        "Jobs accepted by the service queue, by kind"
    ),
    "repro_service_jobs_finished_total": (
        "Jobs leaving the queue, by kind and terminal state"
    ),
    "repro_service_files_total": (
        "Watched-directory files processed, by outcome"
    ),
    "repro_service_http_requests_total": (
        "HTTP API requests served, by route and status"
    ),
    "repro_service_job_retries_total": (
        "Job attempts re-queued by the retry policy, by failure kind"
    ),
    "repro_service_jobs_poisoned_total": (
        "Jobs dead-lettered into quarantine, by last failure kind"
    ),
    "repro_service_pool_respawns_total": (
        "Worker-pool rebuilds performed by supervision, by trigger"
    ),
    "repro_service_backpressure_total": (
        "Job submissions refused because the queue was at its bound"
    ),
}

#: Prefix and help of the ``SearchStats`` fields published under their
#: own names (:func:`record_counts`).
STATS_PREFIX = "repro_stats_"
STATS_HELP = "Search statistic mirrored from SearchStats"

#: The ``SearchStats`` quantities that are published under a search,
#: frequency, kernel, bounds or parallel name instead of the default
#: ``repro_stats_<field>`` / ``repro_stats_extra_<key>``: keyed by that
#: default name, which therefore never appears.
STATS_RENAMED = {
    "repro_stats_expanded_nodes": ("repro_search_expansions_total", {}),
    "repro_stats_incumbent_updates": (
        "repro_search_incumbent_updates_total", {}
    ),
    "repro_stats_frequency_evaluations": (
        "repro_frequency_evaluations_total", {}
    ),
    "repro_stats_frequency_cache_hits": (
        "repro_frequency_cache_hits_total", {}
    ),
    "repro_stats_popcount_queries": (
        "repro_kernel_tier_total", {"tier": "popcount"}
    ),
    "repro_stats_bigram_queries": (
        "repro_kernel_tier_total", {"tier": "bigram"}
    ),
    "repro_stats_naive_queries": (
        "repro_kernel_tier_total", {"tier": "naive"}
    ),
    "repro_stats_extra_caps_fast_path": (
        "repro_bounds_caps_total", {"path": "fast"}
    ),
    "repro_stats_extra_caps_slow_path": (
        "repro_bounds_caps_total", {"path": "slow"}
    ),
    "repro_stats_extra_blocking_pruned_ratio": (
        "repro_blocking_pruned_ratio", {}
    ),
    "repro_stats_extra_parallel_chunks": ("repro_parallel_chunks_total", {}),
    "repro_stats_extra_parallel_steals": ("repro_parallel_steals_total", {}),
}


def help_for(name: str) -> str:
    """The ``# HELP`` text of metric ``name`` (empty when undescribed)."""
    if name.startswith(STATS_PREFIX):
        return STATS_HELP
    return METRIC_HELP.get(name, "")


def record_counts(probe, counts: dict, prefix: str = STATS_PREFIX) -> None:
    """Publish a finished run's counters and values through ``probe``.

    ``counts`` is a flat ``{name: number}`` dict — ``SearchStats.to_dict()``
    — whose nested dicts (``extra``) recurse with their key joined into
    the prefix.  This is the one place a ``SearchStats`` quantity reaches
    the registry: each publishes once, under its :data:`STATS_RENAMED`
    name or else as ``<prefix><field>``.  Integers are counts and add to
    a counter; zero and negative counts publish nothing, so a counter
    only exists once something was counted.  Floats (scores, gaps,
    ratios, seconds) are per-run values and set a gauge, zero included,
    so the gauge holds the last run's value rather than a sum over runs.
    The automaton kernel tier is the automata built plus those reused.
    Boolean and non-numeric values publish nothing.
    """
    automaton = counts.get("automaton_builds", 0) + counts.get(
        "automaton_hits", 0
    )
    if automaton > 0:
        probe.count("repro_kernel_tier_total", automaton, tier="automaton")
    for key, value in counts.items():
        if isinstance(value, dict):
            record_counts(probe, value, f"{prefix}{key}_")
            continue
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            continue
        gauge = isinstance(value, float)
        if not gauge and value <= 0:
            continue
        name = sanitize_metric_name(f"{prefix}{key}")
        name, labels = STATS_RENAMED.get(name, (name, {}))
        if gauge:
            probe.gauge(name, value, **labels)
        else:
            probe.count(name, value, **labels)
