"""The probe seam: how the hot paths talk to the observability layer.

Every instrumented component — the A* search, the heuristics, the
frequency kernel, the streaming engine, the evaluation harness — holds a
:class:`Probe` and guards each hook call with a *single attribute
check*::

    if probe.enabled:
        probe.on_expansion(...)

The default everywhere is the shared :data:`NULL_PROBE` (``enabled`` is
``False``), so a production run with observability off pays one
attribute load and a branch per hook site — nothing else.  The
``benchmarks/bench_obs_overhead.py`` guard keeps that contract honest:
the measured disabled-probe overhead must stay under 3% of search time.

:class:`ObservabilityProbe` is the live implementation, fanning hooks
out to a :class:`~repro.obs.trace.Tracer` (nested spans), a
:class:`~repro.obs.metrics.MetricsRegistry` (counters/gauges/
histograms) and a :class:`~repro.obs.progress.ProgressReporter`
(heartbeat lines), any of which may be absent.

Span hooks come in two shapes: :meth:`Probe.span` is a context manager
for code with clean block structure (phases, re-match cycles), while the
:meth:`Probe.begin_span`/:meth:`Probe.end_span` pair serves hot loops
where wrapping the body in a ``with`` would cost an enter/exit even when
disabled.
"""

from __future__ import annotations

from repro.obs.metrics import MetricsRegistry, record_counts
from repro.obs.progress import ProgressReporter
from repro.obs.trace import Tracer


class _NullSpan:
    """Reusable no-op context manager returned by disabled ``span()``."""

    __slots__ = ()

    def __enter__(self):
        return None

    def __exit__(self, *exc_info):
        return False


_NULL_SPAN = _NullSpan()


class Probe:
    """No-op observability hooks; also the base class for live probes.

    Hook sites must treat every method here as fire-and-forget: no hook
    returns anything the caller may branch on (``begin_span``'s token is
    only ever handed back to ``end_span``).
    """

    #: Hot paths skip hook calls entirely when this is ``False``.
    enabled = False

    # -- spans ----------------------------------------------------------
    def span(self, name: str, **attributes):
        return _NULL_SPAN

    def begin_span(self, name: str, **attributes):
        return None

    def end_span(self, span, **attributes) -> None:
        pass

    # -- exact search ---------------------------------------------------
    def on_expansion(
        self,
        expansions: int,
        frontier_size: int,
        incumbent: float | None,
        gap: float | None,
    ) -> None:
        pass

    def on_incumbent(self, score: float, gap: float | None) -> None:
        pass

    # -- heuristics -----------------------------------------------------
    def on_heuristic_pass(self, sweep: int, score: float) -> None:
        pass

    # -- frequency evaluation / kernel ----------------------------------
    def on_frequency_eval(self, cache_hit: bool) -> None:
        pass

    def on_kernel_tier(self, tier: str) -> None:
        pass

    # -- bounds ----------------------------------------------------------
    def on_bound_caps(self, fast: bool) -> None:
        pass

    # -- blocking / tiered matching --------------------------------------
    def on_blocking_plan(
        self, blocks: int, pairs_total: int, pairs_considered: int
    ) -> None:
        pass

    def on_blocking_tier(self, tier: str, count: int = 1) -> None:
        pass

    # -- parallel execution ---------------------------------------------
    def on_parallel_run(self, workers: int, shards: int) -> None:
        pass

    def on_shard_done(
        self, shard: int, elapsed_seconds: float, expanded_nodes: int
    ) -> None:
        pass

    def on_chunk_done(self, worker: int, chunk: int, stolen: bool) -> None:
        pass

    def on_shard_steal(self, worker: int, chunk: int) -> None:
        pass

    def on_pool_event(self, reused: bool, workers: int) -> None:
        pass

    # -- streaming ------------------------------------------------------
    def on_stream_commit(self, trace_id: int, num_events: int) -> None:
        pass

    def on_stream_update(self, record) -> None:
        pass

    # -- service (daemon) -----------------------------------------------
    def on_job_submitted(self, kind: str) -> None:
        pass

    def on_job_finished(self, kind: str, state: str, seconds: float) -> None:
        pass

    def on_queue_depth(self, depth: int) -> None:
        pass

    def on_file_ingested(self, outcome: str) -> None:
        pass

    def on_http_request(self, route: str, status: int) -> None:
        pass

    # -- supervision ------------------------------------------------------
    def on_job_retry(self, kind: str) -> None:
        pass

    def on_job_poisoned(self, kind: str) -> None:
        pass

    def on_pool_respawn(self, workers: int, reason: str) -> None:
        pass

    def on_backpressure(self) -> None:
        pass

    # -- bulk stats ------------------------------------------------------
    def record_search_stats(self, stats) -> None:
        pass

    def record_recovery_stats(self, recovery) -> None:
        pass


#: Back-compat alias: the no-op base *is* the null probe.
NullProbe = Probe

#: The shared default probe — every instrumented component falls back to
#: this singleton when constructed without an explicit probe.
NULL_PROBE = Probe()


class ObservabilityProbe(Probe):
    """Live probe: spans to a tracer, numbers to a registry, heartbeats.

    Parameters
    ----------
    tracer:
        Receives nested spans; ``None`` disables tracing (metrics and
        heartbeat still work).
    metrics:
        The registry counters/gauges/histograms land in; created when
        omitted so the probe is always snapshotable.
    reporter:
        Heartbeat emitter driven from the expansion stream; ``None``
        disables heartbeats.
    """

    enabled = True

    def __init__(
        self,
        tracer: Tracer | None = None,
        metrics: MetricsRegistry | None = None,
        reporter: ProgressReporter | None = None,
    ):
        self.tracer = tracer
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.reporter = reporter
        m = self.metrics
        self._expansions = m.counter(
            "repro_search_expansions_total", "A* tree nodes expanded"
        )
        self._frontier = m.gauge(
            "repro_search_frontier_size", "Open nodes on the A* frontier"
        )
        self._incumbent = m.gauge(
            "repro_search_incumbent_score",
            "Best complete incumbent mapping score",
        )
        self._gap = m.gauge(
            "repro_search_bound_gap",
            "Best open g+h minus the incumbent score (optimality-gap bound)",
        )
        self._incumbent_updates = m.counter(
            "repro_search_incumbent_updates_total",
            "Times the anytime incumbent improved",
        )
        self._heuristic_passes = m.counter(
            "repro_heuristic_passes_total",
            "Hill-climb sweeps / augmentation rounds of the heuristics",
        )
        self._freq_evals = m.counter(
            "repro_frequency_evaluations_total",
            "Pattern-frequency evaluations that missed the memo",
        )
        self._freq_hits = m.counter(
            "repro_frequency_cache_hits_total",
            "Pattern-frequency evaluations answered from the memo",
        )
        self._commits = m.counter(
            "repro_stream_commits_total", "Traces committed to the stream"
        )
        self._commit_events = m.counter(
            "repro_stream_events_total", "Events inside committed traces"
        )
        self._updates = m.counter(
            "repro_stream_updates_total", "OnlineMatcher.update calls"
        )
        self._rematches = m.counter(
            "repro_stream_rematches_total", "Updates that ran a re-match"
        )
        self._stream_score = m.gauge(
            "repro_stream_score", "Realized D^N(M) at the live frequencies"
        )
        self._stream_drift = m.gauge(
            "repro_stream_drift", "Relative drift against the last baseline"
        )
        self._rematch_seconds = m.histogram(
            "repro_stream_rematch_seconds",
            "Wall-clock seconds per re-match",
        )
        self._caps_fast = m.counter(
            "repro_bounds_caps_total",
            "ScoreModel.h calls whose TIGHT maxima came from sorted caps",
            labels={"path": "fast"},
        )
        self._caps_slow = m.counter(
            "repro_bounds_caps_total",
            "ScoreModel.h calls whose TIGHT maxima came from sorted caps",
            labels={"path": "slow"},
        )
        self._parallel_workers = m.gauge(
            "repro_parallel_workers",
            "Worker processes of the most recent parallel run",
        )
        self._parallel_shards = m.counter(
            "repro_parallel_shards_total",
            "Root-split shards completed by parallel searches",
        )
        self._shard_seconds = m.histogram(
            "repro_parallel_shard_seconds",
            "Wall-clock seconds per parallel search shard",
        )
        self._chunks = m.counter(
            "repro_parallel_chunks_total",
            "Work-stealing root chunks completed by parallel searches",
        )
        self._steals = m.counter(
            "repro_parallel_steals_total",
            "Chunks claimed by a worker other than their home worker",
        )
        self._pool_reuse = m.gauge(
            "repro_parallel_pool_reuse",
            "Whether the most recent parallel run reused a warm pool (1/0)",
        )
        self._pool_spawns = m.counter(
            "repro_parallel_pool_spawns_total",
            "Parallel runs that had to create a fresh worker pool",
        )
        self._pool_reuses = m.counter(
            "repro_parallel_pool_reuses_total",
            "Parallel runs served by an already-warm worker pool",
        )
        self._blocking_blocks = m.gauge(
            "repro_blocking_blocks",
            "Candidate blocks of the most recent blocking plan",
        )
        self._blocking_pruned = m.gauge(
            "repro_blocking_pruned_ratio",
            "Fraction of the |V1|x|V2| pair space pruned by blocking",
        )
        self._queue_depth = m.gauge(
            "repro_service_queue_depth", "Match jobs waiting for a worker"
        )
        self._job_seconds = m.histogram(
            "repro_service_job_seconds",
            "Wall-clock seconds per finished service job",
        )
        self._tier_counters: dict[str, object] = {}
        self._labeled_counters: dict[tuple, object] = {}

    # -- spans ----------------------------------------------------------
    def span(self, name: str, **attributes):
        if self.tracer is None:
            return _NULL_SPAN
        return self.tracer.span(name, **attributes)

    def begin_span(self, name: str, **attributes):
        if self.tracer is None:
            return None
        return self.tracer.begin(name, **attributes)

    def end_span(self, span, **attributes) -> None:
        if span is not None:
            self.tracer.finish(span, **attributes)

    # -- exact search ---------------------------------------------------
    def on_expansion(self, expansions, frontier_size, incumbent, gap):
        self._expansions.inc()
        self._frontier.set(frontier_size)
        if incumbent is not None:
            self._incumbent.set(incumbent)
        if gap is not None:
            self._gap.set(gap)
        if self.reporter is not None:
            self.reporter.heartbeat(
                expansions,
                frontier_size=frontier_size,
                incumbent=incumbent,
                gap=gap,
            )

    def on_incumbent(self, score, gap):
        self._incumbent_updates.inc()
        self._incumbent.set(score)
        if gap is not None:
            self._gap.set(gap)

    # -- heuristics -----------------------------------------------------
    def on_heuristic_pass(self, sweep, score):
        self._heuristic_passes.inc()
        self._incumbent.set(score)

    # -- frequency evaluation / kernel ----------------------------------
    def on_frequency_eval(self, cache_hit):
        if cache_hit:
            self._freq_hits.inc()
        else:
            self._freq_evals.inc()

    # -- bounds ----------------------------------------------------------
    def on_bound_caps(self, fast):
        (self._caps_fast if fast else self._caps_slow).inc()

    # -- blocking / tiered matching --------------------------------------
    def on_blocking_plan(self, blocks, pairs_total, pairs_considered):
        self._blocking_blocks.set(blocks)
        if pairs_total > 0:
            self._blocking_pruned.set(1.0 - pairs_considered / pairs_total)

    def on_blocking_tier(self, tier, count=1):
        self._labeled(
            "repro_blocking_tier_total",
            "Blocks resolved by the tiered matcher, by tier",
            tier=tier,
        ).inc(count)

    # -- parallel execution ---------------------------------------------
    def on_parallel_run(self, workers, shards):
        self._parallel_workers.set(workers)

    def on_shard_done(self, shard, elapsed_seconds, expanded_nodes):
        self._parallel_shards.inc()
        self._shard_seconds.observe(elapsed_seconds)

    def on_chunk_done(self, worker, chunk, stolen):
        self._chunks.inc()

    def on_shard_steal(self, worker, chunk):
        self._steals.inc()

    def on_pool_event(self, reused, workers):
        self._pool_reuse.set(1.0 if reused else 0.0)
        (self._pool_reuses if reused else self._pool_spawns).inc()

    def on_kernel_tier(self, tier):
        counter = self._tier_counters.get(tier)
        if counter is None:
            counter = self.metrics.counter(
                "repro_kernel_tier_total",
                "Frequency-kernel queries answered, by tier",
                labels={"tier": tier},
            )
            self._tier_counters[tier] = counter
        counter.inc()

    # -- service (daemon) -----------------------------------------------
    def _labeled(self, name: str, help_text: str, **labels):
        key = (name, tuple(sorted(labels.items())))
        counter = self._labeled_counters.get(key)
        if counter is None:
            counter = self.metrics.counter(name, help_text, labels=labels)
            self._labeled_counters[key] = counter
        return counter

    def on_job_submitted(self, kind):
        self._labeled(
            "repro_service_jobs_submitted_total",
            "Jobs accepted by the service queue, by kind",
            kind=kind,
        ).inc()

    def on_job_finished(self, kind, state, seconds):
        self._labeled(
            "repro_service_jobs_finished_total",
            "Jobs leaving the queue, by kind and terminal state",
            kind=kind,
            state=state,
        ).inc()
        self._job_seconds.observe(seconds)

    def on_queue_depth(self, depth):
        self._queue_depth.set(depth)

    def on_file_ingested(self, outcome):
        self._labeled(
            "repro_service_files_total",
            "Watched-directory files processed, by outcome",
            outcome=outcome,
        ).inc()

    def on_http_request(self, route, status):
        self._labeled(
            "repro_service_http_requests_total",
            "HTTP API requests served, by route and status",
            route=route,
            status=str(status),
        ).inc()

    # -- supervision ------------------------------------------------------
    def on_job_retry(self, kind):
        self._labeled(
            "repro_service_job_retries_total",
            "Job attempts re-queued by the retry policy, by failure kind",
            kind=kind,
        ).inc()

    def on_job_poisoned(self, kind):
        self._labeled(
            "repro_service_jobs_poisoned_total",
            "Jobs dead-lettered into quarantine, by last failure kind",
            kind=kind,
        ).inc()

    def on_pool_respawn(self, workers, reason):
        self._labeled(
            "repro_service_pool_respawns_total",
            "Worker-pool rebuilds performed by supervision, by trigger",
            reason=reason,
        ).inc()

    def on_backpressure(self):
        self._labeled(
            "repro_service_backpressure_total",
            "Job submissions refused because the queue was at its bound",
        ).inc()

    # -- streaming ------------------------------------------------------
    def on_stream_commit(self, trace_id, num_events):
        self._commits.inc()
        self._commit_events.inc(num_events)

    def on_stream_update(self, record):
        self._updates.inc()
        self._stream_score.set(record.score)
        self._stream_drift.set(
            0.0 if record.drift != record.drift else min(record.drift, 1e9)
        )
        if record.rematched:
            self._rematches.inc()
            self._rematch_seconds.observe(record.elapsed_seconds)

    # -- bulk stats ------------------------------------------------------
    def record_search_stats(self, stats) -> None:
        """Publish a finished run's ``SearchStats`` into the registry."""
        record_counts(
            self.metrics,
            stats.to_dict(),
            prefix="repro_stats_",
            help_text="Search-statistics counter mirrored from SearchStats",
        )

    def record_recovery_stats(self, recovery) -> None:
        """Publish ``RecoveryStats`` counters into the registry."""
        record_counts(
            self.metrics,
            recovery.as_dict(),
            prefix="repro_recovery_",
            help_text="Resilience counter mirrored from RecoveryStats",
        )
