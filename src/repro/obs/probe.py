"""The probe seam: how the hot paths talk to the observability layer.

Every instrumented component — the A* search, the heuristics, the
frequency evaluator, the streaming engine, the service — holds a
:class:`Probe` and guards each hot call with a *single attribute
check*::

    if probe.enabled:
        probe.gauge("repro_search_frontier_size", len(frontier))

The default everywhere is the shared :data:`NULL_PROBE` (``enabled`` is
``False``), so a production run with observability off pays one
attribute load and a branch per hot site — nothing else.  Cold sites
(the service's per-request and per-job events) may call the no-op
directly.  The ``benchmarks/bench_obs_overhead.py`` guard keeps that
contract honest: the measured disabled-probe overhead must stay under 3%
of search time.

The seam is four primitives: spans (:meth:`Probe.span` as a context
manager for block-structured code, :meth:`Probe.begin_span` /
:meth:`Probe.end_span` for hot loops where a ``with`` would cost an
enter/exit even when disabled), :meth:`Probe.count`,
:meth:`Probe.gauge` and :meth:`Probe.observe`.  A quantity the
matchers already keep in ``SearchStats`` is never counted live: the
registry receives it once, when the finished run's stats are published
through :func:`~repro.obs.metrics.record_counts`.

:class:`ObservabilityProbe` is the live implementation, fanning the
primitives out to a :class:`~repro.obs.trace.Tracer` (nested spans), a
:class:`~repro.obs.metrics.MetricsRegistry` (counters/gauges/
histograms) and a :class:`~repro.obs.progress.ProgressReporter`
(heartbeat lines fed by gauge updates), any of which may be absent.
"""

from __future__ import annotations

from repro.obs.metrics import MetricsRegistry, help_for
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
    """No-op observability primitives; also the base class for live probes.

    Call sites must treat every method here as fire-and-forget: nothing
    returns anything the caller may branch on (``begin_span``'s token is
    only ever handed back to ``end_span``).
    """

    #: Hot paths skip probe calls entirely when this is ``False``.
    enabled = False

    def span(self, name: str, **attributes):
        return _NULL_SPAN

    def begin_span(self, name: str, **attributes):
        return None

    def end_span(self, span, **attributes) -> None:
        pass

    def count(self, name: str, amount: int | float = 1, **labels) -> None:
        pass

    def gauge(self, name: str, value: int | float, **labels) -> None:
        pass

    def observe(self, name: str, value: float, **labels) -> None:
        pass


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
        omitted so the probe is always snapshotable.  A series appears
        the first time it is used.
    reporter:
        Heartbeat emitter handed every gauge update; ``None`` disables
        heartbeats.
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
        self._series: dict = {}

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

    def _get(self, kind: str, name: str, labels: dict):
        """The ``(name, labels)`` series, created on first use."""
        key = (name, tuple(labels.items())) if labels else name
        series = self._series.get(key)
        if series is None:
            make = getattr(self.metrics, kind)
            series = self._series[key] = make(name, help_for(name), labels)
        return series

    def count(self, name, amount=1, **labels):
        self._get("counter", name, labels).inc(amount)

    def gauge(self, name, value, **labels):
        self._get("gauge", name, labels).set(value)
        if self.reporter is not None:
            self.reporter.update(name, value)

    def observe(self, name, value, **labels):
        self._get("histogram", name, labels).observe(value)
