"""Cross-process telemetry: trace propagation, span spools, merge, fold.

The probe seam (PR 4) gave one process spans and counters; PRs 5–8
moved the actual search into warm worker processes, where everything a
probe records dies with the worker.  This module is the bridge:

* A ``trace_id`` (:func:`new_trace_id`) is minted when work enters the
  system — an HTTP request, a watched file, a job submission — and
  rides the job payload into the worker.
* Inside the worker, a :class:`WorkerTelemetry` session wires a
  :class:`~repro.obs.trace.Tracer` to a :class:`SpanSpool`: a bounded
  append-only JSONL file, flushed per span, so a SIGKILLed attempt
  still leaves every *completed* span readable on disk (the torn tail
  of the file is tolerated by :func:`read_spool`).  The session's
  :class:`TelemetryProbe` coalesces the per-expansion ``astar.expand``
  begin/end firehose into coarse ``astar.chunk`` spans (one per
  :data:`EXPANSION_CHUNK` expansions) — that is what keeps the enabled
  tax inside the <5% budget while heuristic phases, kernel tiers and
  search counters stay exact.
* On harvest, the parent-side :class:`TelemetryHub` folds the worker's
  counter snapshot into the global registry under ``worker=<pid>``
  labels (exactly once per harvested outcome — fail-over harvesting in
  the pool already guarantees one outcome per attempt), and when a job
  reaches a terminal state it merges every attempt's spool plus the
  daemon's own dispatch/harvest spans into one Chrome ``trace_event``
  document with *real* pid/tid lanes: each process is a lane, each
  attempt a thread, so a killed attempt and its retry render as
  sibling rows in Perfetto.

Spool files are crash-safe by construction (the parent reaps any spool
whose job it does not recognize at startup) and bounded by construction
(:data:`SPOOL_MAX_BYTES`; overflow is counted, not written).
"""

from __future__ import annotations

import json
import os
import time
import uuid
from pathlib import Path

from repro.obs.metrics import MetricsRegistry
from repro.obs.probe import ObservabilityProbe
from repro.obs.trace import Span, Tracer

#: Filename suffix all span spools share — the reaping pattern.
SPOOL_SUFFIX = ".spans.jsonl"

#: Default per-attempt spool byte budget.  Spans past the budget are
#: counted (``dropped`` in the trailer) but not written, so a runaway
#: search cannot fill the state volume.
SPOOL_MAX_BYTES = 4 * 1024 * 1024

#: A* expansions folded into one ``astar.chunk`` span.
EXPANSION_CHUNK = 512

#: Merged traces kept on disk per service (oldest evicted first).
KEEP_TRACES = 200

_TRACE_ID_OK = frozenset(
    "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789-_"
)


def new_trace_id() -> str:
    """A fresh 16-hex trace id."""
    return uuid.uuid4().hex[:16]


def validate_trace_id(value) -> str | None:
    """A sane client-supplied trace id, or ``None`` to mint a fresh one.

    Ids come from unauthenticated headers; anything non-string, empty,
    over 64 chars, or containing characters outside ``[A-Za-z0-9_-]``
    is rejected rather than written into filenames and log lines.
    """
    if not isinstance(value, str) or not 0 < len(value) <= 64:
        return None
    if not all(ch in _TRACE_ID_OK for ch in value):
        return None
    return value


def spool_filename(job_id: str, attempt: int, pid: int) -> str:
    return f"{job_id}.a{attempt}.p{pid}{SPOOL_SUFFIX}"


# ----------------------------------------------------------------------
# Worker side: the spool and the session
# ----------------------------------------------------------------------
class SpanSpool:
    """Bounded, flush-per-span JSONL writer for one attempt's spans.

    Line 1 is a ``meta`` record (trace/job identity, pid, the wall
    clock at the tracer's epoch so the parent can align lanes across
    processes); every subsequent line is one finished span; a ``end``
    trailer records the drop count.  Each line is flushed as written —
    the whole point is surviving SIGKILL with the completed prefix
    intact.
    """

    def __init__(self, path: str | os.PathLike, meta: dict, max_bytes: int = SPOOL_MAX_BYTES):
        self.path = Path(path)
        self.max_bytes = max_bytes
        self.written = 0
        self.spans = 0
        self.dropped = 0
        self._handle = open(self.path, "w", encoding="utf-8")
        self._write({"kind": "meta", **meta})

    def _write(self, doc: dict) -> None:
        line = json.dumps(doc, default=str) + "\n"
        self._handle.write(line)
        self._handle.flush()
        self.written += len(line)

    def add(self, doc: dict) -> None:
        """Append one span document, honouring the byte budget."""
        if self._handle.closed:
            return
        if self.written >= self.max_bytes:
            self.dropped += 1
            return
        self._write({"kind": "span", **doc})
        self.spans += 1

    def close(self) -> None:
        if self._handle.closed:
            return
        self._write({"kind": "end", "spans": self.spans, "dropped": self.dropped})
        self._handle.close()


def read_spool(path: str | os.PathLike) -> tuple[dict, list[dict]]:
    """Parse a spool; tolerate the torn tail a SIGKILL leaves behind.

    Returns ``(meta, spans)``.  A malformed line (the flush that never
    completed) ends the read; everything before it is intact because
    each record was flushed whole.
    """
    meta: dict = {}
    spans: list[dict] = []
    try:
        with open(path, encoding="utf-8") as handle:
            for line in handle:
                try:
                    doc = json.loads(line)
                except json.JSONDecodeError:
                    break
                kind = doc.get("kind")
                if kind == "meta":
                    meta = doc
                elif kind == "span":
                    spans.append(doc)
                elif kind == "end":
                    meta["dropped"] = doc.get("dropped", 0)
    except OSError:
        pass
    return meta, spans


class TelemetryProbe(ObservabilityProbe):
    """The probe a worker session hands the matcher.

    Identical to :class:`ObservabilityProbe` except for the hottest
    span site: ``astar.expand`` begin/end pairs (one per A* expansion,
    tens of thousands per job) are not recorded individually — they
    fold into one ``astar.chunk`` span per :data:`EXPANSION_CHUNK`
    expansions, emitted straight to the spool without touching the
    tracer stack so chunk boundaries never fight block structure.
    Every cheap counter hook (expansions, kernel tiers, dominance,
    steals) still lands in the per-job registry exactly.
    """

    def __init__(self, session: "WorkerTelemetry", tracer, metrics):
        super().__init__(tracer=tracer, metrics=metrics)
        self._session = session
        self._chunk_start: float | None = None
        self._chunk_count = 0
        self._chunk_depth = 0

    def begin_span(self, name, **attributes):
        if name == "astar.expand":
            if self._chunk_start is None:
                self._chunk_start = self._session.now()
                self._chunk_count = 0
                self._chunk_depth = attributes.get("depth", 0)
            self._chunk_count += 1
            if self._chunk_count >= EXPANSION_CHUNK:
                self.flush_chunk()
            return None
        return super().begin_span(name, **attributes)

    def flush_chunk(self) -> None:
        """Emit the open expansion chunk (if any) as a spool span."""
        if self._chunk_start is None:
            return
        self._session.emit_span(
            "astar.chunk",
            start=self._chunk_start,
            end=self._session.now(),
            attributes={
                "expansions": self._chunk_count,
                "depth_at_start": self._chunk_depth,
            },
        )
        self._chunk_start = None
        self._chunk_count = 0


class WorkerTelemetry:
    """One attempt's worth of worker-local telemetry.

    Created at the top of ``execute_match_job`` from the payload's
    ``telemetry`` dict; owns the tracer→spool wiring, the per-job
    metrics registry (fresh, so its counters are deltas by
    construction), optionally a sampling profiler, and the probe the
    matcher runs under.  :meth:`finish` closes everything and returns
    the JSON-safe summary that rides home inside the result payload.
    """

    def __init__(
        self,
        spool_dir: str | os.PathLike,
        trace_id: str,
        job_id: str,
        attempt: int,
        profile: bool = False,
        max_bytes: int = SPOOL_MAX_BYTES,
    ):
        self.trace_id = trace_id
        self.job_id = job_id
        self.attempt = attempt
        self.pid = os.getpid()
        spool_dir = Path(spool_dir)
        spool_dir.mkdir(parents=True, exist_ok=True)
        self.tracer = Tracer(on_finish=self._on_span_finish)
        self._wall_epoch = time.time()
        self.spool = SpanSpool(
            spool_dir / spool_filename(job_id, attempt, self.pid),
            meta={
                "trace_id": trace_id,
                "job_id": job_id,
                "attempt": attempt,
                "pid": self.pid,
                "epoch_unix": self._wall_epoch,
            },
            max_bytes=max_bytes,
        )
        self.metrics = MetricsRegistry()
        self.probe = TelemetryProbe(self, tracer=self.tracer, metrics=self.metrics)
        self.profiler = None
        self.profile_path: Path | None = None
        if profile:
            from repro.obs.profiler import SamplingProfiler

            self.profiler = SamplingProfiler()
            self.profiler.start()
            self.profile_path = spool_dir / (
                f"{job_id}.a{attempt}.p{self.pid}.speedscope.json"
            )
        self._root = self.tracer.begin(
            "job.execute",
            trace_id=trace_id,
            job_id=job_id,
            attempt=attempt,
            pid=self.pid,
        )

    @classmethod
    def from_payload(cls, telemetry: dict) -> "WorkerTelemetry":
        return cls(
            spool_dir=telemetry["spool_dir"],
            trace_id=telemetry.get("trace_id") or new_trace_id(),
            job_id=telemetry.get("job_id", "job-unknown"),
            attempt=int(telemetry.get("attempt", 1)),
            profile=bool(telemetry.get("profile", False)),
            max_bytes=int(telemetry.get("max_bytes", SPOOL_MAX_BYTES)),
        )

    def now(self) -> float:
        """Tracer-relative seconds (what span start/end are measured in)."""
        return time.monotonic() - self.tracer._epoch

    def _on_span_finish(self, span: Span) -> None:
        # A forked grandchild inherits this session object; its spans
        # must not interleave into the parent worker's spool.
        if os.getpid() != self.pid:
            return
        self.spool.add(span.as_dict())

    def emit_span(
        self, name: str, start: float, end: float, attributes: dict
    ) -> None:
        """Append a synthetic completed span (chunk spans) to the spool."""
        if os.getpid() != self.pid:
            return
        self.spool.add(
            Span(
                name=name,
                span_id=-1,
                parent_id=None,
                start=start,
                end=end,
                attributes=attributes,
            ).as_dict()
        )

    def finish(self, status: str = "ok") -> dict:
        """Close the session; the returned summary rides in the result."""
        self.probe.flush_chunk()
        if self._root is not None:
            self._root.status = status
            self.tracer.finish(self._root)
            self._root = None
        profile_name = None
        if self.profiler is not None:
            self.profiler.stop()
            try:
                self.profile_path.write_text(
                    json.dumps(self.profiler.speedscope(name=self.job_id))
                )
                profile_name = self.profile_path.name
            except OSError:
                profile_name = None
            self.profiler = None
        self.spool.close()
        return {
            "trace_id": self.trace_id,
            "job_id": self.job_id,
            "attempt": self.attempt,
            "pid": self.pid,
            "status": status,
            "spans": self.spool.spans,
            "spans_dropped": self.spool.dropped,
            "spool": self.spool.path.name,
            "profile": profile_name,
            "counters": self.metrics.counter_samples(),
        }


# ----------------------------------------------------------------------
# Parent side: the hub
# ----------------------------------------------------------------------
class TelemetryHub:
    """Parent-side owner of spools, merged traces and the metric fold.

    Lives on the daemon; knows the state-dir layout::

        <state>/telemetry/spools/   per-attempt span spools (reaped)
        <state>/telemetry/traces/   merged per-job Chrome traces

    and keeps its own non-nested span ledger for parent-plane events
    (dispatch → harvest per attempt), so the merged document always has
    the daemon's pid lane alongside the workers'.
    """

    def __init__(
        self,
        state_dir: str | os.PathLike,
        registry: MetricsRegistry | None = None,
        enabled: bool = True,
        profile_workers: bool = False,
        spool_max_bytes: int = SPOOL_MAX_BYTES,
        keep_traces: int = KEEP_TRACES,
    ):
        self.enabled = enabled
        self.registry = registry
        self.profile_workers = profile_workers
        self.spool_max_bytes = spool_max_bytes
        self.keep_traces = keep_traces
        self.pid = os.getpid()
        root = Path(state_dir) / "telemetry"
        self.spool_dir = root / "spools"
        self.trace_dir = root / "traces"
        if enabled:
            self.spool_dir.mkdir(parents=True, exist_ok=True)
            self.trace_dir.mkdir(parents=True, exist_ok=True)
        # Open parent-plane spans: (job_id, attempt) -> span dict.
        self._open_attempts: dict[tuple[str, int], dict] = {}
        # Closed parent-plane spans awaiting a merge, per job.
        self._parent_spans: dict[str, list[dict]] = {}
        # Folds already applied: (job_id, attempt) — belt-and-braces
        # against any future double-harvest bug upstream.
        self._folded: set[tuple[str, int]] = set()
        self.stats = {
            "spans_merged": 0,
            "spools_merged": 0,
            "spools_reaped": 0,
            "traces_written": 0,
            "metric_folds": 0,
        }

    # -- dispatch/harvest bookkeeping ----------------------------------
    def attempt_payload(self, job) -> dict | None:
        """The ``telemetry`` dict a dispatched payload carries."""
        if not self.enabled:
            return None
        return {
            "spool_dir": str(self.spool_dir),
            "trace_id": getattr(job, "trace_id", None) or new_trace_id(),
            "job_id": job.job_id,
            "attempt": job.attempts,
            "profile": self.profile_workers,
            "max_bytes": self.spool_max_bytes,
        }

    def attempt_started(self, job) -> None:
        """Open the parent-plane span for this attempt (at dispatch)."""
        if not self.enabled:
            return
        self._open_attempts[(job.job_id, job.attempts)] = {
            "name": "job.attempt",
            "pid": self.pid,
            "attempt": job.attempts,
            "start_unix": time.time(),
            "end_unix": None,
            "status": "open",
            "attributes": {
                "job_id": job.job_id,
                "trace_id": getattr(job, "trace_id", None),
                "attempt": job.attempts,
                "method": job.method,
            },
        }

    def attempt_finished(self, job_id: str, attempt: int, kind: str, error=None) -> None:
        """Close the parent-plane span for a harvested attempt."""
        if not self.enabled:
            return
        span = self._open_attempts.pop((job_id, attempt), None)
        if span is None:
            return
        span["end_unix"] = time.time()
        span["status"] = kind
        if error:
            span["attributes"]["error"] = str(error)[:300]
        self._parent_spans.setdefault(job_id, []).append(span)

    # -- metric fold ----------------------------------------------------
    def fold_outcome(self, telemetry: dict | None) -> bool:
        """Fold one attempt's counter snapshot into the global registry.

        Exactly-once is primarily the pool's harvest guarantee (one
        :class:`JobOutcome` per attempt, fail-over included); the
        ``(job_id, attempt)`` guard here turns any violation into a
        silent skip instead of inflated counters.
        """
        if not self.enabled or not telemetry or self.registry is None:
            return False
        key = (telemetry.get("job_id"), telemetry.get("attempt"))
        if key in self._folded:
            return False
        self._folded.add(key)
        worker = str(telemetry.get("pid", "unknown"))
        for sample in telemetry.get("counters", ()):
            name = sample.get("name")
            value = sample.get("value", 0)
            if not name or not isinstance(value, (int, float)) or value < 0:
                continue
            labels = dict(sample.get("labels") or {})
            labels["worker"] = worker
            self.registry.counter(
                f"repro_worker_{name.removeprefix('repro_')}",
                "Worker-harvested counter folded from a job attempt",
                labels=labels,
            ).inc(value)
        self.stats["metric_folds"] += 1
        return True

    # -- merge ----------------------------------------------------------
    def trace_path(self, job_id: str) -> Path:
        return self.trace_dir / f"{job_id}.trace.json"

    def merge_job(self, job_id: str, trace_id: str | None = None) -> dict | None:
        """Merge every attempt spool + parent spans into one Chrome trace.

        Called when a job reaches a terminal state (and lazily by the
        API if the file is missing).  Spools whose ``trace_id`` does not
        match the job's (stale files from a previous daemon generation
        that reused the job counter) are reaped, not merged.  Merged
        spools are deleted; the merged document is written to
        ``traces/<job_id>.trace.json`` and returned.
        """
        if not self.enabled:
            return None
        lanes: list[tuple[dict, list[dict]]] = []
        for path in sorted(self.spool_dir.glob(f"{job_id}.a*{SPOOL_SUFFIX}")):
            meta, spans = read_spool(path)
            if trace_id and meta.get("trace_id") not in (None, trace_id):
                self._remove(path, reaped=True)
                continue
            lanes.append((meta, spans))
            self._remove(path)
            self.stats["spools_merged"] += 1
        parent_spans = self._parent_spans.pop(job_id, [])
        # Attempts still marked open (merge during a retry storm) stay
        # queued for a later merge rather than being dropped.
        document = self._build_chrome(job_id, trace_id, lanes, parent_spans)
        try:
            self.trace_path(job_id).write_text(json.dumps(document, indent=1))
            self.stats["traces_written"] += 1
            self._evict_traces()
        except OSError:
            pass
        return document

    def _build_chrome(
        self,
        job_id: str,
        trace_id: str | None,
        lanes: list[tuple[dict, list[dict]]],
        parent_spans: list[dict],
    ) -> dict:
        events: list[dict] = []
        # Align every lane on one wall-clock origin.
        origins = [m.get("epoch_unix") for m, _ in lanes if m.get("epoch_unix")]
        origins.extend(s["start_unix"] for s in parent_spans)
        base = min(origins) if origins else 0.0

        def process_meta(pid: int, label: str, sort: int) -> None:
            events.append(
                {
                    "ph": "M",
                    "name": "process_name",
                    "pid": pid,
                    "tid": 0,
                    "args": {"name": label},
                }
            )
            events.append(
                {
                    "ph": "M",
                    "name": "process_sort_index",
                    "pid": pid,
                    "tid": 0,
                    "args": {"sort_index": sort},
                }
            )

        process_meta(self.pid, f"repro daemon (pid {self.pid})", 0)
        for pid, tid, label in sorted(
            {
                (
                    meta.get("pid", 0),
                    meta.get("attempt", 0),
                    f"attempt {meta.get('attempt', '?')}",
                )
                for meta, _ in lanes
            }
        ):
            events.append(
                {
                    "ph": "M",
                    "name": "thread_name",
                    "pid": pid,
                    "tid": tid,
                    "args": {"name": label},
                }
            )
        seen_pids = {self.pid}
        for meta, _ in lanes:
            pid = meta.get("pid", 0)
            if pid not in seen_pids:
                seen_pids.add(pid)
                process_meta(pid, f"repro worker (pid {pid})", pid)

        for span in parent_spans:
            start = span["start_unix"] - base
            end = (span["end_unix"] or span["start_unix"]) - base
            args = {
                "status": span["status"],
                **span["attributes"],
            }
            events.append(
                {
                    "ph": "X",
                    "name": span["name"],
                    "cat": "daemon",
                    "pid": span["pid"],
                    "tid": span.get("attempt", 0),
                    "ts": round(start * 1e6, 3),
                    "dur": round(max(end - start, 0.0) * 1e6, 3),
                    "args": args,
                }
            )
        for meta, spans in lanes:
            pid = meta.get("pid", 0)
            tid = meta.get("attempt", 0)
            epoch = meta.get("epoch_unix", base)
            for doc in spans:
                start = epoch + (doc.get("start_s") or 0.0) - base
                end_s = doc.get("end_s")
                duration = (
                    (end_s - doc.get("start_s", 0.0)) if end_s is not None else 0.0
                )
                args = {
                    "span_id": doc.get("id"),
                    "parent_id": doc.get("parent"),
                    "status": doc.get("status"),
                    "attempt": meta.get("attempt"),
                    "trace_id": meta.get("trace_id"),
                }
                args.update(doc.get("attributes") or {})
                events.append(
                    {
                        "ph": "X",
                        "name": doc.get("name", "?"),
                        "cat": "worker",
                        "pid": pid,
                        "tid": tid,
                        "ts": round(start * 1e6, 3),
                        "dur": round(max(duration, 0.0) * 1e6, 3),
                        "args": args,
                    }
                )
                self.stats["spans_merged"] += 1
        return {
            "traceEvents": events,
            "displayTimeUnit": "ms",
            "otherData": {
                "job_id": job_id,
                "trace_id": trace_id,
                "attempts": len(lanes),
                "pids": sorted(seen_pids),
            },
        }

    def trace_document(self, job) -> dict | None:
        """The merged trace for a job — from disk, or merged on demand."""
        if not self.enabled:
            return None
        path = self.trace_path(job.job_id)
        if path.exists():
            try:
                return json.loads(path.read_text())
            except (OSError, json.JSONDecodeError):
                pass
        return self.merge_job(job.job_id, getattr(job, "trace_id", None))

    # -- reaping --------------------------------------------------------
    #: Spool-adjacent suffixes the reaper owns.
    REAP_SUFFIXES = (SPOOL_SUFFIX, ".speedscope.json")

    def reap(self, known_job_ids=(), reaper=None) -> int:
        """Unlink spools no live job can claim (crashed-daemon leftovers).

        Run once at startup/resume, before new attempts spool.  A spool
        belonging to a known job is kept — its attempts merge when the
        job next reaches a terminal state.  The daemon passes
        :func:`repro.resilience.supervise.reap_stale_files` as
        ``reaper`` so telemetry byproducts ride the resilience layer's
        crash-safe reaping path (``repro.obs`` itself stays import-free
        of the upper layers); without one, a self-contained sweep with
        the same semantics runs.
        """
        if not self.enabled or not self.spool_dir.is_dir():
            return 0
        known = set(known_job_ids)
        if reaper is not None:
            reaped = reaper(self.spool_dir, self.REAP_SUFFIXES, known)
        else:
            reaped = 0
            for path in self.spool_dir.iterdir():
                name = path.name
                if not name.endswith(self.REAP_SUFFIXES):
                    continue
                if name.split(".", 1)[0] in known:
                    continue
                try:
                    path.unlink()
                except OSError:
                    continue
                reaped += 1
        self.stats["spools_reaped"] += reaped
        return reaped

    def _remove(self, path: Path, reaped: bool = False) -> bool:
        try:
            path.unlink()
        except OSError:
            return False
        if reaped:
            self.stats["spools_reaped"] += 1
        return True

    def _evict_traces(self) -> None:
        traces = sorted(
            self.trace_dir.glob("*.trace.json"), key=lambda p: p.stat().st_mtime
        )
        for path in traces[: max(0, len(traces) - self.keep_traces)]:
            self._remove(path)

    def state(self) -> dict:
        """The ``/healthz`` telemetry section."""
        return {"enabled": self.enabled, **self.stats}


# ----------------------------------------------------------------------
# Module-level session plumbing (worker entrypoints)
# ----------------------------------------------------------------------
# The active session of this process.  Set by execute_match_job; forked
# grandchildren (nested parallel search) inherit it and derive their
# own pid-keyed session lazily via derived_session().
_ACTIVE: WorkerTelemetry | None = None


def set_active_session(session: WorkerTelemetry | None) -> None:
    global _ACTIVE
    _ACTIVE = session


def active_session() -> WorkerTelemetry | None:
    """This process's own session (``None`` if inherited from a parent)."""
    if _ACTIVE is not None and _ACTIVE.pid == os.getpid():
        return _ACTIVE
    return None


def derived_session() -> WorkerTelemetry | None:
    """A session for this process, deriving one from an inherited parent.

    A nested parallel-search worker forks from a pool worker that holds
    an active session; the fork inherits the object but must not write
    to the parent's spool (the pid guard refuses).  Instead it opens a
    sibling spool under the same trace/job/attempt identity, so chunk
    spans from the grandchildren land in the merged trace as extra pid
    lanes.
    """
    global _ACTIVE
    if _ACTIVE is None:
        return None
    if _ACTIVE.pid == os.getpid():
        return _ACTIVE
    inherited = _ACTIVE
    try:
        _ACTIVE = WorkerTelemetry(
            spool_dir=inherited.spool.path.parent,
            trace_id=inherited.trace_id,
            job_id=inherited.job_id,
            attempt=inherited.attempt,
            profile=False,
            max_bytes=inherited.spool.max_bytes,
        )
    except OSError:
        _ACTIVE = None
    return _ACTIVE
