"""Outside-in timing: wrap the library's public callables, keep spans in memory.

The traced run patches each callable in :data:`TARGETS` on its class (or
on the module namespace its callers look it up in) with a wrapper that
records a span, and restores the originals afterwards.  Nothing under
``src/`` changes.  A span's *self time* is its duration minus the
durations of the wrapped calls nested directly inside it, so the self
times of one thread's spans add up to the wall time of its outermost
spans.

Spans stay in memory until the run ends; :func:`chrome_trace` then turns
them into one Chrome ``traceEvents`` document (loadable in Perfetto).
Aggregates cover every call; raw spans stop being kept past
``span_cap`` so a long traced run cannot exhaust memory.
"""

from __future__ import annotations

import functools
import importlib
import time
from contextlib import contextmanager

#: (module, class or None, attribute, span name).  The span name's prefix
#: up to its last dot is the layer — the repository module it times.
TARGETS = (
    ("repro.log.csvio", None, "read_csv", "log.read_csv"),
    ("repro.core.matcher", "EventMatcher", "run", "core.matcher.run"),
    ("repro.core.scoring", "ScoreModel", "__init__", "core.scoring.build"),
    ("repro.core.scoring", "ScoreModel", "h", "core.scoring.h"),
    ("repro.core.scoring", "ScoreModel", "g_increment", "core.scoring.g_increment"),
    (
        "repro.patterns.matching",
        "PatternFrequencyEvaluator",
        "mapped_frequency",
        "patterns.mapped_frequency",
    ),
    ("repro.core.astar", "AStarMatcher", "match", "core.astar.match"),
    (
        "repro.core.heuristic",
        "AdvancedHeuristicMatcher",
        "match",
        "core.heuristic.match",
    ),
    # The facade imports tiered_match from the package at call time,
    # tiered.py holds its own reference to build_plan, and plan.py to
    # compute_signals: each is patched where it is looked up.
    ("repro.blocking", None, "tiered_match", "blocking.tiered_match"),
    ("repro.blocking.tiered", None, "build_plan", "blocking.build_plan"),
    ("repro.blocking.plan", None, "compute_signals", "blocking.compute_signals"),
    ("repro.stream.ingest", "StreamingLog", "append_trace", "stream.append_trace"),
    ("repro.stream.ingest", "StreamingLog", "snapshot", "stream.snapshot"),
    ("repro.stream.engine", "OnlineMatcher", "update", "stream.update"),
)

#: Raw spans kept per recorder (about 15 MB of trace JSON); aggregates
#: keep counting past it.
SPAN_CAP = 100_000


def layer_of(name: str) -> str:
    """``core.scoring.h`` → ``core.scoring``."""
    return name.rsplit(".", 1)[0] if "." in name else name


class Recorder:
    """Spans of one thread: per-name aggregates plus capped raw spans.

    ``totals[name]`` is ``[calls, total_s, self_s]``; ``edges[(parent,
    name)]`` is the total duration of ``name`` called directly under
    ``parent`` (``None`` for outermost spans).  Not thread-safe: give
    each thread its own recorder and :meth:`merge` them afterwards.
    """

    def __init__(self, tid: int = 1, epoch: float | None = None,
                 span_cap: int = SPAN_CAP):
        self.tid = tid
        self.epoch = time.perf_counter() if epoch is None else epoch
        self.span_cap = span_cap
        self.totals: dict[str, list] = {}
        self.edges: dict[tuple[str | None, str], float] = {}
        #: (name, start_s since epoch, duration_s, self_s, tid)
        self.spans: list[tuple[str, float, float, float, int]] = []
        self.dropped = 0
        self._stack: list[list] = []

    def enter(self, name: str) -> None:
        self._stack.append([name, time.perf_counter(), 0.0])

    def exit(self) -> None:
        end = time.perf_counter()
        name, start, children = self._stack.pop()
        duration = end - start
        own = duration - children
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[2] += duration
        row = self.totals.get(name)
        if row is None:
            self.totals[name] = [1, duration, own]
        else:
            row[0] += 1
            row[1] += duration
            row[2] += own
        key = (parent[0] if parent is not None else None, name)
        self.edges[key] = self.edges.get(key, 0.0) + duration
        if len(self.spans) < self.span_cap:
            self.spans.append((name, start - self.epoch, duration, own, self.tid))
        else:
            self.dropped += 1

    @contextmanager
    def span(self, name: str):
        self.enter(name)
        try:
            yield
        finally:
            self.exit()

    def wrap(self, name: str, function):
        enter, exit_ = self.enter, self.exit

        @functools.wraps(function)
        def timed(*args, **kwargs):
            enter(name)
            try:
                return function(*args, **kwargs)
            finally:
                exit_()

        return timed

    # -- queries ----------------------------------------------------------
    def calls(self, name: str) -> int:
        return self.totals.get(name, (0, 0.0, 0.0))[0]

    def total(self, name: str) -> float:
        return self.totals.get(name, (0, 0.0, 0.0))[1]

    def self_time(self, name: str) -> float:
        return self.totals.get(name, (0, 0.0, 0.0))[2]

    def under(self, parent: str, name: str) -> float:
        """Total duration of ``name`` called directly inside ``parent``."""
        return self.edges.get((parent, name), 0.0)

    def merge(self, other: "Recorder") -> None:
        """Fold another thread's recorder into this one."""
        for name, (calls, total, own) in other.totals.items():
            row = self.totals.setdefault(name, [0, 0.0, 0.0])
            row[0] += calls
            row[1] += total
            row[2] += own
        for key, duration in other.edges.items():
            self.edges[key] = self.edges.get(key, 0.0) + duration
        room = max(0, self.span_cap - len(self.spans))
        shift = other.epoch - self.epoch
        self.spans.extend(
            (name, start + shift, duration, own, tid)
            for name, start, duration, own, tid in other.spans[:room]
        )
        self.dropped += other.dropped + max(0, len(other.spans) - room)


@contextmanager
def instrument(recorder: Recorder, targets=TARGETS):
    """Patch every target with ``recorder``'s wrapper; always restore."""
    saved = []
    try:
        for module_name, class_name, attribute, span_name in targets:
            owner = importlib.import_module(module_name)
            if class_name is not None:
                owner = getattr(owner, class_name)
            original = vars(owner)[attribute]
            saved.append((owner, attribute, original))
            setattr(owner, attribute, recorder.wrap(span_name, original))
        yield recorder
    finally:
        for owner, attribute, original in reversed(saved):
            setattr(owner, attribute, original)


def layer_table(recorder: Recorder, root: str) -> list[tuple[str, float, int]]:
    """``(layer, self seconds, calls)`` for every layer, largest first.

    ``root`` is the benchmark's own per-operation span; its self time is
    what no wrapped layer accounts for, listed as ``(unattributed)``.
    """
    layers: dict[str, list] = {}
    for name, (calls, _total, own) in recorder.totals.items():
        layer = "(unattributed)" if name == root else layer_of(name)
        row = layers.setdefault(layer, [0.0, 0])
        row[0] += own
        row[1] += calls
    return sorted(
        ((layer, own, calls) for layer, (own, calls) in layers.items()),
        key=lambda row: -row[1],
    )


def coverage(recorder: Recorder, root: str) -> float:
    """Share of the root spans' wall time covered by wrapped layers."""
    wall = recorder.total(root)
    if wall <= 0:
        return 0.0
    return 1.0 - recorder.self_time(root) / wall


def format_self_times(recorder: Recorder, root: str, title: str) -> str:
    """The per-layer and per-span self-time tables as text."""
    wall = recorder.total(root)
    lines = [title, f"traced wall time {wall:.3f} s over "
             f"{recorder.calls(root)} operations"]
    lines.append(f"  {'layer':<24} {'self s':>10} {'share':>7} {'calls':>10}")
    for layer, own, calls in layer_table(recorder, root):
        share = own / wall if wall else 0.0
        lines.append(f"  {layer:<24} {own:10.4f} {share:7.1%} {calls:10d}")
    lines.append("")
    lines.append(
        f"  {'span':<32} {'calls':>9} {'total s':>10} {'self s':>10}"
    )
    for name, (calls, total, own) in sorted(
        recorder.totals.items(), key=lambda item: -item[1][2]
    ):
        lines.append(f"  {name:<32} {calls:9d} {total:10.4f} {own:10.4f}")
    return "\n".join(lines)


def chrome_trace(recorder: Recorder, pid: int, metadata: dict,
                 extra_events: list | None = None) -> dict:
    """One Chrome ``traceEvents`` document of the recorder's spans."""
    events: list[dict] = [
        {"ph": "M", "name": "process_name", "pid": pid, "tid": 0,
         "args": {"name": "benchmark client"}},
    ]
    for name, start, duration, own, tid in recorder.spans:
        events.append(
            {
                "ph": "X",
                "name": name,
                "cat": layer_of(name),
                "pid": pid,
                "tid": tid,
                "ts": round(start * 1e6, 3),
                "dur": round(duration * 1e6, 3),
                "args": {"self_us": round(own * 1e6, 3)},
            }
        )
    events.extend(extra_events or ())
    return {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": {**metadata, "spans_dropped": recorder.dropped},
    }
