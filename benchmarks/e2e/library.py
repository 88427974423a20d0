"""Child-process runners for the in-process workloads.

``exact-fig7`` and ``blocked-vocab`` time the library user's path, CSV
pair in → mapping out (``read_csv`` twice, then ``match``).
``stream-drift`` times an :class:`~repro.stream.OnlineMatcher` session:
trace batches appended to a :class:`~repro.stream.StreamingLog`, with
``update()`` after each batch.

Both are closed loops with one client thread: the next operation starts
when the previous one returns.  A timed phase cycles through the input
pool until the deadline passes, always finishing at least one full pass
so every input is timed.  In a traced run every operation runs twice
back to back, untraced and traced in alternating order, so the tracing
overhead is measured under the same host conditions as the work.
"""

from __future__ import annotations

import functools
import random
import resource
import statistics
import subprocess
import sys
import time
from contextlib import contextmanager
from pathlib import Path

import repro
from repro import EventMatcher, parse_pattern
from repro.evaluation.metrics import evaluate_mapping
from repro.log import csvio
from repro.stream import OnlineMatcher, StreamingLog

from spans import Recorder, coverage, format_self_times, instrument, layer_table
from summary import Tally, median_or_zero, per_op, pooled_latency

#: Minimum untimed warm-up work before the first timed operation: lets
#: lazy imports, pattern-order caches and the CPU clock settle.
WARMUP_SECONDS = 1.5
#: Fresh interpreters started to measure set-up time (median reported).
SETUP_REPEATS = 7
#: The benchmark's own span around one timed operation.
ROOT = "bench.op"

#: Cold start of a library user: import the matcher, parse a CSV pair.
LIBRARY_COLD_START = """\
import sys
import repro
from repro.log.csvio import read_csv
read_csv(sys.argv[1]); read_csv(sys.argv[2])
"""
#: Cold start of a stream user: import, parse the reference, open a session.
STREAM_COLD_START = """\
import sys
from repro import parse_pattern
from repro.log.csvio import read_csv
from repro.stream import OnlineMatcher, StreamingLog
OnlineMatcher(read_csv(sys.argv[1]), StreamingLog(),
              patterns=[parse_pattern(p) for p in sys.argv[2:]])
"""


def peak_rss_mb() -> float:
    """This process's peak resident set size (``ru_maxrss`` is KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def cold_starts(code: str, argv: list[str], env: dict, tally: Tally) -> list[float]:
    """Wall time of ``SETUP_REPEATS`` fresh interpreters running ``code``."""
    times = []
    for _ in range(SETUP_REPEATS):
        started = time.perf_counter()
        done = subprocess.run(
            [sys.executable, "-c", code, *argv], env=env,
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, timeout=60,
        )
        elapsed = time.perf_counter() - started
        if tally.check(done.returncode == 0,
                       f"cold start exited {done.returncode}: "
                       f"{done.stderr.decode(errors='replace')[-200:]}"):
            times.append(elapsed)
    return times


def warm_up(operation, check) -> None:
    """Untimed runs of input 0 until ``WARMUP_SECONDS`` have passed."""
    started = time.perf_counter()
    while True:
        check(0, operation(0), False)
        if time.perf_counter() - started >= WARMUP_SECONDS:
            return


def timed_phase(pool_size: int, seconds: float, run_one) -> tuple[dict, float]:
    """Cycle ``run_one(index)`` over the pool until ``seconds`` pass.

    The first full pass always completes.  Returns per-input lists of
    whatever ``run_one`` returned (``None`` results are dropped) and the
    phase's elapsed wall time.
    """
    samples: dict[int, list] = {index: [] for index in range(pool_size)}
    started = time.perf_counter()
    deadline = started + seconds
    count = 0
    while count < pool_size or time.perf_counter() < deadline:
        index = count % pool_size
        value = run_one(index)
        if value is not None:
            samples[index].append(value)
        count += 1
    return samples, time.perf_counter() - started


class Measured:
    """What :func:`measure` observed."""

    def __init__(self, traced: bool):
        self.samples: dict[int, list[float]] = {}
        self.elapsed = 0.0
        self.recorder = Recorder() if traced else None
        #: Summed ``SearchStats`` of the traced operations.
        self.stats: dict = {}
        #: traced ÷ untraced time of each back-to-back pair.
        self.ratios: list[float] = []


def measure(pool_size: int, seconds: float, operation, check,
            tally: Tally, label, traced: bool) -> Measured:
    """The timed phase of an in-process workload.

    ``operation(index)`` runs input ``index`` once and returns what
    ``check(index, value, traced)`` verifies.  Untraced, each operation
    is timed alone.  Traced, each runs untraced and traced back to back
    (alternating which goes first) and the traced time is the sample.
    An exception fails that operation and the run goes on.
    """
    measured = Measured(traced)
    recorder = measured.recorder

    def timed(index: int, instrumented: bool):
        started = time.perf_counter()
        if instrumented:
            with instrument(recorder), captured_stats(measured.stats), \
                    recorder.span(ROOT):
                value = operation(index)
        else:
            value = operation(index)
        elapsed = time.perf_counter() - started
        check(index, value, instrumented)
        return elapsed

    def run_one(index: int):
        try:
            if not traced:
                return timed(index, False)
            order = (False, True) if len(measured.ratios) % 2 == 0 else (True, False)
            times = {instrumented: timed(index, instrumented) for instrumented in order}
        except Exception as error:  # noqa: BLE001 — counted, run goes on
            tally.fail(f"{label(index)}: {type(error).__name__}: {error}")
            return None
        measured.ratios.append(times[True] / times[False])
        return times[True]

    measured.samples, measured.elapsed = timed_phase(pool_size, seconds, run_one)
    return measured


def signature(result) -> tuple:
    """What must repeat bit for bit: mapping, score, anytime flags."""
    return (
        tuple(sorted(result.mapping.as_dict().items())),
        result.score,
        result.degraded,
        result.gap,
    )


STAT_FIELDS = (
    "processed_mappings", "expanded_nodes", "pruned_by_bound",
    "frequency_evaluations", "trace_cells_scanned", "bitset_intersections",
    "automaton_builds", "blocking_blocks", "blocking_escalated",
    "blocking_pairs_total", "blocking_pairs_considered",
)


@contextmanager
def captured_stats(totals: dict):
    """Sum the ``SearchStats`` of every ``EventMatcher.run`` into ``totals``.

    Patched on the class (over any timing wrapper already there) and
    restored on exit, so the stream's internal re-matches count too.
    """
    original = EventMatcher.__dict__["run"]

    @functools.wraps(original)
    def run(self, *args, **kwargs):
        result = original(self, *args, **kwargs)
        stats = result.stats
        for name in STAT_FIELDS:
            totals[name] = totals.get(name, 0) + getattr(stats, name)
        for name in ("caps_fast_path", "caps_slow_path"):
            totals[name] = totals.get(name, 0) + stats.extra.get(name, 0)
        return result

    EventMatcher.run = run
    try:
        yield totals
    finally:
        EventMatcher.run = original


def traced_layers(measured: Measured, quality: dict[int, float],
                  ops_per_span: int) -> dict:
    """Per-operation layer metrics of a traced phase.

    ``ops_per_span`` is how many operations one ``ROOT`` span holds (a
    stream session is many batches).
    """
    rec, totals = measured.recorder, measured.stats
    ops = rec.calls(ROOT) * ops_per_span
    fast = totals.get("caps_fast_path", 0)
    slow = totals.get("caps_slow_path", 0)
    processed = totals.get("processed_mappings", 0)
    considered = totals.get("blocking_pairs_considered", 0)
    blocked = rec.calls("blocking.tiered_match") > 0
    search = (
        rec.under("blocking.tiered_match", "core.astar.match")
        + rec.under("blocking.tiered_match", "core.heuristic.match")
    )
    return {
        # Self time: read_csv re-enters itself once with the opened file.
        "log.read_csv_s": per_op(rec.self_time("log.read_csv"), ops),
        "core.scoring.build_s": per_op(rec.self_time("core.scoring.build"), ops),
        "core.scoring.h_s": per_op(rec.self_time("core.scoring.h"), ops),
        "core.scoring.h_calls": per_op(rec.calls("core.scoring.h"), ops),
        "core.scoring.g_increment_s": per_op(
            rec.self_time("core.scoring.g_increment"), ops),
        "core.scoring.g_increment_calls": per_op(
            rec.calls("core.scoring.g_increment"), ops),
        "core.scoring.caps_fast_ratio": fast / (fast + slow) if fast + slow else 0.0,
        "patterns.mapped_frequency_s": per_op(
            rec.self_time("patterns.mapped_frequency"), ops),
        "patterns.mapped_frequency_calls": per_op(
            rec.calls("patterns.mapped_frequency"), ops),
        "kernel.trace_cells_scanned": per_op(totals.get("trace_cells_scanned", 0), ops),
        "kernel.bitset_intersections": per_op(totals.get("bitset_intersections", 0), ops),
        "kernel.automaton_builds": per_op(totals.get("automaton_builds", 0), ops),
        "kernel.frequency_evaluations": per_op(totals.get("frequency_evaluations", 0), ops),
        "core.astar.self_s": per_op(rec.self_time("core.astar.match"), ops),
        "core.astar.expanded_nodes": per_op(totals.get("expanded_nodes", 0), ops),
        # The paper's count (Figs 7c-10c): A* children and heuristic
        # augmentations alike, hence the SearchStats module name.
        "core.stats.processed_mappings": per_op(processed, ops),
        "core.astar.pruned_by_bound": per_op(totals.get("pruned_by_bound", 0), ops),
        "core.astar.expand_ratio": (
            totals.get("expanded_nodes", 0) / processed if processed else 0.0
        ),
        "core.heuristic.match_s": per_op(rec.total("core.heuristic.match"), ops),
        "blocking.signals_s": per_op(rec.total("blocking.compute_signals"), ops),
        # Self time: the partitioning itself, signals excluded.
        "blocking.plan_s": per_op(rec.self_time("blocking.build_plan"), ops),
        "blocking.search_s": per_op(search if blocked else 0.0, ops),
        "blocking.blocks": per_op(totals.get("blocking_blocks", 0), ops),
        "blocking.escalated": per_op(totals.get("blocking_escalated", 0), ops),
        "blocking.candidate_reduction": (
            totals.get("blocking_pairs_total", 0) / considered if considered else 0.0
        ),
        "evaluation.f_measure": statistics.fmean(quality.values()),
        "bench.self_time_coverage": coverage(rec, ROOT),
        "bench.trace_overhead_ratio": statistics.median(measured.ratios) - 1.0,
    }


def traced_report(rec: Recorder, workload: str) -> str:
    """Self-time tables plus the layer with the largest self time."""
    rows = [row for row in layer_table(rec, ROOT) if row[0] != "(unattributed)"]
    wall = rec.total(ROOT)
    layer, own = (rows[0][0], rows[0][1]) if rows else ("none", 0.0)
    share = own / wall if wall > 0 else 0.0
    return (format_self_times(rec, ROOT, f"{workload} self time")
            + f"\ndominant layer: {layer} ({share:.1%} of traced wall time)")


def outcome_of(measured: Measured, setup: list[float], traces: list[int],
               quality: dict[int, float], workload: str,
               ops_per_span: int = 1) -> dict:
    """The runner's result: end-to-end metrics, or traced layer metrics.

    ``traces[index]`` is how many traces one sample of input ``index``
    processed.
    """
    outcome: dict = {"setup_samples": setup, "samples": measured.samples}
    if measured.recorder is None:
        processed = sum(
            len(times) * traces[index] for index, times in measured.samples.items()
        )
        outcome["metrics"] = {
            "latency_s": pooled_latency(measured.samples),
            "traces_per_s": processed / measured.elapsed,
            "peak_rss_mb": peak_rss_mb(),
        }
    else:
        outcome["layers"] = traced_layers(measured, quality, ops_per_span)
        outcome["recorder"] = measured.recorder
        outcome["report"] = traced_report(measured.recorder, workload)
    return outcome


# ----------------------------------------------------------------------
# exact-fig7 / blocked-vocab
# ----------------------------------------------------------------------
class _Task:
    def __init__(self, entry: dict, directory: Path):
        self.label = entry["label"]
        self.path_1 = str(directory / entry["log_1"])
        self.path_2 = str(directory / entry["log_2"])
        self.patterns = [parse_pattern(text) for text in entry["patterns"]]
        self.truth = entry["truth"]
        self.method = entry["method"]
        self.blocking = entry.get("blocking")
        self.traces = sum(entry["traces"])


def run_matching(spec: dict, directory: Path, seconds: float, traced: bool,
                 env: dict, tally: Tally) -> dict:
    tasks = [_Task(entry, directory) for entry in spec["tasks"]]
    setup = cold_starts(
        LIBRARY_COLD_START, [tasks[0].path_1, tasks[0].path_2], env, tally
    )
    reference: dict[int, tuple] = {}
    quality: dict[int, float] = {}

    def operation(index: int):
        task = tasks[index]
        return repro.match(
            csvio.read_csv(task.path_1), csvio.read_csv(task.path_2),
            patterns=task.patterns, method=task.method, blocking=task.blocking,
        )

    def check(index: int, result, _traced: bool) -> None:
        label = tasks[index].label
        sig = signature(result)
        if index not in reference:
            reference[index] = sig
            quality[index] = evaluate_mapping(
                result.mapping.as_dict(), tasks[index].truth
            ).f_measure
            tally.check(not result.degraded,
                        f"{label}: unbudgeted exact search degraded")
        else:
            tally.check(sig == reference[index],
                        f"{label}: mapping/score differs from its first run")

    warm_up(operation, check)
    measured = measure(len(tasks), seconds, operation, check, tally,
                       lambda index: tasks[index].label, traced)
    return outcome_of(measured, setup, [task.traces for task in tasks],
                      quality, spec["workload"])


# ----------------------------------------------------------------------
# stream-drift
# ----------------------------------------------------------------------
def _feeds(spec: dict, directory: Path) -> list[list]:
    pools = [
        (csvio.read_csv(directory / stage["pool"]).traces, stage["traces"])
        for stage in spec["stages"]
    ]
    feeds = []
    for feed_seed in spec["feed_seeds"]:
        rng = random.Random(feed_seed)
        feeds.append(
            [trace for pool, count in pools for trace in rng.sample(pool, count)]
        )
    return feeds


def _stream_signature(engine) -> tuple:
    mapping = engine.mapping
    return (
        tuple(sorted(mapping.as_dict().items())) if mapping is not None else (),
        tuple(
            (u.num_traces, u.rematched, u.reason, u.score, u.method)
            for u in engine.history
        ),
    )


def run_stream(spec: dict, directory: Path, seconds: float, traced: bool,
               env: dict, tally: Tally) -> dict:
    reference_path = str(directory / spec["reference"])
    setup = cold_starts(
        STREAM_COLD_START, [reference_path, *spec["patterns"]], env, tally
    )
    reference = csvio.read_csv(reference_path)
    patterns = [parse_pattern(text) for text in spec["patterns"]]
    feeds = _feeds(spec, directory)
    batch = spec["batch"]
    batches = len(feeds[0]) // batch
    first: dict[int, tuple] = {}
    quality: dict[int, float] = {}
    #: The benchmark's own timing of untraced ``update()`` calls.
    holds: list[float] = []
    rematches: list[float] = []
    rematch_counts: list[int] = []

    def operation(index: int):
        """One session: stream a feed in batches, ``update()`` after each."""
        live = StreamingLog(name="live")
        engine = OnlineMatcher(reference, live, patterns=patterns, **spec["engine"])
        updates = []
        for start in range(0, len(feeds[index]), batch):
            for trace in feeds[index][start:start + batch]:
                live.append_trace(trace)
            started = time.perf_counter()
            record = engine.update()
            updates.append((record.rematched, time.perf_counter() - started))
        return engine, updates

    def check(index: int, value, traced_run: bool) -> None:
        engine, updates = value
        sig = _stream_signature(engine)
        if index not in first:
            first[index] = sig
            mapping = engine.mapping.as_dict() if engine.mapping else {}
            quality[index] = evaluate_mapping(mapping, spec["truth"]).f_measure
            tally.check(engine.mapping is not None,
                        f"feed {index}: no mapping after the stream")
        else:
            tally.check(sig == first[index],
                        f"feed {index}: replay differs from its first run")
        if not traced_run:
            holds.extend(t for rematched, t in updates if not rematched)
            rematches.extend(t for rematched, t in updates if rematched)
            rematch_counts.append(sum(rematched for rematched, _ in updates))

    warm_up(operation, check)
    for series in (holds, rematches, rematch_counts):
        series.clear()
    measured = measure(len(feeds), seconds, operation, check, tally,
                       lambda index: f"feed {index}", traced)
    # One operation is one batch, appended and then update(): a sample
    # is a session's time spread over its batches.
    measured.samples = {
        index: [session / batches for session in times]
        for index, times in measured.samples.items()
    }
    outcome = outcome_of(measured, setup, [len(feed) for feed in feeds],
                         quality, spec["workload"], ops_per_span=batches)
    if traced:
        rec = measured.recorder
        outcome["layers"].update(
            {
                "stream.append_s": per_op(
                    rec.total("stream.append_trace"), rec.calls(ROOT) * batches),
                "stream.hold_s_p50": median_or_zero(holds),
                "stream.rematch_s_p50": median_or_zero(rematches),
                "stream.rematches": statistics.fmean(rematch_counts),
                "stream.snapshot_s": per_op(
                    rec.total("stream.snapshot"), rec.calls("stream.snapshot")),
            }
        )
    return outcome
