"""Resilience overhead — what hardening the ingestion path costs.

The robustness layer must be cheap enough to leave on: this benchmark
replays the same real-like feed through three stream configurations and
compares ingestion throughput (including per-batch drift checks, the
realistic consumption pattern):

* **trusting** — the historical `StreamingLog` with no validation;
* **validated** — a :class:`~repro.resilience.validation.TraceValidator`
  and quarantine store in front of every commit;
* **validated + checks** — validation plus sampled self-healing
  invariant checks on the delta state (``check_every=25``).

The target (asserted at non-smoke scales) is that the fully hardened
configuration stays within 10% of trusting throughput.  A second section
reports what a chaos-perturbed feed (10% dirty) costs end to end,
including quarantine accounting.

A third section (PR 8) prices the *execution-plane* supervision: the
same batch of match jobs runs through the service daemon with the
supervision knobs at their minimum (no deadline, no retries, no queue
bound) and fully engaged (deadline + retries + bound).  On a no-fault
run both configurations execute identical recipes, so the measured gap
is pure policy bookkeeping — deadline stamping, attempt counting,
backoff-aware claims — and must stay under 5%.
"""

import time

import pytest

from benchmarks.conftest import bench_scale, record_bench, save_report
from repro.core.matcher import MatchOptions
from repro.core.scoring import build_pattern_set
from repro.datagen import generate_reallike
from repro.resilience.chaos import ChaosConfig, ChaosInjector
from repro.resilience.quarantine import QuarantineStore
from repro.resilience.validation import TraceValidator
from repro.service.daemon import MatchingService
from repro.stream.deltas import DeltaState
from repro.stream.ingest import StreamingLog

#: Hardened ingestion may cost at most this fraction over trusting.
OVERHEAD_TARGET = 0.10

#: Supervision (deadlines+retries+bound) may cost at most this fraction
#: over the no-knobs dispatch path on a fault-free run.
SUPERVISION_OVERHEAD_TARGET = 0.05

CHECK_EVERY = 25


def _ingest(feed, patterns, batch, validator=None, check_every=None):
    stream = StreamingLog(
        name="bench",
        validator=validator,
        quarantine=QuarantineStore() if validator is not None else None,
    )
    deltas = DeltaState(stream, patterns=patterns, check_every=check_every)
    started = time.perf_counter()
    for start in range(0, len(feed), batch):
        for trace in feed[start : start + batch]:
            stream.append_trace(trace)
        freqs = [deltas.frequency(p) for p in patterns]
    elapsed = time.perf_counter() - started
    return elapsed, freqs, stream, deltas


@pytest.fixture(scope="module")
def resilience_overhead(scale):
    if scale == "paper":
        num_traces = 10_000
    elif scale == "smoke":
        num_traces = 300
    else:
        num_traces = 2_000
    batch = 100
    task = generate_reallike(num_traces=num_traces, seed=13)
    feed = task.log_1.traces[:num_traces]
    patterns = build_pattern_set(task.log_1, task.patterns)

    # Warm-up pass so interning/automata compilation does not bias the
    # first measured configuration.
    _ingest(feed[: min(len(feed), 200)], patterns, batch)

    trusting_s, trusting_freqs, _, _ = _ingest(feed, patterns, batch)
    validated_s, validated_freqs, _, _ = _ingest(
        feed, patterns, batch, validator=TraceValidator()
    )
    hardened_s, hardened_freqs, _, hardened_deltas = _ingest(
        feed, patterns, batch,
        validator=TraceValidator(), check_every=CHECK_EVERY,
    )

    # Hardening must not change what a clean feed computes.
    assert validated_freqs == pytest.approx(trusting_freqs)
    assert hardened_freqs == pytest.approx(trusting_freqs)
    assert hardened_deltas.recovery.invariant_checks > 0
    assert hardened_deltas.recovery.cheap_check_failures == 0

    # --- chaos pass: 10% dirty feed through the hardened pipeline ------
    injector = ChaosInjector(ChaosConfig(
        drop_event_rate=0.03,
        corrupt_event_rate=0.04,
        reorder_event_rate=0.03,
        duplicate_trace_rate=0.02,
        seed=13,
    ))
    chaos_stream = StreamingLog(
        name="chaos", validator=TraceValidator(), quarantine=QuarantineStore()
    )
    chaos_deltas = DeltaState(
        chaos_stream, patterns=patterns, check_every=CHECK_EVERY
    )
    started = time.perf_counter()
    for case_id, events in injector.perturb(feed):
        for event in events:
            chaos_stream.append_event(case_id, event)
        chaos_stream.close_trace(case_id)
    chaos_s = time.perf_counter() - started
    chaos_deltas.verify()
    quarantined = chaos_stream.quarantine.total_seen

    overhead_validated = validated_s / trusting_s - 1.0
    overhead_hardened = hardened_s / trusting_s - 1.0
    lines = [
        f"ingestion of {len(feed)} traces in batches of {batch}, "
        f"drift check over {len(patterns)} patterns per batch:",
        f"  trusting             : {trusting_s:8.3f}s "
        f"({len(feed) / trusting_s:8.0f} traces/s)",
        f"  validated            : {validated_s:8.3f}s "
        f"({overhead_validated:+7.1%} overhead)",
        f"  validated + checks   : {hardened_s:8.3f}s "
        f"({overhead_hardened:+7.1%} overhead, "
        f"check_every={CHECK_EVERY}, "
        f"{hardened_deltas.recovery.invariant_checks} checks)",
        f"  overhead target      : <{OVERHEAD_TARGET:.0%}",
        "",
        f"chaos pass (10% dirty feed, seed {injector.config.seed}):",
        f"  ingested+verified    : {chaos_s:8.3f}s, "
        f"{len(chaos_stream)} committed, {quarantined} quarantined "
        f"({injector.actions.events_corrupted} corrupted events, "
        f"{injector.actions.traces_duplicated} duplicated traces)",
    ]
    save_report("resilience", "\n".join(lines))
    record_bench(
        "resilience",
        {
            "scale": bench_scale(),
            "num_traces": len(feed),
            "batch": batch,
            "overhead_target": OVERHEAD_TARGET,
            "check_every": CHECK_EVERY,
        },
        {
            "trusting_s": round(trusting_s, 6),
            "validated_s": round(validated_s, 6),
            "hardened_s": round(hardened_s, 6),
            "overhead_validated": round(overhead_validated, 4),
            "overhead_hardened": round(overhead_hardened, 4),
            "chaos_s": round(chaos_s, 6),
            "chaos_quarantined": quarantined,
        },
    )
    return overhead_hardened


def _run_job_batch(state_dir, task, patterns, num_jobs, **service_kwargs):
    """Push ``num_jobs`` identical match jobs through one inline daemon."""
    service = MatchingService(
        state_dir, processes=0, settle_polls=0, checkpoint_every=None,
        **service_kwargs,
    )
    service.registry.register("left", task.log_1)
    service.registry.register("right", task.log_2)
    started = time.perf_counter()
    jobs = [
        service.submit_job(
            "left", "right", patterns=patterns,
            options=MatchOptions("heuristic-simple"),
        )
        for _ in range(num_jobs)
    ]
    service.run_until_idle()
    elapsed = time.perf_counter() - started
    results = [service.jobs.get(job.job_id).result for job in jobs]
    assert all(result is not None for result in results)
    # Wall-clock stamps and telemetry (trace ids, worker pids, span
    # counts) differ run to run; everything else must not.
    comparable = [
        {
            k: v for k, v in result.items()
            if k not in ("elapsed_seconds", "telemetry")
        }
        for result in results
    ]
    return elapsed, comparable, service


@pytest.fixture(scope="module")
def supervision_overhead(scale, tmp_path_factory):
    if scale == "paper":
        num_jobs, num_traces = 60, 120
    elif scale == "smoke":
        num_jobs, num_traces = 6, 40
    else:
        num_jobs, num_traces = 25, 80
    task = generate_reallike(num_traces=num_traces, seed=13)
    patterns = tuple(str(p) for p in task.patterns)
    root = tmp_path_factory.mktemp("supervision-bench")

    # Warm-up: one small batch absorbs interning/parse warm-up cost.
    _run_job_batch(root / "warm", task, patterns, 2)

    bare_s, bare_results, _ = _run_job_batch(
        root / "bare", task, patterns, num_jobs, max_retries=0
    )
    supervised_s, supervised_results, supervised = _run_job_batch(
        root / "supervised", task, patterns, num_jobs,
        max_retries=2, job_deadline=300.0, queue_bound=num_jobs + 1,
    )

    # A fault-free supervised run changes nothing but bookkeeping.
    assert supervised_results == bare_results
    assert supervised.recovery.jobs_retried == 0
    assert supervised.recovery.jobs_poisoned == 0

    overhead = supervised_s / bare_s - 1.0
    lines = [
        f"supervised execution, {num_jobs} inline jobs over "
        f"{num_traces}-trace logs (no faults injected):",
        f"  no knobs             : {bare_s:8.3f}s "
        f"({num_jobs / bare_s:8.1f} jobs/s)",
        f"  deadline+retry+bound : {supervised_s:8.3f}s "
        f"({overhead:+7.1%} overhead)",
        f"  overhead target      : <{SUPERVISION_OVERHEAD_TARGET:.0%}",
    ]
    save_report("supervision", "\n".join(lines))
    record_bench(
        "supervision",
        {
            "scale": bench_scale(),
            "num_jobs": num_jobs,
            "num_traces": num_traces,
            "overhead_target": SUPERVISION_OVERHEAD_TARGET,
        },
        {
            "bare_s": round(bare_s, 6),
            "supervised_s": round(supervised_s, 6),
            "overhead_supervised": round(overhead, 4),
        },
    )
    return overhead


def test_supervision_overhead_benchmark(supervision_overhead):
    """The no-fault supervision tax must stay under its 5% target.

    Smoke scale only exercises the wiring — a handful of sub-second
    jobs cannot produce a stable ratio.
    """
    if bench_scale() != "smoke":
        assert supervision_overhead < SUPERVISION_OVERHEAD_TARGET


def test_resilience_overhead_benchmark(benchmark, resilience_overhead):
    """Time one hardened ingestion batch (validation + sampled checks)."""
    task = generate_reallike(num_traces=300, seed=13)
    patterns = build_pattern_set(task.log_1, task.patterns)

    def kernel():
        stream = StreamingLog(validator=TraceValidator())
        deltas = DeltaState(
            stream, patterns=patterns, check_every=CHECK_EVERY
        )
        for trace in task.log_1.traces:
            stream.append_trace(trace)
        return deltas.frequencies()

    benchmark(kernel)

    # The hardening-pays-its-way claim.  Smoke scale is too short for a
    # stable ratio; there only the wiring is exercised.
    if bench_scale() != "smoke":
        assert resilience_overhead < OVERHEAD_TARGET
