"""Observability overhead — the disabled-probe contract.

The probe seam promises that a run without observability pays only a
single ``probe.enabled`` attribute check and branch per hook site.  This
benchmark keeps that promise honest with an *analytic* measurement that
is stable against wall-clock noise:

1. micro-benchmark the guard construct itself (a ``if probe.enabled:``
   loop against an empty loop) to get its per-execution cost in ns;
2. run a real exact search under a :class:`CountingProbe` — enabled, so
   every guard passes, but its hooks only count — to learn how many hook
   sites one search actually executes;
3. the disabled-probe overhead is then ``guard_ns × sites`` relative to
   the measured disabled-run time.

End-to-end disabled vs enabled timings are also recorded for context,
but the assertion uses the analytic number: two timed runs of the same
search can differ by more than 3% from allocator/cache noise alone,
while the guard cost and the site count are both deterministic.

The measured overhead must stay under :data:`OVERHEAD_TARGET_PCT`
(3%); the record lands in ``BENCH_obs_overhead.json``.

A second section prices the *enabled* telemetry pipeline: the same
match job executed through :func:`execute_match_job` with and without a
``telemetry`` payload (span spooling, metric deltas, chunked A* spans).
The enabled tax must stay under :data:`TELEMETRY_TAX_TARGET_PCT` (5%)
at quick/paper scale, and the disabled path must produce a result
identical to the telemetry run's (telemetry observes, never steers).
"""

import time

import pytest

from benchmarks.conftest import bench_scale, record_bench, save_report
from repro.datagen import generate_reallike
from repro.evaluation.harness import run_method
from repro.log.csvio import write_csv
from repro.obs.probe import NULL_PROBE, Probe
from repro.service.workers import execute_match_job

#: The contract: disabled probes may cost at most this share of search time.
OVERHEAD_TARGET_PCT = 3.0

#: Enabled telemetry (spooled spans + metric deltas) may cost at most
#: this share of a match job's wall time at quick/paper scale.
TELEMETRY_TAX_TARGET_PCT = 5.0

GUARD_ITERATIONS = 2_000_000


class CountingProbe(Probe):
    """Enabled probe whose hooks only count their invocations.

    Exercises the *enabled* control flow — every guard passes and every
    hook is called — without any tracer/metrics work, so ``calls`` is
    exactly the number of guarded hook executions the disabled run
    merely branches over.
    """

    enabled = True

    def __init__(self):
        self.calls = 0

    def span(self, name, **attributes):
        self.calls += 1
        return super().span(name, **attributes)

    def begin_span(self, name, **attributes):
        self.calls += 1
        return None

    def end_span(self, span, **attributes):
        self.calls += 1

    def on_expansion(self, expansions, frontier_size, incumbent, gap):
        self.calls += 1

    def on_incumbent(self, score, gap):
        self.calls += 1

    def on_heuristic_pass(self, sweep, score):
        self.calls += 1

    def on_frequency_eval(self, cache_hit):
        self.calls += 1

    def on_kernel_tier(self, tier):
        self.calls += 1

    def on_stream_commit(self, trace_id, num_events):
        self.calls += 1

    def on_stream_update(self, record):
        self.calls += 1

    def record_search_stats(self, stats):
        self.calls += 1

    def record_recovery_stats(self, recovery):
        self.calls += 1


def guard_cost_ns(iterations: int = GUARD_ITERATIONS) -> float:
    """Per-execution cost of the ``if probe.enabled:`` guard, in ns."""
    probe = NULL_PROBE
    hits = 0
    started = time.perf_counter()
    for _ in range(iterations):
        if probe.enabled:
            hits += 1
    guarded = time.perf_counter() - started
    assert hits == 0
    started = time.perf_counter()
    for _ in range(iterations):
        pass
    empty = time.perf_counter() - started
    return max(0.0, guarded - empty) / iterations * 1e9


@pytest.fixture(scope="module")
def obs_overhead(scale):
    if scale == "smoke":
        traces, size, budget = 150, 5, 50_000
    elif scale == "paper":
        traces, size, budget = 1500, 9, 2_000_000
    else:
        traces, size, budget = 500, 8, 600_000
    task = generate_reallike(num_traces=traces, seed=7).project_events(size)

    def search(probe):
        return run_method(
            task, "pattern-tight", node_budget=budget, probe=probe
        )

    # Warm caches (allowed orders, interner) out of the measurement.
    search(NULL_PROBE)
    disabled_s = min(
        _timed(lambda: search(NULL_PROBE)) for _ in range(3)
    )
    counting = CountingProbe()
    enabled_s = _timed(lambda: search(counting))
    guard_ns = guard_cost_ns()
    analytic_pct = guard_ns * counting.calls / max(disabled_s * 1e9, 1.0) * 100
    endtoend_pct = (enabled_s / max(disabled_s, 1e-9) - 1.0) * 100

    lines = [
        f"exact search: {size} events, {traces} traces",
        f"  disabled run (best of 3) : {disabled_s:8.4f}s",
        f"  counting-probe run       : {enabled_s:8.4f}s "
        f"({counting.calls} hook executions)",
        f"  guard construct cost     : {guard_ns:8.2f}ns per site",
        f"  analytic disabled overhead: {analytic_pct:7.4f}% "
        f"(target < {OVERHEAD_TARGET_PCT}%)",
        f"  end-to-end enabled delta : {endtoend_pct:7.2f}% (context only)",
    ]
    save_report("obs_overhead", "\n".join(lines))
    record_bench(
        "obs_overhead",
        {
            "scale": bench_scale(),
            "num_traces": traces,
            "num_events": size,
            "node_budget": budget,
            "guard_iterations": GUARD_ITERATIONS,
            "overhead_target_pct": OVERHEAD_TARGET_PCT,
        },
        {
            "disabled_s": round(disabled_s, 6),
            "counting_probe_s": round(enabled_s, 6),
            "hook_executions": counting.calls,
            "guard_cost_ns": round(guard_ns, 3),
            "analytic_overhead_pct": round(analytic_pct, 4),
            "endtoend_enabled_delta_pct": round(endtoend_pct, 3),
        },
    )
    return analytic_pct, counting.calls


def _timed(thunk) -> float:
    started = time.perf_counter()
    thunk()
    return time.perf_counter() - started


@pytest.fixture(scope="module")
def telemetry_tax(scale, tmp_path_factory):
    # Jobs must be long enough (hundreds of ms) that the per-job fixed
    # cost of a telemetry session (~0.3ms) cannot masquerade as tax.
    if scale == "smoke":
        traces, size, budget, repeats = 100, 5, 30_000, 3
    elif scale == "paper":
        traces, size, budget, repeats = 1200, 8, 1_000_000, 7
    else:
        traces, size, budget, repeats = 600, 8, 600_000, 5
    task = generate_reallike(num_traces=traces, seed=7).project_events(size)
    root = tmp_path_factory.mktemp("telemetry_tax")
    write_csv(task.log_1, root / "l1.csv")
    write_csv(task.log_2, root / "l2.csv")
    spool_dir = root / "spools"
    spool_dir.mkdir()
    payload = {
        "paths": (str(root / "l1.csv"), str(root / "l2.csv")),
        "patterns": [str(p) for p in task.patterns],
        "method": "pattern-tight",
        "node_budget": budget,
        "time_budget": None,
        "strict": False,
        "degraded_fallback": None,
        "deadline": None,
    }
    telemetry = {
        "spool_dir": str(spool_dir),
        "trace_id": "benchtax0000",
        "job_id": "bench-tax",
        "attempt": 1,
        "profile": False,
    }

    execute_match_job(dict(payload))  # warm caches out of the measurement
    enabled_payload = dict(payload, telemetry=telemetry)
    # Interleave off/on runs: consecutive same-config loops pick up
    # systematic drift (cache warmth, frequency scaling) that dwarfs
    # the effect being measured; pairing cancels it.
    disabled_s = enabled_s = float("inf")
    for _ in range(repeats):
        disabled_s = min(
            disabled_s, _timed(lambda: execute_match_job(dict(payload)))
        )
        enabled_s = min(
            enabled_s,
            _timed(lambda: execute_match_job(dict(enabled_payload))),
        )
    tax_pct = (enabled_s / max(disabled_s, 1e-9) - 1.0) * 100

    plain = execute_match_job(dict(payload))
    traced = execute_match_job(dict(enabled_payload))
    summary = traced.pop("telemetry")
    identical = (
        plain["mapping"] == traced["mapping"]
        and plain["score"] == traced["score"]
    )

    lines = [
        f"match job: {size} events, {traces} traces, best of {repeats}",
        f"  telemetry off : {disabled_s:8.4f}s",
        f"  telemetry on  : {enabled_s:8.4f}s "
        f"({summary['spans']} spans spooled)",
        f"  enabled tax   : {tax_pct:7.2f}% "
        f"(target < {TELEMETRY_TAX_TARGET_PCT}% at quick/paper)",
        f"  results equal : {identical}",
    ]
    save_report("obs_overhead_telemetry_tax", "\n".join(lines))
    record_bench(
        "obs_overhead",
        {
            "section": "telemetry_tax",
            "scale": bench_scale(),
            "num_traces": traces,
            "num_events": size,
            "node_budget": budget,
            "repeats": repeats,
        },
        {
            "telemetry_off_s": round(disabled_s, 6),
            "telemetry_on_s": round(enabled_s, 6),
            "telemetry_tax_pct": round(tax_pct, 3),
            "spans_spooled": summary["spans"],
            "results_identical": identical,
        },
    )
    return tax_pct, identical


def test_telemetry_results_unchanged(telemetry_tax):
    """Telemetry observes the search; it must never steer the result."""
    _, identical = telemetry_tax
    assert identical, "telemetry-enabled run changed the match result"


def test_telemetry_tax_under_target(scale, telemetry_tax):
    """Enabled span spooling + metric deltas cost < 5% of job wall time."""
    tax_pct, _ = telemetry_tax
    if scale == "smoke":
        # Sub-100ms jobs are all fixed cost; record without gating.
        return
    assert tax_pct < TELEMETRY_TAX_TARGET_PCT, (
        f"enabled telemetry tax {tax_pct:.2f}% exceeds "
        f"{TELEMETRY_TAX_TARGET_PCT}%"
    )


def test_disabled_probe_overhead_under_target(obs_overhead):
    """The no-overhead-when-disabled contract: analytic cost < 3%."""
    analytic_pct, calls = obs_overhead
    assert calls > 0, "counting probe saw no hook executions"
    assert analytic_pct < OVERHEAD_TARGET_PCT, (
        f"disabled-probe guard overhead {analytic_pct:.3f}% exceeds "
        f"{OVERHEAD_TARGET_PCT}%"
    )


def test_obs_overhead_benchmark(benchmark, obs_overhead):
    """Time the guard micro-benchmark itself (tracks guard-cost drift)."""
    benchmark(lambda: guard_cost_ns(200_000))
