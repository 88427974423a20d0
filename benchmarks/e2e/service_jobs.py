"""Child-process runner for ``service-jobs``: a live daemon driven over HTTP.

The benchmark starts ``python -m repro.cli serve STATE --port 0
--workers 2`` with its default tick, telemetry and retry settings,
registers four logs over ``POST /logs/{name}``, and runs two client
threads in a closed loop: each submits a job (alternating an exact
``pattern-tight`` job on a 7-event pair and a ``heuristic-advanced``
job on a 20-event pair), then polls ``GET /jobs/{id}`` every 10 ms
until it is done.  Latency is submit → ``done`` observed.

Per-layer times come from outside: the client's own request timings,
the daemon's merged ``GET /jobs/{id}/trace`` document (the daemon's
``job.attempt`` span against the worker's ``job.execute`` and
``match.run`` spans) and the ``/healthz`` counters.
"""

from __future__ import annotations

import http.client
import json
import os
import re
import shutil
import statistics
import subprocess
import sys
import threading
import time
from contextlib import nullcontext
from pathlib import Path

import repro
from repro import parse_pattern
from repro.evaluation.metrics import evaluate_mapping
from repro.log import csvio

from spans import Recorder
from summary import Tally, median_or_zero, per_op, pooled_latency

#: Client threads; each keeps one HTTP connection.
CLIENTS = 2
POLL_INTERVAL = 0.010
#: Daemons started to measure set-up time (median reported); the last
#: one serves the timed phase.
SETUP_REPEATS = 3
START_TIMEOUT = 60.0
JOB_TIMEOUT = 60.0
_ADDRESS = re.compile(r"serving on http://([\d.]+):(\d+)")


class Daemon:
    """One ``repro serve`` subprocess, logging to ``STATE/daemon.log``."""

    def __init__(self, state_dir: Path, env: dict):
        self.state_dir = state_dir
        self.env = env
        self.process: subprocess.Popen | None = None
        self.host = "127.0.0.1"
        self.port = 0

    def start(self) -> None:
        self.state_dir.mkdir(parents=True, exist_ok=True)
        log_path = self.state_dir / "daemon.log"
        with open(log_path, "w") as log:
            self.process = subprocess.Popen(
                [sys.executable, "-m", "repro.cli", "serve", str(self.state_dir),
                 "--port", "0", "--workers", "2"],
                env=self.env, stdout=subprocess.DEVNULL, stderr=log,
            )
        deadline = time.monotonic() + START_TIMEOUT
        while time.monotonic() < deadline:
            found = _ADDRESS.search(log_path.read_text(errors="replace"))
            if found:
                self.host, self.port = found.group(1), int(found.group(2))
                return
            if self.process.poll() is not None:
                break
            time.sleep(0.005)
        raise RuntimeError(
            f"daemon did not start: {log_path.read_text(errors='replace')[-500:]}"
        )

    def connect(self) -> http.client.HTTPConnection:
        return http.client.HTTPConnection(self.host, self.port, timeout=30)

    def peak_rss_mb(self) -> float:
        """Peak RSS (VmHWM) of the daemon plus its worker processes."""
        if self.process is None:
            return 0.0
        total_kb = 0
        for pid in [self.process.pid, *_children(self.process.pid)]:
            try:
                status = Path(f"/proc/{pid}/status").read_text()
            except OSError:
                continue
            found = re.search(r"VmHWM:\s+(\d+)\s+kB", status)
            if found:
                total_kb += int(found.group(1))
        return total_kb / 1024.0

    def stop(self) -> None:
        """``POST /shutdown``, then wait; escalate to signals if stuck.

        Workers orphaned by a killed daemon stay in the benchmark's
        process group, which the parent process ends after the run.
        """
        process = self.process
        if process is None or process.poll() is not None:
            return
        try:
            connection = self.connect()
            request(connection, "POST", "/shutdown")
            connection.close()
        except (OSError, http.client.HTTPException):
            pass
        for escalate in (None, process.terminate, process.kill):
            if escalate is not None:
                escalate()
            try:
                process.wait(timeout=30 if escalate is None else 10)
                return
            except subprocess.TimeoutExpired:
                continue


def _children(pid: int) -> list[int]:
    found = []
    for task in Path(f"/proc/{pid}/task").glob("*"):
        try:
            found.extend(int(x) for x in (task / "children").read_text().split())
        except OSError:
            continue
    return found


def request(connection, method: str, path: str, body=None,
            content_type: str = "application/json"):
    """One request; returns ``(status, decoded JSON or None, seconds)``."""
    started = time.perf_counter()
    headers = {"Content-Type": content_type} if body is not None else {}
    if isinstance(body, (dict, list)):
        body = json.dumps(body)
    connection.request(method, path, body=body, headers=headers)
    response = connection.getresponse()
    data = response.read()
    elapsed = time.perf_counter() - started
    try:
        payload = json.loads(data) if data else None
    except json.JSONDecodeError:
        payload = None
    return response.status, payload, elapsed


class _Kind:
    """One job recipe plus its in-process reference answer."""

    def __init__(self, entry: dict, directory: Path):
        self.label = entry["label"]
        self.paths = (directory / entry["log_1"], directory / entry["log_2"])
        self.names = (f"{self.label}-1", f"{self.label}-2")
        self.method = entry["method"]
        self.patterns = entry["patterns"]
        self.truth = entry["truth"]
        self.traces = sum(entry["traces"])
        result = repro.match(
            csvio.read_csv(self.paths[0]), csvio.read_csv(self.paths[1]),
            patterns=[parse_pattern(text) for text in self.patterns],
            method=self.method,
        )
        self.mapping = {
            str(k): str(v) for k, v in sorted(result.mapping.as_dict().items())
        }
        self.score = result.score
        self.f_measure = evaluate_mapping(self.mapping, self.truth).f_measure

    def payload(self) -> dict:
        return {"log_1": self.names[0], "log_2": self.names[1],
                "patterns": self.patterns, "method": self.method}


class _Job:
    __slots__ = ("kind", "client", "job_id", "latency", "submit_s", "polls",
                 "poll_s", "stats", "trace", "done_at")

    def __init__(self, kind: _Kind, client: int):
        self.kind = kind
        self.client = client
        self.job_id = None
        self.latency = 0.0
        self.submit_s = 0.0
        self.polls = 0
        self.poll_s: list[float] = []
        self.stats: dict = {}
        self.trace: dict | None = None
        self.done_at = 0.0


def run_job(connection, kind: _Kind, client: int, tally: Tally,
            recorder: Recorder | None = None, fetch_trace: bool = False):
    """Submit one job and poll it to completion; ``None`` on failure.

    With a ``recorder``, the job and each of its requests are spans.
    """
    def span(name: str):
        return recorder.span(name) if recorder is not None else nullcontext()

    def call(name: str, method: str, path: str, body=None):
        with span(name):
            return request(connection, method, path, body)

    job = _Job(kind, client)
    started = time.perf_counter()
    with span("bench.job"):
        status, body, job.submit_s = call(
            "service.http_submit", "POST", "/jobs", kind.payload())
        if status != 202 or not body:
            tally.fail(f"POST /jobs -> {status}: {str(body)[:200]}")
            return None
        job.job_id = body["job_id"]
        deadline = started + JOB_TIMEOUT
        while True:
            time.sleep(POLL_INTERVAL)
            status, body, elapsed = call(
                "service.http_poll", "GET", f"/jobs/{job.job_id}")
            job.polls += 1
            job.poll_s.append(elapsed)
            if status != 200 or not body:
                tally.fail(f"GET /jobs/{job.job_id} -> {status}")
                return None
            if body["state"] in ("done", "failed"):
                break
            if time.perf_counter() > deadline:
                tally.fail(f"{job.job_id} not done within {JOB_TIMEOUT} s")
                return None
        job.done_at = time.perf_counter()
        job.latency = job.done_at - started
    if body["state"] != "done":
        tally.fail(f"{job.job_id} failed: {str(body.get('error'))[:200]}")
        return None
    result = body["result"] or {}
    if not tally.check(
        result.get("mapping") == kind.mapping and result.get("score") == kind.score,
        f"{job.job_id} ({kind.label}): served mapping/score differs from "
        f"in-process match()",
    ):
        return None
    job.stats = result.get("stats") or {}
    if fetch_trace:
        status, job.trace, _ = call(
            "service.http_trace", "GET", f"/jobs/{job.job_id}/trace")
        tally.check(status == 200, f"GET /jobs/{job.job_id}/trace -> {status}")
    return job


def _setup(state_dir: Path, env: dict, kinds: list[_Kind], tally: Tally):
    """Spawn → /healthz → logs registered → one warm job of each kind."""
    started = time.perf_counter()
    daemon = Daemon(state_dir, env)
    try:
        daemon.start()
        connection = daemon.connect()
        while True:
            try:
                status, _, _ = request(connection, "GET", "/healthz")
                if status == 200:
                    break
            except (OSError, http.client.HTTPException):
                connection.close()
                connection = daemon.connect()
            if time.perf_counter() - started > START_TIMEOUT:
                raise RuntimeError("daemon never answered /healthz")
            time.sleep(0.005)
        for kind in kinds:
            for name, path in zip(kind.names, kind.paths):
                status, body, _ = request(
                    connection, "POST", f"/logs/{name}",
                    Path(path).read_text(), content_type="text/csv")
                if not tally.check(status == 201,
                                   f"POST /logs/{name} -> {status}: {body}"):
                    raise RuntimeError(f"log registration failed: {body}")
        connection.close()
        # A zero-length closed loop: each client runs exactly one job,
        # client i starting with kind i, so every kind runs once.
        warm, _, _ = _closed_loop(daemon, kinds, 0.0, tally, started, False)
        if len(warm) != len(kinds):
            raise RuntimeError("warm-up jobs did not complete")
    except BaseException:
        daemon.stop()
        raise
    return daemon, time.perf_counter() - started


def _closed_loop(daemon: Daemon, kinds: list[_Kind], seconds: float,
                 tally: Tally, epoch: float, traced: bool):
    """``CLIENTS`` threads submitting jobs until ``seconds`` pass.

    Every client runs at least one job.  Each thread owns its
    connection, recorder, tally and job list; they are merged once the
    threads have ended.
    """
    jobs: list[list[_Job]] = [[] for _ in range(CLIENTS)]
    recorders = [Recorder(tid=client + 1, epoch=epoch) for client in range(CLIENTS)]
    tallies = [Tally() for _ in range(CLIENTS)]
    deadline = time.perf_counter() + seconds

    def client(index: int) -> None:
        connection = daemon.connect()
        try:
            turn = index
            while True:
                kind = kinds[turn % len(kinds)]
                turn += 1
                job = run_job(connection, kind, index, tallies[index],
                              recorders[index] if traced else None,
                              fetch_trace=traced)
                if job is not None:
                    jobs[index].append(job)
                if time.perf_counter() >= deadline:
                    break
        except Exception as error:  # noqa: BLE001 — counted as a failure
            tallies[index].fail(f"client thread: {type(error).__name__}: {error}")
        finally:
            connection.close()

    started = time.perf_counter()
    threads = [threading.Thread(target=client, args=(i,), daemon=True)
               for i in range(CLIENTS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(seconds + JOB_TIMEOUT + 30)
    elapsed = time.perf_counter() - started
    for thread, client_tally in zip(threads, tallies):
        tally.merge(client_tally)
        tally.check(not thread.is_alive(), "client thread did not finish")
    merged = recorders[0]
    for other in recorders[1:]:
        merged.merge(other)
    return [job for client_jobs in jobs for job in client_jobs], elapsed, merged


def _latencies(jobs: list[_Job]) -> dict[str, list[float]]:
    samples: dict[str, list[float]] = {}
    for job in jobs:
        samples.setdefault(job.kind.label, []).append(job.latency)
    return samples


def _events(trace: dict, name: str) -> list[dict]:
    return [e for e in trace.get("traceEvents", ())
            if e.get("ph") == "X" and e.get("name") == name]


def decompose(job: _Job) -> dict | None:
    """Split one job's latency along its merged trace.

    ``dispatch_wait`` runs from submit to the worker starting the last
    attempt (queue wait for the scheduler tick plus the pool hand-off,
    plus the final poll's lag); ``worker`` is the attempt's execution,
    of which ``task_rebuild`` is everything outside ``match.run`` (log
    parsing and set-up); ``harvest_wait`` runs from the worker finishing
    to the daemon harvesting the result on a later tick.
    """
    if not job.trace:
        return None
    attempts = _events(job.trace, "job.attempt")
    executes = _events(job.trace, "job.execute")
    matches = _events(job.trace, "match.run")
    if not (attempts and executes and matches):
        return None
    attempt, execute, matched = attempts[-1], executes[-1], matches[-1]
    attempt_end = (attempt["ts"] + attempt["dur"]) / 1e6
    execute_start = execute["ts"] / 1e6
    execute_end = (execute["ts"] + execute["dur"]) / 1e6
    return {
        "dispatch_wait": job.latency - (attempt_end - execute_start),
        "worker": execute["dur"] / 1e6,
        "task_rebuild": (execute["dur"] - matched["dur"]) / 1e6,
        "harvest_wait": attempt_end - execute_end,
        "trace_share": (attempt["dur"] / 1e6) / job.latency,
    }


def _aligned_events(jobs: list[_Job], epoch: float) -> list[dict]:
    """Each job's daemon/worker events on the client's timeline.

    The daemon's clock origin is not in the document, so each job's
    events are shifted to end its ``job.attempt`` span where the client
    saw the job done (at most one poll cycle late).  Daemon spans move
    to one lane per client so concurrent attempts do not overlap on a
    lane.
    """
    events: list[dict] = []
    seen_meta = set()
    for job in jobs:
        attempts = _events(job.trace or {}, "job.attempt")
        if not attempts:
            continue
        attempt = attempts[-1]
        shift = (job.done_at - epoch) * 1e6 - (attempt["ts"] + attempt["dur"])
        for event in job.trace["traceEvents"]:
            if event.get("ph") == "M":
                key = (event.get("pid"), event.get("tid"), event.get("name"))
                if key not in seen_meta:
                    seen_meta.add(key)
                    events.append(event)
                continue
            moved = dict(event, ts=round(event["ts"] + shift, 3))
            if event.get("cat") == "daemon":
                moved["tid"] = 100 + job.client
            events.append(moved)
    return events


def run_service(spec: dict, directory: Path, seconds: float, traced: bool,
                env: dict, tally: Tally, out: Path) -> dict:
    kinds = [_Kind(entry, directory) for entry in spec["tasks"]]
    state_root = out / "state" / f"service-{os.getpid()}"
    setup_samples = []
    daemon = None
    try:
        for attempt in range(SETUP_REPEATS):
            if daemon is not None:
                daemon.stop()
            daemon, elapsed = _setup(state_root / f"d{attempt}", env, kinds, tally)
            tally.ok()
            setup_samples.append(elapsed)
        epoch = time.perf_counter()
        outcome: dict = {"setup_samples": setup_samples}
        if not traced:
            jobs, elapsed, _ = _closed_loop(daemon, kinds, seconds, tally, epoch, False)
            if not jobs:
                raise RuntimeError("no job completed in the timed phase")
            outcome["samples"] = _latencies(jobs)
            outcome["metrics"] = {
                "latency_s": pooled_latency(outcome["samples"]),
                "traces_per_s": sum(job.kind.traces for job in jobs) / elapsed,
                "peak_rss_mb": daemon.peak_rss_mb(),
            }
        else:
            plain, _, _ = _closed_loop(daemon, kinds, seconds / 2, tally, epoch, False)
            jobs, _, recorder = _closed_loop(
                daemon, kinds, seconds / 2, tally, epoch, True)
            if not (plain and jobs):
                raise RuntimeError("no job completed in a timed phase")
            outcome["samples"] = _latencies(jobs)
            connection = daemon.connect()
            status, health, _ = request(connection, "GET", "/healthz")
            connection.close()
            tally.check(status == 200, f"GET /healthz -> {status}")
            outcome.update(_service_layers(jobs, plain, kinds, health or {}))
            outcome["recorder"] = recorder
            outcome["extra_events"] = _aligned_events(jobs, epoch)
        return outcome
    finally:
        if daemon is not None:
            daemon.stop()
        shutil.rmtree(state_root, ignore_errors=True)


def _service_layers(jobs, plain, kinds, health: dict) -> dict:
    parts = [p for p in (decompose(job) for job in jobs) if p is not None]

    def p50(key: str) -> float:
        return median_or_zero(part[key] for part in parts)

    supervision = health.get("supervision", {})
    telemetry = health.get("telemetry", {})
    traced_latency = pooled_latency(_latencies(jobs))
    layers = {
        "service.http_submit_s_p50": median_or_zero(j.submit_s for j in jobs),
        "service.http_poll_s_p50": median_or_zero(
            s for j in jobs for s in j.poll_s),
        "service.dispatch_wait_s_p50": p50("dispatch_wait"),
        "service.worker_s_p50": p50("worker"),
        "service.task_rebuild_s_p50": p50("task_rebuild"),
        "service.harvest_wait_s_p50": p50("harvest_wait"),
        "service.polls_per_job": statistics.fmean(j.polls for j in jobs),
        "service.retries": supervision.get("jobs_retried", 0),
        "service.pool_respawns": supervision.get("workers_respawned", 0),
        "obs.telemetry.spans_merged_per_job": per_op(
            telemetry.get("spans_merged", 0), telemetry.get("traces_written", 0)),
        "core.stats.processed_mappings": statistics.fmean(
            j.stats.get("processed_mappings", 0) for j in jobs),
        "core.astar.expanded_nodes": statistics.fmean(
            j.stats.get("expanded_nodes", 0) for j in jobs),
        "evaluation.f_measure": statistics.fmean(k.f_measure for k in kinds),
        "bench.self_time_coverage": p50("trace_share"),
        "bench.trace_overhead_ratio": (
            traced_latency / pooled_latency(_latencies(plain)) - 1.0
        ),
    }
    components = {
        "scheduler dispatch wait": layers["service.dispatch_wait_s_p50"],
        "worker task rebuild": layers["service.task_rebuild_s_p50"],
        "worker matching": p50("worker") - p50("task_rebuild"),
        "scheduler harvest wait": layers["service.harvest_wait_s_p50"],
    }
    latency = median_or_zero(j.latency for j in jobs)
    lines = [f"service-jobs latency decomposition (medians over {len(parts)} "
             f"traced jobs, job latency p50 {latency:.3f} s)"]
    for name, value in sorted(components.items(), key=lambda kv: -kv[1]):
        share = value / latency if latency else 0.0
        lines.append(f"  {name:<26} {value:8.4f} s {share:7.1%}")
    top = max(components, key=components.get)
    lines.append(f"dominant layer: {top} "
                 f"({components[top] / latency if latency else 0.0:.1%} of job latency)")
    return {"layers": layers, "report": "\n".join(lines)}
