"""Command-line interface.

Five subcommands cover the library's workflow on files (CSV or XES logs,
detected by extension):

* ``repro characterize LOG ...`` — Table-3-style statistics of logs;
* ``repro match LOG1 LOG2`` — match two logs, print the mapping (and
  optionally save it as JSON / explain it pattern by pattern);
* ``repro stream LOG1 FEED`` — replay ``FEED`` as a live stream against
  the frozen reference ``LOG1``: traces are ingested case by case, state
  is maintained incrementally, and re-matching only fires on drift;
* ``repro discover LOG`` — mine discriminative SEQ/AND patterns;
* ``repro graph LOG`` — export a log's dependency graph as DOT;
* ``repro serve STATE_DIR`` — run the matching daemon: watched drop
  directory, job queue over worker processes, HTTP API (see
  :mod:`repro.service`);
* ``repro info`` — version, kernel availability, probe hook points.

``match`` and ``stream`` take observability flags: ``--trace FILE``
(span trace; ``.jsonl`` or Perfetto-loadable Chrome JSON), ``--metrics
FILE`` (``.json`` snapshot or Prometheus text) and ``--heartbeat S``
(progress lines on stderr).

Examples::

    python -m repro.cli match dept1.xes dept2.csv \\
        --pattern "SEQ(Receive_Order, AND(Payment, Check_Inventory))" \\
        --method heuristic-advanced --explain
    python -m repro.cli stream dept1.xes live_feed.csv \\
        --batch-size 100 --drift-threshold 0.05
    python -m repro.cli discover dept1.xes --min-support 0.3
"""

from __future__ import annotations

import argparse
import platform
import sys
from pathlib import Path

from repro import __version__
from repro.core.matcher import METHODS, EventMatcher
from repro.evaluation.explain import explain_mapping, format_explanation
from repro.evaluation.reporting import (
    format_observability_report,
    format_stream_report,
)
from repro.obs import (
    NULL_PROBE,
    MetricsRegistry,
    ObservabilityProbe,
    Probe,
    ProgressReporter,
    Tracer,
)
from repro.graph.dependency import dependency_graph
from repro.graph.dot import to_dot
from repro.log.csvio import read_csv
from repro.log.eventlog import EventLog
from repro.log.statistics import characterize
from repro.log.xes import read_xes
from repro.patterns.discovery import discover_patterns
from repro.patterns.matching import pattern_frequency
from repro.patterns.parser import parse_pattern
from repro.resilience.checkpoint import load_checkpoint, save_checkpoint
from repro.resilience.quarantine import QuarantineStore
from repro.resilience.validation import TraceValidator
from repro.stream.engine import OnlineMatcher
from repro.stream.ingest import StreamingLog


def load_log(path: str) -> EventLog:
    """Read a log file; the format follows the extension (.xes / .csv)."""
    file_path = Path(path)
    if not file_path.exists():
        raise SystemExit(f"error: no such file: {path}")
    if file_path.suffix.lower() == ".xes":
        return read_xes(file_path, name=file_path.stem)
    if file_path.suffix.lower() == ".csv":
        return read_csv(file_path, name=file_path.stem)
    raise SystemExit(
        f"error: unsupported log format {file_path.suffix!r} "
        "(expected .xes or .csv)"
    )


def _add_observability_options(parser: argparse.ArgumentParser) -> None:
    group = parser.add_argument_group("observability")
    group.add_argument(
        "--trace", metavar="FILE",
        help="write the span trace to FILE: .jsonl gets JSON Lines, any "
        "other extension Chrome trace_event JSON (open in Perfetto / "
        "chrome://tracing)",
    )
    group.add_argument(
        "--metrics", metavar="FILE",
        help="write run metrics to FILE: .json gets a JSON snapshot, any "
        "other extension Prometheus text exposition",
    )
    group.add_argument(
        "--heartbeat", type=float, default=None, metavar="SECONDS",
        help="print a progress line (expansions/sec, incumbent, gap) to "
        "stderr every SECONDS during long searches",
    )


def _build_probe(args: argparse.Namespace):
    """``(probe, finalize)`` from the observability flags.

    Returns the shared null probe (and a no-op finalizer) when no flag
    was given, so unobserved runs stay on the free path.  ``finalize``
    writes the requested files, choosing the format by extension.
    """
    if not (args.trace or args.metrics or args.heartbeat):
        return NULL_PROBE, lambda: None
    tracer = Tracer() if args.trace else None
    reporter = (
        ProgressReporter(interval=args.heartbeat) if args.heartbeat else None
    )
    probe = ObservabilityProbe(
        tracer=tracer, metrics=MetricsRegistry(), reporter=reporter
    )

    def finalize() -> None:
        if args.trace:
            path = Path(args.trace)
            if path.suffix == ".jsonl":
                tracer.write_jsonl(path)
            else:
                tracer.write_chrome(path)
            print(f"# trace written to {path}", file=sys.stderr)
        if args.metrics:
            path = Path(args.metrics)
            if path.suffix == ".json":
                probe.metrics.write_json(path)
            else:
                probe.metrics.write_prometheus(path)
            print(f"# metrics written to {path}", file=sys.stderr)

    return probe, finalize


def _cmd_characterize(args: argparse.Namespace) -> int:
    header = (
        f"{'log':<24} {'# traces':>9} {'# events':>9} {'# edges':>8}"
    )
    print(header)
    print("-" * len(header))
    for path in args.logs:
        log = load_log(path)
        row = characterize(log)
        print(
            f"{row.name:<24} {row.num_traces:>9} {row.num_events:>9} "
            f"{row.num_edges:>8}"
        )
    return 0


def _blocking_from_args(args: argparse.Namespace) -> dict | None:
    """The ``blocking`` option assembled from the CLI knobs (or ``None``)."""
    if not args.blocking:
        return None
    return {
        "frequency_gap": args.blocking_gap,
        "signal_bands": args.blocking_bands,
        "exact_cutoff": args.blocking_exact_cutoff,
        "auto_accept": not args.no_blocking_auto_accept,
    }


def _cmd_match(args: argparse.Namespace) -> int:
    log_1 = load_log(args.log1)
    log_2 = load_log(args.log2)
    patterns = [parse_pattern(text) for text in args.pattern]
    probe, finalize_obs = _build_probe(args)
    matcher = EventMatcher(log_1, log_2, patterns=patterns)
    result = matcher.run(
        args.method,
        node_budget=args.node_budget,
        time_budget=args.time_budget,
        strict=args.strict,
        degraded_fallback=args.degraded_fallback,
        probe=probe,
        workers=args.workers,
        blocking=_blocking_from_args(args),
    )
    degraded_text = (
        f" DEGRADED gap<={result.gap:.4f}" if result.degraded else ""
    )
    print(
        f"# method={result.method} score={result.score:.4f} "
        f"time={result.elapsed_seconds:.2f}s "
        f"processed={result.stats.processed_mappings}{degraded_text}"
    )
    for source, target in sorted(result.mapping.as_dict().items()):
        print(f"{source}\t{target}")
    if args.output:
        Path(args.output).write_text(result.mapping.to_json() + "\n")
        print(f"# mapping saved to {args.output}", file=sys.stderr)
    if args.explain:
        explanation = explain_mapping(
            log_1, log_2, result.mapping, patterns=patterns
        )
        print()
        print(format_explanation(explanation, limit=args.explain_limit))
    if probe.enabled:
        print(
            format_observability_report(
                stats=result.stats,
                registry=probe.metrics,
                label=f"match {result.method}",
            ),
            file=sys.stderr,
        )
    finalize_obs()
    return 0


def _cmd_stream(args: argparse.Namespace) -> int:
    if args.batch_size < 1:
        raise SystemExit("error: --batch-size must be at least 1")
    feed = load_log(args.feed)
    patterns = [parse_pattern(text) for text in args.pattern]
    probe, finalize_obs = _build_probe(args)

    if args.resume:
        # Everything but the feed comes out of the checkpoint: reference
        # log, patterns, engine configuration, committed backlog, open
        # cases, quarantine and mapping.
        engine = load_checkpoint(args.resume)
        stream = engine.stream
        if probe.enabled:
            # Probes are runtime state, not checkpoint state.
            engine.attach_probe(probe)
        print(
            f"# resumed from {args.resume}: {len(stream)} traces committed, "
            f"{len(stream.open_cases())} cases open",
            file=sys.stderr,
        )
    else:
        reference = load_log(args.log1)
        validator = TraceValidator() if args.validate else None
        quarantine = (
            QuarantineStore(capacity=args.quarantine_capacity)
            if args.validate
            else None
        )
        stream = StreamingLog(
            name=Path(args.feed).stem,
            validator=validator,
            quarantine=quarantine,
        )
        engine = OnlineMatcher(
            reference,
            stream,
            patterns=patterns,
            drift_threshold=args.drift_threshold,
            exact_cutoff=args.exact_cutoff,
            node_budget=args.node_budget,
            time_budget=args.time_budget,
            min_traces=args.min_traces,
            check_every=args.check_every,
            probe=probe,
            blocking=args.blocking or None,
        )

    # Replay the feed as live traffic: every event goes through the
    # per-case open/append/close lifecycle, and the engine re-evaluates
    # drift after each committed batch.
    pending = 0
    for trace in feed:
        case_id = trace.case_id if trace.case_id is not None else f"case-{pending}"
        for event in trace:
            stream.append_event(case_id, event)
        stream.close_trace(case_id)
        pending += 1
        if pending % args.batch_size == 0:
            engine.update()
    if pending % args.batch_size != 0 or not engine.history:
        engine.update()
    if args.checkpoint:
        save_checkpoint(engine, args.checkpoint)
        print(f"# checkpoint saved to {args.checkpoint}", file=sys.stderr)

    print(format_stream_report(engine.history))
    recovery = stream.recovery.merged_with(engine.deltas.recovery)
    if recovery.total() or stream.quarantine or probe.enabled:
        print()
        print(
            format_observability_report(
                recovery=recovery,
                quarantine=stream.quarantine,
                registry=probe.metrics if probe.enabled else None,
            )
        )
    rematches = sum(1 for update in engine.history if update.rematched)
    print(
        f"\n# {len(stream)} traces ingested, {len(engine.history)} updates, "
        f"{rematches} re-matches, final score={engine.current_score():.4f}"
    )
    mapping = engine.mapping
    if mapping is None:
        print("# no mapping (feed shorter than --min-traces?)", file=sys.stderr)
        finalize_obs()
        return 1
    for source, target in sorted(mapping.as_dict().items()):
        print(f"{source}\t{target}")
    if args.output:
        Path(args.output).write_text(mapping.to_json() + "\n")
        print(f"# mapping saved to {args.output}", file=sys.stderr)
    finalize_obs()
    return 0


def _cmd_discover(args: argparse.Namespace) -> int:
    log = load_log(args.log)
    patterns = discover_patterns(
        log,
        min_support=args.min_support,
        max_length=args.max_length,
        max_patterns=args.max_patterns,
    )
    if not patterns:
        print("no complex patterns found; lower --min-support?", file=sys.stderr)
        return 1
    for pattern in patterns:
        frequency = pattern_frequency(log, pattern)
        print(f"{pattern!r}\t{frequency:.3f}")
    return 0


def _cmd_graph(args: argparse.Namespace) -> int:
    log = load_log(args.log)
    graph = dependency_graph(log)
    print(to_dot(graph, name=log.name or "log", min_edge_weight=args.min_edge))
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    import logging
    import signal
    import threading

    from repro.obs.logs import LogRingBuffer, configure_logging, get_logger
    from repro.service.api import ServiceAPI
    from repro.service.daemon import MatchingService

    ring = LogRingBuffer(1024)
    configure_logging(
        json_path=args.log_json,
        ring=ring,
        level=getattr(logging, args.log_level.upper(), logging.INFO),
    )
    logger = get_logger("cli.serve")

    service = MatchingService(
        args.state_dir,
        processes=args.workers,
        settle_polls=args.settle_polls,
        checkpoint_every=args.checkpoint_every,
        max_retries=args.max_retries,
        job_deadline=args.job_deadline,
        queue_bound=args.queue_bound,
        telemetry=args.telemetry,
        profile=args.profile,
        log_ring=ring,
    )
    if args.resume:
        summary = service.resume()
        sessions = ", ".join(summary["sessions"]) or "none"
        logger.info(
            "resumed service state",
            extra={
                "logs": summary["logs"],
                "jobs_requeued": summary["jobs_requeued"],
                "sessions": sessions,
            },
        )
    api = ServiceAPI(service, host=args.host, port=args.port).start()

    def stop_on_interrupt():
        logger.info("interrupted; saving state")
        api.request_stop()

    def interrupt(signum, frame):
        # The first Ctrl-C stops the loop after its current tick; a second
        # one raises KeyboardInterrupt.  The stop runs on a helper thread
        # because the interrupted main thread may hold the events' locks.
        signal.signal(signal.SIGINT, signal.default_int_handler)
        threading.Thread(target=stop_on_interrupt, daemon=True).start()

    previous = signal.signal(signal.SIGINT, interrupt)
    # The address line stays on raw stderr: scripts (and the CI smoke
    # job) scrape it to learn the ephemeral port.
    print(
        f"# serving on {api.address} (state: {service.state_dir}, "
        f"workers: {args.workers or 'inline'})",
        file=sys.stderr,
    )
    logger.info(
        "service started",
        extra={
            "address": api.address,
            "workers": args.workers,
            "telemetry": args.telemetry,
            "profile": args.profile,
        },
    )
    try:
        service.serve(api.stopping, args.poll_interval)
    except KeyboardInterrupt:
        logger.info("interrupted again; saving state")
    finally:
        signal.signal(signal.SIGINT, previous)
        api.stop()
        abandoned = service.shutdown()
        if abandoned:
            logger.warning(
                "abandoned in-flight jobs after drain timeout "
                "(they re-queue on --resume)",
                extra={"jobs": ", ".join(abandoned)},
            )
        logger.info(
            "state saved", extra={"manifest": str(service.manifest_path)}
        )
    return 0


def _cmd_bench_report(args: argparse.Namespace) -> int:
    from repro.obs.benchtrend import run_report

    return run_report(
        root=args.root,
        gate=args.gate,
        threshold_pct=args.threshold,
        window=args.window,
        verbose=args.verbose,
    )


def _cmd_info(args: argparse.Namespace) -> int:
    print(f"repro {__version__}")
    print(f"python {platform.python_version()} ({platform.platform()})")
    try:
        from repro.kernel.automaton import OrderAutomaton  # noqa: F401
        from repro.kernel.frequency import FrequencyKernel  # noqa: F401

        kernel = (
            "available (interned ids, bitset postings, bigram tier, "
            "multi-order Aho-Corasick automata)"
        )
    except Exception as error:  # pragma: no cover - import breakage only
        kernel = f"unavailable ({error})"
    print(f"frequency kernel: {kernel}")
    print(f"methods: {', '.join(METHODS)}")
    hooks = sorted(
        name
        for name in vars(Probe)
        if name.startswith("on_") or name.startswith("record_")
    )
    print(f"probe hooks: {', '.join(hooks)}")
    print(
        "observability: --trace/--metrics/--heartbeat on `match` and "
        "`stream` (disabled by default; NULL probe on the hot paths)"
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Matching heterogeneous events with patterns "
        "(ICDE 2014 / TKDE 2017 reproduction).",
    )
    parser.add_argument(
        "--version", action="version", version=f"repro {__version__}"
    )
    commands = parser.add_subparsers(dest="command", required=True)

    characterize_parser = commands.add_parser(
        "characterize", help="print Table-3-style statistics of logs"
    )
    characterize_parser.add_argument("logs", nargs="+", metavar="LOG")
    characterize_parser.set_defaults(handler=_cmd_characterize)

    match_parser = commands.add_parser(
        "match", help="match the event vocabularies of two logs"
    )
    match_parser.add_argument("log1", metavar="LOG1")
    match_parser.add_argument("log2", metavar="LOG2")
    match_parser.add_argument(
        "--pattern", action="append", default=[], metavar="EXPR",
        help='complex pattern, e.g. "SEQ(A, AND(B, C), D)" (repeatable)',
    )
    match_parser.add_argument(
        "--method", choices=METHODS, default="pattern-tight"
    )
    match_parser.add_argument("--node-budget", type=int, default=None)
    match_parser.add_argument("--time-budget", type=float, default=None)
    match_parser.add_argument(
        "--workers", type=int, default=1, metavar="N",
        help="root-split the exact pattern-* search over N worker "
        "processes (1 = serial; budgets apply per chunk); --blocking "
        "runs search their blocks serially",
    )
    match_parser.add_argument(
        "--blocking", action="store_true",
        help="run the multi-signal blocking tier ahead of the exact "
        "pattern-* search: auto-accept unambiguous 1:1 blocks, search "
        "only inside ambiguous ones",
    )
    match_parser.add_argument(
        "--blocking-gap", type=float, default=0.05, metavar="G",
        help="frequency-gap clustering threshold of the blocking plan "
        "(larger = coarser blocks, safer under heterogeneity)",
    )
    match_parser.add_argument(
        "--blocking-bands", type=int, default=8, metavar="B",
        help="quantization bands of the secondary blocking signals",
    )
    match_parser.add_argument(
        "--blocking-exact-cutoff", type=int, default=None, metavar="K",
        help="escalated blocks with more than K sources run the advanced "
        "heuristic instead of exact A* (default: always exact)",
    )
    match_parser.add_argument(
        "--no-blocking-auto-accept", action="store_true",
        help="search 1:1 blocks too instead of accepting them outright",
    )
    match_parser.add_argument(
        "--strict", action="store_true",
        help="fail on budget exhaustion instead of returning the "
        "degraded anytime incumbent",
    )
    match_parser.add_argument(
        "--degraded-fallback", type=float, default=None, metavar="GAP",
        help="re-run the warm-started advanced heuristic when a degraded "
        "exact result's optimality gap exceeds GAP",
    )
    match_parser.add_argument(
        "--output", metavar="FILE", help="save the mapping as JSON"
    )
    match_parser.add_argument(
        "--explain", action="store_true",
        help="print the per-pattern contribution breakdown",
    )
    match_parser.add_argument("--explain-limit", type=int, default=None)
    _add_observability_options(match_parser)
    match_parser.set_defaults(handler=_cmd_match)

    stream_parser = commands.add_parser(
        "stream",
        help="replay FEED as a live stream against the reference LOG1, "
        "re-matching only on drift",
    )
    stream_parser.add_argument("log1", metavar="LOG1")
    stream_parser.add_argument("feed", metavar="FEED")
    stream_parser.add_argument(
        "--pattern", action="append", default=[], metavar="EXPR",
        help='complex pattern over LOG1, e.g. "SEQ(A, AND(B, C))" (repeatable)',
    )
    stream_parser.add_argument(
        "--batch-size", type=int, default=100,
        help="traces committed between drift evaluations",
    )
    stream_parser.add_argument(
        "--drift-threshold", type=float, default=0.05,
        help="relative score drift that triggers a re-match",
    )
    stream_parser.add_argument(
        "--exact-cutoff", type=int, default=6,
        help="use exact A* when both vocabularies are at most this large",
    )
    stream_parser.add_argument(
        "--min-traces", type=int, default=1,
        help="hold until this many traces are committed",
    )
    stream_parser.add_argument("--node-budget", type=int, default=200_000)
    stream_parser.add_argument("--time-budget", type=float, default=None)
    stream_parser.add_argument(
        "--blocking", action="store_true",
        help="run the multi-signal blocking tier ahead of exact "
        "re-matches (default knobs; ignored by heuristic re-matches)",
    )
    stream_parser.add_argument(
        "--validate", action="store_true",
        help="validate every trace before commit; rejects go to a "
        "bounded quarantine store instead of raising",
    )
    stream_parser.add_argument(
        "--quarantine-capacity", type=int, default=1024,
        help="quarantined payloads kept in memory (counting continues "
        "past the bound)",
    )
    stream_parser.add_argument(
        "--check-every", type=int, default=None, metavar="N",
        help="run cheap self-healing invariant checks on the delta "
        "state every N commits",
    )
    stream_parser.add_argument(
        "--checkpoint", metavar="FILE",
        help="save the engine state to FILE after the feed is replayed",
    )
    stream_parser.add_argument(
        "--resume", metavar="FILE",
        help="restore the engine from a checkpoint and replay FEED on "
        "top of it (LOG1 and --pattern/--drift options are taken from "
        "the checkpoint)",
    )
    stream_parser.add_argument(
        "--output", metavar="FILE", help="save the final mapping as JSON"
    )
    _add_observability_options(stream_parser)
    stream_parser.set_defaults(handler=_cmd_stream)

    discover_parser = commands.add_parser(
        "discover", help="mine discriminative SEQ/AND patterns from a log"
    )
    discover_parser.add_argument("log", metavar="LOG")
    discover_parser.add_argument("--min-support", type=float, default=0.3)
    discover_parser.add_argument("--max-length", type=int, default=5)
    discover_parser.add_argument("--max-patterns", type=int, default=10)
    discover_parser.set_defaults(handler=_cmd_discover)

    graph_parser = commands.add_parser(
        "graph", help="export a log's dependency graph as Graphviz DOT"
    )
    graph_parser.add_argument("log", metavar="LOG")
    graph_parser.add_argument(
        "--min-edge", type=float, default=0.0,
        help="hide edges below this frequency",
    )
    graph_parser.set_defaults(handler=_cmd_graph)

    serve_parser = commands.add_parser(
        "serve",
        help="run the matching daemon: watched drop directory, job "
        "queue, stdlib HTTP API",
    )
    serve_parser.add_argument(
        "state_dir", metavar="STATE_DIR",
        help="service state root (drop/, spool/, sessions/, manifest)",
    )
    serve_parser.add_argument("--host", default="127.0.0.1")
    serve_parser.add_argument(
        "--port", type=int, default=8181,
        help="HTTP port (0 binds an ephemeral port and prints it)",
    )
    serve_parser.add_argument(
        "--workers", type=int, default=0, metavar="N",
        help="worker processes for match jobs (0 runs jobs inline in "
        "the daemon loop)",
    )
    serve_parser.add_argument(
        "--settle-polls", type=int, default=1, metavar="N",
        help="polls a dropped file's size+mtime must hold still before "
        "it is ingested (0 ingests on first sight)",
    )
    serve_parser.add_argument(
        "--poll-interval", type=float, default=0.5, metavar="SECONDS",
        help="seconds between drop-directory polls, and the longest the "
        "daemon goes without re-checking retry backoffs, job deadlines "
        "and checkpoints (jobs dispatch on submit and are harvested on "
        "completion, without waiting for it)",
    )
    serve_parser.add_argument(
        "--checkpoint-every", type=float, default=30.0, metavar="SECONDS",
        help="seconds between periodic manifest + session checkpoints",
    )
    serve_parser.add_argument(
        "--resume", action="store_true",
        help="restore registry, jobs and sessions from STATE_DIR before "
        "serving (interrupted jobs re-queue)",
    )
    serve_parser.add_argument(
        "--max-retries", type=int, default=2, metavar="N",
        help="failed-attempt retries a job gets before it is poisoned "
        "into quarantine (0 fails jobs on first error)",
    )
    serve_parser.add_argument(
        "--job-deadline", type=float, default=None, metavar="SECONDS",
        help="default wall-clock budget per job attempt, enforced by "
        "the daemon (over-deadline workers are reclaimed; unset = none)",
    )
    serve_parser.add_argument(
        "--queue-bound", type=int, default=None, metavar="N",
        help="maximum queued+running jobs before POST /jobs returns "
        "429 with Retry-After (unset = unbounded)",
    )
    serve_parser.add_argument(
        "--trace", dest="telemetry", action=argparse.BooleanOptionalAction,
        default=True,
        help="cross-process telemetry: per-job span spools merged into "
        "Chrome traces at GET /jobs/ID/trace (--no-trace disables)",
    )
    serve_parser.add_argument(
        "--profile", action="store_true",
        help="sampling profiler: daemon-wide plus per-job-attempt "
        "speedscope profiles under STATE_DIR/telemetry/",
    )
    serve_parser.add_argument(
        "--log-json", default=None, metavar="PATH",
        help="append structured JSON log lines to PATH (stderr keeps "
        "the human-readable form either way)",
    )
    serve_parser.add_argument(
        "--log-level", default="info", metavar="LEVEL",
        help="log level for stderr/JSON/ring sinks (default: info)",
    )
    serve_parser.set_defaults(handler=_cmd_serve)

    bench_parser = commands.add_parser(
        "bench", help="benchmark trajectory tooling"
    )
    bench_commands = bench_parser.add_subparsers(
        dest="bench_command", required=True
    )
    report_parser = bench_commands.add_parser(
        "report",
        help="trend table over BENCH_*.json (latest vs trailing median)",
    )
    report_parser.add_argument(
        "--root", default=".", help="directory holding BENCH_*.json files"
    )
    report_parser.add_argument(
        "--gate", action="store_true",
        help="exit non-zero when a metric regresses past the threshold",
    )
    report_parser.add_argument(
        "--threshold", type=float, default=15.0, metavar="PCT",
        help="regression threshold in percent (default: 15)",
    )
    report_parser.add_argument(
        "--window", type=int, default=10, metavar="N",
        help="trailing same-params records used for the baseline median",
    )
    report_parser.add_argument(
        "--verbose", action="store_true",
        help="also show metrics with unknown better-direction",
    )
    report_parser.set_defaults(handler=_cmd_bench_report)

    info_parser = commands.add_parser(
        "info",
        help="print version, kernel availability and probe hook points",
    )
    info_parser.set_defaults(handler=_cmd_info)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.handler(args)


if __name__ == "__main__":
    raise SystemExit(main())
