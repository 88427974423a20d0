"""Stdlib HTTP surface of the matching daemon.

Built on :class:`http.server.ThreadingHTTPServer` — the service has a
hard no-new-dependencies rule, and the workload (a handful of
operators/scripts polling JSON) is squarely what the stdlib server is
good for.  Handler threads only touch the thread-safe facades
(:class:`~repro.service.daemon.MatchingService` components all lock
internally); the scheduling work itself stays in the daemon loop.

Routes::

    GET  /healthz                      liveness + counters
    GET  /readyz                       readiness: 200 READY / 503 DEGRADED
    GET  /metrics                      Prometheus text exposition
    GET  /logs                         registered logs
    POST /logs/{name}                  register a log (CSV request body)
    GET  /quarantine                   dead-letter summary + recent records
    GET  /logs/tail?n=100              last n structured log lines (ring)
    GET  /jobs                         all jobs, oldest first
    POST /jobs                         submit {log_1, log_2, patterns?, ...}
    GET  /jobs/{id}                    one job, result inline when done
    GET  /jobs/{id}/trace              merged per-job Chrome trace JSON
    POST /jobs/{id}/rematch            re-queue the same recipe
    POST /debug/profile                sample the daemon {seconds}; speedscope
    GET  /sessions                     session names
    POST /sessions                     open {name, reference, patterns?, ...}
    GET  /sessions/{name}              status incl. current mapping
    POST /sessions/{name}/traces       feed {traces: [[event, ...], ...]}
    POST /sessions/{name}/checkpoint   checkpoint now
    POST /tick                         run one scheduling round now
    POST /shutdown                     save state and stop serving

Every response is JSON except ``/metrics`` (text).  Errors follow one
shape: ``{"error": "..."}`` with a 4xx/5xx status.

Every request carries a ``trace_id`` — the client's ``X-Trace-Id``
header when sane, freshly minted otherwise — bound into the structured
log context for the handler's duration, echoed back as a response
header, and stamped onto submitted jobs so one id follows the work
HTTP → queue → worker → merged trace.

Backpressure: ``POST /jobs`` against a queue at its ``--queue-bound``
returns ``429 Too Many Requests`` with a ``Retry-After`` header;
``GET /readyz`` serves ``503`` while the service is degraded (queue
saturated, worker pool rebuilding) so load balancers stop routing new
work without killing the process.
"""

from __future__ import annotations

import inspect
import io
import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from urllib.parse import parse_qs, urlparse

from repro.core.matcher import MatchOptions
from repro.log.csvio import read_csv
from repro.log.errors import LogReadError
from repro.obs.logs import bind, get_logger
from repro.obs.profiler import profile_for
from repro.obs.telemetry import new_trace_id, validate_trace_id
from repro.patterns.index import validate_patterns
from repro.patterns.parser import parse_pattern
from repro.service.daemon import MatchingService
from repro.service.jobs import DONE, FAILED, QueueFullError, UnknownJobError
from repro.service.registry import UnknownLogError
from repro.service.sessions import UnknownSessionError
from repro.stream.engine import OnlineMatcher

logger = get_logger("service.api")

_MAX_BODY = 64 * 1024 * 1024  # refuse absurd uploads before reading them

#: ``POST /sessions`` body keys besides ``name``, ``reference`` and
#: ``patterns``: the engine's configuration parameters and ``validate``.
_SESSION_OPTIONS = (
    set(inspect.signature(OnlineMatcher).parameters)
    - {"reference", "stream", "patterns", "probe"}
) | {"validate"}


class ServiceAPI:
    """Own the HTTP server for one :class:`MatchingService`.

    ``port=0`` binds an ephemeral port (tests, CI); read :attr:`port`
    after construction.  :meth:`start` serves from a daemon thread;
    :meth:`stop` shuts the listener down.  :meth:`request_stop` (what
    ``POST /shutdown`` calls) sets the ``stopping`` event and wakes the
    daemon loop, so :meth:`MatchingService.serve` returns at once.
    """

    def __init__(
        self, service: MatchingService, host: str = "127.0.0.1", port: int = 0
    ):
        self.service = service
        self.stopping = threading.Event()
        api = self

        class Handler(_ServiceHandler):
            pass

        Handler.api = api
        self._server = ThreadingHTTPServer((host, port), Handler)
        self._thread: threading.Thread | None = None

    @property
    def port(self) -> int:
        return self._server.server_address[1]

    @property
    def address(self) -> str:
        host, port = self._server.server_address[:2]
        return f"http://{host}:{port}"

    def start(self) -> "ServiceAPI":
        self._thread = threading.Thread(
            target=self._server.serve_forever,
            kwargs={"poll_interval": 0.1},
            daemon=True,
        )
        self._thread.start()
        return self

    def request_stop(self) -> None:
        self.stopping.set()
        self.service.wakeup.set()

    def stop(self) -> None:
        self._server.shutdown()
        self._server.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5)


class _ServiceHandler(BaseHTTPRequestHandler):
    """Routes requests to the service; one instance per request."""

    api: ServiceAPI  # injected by ServiceAPI per server
    protocol_version = "HTTP/1.1"
    # _respond writes headers and body separately; with Nagle on, the
    # body waits for the client's delayed ACK (~40 ms per request).
    disable_nagle_algorithm = True

    # Silence the default stderr access log; the probe counts requests.
    def log_message(self, format, *args):  # noqa: A002 — stdlib signature
        pass

    # ------------------------------------------------------------------
    # Dispatch
    # ------------------------------------------------------------------
    def do_GET(self):  # noqa: N802 — stdlib naming
        self._dispatch("GET")

    def do_POST(self):  # noqa: N802
        self._dispatch("POST")

    def _dispatch(self, verb: str) -> None:
        service = self.api.service
        parts = [p for p in self.path.split("?")[0].split("/") if p]
        route = "/" + "/".join(parts)
        # Every request gets a trace id — the client's X-Trace-Id if it
        # sent a sane one, a fresh mint otherwise.  It is bound into the
        # log context for the whole handler, echoed back as a response
        # header, and (for POST /jobs) becomes the job's trace_id.
        self._trace_id = (
            validate_trace_id(self.headers.get("X-Trace-Id")) or new_trace_id()
        )
        with bind(trace_id=self._trace_id):
            try:
                handled = self._route(verb, parts, service)
            except (
                UnknownLogError, UnknownJobError, UnknownSessionError
            ) as error:
                handled = self._error(404, _message(error))
            except QueueFullError as error:
                handled = self._error(
                    429,
                    _message(error),
                    headers={
                        "Retry-After": str(max(1, round(error.retry_after)))
                    },
                )
            except KeyError as error:
                handled = self._error(400, f"missing field: {_message(error)}")
            except (ValueError, LogReadError) as error:
                handled = self._error(400, _message(error))
            except Exception as error:  # noqa: BLE001 — the 500 boundary
                handled = self._error(500, f"{type(error).__name__}: {error}")
            if not handled:
                self._error(404, f"no route {verb} {route}")
            status = getattr(self, "_status", 0)
            logger.debug(
                "request served",
                extra={"route": _route_label(verb, parts), "status": status},
            )
        if status:
            service.probe.count(
                "repro_service_http_requests_total",
                route=_route_label(verb, parts),
                status=str(status),
            )

    def _route(self, verb: str, parts: list[str], service) -> bool:
        if verb == "GET":
            if parts == ["healthz"]:
                return self._json(200, service.health())
            if parts == ["readyz"]:
                verdict = service.readyz()
                ready = verdict.get("status") == "ready"
                return self._json(200 if ready else 503, verdict)
            if parts == ["metrics"]:
                metrics = getattr(service.probe, "metrics", None)
                if metrics is None:
                    return self._text(200, "# no metrics registry attached\n")
                return self._text(200, metrics.to_prometheus())
            if parts == ["logs"]:
                return self._json(
                    200,
                    {
                        "logs": [
                            service.registry.info(name).to_payload()
                            for name in service.registry.names()
                        ]
                    },
                )
            if parts == ["quarantine"]:
                store = service.quarantine
                return self._json(
                    200,
                    {
                        "total_seen": store.total_seen,
                        "dropped": store.dropped,
                        "spilled": store.spilled,
                        "by_reason": store.counts_by_reason(),
                        "records": [
                            record.to_payload() for record in store.records[-50:]
                        ],
                    },
                )
            if parts == ["logs", "tail"]:
                ring = service.log_ring
                count = self._query_int("n", 100)
                return self._json(
                    200,
                    {
                        "enabled": ring is not None,
                        "lines": ring.tail(count) if ring is not None else [],
                    },
                )
            if parts == ["jobs"]:
                return self._json(
                    200, {"jobs": [job.to_payload() for job in service.jobs.jobs()]}
                )
            if len(parts) == 3 and parts[0] == "jobs" and parts[2] == "trace":
                job = service.jobs.get(parts[1])  # 404 on unknown id
                if not service.telemetry.enabled:
                    return self._error(
                        404, "telemetry is disabled on this service"
                    )
                if job.state not in (DONE, FAILED):
                    return self._error(
                        404,
                        f"trace for {job.job_id} is not ready "
                        f"(job is {job.state}); retry once it finishes",
                    )
                return self._json(200, service.telemetry.trace_document(job))
            if len(parts) == 2 and parts[0] == "jobs":
                return self._json(200, service.jobs.get(parts[1]).to_payload())
            if parts == ["sessions"]:
                return self._json(200, {"sessions": service.sessions.names()})
            if len(parts) == 2 and parts[0] == "sessions":
                return self._json(200, service.sessions.status(parts[1]))
            return False

        # POST --------------------------------------------------------
        if len(parts) == 2 and parts[0] == "logs":
            body = self._body_text()
            log = read_csv(
                io.StringIO(body),
                name=parts[1],
                on_error="quarantine",
                quarantine=service.quarantine,
            )
            entry = service.registry.register(parts[1], log, source="api")
            service.probe.count(
                "repro_service_files_total", outcome="registered"
            )
            return self._json(201, entry.to_payload())
        if parts == ["jobs"]:
            options = self._body_json()
            log_1 = options.pop("log_1")
            log_2 = options.pop("log_2")
            patterns = _job_patterns(
                options.pop("patterns", []),
                service.registry.get(log_1).alphabet(),
            )
            deadline = options.pop("deadline", None)
            job = service.submit_job(
                log_1,
                log_2,
                patterns=patterns,
                options=MatchOptions.from_dict(options),
                deadline=deadline,
                trace_id=self._trace_id,
            )
            return self._json(202, job.to_payload())
        if parts == ["debug", "profile"]:
            options = self._body_json()
            seconds = options.get("seconds", 1.0)
            if not isinstance(seconds, (int, float)) or not 0 < seconds <= 60:
                raise ValueError("seconds must be a number in (0, 60]")
            profiler = profile_for(float(seconds))
            return self._json(
                200,
                {
                    "seconds": float(seconds),
                    **profiler.state(),
                    "speedscope": profiler.speedscope(name="repro-daemon"),
                },
            )
        if len(parts) == 3 and parts[0] == "jobs" and parts[2] == "rematch":
            service.jobs.get(parts[1])  # 404 before queueing
            job = service.jobs.rematch(parts[1])
            service.wakeup.set()
            return self._json(202, job.to_payload())
        if parts == ["sessions"]:
            options = self._body_json()
            name = options.pop("name")
            reference = options.pop("reference")
            patterns = _job_patterns(
                options.pop("patterns", []),
                service.registry.get(reference).alphabet(),
            )
            unknown = set(options) - _SESSION_OPTIONS
            if unknown:
                raise ValueError(f"unknown session options: {sorted(unknown)}")
            if not isinstance(options.get("validate", True), bool):
                raise ValueError("validate must be true or false")
            service.sessions.create(
                name, reference, patterns=patterns, **options
            )
            return self._json(201, service.sessions.status(name))
        if len(parts) == 3 and parts[0] == "sessions" and parts[2] == "traces":
            payload = self._body_json()
            outcome = service.sessions.append(
                parts[1], payload.get("traces", ())
            )
            return self._json(200, outcome)
        if (
            len(parts) == 3
            and parts[0] == "sessions"
            and parts[2] == "checkpoint"
        ):
            path = service.sessions.checkpoint(parts[1])
            return self._json(200, {"checkpoint": str(path)})
        if parts == ["tick"]:
            return self._json(200, service.tick())
        if parts == ["shutdown"]:
            service.save_state()
            self.api.request_stop()
            return self._json(200, {"status": "stopping"})
        return False

    # ------------------------------------------------------------------
    # Body / response plumbing
    # ------------------------------------------------------------------
    def _query_int(self, name: str, default: int) -> int:
        values = parse_qs(urlparse(self.path).query).get(name)
        if not values:
            return default
        try:
            return max(0, int(values[-1]))
        except ValueError:
            raise ValueError(f"query parameter {name!r} must be an integer")

    def _body_text(self) -> str:
        length = int(self.headers.get("Content-Length", 0))
        if length > _MAX_BODY:
            raise ValueError(f"request body exceeds {_MAX_BODY} bytes")
        return self.rfile.read(length).decode("utf-8")

    def _body_json(self) -> dict:
        text = self._body_text() or "{}"
        try:
            payload = json.loads(text)
        except json.JSONDecodeError as error:
            raise ValueError(f"request body is not valid JSON: {error}")
        if not isinstance(payload, dict):
            raise ValueError("request body must be a JSON object")
        return payload

    def _json(
        self, status: int, payload: dict, headers: dict | None = None
    ) -> bool:
        body = json.dumps(payload, sort_keys=True).encode("utf-8")
        return self._respond(status, body, "application/json", headers)

    def _text(self, status: int, text: str) -> bool:
        return self._respond(
            status, text.encode("utf-8"), "text/plain; version=0.0.4"
        )

    def _error(
        self, status: int, message: str, headers: dict | None = None
    ) -> bool:
        return self._json(status, {"error": message}, headers)

    def _respond(
        self,
        status: int,
        body: bytes,
        content_type: str,
        headers: dict | None = None,
    ) -> bool:
        self._status = status
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        trace_id = getattr(self, "_trace_id", None)
        if trace_id:
            self.send_header("X-Trace-Id", trace_id)
        for name, value in (headers or {}).items():
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(body)
        return True


def _job_patterns(patterns, alphabet) -> tuple[str, ...]:
    """Check a job's pattern texts against ``log_1``'s alphabet (400s)."""
    if not isinstance(patterns, list) or not all(
        isinstance(text, str) for text in patterns
    ):
        raise ValueError("patterns must be a list of pattern strings")
    try:
        validate_patterns([parse_pattern(text) for text in patterns], alphabet)
    except ValueError as error:
        raise ValueError(f"patterns: {error}") from None
    return tuple(patterns)


def _route_label(verb: str, parts: list[str]) -> str:
    """Low-cardinality route label for metrics (ids collapsed)."""
    labeled = [
        "{id}" if index == 1 and parts[0] in ("jobs", "sessions", "logs") else p
        for index, p in enumerate(parts)
    ]
    return f"{verb} /" + "/".join(labeled)


def _message(error: Exception) -> str:
    # KeyError reprs its argument; unwrap for readable API errors.
    if isinstance(error, KeyError) and error.args:
        return str(error.args[0])
    return str(error)
