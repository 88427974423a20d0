"""Structured JSON logging with trace/job correlation.

The service plane used to narrate itself through ad-hoc ``print``
calls — fine for one process, useless once the interesting events
happen in worker processes and HTTP handler threads at the same time.
This module builds the replacement on stdlib :mod:`logging`:

* :class:`JsonFormatter` renders every record as one JSON object per
  line (``ts``, ``level``, ``logger``, ``message``, ``pid``), merging
  in any ``extra=`` fields the call site supplied;
* :func:`bind` attaches correlation fields (``trace_id``, ``job_id``)
  to a :mod:`contextvars` context, so every log line emitted while a
  request or job is being handled carries its identifiers without the
  call sites threading them around;
* :class:`LogRingBuffer` is a handler keeping the last N records as
  dicts in memory — what ``GET /logs/tail`` serves;
* :func:`configure_logging` wires formatter + optional JSONL file +
  optional ring + stderr under the ``repro`` logger, idempotently.

Concurrency: stdlib handlers serialize :meth:`~logging.Handler.emit`
under a per-handler lock, so concurrent writer threads produce one
valid JSON document per line, never interleaved fragments.  The module
also owns the *worker-process flag* (:func:`mark_worker_process`) that
pool initializers set so chatty components (heartbeat reporters) know
to keep raw lines off the parent's inherited stderr.
"""

from __future__ import annotations

import contextvars
import json
import logging
import os
import threading
import time
from collections import deque
from contextlib import contextmanager

#: Root of the package's logger tree; ``get_logger("service.daemon")``
#: returns ``repro.service.daemon``.
ROOT_LOGGER = "repro"

#: Correlation fields bound for the current context (tuple of pairs so
#: the default is immutable and cheap to copy).
_CONTEXT: contextvars.ContextVar[tuple] = contextvars.ContextVar(
    "repro_log_context", default=()
)

# Process-role flag: set (once, in the pool initializer) in worker
# processes so inherited-stderr chatter can be suppressed/rerouted.
_IN_WORKER = False


def mark_worker_process() -> None:
    """Declare this process a pool worker (called by pool initializers)."""
    global _IN_WORKER
    _IN_WORKER = True


def in_worker_process() -> bool:
    """Whether this process was marked as a pool worker."""
    return _IN_WORKER


def get_logger(name: str = "") -> logging.Logger:
    """The ``repro``-rooted logger for a dotted component name."""
    return logging.getLogger(f"{ROOT_LOGGER}.{name}" if name else ROOT_LOGGER)


@contextmanager
def bind(**fields):
    """Attach correlation fields to all log records in this context.

    Nested binds stack (inner fields shadow outer ones of the same
    name); the previous context is restored on exit even under
    exceptions.  ``None`` values are dropped so callers can pass
    optional ids unconditionally.
    """
    current = dict(_CONTEXT.get())
    current.update((k, v) for k, v in fields.items() if v is not None)
    token = _CONTEXT.set(tuple(current.items()))
    try:
        yield
    finally:
        _CONTEXT.reset(token)


def context_fields() -> dict:
    """The correlation fields bound in the current context."""
    return dict(_CONTEXT.get())


#: LogRecord attributes that are plumbing, not payload — anything else
#: found on a record (i.e. passed via ``extra=``) is emitted as a field.
_RESERVED = frozenset(
    vars(
        logging.LogRecord("", 0, "", 0, "", (), None)
    )
) | {"message", "asctime", "taskName"}


def record_to_doc(record: logging.LogRecord) -> dict:
    """One log record as the JSON-safe dict every sink agrees on."""
    doc: dict[str, object] = {
        "ts": round(record.created, 6),
        "level": record.levelname.lower(),
        "logger": record.name,
        "message": record.getMessage(),
        "pid": record.process,
    }
    doc.update(context_fields())
    for key, value in record.__dict__.items():
        if key in _RESERVED or key.startswith("_"):
            continue
        doc[key] = value
    if record.exc_info and record.exc_info[0] is not None:
        doc["exception"] = record.exc_info[0].__name__
    return doc


class JsonFormatter(logging.Formatter):
    """One JSON object per record per line."""

    def format(self, record: logging.LogRecord) -> str:
        return json.dumps(record_to_doc(record), default=str)


class TextFormatter(logging.Formatter):
    """Compact human form for stderr: time, level, logger, message, k=v."""

    def format(self, record: logging.LogRecord) -> str:
        doc = record_to_doc(record)
        stamp = time.strftime("%H:%M:%S", time.localtime(record.created))
        head = f"{stamp} {doc['level']:<7} {record.name}: {doc['message']}"
        tail = " ".join(
            f"{key}={doc[key]}"
            for key in sorted(doc)
            if key not in ("ts", "level", "logger", "message", "pid")
        )
        return f"{head} {tail}".rstrip()


class LogRingBuffer(logging.Handler):
    """Keep the last ``capacity`` records as dicts (``GET /logs/tail``)."""

    def __init__(self, capacity: int = 1024, level=logging.NOTSET):
        super().__init__(level=level)
        if capacity < 1:
            raise ValueError("ring capacity must be positive")
        self.capacity = capacity
        self._records: deque[dict] = deque(maxlen=capacity)

    def emit(self, record: logging.LogRecord) -> None:
        try:
            self._records.append(record_to_doc(record))
        except Exception:  # noqa: BLE001 — logging must never raise
            self.handleError(record)

    def tail(self, count: int | None = None) -> list[dict]:
        """The newest ``count`` records, oldest first."""
        records = list(self._records)
        if count is not None and count >= 0:
            records = records[-count:] if count else []
        return records

    def __len__(self) -> int:
        return len(self._records)


# Handlers configure_logging installed, so re-configuration (tests,
# repeated serve calls in one process) replaces rather than stacks them.
_INSTALLED: list[logging.Handler] = []
_CONFIG_LOCK = threading.Lock()


def configure_logging(
    json_path: str | os.PathLike | None = None,
    ring: LogRingBuffer | None = None,
    level: int = logging.INFO,
    stderr: bool = True,
) -> logging.Logger:
    """Wire the ``repro`` logger: JSONL file, ring buffer, stderr.

    Idempotent: handlers installed by a previous call are removed
    first, so reconfiguring never duplicates lines.  The logger does
    not propagate to the root logger — embedding applications keep
    their own logging untouched.
    """
    logger = get_logger()
    with _CONFIG_LOCK:
        for handler in _INSTALLED:
            logger.removeHandler(handler)
            handler.close()
        _INSTALLED.clear()
        logger.setLevel(level)
        logger.propagate = False
        if json_path is not None:
            file_handler = logging.FileHandler(json_path, encoding="utf-8")
            file_handler.setFormatter(JsonFormatter())
            logger.addHandler(file_handler)
            _INSTALLED.append(file_handler)
        if ring is not None:
            logger.addHandler(ring)
            _INSTALLED.append(ring)
        if stderr:
            stream_handler = logging.StreamHandler()
            stream_handler.setFormatter(TextFormatter())
            logger.addHandler(stream_handler)
            _INSTALLED.append(stream_handler)
    return logger
