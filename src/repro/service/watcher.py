"""Watched-directory ingestion: drop a log file, get a registered log.

The operational front door of the daemon: operators (or upstream
systems) drop CSV/XES event-log files into ``<state>/drop`` and the
:class:`DirectoryWatcher` polls it, registering each file under its stem
name.  Three disciplines keep this safe against the ways file drops go
wrong in practice:

* **settling** — a file is only ingested once its size and mtime have
  been stable across ``settle_polls`` consecutive polls, so a file still
  being copied in is never half-read;
* **row quarantine** — malformed rows inside an otherwise-readable CSV
  are skipped and recorded in the service's dead-letter store (the
  existing ``on_error="quarantine"`` reader path), not fatal;
* **file quarantine** — a file that cannot be read at all (unparseable
  XES, missing CSV header columns, zero usable traces, unsupported
  extension) is *moved* to ``<state>/drop/quarantine/`` and recorded
  with its reason, so a poisoned file cannot wedge the watcher by being
  re-ingested every poll;
* **transient-error grace** — a raw ``OSError`` during the read (NFS
  hiccup, permissions race with the copying process) gets exactly one
  retry on the next poll before the file is quarantined, because an I/O
  blip is not evidence the *content* is bad.

Successfully ingested files are deleted from the drop directory — the
canonical copy now lives in the registry spool.
"""

from __future__ import annotations

from pathlib import Path

from repro.log.csvio import read_csv
from repro.log.errors import LogReadError
from repro.log.eventlog import EventLog
from repro.log.xes import read_xes
from repro.obs.logs import bind, get_logger
from repro.obs.probe import NULL_PROBE, Probe
from repro.obs.telemetry import new_trace_id
from repro.resilience.quarantine import QuarantineRecord, QuarantineStore
from repro.service.registry import LogRegistry, validate_log_name

#: File extensions the watcher picks up, lowercase.
WATCHED_SUFFIXES = (".csv", ".xes")

logger = get_logger("service.watcher")


class DirectoryWatcher:
    """Poll a drop directory and register every settled log file.

    Parameters
    ----------
    drop_dir:
        The watched directory (created if missing, along with its
        ``quarantine/`` subdirectory).
    registry:
        Where readable logs are registered (named by file stem).
    quarantine:
        Dead-letter store receiving both row-level skips and whole-file
        rejects.
    settle_polls:
        Consecutive polls a file's size+mtime must be unchanged before
        it is ingested.  ``0`` ingests on first sight (tests, CI smoke);
        the daemon default of ``1`` tolerates slow copies.
    probe:
        Observability hooks (``repro_service_files_total`` by outcome).
    """

    def __init__(
        self,
        drop_dir: str | Path,
        registry: LogRegistry,
        quarantine: QuarantineStore,
        settle_polls: int = 1,
        probe: Probe | None = None,
    ):
        if settle_polls < 0:
            raise ValueError("settle_polls must be non-negative")
        self.drop_dir = Path(drop_dir)
        self.quarantine_dir = self.drop_dir / "quarantine"
        self.drop_dir.mkdir(parents=True, exist_ok=True)
        self.quarantine_dir.mkdir(parents=True, exist_ok=True)
        self.registry = registry
        self.quarantine = quarantine
        self.settle_polls = settle_polls
        self._probe = probe if probe is not None else NULL_PROBE
        #: path -> (size, mtime_ns, stable_poll_count)
        self._seen: dict[Path, tuple[int, int, int]] = {}
        #: Paths that already burned their one transient-OSError retry.
        self._io_retried: set[Path] = set()
        self.files_registered = 0
        self.files_quarantined = 0
        self.io_retries = 0

    # ------------------------------------------------------------------
    # Polling
    # ------------------------------------------------------------------
    def poll(self) -> list[str]:
        """One scan of the drop directory; returns names registered now."""
        registered: list[str] = []
        present: set[Path] = set()
        for path in sorted(self.drop_dir.iterdir()):
            if not path.is_file():
                continue
            present.add(path)
            if not self._settled(path):
                continue
            self._seen.pop(path, None)
            name = self._ingest(path)
            if name is not None:
                registered.append(name)
        # Forget files that vanished before settling.
        for path in [p for p in self._seen if p not in present]:
            del self._seen[path]
        self._io_retried &= present
        return registered

    def _settled(self, path: Path) -> bool:
        try:
            stat = path.stat()
        except OSError:
            return False  # vanished between listing and stat
        signature = (stat.st_size, stat.st_mtime_ns)
        size, mtime_ns, stable = self._seen.get(path, (None, None, -1))
        if (size, mtime_ns) != signature:
            self._seen[path] = (*signature, 0)
            return self.settle_polls == 0
        if stable + 1 >= self.settle_polls:
            return True
        self._seen[path] = (*signature, stable + 1)
        return False

    # ------------------------------------------------------------------
    # Ingestion
    # ------------------------------------------------------------------
    def _ingest(self, path: Path) -> str | None:
        # Every watched file gets its own trace id so downstream jobs
        # against the registered log can be correlated back to the drop.
        with bind(trace_id=new_trace_id(), file=path.name):
            return self._ingest_traced(path)

    def _ingest_traced(self, path: Path) -> str | None:
        try:
            log = self._read(path)
            name = validate_log_name(path.stem)
            if not len(log):
                raise LogReadError(
                    f"{path.name}: no usable traces "
                    "(empty file, or every row quarantined)"
                )
        except OSError as error:
            # LogReadError is a ValueError, so a raw OSError here is a
            # genuine I/O failure, not bad content.  Leave the file in
            # place for one retry on the next poll; quarantine only a
            # repeat offender.
            if path not in self._io_retried:
                self._io_retried.add(path)
                self.io_retries += 1
                logger.warning(
                    "transient read error, will retry once",
                    extra={"error": str(error)},
                )
                self._probe.count(
                    "repro_service_files_total", outcome="io-retry"
                )
                return None
            self._io_retried.discard(path)
            self._quarantine_file(path, error)
            return None
        except Exception as error:  # noqa: BLE001 — the dead-letter seam
            self._quarantine_file(path, error)
            return None
        self._io_retried.discard(path)
        self.registry.register(name, log, source="drop")
        path.unlink(missing_ok=True)
        self.files_registered += 1
        logger.info(
            "log file ingested",
            extra={"log": name, "traces": len(log)},
        )
        self._probe.count("repro_service_files_total", outcome="registered")
        return name

    def _read(self, path: Path) -> EventLog:
        suffix = path.suffix.lower()
        if suffix == ".csv":
            return read_csv(
                path,
                name=path.stem,
                on_error="quarantine",
                quarantine=self.quarantine,
            )
        if suffix == ".xes":
            return read_xes(
                path,
                name=path.stem,
                on_error="quarantine",
                quarantine=self.quarantine,
            )
        raise LogReadError(
            f"unsupported log format {path.suffix!r} "
            f"(expected one of {', '.join(WATCHED_SUFFIXES)})"
        )

    def _quarantine_file(self, path: Path, error: Exception) -> None:
        self.quarantine.add(
            QuarantineRecord(
                kind="file",
                reason=f"{type(error).__name__}: {error}",
                case_id=None,
                events=(),
                source=str(path.name),
            )
        )
        target = self.quarantine_dir / path.name
        counter = 0
        while target.exists():
            counter += 1
            target = self.quarantine_dir / f"{path.name}.{counter}"
        try:
            path.replace(target)
        except OSError:
            path.unlink(missing_ok=True)
        self.files_quarantined += 1
        logger.warning(
            "log file quarantined",
            extra={"reason": f"{type(error).__name__}: {error}"},
        )
        self._probe.count("repro_service_files_total", outcome="quarantined")
