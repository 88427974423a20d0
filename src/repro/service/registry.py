"""Named event logs the service can match against.

Every log the daemon knows — dropped into the watch directory, POSTed
over the API, or restored from a manifest — is *spooled*: written once
as a canonical CSV under the service state directory and registered
under a name.  The spool file is the source of truth, which buys three
properties at once:

* worker processes receive a file recipe (two spool paths + pattern
  texts) instead of pickled logs;
* a restart re-registers every log from its spool file — the manifest
  only records names and metadata;
* two ingestion formats (CSV and XES) collapse into one internal form,
  so everything downstream of registration is format-blind.

The in-process :class:`~repro.log.eventlog.EventLog` view is cached per
name and invalidated on re-registration.
"""

from __future__ import annotations

import re
import threading
from dataclasses import dataclass
from pathlib import Path

from repro.log.csvio import read_csv, write_csv
from repro.log.eventlog import EventLog

_NAME_OK = re.compile(r"^[A-Za-z0-9][A-Za-z0-9._-]{0,127}$")


class UnknownLogError(KeyError):
    """A job or session referenced a log name that is not registered."""


def validate_log_name(name: str) -> str:
    """A registry name must be a safe spool-file stem; returns it."""
    if not isinstance(name, str) or not _NAME_OK.match(name):
        raise ValueError(
            f"invalid log name {name!r}: expected 1-128 characters of "
            "letters, digits, '.', '_' or '-', not starting with a dot"
        )
    return name


@dataclass(frozen=True)
class RegisteredLog:
    """Metadata of one spooled log (what ``GET /logs`` returns)."""

    name: str
    path: str
    num_traces: int
    num_events: int
    source: str
    sequence: int

    def to_payload(self) -> dict:
        return {
            "name": self.name,
            "path": self.path,
            "num_traces": self.num_traces,
            "num_events": self.num_events,
            "source": self.source,
            "sequence": self.sequence,
        }

    @classmethod
    def from_payload(cls, payload: dict) -> "RegisteredLog":
        return cls(
            name=payload["name"],
            path=payload["path"],
            num_traces=payload["num_traces"],
            num_events=payload["num_events"],
            source=payload.get("source", "resume"),
            sequence=payload.get("sequence", 0),
        )


class LogRegistry:
    """Thread-safe name → spooled-log mapping.

    Parameters
    ----------
    spool_dir:
        Directory the canonical CSVs live in (created if missing).
    """

    def __init__(self, spool_dir: str | Path):
        self.spool_dir = Path(spool_dir)
        self.spool_dir.mkdir(parents=True, exist_ok=True)
        self._logs: dict[str, RegisteredLog] = {}
        self._cache: dict[str, EventLog] = {}
        self._sequence = 0
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    # Registration
    # ------------------------------------------------------------------
    def register(
        self, name: str, log: EventLog, source: str = "api"
    ) -> RegisteredLog:
        """Spool ``log`` as a canonical CSV and register it under ``name``.

        Re-registering an existing name replaces it (a re-dropped file
        is an update); already-submitted jobs resolve names at dispatch
        time, so they see whatever is registered then.
        """
        validate_log_name(name)
        if not len(log):
            raise ValueError(f"log {name!r} has no traces; refusing to register")
        path = self.spool_dir / f"{name}.csv"
        write_csv(log, path)
        with self._lock:
            self._sequence += 1
            entry = RegisteredLog(
                name=name,
                path=str(path),
                num_traces=len(log),
                num_events=sum(len(trace) for trace in log.traces),
                source=source,
                sequence=self._sequence,
            )
            self._logs[name] = entry
            self._cache[name] = log
        return entry

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------
    def info(self, name: str) -> RegisteredLog:
        with self._lock:
            entry = self._logs.get(name)
        if entry is None:
            raise UnknownLogError(f"no registered log named {name!r}")
        return entry

    def get(self, name: str) -> EventLog:
        """The in-process view of a registered log (cached per name)."""
        entry = self.info(name)
        with self._lock:
            log = self._cache.get(name)
        if log is None:
            log = read_csv(entry.path, name=name)
            with self._lock:
                self._cache[name] = log
        return log

    def path(self, name: str) -> str:
        """The spool-file path workers rebuild the log from."""
        return self.info(name).path

    def names(self) -> list[str]:
        with self._lock:
            return sorted(self._logs)

    def __contains__(self, name: str) -> bool:
        with self._lock:
            return name in self._logs

    def __len__(self) -> int:
        with self._lock:
            return len(self._logs)

    # ------------------------------------------------------------------
    # Manifest round-trip
    # ------------------------------------------------------------------
    def to_payload(self) -> dict:
        with self._lock:
            return {
                "sequence": self._sequence,
                "logs": [
                    self._logs[name].to_payload() for name in sorted(self._logs)
                ],
            }

    def scan_spool(self) -> int:
        """Register any spool CSV the registry does not know about.

        The safety net under manifest loss: spool files are written
        before the manifest ever mentions them, so a crash between the
        two must not orphan a log.  Returns how many were recovered.
        """
        recovered = 0
        for path in sorted(self.spool_dir.glob("*.csv")):
            name = path.stem
            if name in self:
                continue
            try:
                log = read_csv(path, name=name)
            except Exception:  # noqa: BLE001 — a bad spool file is skipped
                continue
            if not len(log):
                continue
            self.register(name, log, source="spool-scan")
            recovered += 1
        return recovered

    def restore_payload(self, payload: dict) -> int:
        """Re-register every manifest entry whose spool file survived.

        Returns how many were restored; entries whose file is gone are
        skipped (the caller reports them), never fatal — a service must
        come back up with whatever state is intact.
        """
        restored = 0
        for entry_payload in payload.get("logs", ()):
            entry = RegisteredLog.from_payload(entry_payload)
            if not Path(entry.path).exists():
                continue
            with self._lock:
                self._logs[entry.name] = entry
                self._cache.pop(entry.name, None)
                self._sequence = max(self._sequence, entry.sequence)
            restored += 1
        with self._lock:
            self._sequence = max(
                self._sequence, payload.get("sequence", self._sequence)
            )
        return restored
