"""Online matching sessions hosted inside the daemon.

Batch jobs can cross a process boundary because they are pure recipes;
an online session cannot — its value *is* its accumulated incremental
state (delta structures, drift baseline, rematch history).  Sessions
therefore live in the daemon process, fed trace-by-trace over the API,
and survive restarts through the existing versioned checkpoint layer:
every session checkpoints to ``<state>/sessions/<name>.json`` on the
daemon's cadence and on shutdown, and :meth:`SessionManager.resume`
rebuilds the whole fleet from whatever checkpoint files exist.

Determinism contract (exercised by the kill-and-resume tests): feeding
the same trace sequence through *any* interleaving of checkpoints,
kills, and resumes produces the identical mapping and score as one
uninterrupted session.
"""

from __future__ import annotations

import threading
from pathlib import Path

from repro.obs.probe import NULL_PROBE, Probe
from repro.patterns.parser import parse_pattern
from repro.resilience.checkpoint import load_checkpoint, save_checkpoint
from repro.resilience.quarantine import QuarantineStore
from repro.resilience.validation import TraceValidator
from repro.service.registry import LogRegistry, validate_log_name
from repro.stream.engine import OnlineMatcher
from repro.stream.ingest import StreamingLog


class UnknownSessionError(KeyError):
    """An API call referenced a session name that does not exist."""


class SessionManager:
    """Named :class:`OnlineMatcher` sessions with checkpoint persistence."""

    def __init__(
        self,
        registry: LogRegistry,
        checkpoint_dir: str | Path,
        quarantine: QuarantineStore | None = None,
        probe: Probe | None = None,
    ):
        self.registry = registry
        self.checkpoint_dir = Path(checkpoint_dir)
        self.checkpoint_dir.mkdir(parents=True, exist_ok=True)
        self.quarantine = quarantine
        self._sessions: dict[str, OnlineMatcher] = {}
        self._lock = threading.Lock()
        self._probe = probe if probe is not None else NULL_PROBE

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def create(
        self,
        name: str,
        reference: str,
        patterns=(),
        validate: bool = True,
        **engine_options,
    ) -> OnlineMatcher:
        """Open a session streaming against registered log ``reference``.

        ``patterns`` are pattern texts (the API is JSON-in); they are
        parsed here so a bad pattern fails the create call, not some
        later update.  ``validate`` attaches the standard open-vocabulary
        :class:`TraceValidator` (length + duplicate-case guards — the
        stream's vocabulary is intentionally unconstrained, discovering
        it is the point of matching) so garbage traffic lands in the
        service quarantine instead of skewing the session.
        """
        validate_log_name(name)
        with self._lock:
            if name in self._sessions:
                raise ValueError(f"session {name!r} already exists")
        reference_log = self.registry.get(reference)
        parsed = tuple(parse_pattern(text) for text in patterns)
        validator = TraceValidator() if validate else None
        stream = StreamingLog(
            name=name, validator=validator, quarantine=self.quarantine
        )
        engine = OnlineMatcher(
            reference_log,
            stream,
            patterns=parsed,
            probe=self._probe if self._probe.enabled else None,
            **engine_options,
        )
        with self._lock:
            if name in self._sessions:
                raise ValueError(f"session {name!r} already exists")
            self._sessions[name] = engine
        return engine

    def get(self, name: str) -> OnlineMatcher:
        with self._lock:
            engine = self._sessions.get(name)
        if engine is None:
            raise UnknownSessionError(f"no session named {name!r}")
        return engine

    def names(self) -> list[str]:
        with self._lock:
            return sorted(self._sessions)

    def __len__(self) -> int:
        with self._lock:
            return len(self._sessions)

    # ------------------------------------------------------------------
    # Traffic
    # ------------------------------------------------------------------
    def append(self, name: str, traces) -> dict:
        """Feed whole traces into a session and run one update cycle."""
        engine = self.get(name)
        accepted = 0
        for trace in traces:
            engine.stream.append_trace(trace)
            accepted += 1
        update = engine.update()
        return {
            "accepted_traces": accepted,
            "num_traces": update.num_traces,
            "rematch": update.rematched,
            "reason": update.reason,
            "score": update.score,
        }

    def status(self, name: str) -> dict:
        engine = self.get(name)
        mapping = engine.mapping
        return {
            "name": name,
            "reference": engine.reference.name,
            "num_traces": len(engine.stream.log),
            "updates": len(engine.history),
            "rematches": sum(1 for u in engine.history if u.rematched),
            "score": engine.history[-1].score if engine.history else None,
            "mapping": None
            if mapping is None
            else {
                str(source): str(target)
                for source, target in sorted(mapping.as_dict().items())
            },
            "checkpoint_sequence": engine.checkpoint_sequence,
        }

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------
    def _checkpoint_path(self, name: str) -> Path:
        return self.checkpoint_dir / f"{name}.json"

    def checkpoint(self, name: str) -> Path:
        return save_checkpoint(self.get(name), self._checkpoint_path(name))

    def checkpoint_all(self) -> list[str]:
        """Checkpoint every session; returns the names saved."""
        return [name for name in self.names() if self.checkpoint(name)]

    def resume(self) -> list[str]:
        """Restore every session checkpointed under ``checkpoint_dir``.

        Returns the restored names, sorted.  An unreadable checkpoint
        raises — resuming *past* a session silently would violate the
        determinism contract, so the operator must delete or fix the
        file explicitly.
        """
        restored = []
        for path in sorted(self.checkpoint_dir.glob("*.json")):
            engine = load_checkpoint(path)
            name = path.stem
            with self._lock:
                self._sessions[name] = engine
            if self._probe.enabled:
                engine.attach_probe(self._probe)
            restored.append(name)
        return restored
