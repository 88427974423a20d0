"""Checkpoint/restore of an online matching session.

A checkpoint captures the *raw* state of an
:class:`~repro.stream.engine.OnlineMatcher` — the reference log, the
committed and still-open traces of the stream, the quarantine store, the
current mapping/baseline/history and the engine configuration — as one
versioned JSON document.  Derived state (``I_t`` postings, bitsets,
automata, tracked pattern counts) is deliberately *not* serialized: it
is deterministically rebuilt from the raw traces at restore time, which
keeps the format small, diffable and forward-portable, and guarantees a
restored engine can never resume with corrupt indices.

Writes are atomic (temp file + ``os.replace``), so a crash mid-save
leaves the previous checkpoint intact — the property the kill-and-resume
test leans on.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

#: Bump when the payload layout changes incompatibly; readers refuse
#: unknown versions instead of guessing.
CHECKPOINT_VERSION = 1

_FORMAT = "repro-online-checkpoint"


class CheckpointError(RuntimeError):
    """A checkpoint file is missing, malformed, or from another version."""


def save_checkpoint(engine, path: str | Path) -> Path:
    """Atomically serialize ``engine`` to ``path``; returns the path.

    Every save stamps a monotonically increasing ``sequence`` number
    (kept on the engine, restored with it), so a fleet of checkpoint
    files for one session can always be ordered — and a stale file can
    never masquerade as the latest one.
    """
    path = Path(path)
    sequence = getattr(engine, "checkpoint_sequence", 0) + 1
    document = {
        "format": _FORMAT,
        "version": CHECKPOINT_VERSION,
        "sequence": sequence,
        "state": engine.checkpoint(),
    }
    scratch = path.with_name(path.name + ".tmp")
    scratch.write_text(json.dumps(document, indent=2, sort_keys=True) + "\n")
    os.replace(scratch, path)
    engine.checkpoint_sequence = sequence
    return path


def load_checkpoint(path: str | Path):
    """Restore an :class:`~repro.stream.engine.OnlineMatcher` from disk.

    The returned engine is fully live: its stream accepts further
    traffic, the delta state has been rebuilt over the restored backlog,
    and drift bookkeeping continues from the checkpointed baseline.
    """
    from repro.stream.engine import OnlineMatcher

    path = Path(path)
    if not path.exists():
        raise CheckpointError(f"no checkpoint at {path}")
    try:
        document = json.loads(path.read_text())
    except json.JSONDecodeError as error:
        raise CheckpointError(f"malformed checkpoint {path}: {error}") from None
    if not isinstance(document, dict) or document.get("format") != _FORMAT:
        raise CheckpointError(
            f"{path} is not a {_FORMAT!r} document"
        )
    version = document.get("version")
    if isinstance(version, int) and version > CHECKPOINT_VERSION:
        raise CheckpointError(
            f"checkpoint {path} has version {version}, which is newer than "
            f"the latest this build supports ({CHECKPOINT_VERSION}); it was "
            "written by a newer version of repro — upgrade before resuming"
        )
    if version != CHECKPOINT_VERSION:
        raise CheckpointError(
            f"checkpoint version {version!r} is not supported "
            f"(this build reads version {CHECKPOINT_VERSION})"
        )
    try:
        engine = OnlineMatcher.restore(document["state"])
    except ValueError as error:
        # A configuration the engine refuses (older builds accepted
        # e.g. a non-numeric budget) is a bad file, not a crash.
        raise CheckpointError(f"invalid checkpoint {path}: {error}") from None
    engine.checkpoint_sequence = document.get("sequence", 0)
    return engine
