"""Point-in-time frozen views of a streaming log.

A :class:`LogSnapshot` is a plain :class:`~repro.log.eventlog.EventLog`
(every batch consumer — matchers, indices, statistics — accepts it
unchanged) that additionally records *where* in the stream it was taken:
the source stream's generation and a per-stream snapshot sequence number.
Snapshots refuse further appends, so a frequency memo built on one can
never go stale.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence

from repro.log.events import Event, Trace
from repro.log.eventlog import EventLog


class LogSnapshot(EventLog):
    """An immutable point-in-time copy of a streaming log."""

    def __init__(
        self,
        traces: Iterable[Trace | Sequence[Event]],
        name: str = "",
        stream_generation: int = 0,
        sequence: int = 0,
    ):
        super().__init__(traces, name=name)
        self._stream_generation = stream_generation
        self._sequence = sequence
        self._frozen = True

    @property
    def stream_generation(self) -> int:
        """The source stream's generation when this snapshot was taken."""
        return self._stream_generation

    @property
    def sequence(self) -> int:
        """Which snapshot of its stream this is (1-based)."""
        return self._sequence

    def append_trace(self, trace: Trace | Sequence[Event]) -> int:
        if getattr(self, "_frozen", False):
            raise TypeError(
                "snapshots are frozen; append to the StreamingLog and take "
                "a new snapshot instead"
            )
        return super().append_trace(trace)

    def __repr__(self) -> str:
        label = f" {self.name!r}" if self.name else ""
        return (
            f"LogSnapshot({len(self)} traces{label}, "
            f"generation={self._stream_generation})"
        )
