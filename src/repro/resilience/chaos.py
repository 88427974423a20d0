"""Fault injection for the streaming pipeline.

Chaos testing is the only honest way to claim robustness: instead of
asserting that clean input stays clean, the harness *manufactures* the
dirt real feeds carry — dropped, duplicated, reordered and corrupted
events, replayed cases, listeners that throw mid-commit — and the test
suite asserts the pipeline degrades exactly as designed: bad traces land
in quarantine with reasons, good traces commit, the delta state still
passes :meth:`~repro.stream.deltas.DeltaState.verify` afterwards.

Everything is driven by a seeded :class:`random.Random`, so a failing
chaos run is replayable bit-for-bit.
"""

from __future__ import annotations

import os
import random
import signal
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass, field, fields

from repro.log.events import Event, Trace


@dataclass(frozen=True)
class ChaosConfig:
    """Perturbation rates (each in ``[0, 1]``) and the replay seed."""

    #: Probability of silently losing one event.
    drop_event_rate: float = 0.0
    #: Probability of replacing one event with a corrupt payload
    #: (``None`` or the empty string — both schema violations).
    corrupt_event_rate: float = 0.0
    #: Probability of swapping one event with its successor.
    reorder_event_rate: float = 0.0
    #: Probability of losing a whole trace.
    drop_trace_rate: float = 0.0
    #: Probability of replaying a whole trace (same case id — a
    #: duplicate-case violation when validation is on).
    duplicate_trace_rate: float = 0.0
    #: Probability that a flaky listener raises on a given commit.
    listener_error_rate: float = 0.0
    seed: int = 0

    def __post_init__(self):
        for f in fields(self):
            if f.name == "seed":
                continue
            rate = getattr(self, f.name)
            if not 0.0 <= rate <= 1.0:
                raise ValueError(f"{f.name} must be in [0, 1], got {rate}")


@dataclass
class ChaosActions:
    """What one injector actually did (for assertions and reports)."""

    events_dropped: int = 0
    events_corrupted: int = 0
    events_reordered: int = 0
    traces_dropped: int = 0
    traces_duplicated: int = 0
    listener_errors_induced: int = 0
    workers_killed: int = 0

    def total(self) -> int:
        return sum(getattr(self, f.name) for f in fields(self))


class InducedListenerError(RuntimeError):
    """Raised by :meth:`ChaosInjector.flaky_listener` on schedule."""


@dataclass
class ChaosInjector:
    """Seeded perturbation of a trace feed plus flaky-listener factory."""

    config: ChaosConfig
    actions: ChaosActions = field(default_factory=ChaosActions)

    def __post_init__(self):
        self._rng = random.Random(self.config.seed)

    # ------------------------------------------------------------------
    # Feed perturbation
    # ------------------------------------------------------------------
    def perturb(
        self, traces: Iterable[Trace | Sequence[Event]]
    ) -> Iterator[tuple[str | None, list[object]]]:
        """Yield ``(case_id, events)`` pairs with faults injected.

        Events are yielded as raw ``object`` lists because corruption
        intentionally produces values no :class:`~repro.log.events.Trace`
        would accept — feed them through the per-event stream lifecycle
        (or ``append_trace``) of a *validated* stream.
        """
        rng = self._rng
        config = self.config
        actions = self.actions
        for position, trace in enumerate(traces):
            case_id = (
                trace.case_id
                if isinstance(trace, Trace) and trace.case_id is not None
                else f"case-{position}"
            )
            if rng.random() < config.drop_trace_rate:
                actions.traces_dropped += 1
                continue
            events: list[object] = list(trace)
            for index in range(len(events)):
                roll = rng.random()
                if roll < config.drop_event_rate:
                    events[index] = _DROP
                    actions.events_dropped += 1
                elif roll < config.drop_event_rate + config.corrupt_event_rate:
                    events[index] = rng.choice((None, ""))
                    actions.events_corrupted += 1
            events = [event for event in events if event is not _DROP]
            if len(events) > 1 and rng.random() < config.reorder_event_rate:
                index = rng.randrange(len(events) - 1)
                events[index], events[index + 1] = (
                    events[index + 1],
                    events[index],
                )
                actions.events_reordered += 1
            yield case_id, events
            if rng.random() < config.duplicate_trace_rate:
                actions.traces_duplicated += 1
                yield case_id, list(events)

    # ------------------------------------------------------------------
    # Listener faults
    # ------------------------------------------------------------------
    def flaky_listener(self, wrapped=None):
        """A commit listener that raises with ``listener_error_rate``.

        Wraps ``wrapped`` (called first when the fault does not fire);
        use it to prove listener isolation: the stream must survive, the
        error must be counted and quarantined, and other listeners must
        still be notified.
        """
        rng = self._rng
        rate = self.config.listener_error_rate
        actions = self.actions

        def listener(trace_id: int, trace: Trace) -> None:
            if rng.random() < rate:
                actions.listener_errors_induced += 1
                raise InducedListenerError(
                    f"induced listener failure at trace {trace_id}"
                )
            if wrapped is not None:
                wrapped(trace_id, trace)

        return listener


    # ------------------------------------------------------------------
    # Execution-plane faults
    # ------------------------------------------------------------------
    def kill_worker(self, pids: Sequence[int]) -> int | None:
        """SIGKILL one worker chosen by the seeded RNG; returns its pid.

        The execution-plane fault the supervision layer exists for: a
        warm-pool worker dying abruptly mid-job.  ``pids`` is the live
        worker pid list (e.g. :meth:`repro.parallel.pool.WarmPool.
        worker_pids`); a pid that died between listing and killing is
        skipped.  Returns ``None`` when no worker could be killed.
        """
        candidates = list(pids)
        while candidates:
            victim = candidates.pop(self._rng.randrange(len(candidates)))
            try:
                os.kill(victim, signal.SIGKILL)
            except (ProcessLookupError, PermissionError):
                continue
            self.actions.workers_killed += 1
            return victim
        return None


#: Sentinel marking an event for deletion inside :meth:`perturb`.
_DROP = object()


def corrupt_delta_state(deltas, seed: int = 0) -> str:
    """Silently damage a :class:`~repro.stream.deltas.DeltaState`.

    Reaches into the incremental structures — a deep pattern count or
    the live log's trace index (this is a fault-injection harness; the
    whole point is damage the public API forbids) — and perturbs one of
    them, returning a description of what was broken.  The damage is
    exactly the class of divergence the sampled invariant checks and
    :meth:`~repro.stream.deltas.DeltaState.verify` exist to catch, and
    that :meth:`~repro.stream.deltas.DeltaState.rebuild` repairs.
    """
    rng = random.Random(seed)
    index = deltas._log.trace_index()
    postings = index.event_postings
    total = deltas.num_traces
    if deltas._counts and rng.random() < 0.5:
        pattern = rng.choice(sorted(deltas._counts, key=repr))
        deltas._counts[pattern] = total + 1 + rng.randrange(3)
        return f"inflated match count of {pattern!r} beyond the trace total"
    if postings:
        event = rng.choice(sorted(postings))
        postings[event] |= 1 << total  # membership in a phantom trace
        return f"set a phantom posting bit of event {event!r}"
    # Nothing to corrupt yet (empty state): index a phantom trace.
    index.add(("<phantom>",))
    return "indexed a phantom trace"
