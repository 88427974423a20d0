"""Heartbeat reporting for long searches.

A :class:`ProgressReporter` turns the A* expansion stream into periodic
one-line status reports — expansions/sec, frontier size, best incumbent
and its optimality-gap bound — so an operator watching a minutes-long
exact search can tell a converging run (gap shrinking) from a hopeless
one (gap flat, rate falling) without waiting for the final answer.

A live probe hands the reporter every gauge update (:meth:`update`):
the search sets its incumbent and gap gauges, then the frontier gauge
once per expansion, so each frontier update counts as one expansion and
may emit a line.  The reporter rate-limits itself on the monotonic
clock: one emitted line per ``interval`` seconds at most, whatever the
expansion rate.  ``sink`` is any callable accepting one string; the
default writes to ``sys.stderr`` so heartbeat lines never contaminate
machine-read stdout — *except* inside pool worker processes, where raw
writes to the inherited stderr interleave byte-for-byte with the
parent's and every other worker's output.  There the default sink
routes through the structured logger instead
(:mod:`repro.obs.logs`): correlated, one valid line per record, and
silent unless the process actually configured logging.
"""

from __future__ import annotations

import sys
import time

from repro.obs.logs import get_logger, in_worker_process


class ProgressReporter:
    """Rate-limited expansions/incumbent/gap heartbeat."""

    def __init__(
        self,
        interval: float = 5.0,
        sink=None,
        clock=time.monotonic,
    ):
        if interval <= 0:
            raise ValueError("interval must be positive")
        self.interval = interval
        self._sink = sink
        self._clock = clock
        self._last_time: float | None = None
        self._last_expansions = 0
        self.reports_emitted = 0
        self._expansions = 0
        self._incumbent: float | None = None
        self._gap: float | None = None

    def _emit(self, line: str) -> None:
        if self._sink is not None:
            self._sink(line)
        elif in_worker_process():
            # A pool worker shares its parent's stderr; raw prints from
            # several workers shred each other mid-line.  The logging
            # handler lock serializes whole records, and an unconfigured
            # worker logger simply drops them.
            get_logger("obs.progress").info(line)
        else:
            print(line, file=sys.stderr)
        self.reports_emitted += 1

    def update(self, name: str, value) -> None:
        """Take one gauge update from the probe; heartbeat per expansion."""
        if name == "repro_search_frontier_size":
            self._expansions += 1
            self.heartbeat(
                self._expansions,
                frontier_size=value,
                incumbent=self._incumbent,
                gap=self._gap,
            )
        elif name == "repro_search_incumbent_score":
            self._incumbent = value
        elif name == "repro_search_bound_gap":
            self._gap = value

    def heartbeat(
        self,
        expansions: int,
        frontier_size: int | None = None,
        incumbent: float | None = None,
        gap: float | None = None,
    ) -> bool:
        """Report if ``interval`` elapsed since the last report.

        Returns whether a line was emitted.  The first call only arms
        the clock — a heartbeat measures a *rate*, which needs two
        observations.
        """
        now = self._clock()
        if self._last_time is None:
            self._last_time = now
            self._last_expansions = expansions
            return False
        elapsed = now - self._last_time
        if elapsed < self.interval:
            return False
        rate = (expansions - self._last_expansions) / elapsed
        parts = [f"{expansions} expansions ({rate:,.0f}/s)"]
        if frontier_size is not None:
            parts.append(f"frontier {frontier_size}")
        if incumbent is not None:
            parts.append(f"incumbent {incumbent:.4f}")
        if gap is not None:
            parts.append(f"gap<={gap:.4f}")
        self._emit("[obs] " + ", ".join(parts))
        self._last_time = now
        self._last_expansions = expansions
        return True
