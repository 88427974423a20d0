"""Event-log substrate: traces, logs, I/O, indices and statistics.

This package provides the data model the rest of the library is built on.
An :class:`~repro.log.eventlog.EventLog` is a collection of
:class:`~repro.log.events.Trace` objects, each an ordered sequence of event
names.  It plays the role pm4py-style logs play in the paper's experiments:
logs can be read from and written to CSV (`repro.log.csvio`) and an XES
subset (`repro.log.xes`) and projected onto event or trace subsets.  Each
log owns one trace index ``I_t`` (`repro.log.index`) that its statistics
and the pattern-frequency kernel all read.
"""

from repro.log.events import Event, Trace
from repro.log.eventlog import EventLog, StaleIndexError
from repro.log.index import TraceIndex
from repro.log.statistics import LogCharacteristics, characterize

__all__ = [
    "Event",
    "Trace",
    "EventLog",
    "StaleIndexError",
    "TraceIndex",
    "LogCharacteristics",
    "characterize",
]
