"""repro — Matching Heterogeneous Events with Patterns.

A complete reproduction of Song et al., *"Matching Heterogeneous Events
with Patterns"* (ICDE 2014; extended in IEEE TKDE 29(8), 2017): matching
the event vocabularies of two heterogeneous event logs by maximizing the
pattern normal distance over SEQ/AND event patterns, with the paper's
exact A* search, simple/tight pruning bounds, two heuristics and all four
baselines.

Quickstart::

    from repro import EventLog, match, parse_pattern

    log_1 = EventLog([list("ABCDE"), list("ACBDF")])
    log_2 = EventLog([list("34567"), list("35468")])
    result = match(log_1, log_2,
                   patterns=[parse_pattern("SEQ(A, AND(B, C), D)")])
    print(result.mapping)
"""

from repro.core.bounds import BoundKind
from repro.core.mapping import Mapping
from repro.core.matcher import (
    METHODS, EventMatcher, MatchOptions, MatchResult, match,
)
from repro.log.eventlog import EventLog
from repro.log.events import Event, Trace
from repro.patterns.ast import AND, SEQ, EventPattern, Pattern, and_, event, seq
from repro.patterns.parser import parse_pattern

__version__ = "1.0.0"

__all__ = [
    "AND",
    "BoundKind",
    "Event",
    "EventLog",
    "EventMatcher",
    "EventPattern",
    "METHODS",
    "Mapping",
    "MatchOptions",
    "MatchResult",
    "Pattern",
    "SEQ",
    "Trace",
    "and_",
    "event",
    "match",
    "parse_pattern",
    "seq",
    "__version__",
]
