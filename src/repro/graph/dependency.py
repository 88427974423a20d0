"""Event dependency graphs (Definition 1).

Each event of a log becomes a vertex weighted with its normalized frequency
(fraction of traces containing it); each consecutive event pair with
non-zero frequency becomes an edge weighted with the fraction of traces in
which the pair occurs consecutively at least once.  Edges with frequency 0
are omitted, exactly as in the paper.
"""

from __future__ import annotations

from repro.graph.digraph import DiGraph
from repro.log.eventlog import EventLog


def dependency_graph(log: EventLog) -> DiGraph:
    """Build the event dependency graph of ``log``."""
    graph = DiGraph()
    for event in sorted(log.alphabet()):
        graph.add_vertex(event, log.vertex_frequency(event))
    for source, target in log.edges():
        graph.add_edge(source, target, log.edge_frequency(source, target))
    return graph

