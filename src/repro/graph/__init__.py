"""Graph substrate: labeled directed graphs and dependency graphs.

Built from scratch (no networkx): the matching algorithms need only a small
directed-graph core — frequency-labeled vertices and edges (Definition 1),
adjacency queries, induced subgraphs — plus the injective subgraph check
behind the Proposition 3 pruning rule.
"""

from repro.graph.digraph import DiGraph
from repro.graph.dependency import dependency_graph
from repro.graph.dot import matching_to_dot, to_dot
from repro.graph.isomorphism import (
    find_subgraph_embedding,
    is_subgraph,
    subgraph_embeddings,
)

__all__ = [
    "DiGraph",
    "dependency_graph",
    "find_subgraph_embedding",
    "is_subgraph",
    "matching_to_dot",
    "subgraph_embeddings",
    "to_dot",
]
