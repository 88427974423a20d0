"""Matching core: distances, exact A* search, bounds and heuristics.

Public entry points:

* :func:`~repro.core.matcher.match` / :class:`~repro.core.matcher.EventMatcher`
  — one-call facade over all methods, driven by one validated
  :class:`~repro.core.matcher.MatchOptions` recipe;
* :class:`~repro.core.astar.AStarMatcher` — exact optimal matching
  (Algorithm 1) with pluggable bounds;
* :class:`~repro.core.heuristic.SimpleHeuristicMatcher` and
  :class:`~repro.core.heuristic.AdvancedHeuristicMatcher` — the paper's two
  heuristics (Section 5): greedy, and θ-assignment plus revision.
"""

from repro.core.astar import AStarMatcher
from repro.core.bounds import BoundKind, upper_bound
from repro.core.distance import (
    frequency_similarity,
    normal_distance_vertex,
    normal_distance_vertex_edge,
    pattern_normal_distance,
)
from repro.core.heuristic import AdvancedHeuristicMatcher, SimpleHeuristicMatcher
from repro.core.mapping import Mapping
from repro.core.matcher import EventMatcher, MatchOptions, MatchResult, match
from repro.core.stats import SearchStats

__all__ = [
    "AStarMatcher",
    "AdvancedHeuristicMatcher",
    "BoundKind",
    "EventMatcher",
    "Mapping",
    "MatchOptions",
    "MatchResult",
    "SearchStats",
    "SimpleHeuristicMatcher",
    "frequency_similarity",
    "match",
    "normal_distance_vertex",
    "normal_distance_vertex_edge",
    "pattern_normal_distance",
    "upper_bound",
]
