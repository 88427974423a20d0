"""Heuristic event matching (Section 5).

Two heuristics are implemented:

* :class:`SimpleHeuristicMatcher` — the greedy variant sketched at the
  start of Section 5: commit, step by step, the single extension
  ``a → b`` with the maximum ``g + h``.  Fast, but local and unable to
  revise earlier decisions.
* :class:`AdvancedHeuristicMatcher` — the paper's Algorithm 3 rests on
  two pillars: a *global* estimation of every pair's contribution
  (θ scores, Formula 2, solved Kuhn–Munkres-style) and the ability to
  *revise* previously committed pairs.  This matcher realizes exactly
  those pillars: take the better of the θ-optimal assignment (our
  Hungarian substrate) and the greedy run, then revise it by pairwise
  re-assignment hill-climbing accepted on the *realized* pattern normal
  distance.  Its result never scores below the simple heuristic's, and
  with vertex-only patterns it is provably optimal (Proposition 6: θ
  equals the vertex normal distance there, so the phase-A assignment is
  already the global optimum).  The paper's literal alternating-tree
  search (Algorithms 3–4) is not implemented: measured against this
  matcher it scored far lower at no saving in time (DESIGN.md §5).

Both heuristics commit sources in the model's *anchored* order (most
frequency-identifiable event first, then maximal dependency-graph
anchoring; see :meth:`~repro.core.scoring.ScoreModel.heuristic_order`)
rather than the exact search's pattern-involvement order: a
commit-forever heuristic has to make its well-informed decisions first.
"""

from __future__ import annotations

import time
from collections.abc import Iterable, Mapping as MappingABC

from repro.assignment import max_weight_assignment
from repro.core.estimation import estimated_scores
from repro.core.mapping import Mapping
from repro.core.result import MatchOutcome
from repro.core.scoring import ScoreModel
from repro.core.stats import SearchStats
from repro.log.events import Event

#: Upper bound on hill-climbing sweeps of the revision phase.
MAX_REFINEMENT_PASSES = 20

#: How far below zero a revision move's gain bound must fall before the
#: move is rejected unscored.  A move is accepted when the float
#: ``g(candidate) > score + 1e-12``; ``g(candidate)`` and ``score`` are
#: each a left-to-right float sum of at most n = |P| contributions in
#: [0, 1].  The k-th partial sum is at most k and its addition rounds
#: by at most u·k (u = 2⁻⁵³), so each sum is within u·n(n+1)/2 of the
#: exact sum of its terms.  The bound adds at most n differences in
#: [-1, 1]: u per subtraction plus u·n(n+1)/2 for the additions.  Every
#: cap is ≥ the float contribution it stands for and every subtracted
#: term is the float ``score`` summed, so a move can pass the test only
#: if its computed bound is ≥ −u·(1.5·n² + 2.5·n).  That is above
#: −1e-6 for every n up to 75,000 patterns, far past what a revision
#: pass of O(|V|²) full-``g`` scorings can run.
MOVE_BOUND_MARGIN = 1e-6


def sanitize_warm_start(
    warm: MappingABC[Event, Event] | None,
    sources: Iterable[Event],
    targets: Iterable[Event],
) -> dict[Event, Event] | None:
    """Restrict a warm-start mapping to the current vocabularies.

    Drops pairs whose source or target no longer exists and keeps the
    first pair per target (injectivity).  Returns ``None`` when nothing
    survives — callers fall back to a cold start.
    """
    if warm is None:
        return None
    source_set = set(sources)
    target_set = set(targets)
    kept: dict[Event, Event] = {}
    used: set[Event] = set()
    for source, target in warm.items():
        if source in source_set and target in target_set and target not in used:
            kept[source] = target
            used.add(target)
    return kept or None


class SimpleHeuristicMatcher:
    """Greedy single-expansion heuristic (Section 5, first paragraph)."""

    def __init__(self, model: ScoreModel):
        self.model = model

    def match(self) -> MatchOutcome:
        model = self.model
        stats = SearchStats()
        with model.probe.span("heuristic.greedy"):
            mapping = self._greedy_mapping(stats)
        model.collect_frequency_evaluations(stats)
        return MatchOutcome(Mapping(mapping), model.g(mapping), stats)

    def _greedy_mapping(
        self, stats: SearchStats, deadline: float | None = None
    ) -> dict[Event, Event] | None:
        """One anchored-order greedy pass, shared with the advanced matcher.

        Returns ``None`` when the ``time.monotonic()`` instant
        ``deadline`` passes before a source step.
        """
        model = self.model
        order = model.heuristic_order()
        unmapped_targets = list(model.target_events)
        mapping: dict[Event, Event] = {}
        g = 0.0

        steps = min(len(order), len(unmapped_targets))
        for depth in range(steps):
            if deadline is not None and time.monotonic() > deadline:
                return None
            source = order[depth]
            best: tuple[float, float, Event] | None = None
            for target in unmapped_targets:
                candidate = dict(mapping)
                candidate[source] = target
                candidate_g = g + model.g_increment(source, candidate, stats)
                stats.processed_mappings += 1
                remaining = [t for t in unmapped_targets if t != target]
                candidate_h = model.h(candidate, remaining)
                priority = candidate_g + candidate_h
                # Strict improvement keeps ties on the first (smallest)
                # target, so runs are deterministic.
                if best is None or priority > best[0] + 1e-12:
                    best = (priority, candidate_g, target)
            assert best is not None
            _, g, chosen = best
            mapping[source] = chosen
            unmapped_targets.remove(chosen)
        return mapping


class AdvancedHeuristicMatcher:
    """Globally estimated, revisable heuristic matching (Section 5.1).

    Parameters
    ----------
    model:
        The shared scoring model.
    initial_mapping:
        Optional warm-start seed (e.g. the previous epoch's mapping in
        the streaming engine), considered as a third candidate alongside
        the θ-assignment and the greedy pass — when the logs have only
        drifted slightly, revision starts from a near-optimal point and
        converges in a pass or two.  Pairs whose source/target fell out
        of the current vocabularies are dropped.
    deadline:
        Optional ``time.monotonic()`` instant at which the run stops
        early, checked once per greedy source step and once per
        revision move.  A greedy pass it cuts contributes no seed; a
        revision it cuts returns its current accepted mapping, which is
        always complete.  ``None`` (the default) never checks the clock.
    """

    def __init__(
        self,
        model: ScoreModel,
        initial_mapping: MappingABC[Event, Event] | None = None,
        deadline: float | None = None,
    ):
        self.model = model
        self.initial_mapping = sanitize_warm_start(
            initial_mapping, model.source_events, model.target_events
        )
        self.deadline = deadline

    def match(self) -> MatchOutcome:
        model = self.model
        if not model.source_events or not model.target_events:
            return MatchOutcome(Mapping({}), 0.0, SearchStats())
        probe = model.probe
        stats = SearchStats()
        sources = list(model.source_events)
        targets = list(model.target_events)

        # Phase A: Q-optimal assignment of the θ estimates (global view).
        with probe.span("heuristic.assignment", sources=len(sources)):
            theta = estimated_scores(model)
            weights = [[theta[s][t] for t in targets] for s in sources]
            assignment, _ = max_weight_assignment(weights)
            km_mapping = {sources[i]: targets[j] for i, j in assignment.items()}
            stats.processed_mappings += len(sources) * len(targets)

        # Phase B: the greedy pass; start revision from the best seed —
        # θ-assignment, greedy, or (when given) the warm start — so the
        # advanced heuristic never scores below the simple one, and a
        # still-good previous mapping survives re-matching untouched.
        with probe.span("heuristic.greedy"):
            greedy_mapping = SimpleHeuristicMatcher(model)._greedy_mapping(
                stats, self.deadline
            )
        seeds = [(model.g(km_mapping, stats), km_mapping)]
        if greedy_mapping is not None:
            seeds.append((model.g(greedy_mapping, stats), greedy_mapping))
        if self.initial_mapping is not None:
            warm_mapping = self._complete(dict(self.initial_mapping), stats)
            seeds.append((model.g(warm_mapping, stats), warm_mapping))
        score, mapping = max(seeds, key=lambda seed: seed[0])

        # Phase C: revise earlier decisions — pairwise target swaps and
        # re-assignments onto unused targets, accepted on realized score.
        with probe.span("heuristic.refine"):
            mapping, score = self._hill_climb(mapping, score, targets, stats)

        model.collect_frequency_evaluations(stats)
        return MatchOutcome(Mapping(mapping), score, stats)

    def _complete(
        self, mapping: dict[Event, Event], stats: SearchStats
    ) -> dict[Event, Event]:
        """Extend a partial warm-start seed over the remaining sources.

        Each still-unmapped source (in the anchored heuristic order)
        greedily takes the unused target with the best realized score
        increment; the later hill-climb can revise any of it.
        """
        model = self.model
        used = set(mapping.values())
        free_targets = [t for t in model.target_events if t not in used]
        for source in model.heuristic_order():
            if not free_targets:
                break
            if source in mapping:
                continue
            best_target = None
            best_increment = float("-inf")
            for target in free_targets:
                candidate = dict(mapping)
                candidate[source] = target
                stats.processed_mappings += 1
                increment = model.g_increment(source, candidate, stats)
                if increment > best_increment + 1e-12:
                    best_increment = increment
                    best_target = target
            assert best_target is not None
            mapping[source] = best_target
            free_targets.remove(best_target)
        return mapping

    def _hill_climb(
        self,
        mapping: dict[Event, Event],
        score: float,
        targets: list[Event],
        stats: SearchStats,
    ) -> tuple[dict[Event, Event], float]:
        """Pairwise swaps and re-assignments, accepted on realized score.

        Every move counts as a processed mapping.  A move only changes
        the contributions of the fully mapped patterns in ``I_p`` of its
        moved sources, so Σ ``contribution_cap`` − current contribution
        over those patterns bounds its gain from above; a move whose
        bound is below −:data:`MOVE_BOUND_MARGIN` cannot pass the
        acceptance test and is rejected without scanning a trace.  Every
        other move is scored with the full ``g``, exactly as if no bound
        existed.  Once ``deadline`` passes, the climb stops before its
        next move.
        """
        model = self.model
        probe = model.probe
        deadline = self.deadline
        # Contributions under the current ``mapping``; reset on accept.
        current: dict = {}
        for sweep in range(MAX_REFINEMENT_PASSES):
            if probe.enabled:
                probe.count("repro_heuristic_passes_total")
                probe.gauge("repro_search_incumbent_score", score)
            improved = False
            sources = sorted(mapping)
            unused = [t for t in targets if t not in mapping.values()]
            for i, first in enumerate(sources):
                for second in sources[i + 1:]:
                    if deadline is not None and time.monotonic() > deadline:
                        return mapping, score
                    candidate = dict(mapping)
                    candidate[first], candidate[second] = (
                        candidate[second],
                        candidate[first],
                    )
                    stats.processed_mappings += 1
                    if self._gain_bound(
                        mapping, candidate, (first, second), current
                    ) < -MOVE_BOUND_MARGIN:
                        continue
                    candidate_score = model.g(candidate, stats)
                    if candidate_score > score + 1e-12:
                        mapping, score = candidate, candidate_score
                        current = {}
                        improved = True
            for source in sources:
                for target in unused:
                    if deadline is not None and time.monotonic() > deadline:
                        return mapping, score
                    candidate = dict(mapping)
                    candidate[source] = target
                    stats.processed_mappings += 1
                    if self._gain_bound(
                        mapping, candidate, (source,), current
                    ) < -MOVE_BOUND_MARGIN:
                        continue
                    candidate_score = model.g(candidate, stats)
                    if candidate_score > score + 1e-12:
                        mapping, score = candidate, candidate_score
                        current = {}
                        improved = True
                        unused = [
                            t for t in targets if t not in mapping.values()
                        ]
            if not improved:
                break
        return mapping, score

    def _gain_bound(
        self,
        mapping: dict[Event, Event],
        candidate: dict[Event, Event],
        moved: tuple[Event, ...],
        current: dict,
    ) -> float:
        """Upper bound on ``g(candidate) − g(mapping)`` for one move.

        Only the fully mapped patterns holding a moved source can change
        (a move keeps the mapped source set), each at most from its
        current contribution — cached in ``current`` — to its
        :meth:`~repro.core.scoring.ScoreModel.contribution_cap`.
        """
        model = self.model
        mapped = mapping.keys()
        bound = 0.0
        for position, source in enumerate(moved):
            for pattern in model.index.involving(source):
                events = model.event_set(pattern)
                if not events <= mapped:
                    continue
                if position and moved[0] in events:
                    continue  # a swap's shared pattern, already counted
                before = current.get(pattern)
                if before is None:
                    before = current[pattern] = model.contribution(
                        pattern, mapping
                    )
                bound += model.contribution_cap(pattern, candidate) - before
        return bound
