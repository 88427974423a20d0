"""Heuristic event matching (Section 5).

Two heuristics are implemented:

* :class:`SimpleHeuristicMatcher` — the greedy variant sketched at the
  start of Section 5: commit, step by step, the single extension
  ``a → b`` with the maximum ``g + h``.  Fast, but local and unable to
  revise earlier decisions.
* :class:`AdvancedHeuristicMatcher` — the paper's Algorithm 3 rests on
  two pillars: a *global* estimation of every pair's contribution
  (θ scores, Formula 2, solved Kuhn–Munkres-style) and the ability to
  *revise* previously committed pairs.  The default strategy
  (``"refine"``) realizes exactly those pillars: take the better of the
  θ-optimal assignment (our Hungarian substrate) and the greedy run,
  then revise it by pairwise re-assignment hill-climbing accepted on the
  *realized* pattern normal distance.  Its result never scores below the
  simple heuristic's, and with vertex-only patterns it is provably
  optimal (Proposition 6: θ equals the vertex normal distance there, so
  the phase-A assignment is already the global optimum).

  ``strategy="faithful"`` instead runs Algorithm 3 literally —
  alternating trees over the θ equality graph (Algorithm 4), augmenting
  paths scored by ``g + h``, labels committed per augmentation.  On logs
  whose θ matrix is nearly flat (vertex frequencies concentrated near
  1.0) the literal algorithm's committed reroutes are driven by noise
  and it can underperform the simple heuristic; it is kept for
  reproduction fidelity and studied in the ablation benchmarks.

Both heuristics commit sources in the model's *anchored* order (most
frequency-identifiable event first, then maximal dependency-graph
anchoring; see :meth:`~repro.core.scoring.ScoreModel.heuristic_order`)
rather than the exact search's pattern-involvement order: a
commit-forever heuristic has to make its well-informed decisions first.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping as MappingABC

from repro.assignment import max_weight_assignment
from repro.core.estimation import estimated_scores
from repro.core.labeling import augment, build_alternating_tree, initial_labels
from repro.core.mapping import Mapping
from repro.core.result import MatchOutcome
from repro.core.scoring import ScoreModel
from repro.core.stats import SearchStats
from repro.log.events import Event

_DUMMY_PREFIX = "\x00dummy"


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

    def _greedy_mapping(self, stats: SearchStats) -> dict[Event, Event]:
        """One anchored-order greedy pass, shared with the advanced matcher."""
        model = self.model
        order = model.heuristic_order()
        unmapped_targets = list(model.target_events)
        mapping: dict[Event, Event] = {}
        g = 0.0

        steps = min(len(order), len(unmapped_targets))
        for depth in range(steps):
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
    strategy:
        ``"refine"`` (default) or ``"faithful"`` — see the module
        docstring.
    max_refinement_passes:
        Upper bound on hill-climbing sweeps of the refine strategy.
    initial_mapping:
        Optional warm-start seed (e.g. the previous epoch's mapping in
        the streaming engine).  The refine strategy considers it as a
        third candidate alongside the θ-assignment and the greedy pass —
        when the logs have only drifted slightly, revision starts from a
        near-optimal point and converges in a pass or two.  Pairs whose
        source/target fell out of the current vocabularies are dropped;
        the ``"faithful"`` strategy ignores the seed (Algorithm 3 has no
        warm-start notion).
    """

    def __init__(
        self,
        model: ScoreModel,
        strategy: str = "refine",
        max_refinement_passes: int = 20,
        initial_mapping: MappingABC[Event, Event] | None = None,
    ):
        if strategy not in ("refine", "faithful"):
            raise ValueError(f"unknown strategy {strategy!r}")
        self.model = model
        self.strategy = strategy
        self.max_refinement_passes = max_refinement_passes
        self.initial_mapping = sanitize_warm_start(
            initial_mapping, model.source_events, model.target_events
        )

    def match(self) -> MatchOutcome:
        if not self.model.source_events or not self.model.target_events:
            return MatchOutcome(Mapping({}), 0.0, SearchStats())
        if self.strategy == "faithful":
            return self._match_faithful()
        return self._match_refine()

    # ------------------------------------------------------------------
    # Default strategy: θ-assignment + greedy, then realized-score revision
    # ------------------------------------------------------------------
    def _match_refine(self) -> MatchOutcome:
        model = self.model
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
            greedy_mapping = SimpleHeuristicMatcher(model)._greedy_mapping(stats)
        seeds = [
            (model.g(km_mapping, stats), km_mapping),
            (model.g(greedy_mapping, stats), greedy_mapping),
        ]
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
        model = self.model
        probe = model.probe
        for sweep in range(self.max_refinement_passes):
            if probe.enabled:
                probe.count("repro_heuristic_passes_total")
                probe.gauge("repro_search_incumbent_score", score)
            improved = False
            sources = sorted(mapping)
            unused = [t for t in targets if t not in mapping.values()]
            for i, first in enumerate(sources):
                for second in sources[i + 1:]:
                    candidate = dict(mapping)
                    candidate[first], candidate[second] = (
                        candidate[second],
                        candidate[first],
                    )
                    stats.processed_mappings += 1
                    candidate_score = model.g(candidate, stats)
                    if candidate_score > score + 1e-12:
                        mapping, score = candidate, candidate_score
                        improved = True
            for source in sources:
                for target in unused:
                    candidate = dict(mapping)
                    candidate[source] = target
                    stats.processed_mappings += 1
                    candidate_score = model.g(candidate, stats)
                    if candidate_score > score + 1e-12:
                        mapping, score = candidate, candidate_score
                        improved = True
                        unused = [
                            t for t in targets if t not in mapping.values()
                        ]
            if not improved:
                break
        return mapping, score

    # ------------------------------------------------------------------
    # Faithful strategy: Algorithm 3 literally
    # ------------------------------------------------------------------
    def _match_faithful(self) -> MatchOutcome:
        with self.model.probe.span("heuristic.faithful"):
            return self._match_faithful_inner()

    def _match_faithful_inner(self) -> MatchOutcome:
        model = self.model
        stats = SearchStats()
        sources = list(model.source_events)
        targets = list(model.target_events)

        theta = estimated_scores(model)
        padded_sources, padded_targets = self._pad(sources, targets, theta)
        labels = initial_labels(theta, padded_sources, padded_targets)
        matching: dict[Event, Event] = {}
        real_targets = set(targets)
        order = model.heuristic_order() + [
            source for source in padded_sources if _is_dummy(source)
        ]

        while len(matching) < len(padded_sources):
            root = next(source for source in order if source not in matching)
            scoring = not _is_dummy(root)

            tree = build_alternating_tree(
                root, theta, labels, matching, padded_targets
            )
            stats.label_updates += tree.label_updates
            best_score = float("-inf")
            best_matching: dict[Event, Event] | None = None
            for path in tree.augmenting_paths(matching):
                candidate = augment(matching, path)
                if not scoring:
                    # Only artificial sources remain: any augmentation is
                    # as good as any other, commit the first.
                    best_matching = candidate
                    break
                stats.processed_mappings += 1
                real_mapping = {
                    s: t
                    for s, t in candidate.items()
                    if not _is_dummy(s) and not _is_dummy(t)
                }
                unmapped = [
                    t for t in real_targets if t not in real_mapping.values()
                ]
                score = model.g(real_mapping, stats) + model.h(
                    real_mapping, unmapped
                )
                if score > best_score + 1e-12:
                    best_score = score
                    best_matching = candidate

            assert best_matching is not None
            matching = best_matching
            labels = tree.labels

        final = Mapping(
            {
                source: target
                for source, target in matching.items()
                if not _is_dummy(source) and not _is_dummy(target)
            }
        )
        model.collect_frequency_evaluations(stats)
        return MatchOutcome(final, model.g(final), stats)

    @staticmethod
    def _pad(
        sources: list[Event],
        targets: list[Event],
        theta: dict[Event, dict[Event, float]],
    ) -> tuple[list[Event], list[Event]]:
        """Equalize side sizes with artificial zero-θ events.

        ``theta`` is extended in place with the dummy rows/columns.
        """
        padded_sources = list(sources)
        padded_targets = list(targets)
        while len(padded_sources) < len(padded_targets):
            dummy = f"{_DUMMY_PREFIX}:s{len(padded_sources)}"
            padded_sources.append(dummy)
        while len(padded_targets) < len(padded_sources):
            dummy = f"{_DUMMY_PREFIX}:t{len(padded_targets)}"
            padded_targets.append(dummy)
        for source in padded_sources:
            row = theta.setdefault(source, {})
            for target in padded_targets:
                if target not in row:
                    row[target] = 0.0
        return padded_sources, padded_targets


def _is_dummy(event: Event) -> bool:
    return event.startswith(_DUMMY_PREFIX)
