"""Exact event matching by A* search (Algorithm 1).

The search tree's nodes are partial mappings.  The expansion order over
``V1`` is fixed up-front by descending pattern involvement (Section 3.1),
so a node at depth ``d`` always maps the first ``d`` events of that order;
each expansion tries every still-unused target ``b ∈ U2``.  Nodes are
prioritized by ``g + h`` where ``g`` is the realized pattern normal
distance (computed incrementally via the ``I_p`` index, Section 3.2) and
``h`` an admissible bound on the remainder (Sections 3.3–4).  The first
complete mapping popped is optimal.

Budgets (wall-clock seconds and expanded nodes) turn intractable instances
into an *anytime* answer instead of a hang: the search keeps the best
complete incumbent mapping seen so far, and on budget exhaustion returns
it flagged ``degraded=True`` together with an optimality-gap bound (the
best open ``g + h`` on the frontier upper-bounds the optimum, so
``gap = best_open_f - incumbent_score`` bounds how much better the true
optimum can be).  ``strict=True`` restores the historical behaviour of
raising :class:`SearchBudgetExceeded` — the paper's Figure 12 reports
exactly such did-not-finish outcomes beyond 20 events, and the evaluation
harness runs strict to keep its DNF rows honest.
"""

from __future__ import annotations

import heapq
import itertools
import time

from repro.core.bounds import BoundKind
from repro.core.mapping import Mapping
from repro.core.result import MatchOutcome
from repro.core.scoring import ScoreModel
from repro.core.stats import SearchStats
from repro.log.events import Event


class SearchBudgetExceeded(RuntimeError):
    """Raised when a search exceeds its node or time budget."""

    def __init__(self, message: str, stats: SearchStats):
        super().__init__(message)
        self.stats = stats


class AStarMatcher:
    """Optimal pattern-based event matching (Algorithm 1).

    Parameters
    ----------
    model:
        The :class:`~repro.core.scoring.ScoreModel` holding logs, patterns
        and the bound kind (``BoundKind.TIGHT`` reproduces Pattern-Tight,
        ``BoundKind.SIMPLE`` Pattern-Simple).
    node_budget:
        Maximum number of expanded tree nodes before giving up.
    time_budget:
        Maximum wall-clock seconds before giving up.
    incumbent_score:
        Optional known-achievable score (e.g. from a heuristic run).
        Children whose ``g + h`` falls strictly below it are not pushed;
        this prunes memory without affecting optimality.
    incumbent_mapping:
        The mapping realizing ``incumbent_score``.  When complete, it
        seeds the anytime incumbent, so a degraded (budget-exhausted)
        outcome can never score below a warm start it was given.
    strict:
        When ``True``, budget exhaustion raises
        :class:`SearchBudgetExceeded` (the pre-anytime behaviour).  The
        default returns the best incumbent complete mapping, flagged
        ``degraded`` with an optimality-gap bound.
    root_targets:
        Restrict the *root* expansion (``order[0] → b``) to these
        targets — the root-split sharding substrate of
        :mod:`repro.parallel.search`.  Deeper levels still consider every
        unused target.  A shard search may exhaust its frontier without
        reaching a goal (every branch pruned by a foreign incumbent);
        it then returns an outcome with an empty mapping, score
        ``-inf`` and ``stats.extra["frontier_exhausted"] = 1`` instead
        of raising.  ``None`` (the default) keeps the historical
        behaviour exactly.
    incumbent_sync:
        Duck-typed cross-process incumbent channel with ``peek() ->
        float`` and ``offer(score) -> float`` (see
        :class:`repro.parallel.search.SharedIncumbent`).  Every
        ``sync_interval`` expansions the search reads the shared best
        score and, when it exceeds the local pruning threshold, adopts
        it; local incumbent improvements are offered back.  Pruning
        stays admissible because any shared score is the realized score
        of a *complete* mapping somewhere, hence a lower bound on the
        global optimum — strictly-below pruning against it never
        discards an optimal branch.
    sync_interval:
        Expansions between ``incumbent_sync`` polls.
    dominated_at:
        Dominance threshold for sharded searches: the *realized* score
        of a complete mapping the caller holds and will fall back to.
        Children whose ``g + h`` cannot beat it by more than the fp
        tolerance (``priority <= dominated_at + 1e-12``) are pruned —
        including exact ties.  This is stronger than ``incumbent_score``
        (which keeps ties): it is what lets a shard that does not own a
        strictly better mapping terminate after expanding only its
        already-open frontier, instead of draining the huge plateau of
        nodes whose optimistic ``g + h`` sits within the tolerance of
        the incumbent.  Sound only because the caller's fallback mapping
        realizes ``dominated_at``: every pruned completion scores at
        most ``dominated_at + 1e-12``, which the caller's merge treats
        as not better.  Intended for shard searches (``root_targets``);
        frontier exhaustion is then a legal outcome, not an error.
    """

    def __init__(
        self,
        model: ScoreModel,
        node_budget: int | None = None,
        time_budget: float | None = None,
        incumbent_score: float | None = None,
        incumbent_mapping: dict[Event, Event] | None = None,
        strict: bool = False,
        root_targets: list[Event] | None = None,
        incumbent_sync=None,
        sync_interval: int = 128,
        dominated_at: float | None = None,
    ):
        self.model = model
        self.node_budget = node_budget
        self.time_budget = time_budget
        self.incumbent_score = incumbent_score
        self.incumbent_mapping = incumbent_mapping
        self.strict = strict
        self.root_targets = root_targets
        self.incumbent_sync = incumbent_sync
        self.sync_interval = max(1, sync_interval)
        self.dominated_at = dominated_at

    @property
    def bound(self) -> BoundKind:
        return self.model.bound

    def match(self) -> MatchOutcome:
        """Run the search and return the optimal mapping."""
        probe = self.model.probe
        if not probe.enabled:
            return self._search(probe)
        with probe.span(
            "astar.search",
            sources=len(self.model.source_events),
            targets=len(self.model.target_events),
            bound=self.bound.name.lower(),
        ):
            return self._search(probe)

    def _search(self, probe) -> MatchOutcome:
        model = self.model
        stats = SearchStats()
        order: list[Event] = model.index.expansion_order(model.source_events)
        targets: list[Event] = list(model.target_events)
        goal_depth = min(len(order), len(targets))
        started = time.monotonic()
        tiebreak = itertools.count()

        dominated_at = self.dominated_at
        # Shard searches also drop nodes at *pop* time (see below); the
        # serial search never needs to — its goal always sits at the top
        # of the frontier when pruning thresholds catch up — and keeping
        # the historical pop path byte-identical is what the equality
        # tests pin.
        shard_mode = self.root_targets is not None or dominated_at is not None

        root_mapping: dict[Event, Event] = {}
        root_priority = model.h(root_mapping, targets)
        # Heap entries:
        #   (-(g+h), -depth, tiebreak, depth, g, mapping, h_exact)
        # Ties on g+h prefer deeper nodes, which walks score plateaus
        # straight down to a goal instead of draining them breadth-first.
        # Children are pushed with their *parent's* h ("lazy A*"): h is
        # monotone non-increasing along tree edges (availability only
        # shrinks, completed patterns move from h into g), so the stale
        # key upper-bounds the true g+h and popping order stays correct.
        # A stale node is re-keyed with its exact h on first pop; only
        # nodes that actually reach the top of the frontier ever pay for
        # an h evaluation.
        frontier: list[
            tuple[float, int, int, int, float, dict[Event, Event], bool]
        ] = [(-root_priority, 0, next(tiebreak), 0, 0.0, root_mapping, True)]

        # Best complete mapping generated so far: (score, mapping).  Kept
        # even though the search would eventually pop the optimum, so a
        # budget overrun has an incumbent to degrade to.
        best_complete: tuple[float, dict[Event, Event]] | None = None
        if (
            self.incumbent_mapping is not None
            and self.incumbent_score is not None
            and len(self.incumbent_mapping) == goal_depth
        ):
            best_complete = (
                self.incumbent_score,
                dict(self.incumbent_mapping),
            )
        # Achievable-score threshold for strictly-below child pruning;
        # tightened whenever the incumbent improves.
        prune_at = self.incumbent_score

        sync = self.incumbent_sync
        sync_interval = self.sync_interval
        next_sync = sync_interval

        while frontier:
            if sync is not None and stats.expanded_nodes >= next_sync:
                next_sync = stats.expanded_nodes + sync_interval
                shared_best = sync.peek()
                if shared_best > float("-inf") and (
                    prune_at is None or shared_best > prune_at
                ):
                    # A shared score is realized by a complete mapping in
                    # some shard — an achievable lower bound on the
                    # optimum, so adopting it keeps pruning admissible.
                    prune_at = shared_best
                    stats.extra["incumbent_syncs"] = (
                        stats.extra.get("incumbent_syncs", 0) + 1
                    )
            if self.node_budget is not None and stats.expanded_nodes >= self.node_budget:
                if self.strict:
                    model.collect_frequency_evaluations(stats)
                    raise SearchBudgetExceeded(
                        f"node budget {self.node_budget} exhausted", stats
                    )
                return self._degraded_outcome(
                    order, targets, goal_depth, frontier, best_complete, stats
                )
            if (
                self.time_budget is not None
                and time.monotonic() - started > self.time_budget
            ):
                if self.strict:
                    model.collect_frequency_evaluations(stats)
                    raise SearchBudgetExceeded(
                        f"time budget {self.time_budget}s exhausted", stats
                    )
                return self._degraded_outcome(
                    order, targets, goal_depth, frontier, best_complete, stats
                )

            negative_key, _, _, depth, g, mapping, h_exact = heapq.heappop(frontier)
            if depth == goal_depth:
                stats.expanded_nodes += 1
                if probe.enabled:
                    probe.gauge("repro_search_incumbent_score", g)
                    probe.gauge("repro_search_bound_gap", 0.0)
                    probe.gauge("repro_search_frontier_size", len(frontier))
                model.collect_frequency_evaluations(stats)
                return MatchOutcome(Mapping(mapping), g, stats)
            if shard_mode:
                # Pop-side pruning: children enter the frontier under
                # their parent's stale (over-estimating) h, so the
                # push-side checks miss most of what a foreign incumbent
                # or the dominance threshold has since invalidated.  The
                # popped key — stale or exact — upper-bounds every
                # completion below this node, so when it already cannot
                # beat the thresholds, the whole subtree is dropped for
                # the cost of one heap pop, without even refreshing h.
                # This is what lets a shard *terminate*: under dominance
                # its own goal children are never pushed, so it must run
                # its frontier dry, and draining by dropping is cheaper
                # than expansion by orders of magnitude.
                f_upper = -negative_key
                if (
                    prune_at is not None and f_upper < prune_at - 1e-12
                ) or (
                    dominated_at is not None and f_upper <= dominated_at + 1e-12
                ):
                    stats.extra["dropped_on_pop"] = (
                        stats.extra.get("dropped_on_pop", 0) + 1
                    )
                    continue
            if not h_exact:
                used = set(mapping.values())
                remaining = [t for t in targets if t not in used]
                refreshed = g + model.h(mapping, remaining)
                if refreshed < -negative_key - 1e-12:
                    # The exact key is lower: re-queue and let the
                    # frontier decide again.
                    heapq.heappush(
                        frontier,
                        (-refreshed, -depth, next(tiebreak), depth, g, mapping, True),
                    )
                    continue
            stats.expanded_nodes += 1
            if probe.enabled:
                # The popped key is this node's f = g + h (exact after a
                # re-key); with an incumbent it bounds the optimality gap.
                # The frontier gauge goes last: a heartbeat reads it as
                # one expansion, with the incumbent and gap set before.
                f_value = (-negative_key) if h_exact else refreshed
                expansion_span = probe.begin_span(
                    "astar.expand", depth=depth, f=round(f_value, 6)
                )
                if best_complete is not None:
                    incumbent = best_complete[0]
                    probe.gauge("repro_search_incumbent_score", incumbent)
                    probe.gauge(
                        "repro_search_bound_gap",
                        max(0.0, f_value - incumbent),
                    )
                probe.gauge("repro_search_frontier_size", len(frontier))

            source = order[depth]
            used_targets = set(mapping.values())
            child_depth = depth + 1
            parent_h = -negative_key - g if h_exact else refreshed - g
            candidates = (
                self.root_targets
                if depth == 0 and self.root_targets is not None
                else targets
            )
            for target in candidates:
                if target in used_targets:
                    continue
                child = dict(mapping)
                child[source] = target
                child_g = g + model.g_increment(source, child, stats)
                stats.processed_mappings += 1
                if child_depth == goal_depth:
                    child_h, child_exact = 0.0, True
                    if best_complete is None or child_g > best_complete[0]:
                        best_complete = (child_g, child)
                        stats.incumbent_updates += 1
                        if sync is not None:
                            sync.offer(child_g)
                        if prune_at is None or child_g > prune_at:
                            prune_at = child_g
                else:
                    child_h, child_exact = parent_h, False
                priority = child_g + child_h
                if prune_at is not None and priority < prune_at - 1e-12:
                    stats.pruned_by_bound += 1
                    continue
                if dominated_at is not None and priority <= dominated_at + 1e-12:
                    stats.extra["pruned_dominated"] = (
                        stats.extra.get("pruned_dominated", 0) + 1
                    )
                    continue
                heapq.heappush(
                    frontier,
                    (
                        -priority,
                        -child_depth,
                        next(tiebreak),
                        child_depth,
                        child_g,
                        child,
                        child_exact,
                    ),
                )
            if probe.enabled:
                probe.end_span(expansion_span, children=len(targets) - depth)

        # The root is itself a goal when goal_depth == 0, and children are
        # always pushed otherwise — unless incumbent pruning dropped every
        # branch, which can only happen with an unachievable incumbent.
        model.collect_frequency_evaluations(stats)
        if self.root_targets is not None or self.dominated_at is not None:
            # Shard mode: a foreign (shared or warm-start) incumbent or
            # the dominance threshold can legitimately prune this
            # shard's every branch — every pruned key was strictly below
            # an achieved score elsewhere, or within the fp tolerance of
            # the caller's fallback mapping, so the shard holds nothing
            # the merge would keep.  Report that instead of failing the
            # parallel run.
            if best_complete is not None:
                score, mapping = best_complete
                return MatchOutcome(Mapping(mapping), score, stats)
            stats.extra["frontier_exhausted"] = 1
            return MatchOutcome(Mapping({}), float("-inf"), stats)
        raise RuntimeError(
            "search frontier exhausted without reaching a goal; "
            "incumbent_score exceeds the optimal score"
        )

    # ------------------------------------------------------------------
    # Anytime degradation
    # ------------------------------------------------------------------
    def _degraded_outcome(
        self,
        order: list[Event],
        targets: list[Event],
        goal_depth: int,
        frontier: list,
        best_complete: tuple[float, dict[Event, Event]] | None,
        stats: SearchStats,
    ) -> MatchOutcome:
        """The best-effort answer once a budget trips.

        The incumbent is the better of (a) the best complete mapping the
        search generated on its own and (b) a greedy completion of the
        most promising open node.  The optimality gap is bounded by the
        best ``g + h`` key left on the frontier: keys upper-bound the
        true ``g + h`` of their node (lazy parent-h), and every complete
        mapping not yet generated descends from some open node, so no
        mapping can score above the frontier's best key.
        """
        candidates: list[tuple[float, dict[Event, Event]]] = []
        upper = None
        if best_complete is not None:
            candidates.append(best_complete)
        if frontier:
            upper = -frontier[0][0]
            _, _, _, depth, g, mapping, _ = frontier[0]
            candidates.append(
                self._greedy_complete(
                    order, targets, goal_depth, depth, g, mapping, stats
                )
            )
        if not candidates:
            candidates.append((0.0, {}))
        score, mapping = max(candidates, key=lambda pair: pair[0])
        gap = max(0.0, upper - score) if upper is not None else 0.0
        self.model.collect_frequency_evaluations(stats)
        stats.extra["degraded_runs"] = stats.extra.get("degraded_runs", 0) + 1
        stats.extra["optimality_gap"] = gap
        return MatchOutcome(Mapping(mapping), score, stats, degraded=True, gap=gap)

    def _greedy_complete(
        self,
        order: list[Event],
        targets: list[Event],
        goal_depth: int,
        depth: int,
        g: float,
        mapping: dict[Event, Event],
        stats: SearchStats,
    ) -> tuple[float, dict[Event, Event]]:
        """Extend a partial mapping greedily to a full injective mapping.

        At each remaining depth the unused target with the largest
        realized ``g`` increment wins; contributions are non-negative,
        so the result's score is achievable and the mapping complete.
        """
        model = self.model
        completed = dict(mapping)
        used = set(completed.values())
        for position in range(depth, goal_depth):
            source = order[position]
            best_target: Event | None = None
            best_increment = -1.0
            for target in targets:
                if target in used:
                    continue
                trial = dict(completed)
                trial[source] = target
                increment = model.g_increment(source, trial, stats)
                stats.processed_mappings += 1
                if increment > best_increment:
                    best_increment = increment
                    best_target = target
            assert best_target is not None  # |targets| >= goal_depth
            completed[source] = best_target
            used.add(best_target)
            g += best_increment
        return g, completed
