"""Tiered matching: auto-accept, per-block exact search, composition.

The pattern normal distance decomposes additively over any partition of
``V1``: a pattern's contribution depends only on the images of its own
events, so ``score(M) = Σ_blocks (patterns inside the block) +
Σ (patterns spanning blocks)``.  The tiered matcher exploits that:

* **Tier 0 — auto-accept**: a block with exactly one source and one
  candidate target is an assignment, not a search problem; the pair is
  fixed directly (and still scored, so it counts toward the final
  score and toward precision/recall exactly like a searched pair).
* **Tier 1 — in-block search**: ambiguous blocks run the exact A*
  search on a :meth:`~repro.core.scoring.ScoreModel.restricted` model —
  same logs, same frequencies, vocabulary narrowed to the block — so
  each block's score is an exact summand of the global score.  Blocks
  larger than ``exact_cutoff`` fall back to the advanced heuristic.
  Blocks are searched serially, one after another: the in-block
  searches are a small share of a blocked run, so fanning them out
  over processes does not pay.
* **Tier 2 — residual cleanup**: sources from one-sided clusters plus
  any sources an unbalanced block could not place are matched against
  every still-unused target in one final search, keeping the composed
  mapping as total as the unblocked one.

The composed mapping is rescored against the **full** model (all
patterns, full vocabularies), so cross-block pattern contributions are
realized and auto-accepted pairs appear in ``MatchResult.mapping`` like
any other pair.

**Combined gap.**  The returned ``gap`` soundly bounds how much better
the best *tier-respecting* mapping (one that maps each source within
its tier's candidate targets, same per-tier source coverage) can score:

``gap = Σ degraded in-block search gaps + Σ_slack max(0, cap_p − d_p)``

where the slack sum runs over patterns *not* proven optimal by an exact
tier — patterns spanning tiers, and patterns inside heuristic-matched
tiers — and ``cap_p`` caps ``d_p`` under any tier-respecting mapping by
the largest target vertex frequency available to each of the pattern's
events (the same capping argument as the search's ``h`` bound).
Patterns fully inside an exact tier contribute no slack: the in-block
optimum proves their summed contribution maximal.  Blocking itself may
exclude the unblocked optimum — that residual risk is empirical (the
recall property tests and the benchmark's F-measure parity check), not
part of the gap.
"""

from __future__ import annotations

import time
from collections.abc import Sequence
from dataclasses import dataclass

from repro.blocking.plan import Block, build_plan
from repro.blocking.signals import BlockingConfig
from repro.core.astar import AStarMatcher
from repro.core.bounds import BoundKind
from repro.core.distance import frequency_similarity
from repro.core.mapping import Mapping
from repro.core.matcher import HEURISTIC_BOUND
from repro.core.result import MatchOutcome
from repro.core.scoring import ScoreModel, build_pattern_set
from repro.core.stats import SearchStats
from repro.log.events import Event
from repro.log.eventlog import EventLog
from repro.obs.probe import NULL_PROBE, Probe
from repro.patterns.ast import Pattern

@dataclass(frozen=True)
class _TierResult:
    """One searched tier's outcome, normalized for composition."""

    mapping: dict[Event, Event]
    stats: SearchStats
    degraded: bool
    gap: float
    exact: bool


def _search_tier(
    parent: ScoreModel,
    sources: Sequence[Event],
    targets: Sequence[Event],
    bound: BoundKind,
    config: BlockingConfig,
    node_budget: int | None,
    time_budget: float | None,
    strict: bool,
) -> _TierResult:
    """Match one tier's sources onto its candidate targets in-process."""
    use_heuristic = (
        config.exact_cutoff is not None and len(sources) > config.exact_cutoff
    )
    if use_heuristic:
        from repro.core.heuristic import AdvancedHeuristicMatcher

        model = parent.restricted(sources, targets, bound=HEURISTIC_BOUND)
        outcome = AdvancedHeuristicMatcher(model).match()
    else:
        model = parent.restricted(sources, targets, bound=bound)
        outcome = AStarMatcher(
            model,
            node_budget=node_budget,
            time_budget=time_budget,
            strict=strict,
        ).match()
    return _TierResult(
        mapping=outcome.mapping.as_dict(),
        stats=outcome.stats,
        degraded=outcome.degraded,
        gap=outcome.gap,
        exact=not use_heuristic,
    )


def tiered_match(
    log_1: EventLog,
    log_2: EventLog,
    patterns: Sequence[Pattern] = (),
    bound: BoundKind = BoundKind.TIGHT,
    config: BlockingConfig | None = None,
    node_budget: int | None = None,
    time_budget: float | None = None,
    strict: bool = False,
    include_vertices: bool = True,
    include_edges: bool = True,
    probe: Probe | None = None,
) -> MatchOutcome:
    """Blocked exact matching (see module docstring).

    Budgets apply per escalated block; ``strict=True`` raises
    :class:`~repro.core.astar.SearchBudgetExceeded` as soon as any
    in-block search exhausts its budget.
    """
    if probe is None:
        probe = NULL_PROBE
    if config is None:
        config = BlockingConfig()
    started = time.perf_counter()
    plan = build_plan(log_1, log_2, config)
    full_patterns = build_pattern_set(
        log_1,
        complex_patterns=patterns,
        include_vertices=include_vertices,
        include_edges=include_edges,
    )
    full_model = ScoreModel(
        log_1, log_2, full_patterns, bound=bound, probe=probe
    )

    merged = SearchStats()
    mapping: dict[Event, Event] = {}
    degraded = False
    search_gap = 0.0
    auto_accepted = 0
    pairs_considered = 0
    #: tier index per source event, and per tier: (target pool, exactly
    #: solved?) — the inputs of the combined-gap computation.
    tier_of: dict[Event, int] = {}
    tier_targets: list[tuple[Event, ...]] = []
    #: Tiers whose within-tier pattern sum is bounded by the search
    #: itself: exact tiers, whether optimal (gap 0) or degraded (the
    #: search's reported gap bounds the shortfall and is added to
    #: ``search_gap``).  Heuristic tiers are not — their patterns fall
    #: through to the cap-based slack like cross-tier patterns.
    tier_proven: list[bool] = []

    def open_tier(targets: tuple[Event, ...], proven: bool) -> int:
        tier_targets.append(targets)
        tier_proven.append(proven)
        return len(tier_targets) - 1

    escalated: list[Block] = []
    for block in plan.blocks:
        if config.auto_accept and block.unambiguous:
            source, target = block.sources[0], block.targets[0]
            mapping[source] = target
            tier_of[source] = open_tier(block.targets, True)
            auto_accepted += 1
            pairs_considered += 1
            if probe.enabled:
                probe.count("repro_blocking_tier_total", tier="auto_accept")
        else:
            escalated.append(block)
            pairs_considered += block.pairs

    for block in escalated:
        result = _search_tier(
            full_model, block.sources, block.targets, bound, config,
            node_budget, time_budget, strict,
        )
        tier = open_tier(block.targets, result.exact)
        for source in block.sources:
            tier_of[source] = tier
        mapping.update(result.mapping)
        merged.merge(result.stats)
        degraded = degraded or result.degraded
        if result.degraded:
            search_gap += result.gap
        if probe.enabled:
            probe.count(
                "repro_blocking_tier_total",
                tier="exact" if result.exact else "heuristic",
            )

    # Residual cleanup: unplaced sources vs every still-unused target.
    used_targets = set(mapping.values())
    leftover_sources = sorted(
        set(log_1.alphabet()) - set(mapping)
    )
    leftover_targets = sorted(
        set(log_2.alphabet()) - used_targets
    )
    if leftover_sources and leftover_targets:
        pairs_considered += len(leftover_sources) * len(leftover_targets)
        result = _search_tier(
            full_model, leftover_sources, leftover_targets, bound, config,
            node_budget, time_budget, strict,
        )
        tier = open_tier(tuple(leftover_targets), result.exact)
        for source in leftover_sources:
            tier_of[source] = tier
        mapping.update(result.mapping)
        merged.merge(result.stats)
        degraded = degraded or result.degraded
        if result.degraded:
            search_gap += result.gap
        if probe.enabled:
            probe.count("repro_blocking_tier_total", tier="residual")

    # ------------------------------------------------------------------
    # Global rescoring + combined gap (one pass over the full pattern set)
    # ------------------------------------------------------------------
    graph_2 = full_model.graph_2
    tier_cap = [
        max((graph_2.vertex_weight(t) for t in targets), default=0.0)
        for targets in tier_targets
    ]
    mapped = mapping.keys()
    score = 0.0
    slack = 0.0
    for pattern in full_model.patterns:
        events = full_model.event_set(pattern)
        realized = 0.0
        if events <= mapped:
            realized = full_model.contribution(pattern, mapping, merged)
            score += realized
        frequency_1 = full_model.f1(pattern)
        if frequency_1 == 0.0:
            continue
        covered = all(event in tier_of for event in events)
        tiers = {tier_of[event] for event in events if event in tier_of}
        if covered and len(tiers) == 1 and tier_proven[next(iter(tiers))]:
            # Proven by that tier's exact in-block optimum: the summed
            # contribution of this tier's patterns is maximal, so the
            # pattern adds no slack (accounting happens per tier through
            # the search itself; degraded tiers added their gap above).
            continue
        frequency_cap = min(
            (
                tier_cap[tier_of[event]] if event in tier_of else 0.0
                for event in events
            ),
            default=0.0,
        )
        cap = (
            1.0
            if frequency_cap >= frequency_1
            else frequency_similarity(frequency_1, frequency_cap)
        )
        slack += max(0.0, cap - realized)

    combined_gap = search_gap + slack
    # The rescoring pass is the full model's own run: its evaluations are
    # the only ones no in-block search has reported yet.
    full_model.collect_frequency_evaluations(merged)

    merged.blocking_blocks = len(tier_targets)
    merged.blocking_pairs_total = plan.pairs_total
    merged.blocking_pairs_considered = pairs_considered
    merged.blocking_auto_accepted = auto_accepted
    merged.blocking_escalated = len(tier_targets) - auto_accepted
    if plan.pairs_total:
        merged.extra["blocking_pruned_ratio"] = round(
            1.0 - pairs_considered / plan.pairs_total, 6
        )
    merged.extra["blocking_gap_cross"] = round(slack, 6)
    merged.extra["blocking_elapsed_seconds"] = round(
        time.perf_counter() - started, 6
    )
    if probe.enabled:
        probe.gauge("repro_blocking_blocks", len(tier_targets))
        if plan.pairs_total:
            probe.gauge(
                "repro_blocking_pruned_ratio",
                1.0 - pairs_considered / plan.pairs_total,
            )

    return MatchOutcome(
        Mapping(mapping),
        score,
        merged,
        degraded=degraded,
        gap=combined_gap,
    )
