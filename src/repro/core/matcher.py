"""High-level matching facade.

:func:`match` runs any of the paper's methods by name on a pair of logs::

    from repro import match, parse_pattern

    result = match(log_1, log_2,
                   patterns=[parse_pattern("SEQ(A, AND(B, C), D)")],
                   method="pattern-tight")
    print(result.mapping, result.score)

Method names follow the paper's figures:

==================  =====================================================
``pattern-tight``   exact A* with the Algorithm 2 / Table 2 bound
``pattern-simple``  exact A* with the simple 1.0-per-pattern bound
``heuristic-simple``    greedy single-expansion heuristic
``heuristic-advanced``  Algorithm 3 (alternating-tree augmentation)
``vertex``          baseline [7], vertex form
``vertex-edge``     baseline [7], vertex+edge form (exact search)
``iterative``       baseline [16]
``entropy``         baseline [7], entropy-only
==================  =====================================================
"""

from __future__ import annotations

import time
from collections.abc import Mapping as MappingABC, Sequence
from dataclasses import dataclass

from repro.baselines.entropy import EntropyMatcher
from repro.baselines.iterative import IterativeMatcher
from repro.baselines.vertex import VertexMatcher
from repro.baselines.vertex_edge import VertexEdgeMatcher
from repro.core.astar import AStarMatcher
from repro.core.bounds import BoundKind
from repro.core.heuristic import (
    AdvancedHeuristicMatcher,
    SimpleHeuristicMatcher,
    sanitize_warm_start,
)
from repro.core.mapping import Mapping
from repro.log.events import Event
from repro.core.result import MatchOutcome
from repro.core.scoring import ScoreModel, build_pattern_set
from repro.core.stats import SearchStats
from repro.log.eventlog import EventLog
from repro.obs.probe import NULL_PROBE, Probe
from repro.patterns.ast import Pattern

METHODS = (
    "pattern-tight",
    "pattern-simple",
    "heuristic-simple",
    "heuristic-advanced",
    "vertex",
    "vertex-edge",
    "iterative",
    "entropy",
)

_PATTERN_METHODS = {
    "pattern-tight": BoundKind.TIGHT,
    "pattern-simple": BoundKind.SIMPLE,
}
_HEURISTIC_METHODS = {
    "heuristic-simple": SimpleHeuristicMatcher,
    "heuristic-advanced": AdvancedHeuristicMatcher,
}


def check_blocking(method: str, blocking):
    """``blocking`` as a :class:`~repro.blocking.BlockingConfig` or ``None``.

    Raises ``ValueError`` when ``method`` cannot run blocked (only the
    ``pattern-*`` methods can), and whatever
    :func:`~repro.blocking.normalize_blocking` raises for a malformed
    value.
    """
    # Deferred import: repro.blocking loads on first use, not with the
    # facade.
    from repro.blocking import normalize_blocking

    config = normalize_blocking(blocking)
    if config is not None and method not in _PATTERN_METHODS:
        raise ValueError(
            "blocking is only supported for the exact pattern methods "
            f"{tuple(_PATTERN_METHODS)}, not {method!r}"
        )
    return config


@dataclass(frozen=True)
class MatchResult:
    """A matcher outcome annotated with method name and wall-clock time.

    ``degraded``/``gap`` carry the anytime flags of the underlying
    :class:`~repro.core.result.MatchOutcome`: a degraded result is a
    complete, injective, achievable mapping whose score may fall short of
    the optimum by at most ``gap``.
    """

    method: str
    mapping: Mapping
    score: float
    stats: SearchStats
    elapsed_seconds: float
    degraded: bool = False
    gap: float = 0.0

    @classmethod
    def from_outcome(
        cls, method: str, outcome: MatchOutcome, elapsed_seconds: float
    ) -> "MatchResult":
        return cls(
            method=method,
            mapping=outcome.mapping,
            score=outcome.score,
            stats=outcome.stats,
            elapsed_seconds=elapsed_seconds,
            degraded=outcome.degraded,
            gap=outcome.gap,
        )


class EventMatcher:
    """Reusable facade bound to one pair of logs and one pattern set.

    Vertices and edges of ``log_1``'s dependency graph are always part of
    the pattern set for the pattern methods (they are special patterns);
    ``patterns`` adds the complex SEQ/AND patterns on top.
    """

    def __init__(
        self,
        log_1: EventLog,
        log_2: EventLog,
        patterns: Sequence[Pattern] = (),
        include_vertices: bool = True,
        include_edges: bool = True,
    ):
        self.log_1 = log_1
        self.log_2 = log_2
        self.complex_patterns = tuple(patterns)
        self.include_vertices = include_vertices
        self.include_edges = include_edges

    def full_pattern_set(self) -> list[Pattern]:
        return build_pattern_set(
            self.log_1,
            complex_patterns=self.complex_patterns,
            include_vertices=self.include_vertices,
            include_edges=self.include_edges,
        )

    def run(
        self,
        method: str = "pattern-tight",
        node_budget: int | None = None,
        time_budget: float | None = None,
        heuristic_bound: BoundKind = BoundKind.TIGHT_FAST,
        warm_start: MappingABC[Event, Event] | None = None,
        strict: bool = False,
        degraded_fallback: float | None = None,
        probe: Probe | None = None,
        workers: int = 1,
        blocking=None,
    ) -> MatchResult:
        """Run ``method`` and return its annotated result.

        ``blocking`` — run the multi-signal blocking tier ahead of the
        exact search (:mod:`repro.blocking`): partition the two
        vocabularies into candidate blocks, auto-accept unambiguous 1:1
        blocks, search only inside ambiguous ones, and compose one
        injective mapping rescored against the full logs.  Accepts
        ``True`` (default knobs), a
        :class:`~repro.blocking.BlockingConfig`, or a dict of its
        fields; only the ``pattern-*`` methods support it.  The default
        ``None``/``False`` keeps every method bit-identical to the
        unblocked behaviour.  Blocked runs ignore ``warm_start`` and
        may report a non-zero ``gap`` without being ``degraded``: the
        gap then bounds the distance to the best block-respecting
        mapping.

        ``workers`` — run the exact ``pattern-*`` searches root-split
        over this many worker processes
        (:func:`repro.parallel.search.parallel_match`): same mapping and
        score, budgets applied per chunk.  ``workers=1`` (the default)
        keeps the serial path byte-identical; other methods, blocked
        runs (whose blocks are searched serially), and runs with a
        ``warm_start`` (whose incumbent seeding needs the parent's score
        model) ignore the setting and run serially.

        ``node_budget``/``time_budget`` apply to the exact searches
        (``pattern-*`` and ``vertex-edge``).  Exceeding a budget returns
        the search's best incumbent complete mapping flagged
        ``degraded=True`` with an optimality-gap bound in ``gap``;
        ``strict=True`` restores the historical
        :class:`~repro.core.astar.SearchBudgetExceeded` instead.

        ``degraded_fallback`` — when a ``pattern-*`` search degrades with
        a gap *larger* than this threshold, the facade re-runs
        ``heuristic-advanced`` warm-started from the degraded mapping and
        keeps whichever mapping scores higher (still flagged degraded,
        with the gap tightened by any improvement).

        ``warm_start`` — typically the previous mapping in an online
        setting — seeds the revision phase of ``heuristic-advanced`` and
        provides the exact ``pattern-*`` searches with an achievable
        incumbent score for pruning (the realized score of the warm
        mapping is a lower bound on the optimum, so pruning strictly
        below it preserves optimality).  Other methods ignore it.

        ``probe`` — observability hooks threaded through the score
        model into the search, heuristics and frequency kernel.  The
        run is wrapped in a ``match.run`` span and the finished stats
        are published to the probe's registry.  Defaults to the shared
        null probe (no overhead).
        """
        if probe is None:
            probe = NULL_PROBE
        if not probe.enabled:
            return self._run(
                method, node_budget, time_budget, heuristic_bound,
                warm_start, strict, degraded_fallback, probe, workers,
                blocking,
            )
        with probe.span("match.run", method=method):
            result = self._run(
                method, node_budget, time_budget, heuristic_bound,
                warm_start, strict, degraded_fallback, probe, workers,
                blocking,
            )
        probe.record_search_stats(result.stats)
        return result

    def _run(
        self,
        method: str,
        node_budget: int | None,
        time_budget: float | None,
        heuristic_bound: BoundKind,
        warm_start: MappingABC[Event, Event] | None,
        strict: bool,
        degraded_fallback: float | None,
        probe: Probe,
        workers: int = 1,
        blocking=None,
    ) -> MatchResult:
        started = time.perf_counter()
        blocking_config = check_blocking(method, blocking)
        if method in _PATTERN_METHODS:
            if blocking_config is not None:
                from repro.blocking import tiered_match

                outcome = tiered_match(
                    self.log_1,
                    self.log_2,
                    self.complex_patterns,
                    bound=_PATTERN_METHODS[method],
                    config=blocking_config,
                    node_budget=node_budget,
                    time_budget=time_budget,
                    strict=strict,
                    include_vertices=self.include_vertices,
                    include_edges=self.include_edges,
                    probe=probe,
                )
                if (
                    outcome.degraded
                    and degraded_fallback is not None
                    and outcome.gap > degraded_fallback
                ):
                    outcome, method = self._heuristic_rescue(
                        outcome, heuristic_bound, method, probe
                    )
                elapsed = time.perf_counter() - started
                return MatchResult.from_outcome(method, outcome, elapsed)
            if workers > 1 and warm_start is None:
                # Deferred import: the parallel layer is only pulled in
                # when a run actually asks for it.
                from repro.parallel.search import parallel_match

                outcome = parallel_match(
                    self.log_1,
                    self.log_2,
                    self.complex_patterns,
                    bound=_PATTERN_METHODS[method],
                    workers=workers,
                    node_budget=node_budget,
                    time_budget=time_budget,
                    strict=strict,
                    include_vertices=self.include_vertices,
                    include_edges=self.include_edges,
                    probe=probe,
                )
                if (
                    outcome.degraded
                    and degraded_fallback is not None
                    and outcome.gap > degraded_fallback
                ):
                    outcome, method = self._heuristic_rescue(
                        outcome, heuristic_bound, method, probe
                    )
                elapsed = time.perf_counter() - started
                return MatchResult.from_outcome(method, outcome, elapsed)
            model = ScoreModel(
                self.log_1,
                self.log_2,
                self.full_pattern_set(),
                bound=_PATTERN_METHODS[method],
                probe=probe,
            )
            incumbent = None
            warm = sanitize_warm_start(
                warm_start, model.source_events, model.target_events
            )
            if warm is not None:
                # g of a valid partial mapping is achievable by any of its
                # completions (contributions are non-negative), hence a
                # sound incumbent for strictly-below pruning.
                incumbent = model.g(warm)
            outcome = AStarMatcher(
                model,
                node_budget=node_budget,
                time_budget=time_budget,
                incumbent_score=incumbent,
                incumbent_mapping=warm,
                strict=strict,
            ).match()
            if (
                outcome.degraded
                and degraded_fallback is not None
                and outcome.gap > degraded_fallback
            ):
                outcome, method = self._heuristic_rescue(
                    outcome, heuristic_bound, method, probe
                )
        elif method in _HEURISTIC_METHODS:
            model = ScoreModel(
                self.log_1,
                self.log_2,
                self.full_pattern_set(),
                bound=heuristic_bound,
                probe=probe,
            )
            matcher_class = _HEURISTIC_METHODS[method]
            if matcher_class is AdvancedHeuristicMatcher:
                outcome = matcher_class(
                    model, initial_mapping=warm_start
                ).match()
            else:
                outcome = matcher_class(model).match()
        elif method == "vertex":
            outcome = VertexMatcher(self.log_1, self.log_2).match()
        elif method == "vertex-edge":
            outcome = VertexEdgeMatcher(
                self.log_1,
                self.log_2,
                node_budget=node_budget,
                time_budget=time_budget,
                strict=strict,
            ).match()
        elif method == "iterative":
            outcome = IterativeMatcher(self.log_1, self.log_2).match()
        elif method == "entropy":
            outcome = EntropyMatcher(self.log_1, self.log_2).match()
        else:
            raise ValueError(
                f"unknown method {method!r}; choose one of {METHODS}"
            )
        elapsed = time.perf_counter() - started
        return MatchResult.from_outcome(method, outcome, elapsed)

    def _heuristic_rescue(
        self,
        degraded: MatchOutcome,
        heuristic_bound: BoundKind,
        method: str,
        probe: Probe = NULL_PROBE,
    ) -> tuple[MatchOutcome, str]:
        """Try to beat a wide-gap degraded result with the heuristic.

        The advanced heuristic is warm-started from the degraded mapping
        (so it can only revise, never regress below a cold start) and the
        better realized score wins.  The result stays ``degraded`` —
        neither run proves optimality — but the gap bound tightens by
        exactly the score improvement, since the frontier upper bound
        that produced it is unchanged.
        """
        rescue_model = ScoreModel(
            self.log_1,
            self.log_2,
            self.full_pattern_set(),
            bound=heuristic_bound,
            probe=probe,
        )
        rescue = AdvancedHeuristicMatcher(
            rescue_model, initial_mapping=degraded.mapping
        ).match()
        degraded.stats.merge(rescue.stats)
        if rescue.score <= degraded.score:
            return degraded, method
        tightened = max(0.0, degraded.gap - (rescue.score - degraded.score))
        outcome = MatchOutcome(
            rescue.mapping,
            rescue.score,
            degraded.stats,
            degraded=True,
            gap=tightened,
        )
        return outcome, "heuristic-advanced"


def match(
    log_1: EventLog,
    log_2: EventLog,
    patterns: Sequence[Pattern] = (),
    method: str = "pattern-tight",
    node_budget: int | None = None,
    time_budget: float | None = None,
    warm_start: MappingABC[Event, Event] | None = None,
    strict: bool = False,
    degraded_fallback: float | None = None,
    probe: Probe | None = None,
    workers: int = 1,
    blocking=None,
) -> MatchResult:
    """One-call event matching between two logs (see module docstring)."""
    matcher = EventMatcher(log_1, log_2, patterns=patterns)
    return matcher.run(
        method,
        node_budget=node_budget,
        time_budget=time_budget,
        warm_start=warm_start,
        strict=strict,
        degraded_fallback=degraded_fallback,
        probe=probe,
        workers=workers,
        blocking=blocking,
    )
