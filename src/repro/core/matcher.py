"""High-level matching facade.

:func:`match` runs any of the paper's methods by name on a pair of logs::

    from repro import match, parse_pattern

    result = match(log_1, log_2,
                   patterns=[parse_pattern("SEQ(A, AND(B, C), D)")],
                   method="pattern-tight")
    print(result.mapping, result.score)

Its keyword options are the fields of :class:`MatchOptions`, the
validated recipe that :meth:`EventMatcher.run` takes.

Method names follow the paper's figures:

==================  =====================================================
``pattern-tight``   exact A* with the Algorithm 2 / Table 2 bound
``pattern-simple``  exact A* with the simple 1.0-per-pattern bound
``heuristic-simple``    greedy single-expansion heuristic
``heuristic-advanced``  θ-assignment + greedy seeds, revised (§5.1)
``vertex``          baseline [7], vertex form
``vertex-edge``     baseline [7], vertex+edge form (exact search)
``iterative``       baseline [16]
``entropy``         baseline [7], entropy-only
==================  =====================================================
"""

from __future__ import annotations

import math
import time
from collections.abc import Mapping as MappingABC, Sequence
from dataclasses import asdict, dataclass
from typing import TYPE_CHECKING

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
from repro.obs.metrics import record_counts
from repro.obs.probe import NULL_PROBE, Probe
from repro.patterns.ast import Pattern

if TYPE_CHECKING:
    from repro.blocking import BlockingConfig

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


#: Score-model bound of the heuristic methods, the degraded-result
#: rescue and the blocking tier's heuristic-escalated blocks.
HEURISTIC_BOUND = BoundKind.TIGHT_FAST


def check_number(name: str, value, kind=(int, float), least=0) -> None:
    """Raise ``ValueError`` naming ``name`` unless ``value`` is a finite,
    non-bool ``kind`` instance no smaller than ``least``."""
    if (
        isinstance(value, bool)
        or not isinstance(value, kind)
        or not least <= value < math.inf
    ):
        noun = "an integer" if kind is int else "a finite number"
        raise ValueError(f"{name} must be {noun} >= {least}, got {value!r}")


@dataclass(frozen=True)
class MatchOptions:
    """The recipe of one matching run, validated once at construction.

    ``method`` is one of :data:`METHODS`.  ``node_budget``/``time_budget``
    apply to the exact searches (``pattern-*`` and ``vertex-edge``).
    Exceeding a budget returns the search's best incumbent complete
    mapping flagged ``degraded=True`` with an optimality-gap bound in
    ``gap``; ``strict=True`` restores the historical
    :class:`~repro.core.astar.SearchBudgetExceeded` instead.

    ``degraded_fallback`` — when a ``pattern-*`` search degrades with a
    gap *larger* than this threshold, the facade re-runs
    ``heuristic-advanced`` warm-started from the degraded mapping and
    keeps whichever mapping scores higher (still flagged degraded, with
    the gap tightened by any improvement).  With a ``time_budget`` the
    rescue must finish by the run's start plus that budget: it is
    skipped when that instant has already passed, and otherwise stops
    there with its best complete mapping so far.

    ``blocking`` — run the multi-signal blocking tier ahead of the exact
    search (:mod:`repro.blocking`): partition the two vocabularies into
    candidate blocks, auto-accept unambiguous 1:1 blocks, search only
    inside ambiguous ones, and compose one injective mapping rescored
    against the full logs.  Accepts ``True`` (default knobs), a
    :class:`~repro.blocking.BlockingConfig`, or a dict of its fields,
    and holds the normalized config (``None`` when off); only the
    ``pattern-*`` methods support it.  Blocked runs ignore
    ``warm_start`` and may report a non-zero ``gap`` without being
    ``degraded``: the gap then bounds the distance to the best
    block-respecting mapping.

    A bad field raises ``ValueError`` naming it.  :meth:`to_dict` /
    :meth:`from_dict` are the JSON form service jobs persist.
    """

    method: str = "pattern-tight"
    node_budget: int | None = None
    time_budget: float | None = None
    strict: bool = False
    degraded_fallback: float | None = None
    blocking: BlockingConfig | None = None

    def __post_init__(self) -> None:
        if self.method not in METHODS:
            raise ValueError(
                f"method must be one of {METHODS}, got {self.method!r}"
            )
        for name, kind in (
            ("node_budget", int),
            ("time_budget", (int, float)),
            ("degraded_fallback", (int, float)),
        ):
            if getattr(self, name) is not None:
                check_number(name, getattr(self, name), kind)
        if not isinstance(self.strict, bool):
            raise ValueError(f"strict must be a bool, got {self.strict!r}")
        blocking = None
        if self.blocking is not None and self.blocking is not False:
            # Deferred import: repro.blocking loads on first use, not
            # with the facade.
            from repro.blocking import normalize_blocking

            try:
                blocking = normalize_blocking(self.blocking)
            except (TypeError, ValueError) as error:
                raise ValueError(f"blocking: {error}") from None
            if self.method not in _PATTERN_METHODS:
                raise ValueError(
                    "blocking is only supported for the exact pattern "
                    f"methods {tuple(_PATTERN_METHODS)}, not {self.method!r}"
                )
        object.__setattr__(self, "blocking", blocking)

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, payload: dict) -> "MatchOptions":
        unknown = set(payload) - set(cls.__dataclass_fields__)
        if unknown:
            raise ValueError(f"unknown match options: {sorted(unknown)}")
        return cls(**payload)


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
        options: MatchOptions = MatchOptions(),
        *,
        warm_start: MappingABC[Event, Event] | None = None,
        probe: Probe | None = None,
        workers: int = 1,
    ) -> MatchResult:
        """Run the recipe ``options`` and return its annotated result.

        The keyword arguments are runtime inputs, not part of the recipe.

        ``workers`` — run the exact ``pattern-*`` searches root-split
        over this many worker processes
        (:func:`repro.parallel.search.parallel_match`): same mapping and
        score, budgets applied per chunk.  ``workers=1`` (the default)
        keeps the serial path byte-identical; other methods, blocked
        runs (whose blocks are searched serially), and runs with a
        ``warm_start`` (whose incumbent seeding needs the parent's score
        model) ignore the setting and run serially.

        ``warm_start`` — typically the previous mapping in an online
        setting — seeds the revision phase of ``heuristic-advanced`` and
        provides the exact ``pattern-*`` searches with an achievable
        incumbent score for pruning (the realized score of the warm
        mapping is a lower bound on the optimum, so pruning strictly
        below it preserves optimality).  Other methods ignore it.

        ``probe`` — observability primitives threaded through the
        score model into the search, heuristics and frequency
        evaluators.  The run is wrapped in a ``match.run`` span, and
        the finished stats are published through ``probe.count`` — the
        one place a ``SearchStats`` quantity reaches the registry.
        Defaults to the shared null probe (no overhead).
        """
        if probe is None:
            probe = NULL_PROBE
        if not probe.enabled:
            return self._run(options, warm_start, probe, workers)
        with probe.span("match.run", method=options.method):
            result = self._run(options, warm_start, probe, workers)
        record_counts(probe, result.stats.to_dict())
        return result

    def _run(
        self,
        options: MatchOptions,
        warm_start: MappingABC[Event, Event] | None,
        probe: Probe,
        workers: int,
    ) -> MatchResult:
        started = time.perf_counter()
        deadline = None
        if options.time_budget is not None:
            deadline = time.monotonic() + options.time_budget
        method = options.method
        if method in _PATTERN_METHODS:
            outcome = self._exact_search(options, warm_start, probe, workers)
            if (
                outcome.degraded
                and options.degraded_fallback is not None
                and outcome.gap > options.degraded_fallback
            ):
                outcome, method = self._heuristic_rescue(
                    outcome, method, probe, deadline
                )
        elif method in _HEURISTIC_METHODS:
            model = ScoreModel(
                self.log_1,
                self.log_2,
                self.full_pattern_set(),
                bound=HEURISTIC_BOUND,
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
                node_budget=options.node_budget,
                time_budget=options.time_budget,
                strict=options.strict,
            ).match()
        elif method == "iterative":
            outcome = IterativeMatcher(self.log_1, self.log_2).match()
        else:
            outcome = EntropyMatcher(self.log_1, self.log_2).match()
        elapsed = time.perf_counter() - started
        return MatchResult(
            method, outcome.mapping, outcome.score, outcome.stats, elapsed,
            degraded=outcome.degraded, gap=outcome.gap,
        )

    def _exact_search(
        self,
        options: MatchOptions,
        warm_start: MappingABC[Event, Event] | None,
        probe: Probe,
        workers: int,
    ) -> MatchOutcome:
        """The blocked, root-split or serial exact ``pattern-*`` search."""
        bound = _PATTERN_METHODS[options.method]
        budgets = dict(
            node_budget=options.node_budget,
            time_budget=options.time_budget,
            strict=options.strict,
        )
        if options.blocking is not None:
            from repro.blocking import tiered_match

            return tiered_match(
                self.log_1,
                self.log_2,
                self.complex_patterns,
                bound=bound,
                config=options.blocking,
                include_vertices=self.include_vertices,
                include_edges=self.include_edges,
                probe=probe,
                **budgets,
            )
        if workers > 1 and warm_start is None:
            # Deferred import: the parallel layer is only pulled in
            # when a run actually asks for it.
            from repro.parallel.search import parallel_match

            return parallel_match(
                self.log_1,
                self.log_2,
                self.complex_patterns,
                bound=bound,
                workers=workers,
                include_vertices=self.include_vertices,
                include_edges=self.include_edges,
                probe=probe,
                **budgets,
            )
        model = ScoreModel(
            self.log_1,
            self.log_2,
            self.full_pattern_set(),
            bound=bound,
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
        return AStarMatcher(
            model,
            incumbent_score=incumbent,
            incumbent_mapping=warm,
            **budgets,
        ).match()

    def _heuristic_rescue(
        self,
        degraded: MatchOutcome,
        method: str,
        probe: Probe,
        deadline: float | None,
    ) -> tuple[MatchOutcome, str]:
        """Try to beat a wide-gap degraded result with the heuristic.

        The advanced heuristic is warm-started from the degraded mapping
        (so it can only revise, never regress below a cold start) and the
        better realized score wins.  The result stays ``degraded`` —
        neither run proves optimality — but the gap bound tightens by
        exactly the score improvement, since the frontier upper bound
        that produced it is unchanged.  A rescue that returns the
        degraded mapping itself leaves the result as it was: its score
        differs from the search's only by summation rounding.  A
        ``deadline`` (a ``time.monotonic()`` instant) that has passed
        skips the rescue; otherwise the heuristic stops at it.
        """
        if deadline is not None and time.monotonic() > deadline:
            return degraded, method
        rescue_model = ScoreModel(
            self.log_1,
            self.log_2,
            self.full_pattern_set(),
            bound=HEURISTIC_BOUND,
            probe=probe,
        )
        rescue = AdvancedHeuristicMatcher(
            rescue_model, initial_mapping=degraded.mapping, deadline=deadline
        ).match()
        degraded.stats.merge(rescue.stats)
        if rescue.score <= degraded.score or rescue.mapping == degraded.mapping:
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
    *,
    warm_start: MappingABC[Event, Event] | None = None,
    probe: Probe | None = None,
    workers: int = 1,
    **options,
) -> MatchResult:
    """One-call event matching between two logs (see module docstring).

    ``options`` are the :class:`MatchOptions` fields.
    """
    return EventMatcher(log_1, log_2, patterns=patterns).run(
        MatchOptions(**options),
        warm_start=warm_start,
        probe=probe,
        workers=workers,
    )
