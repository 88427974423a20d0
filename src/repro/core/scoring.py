"""Shared scoring model for the exact and heuristic matchers.

The :class:`ScoreModel` packages everything Algorithm 1's ``g`` and ``h``
need: the two dependency graphs, memoized pattern-frequency evaluators for
both logs, the pattern inverted index ``I_p``, precomputed ``f1`` values
and pattern graph forms.  Both the A* matcher and the heuristics consume
the same model, so their scores are directly comparable — the heuristic
"accept the augmentation with maximum g+h" step literally reuses the exact
search's functions, as in the paper.
"""

from __future__ import annotations

from collections.abc import Collection, Iterable, Mapping as MappingABC, Sequence

from repro.core.bounds import BoundKind, TargetCaps
from repro.core.distance import frequency_similarity
from repro.core.stats import SearchStats
from repro.obs.probe import NULL_PROBE, Probe
from repro.graph.dependency import dependency_graph
from repro.log.events import Event
from repro.log.eventlog import EventLog
from repro.patterns.ast import EventPattern, Pattern, SEQ
from repro.patterns.graphform import pattern_graph
from repro.patterns.index import PatternIndex, validate_patterns
from repro.patterns.matching import PatternFrequencyEvaluator, cached_allowed_orders
from repro.patterns.orders import num_allowed_orders


def build_pattern_set(
    log: EventLog,
    complex_patterns: Iterable[Pattern] = (),
    include_vertices: bool = True,
    include_edges: bool = True,
) -> list[Pattern]:
    """The full pattern set used for matching on ``log``.

    Vertices and edges of the dependency graph are special patterns
    (Section 2.2): every event becomes a vertex pattern and, when
    ``include_edges``, every dependency edge becomes ``SEQ(u, v)``.  The
    user-supplied complex patterns are appended last; duplicates of the
    generated vertex/edge patterns are dropped.
    """
    patterns: list[Pattern] = []
    if include_vertices:
        patterns.extend(
            EventPattern(event) for event in sorted(log.alphabet())
        )
    if include_edges:
        # Self-loop dependency edges (an event directly repeating) cannot
        # be expressed in the pattern algebra, which forbids duplicate
        # events inside a pattern; they are skipped.
        patterns.extend(
            SEQ((EventPattern(source), EventPattern(target)))
            for source, target in log.edges()
            if source != target
        )
    existing = set(patterns)
    for pattern in complex_patterns:
        if pattern not in existing:
            patterns.append(pattern)
            existing.add(pattern)
    return patterns


def _mandatory_edges(pattern: Pattern) -> tuple[tuple[Event, Event], ...]:
    """Consecutive pairs present in every allowed order of ``pattern``.

    For a SEQ of events this is the whole chain; AND blocks contribute
    none (their internal order varies).  Mandatory edges power the
    sharpest case of the tight bound: any instance of the pattern must
    realize each of them, so a missing or rare placement caps ``f2``.
    """
    orders = iter(cached_allowed_orders(pattern))
    first = next(orders)
    common = {
        (first[i], first[i + 1]) for i in range(len(first) - 1)
    }
    for order in orders:
        pairs = {(order[i], order[i + 1]) for i in range(len(order) - 1)}
        common &= pairs
        if not common:
            break
    return tuple(sorted(common))


class ScoreModel:
    """Precomputed state for scoring mappings between two logs.

    Parameters
    ----------
    log_1, log_2:
        The logs being matched; patterns are declared over ``log_1``.
    patterns:
        The full pattern set ``P`` (typically from
        :func:`build_pattern_set`).
    bound:
        Which ``Δ(p, U)`` estimate :meth:`h` uses.
    probe:
        Observability primitives shared by every consumer of this model
        (the exact search, the heuristics, both frequency evaluators).
        Defaults to the no-op :data:`~repro.obs.probe.NULL_PROBE`.
    source_events, target_events:
        Optional restriction of the matchable vocabularies to subsets of
        the two alphabets — the substrate of the blocking tier
        (:mod:`repro.blocking`): the searches expand only the restricted
        sources against the restricted targets, while *frequencies stay
        those of the full logs*, so per-block scores add up to exactly
        the global pattern normal distance.  ``None`` (the default)
        keeps the historical full-alphabet behaviour.
    evaluator_1, evaluator_2, graph_1, graph_2:
        Optional pre-built frequency evaluators / dependency graphs to
        share across sibling models over the same logs (per-block models
        reuse the parent's, so interning, posting lists and memoized
        frequencies are paid once).  Built fresh when omitted.
    """

    def __init__(
        self,
        log_1: EventLog,
        log_2: EventLog,
        patterns: Sequence[Pattern],
        bound: BoundKind = BoundKind.TIGHT,
        probe: Probe | None = None,
        source_events: Sequence[Event] | None = None,
        target_events: Sequence[Event] | None = None,
        evaluator_1: PatternFrequencyEvaluator | None = None,
        evaluator_2: PatternFrequencyEvaluator | None = None,
        graph_1=None,
        graph_2=None,
    ):
        validate_patterns(patterns, log_1.alphabet())
        self.log_1 = log_1
        self.log_2 = log_2
        self.bound = bound
        self.probe = probe if probe is not None else NULL_PROBE
        self.graph_1 = graph_1 if graph_1 is not None else dependency_graph(log_1)
        self.graph_2 = graph_2 if graph_2 is not None else dependency_graph(log_2)
        self.evaluator_1 = evaluator_1 if evaluator_1 is not None else (
            PatternFrequencyEvaluator(log_1, probe=self.probe)
        )
        self.evaluator_2 = evaluator_2 if evaluator_2 is not None else (
            PatternFrequencyEvaluator(log_2, probe=self.probe)
        )
        self.index = PatternIndex(patterns)
        self.patterns: tuple[Pattern, ...] = self.index.patterns
        self.source_events: list[Event] = (
            sorted(source_events) if source_events is not None
            else sorted(log_1.alphabet())
        )
        self.target_events: list[Event] = (
            sorted(target_events) if target_events is not None
            else sorted(log_2.alphabet())
        )
        #: Sorted-cap views of ``G2`` answering the per-node TIGHT maxima
        #: by scanning ≤ d+1 entries instead of rescanning the induced
        #: subgraph (d = mapped targets).
        self.caps = TargetCaps(self.graph_2, self.target_events)
        self._target_set: frozenset[Event] = frozenset(self.target_events)
        self._num_targets = len(self.target_events)
        self._global_max_edge_2 = self.caps.global_max_edge
        #: How often :meth:`h` answered its maxima from the sorted caps
        #: (fast) versus a full induced-subgraph rescan (slow).
        self.caps_fast_path = 0
        self.caps_slow_path = 0
        self._caps_taken = (0, 0)
        self._f1: dict[Pattern, float] = {
            pattern: self.evaluator_1.frequency(pattern) for pattern in patterns
        }
        self._pattern_edges: dict[Pattern, tuple[tuple[Event, Event], ...]] = {}
        self._event_sets: dict[Pattern, frozenset[Event]] = {}
        self._omega: dict[Pattern, int] = {}
        self._mandatory_edges: dict[Pattern, tuple[tuple[Event, Event], ...]] = {}
        for pattern in patterns:
            graph = pattern_graph(pattern)
            self._pattern_edges[pattern] = tuple(graph.edges())
            self._event_sets[pattern] = pattern.event_set()
            self._omega[pattern] = num_allowed_orders(pattern)
            self._mandatory_edges[pattern] = _mandatory_edges(pattern)
        # Flat per-pattern rows for the h hot loop: (event set, f1, ω,
        # mandatory edges, |V(p)|) — avoids per-pattern dict lookups.
        self._h_rows = tuple(
            (
                self._event_sets[pattern],
                self._f1[pattern],
                self._omega[pattern],
                self._mandatory_edges[pattern],
                len(self._event_sets[pattern]),
            )
            for pattern in patterns
        )

    def restricted(
        self,
        source_events: Sequence[Event],
        target_events: Sequence[Event],
        bound: BoundKind | None = None,
    ) -> "ScoreModel":
        """A sibling model over a source/target sub-vocabulary.

        The restricted model keeps this model's logs, evaluators and
        dependency graphs (so every frequency is still measured against
        the *full* logs) but scores only the patterns whose events lie
        entirely inside ``source_events``, and lets the searches map
        only ``source_events`` onto ``target_events``.  Because a
        pattern's contribution depends solely on the images of its own
        events, restricted scores are exact summands of the global
        pattern normal distance — the additive decomposition the
        blocking tier composes per-block optima with.
        """
        source_set = frozenset(source_events)
        patterns = [
            pattern
            for pattern in self.patterns
            if self._event_sets[pattern] <= source_set
        ]
        return ScoreModel(
            self.log_1,
            self.log_2,
            patterns,
            bound=bound if bound is not None else self.bound,
            probe=self.probe,
            source_events=source_events,
            target_events=target_events,
            evaluator_1=self.evaluator_1,
            evaluator_2=self.evaluator_2,
            graph_1=self.graph_1,
            graph_2=self.graph_2,
        )

    # ------------------------------------------------------------------
    # g: realized contributions
    # ------------------------------------------------------------------
    def f1(self, pattern: Pattern) -> float:
        return self._f1[pattern]

    def event_set(self, pattern: Pattern) -> frozenset[Event]:
        return self._event_sets[pattern]

    def contribution(
        self,
        pattern: Pattern,
        mapping: MappingABC[Event, Event],
        stats: SearchStats | None = None,
    ) -> float:
        """``d(p)`` under ``mapping`` (must cover the pattern's events).

        Applies the Proposition 3 pruning rule first: when some edge of
        the mapped pattern graph is missing from ``G2``, ``f2(M(p)) = 0``
        and the trace scan is skipped entirely.
        """
        for source, target in self._pattern_edges[pattern]:
            if not self.graph_2.has_edge(mapping[source], mapping[target]):
                if stats is not None:
                    stats.pruned_by_existence += 1
                return 0.0
        frequency_2 = self.evaluator_2.mapped_frequency(pattern, mapping)
        return frequency_similarity(self._f1[pattern], frequency_2)

    def contribution_cap(
        self, pattern: Pattern, mapping: MappingABC[Event, Event]
    ) -> float:
        """An upper bound on ``d(p)`` under ``mapping`` that scans no trace.

        Patterns of one or two events get their exact contribution — a
        kernel popcount or bigram query.  For longer patterns: 0 when an
        edge of the mapped pattern graph is missing from ``G2``
        (Proposition 3); otherwise ``f2(M(p))`` is at most the smallest
        vertex weight among the images (a matching trace contains every
        image) and the ``G2`` weight of every mandatory edge's image
        (every allowed order holds that consecutive pair, so no ω
        factor).  All three are counts over the same ``|L|``, so the
        capped frequency is ≥ the realized one in floats too, and ``sim``
        is monotone below ``f1``.
        """
        events = self._event_sets[pattern]
        if len(events) <= 2:
            return self.contribution(pattern, mapping)
        graph_2 = self.graph_2
        for source, target in self._pattern_edges[pattern]:
            if not graph_2.has_edge(mapping[source], mapping[target]):
                return 0.0
        frequency_cap = min(
            graph_2.vertex_weight(mapping[event]) for event in events
        )
        for source, target in self._mandatory_edges[pattern]:
            frequency_cap = min(
                frequency_cap,
                graph_2.edge_weight(mapping[source], mapping[target]),
            )
        frequency_1 = self._f1[pattern]
        if frequency_cap <= frequency_1:
            return frequency_similarity(frequency_1, frequency_cap)
        return 1.0

    def g_increment(
        self,
        new_source: Event,
        mapping_after: MappingABC[Event, Event],
        stats: SearchStats | None = None,
    ) -> float:
        """Σ d(p) over patterns newly completed by mapping ``new_source``.

        ``mapping_after`` must already contain ``new_source`` (Section
        3.2's incremental computation of ``g``).
        """
        increment = 0.0
        for pattern in self.index.newly_completed(new_source, mapping_after.keys()):
            increment += self.contribution(pattern, mapping_after, stats)
        return increment

    def g(
        self,
        mapping: MappingABC[Event, Event],
        stats: SearchStats | None = None,
    ) -> float:
        """Pattern normal distance of the partial mapping (full recompute)."""
        mapped = mapping.keys()
        score = 0.0
        for pattern in self.patterns:
            if self._event_sets[pattern] <= mapped:
                score += self.contribution(pattern, mapping, stats)
        return score

    # ------------------------------------------------------------------
    # h: optimistic bound on the remainder
    # ------------------------------------------------------------------
    def h(
        self,
        mapping: MappingABC[Event, Event],
        unmapped_targets: Collection[Event],
    ) -> float:
        """Upper bound on the score still achievable from this node.

        For each pattern not fully mapped, its events may only land on
        ``M(V(p) ∩ mapped) ∪ unmapped_targets`` (Section 3.3); the bound
        kind configured on the model estimates ``Δ(p, ·)`` over that set.

        This is the search hot path, so the per-call parts of the bound
        (max vertex weight over the unmapped targets, their count) are
        computed once and the per-pattern parts inline
        :func:`~repro.core.bounds.upper_bound` rather than calling it.

        When the unmapped set is exactly "all targets minus the mapped
        images" — which is what every matcher passes — the per-call
        maxima come from the sorted :class:`~repro.core.bounds.TargetCaps`
        lists by scanning at most ``d + 1`` entries past the ``d`` mapped
        exclusions, instead of rescanning the induced subgraph.  The
        values are identical to the rescan on that call pattern; an
        arbitrary subset (possible through the public API) falls back to
        the exact induced scan.
        """
        mapped = mapping.keys()
        if self.bound is BoundKind.SIMPLE:
            return float(
                sum(1 for row in self._h_rows if not row[0] <= mapped)
            )

        graph_2 = self.graph_2
        caps = self.caps
        unmapped_set = (
            unmapped_targets
            if isinstance(unmapped_targets, (set, frozenset))
            else set(unmapped_targets)
        )
        num_unmapped = len(unmapped_set)
        mapped_values = set(mapping.values())
        # Fast path precondition: unmapped ∪ images partitions the target
        # set.  The O(d) checks below certify it for every internal call
        # site (all pass subsets of the target vocabulary).
        fast = (
            num_unmapped + len(mapped_values) == self._num_targets
            and unmapped_set.isdisjoint(mapped_values)
            and mapped_values <= self._target_set
        )
        if fast:
            self.caps_fast_path += 1
            base_vertex_cap = caps.max_vertex_excluding(mapped_values)
        else:
            self.caps_slow_path += 1
            base_vertex_cap = graph_2.max_vertex_weight(unmapped_set)
        exact_edges = self.bound is BoundKind.TIGHT
        if exact_edges:
            # Induced max edge weight over the unmapped targets, computed
            # once per call; per pattern only the edges incident to that
            # pattern's images can push it higher.
            if fast:
                unmapped_edge_max = caps.max_edge_excluding(mapped_values)
            else:
                unmapped_edge_max = graph_2.max_edge_weight(unmapped_set)

        # Patterns with no mapped event share one cap per (ω, size) within
        # a call — cache it instead of recomputing per pattern.
        no_image_cap: dict[int, float] = {}
        # Incident-edge maxima recur across patterns sharing an event;
        # cache them per call.  The generic incident max is taken against
        # unmapped ∪ *all* images (a superset of any one pattern's
        # availability — weaker but admissible, and cacheable per image).
        # On the fast path that union is the whole target set, so the
        # value is the precomputed per-vertex incident maximum.
        if exact_edges and not fast:
            all_candidates = unmapped_set | mapped_values
        incident_cache: dict[Event, float] = {}
        placed_out_cache: dict[Event, float] = {}
        placed_in_cache: dict[Event, float] = {}

        mapping_get = mapping.get
        total = 0.0
        for events, frequency_1, omega, mandatory, size in self._h_rows:
            if events <= mapped:
                continue
            images = [mapping[event] for event in events if event in mapped]
            if size > num_unmapped + len(images):
                continue  # Δ = 0: the pattern no longer fits (Algorithm 2, Line 2)
            if frequency_1 == 0.0:
                continue  # d(p) = sim(0, f2) = 0 whatever happens

            if not images:
                if size >= 2:
                    cap = no_image_cap.get(omega)
                    if cap is None:
                        edge_max = (
                            unmapped_edge_max
                            if exact_edges
                            else self._global_max_edge_2
                        )
                        cap = min(base_vertex_cap, omega * edge_max)
                        no_image_cap[omega] = cap
                else:
                    cap = base_vertex_cap
                if cap <= frequency_1:
                    total += frequency_similarity(frequency_1, cap)
                else:
                    total += 1.0
                continue

            # Vertex cap: f2(M(p)) ≤ f2(M(v)) for every event of the
            # pattern — the image's exact frequency when v is mapped, at
            # best the largest unmapped-target frequency otherwise.
            vertex_cap = base_vertex_cap
            for image in images:
                weight = graph_2.vertex_weight(image)
                if weight < vertex_cap:
                    vertex_cap = weight

            if size >= 2:
                # Mandatory edges occur in *every* allowed order, so each
                # order's instance frequency is capped by the edge's
                # placed frequency; summing over ω(p) orders caps f2.
                if exact_edges:
                    edge_component = unmapped_edge_max
                    for image in images:
                        incident = incident_cache.get(image)
                        if incident is None:
                            if fast:
                                incident = caps.incident_max(image)
                            else:
                                incident = max(
                                    graph_2.max_outgoing_weight(
                                        image, all_candidates
                                    ),
                                    graph_2.max_incoming_weight(
                                        image, all_candidates
                                    ),
                                )
                            incident_cache[image] = incident
                        if incident > edge_component:
                            edge_component = incident
                else:
                    edge_component = self._global_max_edge_2
                for source, target in mandatory:
                    source_image = mapping_get(source)
                    target_image = mapping_get(target)
                    if source_image is not None and target_image is not None:
                        placed = graph_2.edge_weight_or_zero(
                            source_image, target_image
                        )
                    elif source_image is not None:
                        placed = placed_out_cache.get(source_image)
                        if placed is None:
                            if fast:
                                placed = caps.max_outgoing_excluding(
                                    source_image, mapped_values
                                )
                            else:
                                placed = graph_2.max_outgoing_weight(
                                    source_image, unmapped_set
                                )
                            placed_out_cache[source_image] = placed
                    elif target_image is not None:
                        placed = placed_in_cache.get(target_image)
                        if placed is None:
                            if fast:
                                placed = caps.max_incoming_excluding(
                                    target_image, mapped_values
                                )
                            else:
                                placed = graph_2.max_incoming_weight(
                                    target_image, unmapped_set
                                )
                            placed_in_cache[target_image] = placed
                    else:
                        continue
                    if placed < edge_component:
                        edge_component = placed
                        if edge_component == 0.0:
                            break
                frequency_cap = min(vertex_cap, omega * edge_component)
            else:
                frequency_cap = vertex_cap

            if frequency_cap <= frequency_1:
                total += frequency_similarity(frequency_1, frequency_cap)
            else:
                total += 1.0
        return total

    def score(
        self,
        mapping: MappingABC[Event, Event],
        unmapped_targets: Collection[Event],
        stats: SearchStats | None = None,
    ) -> float:
        """``g + h`` of a partial mapping."""
        return self.g(mapping, stats) + self.h(mapping, unmapped_targets)

    def heuristic_order(self) -> list[Event]:
        """Anchored expansion order for the greedy heuristics.

        The exact search can afford the §3.1 pattern-involvement order
        (wrong branches are revisited); a commit-forever heuristic cannot,
        so its early decisions must be the *well-informed* ones.  The
        order therefore starts from the event whose vertex frequency is
        most distinctive (its mapping is nearly determined by frequency
        alone) and repeatedly appends the event with the most
        already-ordered neighbours in the dependency graph — maximizing
        the realized evidence (``g``) behind every single commitment.
        Ties break by pattern involvement, then alphabetically.
        """
        graph_1 = self.graph_1
        events = list(self.source_events)
        frequencies = {event: graph_1.vertex_weight(event) for event in events}

        def distinctiveness(event: Event) -> float:
            others = (
                abs(frequencies[event] - frequencies[other])
                for other in events
                if other != event
            )
            return min(others, default=1.0)

        ordered: list[Event] = []
        placed: set[Event] = set()
        while len(ordered) < len(events):
            def anchor_count(event: Event) -> int:
                neighbours = set(graph_1.successors(event))
                neighbours.update(graph_1.predecessors(event))
                return len(neighbours & placed)

            remaining = [event for event in events if event not in placed]
            best = max(
                remaining,
                key=lambda event: (
                    anchor_count(event),
                    distinctiveness(event),
                    self.index.involvement(event),
                    # Negative-free deterministic tiebreak.
                    tuple(-ord(ch) for ch in event),
                ),
            )
            ordered.append(best)
            placed.add(best)
        return ordered

    def collect_frequency_evaluations(self, stats: SearchStats) -> None:
        """Add the counters of the matcher run that just ended to ``stats``.

        Every matcher run ends with one collect.  The frequency
        evaluators (memo misses and hits, kernel tiers, automata, bitset
        operations, trace cells — summed over both logs) and this
        model's :meth:`h` caps counters each report what they counted
        since their previous collect, so a run on a reused model (a
        parallel worker's cached model, a blocked run's per-block models
        sharing the parent's evaluators) reports its own work only, and
        a model's construction counts toward its first run.
        """
        for evaluator in (self.evaluator_1, self.evaluator_2):
            for name, value in evaluator.take_counts().items():
                if hasattr(stats, name):  # kernel-only counters stay there
                    setattr(stats, name, getattr(stats, name) + value)
        taken_fast, taken_slow = self._caps_taken
        self._caps_taken = (self.caps_fast_path, self.caps_slow_path)
        fast = self.caps_fast_path - taken_fast
        slow = self.caps_slow_path - taken_slow
        if fast or slow:
            extra = stats.extra
            extra["caps_fast_path"] = extra.get("caps_fast_path", 0) + fast
            extra["caps_slow_path"] = extra.get("caps_slow_path", 0) + slow
