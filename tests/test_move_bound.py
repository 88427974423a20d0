"""The advanced heuristic's move bound (§5.1 revision, §3.3 bounds).

The revision phase rejects a swap or re-assignment without scoring it
when an admissible bound on its gain is below zero.  Three properties
carry that argument:

* **admissibility** — ``contribution_cap(p, M) >= contribution(p, M)``
  for every pattern and complete injective mapping, with equality for
  patterns of one or two events;
* **no decision changes** — from the same seeds, the pruned hill-climb
  returns the same mapping, score and processed mappings as a reference
  hill-climb that scores every move with the full ``g``, on full
  models, restricted block models and warm-started runs;
* **live-log re-matches** — every re-match of an online session equals
  a batch match of a frozen snapshot with the same warm start.

Inputs come from the ``datagen`` generators, perturbed with
``datagen.noise`` and ``resilience.chaos``.
"""

from functools import lru_cache

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.heuristic import (
    MAX_REFINEMENT_PASSES,
    MOVE_BOUND_MARGIN,
    AdvancedHeuristicMatcher,
)
from repro.core.matcher import HEURISTIC_BOUND, EventMatcher, MatchOptions
from repro.core.scoring import ScoreModel, build_pattern_set
from repro.core.stats import SearchStats
from repro.datagen import (
    generate_largevocab,
    generate_random_pair,
    generate_reallike,
    generate_synthetic,
)
from repro.datagen.noise import perturb_log
from repro.log.eventlog import EventLog
from repro.patterns.ast import and_, seq
from repro.resilience.chaos import ChaosConfig, ChaosInjector
from repro.stream.engine import OnlineMatcher
from repro.stream.ingest import StreamingLog

_GENERATORS = {
    "reallike": lambda seed: generate_reallike(
        num_traces=120, seed=seed
    ).project_events(7),
    "synthetic": lambda seed: generate_synthetic(
        num_blocks=1, num_traces=120, seed=seed
    ).project_events(7),
    "largevocab": lambda seed: generate_largevocab(
        num_families=3, roles_per_family=2, num_traces=80, seed=seed
    ),
    "random": lambda seed: generate_random_pair(
        num_events=6, num_traces=60, seed=seed
    ),
}

#: SEQ/AND shapes over 3–4 distinct events.
_SHAPES = (
    lambda a, b, c, d: seq(a, b, c),
    lambda a, b, c, d: and_(a, b, c),
    lambda a, b, c, d: seq(a, and_(b, c), d),
    lambda a, b, c, d: and_(seq(a, b), c),
    lambda a, b, c, d: seq(a, b, c, d),
)


@lru_cache(maxsize=None)
def _base_task(kind: str, seed: int):
    return _GENERATORS[kind](seed)


def _chaos(log: EventLog, seed: int) -> EventLog:
    injector = ChaosInjector(
        ChaosConfig(
            drop_event_rate=0.05,
            reorder_event_rate=0.2,
            drop_trace_rate=0.05,
            duplicate_trace_rate=0.1,
            seed=seed,
        )
    )
    traces = [events for _, events in injector.perturb(log.traces) if events]
    return EventLog(traces, name=log.name)


@st.composite
def tasks(draw):
    """``(log_1, log_2, patterns)``: a generated, perturbed task."""
    kind = draw(st.sampled_from(sorted(_GENERATORS)))
    task = _base_task(kind, draw(st.integers(0, 5)))
    log_2 = task.log_2
    noise = draw(st.sampled_from(("none", "noise", "chaos")))
    if noise == "noise":
        log_2 = perturb_log(log_2, swap_rate=0.1, drop_rate=0.03, seed=3)
    elif noise == "chaos":
        log_2 = _chaos(log_2, seed=draw(st.integers(0, 3)))
    events = sorted(task.log_1.alphabet())
    patterns = []
    for _ in range(draw(st.integers(1, 3))):
        chosen = draw(st.permutations(events))[:4]
        patterns.append(draw(st.sampled_from(_SHAPES))(*chosen))
    return task.log_1, log_2, patterns


def _model(log_1, log_2, patterns) -> ScoreModel:
    return ScoreModel(
        log_1,
        log_2,
        build_pattern_set(log_1, complex_patterns=patterns),
        bound=HEURISTIC_BOUND,
    )


def _injective(draw, model: ScoreModel) -> dict:
    """A random injective mapping covering as many sources as fit."""
    targets = draw(st.permutations(model.target_events))
    return dict(zip(model.source_events, targets))


def reference_hill_climb(model, mapping, score, targets, stats, passes):
    """The revision loop with every move scored by the full ``g``."""
    for _ in range(passes):
        improved = False
        sources = sorted(mapping)
        unused = [t for t in targets if t not in mapping.values()]
        for i, first in enumerate(sources):
            for second in sources[i + 1:]:
                candidate = dict(mapping)
                candidate[first], candidate[second] = (
                    candidate[second], candidate[first],
                )
                stats.processed_mappings += 1
                candidate_score = model.g(candidate)
                if candidate_score > score + 1e-12:
                    mapping, score, improved = candidate, candidate_score, True
        for source in sources:
            for target in unused:
                candidate = dict(mapping)
                candidate[source] = target
                stats.processed_mappings += 1
                candidate_score = model.g(candidate)
                if candidate_score > score + 1e-12:
                    mapping, score, improved = candidate, candidate_score, True
                    unused = [t for t in targets if t not in mapping.values()]
        if not improved:
            break
    return mapping, score


class ReferenceMatcher(AdvancedHeuristicMatcher):
    def _hill_climb(self, mapping, score, targets, stats):
        return reference_hill_climb(
            self.model, mapping, score, targets, stats, MAX_REFINEMENT_PASSES
        )


def _climbs_agree(model: ScoreModel, seed: dict) -> None:
    targets = list(model.target_events)
    score = model.g(seed)
    pruned_stats, reference_stats = SearchStats(), SearchStats()
    matcher = AdvancedHeuristicMatcher(model)
    pruned = matcher._hill_climb(dict(seed), score, targets, pruned_stats)
    reference = reference_hill_climb(
        model, dict(seed), score, targets, reference_stats,
        MAX_REFINEMENT_PASSES,
    )
    assert pruned == reference
    assert pruned_stats.processed_mappings == (
        reference_stats.processed_mappings
    )


def _matches_agree(model: ScoreModel, warm=None) -> None:
    pruned = AdvancedHeuristicMatcher(model, initial_mapping=warm).match()
    reference = ReferenceMatcher(model, initial_mapping=warm).match()
    assert pruned.mapping == reference.mapping
    assert pruned.score == reference.score
    assert pruned.stats.processed_mappings == (
        reference.stats.processed_mappings
    )


class TestAdmissibility:
    @settings(max_examples=60, deadline=None)
    @given(task=tasks(), data=st.data())
    def test_cap_dominates_contribution(self, task, data):
        model = _model(*task)
        mapping = _injective(data.draw, model)
        for pattern in model.patterns:
            events = model.event_set(pattern)
            if not events <= mapping.keys():
                continue
            cap = model.contribution_cap(pattern, mapping)
            realized = model.contribution(pattern, mapping)
            if len(events) <= 2:
                assert cap == realized, pattern
            else:
                assert cap >= realized, pattern

    def test_margin_covers_worst_case_rounding(self):
        # The derivation beside MOVE_BOUND_MARGIN: two |P|-term sums of
        # contributions in [0, 1] plus the bound's own sum err by at
        # most u·(1.5·n² + 2.5·n), which must stay below the margin for
        # the 75,000 patterns it is stated for.
        u = 2.0 ** -53
        n = 75_000
        assert u * (1.5 * n * n + 2.5 * n) < MOVE_BOUND_MARGIN


class TestSameDecisions:
    @settings(max_examples=40, deadline=None)
    @given(task=tasks(), data=st.data())
    def test_full_model_from_random_seed(self, task, data):
        model = _model(*task)
        _climbs_agree(model, _injective(data.draw, model))

    @settings(max_examples=25, deadline=None)
    @given(task=tasks(), data=st.data())
    def test_restricted_block_model(self, task, data):
        model = _model(*task)
        sources = data.draw(
            st.lists(st.sampled_from(model.source_events), min_size=2,
                     unique=True)
        )
        targets = data.draw(
            st.lists(st.sampled_from(model.target_events), min_size=2,
                     unique=True)
        )
        block = model.restricted(sources, targets)
        _climbs_agree(block, _injective(data.draw, block))
        _matches_agree(block)

    @settings(max_examples=25, deadline=None)
    @given(task=tasks(), data=st.data())
    def test_warm_started_match(self, task, data):
        model = _model(*task)
        _matches_agree(model, warm=_injective(data.draw, model))

    def test_bound_rejects_moves_unscored(self):
        # Non-vacuity: on a seeded real-like task most moves are pruned,
        # and the result is still the reference's.
        task = generate_reallike(num_traces=300, seed=7)
        model = _model(task.log_1, task.log_2, task.patterns)
        scored = []
        full_g = model.g

        def counted_g(mapping, stats=None):
            scored.append(1)
            return full_g(mapping, stats)

        model.g = counted_g
        outcome = AdvancedHeuristicMatcher(model).match()
        del model.g
        reference = ReferenceMatcher(model).match()
        assert outcome.mapping == reference.mapping
        assert outcome.score == reference.score
        assert outcome.stats.processed_mappings == (
            reference.stats.processed_mappings
        )
        assert 0 < len(scored) < outcome.stats.processed_mappings // 4


class TestLiveLogRematch:
    def test_every_rematch_equals_a_snapshot_batch_match(self):
        task = generate_reallike(num_traces=240, seed=7).project_events(7)
        steady = list(task.log_2.traces)
        drifted = list(
            perturb_log(task.log_2, swap_rate=0.4, drop_rate=0.1, seed=1)
        )
        feed = steady[:80] + drifted[:80] + steady[80:160]
        stream = StreamingLog(name="live")
        engine = OnlineMatcher(
            task.log_1, stream, patterns=task.patterns, exact_cutoff=0,
            drift_threshold=0.02,
        )
        methods = []
        for start in range(0, len(feed), 40):
            stream.extend(feed[start:start + 40])
            previous = engine.mapping
            snapshot = stream.snapshot()
            record = engine.update()
            if not record.rematched:
                continue
            oracle = EventMatcher(
                task.log_1, snapshot, patterns=task.patterns
            ).run(MatchOptions("heuristic-advanced"), warm_start=previous)
            assert engine.mapping == oracle.mapping
            assert record.method == oracle.method
            assert record.mapping_changed == (oracle.mapping != previous)
            methods.append(record.method)
        assert len(methods) >= 2
