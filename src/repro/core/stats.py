"""Search statistics collected by the matchers.

The paper's efficiency figures (7c, 8c, 9c, 10c) report the number of
*processed mappings* — child nodes generated at Line 7 of Algorithm 1,
and the candidate pairs and moves the heuristics score.  The matchers
record these counters here so the evaluation harness can reproduce those
series.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields


@dataclass
class SearchStats:
    """Counters accumulated by one matcher run."""

    #: Child mappings generated/evaluated (the figures' "processed mappings").
    processed_mappings: int = 0
    #: Tree nodes popped from the A* frontier (exact search only).
    expanded_nodes: int = 0
    #: Pattern-frequency evaluations that actually scanned traces.
    frequency_evaluations: int = 0
    #: Pattern-frequency lookups answered from the evaluators' memo.
    frequency_cache_hits: int = 0
    #: Patterns skipped by the Proposition 3 subgraph pruning rule.
    pruned_by_existence: int = 0
    #: Children discarded because their upper bound could not beat the
    #: incumbent (exact search only).
    pruned_by_bound: int = 0
    #: Aho–Corasick automata compiled by the frequency kernel.
    automaton_builds: int = 0
    #: Frequency-kernel queries answered by a memoized automaton.
    automaton_hits: int = 0
    #: Bitset posting-list ``&``/``|`` operations in the kernel.
    bitset_intersections: int = 0
    #: Trace cells fed through kernel automaton/naive scans.
    trace_cells_scanned: int = 0
    #: Kernel queries answered by one posting-list popcount (tier 1).
    popcount_queries: int = 0
    #: Kernel queries answered from bigram posting bitsets (tier 2).
    bigram_queries: int = 0
    #: Kernel tier-3 queries scanned without an automaton.
    naive_queries: int = 0
    #: Times the anytime search improved its best complete incumbent.
    incumbent_updates: int = 0
    #: Candidate blocks the blocking tier partitioned the vocabularies
    #: into (auto-accepted + escalated + the residual cleanup tier).
    blocking_blocks: int = 0
    #: Source×target pairs of the unblocked candidate space |V1|·|V2|.
    blocking_pairs_total: int = 0
    #: Candidate pairs actually enumerable after blocking
    #: (Σ |S_i|·|T_i| over blocks plus the residual tier).
    blocking_pairs_considered: int = 0
    #: Pairs fixed by the unambiguous 1:1 auto-accept tier (no search).
    blocking_auto_accepted: int = 0
    #: Blocks escalated to an in-block search (exact or heuristic).
    blocking_escalated: int = 0
    #: Free-form named values; ints stay ints across :meth:`merge`.
    extra: dict[str, int | float] = field(default_factory=dict)

    def merge(self, other: "SearchStats") -> None:
        """Accumulate another run's counters into this one."""
        for name in _COUNTER_FIELDS:
            setattr(self, name, getattr(self, name) + getattr(other, name))
        for key, value in other.extra.items():
            # An int default (not 0.0) keeps int + int an int; a float on
            # either side still promotes the sum to float as usual.
            self.extra[key] = self.extra.get(key, 0) + value

    def to_dict(self) -> dict:
        """All counters as one flat dict (``extra`` nested under its key).

        This is the view the metrics layer publishes: the dataclass
        fields stay the public API, and
        :func:`repro.obs.metrics.record_counts` (or any JSON writer)
        consumes this dict without knowing the field list.
        """
        payload: dict = {name: getattr(self, name) for name in _COUNTER_FIELDS}
        payload["extra"] = dict(self.extra)
        return payload


#: Every integer counter field, in declaration order.
_COUNTER_FIELDS = tuple(
    f.name for f in fields(SearchStats) if f.name != "extra"
)
