"""repro.parallel — process-parallel execution layer.

Two independent axes of parallelism over the NP-hard exact matcher
(Theorem 1) and its evaluation grid:

* :func:`~repro.parallel.search.parallel_match` — one search, many
  processes: the A* root split with a shared anytime incumbent
  (HDA*-style, Kishimoto et al.).
* :func:`~repro.parallel.sweep.parallel_sweep` — many searches, many
  processes: the evaluation harness's (task, matcher, budget) grid
  fanned over a pool, portfolio-runner style.

Both are reached through ``workers=N`` arguments on the existing entry
points (:meth:`repro.EventMatcher.run`,
:func:`repro.evaluation.harness.sweep_events`/``sweep_traces``, and the
CLI's ``--workers``); ``N=1`` keeps the serial code paths untouched.
"""

from repro.parallel.pool import (
    SharedIncumbent,
    WarmPool,
    close_warm_pool,
    current_warm_pool,
    get_warm_pool,
    warm_pool_stats,
)
from repro.parallel.search import (
    ShardOutcome,
    chunk_root_targets,
    parallel_match,
    partition_root_targets,
)
from repro.parallel.sweep import TaskSpec, parallel_sweep

__all__ = [
    "SharedIncumbent",
    "ShardOutcome",
    "TaskSpec",
    "WarmPool",
    "chunk_root_targets",
    "close_warm_pool",
    "current_warm_pool",
    "get_warm_pool",
    "parallel_match",
    "parallel_sweep",
    "partition_root_targets",
    "warm_pool_stats",
]
