"""repro.parallel — process-parallel exact search.

:func:`~repro.parallel.search.parallel_match` runs one exact search
(Theorem 1's NP-hard problem) over many processes: the A* root split
with a shared anytime incumbent (HDA*-style, Kishimoto et al.).  It is
reached through ``workers=N`` on :meth:`repro.EventMatcher.run`,
:func:`repro.match` and the CLI's ``match --workers``; ``N=1`` keeps
the serial code path untouched.  It is the only process fan-out inside
matching: blocked runs search their blocks serially whatever
``workers`` says.
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

__all__ = [
    "SharedIncumbent",
    "ShardOutcome",
    "WarmPool",
    "chunk_root_targets",
    "close_warm_pool",
    "current_warm_pool",
    "get_warm_pool",
    "parallel_match",
    "partition_root_targets",
    "warm_pool_stats",
]
