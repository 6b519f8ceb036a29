"""Multi-shard partitioned coloring (DESIGN.md §7).

The first layer where the proper-coloring invariant is a *distributed*
property: the node universe is split across k workers, each colors its
shard's interior on the induced CSR, and propriety across the cut is
re-established in the driver the way the churn engine repairs a batch —
one victim per monochromatic cut edge, recolored by one
:func:`~repro.dynamic.engine.conflict_repair` against the fixed fringe
— by protocol, not by construction.  Pool workers receive the graph
zero-copy through a shared-memory arena (:mod:`repro.shard.shm`).
Partitioners in :mod:`repro.shard.partition`, driver in
:mod:`repro.shard.engine`, surface via ``repro shard`` and the runner's
``algorithm="shard"`` trials.
"""

from repro.shard.engine import (
    START_METHODS,
    ShardedColoring,
    ShardedResult,
    ShardReport,
)
from repro.shard.partition import (
    STRATEGIES,
    Partition,
    partition_nodes,
)
from repro.shard.shm import ArenaDescriptor, ShmArena, leaked_segments

__all__ = [
    "ArenaDescriptor",
    "Partition",
    "START_METHODS",
    "STRATEGIES",
    "ShardReport",
    "ShardedColoring",
    "ShardedResult",
    "ShmArena",
    "leaked_segments",
    "partition_nodes",
]
