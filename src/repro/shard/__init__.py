"""Multi-shard partitioned coloring (DESIGN.md §7).

The first layer where the proper-coloring invariant is a *distributed*
property: the node universe is split across k workers, each colors its
shard's interior on the induced CSR (plus a read-only ghost frontier of
cut neighbors), and propriety across the cut is re-established shard by
shard in the driver with the boundary-exchange protocol
(:mod:`repro.shard.boundary`) — by protocol, not by construction.  Pool
workers receive the graph zero-copy through a shared-memory arena
(:mod:`repro.shard.shm`).  Partitioners
in :mod:`repro.shard.partition`, driver in :mod:`repro.shard.engine`,
surface via ``repro shard`` and the runner's ``algorithm="shard"``
trials.
"""

from repro.shard.boundary import CutPlan, repair_boundary
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
    "CutPlan",
    "Partition",
    "START_METHODS",
    "STRATEGIES",
    "ShardReport",
    "ShardedColoring",
    "ShardedResult",
    "ShmArena",
    "leaked_segments",
    "partition_nodes",
    "repair_boundary",
]
