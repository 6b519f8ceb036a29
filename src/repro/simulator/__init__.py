"""The BCONGEST substrate: a synchronous broadcast-round simulator.

Per round, every node may broadcast one message of at most ``O(log n)``
bits to all of its neighbors (§1 of the paper).  Protocols run as
vectorized whole-graph steps over the CSR graph; each round is charged
through one function that refuses any message over the bandwidth cap and
accounts rounds and bits per phase, so the experiments can verify the
model claims.
"""

from repro.simulator.network import BroadcastNetwork, BandwidthExceeded
from repro.simulator.metrics import RoundMetrics
from repro.simulator.rng import SeedSequencer

__all__ = [
    "BroadcastNetwork",
    "BandwidthExceeded",
    "RoundMetrics",
    "SeedSequencer",
]
