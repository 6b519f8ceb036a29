"""Shared fixtures for the test suite."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import settings

from repro.config import ColoringConfig
from repro.graphs.generators import (
    clique_blob_graph,
    complete_graph,
    gnp_graph,
    planted_acd_graph,
    ring_graph,
)
from repro.simulator.network import BroadcastNetwork
from repro.simulator.rng import SeedSequencer

# A longer Hypothesis run for CI's oracle steps: ``pytest
# --hypothesis-profile ci``.  Tier-1 runs the default profile; tests that
# size their run from it (``settings.default.max_examples``) get ten times
# the examples under this one.
settings.register_profile("ci", max_examples=1000)


@pytest.fixture
def cfg() -> ColoringConfig:
    return ColoringConfig.practical()


@pytest.fixture
def seq() -> SeedSequencer:
    return SeedSequencer(12345)


@pytest.fixture
def triangle_net() -> BroadcastNetwork:
    return BroadcastNetwork((3, [(0, 1), (1, 2), (0, 2)]))


@pytest.fixture
def path_net() -> BroadcastNetwork:
    return BroadcastNetwork((4, [(0, 1), (1, 2), (2, 3)]))


@pytest.fixture
def small_gnp_net() -> BroadcastNetwork:
    return BroadcastNetwork(gnp_graph(60, 0.15, seed=3))


@pytest.fixture
def clique_net() -> BroadcastNetwork:
    return BroadcastNetwork(complete_graph(12))


@pytest.fixture
def ring_net() -> BroadcastNetwork:
    return BroadcastNetwork(ring_graph(20))


@pytest.fixture
def planted_net(cfg) -> BroadcastNetwork:
    g = planted_acd_graph(4, 40, cfg.eps, sparse_nodes=40, seed=7)
    return BroadcastNetwork(g, bandwidth_bits=cfg.bandwidth_bits(g[0]))


@pytest.fixture
def blob_net(cfg) -> BroadcastNetwork:
    g = clique_blob_graph(3, 40, anti_edges_per_clique=30, external_edges_per_clique=10, seed=9)
    return BroadcastNetwork(g, bandwidth_bits=cfg.bandwidth_bits(g[0]))
