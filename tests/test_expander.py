"""Tests for the expander-walk representative sets (repro.hashing.expander)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import ColoringConfig
from repro.core.multitrial import multitrial
from repro.core.state import ColoringState
from repro.graphs.generators import gnp_graph
from repro.hashing.expander import ExpanderWalker, mgg_neighbors, walk_colors
from repro.simulator.network import BroadcastNetwork
from repro.simulator.rng import SeedSequencer


class TestMGGNeighbors:
    def test_degree_eight(self):
        assert len(mgg_neighbors(3, 4, 7)) == 8

    def test_all_in_torus(self):
        for x, y in mgg_neighbors(5, 6, 7):
            assert 0 <= x < 7 and 0 <= y < 7

    def test_origin_neighbors(self):
        nbrs = mgg_neighbors(0, 0, 5)
        # (x±y, y) with y=0 keeps (0,0); (x±(y+1)) moves.
        assert (1, 0) in nbrs and (4, 0) in nbrs
        assert (0, 1) in nbrs and (0, 4) in nbrs

    def test_neighbor_relation_structure(self):
        # Applying the inverse generator gets back: (x+y, y) → x' - y = x.
        m = 11
        x, y = 3, 7
        fwd = mgg_neighbors(x, y, m)[0]  # (x+y, y)
        assert (fwd[0] - fwd[1]) % m == x


class TestWalker:
    def test_deterministic(self):
        w = ExpanderWalker(0, 100)
        assert np.array_equal(w.walk(42, 10), w.walk(42, 10))

    def test_seed_changes_walk(self):
        w = ExpanderWalker(0, 100)
        assert not np.array_equal(w.walk(1, 10), w.walk(2, 10))

    def test_colors_in_interval(self):
        w = ExpanderWalker(20, 50)
        out = w.walk(7, 64)
        assert out.min() >= 20 and out.max() < 50

    def test_length(self):
        assert ExpanderWalker(0, 10).walk(1, 17).size == 17

    def test_empty_requests(self):
        assert walk_colors(1, 0, 0, 10).size == 0
        assert walk_colors(1, 5, 10, 10).size == 0

    def test_invalid_interval_raises(self):
        with pytest.raises(ValueError):
            ExpanderWalker(5, 5)

    def test_walk_mixes(self):
        """A length-k walk visits many distinct colors (no tiny cycles)."""
        w = ExpanderWalker(0, 1000)
        out = w.walk(123, 64)
        assert np.unique(out).size >= 32

    def test_coverage_near_uniform(self):
        """Aggregated over many seeds, visit frequencies are roughly flat
        (the expander's mixing): no color gets more than ~6x the mean."""
        width = 64
        counts = np.zeros(width)
        for seed in range(400):
            out = walk_colors(seed, 8, 0, width)
            np.add.at(counts, out, 1)
        assert counts.min() > 0
        assert counts.max() / counts.mean() < 6.0

    @given(st.integers(0, 2**60), st.integers(1, 40), st.integers(2, 500))
    @settings(max_examples=30, deadline=None)
    def test_walk_property(self, seed, k, width):
        out = walk_colors(seed, k, 0, width)
        assert out.size == k
        assert (out >= 0).all() and (out < width).all()


class TestExpanderMultiTrial:
    def test_multitrial_with_expander_sampler(self):
        cfg = ColoringConfig.practical(multitrial_sampler="expander")
        net = BroadcastNetwork(gnp_graph(300, 0.03, seed=1))
        state = ColoringState(net)
        mask = np.ones(net.n, dtype=bool)
        lo = np.zeros(net.n, dtype=np.int64)
        hi = np.full(net.n, state.num_colors, dtype=np.int64)
        rep = multitrial(state, mask, lo, hi, cfg, SeedSequencer(1), "mt")
        assert rep.remaining == 0
        state.verify()

    def test_full_pipeline_with_expander(self):
        from repro.core.algorithm import BroadcastColoring
        from repro.graphs.generators import clique_blob_graph

        cfg = ColoringConfig.practical(multitrial_sampler="expander", seed=2)
        res = BroadcastColoring(clique_blob_graph(3, 40, 20, 10, seed=2), cfg).run()
        assert res.proper and res.complete

    def test_samplers_agree_on_interface(self):
        """Both samplers fill the same role: k in-interval colors from a
        seed, -1 rows for empty intervals — interchangeable by
        construction."""
        from repro.config import MULTITRIAL_SAMPLERS
        from repro.core.multitrial import _proposal_matrix

        active = np.array([0, 3, 7], dtype=np.int64)
        lo = np.full(8, 5, dtype=np.int64)
        hi = np.full(8, 30, dtype=np.int64)
        hi[3] = 5  # empty interval
        for sampler in MULTITRIAL_SAMPLERS:
            cfg = ColoringConfig.practical(multitrial_sampler=sampler)
            out = _proposal_matrix(active, 12, lo, hi, cfg, SeedSequencer(99), "mt", 0)
            assert out.shape == (3, 12)
            assert (out[[0, 2]] >= 5).all() and (out[[0, 2]] < 30).all()
            assert (out[1] == -1).all()
