"""Adversarial-condition tests.

Lemma 3.5 explicitly claims the SCT bound holds "even if the random bits
outside of K are chosen adversarially"; the model enforces bandwidth and
memory limits that protocols must not be able to cheat.  These tests put
hostile inputs against those guarantees.
"""

import numpy as np
import pytest

from repro.config import ColoringConfig
from repro.core.cliques import compute_clique_info
from repro.core.sct import synchronized_color_trial
from repro.core.state import ColoringState, ImproperColoring
from repro.decomposition.acd import AlmostCliqueDecomposition
from repro.graphs.generators import clique_blob_graph, complete_graph
from repro.simulator.network import BandwidthExceeded, BroadcastNetwork
from repro.simulator.rng import SeedSequencer


class TestAdversarialSCT:
    """Lemma 3.5's adversarial clause: external colors chosen to hurt."""

    def _setup(self, seed=0):
        cfg = ColoringConfig.practical(x_full_factor=0.02, seed=seed)
        # One clique of 48 + 48 external attackers, one per member.
        size = 48
        edges = [(i, j) for i in range(size) for j in range(i + 1, size)]
        edges += [(i, size + i) for i in range(size)]  # pendant attackers
        net = BroadcastNetwork((2 * size, edges), bandwidth_bits=cfg.bandwidth_bits(96))
        labels = np.concatenate([np.zeros(size, dtype=np.int64), np.full(size, -1)])
        acd = AlmostCliqueDecomposition(labels=labels, eps=cfg.eps)
        state = ColoringState(net)
        info = compute_clique_info(net, acd, cfg, num_colors=state.num_colors)
        return cfg, net, state, info, size

    def test_adversarial_external_colors_bounded_damage(self):
        """The adversary colors every attacker with the clique-palette color
        its victim is most likely to receive.  Per Lemma 3.5 the trial
        survives: each external neighbor kills at most its own victim, so
        leftovers stay ≤ e_K·|K| / Δ-ish — here ≤ the number of attackers,
        and in practice far less because π is random."""
        cfg, net, state, info, size = self._setup()
        # Adversary: attacker i takes color i (trying to shadow the i-th
        # palette color, a worst-case-flavored strategy).
        attackers = np.arange(size, 2 * size)
        state.adopt(attackers, np.arange(size) % state.num_colors)
        rep = synchronized_color_trial(state, info, {}, cfg, SeedSequencer(1))
        leftover = sum(rep.leftover_by_clique.values())
        assert leftover <= size // 2  # adversary can't break the trial
        state.verify()

    def test_adversarial_colors_never_break_propriety(self):
        cfg, net, state, info, size = self._setup(seed=3)
        attackers = np.arange(size, 2 * size)
        # All attackers pick THE SAME low color — maximal shadowing of one
        # palette slot.
        state.adopt(attackers, np.zeros(size, dtype=np.int64))
        synchronized_color_trial(state, info, {}, cfg, SeedSequencer(3))
        state.verify()

    def test_adversary_cannot_starve_multiple_victims_per_attacker(self):
        """Each attacker is adjacent to one member: total damage is bounded
        by the number of attackers across any adversarial choice (tried on
        several strategies)."""
        for strategy in ("mirror", "same", "shifted"):
            cfg, net, state, info, size = self._setup(seed=5)
            attackers = np.arange(size, 2 * size)
            if strategy == "mirror":
                cols = np.arange(size) % state.num_colors
            elif strategy == "same":
                cols = np.full(size, 7 % state.num_colors)
            else:
                cols = (np.arange(size) + 13) % state.num_colors
            state.adopt(attackers, cols.astype(np.int64))
            rep = synchronized_color_trial(state, info, {}, cfg, SeedSequencer(7))
            assert sum(rep.leftover_by_clique.values()) <= size


class TestModelEnforcement:
    def test_oversized_vector_round_rejected(self):
        net = BroadcastNetwork((4, [(0, 1)]), bandwidth_bits=16)
        with pytest.raises(BandwidthExceeded):
            net.account_vector_round(4, 1000)

    def test_state_rejects_hostile_batch(self):
        net = BroadcastNetwork(complete_graph(4))
        state = ColoringState(net)
        # A "protocol bug" proposing the same color on an edge must not
        # silently corrupt the coloring.
        with pytest.raises(ImproperColoring):
            state.adopt(np.array([0, 1]), np.array([2, 2]))
        assert state.num_uncolored() == 4

    def test_pipeline_survives_degenerate_decomposition(self):
        """Feeding a *wrong* (all-one-clique) decomposition: the pipeline's
        phases degrade but the output contract (proper + complete) holds —
        the cleanup is the safety net, and its rounds are visible."""
        g = clique_blob_graph(2, 30, 10, 5, seed=1)
        n = g[0]
        hostile = AlmostCliqueDecomposition(
            labels=np.zeros(n, dtype=np.int64), eps=0.1
        )
        from repro.core.algorithm import BroadcastColoring

        res = BroadcastColoring(g, decomposition=hostile).run()
        assert res.proper and res.complete

    def test_pipeline_survives_all_sparse_decomposition(self):
        g = clique_blob_graph(2, 30, 10, 5, seed=2)
        n = g[0]
        hostile = AlmostCliqueDecomposition(
            labels=np.full(n, -1, dtype=np.int64), eps=0.1
        )
        from repro.core.algorithm import BroadcastColoring

        res = BroadcastColoring(g, decomposition=hostile).run()
        assert res.proper and res.complete
