"""Tests for the hierarchical seeded RNG (repro.simulator.rng)."""

import numpy as np

from repro.simulator.rng import SeedSequencer


class TestDeterminism:
    def test_same_key_same_stream(self):
        a = SeedSequencer(7).stream("x", 1).random(5)
        b = SeedSequencer(7).stream("x", 1).random(5)
        assert np.array_equal(a, b)

    def test_different_keys_differ(self):
        a = SeedSequencer(7).stream("x", 1).random(5)
        b = SeedSequencer(7).stream("x", 2).random(5)
        assert not np.array_equal(a, b)

    def test_different_roots_differ(self):
        a = SeedSequencer(7).stream("x").random(5)
        b = SeedSequencer(8).stream("x").random(5)
        assert not np.array_equal(a, b)

    def test_derive_seed_stable(self):
        assert SeedSequencer(1).derive_seed("a", 2) == SeedSequencer(1).derive_seed("a", 2)

    def test_derive_seed_63bit(self):
        for k in range(50):
            s = SeedSequencer(3).derive_seed("k", k)
            assert 0 <= s < (1 << 63)


class TestStreamKinds:
    def test_shared_stream_node_independent(self):
        seq = SeedSequencer(0)
        assert np.array_equal(
            seq.shared_stream("t").random(4), seq.shared_stream("t").random(4)
        )

    def test_spawn_changes_root(self):
        seq = SeedSequencer(0)
        child = seq.spawn("phase")
        assert child.root_seed != seq.root_seed
        # but is itself deterministic
        child2 = seq.spawn("phase")
        assert child.root_seed == child2.root_seed

    def test_key_separator_no_collision(self):
        # ("ab", "c") must differ from ("a", "bc").
        seq = SeedSequencer(0)
        assert seq.derive_seed("ab", "c") != seq.derive_seed("a", "bc")

    def test_streams_statistically_reasonable(self):
        # Crude sanity: mean of uniform draws near 0.5.
        x = SeedSequencer(42).stream("u").random(10_000)
        assert abs(x.mean() - 0.5) < 0.02
