"""Tests for ColoringConfig: presets, derived quantities, Eq. (3)/(5)."""

import dataclasses
import math

import numpy as np
import pytest

from repro.config import (
    MULTITRIAL_SAMPLERS,
    STRATEGIES,
    VICTIM_POLICIES,
    ColoringConfig,
)


class TestPresets:
    def test_practical_is_default_dataclass(self):
        assert ColoringConfig.practical() == ColoringConfig()

    def test_paper_constants(self):
        cfg = ColoringConfig.paper()
        assert cfg.eps == 1e-5
        assert cfg.beta == 401.0
        assert cfg.slack_probability == pytest.approx(1 / 200)
        assert cfg.x_full_factor == 200.0
        assert cfg.x_closed_factor == 400.0
        assert cfg.putaside_factor == 201.0
        assert cfg.permute_ac_eps == pytest.approx(1 / 12)

    def test_overrides(self):
        cfg = ColoringConfig.practical(eps=0.2, beta=5.0)
        assert cfg.eps == 0.2 and cfg.beta == 5.0

    def test_paper_overrides(self):
        cfg = ColoringConfig.paper(eps=0.01)
        assert cfg.eps == 0.01
        assert cfg.beta == 401.0

    def test_with_seed(self):
        cfg = ColoringConfig.practical().with_seed(99)
        assert cfg.seed == 99

    def test_frozen(self):
        cfg = ColoringConfig.practical()
        with pytest.raises(Exception):
            cfg.eps = 0.5

    @pytest.mark.parametrize(
        "field,value",
        [
            ("acd_minhash_samples", 0),
            ("acd_minhash_samples", -3),
            ("acd_minhash_samples", 2.5),
            ("acd_minhash_bits", 0),
            ("acd_minhash_bits", 17),
            ("acd_minhash_bits", "2"),
            ("eps", 0),
            ("eps", -0.1),
            ("eps", 1.0),
            ("eps", float("nan")),
            ("eps", float("inf")),
            ("compress_try_colors", 0),
            ("compress_try_colors", -4),
            ("compress_try_colors", 2.5),
            ("compress_try_repeats", 0),
            ("compress_try_repeats", -1),
            ("compress_try_repeats", 2.0),
            ("conflict_victim", "bogus"),
            ("conflict_victim", None),
            ("multitrial_sampler", "prg"),
            ("multitrial_sampler", "expandr"),
            ("shard_k", 0),
            ("shard_k", -1),
            ("shard_k", 2.5),
            ("shard_strategy", "bogus"),
            ("multitrial_initial", 0),
            ("multitrial_initial", -2),
            ("multitrial_initial", 2.0),
            ("multitrial_cap", 0),
            ("multitrial_cap", -3),
            ("multitrial_cap", 8.5),
            ("multitrial_max_iters", -1),
            ("multitrial_max_iters", 3.0),
            ("multitrial_growth", 0.5),
            ("multitrial_growth", 0),
            ("multitrial_growth", float("nan")),
            ("multitrial_growth", float("inf")),
            ("multitrial_growth", "2"),
        ],
    )
    def test_rejects_invalid_sketch_parameters(self, field, value):
        """Both presets and ``dataclasses.replace`` (the path of
        load_graph overrides) refuse an eps outside (0, 1), a sketch the
        fingerprint kernel cannot run, a CompressTry count or shard count
        below 1, MultiTrial try counts, iteration bound or growth that
        would shrink, skip or overflow its tries, and a victim rule,
        sampler or partition strategy that does not exist, naming the
        field; the edges of the valid range still build."""
        for build in (
            lambda: ColoringConfig.practical(**{field: value}),
            lambda: ColoringConfig.paper(**{field: value}),
            lambda: dataclasses.replace(ColoringConfig(), **{field: value}),
        ):
            with pytest.raises(ValueError, match=field):
                build()
        ColoringConfig.practical(acd_minhash_samples=1, acd_minhash_bits=1)
        ColoringConfig.practical(acd_minhash_bits=16)
        ColoringConfig.practical(eps=0.999)
        ColoringConfig.practical(compress_try_colors=1, compress_try_repeats=1)
        for victim in VICTIM_POLICIES:
            ColoringConfig.practical(conflict_victim=victim)
        for sampler in MULTITRIAL_SAMPLERS:
            ColoringConfig.practical(multitrial_sampler=sampler)
        ColoringConfig.practical(shard_k=1)
        for strategy in STRATEGIES:
            ColoringConfig.practical(shard_strategy=strategy)
        ColoringConfig.practical(
            multitrial_initial=1, multitrial_cap=1, multitrial_max_iters=0,
            multitrial_growth=1,
        )

    @pytest.mark.parametrize(
        "field,value",
        [
            ("seed", "x"),
            ("seed", 1.5),
            ("seed", True),
            ("shard_k", 2**70),
            ("seed", -(2**63) - 1),
            ("bandwidth_factor", "big"),
            ("bandwidth_factor", float("inf")),
            ("bandwidth_factor", float("-inf")),
            ("bandwidth_factor", float("nan")),
            pytest.param("bandwidth_factor", 10**400, id="bandwidth_factor-10**400"),
            ("slack_probability", float("nan")),
            ("beta", float("inf")),
            ("eps", True),
            ("enable_matching", "no"),
            ("enable_matching", 1),
            ("shard_strategy", 3),
        ],
    )
    def test_rejects_value_not_of_field_type(self, field, value):
        """Every field is checked against its annotation, naming it: an
        int field takes an integer within int64 and no bool, a float
        field a finite real number but no bool (not NaN, ±inf or an
        integer past the float range), a bool field only a bool, a str
        field only a string."""
        with pytest.raises(ValueError, match=field):
            dataclasses.replace(ColoringConfig(), **{field: value})

    def test_accepts_values_of_field_type(self):
        for seed in (-(2**63), 2**63 - 1, np.int64(7)):
            assert ColoringConfig(seed=seed).seed == seed
        assert ColoringConfig(bandwidth_factor=32).bandwidth_factor == 32
        assert ColoringConfig(eps=np.float64(0.2)).eps == 0.2
        assert ColoringConfig(enable_matching=False).enable_matching is False

    def test_shard_choices_defined_once(self):
        """The shard package re-exports the config's tuple, so the CLI's
        choices and the engine's checks accept what the config accepts."""
        from repro import shard
        from repro.shard import partition

        assert shard.STRATEGIES is partition.STRATEGIES is STRATEGIES


class TestDerived:
    def test_ell_formula(self):
        cfg = ColoringConfig.practical(ell_factor=2.0, ell_exponent=1.1)
        n = 1 << 10
        assert cfg.ell(n) == math.ceil(2.0 * 10 ** 1.1)

    def test_ell_minimum_one(self):
        assert ColoringConfig.practical().ell(1) >= 1

    def test_log_threshold(self):
        cfg = ColoringConfig.practical(c_log=3.0)
        assert cfg.log_threshold(1 << 8) == pytest.approx(24.0)

    def test_putaside_size_scales_with_ell(self):
        cfg = ColoringConfig.practical(putaside_factor=2.0)
        n = 1 << 12
        assert cfg.putaside_size(n) == math.ceil(2.0 * cfg.ell(n))

    def test_bandwidth_bits(self):
        cfg = ColoringConfig.practical(bandwidth_factor=16.0)
        assert cfg.bandwidth_bits(1 << 10) == 160

    def test_bandwidth_floor(self):
        assert ColoringConfig.practical().bandwidth_bits(2) >= 8


class TestClassification:
    def test_full_requires_small_a_plus_e(self):
        cfg = ColoringConfig.practical()
        n = 1 << 12
        ell = cfg.ell(n)
        assert cfg.classify_clique(n, ell / 4, ell / 4) == "full"

    def test_open_requires_dominant_e(self):
        cfg = ColoringConfig.practical()
        n = 1 << 12
        ell = cfg.ell(n)
        assert cfg.classify_clique(n, 1.0, 3.0 * ell) == "open"

    def test_closed_otherwise(self):
        cfg = ColoringConfig.practical()
        n = 1 << 12
        ell = cfg.ell(n)
        assert cfg.classify_clique(n, 2.0 * ell, ell) == "closed"

    def test_x_unknown_kind_raises(self):
        with pytest.raises(ValueError):
            ColoringConfig.practical().x_of_clique("weird", 100, 1.0, 1.0)

    def test_x_open_minimum_one(self):
        cfg = ColoringConfig.practical()
        assert cfg.x_of_clique("open", 100, 0.0, 0.0) >= 1
