"""Unit tests for configuration dataclasses."""

import dataclasses
import math

import pytest

from repro.config import (
    Algorithm,
    PolicyConfig,
    SystemConfig,
    WorkloadConfig,
    WorkloadKind,
)
from repro.errors import ConfigurationError


class TestPolicyConfig:
    def test_defaults_validate(self):
        PolicyConfig().validate()

    def test_summary_budget(self):
        config = PolicyConfig(kappa=256.0)
        assert config.summary_budget(1024) == 4
        assert config.summary_budget(100) == 1  # floor at one entry

    def test_invalid_fields(self):
        with pytest.raises(ConfigurationError):
            PolicyConfig(kappa=0.5).validate()
        with pytest.raises(ConfigurationError):
            PolicyConfig(summary_refresh_interval=0).validate()

    @pytest.mark.parametrize("kappa", [math.inf, -math.inf, math.nan])
    def test_non_finite_kappa_is_rejected(self, kappa):
        """``inf`` used to run a one-coefficient budget (``W / inf`` floors
        to 0, clamped to 1) and NaN slipped past ``kappa < 1``."""
        with pytest.raises(ConfigurationError, match="kappa must be finite"):
            PolicyConfig(kappa=kappa).validate()

    def test_removed_sketch_variant_is_type_error(self):
        # Fast-AGMS is gone; SKCH always runs the paper's AGMS sketch.
        with pytest.raises(TypeError):
            PolicyConfig(sketch_variant="fast")

    def test_with_overrides(self):
        config = PolicyConfig(kappa=8.0)
        updated = dataclasses.replace(config, kappa=16.0)
        assert updated.kappa == 16.0
        assert config.kappa == 8.0  # original frozen


class TestWorkloadConfig:
    def test_defaults_validate(self):
        WorkloadConfig().validate()

    def test_invalid_fields(self):
        with pytest.raises(ConfigurationError):
            WorkloadConfig(total_tuples=0).validate()
        with pytest.raises(ConfigurationError):
            WorkloadConfig(domain=1).validate()
        with pytest.raises(ConfigurationError):
            WorkloadConfig(arrival_rate=0).validate()
        with pytest.raises(ConfigurationError):
            WorkloadConfig(skew=-0.1).validate()

    @pytest.mark.parametrize(
        "field, value",
        [
            ("arrival_rate", math.inf),
            ("arrival_rate", math.nan),
            ("alpha", math.inf),
            ("alpha", math.nan),
        ],
    )
    def test_non_finite_rate_and_alpha_are_rejected(self, field, value):
        """An infinite rate used to schedule every arrival at t = 0 and
        report a normal-looking run; NaN passed both sign checks."""
        with pytest.raises(ConfigurationError, match="%s must be finite" % field):
            WorkloadConfig(**{field: value}).validate()


class TestSystemConfig:
    def test_defaults_validate(self):
        SystemConfig().validate()

    def test_default_link_is_latency_only(self):
        config = SystemConfig()
        assert math.isinf(config.link.bandwidth_bps)

    def test_invalid_fields(self):
        with pytest.raises(ConfigurationError):
            SystemConfig(num_nodes=1).validate()
        with pytest.raises(ConfigurationError):
            SystemConfig(window_size=0).validate()

    def test_nested_validation_propagates(self):
        with pytest.raises(ConfigurationError):
            SystemConfig(policy=PolicyConfig(kappa=0.1)).validate()

    def test_as_dict_echoes_key_parameters(self):
        config = SystemConfig(
            num_nodes=6,
            policy=PolicyConfig(algorithm=Algorithm.BLOOM, kappa=32.0),
            workload=WorkloadConfig(kind=WorkloadKind.FINANCIAL),
            seed=99,
        )
        snapshot = config.as_dict()
        assert snapshot["num_nodes"] == 6
        assert snapshot["algorithm"] == "BLOOM"
        assert snapshot["kappa"] == 32.0
        assert snapshot["workload"] == "FIN"
        assert snapshot["seed"] == 99
        # The partitioner's SPREAD constant is echoed, so config digests
        # keep their bytes.
        assert snapshot["spread"] == 0.35

    def test_with_overrides(self):
        config = SystemConfig(num_nodes=4)
        assert dataclasses.replace(config, num_nodes=8).num_nodes == 8
