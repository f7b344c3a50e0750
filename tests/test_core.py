import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gossipsim.core import (
    Algorithm,
    ConfigError,
    ProtocolConfig,
    RngStream,
    default_max_steps,
    default_phase1_slack,
    default_segment_length,
    phase1_steps,
    sample_active,
)


class TestRngStream:
    def test_same_stream_reproduces(self):
        a = RngStream(seed=7, stream_id=3).protocol_generator().random(16)
        b = RngStream(seed=7, stream_id=3).protocol_generator().random(16)
        assert np.array_equal(a, b)

    def test_domains_are_distinct(self):
        s = RngStream(seed=7, stream_id=3)
        active = s.active_generator().random(16)
        proto = s.protocol_generator().random(16)
        assert not np.array_equal(active, proto)

    def test_streams_are_distinct(self):
        a = RngStream(seed=7, stream_id=0).protocol_generator().random(16)
        b = RngStream(seed=7, stream_id=1).protocol_generator().random(16)
        assert not np.array_equal(a, b)

    @pytest.mark.parametrize("seed,stream", [(-1, 0), (2 ** 64, 0),
                                             (0, -5), (0, 2 ** 64)])
    def test_out_of_range_ids_rejected(self, seed, stream):
        with pytest.raises(ConfigError):
            RngStream(seed=seed, stream_id=stream)


class TestPhase1Steps:
    # ceil((1+slack) * ln N / ln(1+p)) at N=2^20, p=0.5
    @pytest.mark.parametrize("slack,expected", [
        (0.0, 35), (0.05, 36), (0.08, 37), (0.10, 38), (0.15, 40), (0.20, 42),
    ])
    def test_slack_table_n20(self, slack, expected):
        assert phase1_steps(2 ** 20, 0.5, slack) == expected

    @pytest.mark.parametrize("N,expected", [(2 ** 14, 29), (2 ** 17, 35)])
    def test_slack_0_2_ladder(self, N, expected):
        assert phase1_steps(N, 0.5, 0.2) == expected

    def test_degenerate_network(self):
        assert phase1_steps(1, 0.5, 0.2) == 0

    @given(st.integers(2, 10 ** 7), st.floats(0.01, 1.0),
           st.floats(0.0, 1.0))
    def test_matches_formula(self, N, p, slack):
        expected = math.ceil((1 + slack) * math.log(N) / math.log(1 + p))
        assert phase1_steps(N, p, slack) == expected


class TestDerivedDefaults:
    @pytest.mark.parametrize("N,expected", [
        (1, 1), (2, 1), (2 ** 14, 3), (2 ** 17, 3), (2 ** 20, 4),
    ])
    def test_segment_length(self, N, expected):
        assert default_segment_length(N) == expected

    def test_phase1_slack_degenerate(self):
        assert default_phase1_slack(1) == 0.0
        assert default_phase1_slack(2) == 0.0

    @pytest.mark.parametrize("N,expected", [
        (2 ** 14, 30), (2 ** 17, 36), (2 ** 20, 41),
    ])
    def test_phase1_schedule(self, N, expected):
        # ceil((ln N + ln ln N) / ln(1+p)) at p=0.5
        assert phase1_steps(N, 0.5, default_phase1_slack(N)) == expected

    def test_phase1_excess_vanishes(self):
        # the warm-up must be (1+o(1)) ln N / ln(1+p): its ratio to the
        # growth term falls towards 1, where a constant slack s would stay
        # at 1+s or above at every N
        ratios = [phase1_steps(N, 0.5, default_phase1_slack(N))
                  / (math.log(N) / math.log(1.5))
                  for N in (2 ** 20, 2 ** 64, 2 ** 256)]
        assert ratios[0] > ratios[1] > ratios[2] > 1.0
        assert ratios[2] - 1.0 < (ratios[0] - 1.0) / 2

    def test_max_steps(self):
        assert default_max_steps(1, 0.5) == 1
        expected = math.ceil(64 * math.log(2 ** 10) / math.log(1.5))
        assert default_max_steps(2 ** 10, 0.5) == expected


class TestProtocolConfig:
    def test_defaults(self):
        cfg = ProtocolConfig(algorithm=Algorithm.NAIVE, N=2 ** 10, p=0.5)
        assert cfg.epsilon == 0.1
        assert cfg.segment_length == default_segment_length(2 ** 10)
        assert cfg.step_cap == default_max_steps(2 ** 10, 0.5)

    def test_overrides(self):
        cfg = ProtocolConfig(algorithm=Algorithm.IMPROVED_CYCLIC, N=64, p=0.5,
                             max_steps=123)
        assert cfg.step_cap == 123

    @pytest.mark.parametrize("kwargs", [
        {"N": 0}, {"N": -4},
        {"p": 0.0}, {"p": -0.1}, {"p": 1.5},
        {"p": True},
        {"epsilon": 0.0}, {"epsilon": 0.5}, {"epsilon": 0.7},
        {"epsilon": -0.1}, {"max_steps": -5},
        {"max_steps": 0},
        {"N": 2.5}, {"N": True},
        {"max_steps": 2.7}, {"max_steps": True},
    ])
    def test_invalid_fields_rejected(self, kwargs):
        base = dict(algorithm=Algorithm.NAIVE, N=64, p=0.5)
        base.update(kwargs)
        with pytest.raises(ConfigError):
            ProtocolConfig(**base)

    def test_numpy_integer_N_accepted(self):
        cfg = ProtocolConfig(algorithm=Algorithm.NAIVE, N=np.int64(64), p=0.5)
        assert cfg.N == 64
        assert len(sample_active(np.uint16(8), 0.5, RngStream(seed=0))) == 8

    def test_config_error_is_value_error(self):
        assert issubclass(ConfigError, ValueError)

    def test_algorithm_must_be_enum(self):
        with pytest.raises(ConfigError):
            ProtocolConfig(algorithm="naive", N=4, p=0.5)


class TestAlgorithmParse:
    @pytest.mark.parametrize("name,expected", [
        ("naive", Algorithm.NAIVE),
        (" Cyclic ", Algorithm.CYCLIC),
        ("improved", Algorithm.IMPROVED_CYCLIC),
        ("improved-cyclic", Algorithm.IMPROVED_CYCLIC),
        ("IMPROVED_CYCLIC", Algorithm.IMPROVED_CYCLIC),
        ("oracle", Algorithm.ORACLE),
    ])
    def test_aliases(self, name, expected):
        assert Algorithm.parse(name) is expected

    def test_unknown_name_rejected(self):
        with pytest.raises(ConfigError):
            Algorithm.parse("push-pull")


class TestSampleActive:
    def test_node_zero_forced(self):
        active = sample_active(64, 0.05, RngStream(seed=1, stream_id=0))
        assert active[0]

    def test_deterministic(self):
        a = sample_active(256, 0.4, RngStream(seed=9, stream_id=2))
        b = sample_active(256, 0.4, RngStream(seed=9, stream_id=2))
        assert np.array_equal(a, b)

    def test_full_activity(self):
        assert sample_active(50, 1.0, RngStream(seed=0)).all()

    def test_marginal_activation_rate(self):
        # excludes the forced node; SE ~ 0.001 at this size
        active = sample_active(200_000, 0.3, RngStream(seed=3))
        rate = active[1:].mean()
        assert abs(rate - 0.3) < 0.005

    def test_invalid_arguments(self):
        with pytest.raises(ConfigError):
            sample_active(0, 0.5, RngStream(seed=0))
        with pytest.raises(ConfigError):
            sample_active(8, 0.0, RngStream(seed=0))
        with pytest.raises(ConfigError):
            sample_active(2.5, 0.5, RngStream(seed=0))

    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 2000), st.floats(0.01, 1.0), st.integers(0, 2 ** 32))
    def test_state_invariants(self, N, p, seed):
        active = sample_active(N, p, RngStream(seed=seed))
        assert active.dtype == bool and active.shape == (N,)
        assert active[0]
