import dataclasses
import itertools
import math
import pickle
import random

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gossipsim import core
from gossipsim.core import (
    Algorithm,
    ConfigError,
    ProtocolConfig,
    RngStream,
    sample_active,
)
from gossipsim.protocols import run


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

    @pytest.mark.parametrize("value", [2.5, 3.0, True, "7", None,
                                       np.float64(3.0)])
    def test_non_integer_ids_rejected(self, value):
        with pytest.raises(ConfigError):
            RngStream(seed=value)
        with pytest.raises(ConfigError):
            RngStream(seed=0, stream_id=value)

    @pytest.mark.parametrize("seed,stream", [
        (np.uint64(2 ** 64 - 1), np.int32(7)),
        (np.int64(2 ** 40 + 9), np.uint64(2 ** 33 + 1)),
        (np.uint8(3), np.int16(0))])
    def test_numpy_integer_ids_draw_as_python_ints(self, seed, stream):
        # the numpy stream first, so a cache keyed on numpy values would
        # be seen by the Python one
        numpy_ids = RngStream(seed=seed, stream_id=stream)
        python_ids = RngStream(seed=int(seed), stream_id=int(stream))
        for domain in ("active_generator", "protocol_generator"):
            assert (getattr(numpy_ids, domain)().bit_generator.state
                    == getattr(python_ids, domain)().bit_generator.state)
        assert numpy_ids.protocol_generator().bit_generator.state == (
            seed_sequence_states(int(seed), int(stream))[1])

    def test_value_semantics_survive_the_cache(self):
        s = RngStream(seed=2 ** 40 + 9, stream_id=2 ** 33 + 1)
        s.active_generator()
        s.protocol_generator()
        fresh = RngStream(seed=2 ** 40 + 9, stream_id=2 ** 33 + 1)
        assert s == fresh and hash(s) == hash(fresh)
        assert s != RngStream(seed=2 ** 40 + 9, stream_id=2 ** 33)
        copy = pickle.loads(pickle.dumps(s))
        assert copy == s and hash(copy) == hash(s)
        assert (copy.protocol_generator().bit_generator.state
                == fresh.protocol_generator().bit_generator.state)

    def test_protocol_generators_do_not_alias(self):
        # run_coupled builds the oracle's generator and the push targets'
        # generator from one stream
        s = RngStream(seed=7, stream_id=3)
        a, b = s.protocol_generator(), s.protocol_generator()
        assert a is not b and a.bit_generator is not b.bit_generator
        assert a.bit_generator.state == b.bit_generator.state
        a.random(5)
        assert a.bit_generator.state != b.bit_generator.state


def seed_sequence_states(seed, stream_id):
    """The bit-generator states numpy's own SeedSequence path gives each
    domain of stream (seed, stream_id): the slow reference of RngStream."""
    return [np.random.PCG64(np.random.SeedSequence(
        entropy=seed, spawn_key=(stream_id, domain))).state
        for domain in (0, 1)]


def assert_seeded_as_seed_sequence(seed, stream_id):
    s = RngStream(seed=seed, stream_id=stream_id)
    got = [s.active_generator().bit_generator.state,
           s.protocol_generator().bit_generator.state]
    assert got == seed_sequence_states(seed, stream_id), (
        f"numpy {np.__version__}: RngStream({seed}, {stream_id}) no longer "
        "seeds its generators as SeedSequence(entropy=seed, "
        "spawn_key=(stream_id, domain)); core's port of its mixing has "
        "to follow numpy's")


class TestSeedSequencePort:
    EDGES = [0, 1, 2 ** 31, 2 ** 32 - 1, 2 ** 32, 2 ** 32 + 1, 2 ** 63,
             2 ** 64 - 1]

    def test_edge_pairs(self):
        for seed, stream_id in itertools.product(self.EDGES, repeat=2):
            assert_seeded_as_seed_sequence(seed, stream_id)

    @given(st.integers(0, 2 ** 64 - 1), st.integers(0, 2 ** 64 - 1))
    @settings(max_examples=300, deadline=None)
    def test_random_pairs(self, seed, stream_id):
        assert_seeded_as_seed_sequence(seed, stream_id)

    @pytest.mark.parametrize("seed", [5, 2 ** 32 + 5])
    @pytest.mark.parametrize("stream_id", [
        255, 256, 511, 2 ** 32 - 256, 2 ** 32 - 1, 2 ** 32, 2 ** 64 - 256,
        2 ** 64 - 1])
    def test_block_edges(self, seed, stream_id):
        # streams are seeded 256 at a time, per (seed, stream_id // 256)
        assert_seeded_as_seed_sequence(seed, stream_id)

    def test_states_survive_eviction(self):
        blocks = core._block_states.cache_info().maxsize + 8
        streams = [(b << 8) + lane for b in range(blocks)
                   for lane in (0, 101, 255)]
        order = random.Random(3).sample(streams * 2, 2 * len(streams))
        for stream_id in order:
            assert_seeded_as_seed_sequence(2 ** 40 + 9, stream_id)


def schedule(N, p=0.5):
    """The schedule ProtocolConfig derives for N and p."""
    return ProtocolConfig(algorithm=Algorithm.IMPROVED_CYCLIC, N=N, p=p)


class TestPhase1Steps:
    def test_degenerate_network(self):
        assert schedule(1).phase1_steps == 0

    @given(st.integers(2, 10 ** 7), st.floats(0.01, 1.0))
    @example(2, 0.5)
    @example(8, 0.5)
    @example(64, 0.4)
    @example(1000, 0.3)
    @example(2 ** 16, 0.3)
    @example(2 ** 20, 0.5)
    def test_matches_formula(self, N, p):
        # ceil((1+slack) * ln N / ln(1+p)) with slack max(0, ln ln N) / ln N
        slack = max(0.0, math.log(math.log(N))) / math.log(N)
        expected = math.ceil((1 + slack) * math.log(N) / math.log(1 + p))
        assert schedule(N, p).phase1_steps == expected


class TestDerivedDefaults:
    @pytest.mark.parametrize("N,expected", [
        (1, 1), (2, 1), (2 ** 14, 3), (2 ** 17, 3), (2 ** 20, 4),
    ])
    def test_segment_length(self, N, expected):
        assert schedule(N).segment_length == expected

    def test_phase1_slack_degenerate(self):
        # no slack where ln ln N <= 0: phase 1 is ceil(ln N / ln(1+p))
        assert schedule(1).phase1_steps == 0
        assert schedule(2).phase1_steps == math.ceil(math.log(2)
                                                     / math.log(1.5)) == 2

    @pytest.mark.parametrize("N,expected", [
        (2 ** 14, 30), (2 ** 17, 36), (2 ** 20, 41),
    ])
    def test_phase1_schedule(self, N, expected):
        # ceil((ln N + ln ln N) / ln(1+p)) at p=0.5
        assert schedule(N).phase1_steps == expected

    def test_phase1_excess_vanishes(self):
        # the warm-up must be (1+o(1)) ln N / ln(1+p): its ratio to the
        # growth term falls towards 1, where a constant slack s would stay
        # at 1+s or above at every N
        ratios = [schedule(N).phase1_steps / (math.log(N) / math.log(1.5))
                  for N in (2 ** 20, 2 ** 64, 2 ** 256)]
        assert ratios[0] > ratios[1] > ratios[2] > 1.0
        assert ratios[2] - 1.0 < (ratios[0] - 1.0) / 2

    def test_max_steps(self):
        assert schedule(1).step_cap == 1
        expected = math.ceil(64 * math.log(2 ** 10) / math.log(1.5))
        assert schedule(2 ** 10).step_cap == expected

    @pytest.mark.parametrize("N,p", [(4096, 1e-17), (8, 1e-300)])
    def test_tiny_p(self, N, p):
        # 1 + p rounds to 1 below p = 2^-53, so the schedule divides by
        # log1p(p), never by log(1 + p) = 0
        config = schedule(N, p)
        ln_n = math.log(N)
        assert config.phase1_steps == math.ceil(
            (ln_n + math.log(ln_n)) / math.log1p(p))
        assert config.step_cap == math.ceil(64 * ln_n / math.log1p(p))
        result = run(config, RngStream(5, 0))
        assert result.n_active == 1
        assert result.completion_time == 0
        assert result.cap_hit is False


    @pytest.mark.parametrize("p,max_steps", [
        (5e-324, None), (1e-307, None), (1e-306, None), (3e-308, 5)])
    def test_overflowing_schedule_rejected(self, p, max_steps):
        # at N = 64, 64 ln N / log1p(p) overflows a float from p = 1e-306
        # down, and the phase-1 length from p = 3e-308 down
        with pytest.raises(ConfigError, match=f"p={p!r} is too small"):
            ProtocolConfig(Algorithm.NAIVE, 64, p, max_steps=max_steps)

    def test_set_cap_skips_the_formula(self):
        config = ProtocolConfig(Algorithm.NAIVE, 64, 1e-306, max_steps=5)
        assert config.step_cap == 5
        ln_n = math.log(64)
        assert config.phase1_steps == math.ceil(
            (ln_n + math.log(ln_n)) / math.log1p(1e-306))


class TestProtocolConfig:
    def test_defaults(self):
        cfg = ProtocolConfig(algorithm=Algorithm.NAIVE, N=2 ** 10, p=0.5)
        assert cfg.epsilon == 0.1
        assert cfg.segment_length == round(math.sqrt(math.log(2 ** 10))) == 3
        assert cfg.step_cap == math.ceil(64 * math.log(2 ** 10)
                                         / math.log(1.5)) == 1095
        assert cfg.phase1_steps == math.ceil(
            (math.log(2 ** 10) + math.log(math.log(2 ** 10)))
            / math.log(1.5)) == 22
        with pytest.raises(AttributeError):
            cfg.phase1_steps = 1

    def test_overrides(self):
        cfg = ProtocolConfig(algorithm=Algorithm.IMPROVED_CYCLIC, N=64, p=0.5,
                             max_steps=123)
        assert cfg.step_cap == 123

    @staticmethod
    def derived(cfg):
        return (cfg.step_cap, cfg.phase1_steps, cfg.segment_length,
                cfg.stage_levels)

    def test_derived_constants_kept_outside_the_fields(self):
        # a config keeps its derived constants once read, yet it equals,
        # hashes and pickles like an equal config that never read them
        read = ProtocolConfig(Algorithm.CYCLIC, 2 ** 10, 0.5)
        constants = self.derived(read)
        unread = ProtocolConfig(Algorithm.CYCLIC, 2 ** 10, 0.5)
        assert read == unread and hash(read) == hash(unread)
        for cfg in (read, unread):
            back = pickle.loads(pickle.dumps(cfg))
            assert back == read and hash(back) == hash(read)
            assert self.derived(back) == constants
        assert constants == (1095, 22, 3, (0.1 * 0.5 * 2 ** 10,
                                           (1.0 - 0.1) * 0.5 * 2 ** 10))

    def test_replace_derives_anew(self):
        cfg = ProtocolConfig(Algorithm.IMPROVED_CYCLIC, 2 ** 10, 0.5)
        self.derived(cfg)
        big = dataclasses.replace(cfg, N=2 ** 20)
        assert big.step_cap == math.ceil(64 * math.log(2 ** 20)
                                         / math.log(1.5)) == 2189
        assert big.phase1_steps == 41 and big.segment_length == 4
        assert big.stage_levels == (0.1 * 0.5 * 2 ** 20,
                                    (1.0 - 0.1) * 0.5 * 2 ** 20)
        assert self.derived(big) == self.derived(
            ProtocolConfig(Algorithm.IMPROVED_CYCLIC, 2 ** 20, 0.5))
        assert dataclasses.replace(cfg, max_steps=7).step_cap == 7

    @pytest.mark.parametrize("kwargs", [
        {"N": 0}, {"N": -4},
        {"p": 0.0}, {"p": -0.1}, {"p": 1.5},
        {"p": True},
        {"epsilon": 0.0}, {"epsilon": 0.5}, {"epsilon": 0.7},
        {"epsilon": -0.1}, {"max_steps": -5},
        {"max_steps": 0},
        {"N": 2.5}, {"N": True},
        {"max_steps": 2.7}, {"max_steps": True},
        {"epsilon": "0.1"}, {"epsilon": True},
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

    @pytest.mark.parametrize("p", [True, "0.5", None, float("nan")])
    def test_p_must_be_a_real_probability(self, p):
        # the same check as ProtocolConfig.p
        with pytest.raises(ConfigError):
            sample_active(4, p, RngStream(seed=0))
        with pytest.raises(ConfigError):
            ProtocolConfig(Algorithm.NAIVE, 4, p)

    @pytest.mark.parametrize("N", [1, 8, 2 ** 16, 2 ** 16 + 3, 3 * 2 ** 16 + 5])
    def test_chunked_draw_matches_one_draw(self, N):
        # node i is active when the i-th uniform of the active generator is
        # below p, however many uniforms are drawn per call
        rng = RngStream(seed=11, stream_id=4)
        expected = rng.active_generator().random(N) < 0.3
        expected[0] = True
        assert np.array_equal(sample_active(N, 0.3, rng), expected)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 2000), st.floats(0.01, 1.0), st.integers(0, 2 ** 32))
    def test_state_invariants(self, N, p, seed):
        active = sample_active(N, p, RngStream(seed=seed))
        assert active.dtype == bool and active.shape == (N,)
        assert active[0]


class TestPublicNames:
    def test_package_exports_exactly_the_modules_names(self):
        import gossipsim
        from gossipsim import core, harness, protocols, theory
        modules = (core, protocols, theory, harness)
        expected = [name for m in modules for name in m.__all__]
        assert sorted(gossipsim.__all__) == sorted(expected + ["__version__"])
        for m in modules:
            for name in m.__all__:
                assert getattr(gossipsim, name) is getattr(m, name)
        assert isinstance(gossipsim.__version__, str)
        # the schedule is ProtocolConfig's; these helpers are retired
        for name in ("phase1_steps", "default_phase1_slack",
                     "default_segment_length", "default_max_steps"):
            assert not hasattr(gossipsim, name)
            assert not hasattr(core, name)
