import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gossipsim.core import Algorithm, ConfigError
from gossipsim.theory import (
    ExactLaw,
    _completion_cdf,
    _law_from_cdf,
    constant,
    cyclic_beats_naive,
    exact_naive_law,
    exact_oracle_law,
    lower_bound_tail,
    naive_step_kernel,
)

P_GRID = [i / 100.0 for i in range(1, 100)]


def _cdf_at(law: ExactLaw, t: int) -> float:
    return sum(pr for s, pr in zip(law.support, law.probabilities) if s <= t)


def _assert_valid(law: ExactLaw) -> None:
    assert all(pr >= 0.0 for pr in law.probabilities)
    assert math.fsum(law.probabilities) == pytest.approx(1.0, abs=1e-12)


class TestConstants:
    def test_frozen_values_at_half(self):
        assert constant(Algorithm.NAIVE, 0.5) == pytest.approx(4.46630346, abs=1e-8)
        assert constant(Algorithm.CYCLIC, 0.5) == pytest.approx(3.90899850, abs=1e-8)
        improved = constant(Algorithm.IMPROVED_CYCLIC, 0.5)
        assert improved == pytest.approx(2.46630346, abs=1e-8)
        assert constant(Algorithm.ORACLE, 0.5) == improved

    def test_limit_at_full_activity(self):
        # second cyclic term vanishes as p -> 1
        assert constant(Algorithm.NAIVE, 1.0) == pytest.approx(1 / math.log(2) + 1)
        assert constant(Algorithm.CYCLIC, 1.0) == pytest.approx(1 / math.log(2))
        assert constant(Algorithm.IMPROVED_CYCLIC, 1.0) == pytest.approx(1 / math.log(2))
        assert constant(Algorithm.ORACLE, 1.0) == pytest.approx(1 / math.log(2))

    def test_ordering_chain_on_grid(self):
        for p in P_GRID:
            ci = constant(Algorithm.IMPROVED_CYCLIC, p)
            cc = constant(Algorithm.CYCLIC, p)
            cn = constant(Algorithm.NAIVE, p)
            assert ci < cc < cn, f"ordering broken at p={p}"

    def test_gap_is_negative_on_grid(self):
        for p in P_GRID:
            assert cyclic_beats_naive(p) < 0.0

    def test_gap_value(self):
        assert cyclic_beats_naive(0.5) == pytest.approx(0.5 + math.log(0.5))

    def test_invalid_p(self):
        with pytest.raises(ConfigError):
            constant(Algorithm.NAIVE, 0.0)
        with pytest.raises(ConfigError):
            constant(Algorithm.NAIVE, 1.2)


class TestLowerBoundTail:
    def test_frozen_value(self):
        assert lower_bound_tail(0.5, 6.0) == pytest.approx(
            0.1755829903978052, abs=1e-12)

    def test_capped_at_one(self):
        assert lower_bound_tail(0.1, 0.0) == 1.0

    @given(st.floats(0.05, 1.0), st.floats(0.0, 30.0))
    def test_decreasing_in_k(self, p, K):
        assert lower_bound_tail(p, K + 1.0) <= lower_bound_tail(p, K)

    def test_rejects_bad_arguments(self):
        with pytest.raises(ConfigError):
            lower_bound_tail(1.5, 1.0)
        with pytest.raises(ConfigError):
            lower_bound_tail(0.5, -1.0)


class TestInputChecks:
    """Every function takes p, N and K through core's checks: a value of
    the wrong type is rejected, not converted."""

    @pytest.mark.parametrize("call", [
        lambda: constant(Algorithm.NAIVE, True),
        lambda: constant(Algorithm.NAIVE, "0.5"),
        lambda: constant(Algorithm.CYCLIC, float("nan")),
        lambda: cyclic_beats_naive(1.0),
        lambda: cyclic_beats_naive(True),
        lambda: lower_bound_tail(True, 2),
        lambda: lower_bound_tail(0.5, True),
        lambda: lower_bound_tail(0.5, "2"),
        lambda: lower_bound_tail(0.5, float("nan")),
        lambda: exact_naive_law(2.7, 0.5),
        lambda: exact_naive_law(True, 0.5),
        lambda: exact_naive_law(8, "0.5"),
        lambda: exact_oracle_law(8.9, 0.5),
        lambda: exact_oracle_law(0, 0.5),
        lambda: exact_oracle_law(8, True),
        lambda: naive_step_kernel(8, 1.5, 2),
        lambda: naive_step_kernel(2.5, 1, 2),
        lambda: naive_step_kernel(8, True, 3),
        lambda: naive_step_kernel(8, 1, 2.0),
        lambda: naive_step_kernel("8", 1, 2),
        lambda: naive_step_kernel(0, 0, 0),
    ])
    def test_rejected(self, call):
        with pytest.raises(ConfigError):
            call()

    def test_numpy_numbers_accepted(self):
        assert lower_bound_tail(np.float64(0.5), np.int64(6)) == (
            lower_bound_tail(0.5, 6.0))
        assert exact_oracle_law(np.int64(3), np.float64(0.5)) == (
            exact_oracle_law(3, 0.5))
        assert np.array_equal(
            naive_step_kernel(np.int64(8), np.uint8(2), np.int32(3)),
            naive_step_kernel(8, 2, 3))


class TestStepKernel:
    def test_two_node_half_split(self):
        assert np.allclose(naive_step_kernel(2, 1, 1), [0.5, 0.5])

    def test_three_node_single_sender(self):
        probs = naive_step_kernel(3, 1, 2)
        assert probs[0] == pytest.approx(1 / 3)
        assert probs[1] == pytest.approx(2 / 3)
        assert probs[2] == pytest.approx(0.0, abs=1e-12)

    def test_empty_target_pool(self):
        assert np.allclose(naive_step_kernel(9, 4, 0), [1.0])

    @settings(max_examples=60, deadline=None)
    @given(st.integers(2, 14), st.data())
    def test_mean_identity(self, N, data):
        # E[newly informed] = u * (1 - (1 - 1/N)^k), an independent identity
        k = data.draw(st.integers(1, N - 1))
        u = data.draw(st.integers(0, N - k))
        probs = naive_step_kernel(N, k, u)
        assert probs.sum() == pytest.approx(1.0, abs=1e-9)
        assert np.all(probs >= 0.0)
        mean = float(np.arange(u + 1) @ probs)
        assert mean == pytest.approx(u * (1 - (1 - 1 / N) ** k), abs=1e-9)

    def test_matches_exact_rationals(self):
        # inclusion-exclusion over missed subsets, in exact rationals
        for N in range(1, 15):
            for k, u in itertools.product(range(N + 1), repeat=2):
                if k + u > N:
                    continue
                probs = naive_step_kernel(N, k, u)
                assert np.all(probs >= 0.0), (N, k, u)
                for j, q in enumerate(probs):
                    exact = math.comb(u, j) * sum(
                        (-1) ** i * math.comb(j, i)
                        * Fraction(N - u + j - i, N) ** k
                        for i in range(j + 1))
                    assert abs(q - exact) <= 1e-13, (N, k, u, j)

    def test_invalid_arguments(self):
        with pytest.raises(ConfigError):
            naive_step_kernel(4, 1, 5)
        with pytest.raises(ConfigError):
            naive_step_kernel(4, 5, 1)
        with pytest.raises(ConfigError):
            naive_step_kernel(4, -1, 2)


class TestExactNaiveLaw:
    def test_two_nodes_fully_active_is_geometric(self):
        law = exact_naive_law(2, 1.0)
        d = law.as_dict()
        for t in range(1, 12):
            assert d[t] == pytest.approx(0.5 ** t, rel=1e-9)
        # a geometric law with success 1/2 has variance (1 - 1/2) / (1/2)^2
        assert law.variance() == pytest.approx(2.0, abs=1e-9)

    def test_three_nodes_fully_active_mean(self):
        # sum of two geometric stages: 3/2 + 9/5
        assert exact_naive_law(3, 1.0).mean() == pytest.approx(3.3, abs=1e-9)

    def test_three_node_mixture_mean(self):
        # activation mixture: 1/4 * 0 + 1/2 * 3 + 1/4 * 3.3
        assert exact_naive_law(3, 0.5).mean() == pytest.approx(2.325, abs=1e-9)

    def test_single_node(self):
        assert exact_naive_law(1, 0.5).as_dict() == {0: 1.0}

    def test_mass_sums_to_one(self):
        for N, p in [(2, 0.3), (6, 0.5), (12, 0.8), (20, 0.5)]:
            law = exact_naive_law(N, p)
            assert sum(law.probabilities) == pytest.approx(1.0, abs=1e-9)
            assert all(pr >= 0 for pr in law.probabilities)

    def test_size_limit(self):
        with pytest.raises(ConfigError):
            exact_naive_law(65, 0.5)

    @pytest.mark.parametrize("N, p", [(5, 0.93), (8, 0.96), (10, 0.87),
                                      (11, 0.6)])
    def test_valid_where_the_top_atom_is_tiny(self, N, p):
        # each top atom is smaller than the rounding error of the summed CDF
        _assert_valid(exact_naive_law(N, p))


class TestExactOracleLaw:
    def test_full_activity_point_mass(self):
        assert exact_oracle_law(8, 1.0).as_dict() == {3: 1.0}

    def test_two_nodes(self):
        law = exact_oracle_law(2, 0.5)
        assert law.as_dict() == pytest.approx({0: 0.5, 1: 0.5})
        assert law.variance() == pytest.approx(0.25)

    def test_three_nodes_hand_computed(self):
        assert exact_oracle_law(3, 0.5).as_dict() == pytest.approx(
            {0: 0.25, 1: 0.25, 2: 0.5})

    def test_support_is_finite_and_bounded(self):
        law = exact_oracle_law(16, 0.3)
        assert law.support[-1] <= 15
        assert sum(law.probabilities) == pytest.approx(1.0, abs=1e-12)

    def test_oracle_dominates_naive_law(self):
        # pointwise CDF ordering: the coordinated protocol finishes sooner
        for N in (6, 12):
            for p in (0.3, 0.5, 0.8):
                oracle = exact_oracle_law(N, p)
                naive = exact_naive_law(N, p)
                horizon = max(oracle.support[-1], naive.support[-1])
                for t in range(horizon + 1):
                    assert _cdf_at(oracle, t) >= _cdf_at(naive, t) - 1e-9, (
                        f"domination broken at N={N} p={p} t={t}")

    def test_size_limit(self):
        with pytest.raises(ConfigError):
            exact_oracle_law(65, 0.5)

    @pytest.mark.parametrize("N, p", [(18, 0.93), (19, 0.95), (21, 0.89)])
    def test_valid_where_the_cdf_rounds_to_one_early(self, N, p):
        # P(T <= t) rounds to 1.0 while some state still has u > 0
        _assert_valid(exact_oracle_law(N, p))


class TestPinnedLawMeans:
    # means of an independent evaluation over dicts of states, with one
    # naive chain per active count, each truncated on its own; the naive law
    # truncates the summed mass instead, which moves its N = 64, p = 0.3
    # mean by about 1e-11
    @pytest.mark.parametrize("exact_law, N, means", [
        (exact_naive_law, 20,
         (15.346776100532978, 12.141106159314068, 8.88393306842144)),
        (exact_naive_law, 64,
         (24.509475363822016, 17.600389551040205, 12.071433441000593)),
        (exact_oracle_law, 64,
         (12.868232595646191, 9.518751821327863, 7.065767776766019)),
    ], ids=["naive-20", "naive-64", "oracle-64"])
    def test_means_at_mid_n(self, exact_law, N, means):
        for p, mean in zip((0.3, 0.5, 0.9), means):
            assert exact_law(N, p).mean() == pytest.approx(mean, abs=1e-10)


class TestCompletionCdf:
    def test_two_state_chain_is_geometric(self):
        # state 0 stays with probability 1/2, else moves to absorbing state 1
        moves = [(0, 0, 0.5), (0, 1, 0.5), (1, 1, 1.0)]
        cdf = _completion_cdf(np.array([1.0, 0.0]), moves, np.array([0.0, 1.0]),
                              residual=1e-3)
        # 2^-10 is the first tail at most 1e-3, so the rounds stop at t = 10
        assert cdf == [1.0 - 2.0 ** -t for t in range(11)]


class TestExactLawType:
    def test_cdf_monotone(self):
        law = exact_oracle_law(10, 0.4)
        values = law.cdf()
        assert len(values) == len(law.support)
        assert all(b >= a for a, b in zip(values, values[1:]))
        assert values[-1] == pytest.approx(1.0, abs=1e-12)

    def test_from_samples_round_trip(self):
        samples = np.array([1, 1, 2, 2, 2, 5])
        law = ExactLaw.from_samples(samples)
        assert law.as_dict() == pytest.approx({1: 2 / 6, 2: 3 / 6, 5: 1 / 6})
        assert law.mean() == pytest.approx(np.mean(samples))

    def test_total_variation(self):
        a = ExactLaw.from_samples(np.array([0, 0, 1, 1]))
        b = ExactLaw.from_samples(np.array([0, 1, 1, 1]))
        assert a.total_variation(a) == pytest.approx(0.0)
        assert a.total_variation(b) == pytest.approx(0.25)
        assert a.total_variation(b) == b.total_variation(a)

    def test_rejects_bad_mass(self):
        with pytest.raises(ConfigError):
            ExactLaw(support=(0, 1), probabilities=(0.7, 0.7))
        with pytest.raises(ConfigError):
            ExactLaw(support=(0,), probabilities=(-1.0,))


class TestLawFromCdf:
    def test_rounding_dust_is_clamped(self):
        # a dip of 1e-16 and an overshoot of 2e-16 give no negative atom
        law = _law_from_cdf([0.3, 0.3 - 1e-16, 0.7, 1.0 + 2e-16, 1.0])
        assert law.support == (0, 2, 3, 4)
        assert law.probabilities == (0.3, 0.7 - 0.3, 1.0 - 0.7, 0.0)
