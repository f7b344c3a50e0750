"""End-to-end statistical acceptance gauntlet.

These tests drive the same check functions exposed through `verify --level
full`. They are slow (a few minutes total). The first test builds every
coupled trial the others read, into one cached store per size: 336 trials
at N = 2^20, p = 0.5 for the completion-constant, win-rate and envelope
checks, and the 2^14, 2^17, 2^20 ladder (100 trials per rung) for the
convergence checks. The 2^20 rung's streams 200-299 are read from the
acceptance ensemble, not built again.

One check is known to fail for the improved cyclic protocol and is left
failing deliberately: its normalized mean at N = 2^20 sits near 1.43x the
asymptotic constant, outside the 1.25x band. The README's "Known gaps"
gives the measured decomposition (phase 1 is ceil((ln N + ln ln N) /
ln(1+p)) = 41 steps, phase 2 adds about 8). The improved ladder checks the
documented convergence rate instead of that level: the excess over
ln N/ln(1+p), in units of sqrt(ln N) + ln ln N, must not grow along the
ladder. The win-rate clause for the same protocol passes.
"""
import pytest

from gossipsim import harness
from gossipsim.core import Algorithm

pytestmark = pytest.mark.slow

NAIVE, CYCLIC, IMPROVED = (Algorithm.NAIVE, Algorithm.CYCLIC,
                           Algorithm.IMPROVED_CYCLIC)


def _assert_check(result):
    assert result.passed, f"{result.name}: {result.detail}"


class TestCompletionConstants:
    def test_acceptance_ensemble_build(self):
        # builds the shared ensembles first, so their time is billed here
        _assert_check(harness.check_acceptance_build())

    def test_naive_constant_band(self):
        _assert_check(harness.check_constant(NAIVE))

    def test_cyclic_constant_band(self):
        _assert_check(harness.check_constant(CYCLIC))

    def test_cyclic_beats_naive_win_rate(self):
        _assert_check(harness.check_beats(CYCLIC, NAIVE))

    def test_improved_constant_band(self):
        # known red: measured ratio ~1.43 exceeds the 1.25 band ceiling
        _assert_check(harness.check_constant(IMPROVED))

    def test_improved_beats_cyclic_win_rate(self):
        _assert_check(harness.check_beats(IMPROVED, CYCLIC))


class TestLowerBoundEnvelope:
    def test_no_protocol_beats_the_branching_bound(self):
        _assert_check(harness.check_lower_bound_envelope())


class TestConvergenceTrend:
    def test_naive_ladder(self):
        _assert_check(harness.check_convergence(NAIVE))

    def test_cyclic_ladder(self):
        _assert_check(harness.check_convergence(CYCLIC))

    def test_improved_ladder(self):
        # the ratio falls monotonically and the excess over ln N/ln(1+p)
        # stays O(sqrt(ln N) + ln ln N); no 1.25 level at the last rung
        _assert_check(harness.check_convergence(IMPROVED))


class TestLawEquivalence:
    def test_oracle_and_naive_laws_within_budget(self):
        oracle = harness.check_law(Algorithm.ORACLE)
        naive = harness.check_law(NAIVE)
        _assert_check(oracle)
        _assert_check(naive)
        total = oracle.elapsed + naive.elapsed
        assert total <= 60.0, f"law checks took {total:.1f}s (budget 60s)"


class TestConcentration:
    def test_active_count_concentrates(self):
        _assert_check(harness.check_active_concentration())


class TestAnalyticOrdering:
    def test_constants_ordering_on_grid(self):
        _assert_check(harness.check_constants_ordering())


class TestDomination:
    def test_oracle_not_later_trial_by_trial_at_2_16(self):
        _assert_check(harness.check_domination())


class TestDeterminism:
    def test_byte_identical_reruns(self):
        _assert_check(harness.check_determinism())


@pytest.fixture(scope="session", autouse=True)
def _free_the_ensembles():
    yield
    harness._store.cache_clear()
