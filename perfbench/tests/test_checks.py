"""The benchmark's own tests: each check passes on the program's real
output and rejects a corrupted copy of it.

    python3 -m pytest -q perfbench/tests
"""
import json
import math
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))

import checks  # noqa: E402
import gossipsim  # noqa: E402
from gossipsim import harness, theory  # noqa: E402
from tracing import Tracer  # noqa: E402


def samples_from(law, n):
    """n samples whose frequencies follow `law` as closely as counts allow."""
    out = []
    for t, q in sorted(law.items()):
        out += [t] * round(q * n)
    return out


def shifted(samples, by):
    return [t + by for t in samples]


# -- per-trial ------------------------------------------------------------------

def test_trial_accepts_doubling_bound():
    assert checks.check_trial(3, 8, False) == []
    assert checks.check_trial(0, 1, False) == []


def test_trial_rejects_cap_and_too_fast():
    assert checks.check_trial(10, 8, True)
    assert checks.check_trial(2, 8, False)  # 8 actives need 3 doublings
    assert checks.check_trial(3, 9, False)


# -- laws ------------------------------------------------------------------------

@pytest.mark.parametrize("p", [0.3, 0.5, 0.9])
def test_n2_closed_forms_match_the_dynamic_programs(p):
    dp_naive = theory.exact_naive_law(2, p).as_dict()
    dp_oracle = theory.exact_oracle_law(2, p).as_dict()
    assert checks.total_variation(checks.naive_law_n2(p), dp_naive) < 1e-12
    assert checks.total_variation(checks.oracle_law_n2(p), dp_oracle) < 1e-12


def test_n2_naive_law_as_stated():
    law = checks.naive_law_n2(0.5)
    assert law[0] == 0.5
    assert all(law[t] == 2.0 ** -(t + 1) for t in range(1, 20))


@pytest.mark.parametrize("law", [
    checks.naive_law_n2(0.5),
    theory.exact_naive_law(8, 0.5).as_dict(),
    theory.exact_oracle_law(8, 0.5).as_dict(),
])
def test_law_check_rejects_a_law_shifted_by_one_step(law):
    samples = samples_from(law, 8000)
    assert checks.check_law(samples, law, "exact") == []
    assert checks.check_law(shifted(samples, 1), law, "shifted")
    assert checks.check_law(shifted(samples, -1), law, "shifted")


def test_law_check_passes_on_simulated_oracle():
    config = gossipsim.ProtocolConfig(gossipsim.Algorithm.ORACLE, 8, 0.5)
    T = [gossipsim.run(config, gossipsim.RngStream(3, i)).completion_time
         for i in range(4000)]
    law = theory.exact_oracle_law(8, 0.5).as_dict()
    assert checks.check_law(T, law, "oracle") == []


def test_dominance_rejects_samples_faster_than_the_oracle():
    law = theory.exact_oracle_law(8, 0.5).as_dict()
    samples = samples_from(law, 8000)
    assert checks.check_dominated(samples, law, "same law") == []
    assert checks.check_dominated(shifted(samples, 1), law, "slower") == []
    assert checks.check_dominated(shifted(samples, -1), law, "faster")


def test_tolerances_shrink_with_sample_size():
    law = checks.naive_law_n2(0.5)
    assert checks.tv_tolerance(law, 40000) < checks.tv_tolerance(law, 10000)
    assert checks.dkw_epsilon(40000) == pytest.approx(
        checks.dkw_epsilon(10000) / 2)


# -- trajectories and summaries ---------------------------------------------------

@pytest.fixture(scope="module")
def json_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("run") / "out.json"
    spec = harness.ExperimentSpec(
        grid=(harness.GridCell(gossipsim.Algorithm.CYCLIC, 1024, 0.3),),
        trials_per_cell=12, base_seed=5, record_trajectory=True,
        epsilon=0.1, output_path=str(out), format="json")
    harness.run_experiment(spec)
    return json.loads(out.read_text())


def trajectory_errors(row, trajectory=None, t_eps="row"):
    return checks.check_trajectory(
        row["trajectory"] if trajectory is None else trajectory,
        row["T_n"], row["n_active"], 1024, 0.3, 0.1,
        row["t_eps"] if t_eps == "row" else t_eps, row["t_one_minus_eps"])


def test_trajectories_of_the_program_pass(json_run):
    for row in json_run["rows"]:
        assert trajectory_errors(row) == []


def test_trajectory_check_rejects_more_than_doubling(json_run):
    row = json_run["rows"][0]
    bad = list(row["trajectory"])
    bad[1] = 2 * bad[0] + 1
    assert any("doubles" in e for e in trajectory_errors(row, bad))


def test_trajectory_check_rejects_falling_and_length(json_run):
    row = json_run["rows"][0]
    traj = row["trajectory"]
    falling = traj[:3] + [traj[2] - 1] + traj[4:]
    assert any("falls" in e for e in trajectory_errors(row, falling))
    assert any("length" in e for e in trajectory_errors(row, traj + traj[-1:]))


def test_trajectory_check_rejects_wrong_threshold_time(json_run):
    row = json_run["rows"][0]
    assert trajectory_errors(row, t_eps=row["t_eps"] + 1)


def test_summary_check_rejects_an_off_mean(json_run):
    rows = json_run["rows"]
    cell = json_run["summary"]["cells"][0]
    T = [r["T_n"] for r in rows]
    assert checks.check_summary(cell, T, 0) == []
    assert checks.check_summary(dict(cell, mean=cell["mean"] + 0.01), T, 0)
    assert checks.check_summary(dict(cell, q95=cell["q95"] + 0.5), T, 0)
    assert checks.check_summary(cell, T[1:], 0)


def test_quantile_matches_linear_interpolation():
    values = sorted(np.random.default_rng(1).integers(0, 50, size=37))
    for q in (0.05, 0.5, 0.95):
        assert checks.quantile(values, q) == pytest.approx(
            float(np.quantile(values, q)))


# -- large N -----------------------------------------------------------------------

def closed_form_means(N, p):
    ln_n = math.log(N)
    means = {alg: c * ln_n for alg, c in
             checks.closed_form_constants(p).items()}
    means["improved_cyclic"] = (means["cyclic"] + means["oracle"]) / 2
    return means


def test_large_n_means_pass_at_the_closed_forms():
    means = closed_form_means(2 ** 20, 0.5)
    T = {alg: [round(m)] * 4 for alg, m in means.items()}
    assert checks.check_large_n_means(T, 2 ** 20, 0.5) == []


@pytest.mark.parametrize("alg,factor", [("naive", 1.3), ("cyclic", 0.7),
                                        ("oracle", 1.25)])
def test_large_n_means_reject_a_mean_outside_the_band(alg, factor):
    means = closed_form_means(2 ** 20, 0.5)
    means[alg] *= factor
    T = {a: [m] for a, m in means.items()}
    assert checks.check_large_n_means(T, 2 ** 20, 0.5)


def test_large_n_means_reject_improved_slower_than_cyclic():
    means = closed_form_means(2 ** 20, 0.5)
    means["improved_cyclic"] = means["cyclic"] + 1
    T = {a: [m] for a, m in means.items()}
    assert checks.check_large_n_means(T, 2 ** 20, 0.5)


def test_coupling_check_rejects_different_active_sets():
    good = {alg: {"n_active": 10, "phase1_end": 5 if alg != "naive" else None}
            for alg in ("naive", "cyclic", "improved_cyclic", "oracle")}
    assert checks.check_coupled_round(good) == []
    assert checks.check_coupled_round(dict(good, oracle={"n_active": 11}))
    assert checks.check_coupled_round(
        dict(good, improved_cyclic={"n_active": 10, "phase1_end": 6}))


# -- tracing -------------------------------------------------------------------------

def test_self_time_subtracts_child_spans():
    tracer = Tracer()
    clock = iter([0.0, 1.0, 3.0, 10.0])  # outer in, inner in, inner out, outer out
    import tracing
    real = tracing.perf_counter
    tracing.perf_counter = lambda: next(clock)
    try:
        inner = tracer.wrap(lambda: None, "inner")
        outer = tracer.wrap(lambda: inner(), "outer")
        outer()
    finally:
        tracing.perf_counter = real
    assert tracer.self_time["inner"] == 2.0
    assert tracer.self_time["outer"] == 8.0
    assert [s[3] for s in tracer.spans] == [-1, 0]


# -- the command ---------------------------------------------------------------------

def test_command_runs_and_reports(tmp_path):
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH, "run.py"), "--workload",
         "low_p_cli", "--seed", "2", "--seconds", "0.1", "--trace", "0"],
        capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] is True and result["failed"] == 0
    assert set(result["metrics"]) >= {"wall_s", "setup_s", "peak_rss_mb"}


def test_command_fails_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "large_n",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert proc.stdout == ""
