import json
import math

import numpy as np
import pytest

from gossipsim import harness
from gossipsim.core import Algorithm, ConfigError, ProtocolConfig
from gossipsim.harness import (
    ACCEPTANCE_SEED,
    CSV_COLUMNS,
    ExperimentSpec,
    GridCell,
    TRAJECTORY_RECORD_MAX_N,
    convergence_sweep,
    run_experiment,
    verify_suite,
)
from gossipsim.theory import (ExactLaw, constant, exact_naive_law,
                              exact_oracle_law)


def spec_dict(path, **overrides):
    base = {
        "grid": [{"algorithm": "naive", "N": 512, "p": 0.5}],
        "trials_per_cell": 6,
        "base_seed": 99,
        "record_trajectory": False,
        "epsilon": 0.1,
        "output_path": str(path),
        "format": "csv",
    }
    base.update(overrides)
    return base


class TestExperimentSpec:
    def test_round_trip(self, tmp_path):
        data = spec_dict(tmp_path / "out.csv")
        spec = ExperimentSpec.from_dict(data)
        assert spec.grid == (GridCell(Algorithm.NAIVE, 512, 0.5),)
        assert spec.trials_per_cell == 6
        assert spec.format == "csv"
        one = ExperimentSpec.from_dict(spec_dict(
            tmp_path / "out.csv", grid=[{"algorithm": "naive", "N": 8, "p": 1}]))
        assert one.grid[0].p == 1.0 and isinstance(one.grid[0].p, float)

    @pytest.mark.parametrize("mutate", [
        lambda d: d.update(extra_key=1),
        lambda d: d.pop("base_seed"),
        lambda d: d.update(grid=[]),
        lambda d: d.update(grid=[{"algorithm": "naive", "N": 4}]),
        lambda d: d.update(grid=[{"algorithm": "naive", "N": 4, "p": 0.5,
                                  "seed": 1}]),
        lambda d: d.update(grid=[{"algorithm": "bogus", "N": 4, "p": 0.5}]),
        lambda d: d.update(grid=[{"algorithm": "naive", "N": 0, "p": 0.5}]),
        lambda d: d.update(trials_per_cell=0),
        lambda d: d.update(format="parquet"),
        lambda d: d.update(epsilon=0.9),
        # malformed values: unconvertible, or not integral where an
        # integer is needed
        lambda d: d.update(grid=[{"algorithm": "naive", "N": "abc", "p": 0.5}]),
        lambda d: d.update(grid=[{"algorithm": "naive", "N": None, "p": 0.5}]),
        lambda d: d.update(grid=[{"algorithm": "naive", "N": 2.5, "p": 0.5}]),
        lambda d: d.update(grid=[{"algorithm": "naive", "N": True, "p": 0.5}]),
        lambda d: d.update(grid=[{"algorithm": "naive", "N": 8, "p": "x"}]),
        lambda d: d.update(trials_per_cell="x"),
        lambda d: d.update(base_seed=1.5),
        lambda d: d.update(epsilon=None),
        # a bool or a string is taken only as a JSON bool or string
        lambda d: d.update(record_trajectory="false"),
        lambda d: d.update(record_trajectory=1),
        lambda d: d.update(record_trajectory=None),
        lambda d: d.update(output_path=None),
        lambda d: d.update(output_path=7),
        lambda d: d.update(format=["csv"]),
        lambda d: d.update(grid=[{"algorithm": None, "N": 8, "p": 0.5}]),
        # p and epsilon only as JSON numbers, not strings or bools
        lambda d: d.update(grid=[{"algorithm": "naive", "N": 8, "p": "0.5"}]),
        lambda d: d.update(epsilon="0.1"),
        lambda d: d.update(grid=[{"algorithm": "naive", "N": 8, "p": True}]),
    ])
    def test_invalid_specs_rejected(self, tmp_path, mutate):
        data = spec_dict(tmp_path / "out.csv")
        mutate(data)
        with pytest.raises(ConfigError):
            ExperimentSpec.from_dict(data)

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(ConfigError):
            ExperimentSpec.from_json_file(str(tmp_path / "nope.json"))

    def test_malformed_json_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError):
            ExperimentSpec.from_json_file(str(path))

    def test_trajectory_forced_off_above_limit(self):
        big = GridCell(Algorithm.NAIVE, TRAJECTORY_RECORD_MAX_N * 2, 0.5)
        assert not big.config(0.1, True).record_trajectory
        small = GridCell(Algorithm.NAIVE, 1024, 0.5)
        assert small.config(0.1, True).record_trajectory


class TestRunExperiment:
    def test_reruns_byte_identical(self, tmp_path):
        out_a, out_b = tmp_path / "a.csv", tmp_path / "b.csv"
        run_experiment(ExperimentSpec.from_dict(spec_dict(out_a)))
        run_experiment(ExperimentSpec.from_dict(spec_dict(out_b)))
        assert out_a.read_bytes() == out_b.read_bytes()

    def test_parallel_matches_serial(self, tmp_path):
        out_a, out_b = tmp_path / "a.csv", tmp_path / "b.csv"
        grid = [{"algorithm": "naive", "N": 512, "p": 0.5},
                {"algorithm": "oracle", "N": 512, "p": 0.5}]
        run_experiment(ExperimentSpec.from_dict(spec_dict(out_a, grid=grid)))
        run_experiment(ExperimentSpec.from_dict(spec_dict(out_b, grid=grid)),
                       workers=3)
        assert out_a.read_bytes() == out_b.read_bytes()

    def test_csv_shape_and_typing(self, tmp_path):
        out = tmp_path / "rows.csv"
        run_experiment(ExperimentSpec.from_dict(spec_dict(out)))
        lines = out.read_text().splitlines()
        assert lines[0] == ",".join(CSV_COLUMNS)
        assert len(lines) == 1 + 6
        first = lines[1].split(",")
        row = dict(zip(CSV_COLUMNS, first))
        assert row["trial_id"] == "0"
        assert row["algorithm"] == "naive"
        assert row["p"] == "0.5"  # full round-trip float
        assert row["phase1_end"] == ""  # naive records no phase boundary
        assert row["cap_hit"] == "false"
        assert int(row["T_n"]) > 0

    def test_stream_ids_partition_cells(self, tmp_path):
        out = tmp_path / "rows.csv"
        grid = [{"algorithm": "naive", "N": 256, "p": 0.5},
                {"algorithm": "cyclic", "N": 256, "p": 0.5}]
        run_experiment(ExperimentSpec.from_dict(
            spec_dict(out, grid=grid, trials_per_cell=4)))
        rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
        stream_ids = [int(r[CSV_COLUMNS.index("stream_id")]) for r in rows]
        trial_ids = [int(r[CSV_COLUMNS.index("trial_id")]) for r in rows]
        assert stream_ids == list(range(8))
        assert trial_ids == [0, 1, 2, 3, 0, 1, 2, 3]

    def test_json_format_with_trajectory(self, tmp_path):
        out = tmp_path / "rows.json"
        data = spec_dict(out, format="json", record_trajectory=True,
                         trials_per_cell=3)
        summary = run_experiment(ExperimentSpec.from_dict(data))
        payload = json.loads(out.read_text())
        assert len(payload["rows"]) == 3
        row = payload["rows"][0]
        assert row["trajectory"][0] == 1
        assert row["trajectory"][-1] == row["n_active"]
        assert len(row["trajectory"]) == row["T_n"] + 1
        cell = payload["summary"]["cells"][0]
        assert cell["mean"] == pytest.approx(summary.cells[0].mean)

    def test_summary_statistics(self, tmp_path):
        out = tmp_path / "rows.csv"
        data = spec_dict(out, trials_per_cell=12,
                         grid=[{"algorithm": "cyclic", "N": 1024, "p": 0.5}])
        summary = run_experiment(ExperimentSpec.from_dict(data))
        cell = summary.cells[0]
        rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
        T = np.array([int(r[CSV_COLUMNS.index("T_n")]) for r in rows], dtype=float)
        assert cell.trials == 12
        assert cell.mean == pytest.approx(T.mean())
        assert cell.stddev == pytest.approx(T.std(ddof=1))
        assert cell.min == T.min() and cell.max == T.max()
        assert cell.q50 == pytest.approx(np.quantile(T, 0.5))
        assert cell.mean_normalized == pytest.approx(T.mean() / math.log(1024))
        assert cell.ratio == pytest.approx(
            cell.mean_normalized / constant(Algorithm.CYCLIC, 0.5))
        assert cell.cap_hits == 0

    def test_stage_means_partition_total(self, tmp_path):
        out = tmp_path / "rows.csv"
        data = spec_dict(out, trials_per_cell=10,
                         grid=[{"algorithm": "naive", "N": 2048, "p": 0.5}])
        summary = run_experiment(ExperimentSpec.from_dict(data))
        cell = summary.cells[0]
        assert cell.stage_means is not None
        assert sum(cell.stage_means) == pytest.approx(cell.mean)
        assert all(s >= 0 for s in cell.stage_means)

    def test_degenerate_cell_all_zero(self, tmp_path):
        out = tmp_path / "rows.csv"
        data = spec_dict(out, trials_per_cell=10,
                         grid=[{"algorithm": "naive", "N": 1, "p": 0.5}])
        summary = run_experiment(ExperimentSpec.from_dict(data))
        cell = summary.cells[0]
        assert cell.mean == 0.0 and cell.max == 0
        assert cell.mean_normalized == 0.0
        rows = out.read_text().splitlines()[1:]
        assert all(r.split(",")[CSV_COLUMNS.index("T_n")] == "0" for r in rows)

    def test_unwritable_path_rejected(self, tmp_path):
        data = spec_dict(tmp_path / "no" / "such" / "dir" / "out.csv")
        with pytest.raises(ConfigError):
            run_experiment(ExperimentSpec.from_dict(data))


class TestConvergenceSweep:
    def test_ladder_validation(self):
        naive = (Algorithm.NAIVE,)
        with pytest.raises(ConfigError):
            convergence_sweep(naive, 0.5, [1024], trials=2)
        with pytest.raises(ConfigError):
            convergence_sweep(naive, 0.5, [1024, 512], trials=2)
        with pytest.raises(ConfigError):
            convergence_sweep(naive, 0.5, [512, 1024], trials=0)
        with pytest.raises(ConfigError):
            convergence_sweep((), 0.5, [512, 1024], trials=2)

    def test_oracle_full_activity_is_exact(self):
        rows = convergence_sweep((Algorithm.ORACLE,), 1.0, [2 ** 10, 2 ** 12],
                                 trials=5)[Algorithm.ORACLE]
        for row in rows:
            assert row.ratio == pytest.approx(1.0)
            assert row.ratio_se == pytest.approx(0.0)
            assert row.mean_normalized == pytest.approx(
                math.log2(row.N) / math.log(row.N))

    def test_naive_dominates_improved_per_rung(self):
        # one sweep runs both protocols coupled, trial by trial
        algorithms = (Algorithm.NAIVE, Algorithm.IMPROVED_CYCLIC)
        rows = convergence_sweep(algorithms, 0.5, [2 ** 9, 2 ** 11], trials=20)
        for slow, fast in zip(*(rows[alg] for alg in algorithms)):
            assert slow.mean_normalized > fast.mean_normalized

    def test_coupled_rows_match_single_sweeps(self):
        ladder = [2 ** 6, 2 ** 10]
        both = convergence_sweep((Algorithm.CYCLIC, Algorithm.NAIVE), 0.3,
                                 ladder, trials=6)
        for alg, rows in both.items():
            assert rows == convergence_sweep((alg,), 0.3, ladder,
                                             trials=6)[alg]


class TestEnsemble:
    def test_capped_trials_counted_and_cached(self):
        # a cap of 2 steps stops every protocol, in phase 1, at step 2
        algorithms = (Algorithm.NAIVE, Algorithm.CYCLIC,
                      Algorithm.IMPROVED_CYCLIC)
        config = ProtocolConfig(Algorithm.NAIVE, 4096, 0.5, max_steps=2)
        built = harness._ensemble(config, algorithms, 31, range(5))
        T, capped, _ = built
        assert capped == 15
        assert set(T) == set(algorithms)
        assert all((times == 2).all() for times in T.values())
        assert harness._ensemble(config, algorithms, 31, range(5)) is built


class TestLawCheck:
    @pytest.mark.parametrize("algorithm,exact_law,cases", [
        (Algorithm.ORACLE, exact_oracle_law, [(8, ACCEPTANCE_SEED)]),
        (Algorithm.NAIVE, exact_naive_law,
         [(2, ACCEPTANCE_SEED + 2), (8, ACCEPTANCE_SEED + 8)]),
    ], ids=["oracle", "naive"])
    def test_reads_the_pinned_ensembles(self, algorithm, exact_law, cases):
        # each N's total variation is that of the ensemble on its own seed
        trials = 2000
        result = harness.check_law(algorithm, trials=trials, tolerance=0.05)
        tvs = []
        for N, seed in cases:
            T = harness._ensemble(ProtocolConfig(algorithm, N, 0.5),
                                  (algorithm,), seed, range(trials))[0]
            tv = exact_law(N, 0.5).total_variation(
                ExactLaw.from_samples(T[algorithm]))
            tvs.append(f"N={N}: TV={tv:.4f}")
        assert result.detail == (", ".join(tvs) + f" over {trials} trials "
                                 f"(<= 0.05)")
        assert result.name == f"{algorithm.value} empirical law vs exact DP"


class TestVerifySuite:
    def test_quick_level_passes(self):
        report = verify_suite("quick")
        assert report.all_passed, report.render()
        assert all(c.elapsed >= 0 for c in report.checks)
        assert "PASS" in report.render()

    def test_unknown_level_rejected(self):
        with pytest.raises(ConfigError):
            verify_suite("exhaustive")
