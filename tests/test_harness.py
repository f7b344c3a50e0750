import dataclasses
import hashlib
import json
import math
from statistics import NormalDist

import numpy as np
import pytest

from gossipsim import core, harness
from gossipsim.core import Algorithm, ConfigError, ProtocolConfig
from gossipsim.harness import (
    ACCEPTANCE_SEED,
    CSV_COLUMNS,
    ExperimentSpec,
    GridCell,
    convergence_sweep,
    run_experiment,
    verify_suite,
)
from gossipsim.protocols import run, run_coupled
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
        # a seed outside [0, 2^64) fails with the spec, not at a trial
        lambda d: d.update(base_seed=-3),
        lambda d: d.update(base_seed=2 ** 64),
    ])
    def test_invalid_specs_rejected(self, tmp_path, mutate):
        data = spec_dict(tmp_path / "out.csv")
        mutate(data)
        with pytest.raises(ConfigError):
            ExperimentSpec.from_dict(data)

    @pytest.mark.parametrize("field,value", [
        ("trials_per_cell", 2.5), ("trials_per_cell", True),
        ("base_seed", -3), ("base_seed", 1.0)])
    def test_constructor_checks_trials_and_seed(self, tmp_path, field, value):
        spec = ExperimentSpec.from_dict(spec_dict(tmp_path / "out.csv"))
        with pytest.raises(ConfigError):
            dataclasses.replace(spec, **{field: value})

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(ConfigError):
            ExperimentSpec.from_json_file(str(tmp_path / "nope.json"))

    def test_malformed_json_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        # not JSON; JSON in bytes that are not UTF-8; an integer longer
        # than Python's int parsing takes
        for data in (b"{not json", b'{"grid": [], "x": "\xff"}',
                     b'{"base_seed": ' + b"1" * 5000 + b"}"):
            path.write_bytes(data)
            with pytest.raises(ConfigError, match="is not valid JSON"):
                ExperimentSpec.from_json_file(str(path))


class TestRunExperiment:
    def test_reruns_byte_identical(self, tmp_path):
        out_a, out_b = tmp_path / "a.csv", tmp_path / "b.csv"
        run_experiment(ExperimentSpec.from_dict(spec_dict(out_a)))
        run_experiment(ExperimentSpec.from_dict(spec_dict(out_b)))
        assert out_a.read_bytes() == out_b.read_bytes()

    @pytest.mark.parametrize("fmt,trajectory,trials", [
        ("csv", False, 6),
        # cells of several pool chunks, the last one short
        ("json", True, 2 * harness._POOL_CHUNK + 5),
    ], ids=["csv", "json-trajectories"])
    def test_parallel_matches_serial(self, tmp_path, fmt, trajectory, trials):
        out_a, out_b = tmp_path / f"a.{fmt}", tmp_path / f"b.{fmt}"
        grid = [{"algorithm": "naive", "N": 512, "p": 0.5},
                {"algorithm": "oracle", "N": 512, "p": 0.5},
                {"algorithm": "cyclic", "N": 64, "p": 0.3}]
        spec = spec_dict(out_a, grid=grid, format=fmt, trials_per_cell=trials,
                         record_trajectory=trajectory)
        serial = run_experiment(ExperimentSpec.from_dict(spec))
        spec["output_path"] = str(out_b)
        pooled = run_experiment(ExperimentSpec.from_dict(spec), workers=3)
        assert pooled == serial
        assert out_a.read_bytes() == out_b.read_bytes()
        if fmt == "json":
            rows = json.loads(out_b.read_text())["rows"]
            assert [r["stream_id"] for r in rows] == list(range(3 * trials))
            assert all("trajectory" in r for r in rows)

    def test_trajectories_at_every_n(self, tmp_path):
        # record_trajectory holds above 2^16 too: each row's trajectory is
        # the informed count after every step, so trajectory[phase1_end] is
        # the informed count k at the end of phase 1
        grid = [{"algorithm": "cyclic", "N": 2 ** 17, "p": 0.5}]
        blobs = {}
        for fmt, record in (("json", True), ("csv", True), ("csv", False)):
            out = tmp_path / f"{fmt}-{record}"
            run_experiment(ExperimentSpec.from_dict(spec_dict(
                out, grid=grid, trials_per_cell=2, record_trajectory=record,
                format=fmt)))
            blobs[fmt, record] = out.read_bytes()
        rows = json.loads(blobs["json", True])["rows"]
        assert len(rows) == 2
        for row in rows:
            trajectory = row["trajectory"]
            assert len(trajectory) == row["T_n"] + 1
            assert trajectory[0] == 1 and trajectory[-1] == row["n_active"]
            assert 1 <= trajectory[row["phase1_end"]] <= row["n_active"]
        assert blobs["csv", True] == blobs["csv", False]

    def test_each_block_of_streams_seeded_once(self, tmp_path):
        # 1,000 trials read streams 0-999 of one base seed: four blocks of
        # 256 streams, each seeded once for both of its domains
        grid = [{"algorithm": "naive", "N": 8, "p": 0.5},
                {"algorithm": "oracle", "N": 2, "p": 0.5}]
        spec = ExperimentSpec.from_dict(spec_dict(
            tmp_path / "a.csv", grid=grid, trials_per_cell=500))
        core._block_states.cache_clear()
        run_experiment(spec)
        assert core._block_states.cache_info().misses == 4

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

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_numpy_values_write_the_plain_bytes(self, tmp_path, fmt):
        # a spec built in Python may hold numpy numbers; they are kept as
        # plain ints and floats, and it writes what the plain spec writes.
        # The last cell's p is a float32, which the plain spec holds as the
        # float it equals
        grid = [{"algorithm": "naive", "N": 8, "p": 0.5},
                {"algorithm": "cyclic", "N": 64, "p": 0.3},
                {"algorithm": "naive", "N": 1000, "p": float(np.float32(0.3))}]
        plain = ExperimentSpec.from_dict(spec_dict(
            tmp_path / f"a.{fmt}", grid=grid, trials_per_cell=3, format=fmt,
            record_trajectory=True))
        numeric = dataclasses.replace(
            plain, output_path=str(tmp_path / f"b.{fmt}"),
            trials_per_cell=np.int64(3), base_seed=np.uint64(plain.base_seed),
            grid=tuple(GridCell(c.algorithm, np.int64(c.N), real(c.p))
                       for c, real in zip(plain.grid, (np.float64, np.float64,
                                                       np.float32))))
        assert type(numeric.base_seed) is int
        assert type(numeric.trials_per_cell) is int
        assert all(type(c.N) is int and type(c.p) is float
                   for c in numeric.grid)
        assert numeric.grid == plain.grid
        summaries = [run_experiment(spec) for spec in (plain, numeric)]
        texts = [json.dumps(s.as_dict(), sort_keys=True) for s in summaries]
        assert summaries[0] == summaries[1] and texts[0] == texts[1]
        assert ((tmp_path / f"a.{fmt}").read_bytes()
                == (tmp_path / f"b.{fmt}").read_bytes())

    def test_trials_run_through_module_global(self, tmp_path, monkeypatch):
        # per-layer tracing wraps harness.run and divides by its call count;
        # a local binding would bypass the wrapper
        calls = []

        def counting(config, stream):
            calls.append((config.algorithm, stream.stream_id))
            return run(config, stream)

        monkeypatch.setattr(harness, "run", counting)
        grid = [{"algorithm": "naive", "N": 8, "p": 0.5},
                {"algorithm": "oracle", "N": 2, "p": 0.5}]
        run_experiment(ExperimentSpec.from_dict(spec_dict(
            tmp_path / "a.csv", grid=grid, trials_per_cell=5)))
        assert calls == ([(Algorithm.NAIVE, s) for s in range(5)]
                         + [(Algorithm.ORACLE, s) for s in range(5, 10)])


class TestPinnedRunOutputs:
    """The bytes `run` writes, pinned to digests: the CSV, the JSON and the
    summary of one spec. Its first cell is cyclic at N = 2^16, p = 0.3,
    whose stream 1 on this seed hits the step cap; then every algorithm at
    N in {1, 2, 8, 1000} and p in {0.3, 1.0}, trajectories on. The digests
    were recorded on the code that built one row dict per trial."""

    SEED = (902 << 20) | 26
    GRID = ([{"algorithm": "cyclic", "N": 2 ** 16, "p": 0.3}]
            + [{"algorithm": alg.value, "N": N, "p": p} for alg in Algorithm
               for N in (1, 2, 8, 1000) for p in (0.3, 1.0)])
    CSV_DIGEST = ("68cc567bfa689fbabc6bbda84b7bd85ec24fbae55f3828f4"
                  "3b835e536fdb1a7f")
    JSON_DIGEST = ("d1ceb8b8396a23a5286d3dd52fcb03fff65257eb9790d9b2"
                   "6340f43637baf0e9")
    SUMMARY_DIGEST = ("a3efe617824d355a2921f9c4d8b042f38bedec8f3a00b83f"
                      "9053b8254f9c2654")

    @staticmethod
    def sha(blob: bytes) -> str:
        return hashlib.sha256(blob).hexdigest()

    def run_format(self, tmp_path, fmt):
        out = tmp_path / f"out.{fmt}"
        summary = run_experiment(ExperimentSpec.from_dict(spec_dict(
            out, grid=self.GRID, trials_per_cell=3, base_seed=self.SEED,
            record_trajectory=True, format=fmt)))
        return out.read_bytes(), summary

    def test_digests(self, tmp_path):
        csv_blob, summary = self.run_format(tmp_path, "csv")
        json_blob, json_summary = self.run_format(tmp_path, "json")
        assert json_summary == summary
        cap = summary.cells[0]
        assert cap.cap_hits == 1 and b",true\n" in csv_blob
        text = json.dumps(summary.as_dict(), sort_keys=True,
                          separators=(",", ":"))
        assert self.sha(csv_blob) == self.CSV_DIGEST
        assert self.sha(json_blob) == self.JSON_DIGEST
        assert self.sha(text.encode()) == self.SUMMARY_DIGEST


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
        # neither N nor trials is truncated to an integer
        with pytest.raises(ConfigError):
            convergence_sweep(naive, 0.5, [8.7, 16], trials=2)
        with pytest.raises(ConfigError):
            convergence_sweep(naive, 0.5, [8, 16.5], trials=2)
        with pytest.raises(ConfigError):
            convergence_sweep(naive, 0.5, [8, 16], trials=2.5)
        # a repeated algorithm would be reported twice or break the rows
        with pytest.raises(ConfigError, match="repeated algorithm"):
            convergence_sweep((Algorithm.NAIVE, Algorithm.NAIVE), 0.5, [8, 16],
                              trials=3)
        with pytest.raises(ConfigError, match="repeated algorithm"):
            convergence_sweep((Algorithm.NAIVE, Algorithm.CYCLIC,
                               Algorithm.NAIVE), 0.5, [8, 16], trials=3)

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
        store = harness._store(config, algorithms, 31)
        T = store.times(range(5))
        assert list(T) == list(algorithms)
        assert all((times == 2).all() for times in T.values())
        assert store.capped.shape == (3, 5) and store.capped.all()
        assert store.seconds > 0
        assert harness._store(config, algorithms, 31) is store

    def test_each_stream_built_once(self, monkeypatch):
        calls = []

        def counting(*args):
            calls.append(args)
            return run_coupled(*args)

        monkeypatch.setattr(harness, "run_coupled", counting)
        algorithms = (Algorithm.NAIVE, Algorithm.CYCLIC, Algorithm.ORACLE)
        config = ProtocolConfig(Algorithm.NAIVE, 256, 0.5)
        store = harness._Store(config, algorithms, 5)
        ranges = (range(10), range(3, 7), range(8, 12))
        read = [store.times(streams) for streams in ranges]
        assert len(calls) == 12
        for streams, T in zip(ranges, read):
            fresh = harness._Store(config, algorithms, 5).times(streams)
            assert list(T) == list(fresh) == list(algorithms)
            for alg in algorithms:
                np.testing.assert_array_equal(T[alg], fresh[alg])


class TestLawCheck:
    @pytest.mark.parametrize("algorithm,exact_law,cases", [
        (Algorithm.ORACLE, exact_oracle_law,
         [(8, ACCEPTANCE_SEED), (64, ACCEPTANCE_SEED + 64)]),
        (Algorithm.NAIVE, exact_naive_law,
         [(2, ACCEPTANCE_SEED + 2), (8, ACCEPTANCE_SEED + 8),
          (64, ACCEPTANCE_SEED + 65)]),
    ], ids=["oracle", "naive"])
    def test_reads_the_pinned_ensembles(self, algorithm, exact_law, cases):
        # each N's total variation and mean z-score are those of the store
        # on its own seed
        trials = 2000
        result = harness.check_law(algorithm, trials=trials, tolerance=0.05)
        rows = []
        for N, seed in cases:
            T = harness._store(ProtocolConfig(algorithm, N, 0.5),
                               (algorithm,), seed).times(range(trials))
            law = exact_law(N, 0.5)
            tv = law.total_variation(ExactLaw.from_samples(T[algorithm]))
            z = ((T[algorithm].mean() - law.mean())
                 / math.sqrt(law.variance() / trials))
            rows.append(f"N={N}: TV={tv:.4f} z={z:+.2f}")
        assert result.detail == (", ".join(rows) + f" over {trials} trials "
                                 f"(TV <= 0.05, |z| <= 5.20)")
        assert result.name == f"{algorithm.value} empirical law vs exact DP"

    def test_mean_bound_is_the_bonferroni_critical_value(self):
        rows = sum(len(cases) for _, cases in harness._LAW_CASES.values())
        assert rows == 5
        assert harness._LAW_Z == pytest.approx(
            NormalDist().inv_cdf(1 - 1e-6 / rows / 2), abs=1e-4)

    def test_a_shifted_mean_fails(self, monkeypatch):
        # every sample one step late: the TV tolerance of 1 passes it, the
        # mean test does not
        def late(N, p):
            law = exact_naive_law(N, p)
            return ExactLaw(tuple(t - 1 for t in law.support),
                            law.probabilities)

        monkeypatch.setitem(harness._LAW_CASES, Algorithm.NAIVE,
                            (late, ((8, ACCEPTANCE_SEED + 8),)))
        result = harness.check_law(Algorithm.NAIVE, trials=2000, tolerance=1.0)
        assert not result.passed


class TestVerifySuite:
    def test_quick_level_passes(self):
        report = verify_suite("quick")
        assert report.all_passed, report.render()
        assert all(c.elapsed >= 0 for c in report.checks)
        assert "PASS" in report.render()

    def test_unknown_level_rejected(self):
        with pytest.raises(ConfigError):
            verify_suite("exhaustive")
