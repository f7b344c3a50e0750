import hashlib
import json
import math
import os
import subprocess
import sys

import pytest

import gossipsim
from gossipsim import cli
from gossipsim.core import Algorithm
from gossipsim.harness import CheckResult, VerifyReport
from gossipsim.theory import constant


def write_spec(tmp_path, **overrides):
    data = {
        "grid": [{"algorithm": "naive", "N": 256, "p": 0.5}],
        "trials_per_cell": 3,
        "base_seed": 7,
        "record_trajectory": False,
        "epsilon": 0.1,
        "output_path": str(tmp_path / "rows.csv"),
        "format": "csv",
    }
    data.update(overrides)
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(data))
    return path


class TestRunCommand:
    def test_happy_path(self, tmp_path, capsys):
        spec = write_spec(tmp_path)
        assert cli.main(["run", str(spec)]) == 0
        assert (tmp_path / "rows.csv").exists()
        out = capsys.readouterr().out
        assert "naive" in out and "ratio" in out

    def test_invalid_spec_exits_2(self, tmp_path, capsys):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"bogus": True}))
        assert cli.main(["run", str(spec)]) == 2
        assert "error:" in capsys.readouterr().err

    def test_malformed_value_exits_2(self, tmp_path, capsys):
        spec = write_spec(tmp_path,
                          grid=[{"algorithm": "naive", "N": "abc", "p": 0.5}])
        assert cli.main(["run", str(spec)]) == 2
        assert "error:" in capsys.readouterr().err
        assert not (tmp_path / "rows.csv").exists()
        spec = write_spec(tmp_path, record_trajectory="false")
        assert cli.main(["run", str(spec)]) == 2
        assert "error:" in capsys.readouterr().err
        assert not (tmp_path / "rows.csv").exists()

    def test_missing_spec_exits_2(self, tmp_path):
        assert cli.main(["run", str(tmp_path / "absent.json")]) == 2

    def test_unwritable_output_exits_2(self, tmp_path):
        spec = write_spec(tmp_path,
                          output_path=str(tmp_path / "no" / "dir" / "x.csv"))
        assert cli.main(["run", str(spec)]) == 2

    def test_workers_flag(self, tmp_path):
        spec = write_spec(tmp_path)
        assert cli.main(["run", str(spec), "--workers", "2"]) == 0

    def test_tiny_p_exits_2_before_any_trial(self, tmp_path, capsys):
        spec = write_spec(tmp_path,
                          grid=[{"algorithm": "naive", "N": 64, "p": 5e-324}])
        assert cli.main(["run", str(spec)]) == 2
        assert "p=5e-324 is too small" in capsys.readouterr().err
        assert not (tmp_path / "rows.csv").exists()

    def test_N_numpy_cannot_index_exits_2(self, tmp_path, capsys):
        spec = write_spec(tmp_path,
                          grid=[{"algorithm": "naive", "N": 1e20, "p": 0.5}])
        assert cli.main(["run", str(spec)]) == 2
        assert "error: N=100000000000000000000 " in capsys.readouterr().err
        assert not (tmp_path / "rows.csv").exists()

    @pytest.mark.parametrize("workers", ["0", "-3"])
    def test_worker_count_below_one_exits_2(self, tmp_path, capsys, workers):
        spec = write_spec(tmp_path)
        assert cli.main(["run", str(spec), "--workers", workers]) == 2
        assert "workers must be a positive integer" in capsys.readouterr().err
        assert not (tmp_path / "rows.csv").exists()


class TestSweepCommand:
    def test_oracle_table(self, capsys):
        code = cli.main(["sweep", "--algorithm", "oracle", "--p", "1.0",
                         "--N", "1024", "4096", "--trials", "3"])
        assert code == 0
        assert "1.0000" in capsys.readouterr().out

    def test_json_output(self, capsys):
        code = cli.main(["sweep", "--algorithm", "oracle", "--p", "1.0",
                         "--N", "1024", "4096", "--trials", "3", "--json"])
        assert code == 0
        rows = json.loads(capsys.readouterr().out)
        assert [r["N"] for r in rows] == [1024, 4096]
        assert all(r["ratio"] == pytest.approx(1.0) for r in rows)

    def test_bad_ladder_exits_2(self, capsys):
        code = cli.main(["sweep", "--algorithm", "naive", "--p", "0.5",
                         "--N", "1024"])
        assert code == 2

    def test_epsilon_flag_rejected(self):
        # completion times ignore the stage thresholds, so sweep has no
        # --epsilon; argparse rejects it with exit code 2
        with pytest.raises(SystemExit) as exc:
            cli.main(["sweep", "--algorithm", "naive", "--p", "0.5",
                      "--N", "64", "128", "--epsilon", "0.2"])
        assert exc.value.code == 2

    def test_tiny_p(self, capsys):
        argv = ["sweep", "--algorithm", "naive", "--N", "64", "256",
                "--trials", "3", "--p"]
        assert cli.main(argv + ["5e-324"]) == 2
        assert "p=5e-324 is too small" in capsys.readouterr().err
        assert cli.main(argv + ["1e-17"]) == 0

    def test_N_numpy_cannot_index_exits_2(self, capsys):
        code = cli.main(["sweep", "--algorithm", "naive", "--p", "0.5",
                         "--N", "64", str(10 ** 20)])
        assert code == 2
        assert "error: N=100000000000000000000 " in capsys.readouterr().err

    def test_bad_algorithm_exits_2(self):
        code = cli.main(["sweep", "--algorithm", "gossipmonger", "--p", "0.5",
                         "--N", "64", "128"])
        assert code == 2


class TestTheoryCommand:
    def test_default_grid(self, capsys):
        assert cli.main(["theory"]) == 0
        out = capsys.readouterr().out
        assert "naive" in out and "0.95" in out

    def test_explicit_p_json(self, capsys):
        assert cli.main(["theory", "--p", "0.5", "--json"]) == 0
        rows = json.loads(capsys.readouterr().out)
        assert rows[0]["naive"] == pytest.approx(constant(Algorithm.NAIVE, 0.5))
        assert rows[0]["cyclic"] == pytest.approx(constant(Algorithm.CYCLIC, 0.5))
        assert rows[0]["improved"] == pytest.approx(
            constant(Algorithm.IMPROVED_CYCLIC, 0.5))
        assert rows[0]["cyclic_minus_naive_gap"] < 0

    def test_p_one_has_no_gap(self, capsys):
        # f(p) = p + ln(1-p) is undefined at p = 1: null in strict JSON,
        # -inf (its limit) in the table
        assert cli.main(["theory", "--p", "0.5", "1.0", "--json"]) == 0

        def reject(token):
            raise ValueError(f"non-strict JSON constant {token}")

        rows = json.loads(capsys.readouterr().out, parse_constant=reject)
        assert rows[0]["cyclic_minus_naive_gap"] < 0
        assert rows[1]["p"] == 1.0
        assert rows[1]["cyclic_minus_naive_gap"] is None
        for key, alg in (("naive", Algorithm.NAIVE),
                         ("cyclic", Algorithm.CYCLIC),
                         ("improved", Algorithm.IMPROVED_CYCLIC),
                         ("lower_bound", Algorithm.ORACLE)):
            assert rows[1][key] == constant(alg, 1.0)
        assert cli.main(["theory", "--p", "1"]) == 0
        last = capsys.readouterr().out.splitlines()[-1].split()
        assert last[0] == "1.00" and last[-1] == "-inf"

    def test_invalid_p_exits_2(self):
        assert cli.main(["theory", "--p", "1.5"]) == 2


class TestOracleLawCommand:
    def test_point_mass_json(self, capsys):
        assert cli.main(["oracle-law", "--N", "8", "--p", "1.0", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["law"] == {"3": 1.0}
        assert payload["mean"] == pytest.approx(3.0)

    def test_table_output(self, capsys):
        assert cli.main(["oracle-law", "--N", "8", "--p", "0.5"]) == 0
        out = capsys.readouterr().out
        assert "P(T=t)" in out and "mean" in out

    def test_cdf_rounding_to_one_early_exits_0(self, capsys):
        # P(T <= t) rounds to 1.0 while some state still has u > 0
        assert cli.main(["oracle-law", "--N", "18", "--p", "0.93", "--json"]) == 0

        def reject(token):
            raise ValueError(f"non-strict JSON constant {token}")

        payload = json.loads(capsys.readouterr().out, parse_constant=reject)
        assert math.fsum(payload["law"].values()) == pytest.approx(1.0, abs=1e-12)

    def test_oversized_n_exits_2(self):
        assert cli.main(["oracle-law", "--N", "512", "--p", "0.5"]) == 2


class TestVerifyCommand:
    def test_failing_report_exits_1(self, capsys, monkeypatch):
        failing = VerifyReport(checks=(
            CheckResult(name="stub", passed=False, detail="boom", elapsed=0.0),))
        monkeypatch.setattr(cli.harness, "verify_suite", lambda level: failing)
        assert cli.main(["verify", "--level", "quick"]) == 1
        assert "FAIL" in capsys.readouterr().out

    def test_passing_report_exits_0(self, capsys, monkeypatch):
        passing = VerifyReport(checks=(
            CheckResult(name="stub", passed=True, detail="ok", elapsed=0.0),))
        monkeypatch.setattr(cli.harness, "verify_suite", lambda level: passing)
        assert cli.main(["verify"]) == 0
        assert "PASS" in capsys.readouterr().out

    def test_bad_level_rejected_by_argparse(self):
        with pytest.raises(SystemExit) as excinfo:
            cli.main(["verify", "--level", "paranoid"])
        assert excinfo.value.code == 2


class TestParser:
    def test_no_subcommand_exits_2(self):
        with pytest.raises(SystemExit) as excinfo:
            cli.main([])
        assert excinfo.value.code == 2

    def test_unknown_subcommand_exits_2(self):
        with pytest.raises(SystemExit) as excinfo:
            cli.main(["frobnicate"])
        assert excinfo.value.code == 2

    def test_parser_built_once(self):
        assert cli.build_parser() is cli.build_parser()

    @pytest.mark.parametrize("between", [
        (), (["run"], ["run", "x", "--workers", "y"], ["frobnicate"])],
        ids=["back-to-back", "after-usage-errors"])
    def test_repeated_runs_share_the_parser(self, tmp_path, capsys, between):
        # a second run call, after each argv in between has failed to
        # parse (exit 2), prints and writes the same bytes as the first
        spec = str(write_spec(tmp_path, record_trajectory=True, format="json",
                              output_path=str(tmp_path / "rows.json")))
        outputs = []
        for _ in range(2):
            assert cli.main(["run", spec]) == 0
            outputs.append((capsys.readouterr().out,
                            (tmp_path / "rows.json").read_bytes()))
            for argv in between:
                with pytest.raises(SystemExit) as excinfo:
                    cli.main(argv)
                assert excinfo.value.code == 2
        assert outputs[0] == outputs[1]

    def test_import_loads_no_process_pool(self):
        # only run --workers K with K > 1 imports the pool
        src = os.path.dirname(os.path.dirname(gossipsim.__file__))
        code = (f"import sys; sys.path.insert(0, {src!r}); "
                "import gossipsim, gossipsim.cli; "
                "print(sorted(m for m in sys.modules if m.split('.')[0] in "
                "('multiprocessing', 'concurrent')))")
        out = subprocess.run([sys.executable, "-c", code], check=True,
                             capture_output=True, text=True).stdout
        assert out == "[]\n"


class TestPinnedCliOutputs:
    """The stdout and exit code of sweep, theory and oracle-law, each as
    JSON and as a table, pinned to sha256 digests. The digests were
    recorded on the code that mapped subcommand names to handlers in a
    table and built sweep's JSON rows field by field."""

    SWEEP = ["sweep", "--algorithm", "cyclic", "--p", "0.4", "--N", "64",
             "1024", "--trials", "12", "--seed", "77"]
    ORACLE_LAW = ["oracle-law", "--N", "8", "--p", "0.5"]

    @pytest.mark.parametrize("argv,digest", [
        (SWEEP + ["--json"], "e0b230cfa705bf99300118d3623ddbb7"
                             "5493a62a7b4c9405fcf717fdbb859fe6"),
        (SWEEP, "1c8fd839e1ec9ce2d15ab682deeec649"
                "a2398cac6d96b7ebc5af20c3903c3e1c"),
        (["theory", "--json"], "3300615fbbf7fa766262d732d5380332"
                               "c39a9c08f5edd3dffcccbfe2e12b57d3"),
        (["theory", "--p", "0.3", "1.0"], "6a37fd11515a6aca8b287bea5485bda4"
                                          "43b81d062f6d79bb053e1b10d9ff5669"),
        (ORACLE_LAW + ["--json"], "ab0ebae341ac6bd9dba99bf7fb79abe4"
                                  "ef1377c29c81e1418d7831dd38ca4951"),
        (ORACLE_LAW, "2c1f9a7dc6e7e4708d56587494d074f6"
                     "c5e006972c2cef83979442f22cbded11"),
    ], ids=["sweep-json", "sweep-table", "theory-json", "theory-table",
            "oracle-law-json", "oracle-law-table"])
    def test_digest(self, capsys, argv, digest):
        assert cli.main(argv) == 0
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == digest
