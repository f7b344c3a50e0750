"""The three workloads: their inputs, their rounds and their checks.

A round calls the program once per protocol, in ALGORITHMS order, and
times each call alone. Everything else a round does (writing spec files,
reading and checking outputs) lies outside the timed calls. Inputs derive
from the benchmark seed only: round r of seed s is the same work in every
run.
"""
from __future__ import annotations

import contextlib
import csv
import io
import json
import os
import time
from collections import defaultdict
from typing import Dict, Iterator, List, Tuple

import checks

ALGORITHMS = ("naive", "cyclic", "improved_cyclic", "oracle")
PHASED = ("cyclic", "improved_cyclic")

perf_counter = time.perf_counter


def round_seed(seed: int, r: int) -> int:
    """Base seed of round r: disjoint stream families per round."""
    return (seed << 20) | r


class Workload:
    name = ""
    # rounds of the traced run; fixed, so its counts repeat exactly
    trace_rounds = 0
    trials_per_call = 0

    def __init__(self, gossipsim, seed: int, workdir: str) -> None:
        self.g = gossipsim
        self.seed = seed
        self.workdir = workdir
        self.attempted = 0
        self.failed = 0
        self.completed: Dict[str, int] = defaultdict(int)
        self.attempted_by: Dict[str, int] = defaultdict(int)
        self.errors: List[str] = []        # checks over outputs
        self.trial_errors: List[str] = []  # checks that failed a trial
        self.steps: Dict[str, int] = defaultdict(int)
        self.phase2_steps: Dict[str, int] = defaultdict(int)
        self.output_bytes = 0
        self.T: Dict[object, List[int]] = defaultdict(list)

    def _trial(self, alg: str, T: int, n_active: int, cap_hit: bool,
               phase1_end, extra: List[str] = ()) -> None:
        """Count one trial; it fails if it breaks a per-trial check."""
        self.attempted += 1
        self.attempted_by[alg] += 1
        errors = checks.check_trial(T, n_active, cap_hit) + list(extra)
        if errors:
            self.failed += 1
            self.trial_errors.append(f"{alg}: " + "; ".join(errors))
        else:
            self.completed[alg] += 1
        self.steps[alg] += T
        if alg in PHASED:
            self.phase2_steps[alg] += T - phase1_end

    def prepare(self) -> None:
        """Build the inputs and warm every code path up."""
        raise NotImplementedError

    def round(self, r: int) -> Iterator[Tuple[str, float, object]]:
        """Run round r, yielding (protocol, seconds, output) per call; the
        caller may do untimed work between calls."""
        raise NotImplementedError

    def absorb(self, r: int, outputs: Dict[str, object]) -> None:
        """Check round r's outputs and count its trials."""
        raise NotImplementedError

    def finish(self) -> List[str]:
        """Checks over the whole run; returns errors."""
        return []

    def single_trial(self, alg: str) -> None:
        """One trial at the workload's largest size (for memory peaks)."""
        raise NotImplementedError


class LargeN(Workload):
    """N = 2^20, p = 0.5 through gossipsim.run; the four protocols share
    RngStream(seed, r) in round r, so their trials are coupled."""

    name = "large_n"
    N, P = 2 ** 20, 0.5
    trace_rounds = 4
    trials_per_call = 1
    WARM_STREAM = 2 ** 63

    def prepare(self) -> None:
        g = self.g
        self.configs = {alg: g.ProtocolConfig(g.Algorithm(alg), self.N, self.P)
                        for alg in ALGORITHMS}
        stream = g.RngStream(self.seed, self.WARM_STREAM)
        for alg in ALGORITHMS:
            g.run(self.configs[alg], stream)

    def round(self, r):
        g = self.g
        stream = g.RngStream(self.seed, r)
        for alg in ALGORITHMS:
            start = perf_counter()
            result = g.run(self.configs[alg], stream)
            seconds = perf_counter() - start
            yield alg, seconds, {"T": result.completion_time,
                                 "n_active": result.n_active,
                                 "cap_hit": result.cap_hit,
                                 "phase1_end": result.phase1_end,
                                 "thresholds": tuple(sorted(
                                     result.threshold_times.items()))}

    def absorb(self, r, outputs):
        coupled = checks.check_coupled_round(outputs)
        for alg in ALGORITHMS:
            out = outputs[alg]
            self._trial(alg, out["T"], out["n_active"], out["cap_hit"],
                        out["phase1_end"], coupled)
            self.T[alg].append(out["T"])

    def finish(self):
        return checks.check_large_n_means(self.T, self.N, self.P)

    def single_trial(self, alg):
        self.g.run(self.configs[alg], self.g.RngStream(self.seed, 0))


class SmallNLaws(Workload):
    """N in {2, 8}, p = 0.5: one harness.run_experiment call per protocol
    with a CSV spec of TRIALS trials per cell; the empirical laws pooled
    over the run are checked against exact laws."""

    name = "small_n_laws"
    SIZES, P = (2, 8), 0.5
    TRIALS = 500
    trace_rounds = 6
    trials_per_call = len(SIZES) * TRIALS

    def _spec(self, alg: str, base_seed: int, trials: int):
        g = self.g
        grid = tuple(g.GridCell(g.Algorithm(alg), N, self.P) for N in self.SIZES)
        return g.ExperimentSpec(
            grid=grid, trials_per_cell=trials, base_seed=base_seed,
            record_trajectory=False, epsilon=0.1,
            output_path=os.path.join(self.workdir, f"{alg}.csv"),
            format="csv")

    def prepare(self):
        for alg in ALGORITHMS:
            self.g.harness.run_experiment(self._spec(alg, self.seed, 20))

    def round(self, r):
        base = round_seed(self.seed, r)
        for alg in ALGORITHMS:
            spec = self._spec(alg, base, self.TRIALS)
            start = perf_counter()
            summary = self.g.harness.run_experiment(spec)
            seconds = perf_counter() - start
            with open(spec.output_path, "rb") as fh:
                yield alg, seconds, (fh.read(), summary)

    def absorb(self, r, outputs):
        for alg in ALGORITHMS:
            blob, summary = outputs[alg]
            self.output_bytes += len(blob)
            rows = list(csv.DictReader(io.StringIO(blob.decode("utf-8"))))
            expect = len(self.SIZES) * self.TRIALS
            if len(rows) != expect:
                self.errors.append(f"{alg}: {len(rows)} rows != {expect}")
            by_n = defaultdict(list)
            caps = defaultdict(int)
            for row in rows:
                T, N = int(row["T_n"]), int(row["N"])
                cap_hit = row["cap_hit"] == "true"
                phase1_end = row["phase1_end"]
                self._trial(alg, T, int(row["n_active"]), cap_hit,
                            int(phase1_end) if phase1_end else None)
                by_n[N].append(T)
                caps[N] += cap_hit
            for cell in summary.as_dict()["cells"]:
                self.errors += checks.check_summary(cell, by_n[cell["N"]],
                                                    caps[cell["N"]])
            for N, values in by_n.items():
                self.T[(alg, N)] += values

    def exact_laws(self) -> Dict[Tuple[str, int], Dict[int, float]]:
        theory = self.g.theory
        return {
            ("naive", 2): checks.naive_law_n2(self.P),
            ("oracle", 2): checks.oracle_law_n2(self.P),
            ("naive", 8): theory.exact_naive_law(8, self.P).as_dict(),
            ("oracle", 8): theory.exact_oracle_law(8, self.P).as_dict(),
        }

    def finish(self):
        laws = self.exact_laws()
        errors = []
        for N in self.SIZES:
            for alg in ("naive", "oracle"):
                errors += checks.check_law(self.T[(alg, N)], laws[(alg, N)],
                                           f"{alg} N={N}")
            for alg in PHASED:
                errors += checks.check_dominated(
                    self.T[(alg, N)], laws[("oracle", N)], f"{alg} N={N}")
        return errors

    def single_trial(self, alg):
        g = self.g
        config = g.ProtocolConfig(g.Algorithm(alg), max(self.SIZES), self.P)
        g.run(config, g.RngStream(self.seed, 0))


class LowPCli(Workload):
    """`gossipsim run` through cli.main on a JSON spec: N = 2^16, p = 0.3,
    trajectories recorded, JSON output; one call per protocol per round."""

    name = "low_p_cli"
    N, P, EPS = 2 ** 16, 0.3, 0.1
    TRIALS = 8
    trace_rounds = 6
    trials_per_call = TRIALS

    def _write_spec(self, alg: str, base_seed: int, trials: int) -> str:
        spec = {"grid": [{"algorithm": alg, "N": self.N, "p": self.P}],
                "trials_per_cell": trials, "base_seed": base_seed,
                "record_trajectory": True, "epsilon": self.EPS,
                "output_path": os.path.join(self.workdir, f"{alg}.json"),
                "format": "json"}
        path = os.path.join(self.workdir, f"{alg}.spec.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(spec, fh)
        return path

    def _main(self, spec_path: str) -> int:
        with contextlib.redirect_stdout(io.StringIO()):
            return self.g.cli.main(["run", spec_path])

    def prepare(self):
        for alg in ALGORITHMS:
            code = self._main(self._write_spec(alg, self.seed, 1))
            if code != 0:
                raise RuntimeError(f"warm-up `gossipsim run` exited {code}")

    def round(self, r):
        base = round_seed(self.seed, r)
        for alg in ALGORITHMS:
            spec_path = self._write_spec(alg, base, self.TRIALS)
            start = perf_counter()
            code = self._main(spec_path)
            seconds = perf_counter() - start
            with open(os.path.join(self.workdir, f"{alg}.json"), "rb") as fh:
                yield alg, seconds, (code, fh.read())

    def absorb(self, r, outputs):
        for alg in ALGORITHMS:
            code, blob = outputs[alg]
            self.output_bytes += len(blob)
            if code != 0:
                self.errors.append(f"{alg}: `gossipsim run` exited {code}")
            payload = json.loads(blob)
            rows = payload["rows"]
            if len(rows) != self.TRIALS:
                self.errors.append(f"{alg}: {len(rows)} rows != {self.TRIALS}")
            for row in rows:
                self._trial(alg, row["T_n"], row["n_active"], row["cap_hit"],
                            row["phase1_end"],
                            checks.check_trajectory(
                                row["trajectory"], row["T_n"],
                                row["n_active"], self.N, self.P, self.EPS,
                                row["t_eps"], row["t_one_minus_eps"]))
            T = [row["T_n"] for row in rows]
            caps = sum(bool(row["cap_hit"]) for row in rows)
            for cell in payload["summary"]["cells"]:
                self.errors += checks.check_summary(cell, T, caps)
            self.T[alg] += T

    def single_trial(self, alg):
        g = self.g
        config = g.ProtocolConfig(g.Algorithm(alg), self.N, self.P,
                                  epsilon=self.EPS, record_trajectory=True)
        g.run(config, g.RngStream(self.seed, 0))


WORKLOADS = {cls.name: cls for cls in (LargeN, SmallNLaws, LowPCli)}
