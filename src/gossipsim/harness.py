"""Experiment orchestration: ensembles, persistence, statistics, checks.

run_experiment executes a declarative ExperimentSpec: it keeps each
cell's trials as columns, one per varying CSV field plus the
trajectories, and persists one raw row per trial rendered from them;
convergence_sweep tabulates normalized completion times over an N
ladder. The check_* functions are the statistical and exactness checks
that gate the simulator, each on fixed seeds and sizes; verify_suite runs
them at two levels and the acceptance tests call them one by one. Output
is a pure function of the spec: identical specs give byte-identical
files.
"""
from __future__ import annotations

import functools
import itertools
import json
import math
import os
import shutil
import tempfile
import time
from dataclasses import asdict, dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .core import (
    Algorithm,
    ConfigError,
    ProtocolConfig,
    RngStream,
    _positive_int,
    _uint64,
    sample_active,
)
from . import theory
from .protocols import run, run_coupled
from .theory import ExactLaw, constant, cyclic_beats_naive, lower_bound_tail

__all__ = [
    "GridCell",
    "ExperimentSpec",
    "CellSummary",
    "SummaryStats",
    "run_experiment",
    "convergence_sweep",
    "SweepRow",
    "CheckResult",
    "VerifyReport",
    "verify_suite",
]

TRAJECTORY_RECORD_MAX_N = 2 ** 16
CSV_COLUMNS = ("trial_id", "algorithm", "N", "p", "seed", "stream_id",
               "n_active", "phase1_end", "t_eps", "t_one_minus_eps",
               "T_n", "cap_hit")

# frozen parameters of the acceptance ensemble
ACCEPTANCE_SEED = 1729
_ACCEPT_N = 2 ** 20
_ACCEPT_P = 0.5
_ACCEPT_TRIALS = 336  # 3 protocols x 336 = 1008 pooled trials
_ACCEPT_HEAD = 100
_COUPLED_PROTOCOLS = (Algorithm.NAIVE, Algorithm.CYCLIC,
                      Algorithm.IMPROVED_CYCLIC)
_BAND_CEILING = {Algorithm.NAIVE: 1.2, Algorithm.CYCLIC: 1.2,
                 Algorithm.IMPROVED_CYCLIC: 1.25}
_LADDER = (2 ** 14, 2 ** 17, 2 ** 20)
_LADDER_TRIALS = 100
_DOMINATION_P = (0.3, 0.5, 0.8)
# law checks at p = 0.5: algorithm -> (exact law, ((N, ensemble seed), ...))
_LAW_CASES = {
    Algorithm.ORACLE: (theory.exact_oracle_law, ((8, ACCEPTANCE_SEED),
                                                 (64, ACCEPTANCE_SEED + 64))),
    Algorithm.NAIVE: (theory.exact_naive_law, ((2, ACCEPTANCE_SEED + 2),
                                               (8, ACCEPTANCE_SEED + 8),
                                               (64, ACCEPTANCE_SEED + 65))),
}
# |z| bound of each row's sample-mean test: the two-sided normal critical
# value at a false-alarm rate of 1e-6, split over the 5 rows above
_LAW_Z = 5.1993


@dataclass(frozen=True)
class GridCell:
    algorithm: Algorithm
    N: int
    p: float

    def config(self, epsilon: float, record_trajectory: bool) -> ProtocolConfig:
        record = record_trajectory and self.N <= TRAJECTORY_RECORD_MAX_N
        return ProtocolConfig(algorithm=self.algorithm, N=self.N, p=self.p,
                              epsilon=epsilon, record_trajectory=record)


# the type of each spec key besides the grid, and of each grid cell key, in
# the order from_dict reads them: every cell first, then the spec's keys
_SPEC_TYPES = {"trials_per_cell": int, "base_seed": int,
               "record_trajectory": bool, "epsilon": float,
               "output_path": str, "format": str}
_CELL_TYPES = {"algorithm": str, "N": int, "p": float}
# strings read further as soon as they are checked, so a cell's unknown
# algorithm is reported before a bad N or p
_SPEC_PARSERS = {"algorithm": Algorithm.parse, "format": str.lower}


def _spec_value(data: dict, key: str, kind: type):
    """data[key] converted by kind, or parsed by its _SPEC_PARSERS entry;
    ConfigError unless it has kind's JSON type: a bool or a string as it
    is, a float any number but a bool, an int an integral number but a
    bool."""
    value = data[key]
    if kind in (bool, str):
        valid = isinstance(value, kind)
    else:
        valid = (isinstance(value, (int, float)) and not isinstance(value, bool)
                 and (kind is float or isinstance(value, int)
                      or value.is_integer()))
    if valid:
        try:
            return _SPEC_PARSERS.get(key, kind)(value)
        except OverflowError:  # an int too large for a float
            pass
    raise ConfigError(f"spec value {key}={value!r} is not a valid "
                      f"{kind.__name__}")


@dataclass(frozen=True)
class ExperimentSpec:
    """Declarative description of a raw-trial ensemble."""

    grid: Tuple[GridCell, ...]
    trials_per_cell: int
    base_seed: int
    record_trajectory: bool
    epsilon: float
    output_path: str
    format: str

    def __post_init__(self) -> None:
        if not self.grid:
            raise ConfigError("grid must be nonempty")
        # numbers are kept as the plain ints and floats the checks return, so
        # a numpy-built spec renders as JSON and writes the p its trials use
        object.__setattr__(self, "trials_per_cell", _positive_int(
            self.trials_per_cell, "trials_per_cell"))
        object.__setattr__(self, "base_seed", _uint64(self.base_seed,
                                                      "base_seed"))
        if self.format not in ("csv", "json"):
            raise ConfigError(f"format must be 'csv' or 'json', got {self.format!r}")
        for cell in self.grid:
            cell.config(self.epsilon, False)  # validates each cell
        object.__setattr__(self, "grid", tuple(
            GridCell(c.algorithm, int(c.N), float(c.p)) for c in self.grid))

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentSpec":
        if not isinstance(data, dict):
            raise ConfigError("experiment spec must be a JSON object")
        keys, expected = set(data), {"grid", *_SPEC_TYPES}
        if keys != expected:
            missing, extra = expected - keys, keys - expected
            raise ConfigError(f"spec keys mismatch: missing={sorted(missing)} "
                              f"unknown={sorted(extra)}")
        raw_grid = data["grid"]
        if not isinstance(raw_grid, list) or not raw_grid:
            raise ConfigError("grid must be a nonempty list")
        cells = []
        for entry in raw_grid:
            if not isinstance(entry, dict) or set(entry) != set(_CELL_TYPES):
                raise ConfigError(f"grid cell must have keys exactly "
                                  f"{sorted(_CELL_TYPES)}, got {entry!r}")
            cells.append(GridCell(**{key: _spec_value(entry, key, kind)
                                     for key, kind in _CELL_TYPES.items()}))
        return cls(grid=tuple(cells), **{key: _spec_value(data, key, kind)
                                         for key, kind in _SPEC_TYPES.items()})

    @classmethod
    def from_json_file(cls, path: str) -> "ExperimentSpec":
        try:
            with open(path, "r", encoding="utf-8") as fh:
                data = json.load(fh)
        except OSError as exc:
            raise ConfigError(f"cannot read spec file {path}: {exc}") from exc
        except ValueError as exc:
            raise ConfigError(f"spec file {path} is not valid JSON: {exc}") from exc
        return cls.from_dict(data)


# the CSV_COLUMNS a trial's run sets; trial_id and stream_id follow from
# its cell and stream, and algorithm, N, p and seed from its cell
_TRIAL_FIELDS = CSV_COLUMNS[CSV_COLUMNS.index("stream_id") + 1:]
_POOL_CHUNK = 16  # trials per message in the --workers pool


def _trial(config: ProtocolConfig, seed: int, stream: int) -> tuple:
    """Run config on one stream under seed: the trial's _TRIAL_FIELDS
    values, then its trajectory. A trial leaves this tuple, not its
    TraceResult, so a cell holds few objects for the garbage collector to
    track."""
    r = run(config, RngStream(seed=seed, stream_id=stream))
    return (r.n_active, r.phase1_end, r.threshold_times["t_eps"],
            r.threshold_times["t_one_minus_eps"], r.completion_time,
            r.cap_hit, r.trajectory)


@dataclass(frozen=True)
class CellSummary:
    algorithm: str
    N: int
    p: float
    trials: int
    cap_hits: int
    mean: float
    stddev: float
    min: int
    max: int
    q5: float
    q50: float
    q95: float
    mean_normalized: float
    theory_constant: float
    ratio: float
    stage_means: Optional[Tuple[float, float, float]]

    def as_dict(self) -> dict:
        out = asdict(self)
        if self.stage_means is None:
            del out["stage_means"]
        return out


@dataclass(frozen=True)
class SummaryStats:
    cells: Tuple[CellSummary, ...]

    def as_dict(self) -> dict:
        return {"cells": [c.as_dict() for c in self.cells]}


def _summarize_cell(cell: GridCell, columns: Dict[str, tuple]) -> CellSummary:
    T = np.array(columns["T_n"], dtype=np.float64)
    caps = sum(columns["cap_hit"])
    ln_n = math.log(cell.N) if cell.N > 1 else 0.0
    mean = float(T.mean())
    normalized = mean / ln_n if ln_n > 0 else 0.0
    c_theory = constant(cell.algorithm, cell.p)
    staged = [stages for stages in zip(columns["t_eps"],
                                       columns["t_one_minus_eps"],
                                       columns["T_n"])
              if stages[0] is not None and stages[1] is not None]
    stage_means = None
    if staged:
        arr = np.array(staged, dtype=np.float64)
        stage_means = (
            float(arr[:, 0].mean()),
            float((arr[:, 1] - arr[:, 0]).mean()),
            float((arr[:, 2] - arr[:, 1]).mean()),
        )
    q5, q50, q95 = (float(q) for q in np.quantile(T, [0.05, 0.5, 0.95]))
    return CellSummary(
        algorithm=cell.algorithm.value, N=cell.N, p=cell.p,
        trials=len(T), cap_hits=caps,
        mean=mean,
        stddev=float(T.std(ddof=1)) if len(T) > 1 else 0.0,
        min=int(T.min()), max=int(T.max()),
        q5=q5, q50=q50, q95=q95,
        mean_normalized=normalized,
        theory_constant=c_theory,
        ratio=normalized / c_theory,
        stage_means=stage_means,
    )


def _csv_text(column: Sequence) -> List[str]:
    """The CSV text of each entry of a trial column: true or false for a
    bool, empty for None, str otherwise. A column holds bools, or ints and
    None, so its first entry's type decides."""
    if isinstance(column[0], bool):
        return ["true" if v else "false" for v in column]
    return ["" if v is None else str(v) for v in column]


def _cell_streams(cells: int, trials: int) -> List[range]:
    """Each cell's streams: trial ti of cell ci runs stream ci*trials + ti."""
    return [range(ci * trials, (ci + 1) * trials) for ci in range(cells)]


def _cell_constants(cell: GridCell, spec: ExperimentSpec) -> dict:
    """The CSV_COLUMNS fields shared by every row of the cell."""
    return {"algorithm": cell.algorithm.value, "N": cell.N, "p": cell.p,
            "seed": spec.base_seed}


def _render_csv(spec: ExperimentSpec, cells: Sequence[range],
                tables: Sequence[Dict[str, Sequence]]) -> bytes:
    """One line per trial, in cell and stream order. No value holds a comma,
    a quote or a line break (numbers, true/false, algorithm names), so the
    lines are joined as csv.writer would write them, without quotes."""
    lines = [",".join(CSV_COLUMNS)]
    for cell, streams, columns in zip(spec.grid, cells, tables):
        prefix = ",".join(map(str, _cell_constants(cell, spec).values()))
        fields = zip(*(_csv_text(columns[name]) for name in _TRIAL_FIELDS))
        lines.extend(f"{ti},{prefix},{stream},{','.join(values)}"
                     for ti, (stream, values)
                     in enumerate(zip(streams, fields)))
    lines.append("")
    return "\n".join(lines).encode("utf-8")


def _render_json(spec: ExperimentSpec, cells: Sequence[range],
                 tables: Sequence[Dict[str, Sequence]],
                 summary: SummaryStats) -> bytes:
    """The rows, as dicts built here from the columns, and the summary."""
    rows = []
    for cell, streams, columns in zip(spec.grid, cells, tables):
        shared = _cell_constants(cell, spec)
        names = tuple(columns)
        for ti, (stream, values) in enumerate(zip(
                streams, zip(*columns.values()))):
            rows.append({"trial_id": ti, **shared, "stream_id": stream,
                         **dict(zip(names, values))})
    payload = {"rows": rows, "summary": summary.as_dict()}
    return (json.dumps(payload, sort_keys=True, separators=(",", ":"))
            + "\n").encode("utf-8")


def _atomic_write(path: str, blob: bytes) -> None:
    directory = os.path.dirname(os.path.abspath(path)) or "."
    try:
        fd, tmp = tempfile.mkstemp(dir=directory, prefix=".gossipsim-")
        try:
            with os.fdopen(fd, "wb") as fh:
                fh.write(blob)
            os.replace(tmp, path)
        except BaseException:
            os.unlink(tmp)
            raise
    except OSError as exc:
        raise ConfigError(f"cannot write output to {path}: {exc}") from exc


def run_experiment(spec: ExperimentSpec,
                   workers: Optional[int] = None) -> SummaryStats:
    """Execute every cell of the spec and persist one raw row per trial.

    _trial runs each trial, in stream order: mapped serially, or with
    workers > 1 by a process pool that sends _POOL_CHUNK trials per
    message and returns them in order, so the persisted bytes do not
    depend on scheduling. Each cell's slice of the rows, transposed, is
    its columns, from which the summaries and the rows are built. Nothing
    is written if any trial fails.
    """
    configs = [cell.config(spec.epsilon, spec.record_trajectory)
               for cell in spec.grid]
    cells = _cell_streams(len(spec.grid), spec.trials_per_cell)
    tasks = (itertools.chain.from_iterable(map(itertools.repeat, configs,
                                               map(len, cells))),
             itertools.repeat(spec.base_seed), itertools.chain(*cells))
    if workers is not None and _positive_int(workers, "workers") > 1:
        # imported here, so a process that runs no pool never loads
        # multiprocessing and the modules it pulls in
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=workers) as pool:
            rows = list(pool.map(_trial, *tasks, chunksize=_POOL_CHUNK))
    else:
        rows = list(map(_trial, *tasks))
    # row i ran stream i; zip stops at the names, so an unrecorded
    # trajectory gets no column
    tables = []
    for config, streams in zip(configs, cells):
        names = _TRIAL_FIELDS + (("trajectory",) if config.record_trajectory
                                 else ())
        tables.append(dict(zip(names, zip(*rows[streams.start:streams.stop]))))
    summary = SummaryStats(cells=tuple(
        _summarize_cell(cell, columns)
        for cell, columns in zip(spec.grid, tables)))
    blob = (_render_csv(spec, cells, tables) if spec.format == "csv"
            else _render_json(spec, cells, tables, summary))
    _atomic_write(spec.output_path, blob)
    return summary


@dataclass(frozen=True)
class SweepRow:
    N: int
    mean_normalized: float
    ratio: float
    ratio_se: float


def convergence_sweep(algorithms: Tuple[Algorithm, ...], p: float,
                      N_list: Sequence[int], trials: int,
                      base_seed: int = ACCEPTANCE_SEED,
                      ) -> Dict[Algorithm, List[SweepRow]]:
    """Normalized completion means over an increasing N ladder.

    Used to check that mean(T_n)/ln N approaches the theory constant as N
    grows. Each rung is a cell of _cell_streams, whose trials run every
    algorithm coupled. Returns per algorithm one row per N with the ratio
    to C(p) and its standard error.
    """
    if not algorithms:
        raise ConfigError("no algorithms to sweep")
    if len(N_list) < 2:
        raise ConfigError("N ladder needs at least 2 entries")
    if any(b <= a for a, b in zip(N_list, N_list[1:])):
        raise ConfigError("N ladder must be strictly increasing")
    _positive_int(trials, "trials")
    stores = [_store(ProtocolConfig(algorithms[0], N, p), tuple(algorithms),
                     base_seed) for N in N_list]  # every config checked first
    c_theory = [constant(alg, p) for alg in algorithms]
    out: Dict[Algorithm, List[SweepRow]] = {alg: [] for alg in algorithms}
    for N, store, streams in zip(N_list, stores,
                                 _cell_streams(len(N_list), trials)):
        T = store.times(streams)
        ln_n = math.log(N) if N > 1 else 1.0
        for alg, c in zip(algorithms, c_theory):
            ratios = T[alg] / ln_n / c
            se = (float(ratios.std(ddof=1) / math.sqrt(trials)) if trials > 1
                  else 0.0)
            out[alg].append(SweepRow(
                N=int(N), mean_normalized=float(T[alg].mean() / ln_n),
                ratio=float(ratios.mean()), ratio_se=se))
    return out


class _Store:
    """Coupled trials of one (config, algorithms, seed), by stream id; with
    one algorithm a trial draws exactly like run(). Row i of T and capped
    holds algorithms[i]'s completion time (-1 until built) and cap flag;
    seconds is the time spent building."""

    def __init__(self, config: ProtocolConfig,
                 algorithms: Tuple[Algorithm, ...], seed: int) -> None:
        self.config, self.algorithms, self.seed = config, algorithms, seed
        self.T = np.full((len(algorithms), 0), -1, dtype=np.int64)
        self.capped = np.zeros((len(algorithms), 0), dtype=bool)
        self.seconds = 0.0

    def times(self, streams: range) -> Dict[Algorithm, np.ndarray]:
        """Each algorithm's completion times on the streams, in order; a
        stream not yet built first gets one run_coupled call."""
        t0 = time.perf_counter()
        if streams.stop > self.T.shape[1]:
            grow = ((0, 0), (0, streams.stop - self.T.shape[1]))
            self.T = np.pad(self.T, grow, constant_values=-1)
            self.capped = np.pad(self.capped, grow)
        for s in streams:
            if self.T[0, s] < 0:
                trial = run_coupled(self.config, self.algorithms,
                                    RngStream(seed=self.seed, stream_id=s))
                self.T[:, s] = [r.completion_time for r in trial.values()]
                self.capped[:, s] = [r.cap_hit for r in trial.values()]
        self.seconds += time.perf_counter() - t0
        return dict(zip(self.algorithms, self.T.take(streams, axis=1)))


# the one cached store per (config, algorithms, seed)
_store = functools.lru_cache(maxsize=32)(_Store)


# ---------------------------------------------------------------------------
# verification checks (shared by verify_suite and the acceptance test suite)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str
    elapsed: float


@dataclass(frozen=True)
class VerifyReport:
    checks: Tuple[CheckResult, ...]

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def render(self) -> str:
        lines = []
        for c in self.checks:
            status = "PASS" if c.passed else "FAIL"
            lines.append(f"[{status}] {c.name} ({c.elapsed:.1f}s): {c.detail}")
        verdict = "all checks passed" if self.all_passed else "FAILURES present"
        lines.append(f"=> {verdict}")
        return "\n".join(lines)


def _timed(name: str, passed: bool, detail: str, t0: float) -> CheckResult:
    return CheckResult(name=name, passed=passed, detail=detail,
                       elapsed=time.perf_counter() - t0)


def _acceptance_store(N: int = _ACCEPT_N) -> _Store:
    return _store(ProtocolConfig(_COUPLED_PROTOCOLS[0], N, _ACCEPT_P),
                  _COUPLED_PROTOCOLS, ACCEPTANCE_SEED)


def check_acceptance_build() -> CheckResult:
    """Build every coupled trial the full checks read; time each store.

    The constant, win-rate and envelope checks read the 2^20 store and the
    ladder checks one store per rung, the last being the 2^20 store, so each
    trial is built once, here. Passes when no stored trial hit the step cap
    and the 2^20 trials built within 300 s.
    """
    t0 = time.perf_counter()
    *rungs, accept = (_acceptance_store(N) for N in _LADDER)
    T = accept.times(range(_ACCEPT_TRIALS))
    build = accept.seconds
    convergence_sweep(_COUPLED_PROTOCOLS, _ACCEPT_P, _LADDER, _LADDER_TRIALS)
    capped = int(sum(store.capped.sum() for store in (*rungs, accept)))
    ladder = sum(store.seconds for store in rungs)
    return _timed("acceptance ensemble build", capped == 0 and build <= 300.0,
                  f"{_ACCEPT_TRIALS} coupled trials per protocol at "
                  f"N={_ACCEPT_N}, p={_ACCEPT_P}: "
                  f"{', '.join(alg.value for alg in T)} built jointly in "
                  f"{build:.1f}s (<=300s); ladder N={list(_LADDER)} x "
                  f"{_LADDER_TRIALS} trials in {ladder:.1f}s; capped={capped}",
                  t0)


def _label(algorithm: Algorithm) -> str:
    return algorithm.value.replace("_", "-")


def check_constant(algorithm: Algorithm) -> CheckResult:
    """Mean time at N=2^20, p=0.5 inside [0.8, ceiling] of C(p)."""
    t0 = time.perf_counter()
    T = _acceptance_store().times(range(_ACCEPT_HEAD))[algorithm]
    hi = _BAND_CEILING[algorithm]
    ratio = float(T.mean() / math.log(_ACCEPT_N) / constant(algorithm, _ACCEPT_P))
    return _timed(f"{_label(algorithm)} completion constant",
                  0.8 <= ratio <= hi,
                  f"mean T={T.mean():.2f}, ratio={ratio:.4f}, band=[0.8, {hi}]",
                  t0)


def check_beats(algorithm: Algorithm, baseline: Algorithm) -> CheckResult:
    """At least 95 of 100 coupled trials finish below the baseline's mean."""
    t0 = time.perf_counter()
    ens = _acceptance_store().times(range(_ACCEPT_HEAD))
    base_mean = ens[baseline].mean()
    wins = int((ens[algorithm] < base_mean).sum())
    return _timed(f"{_label(algorithm)} beats {_label(baseline)} mean on "
                  f"coupled trials", wins >= 95,
                  f"wins={wins}/{_ACCEPT_HEAD} against {baseline.value} mean "
                  f"{base_mean:.2f} (need >=95)", t0)


def check_lower_bound_envelope() -> CheckResult:
    """No protocol beats the branching lower bound K steps early."""
    t0 = time.perf_counter()
    pooled = np.concatenate(list(
        _acceptance_store().times(range(_ACCEPT_TRIALS)).values()))
    base = math.log(_ACCEPT_N) / math.log1p(_ACCEPT_P)
    parts = []
    ok = True
    for K in (2, 4, 6):
        early = int((pooled < base - K).sum())
        frac = early / len(pooled)
        bound = lower_bound_tail(_ACCEPT_P, K) * 1.5
        ok = ok and frac <= bound and (K < 6 or early == 0)
        parts.append(f"K={K}: {early} early (frac {frac:.4f} <= {bound:.4f})")
    return _timed("lower-bound envelope", ok,
                  f"{len(pooled)} pooled trials, base {base:.2f}; "
                  + "; ".join(parts), t0)


def check_convergence(algorithm: Algorithm) -> CheckResult:
    """The ratio to C(p) falls along the 2^14, 2^17, 2^20 ladder, and its
    last rung is near C(p) (for improved-cyclic: the excess rate holds)."""
    t0 = time.perf_counter()
    rows = convergence_sweep(_COUPLED_PROTOCOLS, _ACCEPT_P, _LADDER,
                             _LADDER_TRIALS)[algorithm]
    ratios = [r.ratio for r in rows]
    ses = [r.ratio_se for r in rows]
    monotone = all(
        ratios[i + 1] <= ratios[i] + math.hypot(ses[i], ses[i + 1])
        for i in range(len(rows) - 1))
    detail = ("ratios " + " -> ".join(f"{r:.4f}" for r in ratios)
              + f" (se {', '.join(f'{s:.4f}' for s in ses)}), "
              + f"monotone={monotone}, ")
    if algorithm is Algorithm.IMPROVED_CYCLIC:
        ends_ok, ends_detail = _excess_rate_clause(rows, _ACCEPT_P)
    else:
        ends_ok = ratios[-1] <= 1.25
        ends_detail = f"final<=1.25: {ends_ok}"
    return _timed(f"convergence trend: {algorithm.value}",
                  monotone and ends_ok, detail + ends_detail, t0)


def _excess_rate_clause(rows: Sequence[SweepRow], p: float
                        ) -> Tuple[bool, str]:
    """The improved-cyclic excess over ln N/ln(1+p) is O(sqrt(ln N) + ln ln N).

    Per rung E = (mean T - ln N/ln(1+p)) / (sqrt(ln N) + ln ln N), with
    standard error ratio_se * c * ln N / (sqrt(ln N) + ln ln N). The clause
    holds when E at the last rung is at most E at the first plus the two
    errors in quadrature: a warm-up that is a fixed multiple of
    ln N/ln(1+p) makes E grow without bound and fails it.
    """
    c = constant(Algorithm.IMPROVED_CYCLIC, p)
    excess, errors = [], []
    for row in rows:
        ln_n = math.log(row.N)
        scale = math.sqrt(ln_n) + math.log(ln_n)
        excess.append((row.mean_normalized - c) * ln_n / scale)
        errors.append(row.ratio_se * c * ln_n / scale)
    tolerance = math.hypot(errors[0], errors[-1])
    ok = excess[-1] <= excess[0] + tolerance
    detail = ("excess E " + " -> ".join(f"{e:.3f}" for e in excess)
              + f" (tolerance {tolerance:.3f}), E bounded: {ok}")
    return ok, detail


def check_law(algorithm: Algorithm, trials: int = 10 ** 5,
              tolerance: float = 0.02) -> CheckResult:
    """The simulated completion law at p = 0.5 is within `tolerance` total
    variation of the exact DP law, and its sample mean within _LAW_Z
    standard errors of the exact mean, at each N of _LAW_CASES."""
    t0 = time.perf_counter()
    exact_law, cases = _LAW_CASES[algorithm]
    tvs, zs = [], []
    for N, seed in cases:
        T = _store(ProtocolConfig(algorithm=algorithm, N=N, p=0.5),
                   (algorithm,), seed).times(range(trials))[algorithm]
        law = exact_law(N, 0.5)
        tvs.append(law.total_variation(ExactLaw.from_samples(T)))
        zs.append((T.mean() - law.mean()) / math.sqrt(law.variance() / trials))
    return _timed(f"{algorithm.value} empirical law vs exact DP",
                  max(tvs) <= tolerance and max(map(abs, zs)) <= _LAW_Z,
                  ", ".join(f"N={N}: TV={tv:.4f} z={z:+.2f}"
                            for (N, _), tv, z in zip(cases, tvs, zs))
                  + f" over {trials} trials (TV <= {tolerance}, "
                  f"|z| <= {_LAW_Z:.2f})", t0)


def check_active_concentration(samples: int = 10 ** 3) -> CheckResult:
    """Active count concentrates within N^(2/3) of pN."""
    t0 = time.perf_counter()
    N, p = 10 ** 6, 0.5
    spread = N ** (2.0 / 3.0)
    outliers = 0
    for i in range(samples):
        active = sample_active(N, p, RngStream(ACCEPTANCE_SEED, i))
        n = int(np.count_nonzero(active))
        if abs(n - p * N) > spread:
            outliers += 1
    frac = outliers / samples
    return _timed("active-count concentration", frac < 0.05,
                  f"{outliers}/{samples} samples beyond pN +/- N^(2/3) "
                  f"(fraction {frac:.4f} < 0.05)", t0)


def check_constants_ordering() -> CheckResult:
    """f(p) < 0 and the constants chain on the 99-point p grid."""
    t0 = time.perf_counter()
    bad = []
    for i in range(1, 100):
        p = i / 100.0
        f = cyclic_beats_naive(p)
        ci = constant(Algorithm.IMPROVED_CYCLIC, p)
        cc = constant(Algorithm.CYCLIC, p)
        cn = constant(Algorithm.NAIVE, p)
        if not (f < 0.0 and ci < cc < cn):
            bad.append(p)
    return _timed("analytic ordering on the p grid", not bad,
                  "no violations on p=0.01..0.99" if not bad
                  else f"violations at {bad}", t0)


def check_domination(trials: int = 500, N: int = 2 ** 16) -> CheckResult:
    """Count coupled trials on which the oracle finishes after a protocol.

    The coupling shares the active set and the warm-up draws, but the
    oracle draws its own hit counts, so it beats the protocols in law
    and not trial by trial: at N = 3, p = 0.5 on RngStream(7, 0) it takes
    2 steps where the others take 1. The count is pathwise, so its default
    N = 2^16 is one where the oracle leads by several steps, and a single
    trial on which it finishes later points at a fault.
    """
    t0 = time.perf_counter()
    algorithms = (Algorithm.ORACLE, Algorithm.NAIVE, Algorithm.CYCLIC,
                  Algorithm.IMPROVED_CYCLIC)
    violations = 0
    checked = 0
    for p in _DOMINATION_P:
        ens = _store(ProtocolConfig(algorithms[0], N, p), algorithms,
                     ACCEPTANCE_SEED).times(range(trials))
        oracle_T = ens[Algorithm.ORACLE]
        for alg in algorithms[1:]:
            diff = ens[alg] - oracle_T
            violations += int((diff < 0).sum())
            checked += trials
    return _timed("oracle not later than any protocol, trial by trial",
                  violations == 0,
                  f"oracle later in {violations} of {checked} coupled "
                  f"comparisons at N={N}, p={list(_DOMINATION_P)}", t0)


def check_determinism() -> CheckResult:
    """Identical specs give byte-identical files, serial or parallel: a CSV
    spec run twice serially and once in a pool, and a JSON spec with
    trajectories, whose cells span several pool chunks, run serially and in
    a pool."""
    t0 = time.perf_counter()
    base = tempfile.mkdtemp(prefix="gossipsim-verify-")
    # format -> (grid, trials per cell, the workers of each run)
    runs = {
        "csv": ((GridCell(Algorithm.NAIVE, 1024, 0.5),
                 GridCell(Algorithm.CYCLIC, 1024, 0.5)), 5, (None, None, 2)),
        "json": ((GridCell(Algorithm.IMPROVED_CYCLIC, 1024, 0.5),
                  GridCell(Algorithm.ORACLE, 1024, 0.5)),
                 _POOL_CHUNK + 3, (None, 2)),
    }
    try:
        mismatched = []
        for fmt, (grid, trials, workers_each) in runs.items():
            blobs = set()
            for i, workers in enumerate(workers_each):
                path = os.path.join(base, f"{i}.{fmt}")
                run_experiment(ExperimentSpec(
                    grid=grid, trials_per_cell=trials, base_seed=77,
                    record_trajectory=fmt == "json", epsilon=0.1,
                    output_path=path, format=fmt), workers=workers)
                with open(path, "rb") as fh:
                    blobs.add(fh.read())
            if len(blobs) > 1:
                mismatched.append(fmt.upper())
        ok = not mismatched
        return _timed("byte-identical reruns (serial and parallel)", ok,
                      "identical CSVs and JSONs" if ok else
                      f"byte mismatch between {' and '.join(mismatched)} runs",
                      t0)
    finally:
        shutil.rmtree(base, ignore_errors=True)


def verify_suite(level: str = "quick") -> VerifyReport:
    """Run the checks: `quick` (small N, fewer trials) within 60 s, or
    `full` (the acceptance gauntlet) within 30 min."""
    if level == "quick":
        checks = (
            check_constants_ordering(),
            check_law(Algorithm.ORACLE, trials=2 * 10 ** 4, tolerance=0.03),
            check_law(Algorithm.NAIVE, trials=2 * 10 ** 4, tolerance=0.03),
            check_active_concentration(samples=200),
            check_domination(trials=100, N=2 ** 12),
            check_determinism(),
        )
    elif level == "full":
        checks = (
            check_acceptance_build(),
            check_constant(Algorithm.NAIVE),
            check_constant(Algorithm.CYCLIC),
            check_beats(Algorithm.CYCLIC, Algorithm.NAIVE),
            check_constant(Algorithm.IMPROVED_CYCLIC),
            check_beats(Algorithm.IMPROVED_CYCLIC, Algorithm.CYCLIC),
            check_lower_bound_envelope(),
            check_convergence(Algorithm.NAIVE),
            check_convergence(Algorithm.CYCLIC),
            check_convergence(Algorithm.IMPROVED_CYCLIC),
            check_law(Algorithm.ORACLE),
            check_law(Algorithm.NAIVE),
            check_active_concentration(),
            check_constants_ordering(),
            check_domination(),
            check_determinism(),
        )
    else:
        raise ConfigError(f"verify level must be 'quick' or 'full', got {level!r}")
    return VerifyReport(checks=checks)
