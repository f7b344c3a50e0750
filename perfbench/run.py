"""Run one benchmark workload of gossipsim and print its metrics as JSON.

    python3 perfbench/run.py --workload large_n --seed 1 --seconds 20 --trace 0

Run from anywhere inside a source checkout: the program is imported from
the checkout's `src/` directory. With --trace 0 the run prints the
end-to-end metrics; with --trace 1 it runs a fixed number of rounds, each
once plain and once with spans around the program's layers, and prints the
per-layer metrics. The last line of standard output is one JSON object
with the keys `correct`, `attempted`, `failed` and `metrics`. See README.md.
"""
import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import tempfile
import time
import tracemalloc

from speed import SpeedGauge
from tracing import Tracer, patch_program
from workloads import ALGORITHMS, PHASED, WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
RESULTS = os.path.join(HERE, "results")

SETUP_REPEATS = 3  # set-up runs this often; setup_s takes the median


def import_program():
    """Import gossipsim from this checkout's src/, or exit non-zero."""
    package = os.path.join(SRC, "gossipsim")
    if not os.path.isfile(os.path.join(package, "__init__.py")):
        sys.exit(f"perfbench: no gossipsim source at {package}")
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    import gossipsim
    import gossipsim.cli  # noqa: F401  (the package does not import cli)
    if os.path.dirname(os.path.abspath(gossipsim.__file__)) != package:
        sys.exit(f"perfbench: imported gossipsim from {gossipsim.__file__}, "
                 f"not from {package}")
    return gossipsim


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not 0 <= args.seed < 2 ** 40:
        ap.error("--seed must lie in [0, 2^40)")
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    return args


def metric(value, unit):
    return {"value": value, "unit": unit}


def fresh_import(baseline):
    """Import gossipsim anew: drop every module loaded since `baseline`
    (the interpreter, numpy and the benchmark's own modules), so that
    each set-up pays for the program's imports and its dependencies.
    numpy submodules stay: some of numpy's extensions load once only."""
    for name in set(sys.modules) - baseline:
        if name.split(".")[0] != "numpy":
            del sys.modules[name]
    return import_program()


def run_untraced(make_workload, seconds, baseline):
    """End-to-end metrics: set up SETUP_REPEATS times, then whole rounds
    of the last set-up's workload for `seconds`.

    Every timed chunk is followed by a speed-gauge reading and scaled by
    the readings around it once the run is over (speed.py).
    """
    gauge = SpeedGauge()
    gauge.read()
    setups = []  # (seconds, chunk)
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        wl = make_workload(fresh_import(baseline))
        wl.prepare()
        spent = time.perf_counter() - start
        setups.append((spent, gauge.read()))

    calls = []  # (round, protocol, seconds, chunk)
    section_start = time.perf_counter()
    r = 0
    while r == 0 or time.perf_counter() - section_start < seconds:
        outputs = {}
        for alg, spent, outputs[alg] in wl.round(r):
            calls.append((r, alg, spent, gauge.read()))
        wl.absorb(r, outputs)
        r += 1

    rates = {alg: [] for alg in ALGORITHMS}
    walls = [0.0] * r
    for rnd, alg, spent, chunk in calls:
        scaled = spent * gauge.factor(chunk)
        rates[alg].append(wl.trials_per_call / scaled)
        walls[rnd] += scaled
    # median call rate, times the share of the protocol's trials completed
    metrics = {f"trials_per_s.{alg}": metric(
        statistics.median(rates[alg])
        * wl.completed[alg] / wl.attempted_by[alg], "1/s")
        for alg in ALGORITHMS}
    metrics["wall_s"] = metric(statistics.median(walls), "s")
    metrics["setup_s"] = metric(statistics.median(
        spent * gauge.factor(chunk) for spent, chunk in setups), "s")
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    metrics["peak_rss_mb"] = metric(peak_kb / 1024.0, "MB")
    return wl, metrics


def run_traced(gossipsim, wl, seed):
    """Per-layer metrics from trace_rounds rounds, each run plain and then
    traced; the two passes must give identical outputs."""
    wl.prepare()
    tracer = Tracer()
    plain_walls, traced_walls = [], []
    for r in range(wl.trace_rounds):
        plain = list(wl.round(r))
        tracer.round = r
        patch_program(tracer, gossipsim)
        try:
            traced = list(wl.round(r))
        finally:
            tracer.unpatch()
        plain_walls.append(sum(spent for _, spent, _ in plain))
        traced_walls.append(sum(spent for _, spent, _ in traced))
        outputs = {alg: out for alg, _, out in plain}
        traced_outputs = {alg: out for alg, _, out in traced}
        if traced_outputs != outputs:
            wl.errors.append(f"round {r}: traced outputs differ from plain")
        wl.absorb(r, outputs)

    peaks = {}
    for alg in ALGORITHMS:
        tracemalloc.start()
        try:
            wl.single_trial(alg)
            peaks[alg] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    tracer.write(os.path.join(RESULTS, f"spans-{wl.name}-seed{seed}.csv.gz"))

    calls, self_time = tracer.calls, tracer.self_time
    trials = sum(calls[f"protocols.run.{alg}"] for alg in ALGORITHMS)

    def per(name, count, scale):
        return self_time[name] / count * scale if count else 0.0

    m = {
        "core.rng_s": metric(per("core.rng", trials, 1e6), "us/trial"),
        "core.sample_active_s": metric(
            per("core.sample_active", trials, 1e6), "us/trial"),
        "protocols.step_naive_s": metric(
            per("protocols.step_naive", calls["protocols.step_naive"], 1e6),
            "us/call"),
        "protocols.step_naive.calls": metric(
            calls["protocols.step_naive"] / trials, "calls/trial"),
    }
    for alg in ALGORITHMS:
        name = f"protocols.run.{alg}"
        m[f"protocols.run_self_s.{alg}"] = metric(
            per(name, calls[name], 1e3), "ms/trial")
    for alg in ALGORITHMS:
        m[f"protocols.run_peak_mb.{alg}"] = metric(peaks[alg] / 2 ** 20, "MB")
    for alg in ALGORITHMS:
        m[f"protocols.steps.{alg}"] = metric(wl.steps[alg], "count")
    for alg in PHASED:
        m[f"protocols.phase2_steps.{alg}"] = metric(wl.phase2_steps[alg],
                                                    "count")
    m["harness.run_experiment_self_s"] = metric(
        per("harness.run_experiment", calls["harness.run_experiment"], 1e3),
        "ms/call")
    m["harness.output_bytes"] = metric(wl.output_bytes, "bytes")
    m["cli.main_self_s"] = metric(per("cli.main", calls["cli.main"], 1e3),
                                  "ms/call")
    # rounds are paired: the same work ran plain and then traced
    plain = statistics.median(plain_walls)
    extra = statistics.median(t - p for p, t in zip(plain_walls, traced_walls))
    m["trace.overhead_s"] = metric(extra, "s/round")
    m["trace.overhead_pct"] = metric(100.0 * extra / plain, "%")
    return m


def main(argv=None):
    args = parse_args(argv)
    baseline = set(sys.modules)
    gossipsim = import_program()
    os.makedirs(RESULTS, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="work-", dir=RESULTS)
    try:
        def make_workload(program):
            return WORKLOADS[args.workload](program, args.seed, workdir)

        if args.trace:
            wl = make_workload(gossipsim)
            metrics = run_traced(gossipsim, wl, args.seed)
        else:
            wl, metrics = run_untraced(make_workload, args.seconds, baseline)
        errors = wl.errors + wl.finish()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for line in (wl.trial_errors + errors)[:20]:
        print(f"perfbench: {line}", file=sys.stderr)
    # failed trials are counted, not fatal; correct speaks of the rest
    result = {"correct": not errors, "attempted": wl.attempted,
              "failed": wl.failed, "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
