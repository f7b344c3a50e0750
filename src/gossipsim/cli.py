"""Command-line front end: build_parser declares every subcommand, each
naming its _cmd_* handler; `gossipsim --help` lists them.
Exit codes: 0 success, 1 check failure, 2 invalid configuration.
"""
from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from dataclasses import asdict
from typing import List, Optional

from .core import Algorithm, ConfigError
from . import harness, theory


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The gossipsim parser, built at the first call and shared after it.
    Parsing leaves it as it was, so every main call can reuse it."""
    parser = argparse.ArgumentParser(
        prog="gossipsim",
        description="simulator and verification harness for randomized "
                    "broadcast on partially active networks")
    sub = parser.add_subparsers(dest="command", required=True)
    p = sub.add_parser("run", help="execute a JSON experiment spec file")
    p.add_argument("spec", help="path to the experiment spec (JSON)")
    p.add_argument("--workers", type=int, default=None,
                   help="process-pool size (default: serial)")
    p.set_defaults(handler=_cmd_run)
    p = sub.add_parser("sweep", help="normalized completion times over an N ladder")
    p.add_argument("--algorithm", required=True,
                   help="naive | cyclic | improved or improved_cyclic | oracle")
    p.add_argument("--p", type=float, required=True, help="activation probability")
    p.add_argument("--N", type=int, nargs="+", required=True,
                   help="strictly increasing ladder of network sizes")
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--seed", type=int, default=harness.ACCEPTANCE_SEED)
    p.add_argument("--json", action="store_true", help="emit JSON instead of a table")
    p.set_defaults(handler=_cmd_sweep)
    p = sub.add_parser("theory", help="print the constants table over a p grid")
    p.add_argument("--p", type=float, nargs="*", default=None,
                   help="explicit p values (default: 0.05..0.95 grid)")
    p.add_argument("--json", action="store_true")
    p.set_defaults(handler=_cmd_theory)
    p = sub.add_parser("verify", help="run the statistical verification suite")
    p.add_argument("--level", choices=("quick", "full"), default="quick")
    p.set_defaults(handler=_cmd_verify)
    p = sub.add_parser("oracle-law",
                       help="exact completion-time law of the coordinated oracle")
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--p", type=float, required=True)
    p.add_argument("--json", action="store_true")
    p.set_defaults(handler=_cmd_oracle_law)
    return parser


def _cmd_run(args: argparse.Namespace) -> int:
    spec = harness.ExperimentSpec.from_json_file(args.spec)
    summary = harness.run_experiment(spec, workers=args.workers)
    print(f"wrote {spec.output_path} ({spec.format}), "
          f"{len(spec.grid)} cells x {spec.trials_per_cell} trials")
    header = (f"{'algorithm':<17}{'N':>9}{'p':>6}{'mean':>10}{'std':>9}"
              f"{'ratio':>8}{'caps':>6}")
    print(header)
    for cell in summary.cells:
        print(f"{cell.algorithm:<17}{cell.N:>9}{cell.p:>6.2f}"
              f"{cell.mean:>10.3f}{cell.stddev:>9.3f}{cell.ratio:>8.4f}"
              f"{cell.cap_hits:>6}")
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    algorithm = Algorithm.parse(args.algorithm)
    rows = harness.convergence_sweep((algorithm,), args.p, args.N, args.trials,
                                     args.seed)[algorithm]
    if args.json:
        print(json.dumps([asdict(r) for r in rows], sort_keys=True))
        return 0
    c = theory.constant(algorithm, args.p)
    print(f"{algorithm.value}, p={args.p}, C(p)={c:.6f}, "
          f"{args.trials} trials per N")
    print(f"{'N':>10}{'mean/lnN':>12}{'ratio':>10}{'se':>10}")
    for r in rows:
        print(f"{r.N:>10}{r.mean_normalized:>12.4f}{r.ratio:>10.4f}"
              f"{r.ratio_se:>10.4f}")
    return 0


# theory table column -> the algorithm whose constant it holds
_THEORY_COLUMNS = (("naive", Algorithm.NAIVE), ("cyclic", Algorithm.CYCLIC),
                   ("improved", Algorithm.IMPROVED_CYCLIC),
                   ("lower_bound", Algorithm.ORACLE))


def _cmd_theory(args: argparse.Namespace) -> int:
    if args.p:
        grid = list(args.p)
    else:
        grid = [i / 100.0 for i in range(5, 100, 5)]
    rows = [{"p": p,
             **{key: theory.constant(alg, p) for key, alg in _THEORY_COLUMNS},
             # f(p) tends to -inf as p -> 1 and is undefined at 1
             "cyclic_minus_naive_gap": (theory.cyclic_beats_naive(p)
                                        if p < 1.0 else None)}
            for p in grid]
    if args.json:
        print(json.dumps(rows, sort_keys=True))
        return 0
    print(f"{'p':>6}{'naive':>12}{'cyclic':>12}{'improved':>12}"
          f"{'lower':>12}{'gap f(p)':>12}")
    for r in rows:
        gap = r["cyclic_minus_naive_gap"]
        print(f"{r['p']:>6.2f}{r['naive']:>12.6f}{r['cyclic']:>12.6f}"
              f"{r['improved']:>12.6f}{r['lower_bound']:>12.6f}"
              f"{-math.inf if gap is None else gap:>12.6f}")
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    report = harness.verify_suite(args.level)
    print(report.render())
    return 0 if report.all_passed else 1


def _cmd_oracle_law(args: argparse.Namespace) -> int:
    law = theory.exact_oracle_law(args.N, args.p)
    if args.json:
        print(json.dumps({"N": args.N, "p": args.p,
                          "law": {str(t): pr for t, pr in law.as_dict().items()},
                          "mean": law.mean()}, sort_keys=True))
        return 0
    print(f"exact oracle completion law, N={args.N}, p={args.p}")
    print(f"{'t':>6}{'P(T=t)':>16}{'P(T<=t)':>16}")
    for (t, pr), cum in zip(law.as_dict().items(), law.cdf()):
        print(f"{t:>6}{pr:>16.10f}{cum:>16.10f}")
    print(f"mean = {law.mean():.6f}")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
