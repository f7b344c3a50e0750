"""Correctness checks the benchmark applies to the program's outputs.

Every check compares an output against a value computed here, apart from
the simulator, or against a property the method must have; none compares
against saved output. Each returns a list of error strings, empty when the
output passes, so a caller can count failed trials and report why.
"""
from __future__ import annotations

import math
from collections import Counter
from typing import Dict, Iterable, List, Mapping, Optional, Sequence

# Probability that a correct program fails one sampling check. The law and
# dominance tolerances are set from it, so they hold for any sample size.
FALSE_ALARM = 1e-6


def fewest_steps(n_active: int) -> int:
    """ceil(log2 n): the informed set at most doubles per step."""
    return max(0, int(n_active) - 1).bit_length()


def check_trial(T: int, n_active: int, cap_hit: bool) -> List[str]:
    """No cap hit, and no completion faster than doubling allows."""
    errors = []
    if cap_hit:
        errors.append(f"cap hit at T={T}")
    if T < fewest_steps(n_active):
        errors.append(f"T={T} < ceil(log2 {n_active})")
    return errors


# -- small-N laws ----------------------------------------------------------

def naive_law_n2(p: float, cutoff: float = 1e-16) -> Dict[int, float]:
    """Exact naive law at N = 2: node 1 is inactive with probability 1-p;
    otherwise each push hits it with probability 1/2, so T is geometric."""
    law = {0: 1.0 - p}
    t = 1
    while True:
        mass = p * 0.5 ** t
        if mass < cutoff:
            break
        law[t] = mass
        t += 1
    return law


def oracle_law_n2(p: float) -> Dict[int, float]:
    """Exact oracle law at N = 2: the one push reaches node 1 at step 1."""
    return {0: 1.0 - p, 1: p}


def empirical(samples: Iterable[int]) -> Dict[int, float]:
    counts = Counter(int(t) for t in samples)
    n = sum(counts.values())
    return {t: c / n for t, c in counts.items()}


def total_variation(a: Mapping[int, float], b: Mapping[int, float]) -> float:
    keys = set(a) | set(b)
    return 0.5 * math.fsum(abs(a.get(t, 0.0) - b.get(t, 0.0)) for t in keys)


def tv_tolerance(law: Mapping[int, float], n: int) -> float:
    """Expected TV bound plus a McDiarmid deviation at FALSE_ALARM.

    E|q_hat - q| <= sqrt(q (1-q) / n) per atom; one sample moves the TV by
    at most 1/n, so TV exceeds its mean by t with probability at most
    exp(-2 n t^2).
    """
    mean_bound = 0.5 * math.fsum(math.sqrt(q * (1.0 - q) / n)
                                 for q in law.values())
    return mean_bound + math.sqrt(math.log(1.0 / FALSE_ALARM) / (2.0 * n))


def check_law(samples: Sequence[int], law: Mapping[int, float],
              label: str) -> List[str]:
    """The empirical law lies within tv_tolerance of the exact law."""
    if not samples:
        return [f"{label}: no samples"]
    tv = total_variation(empirical(samples), law)
    tol = tv_tolerance(law, len(samples))
    if tv > tol:
        return [f"{label}: TV {tv:.4f} > {tol:.4f} over {len(samples)} trials"]
    return []


def dkw_epsilon(n: int) -> float:
    """Dvoretzky-Kiefer-Wolfowitz: sup |F_hat - F| <= eps w.p. 1 - FALSE_ALARM."""
    return math.sqrt(math.log(2.0 / FALSE_ALARM) / (2.0 * n))


def cdf_excess(samples: Sequence[int], law: Mapping[int, float]) -> float:
    """max over t of F_hat(t) - F(t); positive when samples finish earlier."""
    counts = Counter(int(t) for t in samples)
    n = len(samples)
    worst, f_hat, f = 0.0, 0.0, 0.0
    for t in sorted(set(counts) | set(law)):
        f_hat += counts.get(t, 0) / n
        f += law.get(t, 0.0)
        worst = max(worst, f_hat - f)
    return worst


def check_dominated(samples: Sequence[int], law: Mapping[int, float],
                    label: str) -> List[str]:
    """Samples are stochastically no faster than `law`, up to DKW error."""
    if not samples:
        return [f"{label}: no samples"]
    excess = cdf_excess(samples, law)
    eps = dkw_epsilon(len(samples))
    if excess > eps:
        return [f"{label}: CDF exceeds the oracle law by {excess:.4f} "
                f"> {eps:.4f} over {len(samples)} trials"]
    return []


# -- trajectories and summaries ------------------------------------------------

def first_passage(trajectory: Sequence[int], level: float) -> Optional[int]:
    for t, k in enumerate(trajectory):
        if k >= level:
            return t
    return None


def check_trajectory(trajectory: Sequence[int], T: int, n_active: int,
                     N: int, p: float, epsilon: float,
                     t_eps: Optional[int],
                     t_one_minus_eps: Optional[int]) -> List[str]:
    """Shape of an informed-count trajectory and its threshold times."""
    errors = []
    if not trajectory or trajectory[0] != 1:
        errors.append("trajectory does not start at 1")
    if len(trajectory) != T + 1:
        errors.append(f"trajectory length {len(trajectory)} != T+1 = {T + 1}")
    if trajectory and trajectory[-1] != n_active:
        errors.append(f"trajectory ends at {trajectory[-1]} != n_active "
                      f"{n_active}")
    for t in range(1, len(trajectory)):
        prev, cur = trajectory[t - 1], trajectory[t]
        if cur < prev:
            errors.append(f"trajectory falls at step {t}")
            break
        if cur > 2 * prev:
            errors.append(f"trajectory more than doubles at step {t}")
            break
    expect_low = first_passage(trajectory, epsilon * p * N)
    expect_high = first_passage(trajectory, (1.0 - epsilon) * p * N)
    if t_eps != expect_low:
        errors.append(f"t_eps {t_eps} != first passage {expect_low}")
    if t_one_minus_eps != expect_high:
        errors.append(f"t_one_minus_eps {t_one_minus_eps} != first passage "
                      f"{expect_high}")
    return errors


def quantile(sorted_values: Sequence[float], q: float) -> float:
    """Linear interpolation between closest ranks (the default of most
    statistics packages): position q * (n - 1)."""
    pos = q * (len(sorted_values) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(sorted_values) - 1)
    frac = pos - lo
    return sorted_values[lo] + (sorted_values[hi] - sorted_values[lo]) * frac


def check_summary(cell: Mapping, T_values: Sequence[int],
                  caps: int) -> List[str]:
    """A summary cell matches statistics recomputed from its rows."""
    values = sorted(float(t) for t in T_values)
    n = len(values)
    expect = {"trials": n, "cap_hits": caps,
              "mean": math.fsum(values) / n,
              "min": values[0], "max": values[-1],
              "q5": quantile(values, 0.05), "q50": quantile(values, 0.5),
              "q95": quantile(values, 0.95)}
    errors = []
    for key, want in expect.items():
        got = cell.get(key)
        if got is None or not math.isclose(float(got), want, rel_tol=1e-9,
                                           abs_tol=1e-9):
            errors.append(f"summary {cell.get('algorithm')} {key}={got} "
                          f"!= recomputed {want}")
    return errors


# -- large N -------------------------------------------------------------------

def closed_form_constants(p: float) -> Dict[str, float]:
    """C(p) with mean T ~ C(p) ln N, for the protocols with a known form."""
    growth = 1.0 / math.log1p(p)
    return {"naive": growth + 1.0 / p,
            "cyclic": growth + 1.0 / (-math.log1p(-p)),
            "oracle": growth}


def check_coupled_round(results: Mapping[str, Mapping]) -> List[str]:
    """Protocols run on one stream share the active set and the warm-up."""
    errors = []
    actives = {alg: r["n_active"] for alg, r in results.items()}
    if len(set(actives.values())) != 1:
        errors.append(f"coupled n_active differ: {actives}")
    p1 = (results["cyclic"]["phase1_end"],
          results["improved_cyclic"]["phase1_end"])
    if p1[0] != p1[1]:
        errors.append(f"cyclic/improved phase1_end differ: {p1}")
    return errors


def check_large_n_means(T_by_alg: Mapping[str, Sequence[int]], N: int,
                        p: float, band=(0.8, 1.2)) -> List[str]:
    """Closed-form bands, and the improved mean between the growth term and
    the cyclic mean."""
    ln_n = math.log(N)
    means = {alg: math.fsum(T) / len(T) for alg, T in T_by_alg.items()}
    errors = []
    for alg, c in closed_form_constants(p).items():
        ratio = means[alg] / (c * ln_n)
        if not band[0] <= ratio <= band[1]:
            errors.append(f"{alg} mean {means[alg]:.2f} ratio {ratio:.3f} "
                          f"outside {list(band)}")
    floor = ln_n / math.log1p(p)
    if not floor <= means["improved_cyclic"] <= means["cyclic"]:
        errors.append(f"improved mean {means['improved_cyclic']:.2f} not in "
                      f"[{floor:.2f}, cyclic {means['cyclic']:.2f}]")
    return errors
