"""Closed-form constants and exact small-N completion-time laws.

The asymptotic completion time of each protocol is C(p) * ln N with a
protocol-specific constant C(p); these constants, an analytic comparison
certificate, and two exact dynamic-programming laws used to validate the
simulators live here. Everything is a pure function of its arguments.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Tuple

import numpy as np

from .core import Algorithm, ConfigError

__all__ = [
    "TheoryConstants",
    "constant",
    "cyclic_beats_naive",
    "ExactLaw",
    "naive_step_kernel",
    "exact_naive_law",
    "exact_oracle_law",
    "lower_bound_tail",
]

_NAIVE_LAW_MAX_N = 20
_NAIVE_LAW_RESIDUAL = 1e-13  # uncompleted mass at which the naive DP stops
_ORACLE_LAW_MAX_N = 64


def _check_p(p: float, allow_one: bool) -> float:
    p = float(p)
    if not (0.0 < p < 1.0) and not (allow_one and p == 1.0):
        raise ConfigError(f"p={p} outside the admissible range")
    return p


@dataclass(frozen=True)
class TheoryConstants:
    """All completion constants evaluated at one fault probability."""

    p: float
    c_naive: float
    c_cyclic: float
    c_improved: float
    lower_bound_c: float

    @classmethod
    def at(cls, p: float) -> "TheoryConstants":
        return cls(
            p=p,
            c_naive=constant(Algorithm.NAIVE, p),
            c_cyclic=constant(Algorithm.CYCLIC, p),
            c_improved=constant(Algorithm.IMPROVED_CYCLIC, p),
            lower_bound_c=constant(Algorithm.ORACLE, p),
        )


def constant(algorithm: Algorithm, p: float) -> float:
    """C(p) such that the completion time is (1+o(1)) * C(p) * ln N.

    Natural logarithms throughout. p=1 is admitted with the finite limit
    values (the cyclic sweep term vanishes as p -> 1).
    """
    p = _check_p(p, allow_one=True)
    growth = 1.0 / math.log1p(p)
    if algorithm is Algorithm.NAIVE:
        return growth + 1.0 / p
    if algorithm is Algorithm.CYCLIC:
        if p == 1.0:
            return growth
        return growth + 1.0 / (-math.log1p(-p))
    if algorithm in (Algorithm.IMPROVED_CYCLIC, Algorithm.ORACLE):
        return growth
    raise ConfigError(f"no completion constant for {algorithm!r}")


def cyclic_beats_naive(p: float) -> float:
    """f(p) = p + ln(1-p); strictly negative on (0,1).

    Negativity certifies that the cyclic sweep term 1/(-ln(1-p)) is smaller
    than the naive straggler term 1/p, i.e. c_cyclic(p) < c_naive(p).
    """
    p = _check_p(p, allow_one=False)
    return p + math.log1p(-p)


def lower_bound_tail(a: float, p: float, K: float) -> float:
    """Upper bound min(1, 1/(a*p*(1+p)^K)) on finishing K steps early.

    Bounds the probability that a*p*N nodes are informed within
    ln N/ln(1+p) - K steps, for any push protocol.
    """
    if not (0.0 < float(a) <= 1.0):
        raise ConfigError(f"a must lie in (0, 1], got {a}")
    if float(K) < 0.0:
        raise ConfigError(f"K must be >= 0, got {K}")
    p = _check_p(p, allow_one=True)
    return min(1.0, 1.0 / (float(a) * p * (1.0 + p) ** float(K)))


@dataclass(frozen=True)
class ExactLaw:
    """A finitely-supported distribution over completion times."""

    support: Tuple[int, ...]
    probabilities: Tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.support) != len(self.probabilities):
            raise ConfigError("support and probabilities length mismatch")
        if any(q < 0.0 for q in self.probabilities):
            raise ConfigError("negative probability in law")
        total = math.fsum(self.probabilities)
        if abs(total - 1.0) > 1e-12:
            raise ConfigError(f"law mass {total} not 1 within 1e-12")

    def as_dict(self) -> Dict[int, float]:
        return dict(zip(self.support, self.probabilities))

    def mean(self) -> float:
        return math.fsum(t * q for t, q in zip(self.support, self.probabilities))

    def cdf(self) -> Tuple[float, ...]:
        out, acc = [], 0.0
        for q in self.probabilities:
            acc += q
            out.append(acc)
        return tuple(out)

    @classmethod
    def from_samples(cls, values) -> "ExactLaw":
        values = np.asarray(values, dtype=np.int64)
        if values.size == 0:
            raise ConfigError("cannot build a law from an empty sample")
        support, counts = np.unique(values, return_counts=True)
        probs = counts / counts.sum()
        # renormalization guard for float division dust
        probs[-1] += 1.0 - probs.sum()
        return cls(tuple(int(t) for t in support), tuple(float(q) for q in probs))

    def total_variation(self, other: "ExactLaw") -> float:
        mine, theirs = self.as_dict(), other.as_dict()
        keys = set(mine) | set(theirs)
        return 0.5 * math.fsum(abs(mine.get(t, 0.0) - theirs.get(t, 0.0))
                               for t in keys)


def naive_step_kernel(N: int, k: int, u: int) -> np.ndarray:
    """One-round law of newly informed nodes under random push.

    k informed senders each target one of the N nodes uniformly and
    independently; u distinct targets are active-and-uninformed. Entry j is
    the probability that exactly j of those u receive at least one message,
    by inclusion-exclusion over missed subsets.
    """
    if not (0 <= u <= N) or not (0 <= k):
        raise ConfigError(f"invalid kernel arguments N={N}, k={k}, u={u}")
    probs = np.zeros(u + 1, dtype=np.float64)
    for j in range(u + 1):
        acc = 0.0
        for i in range(j + 1):
            term = math.comb(j, i) * ((N - u + j - i) / N) ** k
            acc += term if (i % 2 == 0) else -term
        probs[j] = math.comb(u, j) * acc
    probs = np.clip(probs, 0.0, None)
    total = probs.sum()
    if total > 0:
        probs /= total
    return probs


def _naive_law_fixed_active(N: int, a: int) -> Dict[int, float]:
    """Completion-time law for exactly a active nodes (node 0 informed)."""
    if a <= 1:
        return {0: 1.0}
    # kernel rows for every informed count k; uninformed actives u = a - k
    kernels = {k: naive_step_kernel(N, k, a - k) for k in range(1, a)}
    dist = np.zeros(a + 1, dtype=np.float64)
    dist[1] = 1.0
    law: Dict[int, float] = {}
    t = 0
    while dist[:a].sum() > _NAIVE_LAW_RESIDUAL:
        t += 1
        nxt = np.zeros(a + 1, dtype=np.float64)
        nxt[a] = dist[a]
        for k in range(1, a):
            mass = dist[k]
            if mass <= 0.0:
                continue
            kernel = kernels[k]
            for j, q in enumerate(kernel):
                if q > 0.0:
                    nxt[k + j] += mass * q
        arrived = nxt[a] - dist[a]
        if arrived > 0.0:
            law[t] = law.get(t, 0.0) + arrived
        dist = nxt
    leftover = dist[:a].sum()
    if leftover > 0.0 and law:
        law[max(law)] += leftover  # fold sub-residual tail into the top atom
    return law


def exact_naive_law(N: int, p: float) -> ExactLaw:
    """Exact completion-time law of the random-push protocol.

    Dynamic program over the informed count with the one-round kernel,
    mixed over the Binomial(N-1, p) law of the active count (node 0 is
    forced active). Mass below _NAIVE_LAW_RESIDUAL folds into the top atom.
    """
    if not (1 <= int(N) <= _NAIVE_LAW_MAX_N):
        raise ConfigError(f"exact_naive_law supports 1 <= N <= {_NAIVE_LAW_MAX_N}")
    p = _check_p(p, allow_one=True)
    N = int(N)
    mixed: Dict[int, float] = {}
    for extra in range(N):
        weight = math.comb(N - 1, extra) * p ** extra * (1.0 - p) ** (N - 1 - extra)
        if weight <= 0.0:
            continue
        for t, q in _naive_law_fixed_active(N, extra + 1).items():
            mixed[t] = mixed.get(t, 0.0) + weight * q
    support = sorted(mixed)
    probs = [mixed[t] for t in support]
    probs[-1] += 1.0 - math.fsum(probs)
    return ExactLaw(tuple(support), tuple(probs))


def exact_oracle_law(N: int, p: float) -> ExactLaw:
    """Exact completion-time law of the coordinated fresh-target ideal.

    State (informed k, untargeted u) advances by Binomial(min(k, u), p)
    hits per round; fresh labels are i.i.d. active with probability p, so
    completion by round t is the event that the u untargeted labels are all
    inactive, with probability (1-p)^u. The law is exact and finite: u
    strictly decreases every round.
    """
    if not (1 <= int(N) <= _ORACLE_LAW_MAX_N):
        raise ConfigError(f"exact_oracle_law supports 1 <= N <= {_ORACLE_LAW_MAX_N}")
    p = _check_p(p, allow_one=True)
    N = int(N)
    if N == 1:
        return ExactLaw((0,), (1.0,))
    q = 1.0 - p
    binom_cache: Dict[int, np.ndarray] = {}

    def binom_row(m: int) -> np.ndarray:
        row = binom_cache.get(m)
        if row is None:
            row = np.array([math.comb(m, h) * p ** h * q ** (m - h)
                            for h in range(m + 1)])
            binom_cache[m] = row
        return row

    states: Dict[Tuple[int, int], float] = {(1, N - 1): 1.0}
    law: List[float] = []
    done_mass = q ** (N - 1)
    law.append(done_mass)  # P(T <= 0): every other node inactive
    prev = done_mass
    while any(u > 0 for (_, u) in states):
        nxt: Dict[Tuple[int, int], float] = {}
        for (k, u), mass in states.items():
            if u == 0:
                nxt[(k, 0)] = nxt.get((k, 0), 0.0) + mass
                continue
            m = min(k, u)
            for h, ph in enumerate(binom_row(m)):
                if ph > 0.0:
                    key = (k + h, u - m)
                    nxt[key] = nxt.get(key, 0.0) + mass * ph
        states = nxt
        reached = math.fsum(mass * q ** u for (k, u), mass in states.items())
        law.append(reached - prev)
        prev = reached
    support = tuple(range(len(law)))
    probs = np.clip(np.array(law), 0.0, None)
    probs[-1] += 1.0 - probs.sum()
    keep = (probs > 0.0) | (np.arange(len(law)) == len(law) - 1)
    return ExactLaw(tuple(int(t) for t in np.flatnonzero(keep)),
                    tuple(float(x) for x in probs[keep]))
