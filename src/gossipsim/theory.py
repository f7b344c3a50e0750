"""Closed-form constants and exact small-N completion-time laws.

The asymptotic completion time of each protocol is C(p) * ln N with a
protocol-specific constant C(p); these constants, an analytic comparison
certificate, and the exact laws of the naive and oracle chains up to N = 64
live here. Each law is a transition table that one evaluator steps round by
round. Everything is a pure function of its arguments.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

import numpy as np

from .core import (Algorithm, ConfigError, _is_real, _positive_int,
                   _probability, _uint64)

__all__ = [
    "constant",
    "cyclic_beats_naive",
    "ExactLaw",
    "naive_step_kernel",
    "exact_naive_law",
    "exact_oracle_law",
    "lower_bound_tail",
]

_LAW_MAX_N = 64
_NAIVE_LAW_RESIDUAL = 1e-13  # uncompleted mass at which the naive DP stops


def constant(algorithm: Algorithm, p: float) -> float:
    """C(p) such that the completion time is (1+o(1)) * C(p) * ln N.

    Natural logarithms throughout. p=1 is admitted with the finite limit
    values (the cyclic sweep term vanishes as p -> 1).
    """
    p = _probability(p)
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
    p = _probability(p)
    if p == 1.0:
        raise ConfigError("cyclic_beats_naive needs p < 1, got 1")
    return p + math.log1p(-p)


def lower_bound_tail(p: float, K: float) -> float:
    """Upper bound min(1, 1/(p*(1+p)^K)) on finishing K steps early.

    Bounds the probability that p*N nodes are informed within
    ln N/ln(1+p) - K steps, for any push protocol.
    """
    if not (_is_real(K) and K >= 0.0):
        raise ConfigError(f"K must be a real number >= 0, got {K!r}")
    p = _probability(p)
    return min(1.0, 1.0 / (p * (1.0 + p) ** float(K)))


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

    def variance(self) -> float:
        mu = self.mean()
        return math.fsum((t - mu) ** 2 * q
                         for t, q in zip(self.support, self.probabilities))

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
    the probability that exactly j of those u receive at least one message.
    It is built sender by sender: with j targets hit so far, the next
    sender hits a new one with probability (u - j) / N. Every term is
    non-negative, so no cancellation can make an entry negative, as
    inclusion-exclusion over missed subsets does in floating point.
    """
    N, k, u = _positive_int(N, "N"), _uint64(k, "k"), _uint64(u, "u")
    if k > N or u > N:
        raise ConfigError(f"k and u must be at most N={N}, got {k} and {u}")
    j = np.arange(u + 1)
    hit, stay = (u - j) / N, (N - u + j) / N
    probs = np.zeros(u + 1, dtype=np.float64)
    probs[0] = 1.0
    for _ in range(k):
        moved = probs[:-1] * hit[:-1]
        probs *= stay
        probs[1:] += moved
    return probs


def _completion_cdf(mass: np.ndarray, moves: List[Tuple[int, int, float]],
                    done: np.ndarray, residual: float = 0.0) -> List[float]:
    """P(T <= t) for t = 0, 1, ... of a Markov chain on enumerated states.

    mass is the chain's law at t = 0, moves the rows (source, target,
    probability) of one round, in which a state that can no longer change
    moves to itself, and done[s] the probability that a run in state s has
    completed, 1 once s can no longer change. Rounds go on until the mass
    of states not done is at most residual.
    """
    source, target, prob = map(np.array, zip(*moves))
    short = done < 1.0
    cdf = []
    while True:
        cdf.append(math.fsum(mass * done))
        if math.fsum(mass[short]) <= residual:
            return cdf
        mass = np.bincount(target, mass[source] * prob, len(mass))


def _law_from_cdf(cdf: Sequence[float]) -> ExactLaw:
    """The law whose P(T <= t) is cdf[t], made nondecreasing, capped at 1
    and ended at exactly 1; zero atoms are dropped, except the last."""
    cdf = np.minimum(np.maximum.accumulate(np.asarray(cdf, dtype=np.float64)),
                     1.0)
    cdf[-1] = 1.0
    probs = np.diff(cdf, prepend=0.0)
    keep = probs > 0.0
    keep[-1] = True
    return ExactLaw(tuple(int(t) for t in np.flatnonzero(keep)),
                    tuple(float(q) for q in probs[keep]))


def exact_naive_law(N: int, p: float) -> ExactLaw:
    """Exact completion-time law of the random-push protocol.

    One chain on (active count a, informed count k) starts each a at k = 1
    with its weight (node 0 is forced active, the others are Binomial(N-1,
    p)), steps k by the one-round kernel and is done at k = a. It stops once
    at most _NAIVE_LAW_RESIDUAL of its mass is left short of its a.
    """
    N = _positive_int(N, "N")
    if N > _LAW_MAX_N:
        raise ConfigError(f"exact_naive_law supports 1 <= N <= {_LAW_MAX_N}")
    p = _probability(p)
    mass, done, moves = np.zeros((N + 1) ** 2), np.zeros((N + 1) ** 2), []
    for a in range(1, N + 1):
        s = a * (N + 1)  # state (a, k) sits at s + k
        mass[s + 1] = math.comb(N - 1, a - 1) * p ** (a - 1) * (1.0 - p) ** (N - a)
        done[s + a] = 1.0
        for k in range(1, a + 1):
            kernel = naive_step_kernel(N, k, a - k).tolist()
            moves += [(s + k, s + k + j, q) for j, q in enumerate(kernel) if q > 0.0]
    return _law_from_cdf(_completion_cdf(mass, moves, done, _NAIVE_LAW_RESIDUAL))


def exact_oracle_law(N: int, p: float) -> ExactLaw:
    """Exact completion-time law of the coordinated fresh-target ideal.

    State (informed k, untargeted u) advances by Binomial(min(k, u), p)
    hits per round; fresh labels are i.i.d. active with probability p, so
    completion by round t is the event that the u untargeted labels are all
    inactive, with probability (1-p)^u. The law is exact and finite: u
    strictly decreases every round until it is 0.
    """
    N = _positive_int(N, "N")
    if N > _LAW_MAX_N:
        raise ConfigError(f"exact_oracle_law supports 1 <= N <= {_LAW_MAX_N}")
    p = _probability(p)
    q = 1.0 - p
    rows = []  # m = min(k, u) -> [(h, P(h hits))], h of positive mass
    for m in range(N):
        probs = (math.comb(m, h) * p ** h * q ** (m - h) for h in range(m + 1))
        rows.append([(h, ph) for h, ph in enumerate(probs) if ph > 0.0])
    # state (k, u) sits at k * N + u and starts at (1, N - 1); (k, 0) stays
    moves = [(k * N + u, (k + h) * N + u - min(k, u), ph)
             for k in range(1, N + 1) for u in range(N - k + 1)
             for h, ph in rows[min(k, u)]]
    mass = np.zeros((N + 1) * N)
    mass[N + N - 1] = 1.0
    return _law_from_cdf(_completion_cdf(
        mass, moves, q ** (np.arange(mass.size) % N)))
