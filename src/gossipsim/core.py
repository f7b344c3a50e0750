"""Active-set sampling, seeded randomness, and shared configuration.

The model: N nodes on a complete network, each node independently active
with probability p (node 0 is forced active and starts informed). Time is
synchronous rounds; informed active nodes push one message per round. A
protocol run ends when every active node is informed.

A trial's network is two boolean arrays of length N, the active mask and
the informed mask (a subset of it); its clock and informed count are the
length and last entry of its list of informed counts, one per round.
"""
from __future__ import annotations

import enum
import math
import numbers
from dataclasses import dataclass
from typing import Optional

import numpy as np

__all__ = [
    "Algorithm",
    "ConfigError",
    "RngStream",
    "ProtocolConfig",
    "sample_active",
    "phase1_steps",
    "default_phase1_slack",
    "default_segment_length",
    "default_max_steps",
]


class ConfigError(ValueError):
    """Raised for invalid protocol or experiment configuration."""


class Algorithm(enum.Enum):
    NAIVE = "naive"
    CYCLIC = "cyclic"
    IMPROVED_CYCLIC = "improved_cyclic"
    ORACLE = "oracle"

    @classmethod
    def parse(cls, name: str) -> "Algorithm":
        cleaned = name.strip().lower().replace("-", "_")
        if cleaned == "improved":
            cleaned = "improved_cyclic"
        try:
            return cls(cleaned)
        except ValueError:
            raise ConfigError(f"unknown algorithm {name!r}; expected one of "
                              f"{[a.value for a in cls]}") from None


# Substream domains carved out of each trial stream. Every algorithm draws
# the active set from domain 0 and its protocol randomness from domain 1,
# so runs sharing (seed, stream_id) see the same active set and the same
# phase-1 draws regardless of which algorithm is executed.
_DOMAIN_ACTIVE = 0
_DOMAIN_PROTOCOL = 1


@dataclass(frozen=True)
class RngStream:
    """Deterministic per-trial randomness, independent across stream_ids."""

    seed: int
    stream_id: int = 0

    def __post_init__(self) -> None:
        if not (0 <= int(self.seed) < 2 ** 64):
            raise ConfigError(f"seed must be a 64-bit unsigned integer, got {self.seed}")
        if not (0 <= int(self.stream_id) < 2 ** 64):
            raise ConfigError(f"stream_id must be a 64-bit unsigned integer, got {self.stream_id}")

    def _generator(self, domain: int) -> np.random.Generator:
        seq = np.random.SeedSequence(entropy=int(self.seed),
                                     spawn_key=(int(self.stream_id), domain))
        return np.random.Generator(np.random.PCG64(seq))

    def active_generator(self) -> np.random.Generator:
        """Generator used exclusively to sample the active set."""
        return self._generator(_DOMAIN_ACTIVE)

    def protocol_generator(self) -> np.random.Generator:
        """Generator used for all in-protocol random choices."""
        return self._generator(_DOMAIN_PROTOCOL)


def phase1_steps(N: int, p: float, slack: float) -> int:
    """Length of the randomized warm-up phase: ceil((1+slack) ln N / ln(1+p))."""
    if N <= 1:
        return 0
    return math.ceil((1.0 + slack) * math.log(N) / math.log(1.0 + p))


def default_phase1_slack(N: int) -> float:
    """Derived warm-up slack max(0, ln ln N) / ln N; 0 for N <= 2.

    With this slack phase 1 lasts ceil((ln N + ln ln N) / ln(1+p)) steps:
    the excess over ln N / ln(1+p) is the ln ln N term, so the schedule
    keeps the (1+o(1)) ln N / ln(1+p) completion-time promise instead of
    fixing a constant multiple of it.
    """
    if N <= 2:
        return 0.0
    ln_n = math.log(N)
    return max(0.0, math.log(ln_n)) / ln_n


def default_segment_length(N: int) -> int:
    """Derived segment length round(sqrt(ln N)), at least 1."""
    if N <= 1:
        return 1
    return max(1, round(math.sqrt(math.log(N))))


def default_max_steps(N: int, p: float) -> int:
    """Termination cap, generous enough for any sane configuration."""
    if N <= 1:
        return 1
    return max(1, math.ceil(64.0 * math.log(N) / math.log(1.0 + p)))


@dataclass(frozen=True)
class ProtocolConfig:
    """Everything a single trial needs besides its RngStream."""

    algorithm: Algorithm
    N: int
    p: float
    epsilon: float = 0.1
    max_steps: Optional[int] = None
    record_trajectory: bool = False

    def __post_init__(self) -> None:
        if not isinstance(self.algorithm, Algorithm):
            raise ConfigError(f"algorithm must be an Algorithm, got {self.algorithm!r}")
        _positive_int(self.N, "N")
        if (isinstance(self.p, bool) or not isinstance(self.p, numbers.Real)
                or not 0.0 < self.p <= 1.0):
            raise ConfigError(f"p must lie in (0, 1], got {self.p}")
        if not (0.0 < float(self.epsilon) < 0.5):
            raise ConfigError(f"epsilon must lie in (0, 1/2), got {self.epsilon}")
        if self.max_steps is not None:
            _positive_int(self.max_steps, "max_steps")

    @property
    def segment_length(self) -> int:
        return default_segment_length(self.N)

    @property
    def step_cap(self) -> int:
        if self.max_steps is not None:
            return int(self.max_steps)
        return default_max_steps(self.N, self.p)


def _positive_int(value, name: str) -> int:
    """value as an int; ConfigError unless it is a positive integer (numpy
    integers are; a bool or a float is not, even when integral)."""
    if (isinstance(value, numbers.Integral) and not isinstance(value, bool)
            and value >= 1):
        return int(value)
    raise ConfigError(f"{name} must be a positive integer, got {value}")


def sample_active(N: int, p: float, rng: RngStream) -> np.ndarray:
    """The active mask: node 0 forced active, the others i.i.d. with
    probability p."""
    N = _positive_int(N, "N")
    if not (0.0 < float(p) <= 1.0):
        raise ConfigError(f"p must lie in (0, 1], got {p}")
    active = rng.active_generator().random(N) < float(p)
    active[0] = True
    return active
