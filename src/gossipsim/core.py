"""Active-set sampling, seeded randomness, and shared configuration.

The model: N nodes on a complete network, each node independently active
with probability p (node 0 is forced active and starts informed). Time is
synchronous rounds; informed active nodes push one message per round. A
protocol run ends when every active node is informed.

A trial's network is two boolean arrays of length N, the active mask and
the pending mask (the active nodes not yet informed, a subset of it); its
clock and informed count are the length and last entry of its list of
informed counts, one per round. A trial builds its protocol generator at
its first protocol draw, so a trial that draws nothing builds none.

Each generator is a PCG64 seeded exactly as from numpy's
SeedSequence(entropy=seed, spawn_key=(stream_id, domain)), but without
building one: a plain-Python port of SeedSequence's mixing computes the
four state words, and the seed's share of the mixing is cached per seed,
the stream's per (seed, stream_id). So a generator's bit_generator.seed_seq
is a words object, not a SeedSequence, and Generator.spawn is unsupported.
"""
from __future__ import annotations

import enum
import math
import numbers
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional, Tuple

import numpy as np
from numpy.random.bit_generator import ISeedSequence

__all__ = [
    "Algorithm",
    "ConfigError",
    "RngStream",
    "ProtocolConfig",
    "sample_active",
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

# An exact port of numpy's SeedSequence with its default pool of four
# 32-bit words (itself a port of O'Neill's seed_seq). Its hash constants
# run through a fixed sequence whatever the data: the i-th hash of the
# mixing uses _HASH_A[i] and _HASH_A[i + 1], the i-th output word
# _HASH_B[i] and _HASH_B[i + 1]. An RngStream's assembled entropy is always
# [seed_lo, seed_hi, 0, 0], then stream_id as one word, or two from 2^32
# on, then the domain word; the first four fill the pool and are mixed
# with each other, and each later word is mixed into every pool word.
_MASK32 = 0xFFFFFFFF
_MIX_MULT_L = 0xCA01F9DD
_MIX_MULT_R = 0x4973F715


def _hash_constants(init: int, mult: int, n: int) -> Tuple[int, ...]:
    consts = [init]
    for _ in range(n - 1):
        consts.append(consts[-1] * mult & _MASK32)
    return tuple(consts)


_HASH_A = _hash_constants(0x43B0D7E5, 0x931E8875, 29)  # the mixing's 28
_HASH_B = _hash_constants(0x8B51F9DD, 0x58F38DED, 9)  # the output's 8


def _hashmix(value: int, i: int) -> int:
    """SeedSequence's hashmix of value as its i-th hash."""
    value = (value ^ _HASH_A[i]) * _HASH_A[i + 1] & _MASK32
    return value ^ value >> 16


def _mix(x: int, y: int) -> int:
    """SeedSequence's mix of pool word x with hashed word y."""
    result = (_MIX_MULT_L * x - _MIX_MULT_R * y) & _MASK32
    return result ^ result >> 16


def _absorb(pool: Tuple[int, ...], word: int, i: int) -> Tuple[int, ...]:
    """The pool after a word past the fourth is mixed into each pool word,
    as hashes i to i + 3."""
    return tuple(_mix(x, _hashmix(word, i + j)) for j, x in enumerate(pool))


@lru_cache(maxsize=256)
def _seed_pool(seed: int) -> Tuple[int, ...]:
    """The pool once the entropy [seed_lo, seed_hi, 0, 0] is hashed in and
    mixed, hashes 0 to 15."""
    pool = [_hashmix(w, i) for i, w in enumerate((seed & _MASK32, seed >> 32,
                                                  0, 0))]
    i = 4
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = _mix(pool[dst], _hashmix(pool[src], i))
                i += 1
    return tuple(pool)


@lru_cache(maxsize=64)
def _stream_pool(seed: int, stream_id: int):
    """The pool once seed and stream_id are absorbed, and the hashed domain
    words to absorb next, indexed by domain. Called with Python ints: the
    mixing overflows in a numpy integer's fixed width."""
    pool, i = _seed_pool(seed), 16
    for word in ((stream_id,) if stream_id <= _MASK32
                 else (stream_id & _MASK32, stream_id >> 32)):
        pool = _absorb(pool, word, i)
        i += 4
    return pool, _HASHED_DOMAINS[i]


# the domain words, 0 and 1, hashed as the last word after one or two
# stream_id words
_HASHED_DOMAINS = {i: tuple(tuple(_hashmix(domain, i + j) for j in range(4))
                            for domain in (_DOMAIN_ACTIVE, _DOMAIN_PROTOCOL))
                   for i in (20, 24)}

_B0, _B1, _B2, _B3, _B4, _B5, _B6, _B7, _B8 = _HASH_B


def _state_words(pool: Tuple[int, ...], hashed: Tuple[int, ...]):
    """SeedSequence's generate_state(4, np.uint64) of the pool once the
    hashed domain words are mixed in: eight 32-bit output words, pool
    words 0-3 twice, paired little-endian. Written out in full, as it runs
    once per generator."""
    x0, x1, x2, x3 = pool
    y0, y1, y2, y3 = hashed
    L, R, M = _MIX_MULT_L, _MIX_MULT_R, _MASK32
    r = (L * x0 - R * y0) & M
    r ^= r >> 16
    a, e = (r ^ _B0) * _B1 & M, (r ^ _B4) * _B5 & M
    r = (L * x1 - R * y1) & M
    r ^= r >> 16
    b, f = (r ^ _B1) * _B2 & M, (r ^ _B5) * _B6 & M
    r = (L * x2 - R * y2) & M
    r ^= r >> 16
    c, g = (r ^ _B2) * _B3 & M, (r ^ _B6) * _B7 & M
    r = (L * x3 - R * y3) & M
    r ^= r >> 16
    d, h = (r ^ _B3) * _B4 & M, (r ^ _B7) * _B8 & M
    return (a ^ a >> 16 | (b ^ b >> 16) << 32,
            c ^ c >> 16 | (d ^ d >> 16) << 32,
            e ^ e >> 16 | (f ^ f >> 16) << 32,
            g ^ g >> 16 | (h ^ h >> 16) << 32)


class _StateWords(ISeedSequence):
    """What PCG64 is seeded from in place of a SeedSequence: the four words
    that SeedSequence's generate_state(4, np.uint64) would return."""

    def __init__(self, words: Tuple[int, ...]) -> None:
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32) -> np.ndarray:
        if n_words != 4 or dtype is not np.uint64:
            raise ValueError("only the 4 uint64 words a PCG64 seed takes "
                             "are available")
        return np.array(self.words, dtype=np.uint64)


@dataclass(frozen=True)
class RngStream:
    """Deterministic per-trial randomness, independent across stream_ids."""

    seed: int
    stream_id: int = 0

    def __post_init__(self) -> None:
        _uint64(self.seed, "seed")
        _uint64(self.stream_id, "stream_id")

    def _generator(self, domain: int) -> np.random.Generator:
        """Generator(PCG64(SeedSequence(entropy=seed,
        spawn_key=(stream_id, domain)))), in the same state, built from the
        ported mixing."""
        pool, hashed = _stream_pool(int(self.seed), int(self.stream_id))
        return np.random.Generator(np.random.PCG64(
            _StateWords(_state_words(pool, hashed[domain]))))

    def active_generator(self) -> np.random.Generator:
        """Generator used exclusively to sample the active set."""
        return self._generator(_DOMAIN_ACTIVE)

    def protocol_generator(self) -> np.random.Generator:
        """Generator used for all in-protocol random choices, built anew
        on each call, so two calls give distinct generators in the same
        start state; a run calls it at its first draw. Its state is that of
        PCG64(SeedSequence(entropy=seed, spawn_key=(stream_id, 1))), but
        its bit_generator.seed_seq holds only those state words, so
        Generator.spawn is unsupported."""
        return self._generator(_DOMAIN_PROTOCOL)


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
        _probability(self.p)
        if not (_is_real(self.epsilon) and 0.0 < self.epsilon < 0.5):
            raise ConfigError(f"epsilon must lie in (0, 1/2), got {self.epsilon}")
        if self.max_steps is not None:
            _positive_int(self.max_steps, "max_steps")

    @property
    def phase1_steps(self) -> int:
        """Length of the randomized warm-up, ceil((ln N + ln ln N) / ln(1+p))
        steps; 0 for N = 1.

        It is written as ceil((1 + slack) ln N / ln(1+p)) with the derived
        slack max(0, ln ln N) / ln N. The excess over ln N / ln(1+p) is the
        ln ln N term, so the schedule keeps the (1+o(1)) ln N / ln(1+p)
        completion-time promise instead of fixing a constant multiple of it.
        """
        if self.N <= 1:
            return 0
        ln_n = math.log(self.N)
        slack = max(0.0, math.log(ln_n)) / ln_n
        return math.ceil((1.0 + slack) * ln_n / math.log(1.0 + self.p))

    @property
    def segment_length(self) -> int:
        """Derived segment length round(sqrt(ln N)), at least 1."""
        return max(1, round(math.sqrt(math.log(self.N))))

    @property
    def step_cap(self) -> int:
        """max_steps if set, else ceil(64 ln N / ln(1+p)), at least 1:
        generous enough for any sane configuration."""
        if self.max_steps is not None:
            return int(self.max_steps)
        return max(1, math.ceil(64.0 * math.log(self.N)
                                / math.log(1.0 + self.p)))


def _positive_int(value, name: str) -> int:
    """value as an int; ConfigError unless it is a positive integer (numpy
    integers are; a bool or a float is not, even when integral). int is
    tested first: it skips the slower abstract-class check on every trial."""
    if (isinstance(value, (int, numbers.Integral))
            and not isinstance(value, bool) and value >= 1):
        return int(value)
    raise ConfigError(f"{name} must be a positive integer, got {value}")


def _uint64(value, name: str) -> int:
    """value as an int; ConfigError unless it is an integer in [0, 2^64)
    (numpy integers are; a bool, a float or a string is not)."""
    if (isinstance(value, (int, numbers.Integral))
            and not isinstance(value, bool) and 0 <= value < 2 ** 64):
        return int(value)
    raise ConfigError(f"{name} must be a 64-bit unsigned integer, got "
                      f"{value!r}")


def _is_real(value) -> bool:
    """A real number: numpy floats and integers are; a bool or a string is
    not. float is tested first, as _positive_int tests int."""
    return (isinstance(value, (float, numbers.Real))
            and not isinstance(value, bool))


def _probability(p) -> float:
    """p as a float; ConfigError unless it is a real number in (0, 1]."""
    if _is_real(p) and 0.0 < p <= 1.0:
        return float(p)
    raise ConfigError(f"p must lie in (0, 1], got {p!r}")


# sample_active draws its uniforms this many at a time, so the float64
# temporary stays at 512 KiB whatever N is
_ACTIVE_CHUNK = 2 ** 16


def sample_active(N: int, p: float, rng: RngStream) -> np.ndarray:
    """The active mask: node 0 forced active, the others i.i.d. with
    probability p.

    Node i is active when the i-th uniform of the active generator is below
    p. The uniforms are drawn _ACTIVE_CHUNK at a time, which yields the
    same sequence as one draw.
    """
    N = _positive_int(N, "N")
    p = _probability(p)
    gen = rng.active_generator()
    active = np.empty(N, dtype=bool)
    for start in range(0, N, _ACTIVE_CHUNK):
        block = active[start:start + _ACTIVE_CHUNK]
        np.less(gen.random(len(block)), p, out=block)
    active[0] = True
    return active
