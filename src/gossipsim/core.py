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
building one: a numpy port of SeedSequence's mixing computes the four
state words of both domains for a block of 256 streams in one pass, and
caches them per (seed, block), block = stream_id // 256, on top of the
seed's share of the mixing, cached per seed. So a generator's
bit_generator.seed_seq is a words object, not a SeedSequence, and
Generator.spawn is unsupported.
"""
from __future__ import annotations

import enum
import math
import numbers
from dataclasses import dataclass
from functools import cached_property, lru_cache
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
# 32-bit words (itself a port of O'Neill's seed_seq), in uint64 arithmetic
# masked to 32 bits after every multiply; every constant is an np.uint64,
# so no operand is promoted to int64 or float. Its hash constants run
# through a fixed sequence whatever the data: the i-th hash of the mixing
# uses _HASH_A[i] and _HASH_A[i + 1], the i-th output word _HASH_B[i] and
# _HASH_B[i + 1]. An RngStream's assembled entropy is always
# [seed_lo, seed_hi, 0, 0], then stream_id as one word, or two from 2^32
# on, then the domain word; the first four fill the pool and are mixed
# with each other, and each later word is mixed into every pool word.
_MASK32 = np.uint64(0xFFFFFFFF)
_MIX_MULT_L = np.uint64(0xCA01F9DD)
_MIX_MULT_R = np.uint64(0x4973F715)
_SHIFT16, _SHIFT32 = np.uint64(16), np.uint64(32)


def _hash_constants(init: int, mult: int, n: int) -> np.ndarray:
    """The n hash constants as a column, one row per hash."""
    consts = [init]
    for _ in range(n - 1):
        consts.append(consts[-1] * mult & 0xFFFFFFFF)
    return np.array(consts, dtype=np.uint64)[:, None]


_HASH_A = _hash_constants(0x43B0D7E5, 0x931E8875, 29)  # the mixing's 28
_HASH_B = _hash_constants(0x8B51F9DD, 0x58F38DED, 9)  # the output's 8


def _hashmix(value: np.ndarray, consts: np.ndarray, i: int,
             n: int) -> np.ndarray:
    """SeedSequence's hashmix of value as hashes i to i + n - 1 of consts,
    one row per hash."""
    value = (value ^ consts[i:i + n]) * consts[i + 1:i + n + 1] & _MASK32
    return value ^ value >> _SHIFT16


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """SeedSequence's mix of pool words x with hashed words y."""
    result = (_MIX_MULT_L * x - _MIX_MULT_R * y) & _MASK32
    return result ^ result >> _SHIFT16


@lru_cache(maxsize=256)
def _seed_pool(seed: int) -> np.ndarray:
    """The pool, a column of four words, once the entropy
    [seed_lo, seed_hi, 0, 0] is hashed in and mixed, hashes 0 to 15."""
    pool = _hashmix(np.array([[seed & 0xFFFFFFFF], [seed >> 32], [0], [0]],
                             dtype=np.uint64), _HASH_A, 0, 4)
    # word src is hashed into each other word in turn, hashes i to i + 2;
    # those three mixes read only word src, so they run as one
    for i, src in zip(range(4, 16, 3), range(4)):
        dst = [w for w in range(4) if w != src]
        pool[dst] = _mix(pool[dst], _hashmix(pool[src], _HASH_A, i, 3))
    pool.flags.writeable = False
    return pool


# Streams are seeded a block at a time: block b holds stream_ids
# 256 b to 256 b + 255. 2^32 is a multiple of 256, so a block's ids all
# take one entropy word, or all take two.
_BLOCK = 256
_LANES = np.arange(_BLOCK, dtype=np.uint64)
_DOMAINS = np.array([_DOMAIN_ACTIVE, _DOMAIN_PROTOCOL],
                    dtype=np.uint64)[:, None, None]


@lru_cache(maxsize=8)
def _block_states(seed: int, block: int) -> np.ndarray:
    """SeedSequence(entropy=seed, spawn_key=(stream_id, domain))
    .generate_state(4, np.uint64) for each stream_id of the block and each
    domain, shape (256, 2, 4). Read-only: the cache hands it to every
    caller."""
    ids = np.uint64(block * _BLOCK) + _LANES
    words = ((ids,) if block < 2 ** 32 // _BLOCK
             else (ids & _MASK32, ids >> _SHIFT32))
    pool, i = _seed_pool(seed), 16
    for word in words:
        pool = _mix(pool, _hashmix(word, _HASH_A, i, 4))
        i += 4
    # the domain word mixed in per domain makes the pool (domain, pool
    # word, stream); the eight output words are pool words 0-3 twice,
    # paired little-endian into the four uint64 state words
    pool = _mix(pool, _hashmix(_DOMAINS, _HASH_A, i, 4))
    out = _hashmix(np.concatenate((pool, pool), axis=1), _HASH_B, 0, 8)
    states = np.ascontiguousarray(
        (out[:, 0::2] | out[:, 1::2] << _SHIFT32).transpose(2, 0, 1))
    states.flags.writeable = False
    return states


class _StateWords(ISeedSequence):
    """What PCG64 is seeded from in place of a SeedSequence: the four words
    that SeedSequence's generate_state(4, np.uint64) would return, as a
    contiguous uint64 array (PCG64 reads its buffer as it is)."""

    def __init__(self, words: np.ndarray) -> None:
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32) -> np.ndarray:
        if n_words != 4 or dtype is not np.uint64:
            raise ValueError("only the 4 uint64 words a PCG64 seed takes "
                             "are available")
        return self.words


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
        spawn_key=(stream_id, domain)))), in the same state, read from the
        states of the stream's block."""
        block, lane = divmod(int(self.stream_id), _BLOCK)
        return np.random.Generator(np.random.PCG64(_StateWords(
            _block_states(int(self.seed), block)[lane, domain])))

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
    """Everything a single trial needs besides its RngStream.

    The derived constants (phase1_steps, segment_length, step_cap,
    stage_levels) are computed at a config's first read of each and kept
    in its __dict__, outside the fields, so equality, hashing and
    dataclasses.replace see the fields alone."""

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
        # kept as Python floats: a float32 p would give float32 stage levels
        object.__setattr__(self, "p", _probability(self.p))
        if not (_is_real(self.epsilon) and 0.0 < self.epsilon < 0.5):
            raise ConfigError(f"epsilon must lie in (0, 1/2), got {self.epsilon}")
        object.__setattr__(self, "epsilon", float(self.epsilon))
        if self.max_steps is not None:
            _positive_int(self.max_steps, "max_steps")

    @cached_property
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

    @cached_property
    def segment_length(self) -> int:
        """Derived segment length round(sqrt(ln N)), at least 1."""
        return max(1, round(math.sqrt(math.log(self.N))))

    @cached_property
    def step_cap(self) -> int:
        """max_steps if set, else ceil(64 ln N / ln(1+p)), at least 1:
        generous enough for any sane configuration."""
        if self.max_steps is not None:
            return int(self.max_steps)
        return max(1, math.ceil(64.0 * math.log(self.N)
                                / math.log(1.0 + self.p)))

    @cached_property
    def stage_levels(self) -> Tuple[float, float]:
        """The informed counts epsilon*p*N and (1-epsilon)*p*N whose first
        crossings are a trial's stage times t_eps and t_one_minus_eps."""
        return (self.epsilon * self.p * self.N,
                (1.0 - self.epsilon) * self.p * self.N)


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
