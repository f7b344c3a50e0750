"""Step functions and the one run driver for the four broadcast algorithms.

All protocols push one message per informed active node per synchronous
round. Completion time is the first round at which every active node is
informed; a run that hits the configured step cap reports cap_hit instead.

Under equal (seed, stream_id) the three real protocols are pathwise
coupled: identical active sets and an identical randomized warm-up
(phase 1). run_coupled runs that warm-up once for all of them, and one
phase-2 engine for both phased ones: cyclic is its one-node-segment case,
as is improved-cyclic at N <= 9.
"""
from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence

import numpy as np

from .core import (Algorithm, ConfigError, ProtocolConfig, RngStream,
                   sample_active)

__all__ = ["TraceResult", "run_coupled", "run"]

_UNSET = np.iinfo(np.int64).max


@dataclass
class TraceResult:
    """Per-trial record of one protocol run."""

    config: ProtocolConfig
    n_active: int
    completion_time: int
    cap_hit: bool = False
    phase1_end: Optional[int] = None
    threshold_times: Dict[str, Optional[int]] = field(default_factory=dict)
    trajectory: Optional[List[int]] = None


_DRAW_BATCH = 256  # fewest push targets fetched from the generator at once
_SPARSE = 32  # gather, then scatter, under N/32 pending (measured crossover)
_NO_TARGETS = np.empty(0, dtype=np.int64)


class _Targets:
    """The push targets of one trial: the one stream gen.integers(0, N)
    gives, fetched at least _DRAW_BATCH values at a time (see _draw). The
    generator comes from the zero-argument factory make_gen at the first
    draw, so a trial that draws nothing builds none. Bounded-integer draws
    are chunk-invariant, so the chunks concatenate to exactly that stream.
    Between rounds only a batch remainder is kept; the values over-drawn at
    a trial's end are never read. last_count is the count step_naive last
    left pending."""

    __slots__ = ("_make_gen", "_N", "_gen", "_left", "last_count")

    def __init__(self, make_gen, N: int) -> None:
        self._make_gen = make_gen
        self._N = N
        self._gen = None
        self._left = _NO_TARGETS  # the rest of the current batch
        self.last_count = N

    def _draw(self, size: int) -> np.ndarray:
        """The next size or size + 1 values of the stream. At N = 2^b with
        0 < b <= 32 numpy's integers(0, N) (Lemire's method, which rejects
        nothing at a power of 2) is the top b bits of each 32-bit half of a
        raw word, low half first, so they are computed from raw words."""
        N = self._N
        if N & (N - 1) or not 1 < N <= 1 << 32:
            return self._gen.integers(0, N, size=size)
        halves = self._gen.bit_generator.random_raw((size + 1) // 2)
        halves = halves.view(np.uint32)
        halves >>= np.uint32(33 - N.bit_length())
        return halves.astype(np.intp)

    def take(self, k: int):
        """The next k >= 1 targets of the stream, as at most two non-empty
        arrays: the rest of the current batch, then a fresh draw of at
        least max(need, _DRAW_BATCH) values of which the first need are
        used."""
        left = self._left
        if k <= len(left):
            self._left = left[k:]
            return (left[:k],)
        need = k - len(left)
        if self._gen is None:
            self._gen = self._make_gen()
        fresh = self._draw(max(need, _DRAW_BATCH))
        # copied: a view of a round-sized draw would keep it alive into the
        # next round's draw, which would then land on fresh pages
        self._left = fresh[need:].copy()
        fresh = fresh[:need]
        return (left, fresh) if len(left) else (fresh,)


def step_naive(pending: np.ndarray, k: int, targets: _Targets) -> int:
    """One random-push round on the pending mask (active, not yet informed)
    of N nodes: each of the k informed nodes targets a uniform node, the
    next k values of the trial's one stream gen.integers(0, N), which
    targets fetches at least _DRAW_BATCH at a time (the over-draw is never
    read). Every target leaves pending in place, as an inactive or informed
    target is not pending anyway: one scatter per piece of the stream, or,
    once the last round left under 1/_SPARSE of the N nodes pending, a
    gather that keeps the targets still pending and a scatter of those.
    Returns the count still pending."""
    sparse = _SPARSE * targets.last_count < len(pending)
    for piece in targets.take(k):
        if sparse:
            piece = piece[np.take(pending, piece, mode="clip")]
        pending[piece] = False
    targets.last_count = int(np.count_nonzero(pending))
    return targets.last_count


def _push(pending: np.ndarray, targets: _Targets, n: int, limit: int,
          counts: List[int]) -> None:
    """Push rounds until all n are informed or the clock, len(counts) - 1,
    reaches limit, appending the informed count after each round to counts."""
    while counts[-1] < n and len(counts) <= limit:
        counts.append(n - step_naive(pending, counts[-1], targets))


def _segment_counts(mask: np.ndarray, ell: int) -> np.ndarray:
    """Nodes of mask in each segment of ell consecutive positions (the last
    may be shorter): the sum of ell strided views, in the smallest unsigned
    dtype that holds ell."""
    counts = mask[::ell].astype(np.min_scalar_type(ell))
    for j in range(1, ell):
        part = mask[j::ell]
        counts[:len(part)] += part
    return counts


def _segment_census(informed: np.ndarray, pending: np.ndarray, ell: int,
                    p: float):
    """Per-segment informed and active counts and goodness; a segment's
    active nodes are its informed plus its pending ones."""
    seeded = _segment_counts(informed, ell)
    act = seeded + _segment_counts(pending, ell)
    # after the intra-segment broadcast every active node in a seeded segment
    # is informed, so the census is (seeded) and (enough actives)
    good = (seeded > 0) & (act >= math.ceil(ell * (p / 2.0)))
    tail = len(informed) - (len(seeded) - 1) * ell  # the last segment's length
    good[-1] = seeded[-1] > 0 and act[-1] >= math.ceil(tail * (p / 2.0))
    return seeded, act, good


def _ring_keep(unsat: np.ndarray, late: np.ndarray,
               needy: np.ndarray) -> np.ndarray:
    """Which of a ring of L waves can still change a cover: the late ones,
    and for each needy one, the run of waves behind it up to and including
    the first saturated one. late and needy are positions on the ring;
    needy waves are unsaturated late ones that may lower a cover after
    step 1 too, so merges from behind may still speed them up in time."""
    L = len(unsat)
    keep = np.zeros(L, dtype=bool)
    keep[late] = True
    j = np.sort(needy)
    if len(j) == 0:
        return keep
    # each run starts at the nearest saturated wave before j, on the ring
    # unrolled one lap back (-L: none), or after the needy wave before j,
    # whose run covers the rest (a repeated j gets an empty run)
    sat = (~unsat).nonzero()[0]
    sat = np.concatenate(([-L], sat - L, sat))
    start = np.maximum(sat[sat.searchsorted(j) - 1],
                       np.concatenate((j[-1:] - L, j[:-1])) + 1)
    count = j + 1 - start
    keep[np.arange(count.sum()) + np.repeat(start - count.cumsum() + count,
                                            count)] = True
    return keep


def _phase2_offsets(informed: np.ndarray, pending: np.ndarray, ell: int,
                    p: float, budget: int):
    """Segment broadcast plus coalescing forward waves, on segments of ell
    nodes: improved-cyclic's phase 2, and cyclic's at ell = 1.

    Returns (au_positions, cover_offsets): the pending (active,
    uninformed) nodes and the phase-2 step that informs each. A node not
    reached within budget may hold any cover above budget, _UNSET or not.

    At ell = 1 each cover comes in closed form, before any census: pending
    node y is informed at step (y - pred(y)) mod N, pred(y) being its
    nearest informed predecessor on the ring.

    Mechanics, in phase-2 steps:
      2a. Within each segment holding g0 >= 1 informed nodes, the informed
          round-robin the segment's non-informed positions; the position of
          rank r is covered at step r // g0 + 1, so the segment finishes at
          ceil((L - g0) / g0). The schedule is fixed at the census; a node
          reached by a wave before its slot is informed at the wave's step.
      2b. Every good segment launches one wave of size = its active count.
          A wave starts covering the next segment the step after its own
          broadcast finishes, covering min(size, remaining) consecutive
          positions per step; completing a segment recruits that segment's
          active nodes. A wave that completes a segment already claimed by
          another wave merges into the claimant's live root. Bad segments
          never transmit on their own.

    The sweep steps only the waves that can still lower a cover, relying
    on four invariants:
      - Live waves have distinct fronts: a wave that finishes a segment
        another wave took dies into that wave's tree, so no wave enters a
        claimed segment. The segments after a good segment, up to the next
        good one, are swept by its wave alone, which on finishing that good
        segment dies into the first live wave ahead.
      - Sizes matter only through min(size, ell): a wave covers at most one
        segment, of at most ell positions, per step.
      - A wave saturated at launch (size >= ell) moves exactly one segment
        per step whatever merges into it, so each node it enters gets its
        cover at the census: min(local slot, the wave's arrival).
      - Only segments that hold waiting nodes are swept: a node behind an
        unsaturated wave waits while that wave can still reach it before
        its cover, moving one segment per step once its broadcast is done.
    The census keeps the waves of waiting nodes (late) and the runs behind
    them that _ring_keep adds. The other waves are never stepped: their
    merges reach only saturated or unstepped waves, which changes no
    cover. Merges can cycle only once every node is covered.
    """
    N = len(informed)
    au = pending.nonzero()[0]
    if ell == 1:
        # every informed node is a good one-node segment whose wave is
        # saturated at launch: it moves one node per step, as the node's
        # cyclic sweep does. Index -1 of sources wraps around the ring
        sources = informed.nonzero()[0]
        return au, (au - sources[sources.searchsorted(au) - 1]) % N
    seeded, act, good = _segment_census(informed, pending, ell, p)
    S = len(seeded)
    # 2a schedule: a position's rank among its segment's non-informed slots
    seg = au // ell
    rank = np.zeros(len(au), dtype=np.int64)
    for j in range(ell - 1):
        before = seg * ell + j
        rank += (before < au) & ~informed[np.minimum(before, au)]
    g0 = seeded[seg]
    cover = np.where(g0 > 0, rank // np.maximum(g0, 1) + 1, _UNSET)
    del rank, g0
    origin = good.nonzero()[0]
    W = len(origin)
    if W == 0:
        return au, cover  # nothing can reach the rest

    def broadcast(o):
        """Length, below ell, of the own broadcasts of the waves from o."""
        return (np.minimum(ell, N - o * ell) - 1) // seeded[o]

    size = act[origin].astype(np.int64)
    # the wave of the last good segment before seg is the first to reach
    # it, at arrival at the earliest, and exactly then if it is saturated
    ent = (origin.searchsorted(seg) - 1) % W
    o = origin[ent]
    arrival = broadcast(o) + 1 + (seg - o - 1) % S
    np.minimum(cover, arrival, out=cover, where=size[ent] >= ell)
    late = cover > arrival
    if not late.any():
        return au, cover
    live = _ring_keep(size < ell, ent[late], ent[late & (cover > 2)]
                      ).nonzero()[0]  # the kept waves, in ring order
    waits = np.zeros(S, dtype=bool)  # segments holding waiting nodes
    waits[seg[late]] = True
    del ent, o, arrival, late
    head = np.zeros(W, dtype=np.int64)  # next position each wave covers
    head[live] = (origin[live] + 1) % S * ell
    slots = len(au) + 1
    root_of = np.arange(W)  # dead waves point toward their live root

    t = 0
    # A step lowers only the offsets above it (waves may preempt scheduled
    # local deliveries), so the sweep runs while some offset lies ahead.
    while t < budget and cover.max(initial=0) > t:
        t += 1
        moving = live if t >= ell else live[broadcast(origin[live]) < t]
        lo = head[moving]
        f = lo // ell  # the segment each wave covers
        hi = lo + size[moving]
        end = np.minimum(f * ell + ell, N)
        # the blocks [lo, min(hi, end)) in segments holding waiting nodes,
        # as ranges of au indices merged by a difference array
        sweep = waits[f]
        swept = (np.bincount(au.searchsorted(lo[sweep]), minlength=slots)
                 - np.bincount(au.searchsorted(np.minimum(hi, end)[sweep]),
                               minlength=slots)).cumsum()[:-1] > 0
        cover[swept] = np.minimum(cover[swept], t)
        head[moving] = hi
        done = hi >= end
        fin = moving[done]
        if len(fin) == 0:
            continue
        fs = f[done]
        ends = good[fs]
        dying = fin[ends]
        if len(dying):
            # a finished good segment belongs to the tree of its own wave:
            # the wave dies into that tree's live root, or survives if the
            # root is itself; a chain of waves dying together ends at one
            # survivor, found by pointer doubling (older links add at most a
            # hop per past step, so only a cycle exhausts the bound)
            root_of[dying] = dest = root_of[origin.searchsorted(fs[ends])]
            for _ in range(len(dying) + t + 1):
                jump = root_of[dest]
                if (jump == dest).all():
                    break
                root_of[dying] = dest = jump
            else:
                raise RuntimeError("wave merge did not converge")
            live = live[root_of[live] == live]
            # every chain's end gains the step-start sizes of the waves
            # ending in it
            gain = size[dying]
            size[dying] = 0
            np.add.at(size, dest, gain)
        claims = ~ends
        size[fin[claims]] += act[fs[claims]]  # a claim recruits the actives
        # survivors go on to the next segment, wrapping at N; dead waves
        # never move again
        head[fin] = end[done] % N
    return au, cover


def _phase2(ell: int, p: float, informed: np.ndarray, pending: np.ndarray,
            n: int, counts: List[int], cap: int) -> List[int]:
    """Phase 2 on segments of ell nodes from the masks phase 1 left; counts
    is phase 1's informed count after each step, so its last entry is k and
    the clock len - 1.

    The engine gives each pending node the step that informs it;
    returns the informed count after each phase-2 step up to the last cover
    or the cap, whichever comes first.
    """
    k = counts[-1]
    budget = cap - (len(counts) - 1)
    if k >= n or budget <= 0:
        return []
    _, cover = _phase2_offsets(informed, pending, ell, p, budget)
    covered = cover <= budget
    last = int(cover.max(initial=0)) if covered.all() else budget
    return (k + np.bincount(cover[covered], minlength=last + 1).cumsum()
            )[1:].tolist()


# numpy's hypergeometric takes good and bad counts below this only
_HYPERGEOMETRIC_LIMIT = 10 ** 9


def _run_oracle(N: int, n: int, cap: int, make_gen) -> List[int]:
    """Coordinated ideal: informed nodes target distinct fresh nodes.

    Each round the k informed nodes take min(k, M) of the M labels never
    targeted, of which u = n - k are active and not yet informed. The
    labels are exchangeable, so the hits are hypergeometric, the same chain
    on (k, M) as consecutive batches of a shuffled order, and the law of
    any coordinated assignment. A round that takes every remaining label
    hits all u without a draw. The generator comes from the zero-argument
    factory make_gen at the first draw. Returns the informed count after
    each round.
    """
    gen = None
    counts = [1]
    fresh = N - 1  # M: the labels never targeted
    while counts[-1] < n and len(counts) <= cap:
        k = counts[-1]
        u = n - k
        if k >= fresh:
            hits, fresh = u, 0
        else:
            if gen is None:
                gen = make_gen()
            hits = int(gen.hypergeometric(u, fresh - u, k))
            fresh -= k
        counts.append(k + hits)
    return counts


_STAGES = ("t_eps", "t_one_minus_eps")  # the names of stage_levels' times


def _trace(config: ProtocolConfig, n: int, counts: List[int],
           phase1_end: Optional[int]) -> TraceResult:
    """The per-trial record of a run from its informed count after each
    step (counts[0] = 1, nondecreasing).

    The run ends at the last step, complete when the count reached n. A
    stage threshold, epsilon*p*N or (1-epsilon)*p*N (config.stage_levels),
    is passed at the first step whose count reaches it; a run may end
    before it does (the active count is random), and its time is then None.
    """
    thresholds = {}
    for name, level in zip(_STAGES, config.stage_levels):
        t = bisect_left(counts, level)
        thresholds[name] = t if t < len(counts) else None
    return TraceResult(config, n, len(counts) - 1, counts[-1] < n, phase1_end,
                       thresholds,
                       counts if config.record_trajectory else None)


def run_coupled(config: ProtocolConfig, algorithms: Sequence[Algorithm],
                rng: RngStream) -> Dict[Algorithm, TraceResult]:
    """Run several algorithms on one trial stream; one result per algorithm.

    Every config field but algorithm is shared, and each result equals
    run() of its algorithm alone. The oracle reads only the active count
    and draws its hypergeometric hit counts from a protocol generator of
    its own; the others share one phase 1 on another, push
    rounds on a pending mask run to the phased schedule (the cap for naive
    alone). Their targets come from one stream, fetched at least
    _DRAW_BATCH at a time; what is over-drawn is never read. The phase-2
    engine starts from the pending mask and the informed mask phase 1
    leaves, active ^ pending, built in the active mask's place, and naive
    then keeps stepping the pending mask. A protocol generator is built at
    a run's first draw, so a trial with only node 0 active builds none, and
    nor does an oracle that targets every label in its first round (N = 2).
    An algorithm asked for twice is a ConfigError, and so is the oracle at
    N - 1 >= 10^9, past numpy's hypergeometric counts, before any mask
    is built.
    """
    if len(set(algorithms)) != len(algorithms):
        raise ConfigError(f"repeated algorithm in {tuple(algorithms)!r}")
    if (Algorithm.ORACLE in algorithms
            and config.N - 1 >= _HYPERGEOMETRIC_LIMIT):
        raise ConfigError(f"the oracle needs N - 1 < {_HYPERGEOMETRIC_LIMIT}"
                          f" (numpy's hypergeometric limit), got N={config.N}")
    active = sample_active(config.N, config.p, rng)
    n = int(np.count_nonzero(active))
    cap = config.step_cap
    runs = {}  # algorithm -> (informed counts, phase1_end)
    if Algorithm.ORACLE in algorithms:
        runs[Algorithm.ORACLE] = (_run_oracle(config.N, n, cap,
                                              rng.protocol_generator), None)
    phased = [alg for alg in algorithms
              if alg in (Algorithm.CYCLIC, Algorithm.IMPROVED_CYCLIC)]
    naive = Algorithm.NAIVE in algorithms
    if phased or naive:
        pending = active.copy()
        pending[0] = False
        targets = _Targets(rng.protocol_generator, config.N)
        counts = [1]
        limit = min(config.phase1_steps, cap) if phased else cap
        _push(pending, targets, n, limit, counts)
        phase1_end = len(counts) - 1
        if phased:  # in place: the active mask is not read again
            informed = np.logical_xor(active, pending, out=active)
        for alg in phased:  # a new list each, so naive's appends stay its own
            ell = 1 if alg is Algorithm.CYCLIC else config.segment_length
            runs[alg] = (counts + _phase2(ell, config.p, informed, pending, n,
                                          counts, cap), phase1_end)
        if naive:
            _push(pending, targets, n, cap, counts)
            runs[Algorithm.NAIVE] = (counts, None)
    results = {}
    for alg in algorithms:  # in the order asked for
        cfg = config if alg is config.algorithm else replace(config, algorithm=alg)
        results[alg] = _trace(cfg, n, *runs[alg])
    return results


def run(config: ProtocolConfig, rng: RngStream) -> TraceResult:
    """One trial of the configured algorithm."""
    return run_coupled(config, (config.algorithm,), rng)[config.algorithm]
