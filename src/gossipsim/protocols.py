"""Step functions and the one run driver for the four broadcast algorithms.

All protocols push one message per informed active node per synchronous
round. Completion time is the first round at which every active node is
informed; a run that hits the configured step cap reports cap_hit instead.

Under equal (seed, stream_id) the three real protocols are pathwise
coupled: identical active sets and an identical randomized warm-up
(phase 1). run_coupled runs that warm-up once for all of them.
"""
from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence

import numpy as np

from .core import (Algorithm, ProtocolConfig, RngStream,
                   default_phase1_slack, phase1_steps, sample_active)

__all__ = ["TraceResult", "step_naive", "run_coupled", "run"]

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


def step_naive(active: np.ndarray, informed: np.ndarray, k: int,
               gen: np.random.Generator) -> int:
    """One random-push round on boolean masks of length N: each of the k
    nodes of informed (a subset of active) targets a uniform node, drawn
    as one batch gen.integers(0, N, size=k); self-sends are wasted. Active,
    uninformed targets become informed in place. Returns the new count."""
    targets = gen.integers(0, len(active), size=k)
    hits = active[targets] & ~informed[targets]
    informed[targets[hits]] = True
    return int(np.count_nonzero(informed))


def _push(active: np.ndarray, informed: np.ndarray, gen: np.random.Generator,
          n: int, limit: int, counts: List[int]) -> None:
    """Push rounds until all n are informed or the clock, len(counts) - 1,
    reaches limit, appending the informed count after each round to counts."""
    while counts[-1] < n and len(counts) <= limit:
        counts.append(step_naive(active, informed, counts[-1], gen))


def _cyclic_phase2_offsets(active: np.ndarray, informed: np.ndarray):
    """Cyclic sweeps in closed form; returns (au_positions, cover_offsets).

    A node x informed when phase 2 starts targets x + s at phase-2 step s,
    and a relay informed at step s repeats its informer's targets from
    step s + 1 on, so relays add nothing: active uninformed node y is
    informed at step (y - pred(y)) mod N, pred(y) being its nearest
    informed predecessor on the ring. Index -1 of the informed positions
    wraps around the ring for nodes before the first informed one.
    """
    au = (active > informed).nonzero()[0]  # active and not informed
    sources = informed.nonzero()[0]
    return au, (au - sources[sources.searchsorted(au) - 1]) % len(active)


def _segment_census(active: np.ndarray, informed: np.ndarray, ell: int,
                    p: float):
    """Per-segment counts and goodness for the improved protocol."""
    N = len(active)
    seg_start = np.arange(0, N, ell)
    seg_len = np.minimum(ell, N - seg_start)
    seeded = np.add.reduceat(informed, seg_start, dtype=np.int64)
    act = np.add.reduceat(active, seg_start, dtype=np.int64)
    # after the intra-segment broadcast every active node in a seeded segment
    # is informed, so the census is (seeded) and (enough actives)
    good = (seeded >= 1) & (act >= np.ceil(seg_len * (p / 2.0)))
    return len(seg_start), seg_start, seg_len, seeded, act, good


def _improved_phase2_offsets(active: np.ndarray, informed: np.ndarray,
                             ell: int, p: float, budget: int):
    """Segment broadcast plus coalescing forward waves.

    Returns (au_positions, cover_offsets) where cover_offsets[i] is the
    phase-2 step at which active uninformed node au_positions[i] becomes
    informed, or _UNSET for nodes the waves never reached within budget.

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

    A step is a few array operations over all waves, not a loop over them:
    the moving waves' blocks are marked as one union of intervals, and the
    waves that finish a segment merge by pointer doubling.
    """
    S, seg_start, seg_len, seeded, act, good = _segment_census(
        active, informed, ell, p)
    au = (active > informed).nonzero()[0]  # active and not informed
    # 2a schedule: a position's rank among its segment's non-informed slots
    # is its rank among all non-informed positions minus the non-informed
    # positions before the segment
    seg = au // ell
    g0 = seeded[seg]
    rank = (au - informed.nonzero()[0].searchsorted(au)
            - (seg_start - np.cumsum(seeded) + seeded)[seg])
    cover = np.where(g0 > 0, rank // np.maximum(g0, 1) + 1, _UNSET)
    del seg, g0, rank
    origin = good.nonzero()[0]
    W = len(origin)
    if S == 1 or W == 0:
        return au, cover  # nothing can reach the rest

    seg_end = seg_start + seg_len
    next_seg = (np.arange(S) + 1) % S
    front = next_seg[origin]
    head = seg_start[front]  # next position each wave covers
    size = act[origin]
    cover_start = (seg_len[origin] - 1) // seeded[origin]  # broadcast length
    all_moving = int(cover_start.max())
    claimed_by = np.full(S, -1)  # a wave of the tree holding each segment
    claimed_by[origin] = np.arange(W)
    root_of = np.arange(W)  # live root of every wave, path-compressed
    live = np.arange(W)
    slots = len(au) + 1

    t = 0
    # A step lowers only the offsets above it (waves may preempt scheduled
    # local deliveries), so the sweep runs while some offset lies ahead.
    # Merges then never form a cycle: for two waves to finish segments held
    # by each other's trees, the trees' swept trails must span the ring, so
    # every node was covered before that step.
    while t < budget and cover.max(initial=0) > t:
        t += 1
        moving = live if t > all_moving else live[cover_start[live] < t]
        f = front[moving]
        lo = head[moving]
        hi = lo + size[moving]
        end = seg_end[f]
        # the blocks [lo, min(hi, end)) as ranges of au indices, merged by
        # a difference array
        swept = (np.bincount(au.searchsorted(lo), minlength=slots)
                 - np.bincount(au.searchsorted(np.minimum(hi, end)),
                               minlength=slots)).cumsum()[:-1] > 0
        cover[swept] = np.minimum(cover[swept], t)
        head[moving] = hi
        done = hi >= end
        fin = moving[done]
        if len(fin) == 0:
            continue
        # Live waves have distinct fronts: a wave that finishes a segment
        # after another took it dies into that wave's tree, never next to
        # it. So each segment is finished by one wave at a time, and a
        # finished wave claims a free segment, or points at the live root
        # of the segment's claimant; it survives if that root is itself,
        # else it dies into the end of the chain of roots.
        fs = f[done]
        owner = claimed_by[fs]
        free = owner < 0
        target = np.where(free, fin, root_of[owner])
        claimed_by[fs] = target
        root_of[fin] = dest = target
        for _ in range(len(fin).bit_length() + 1):  # pointer doubling
            jump = root_of[dest]
            if (jump == dest).all():
                break
            root_of[fin] = dest = jump
        else:
            raise RuntimeError("wave merge did not converge")
        root_of = root_of[root_of]
        live = live[root_of[live] == live]
        # every chain's end gains the step-start sizes of the waves ending in
        # it, and a claim recruits the claimed segment's active nodes
        gain = size[fin]
        size[fin] = 0
        np.add.at(size, dest, gain)
        size[fin[free]] += act[fs[free]]
        # survivors go on to the next segment; dead waves never move again
        front[fin] = next_seg[fs]
        head[fin] = seg_start[front[fin]]
    return au, cover


def _phase2(alg: Algorithm, config: ProtocolConfig, active: np.ndarray,
            informed: np.ndarray, n: int, counts: List[int],
            cap: int) -> List[int]:
    """Phase 2 from the masks phase 1 left; counts is phase 1's informed
    count after each step, so its last entry is k and the clock len - 1.

    The engine gives each active uninformed node the step that informs it;
    returns the informed count after each phase-2 step up to the last cover
    or the cap, whichever comes first.
    """
    k = counts[-1]
    budget = cap - (len(counts) - 1)
    if k >= n or budget <= 0:
        return []
    _, cover = (_cyclic_phase2_offsets(active, informed)
                if alg is Algorithm.CYCLIC else _improved_phase2_offsets(
                    active, informed, config.segment_length, config.p, budget))
    covered = cover <= budget
    last = int(cover.max(initial=0)) if covered.all() else budget
    return (k + np.bincount(cover[covered], minlength=last + 1).cumsum()
            )[1:].tolist()


def _run_oracle(active: np.ndarray, n: int, cap: int,
                gen: np.random.Generator) -> List[int]:
    """Coordinated ideal: informed nodes target distinct fresh nodes.

    Each round the k informed nodes take the next k never-targeted nodes
    of a pre-shuffled uniform order; active targets become informed. By
    exchangeability of the active labels this has the law of any other
    coordinated assignment. Returns the informed count after each round.
    """
    fresh = np.arange(1, len(active))
    gen.shuffle(fresh)  # in place: the draws of permutation, without a copy
    counts = [1]
    pos = 0
    while counts[-1] < n and len(counts) <= cap:
        k = counts[-1]
        batch = fresh[pos:pos + k]
        pos += k
        counts.append(k + int(np.count_nonzero(active[batch])))
    return counts


def _trace(config: ProtocolConfig, n: int, counts: List[int],
           phase1_end: Optional[int]) -> TraceResult:
    """The per-trial record of a run from its informed count after each
    step (counts[0] = 1, nondecreasing).

    The run ends at the last step, complete when the count reached n. A
    stage threshold, epsilon*p*N or (1-epsilon)*p*N, is passed at the
    first step whose count reaches it; a run may end before it does (the
    active count is random), and its time is then None.
    """
    levels = {"t_eps": config.epsilon * config.p * config.N,
              "t_one_minus_eps": (1.0 - config.epsilon) * config.p * config.N}
    thresholds = {}
    for name, level in levels.items():
        t = bisect_left(counts, level)
        thresholds[name] = t if t < len(counts) else None
    return TraceResult(config, n, len(counts) - 1, counts[-1] < n, phase1_end,
                       thresholds,
                       counts if config.record_trajectory else None)


def run_coupled(config: ProtocolConfig, algorithms: Sequence[Algorithm],
                rng: RngStream) -> Dict[Algorithm, TraceResult]:
    """Run several algorithms on one trial stream; one result per algorithm.

    Every config field but algorithm is shared, and each result equals
    run() of its algorithm alone. The oracle draws its targets from a fresh
    protocol generator; the others share one phase 1 on another, run to the
    phased schedule (the cap for naive alone). Each phase-2 engine starts
    from the network it leaves, and naive then keeps stepping.
    """
    active = sample_active(config.N, config.p, rng)
    n = int(np.count_nonzero(active))
    cap = config.step_cap
    runs = {}  # algorithm -> (informed counts, phase1_end)
    if Algorithm.ORACLE in algorithms:
        runs[Algorithm.ORACLE] = (_run_oracle(
            active, n, cap, rng.protocol_generator()), None)
    phased = [alg for alg in algorithms
              if alg in (Algorithm.CYCLIC, Algorithm.IMPROVED_CYCLIC)]
    naive = Algorithm.NAIVE in algorithms
    if phased or naive:
        informed = np.zeros(len(active), dtype=bool)
        informed[0] = True
        gen = rng.protocol_generator()
        counts = [1]
        limit = (min(phase1_steps(config.N, config.p,
                                  default_phase1_slack(config.N)), cap)
                 if phased else cap)
        _push(active, informed, gen, n, limit, counts)
        phase1_end = len(counts) - 1
        for alg in phased:  # a new list each, so naive's appends stay its own
            runs[alg] = (counts + _phase2(alg, config, active, informed, n,
                                          counts, cap), phase1_end)
        if naive:
            _push(active, informed, gen, n, cap, counts)
            runs[Algorithm.NAIVE] = (counts, None)
    results = {}
    for alg in algorithms:  # in the order asked for
        cfg = config if alg is config.algorithm else replace(config, algorithm=alg)
        results[alg] = _trace(cfg, n, *runs[alg])
    return results


def run(config: ProtocolConfig, rng: RngStream) -> TraceResult:
    """One trial of the configured algorithm."""
    return run_coupled(config, (config.algorithm,), rng)[config.algorithm]
