"""Step functions and full-run drivers for the four broadcast algorithms.

All protocols push one message per informed active node per synchronous
round. Completion time is the first round at which every active node is
informed. Runs that hit the configured step cap report an explicit
cap_hit failure instead of a completion time.

The three real protocols share a common randomized warm-up (phase 1) so
that trials with equal (seed, stream_id) are pathwise coupled: identical
active sets and identical phase-1 trajectories.
"""
from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

import numpy as np

from .core import (
    Algorithm,
    ConfigError,
    NetworkState,
    ProtocolConfig,
    RngStream,
    informed_count,
    phase1_steps,
    sample_active,
)

__all__ = [
    "TraceResult",
    "SegmentStatus",
    "SegmentView",
    "step_naive",
    "run_naive",
    "run_cyclic",
    "run_improved_cyclic",
    "run_oracle",
    "run",
    "segment_view",
]

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

    @property
    def completed(self) -> bool:
        return not self.cap_hit


class _ThresholdTracker:
    """First-passage times of the informed count over the stage thresholds.

    Thresholds are epsilon*p*N and (1-epsilon)*p*N; either may be unreachable
    in a given trial (the active count is random), in which case the entry
    stays None.
    """

    def __init__(self, config: ProtocolConfig) -> None:
        self.low = config.epsilon * config.p * config.N
        self.high = (1.0 - config.epsilon) * config.p * config.N
        self.t_low: Optional[int] = None
        self.t_high: Optional[int] = None

    def observe(self, t: int, k: int) -> None:
        if self.t_low is None and k >= self.low:
            self.t_low = t
        if self.t_high is None and k >= self.high:
            self.t_high = t

    def as_dict(self) -> Dict[str, Optional[int]]:
        return {"t_eps": self.t_low, "t_one_minus_eps": self.t_high}


def step_naive(state: NetworkState, gen: np.random.Generator) -> NetworkState:
    """One random-push round: every informed node targets a uniform node.

    Targets are drawn as a single batch in node-index order; self-sends are
    allowed and simply wasted. Active, uninformed targets become informed.
    """
    k = informed_count(state)
    targets = gen.integers(0, state.node_count, size=k)
    hits = state.active[targets] & ~state.informed[targets]
    state.informed[targets[hits]] = True
    state.clock += 1
    return state


def _run_phase1(state: NetworkState, gen: np.random.Generator, n: int,
                tracker: _ThresholdTracker, steps: int, cap: int,
                trajectory: Optional[List[int]]) -> int:
    """Advance the random-push warm-up; returns the informed count."""
    k = informed_count(state)
    limit = min(steps, cap)
    while k < n and state.clock < limit:
        step_naive(state, gen)
        k = informed_count(state)
        tracker.observe(state.clock, k)
        if trajectory is not None:
            trajectory.append(k)
    return k


def _finish(config: ProtocolConfig, n: int, complete: bool, t: int,
            tracker: _ThresholdTracker, phase1_end: Optional[int],
            trajectory: Optional[List[int]]) -> TraceResult:
    return TraceResult(
        config=config,
        n_active=n,
        completion_time=t,
        cap_hit=not complete,
        phase1_end=phase1_end,
        threshold_times=tracker.as_dict(),
        trajectory=trajectory,
    )


def run_naive(config: ProtocolConfig, rng: RngStream) -> TraceResult:
    """Random push only: every informed node targets a uniform random node."""
    if config.algorithm is not Algorithm.NAIVE:
        raise ConfigError(f"run_naive got algorithm {config.algorithm}")
    state = sample_active(config.N, config.p, rng)
    gen = rng.protocol_generator()
    n = int(np.count_nonzero(state.active))
    tracker = _ThresholdTracker(config)
    tracker.observe(0, 1)
    trajectory: Optional[List[int]] = [1] if config.record_trajectory else None
    cap = config.step_cap
    k = _run_phase1(state, gen, n, tracker, steps=cap, cap=cap,
                    trajectory=trajectory)
    return _finish(config, n, k >= n, state.clock, tracker, None, trajectory)


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
    cover = (au - sources[sources.searchsorted(au) - 1]) % len(active)
    return au, cover


def _run_phased(config: ProtocolConfig, rng: RngStream,
                phase2: Callable[[np.ndarray, np.ndarray, int], tuple],
                ) -> TraceResult:
    """Random-push warm-up, then a phase 2 replayed from cover offsets.

    phase2(active, informed, budget) returns (au_positions, cover_offsets):
    the active uninformed nodes and the phase-2 step at which each becomes
    informed. Offsets beyond the budget left by the cap are never reached;
    a capped run replays every step up to the cap.
    """
    state = sample_active(config.N, config.p, rng)
    gen = rng.protocol_generator()
    n = int(np.count_nonzero(state.active))
    tracker = _ThresholdTracker(config)
    tracker.observe(0, 1)
    trajectory: Optional[List[int]] = [1] if config.record_trajectory else None
    cap = config.step_cap
    scheduled = phase1_steps(config.N, config.p, config.warmup_slack)
    k = _run_phase1(state, gen, n, tracker, steps=scheduled, cap=cap,
                    trajectory=trajectory)
    phase1_end = state.clock
    complete = k >= n
    if complete or state.clock >= cap:
        return _finish(config, n, complete, state.clock, tracker, phase1_end,
                       trajectory)

    budget = cap - phase1_end
    au, cover = phase2(state.active, state.informed, budget)
    covered = cover <= budget
    complete = bool(covered.all())
    last = int(cover.max(initial=0)) if complete else budget
    # the informed count after each phase-2 step
    running = (k + np.bincount(cover[covered], minlength=last + 1).cumsum()
               )[1:].tolist()
    for s, count in enumerate(running, phase1_end + 1):
        tracker.observe(s, count)
    if trajectory is not None:
        trajectory.extend(running)
    state.informed[au[covered]] = True
    state.clock = phase1_end + last
    return _finish(config, n, complete, state.clock, tracker, phase1_end,
                   trajectory)


def run_cyclic(config: ProtocolConfig, rng: RngStream) -> TraceResult:
    """Random push warm-up, then deterministic cyclic sweeps."""
    if config.algorithm is not Algorithm.CYCLIC:
        raise ConfigError(f"run_cyclic got algorithm {config.algorithm}")
    return _run_phased(config, rng, lambda active, informed, budget:
                       _cyclic_phase2_offsets(active, informed))


class SegmentStatus(enum.Enum):
    GOOD = "good"
    BAD = "bad"


@dataclass
class SegmentView:
    """Census snapshot of the ring partitioned into consecutive segments.

    A segment is good when, after the intra-segment broadcast completes, its
    informed count reaches ceil(segment_size * p / 2); that requires at least
    one informed node to seed the broadcast, so status is computable from the
    pre-broadcast state. wave_front holds, per good segment, the index of the
    first segment its sweep will cover (-1 for bad segments).
    """

    segment_length: int
    segment_count: int
    status: np.ndarray            # SegmentStatus values, object dtype
    informed_count: np.ndarray    # post-broadcast informed count per segment
    active_count: np.ndarray
    wave_front: np.ndarray

    def good_mask(self) -> np.ndarray:
        return self.status == SegmentStatus.GOOD


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


def segment_view(state: NetworkState, segment_length: int,
                 p: float) -> SegmentView:
    if segment_length < 1 or segment_length > state.node_count:
        raise ConfigError(f"segment_length {segment_length} invalid for "
                          f"N={state.node_count}")
    S, _, _, seeded, act, good = _segment_census(
        state.active, state.informed, segment_length, p)
    status = np.where(good, SegmentStatus.GOOD, SegmentStatus.BAD)
    fronts = np.where(good, (np.arange(S) + 1) % S, -1)
    return SegmentView(
        segment_length=segment_length,
        segment_count=S,
        status=status,
        informed_count=np.where(seeded >= 1, act, seeded),
        active_count=act,
        wave_front=fronts,
    )


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
    next_seg = np.arange(1, S + 1)
    next_seg[-1] = 0
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


def run_improved_cyclic(config: ProtocolConfig, rng: RngStream) -> TraceResult:
    """Warm-up, intra-segment broadcast, then coalescing forward waves."""
    if config.algorithm is not Algorithm.IMPROVED_CYCLIC:
        raise ConfigError(f"run_improved_cyclic got algorithm {config.algorithm}")
    return _run_phased(config, rng, lambda active, informed, budget:
                       _improved_phase2_offsets(active, informed,
                                                config.segment_length,
                                                config.p, budget))


def run_oracle(config: ProtocolConfig, rng: RngStream) -> TraceResult:
    """Coordinated ideal: informed nodes target distinct fresh nodes.

    Each round the k informed nodes are assigned min(k, untargeted) distinct
    never-before-targeted nodes; active targets become informed. Targets are
    consumed in a pre-shuffled uniform order, which by exchangeability of the
    active labels yields the same law as any other coordinated assignment.
    """
    if config.algorithm is not Algorithm.ORACLE:
        raise ConfigError(f"run_oracle got algorithm {config.algorithm}")
    state = sample_active(config.N, config.p, rng)
    gen = rng.protocol_generator()
    n = int(np.count_nonzero(state.active))
    tracker = _ThresholdTracker(config)
    tracker.observe(0, 1)
    trajectory: Optional[List[int]] = [1] if config.record_trajectory else None
    cap = config.step_cap
    N = config.N
    fresh = np.arange(1, N)
    gen.shuffle(fresh)  # in place: the draws of permutation, without a copy
    k, pos = 1, 0
    while k < n and state.clock < cap:
        m = min(k, len(fresh) - pos)
        if m == 0:
            break
        batch = fresh[pos:pos + m]
        hits = batch[state.active[batch]]
        state.informed[hits] = True
        pos += m
        k += len(hits)
        state.clock += 1
        tracker.observe(state.clock, k)
        if trajectory is not None:
            trajectory.append(k)
    return _finish(config, n, k >= n, state.clock, tracker, None, trajectory)


_RUNNERS: Dict[Algorithm, Callable[[ProtocolConfig, RngStream], TraceResult]] = {
    Algorithm.NAIVE: run_naive,
    Algorithm.CYCLIC: run_cyclic,
    Algorithm.IMPROVED_CYCLIC: run_improved_cyclic,
    Algorithm.ORACLE: run_oracle,
}


def run(config: ProtocolConfig, rng: RngStream) -> TraceResult:
    """Dispatch to the configured algorithm's runner."""
    return _RUNNERS[config.algorithm](config, rng)
