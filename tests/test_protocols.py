import hashlib
import json
import math
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gossipsim.core import (
    Algorithm,
    ConfigError,
    ProtocolConfig,
    RngStream,
    sample_active,
)
from gossipsim import protocols
from gossipsim.protocols import (
    TraceResult,
    _phase2_offsets,
    _segment_census,
    _trace,
    run,
    run_coupled,
    step_naive,
)
from gossipsim.theory import ExactLaw, exact_naive_law, exact_oracle_law, naive_step_kernel


def fully_active(N, informed_idx):
    """The (active, informed) masks of an all-active network."""
    informed = np.zeros(N, dtype=bool)
    informed[list(informed_idx)] = True
    return np.ones(N, dtype=bool), informed


def all_active_pending(N, informed_idx):
    """The pending mask of an all-active network: every node but the
    informed ones."""
    pending = np.ones(N, dtype=bool)
    pending[list(informed_idx)] = False
    return pending


def push_targets(seed, N):
    """The push-target stream of trial stream RngStream(seed), as
    run_coupled builds it for N nodes."""
    return protocols._Targets(RngStream(seed=seed).protocol_generator, N)


class TestStepNaive:
    def test_two_node_half_split(self):
        targets = push_targets(11, 2)
        hits = 0
        reps = 4000
        for _ in range(reps):
            hits += 1 - step_naive(all_active_pending(2, [0]), 1, targets)
        assert abs(hits / reps - 0.5) < 0.03

    def test_three_node_two_thirds(self):
        targets = push_targets(12, 3)
        hits = 0
        reps = 4000
        for _ in range(reps):
            hits += 2 - step_naive(all_active_pending(3, [0]), 1, targets)
        assert abs(hits / reps - 2 / 3) < 0.03

    def test_one_step_law_matches_kernel(self):
        # fully active, k=3 informed, u=13: counts vs the exact one-round law
        N, k = 16, 3
        targets = push_targets(13, N)
        reps = 10 ** 5
        template = all_active_pending(N, range(k))
        counts = np.zeros(N - k + 1, dtype=np.int64)
        for _ in range(reps):
            counts[N - k - step_naive(template.copy(), k, targets)] += 1
        exact = naive_step_kernel(N, k, N - k)
        tv = 0.5 * np.abs(counts / reps - exact).sum()
        assert tv <= 0.02

    def test_never_informs_inactive(self):
        targets = push_targets(14, 20)
        active = np.zeros(20, dtype=bool)
        active[[0, 3, 7]] = True
        pending = active.copy()
        pending[0] = False
        k = 1
        for _ in range(50):
            left = step_naive(pending, k, targets)
            assert not np.any(pending & ~active)
            assert left == np.count_nonzero(pending)
            k = 3 - left

    @settings(max_examples=30, deadline=None)
    @given(st.integers(2, 64), st.integers(0, 10 ** 6))
    def test_informed_monotone(self, N, seed):
        rng = RngStream(seed=seed)
        active = sample_active(N, 0.6, rng)
        pending = active.copy()
        pending[0] = False
        n = int(np.count_nonzero(active))
        targets = push_targets(seed, N)
        previous = pending.copy()
        k = 1
        for _ in range(5):
            k = n - step_naive(pending, k, targets)
            assert np.all(pending <= previous)
            previous = pending.copy()

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 200), st.floats(0.0, 1.0), st.floats(0.0, 1.0),
           st.integers(0, 2 ** 32), st.data())
    def test_round_contract(self, N, p_active, p_informed, seed, data):
        # any active mask and informed subset of it, stepped by rounds of
        # any size, some below _DRAW_BATCH and some above: round after
        # round the targets are the next k values of the one stream
        # gen.integers(0, N), the draw order that (seed, stream_id)
        # coupling rests on, and a round clears exactly its targets from
        # the pending mask
        batch = protocols._DRAW_BATCH
        ks = data.draw(st.permutations(
            data.draw(st.lists(st.integers(1, batch - 1), min_size=1,
                               max_size=4))
            + data.draw(st.lists(st.integers(batch, 3 * batch), min_size=1,
                                 max_size=3))))
        masks = np.random.default_rng(seed)
        active = masks.random(N) < p_active
        pending = active & ~(masks.random(N) < p_informed)
        targets = protocols._Targets(
            lambda: np.random.Generator(np.random.PCG64(seed)), N)
        stream = np.random.Generator(np.random.PCG64(seed)).integers(
            0, N, size=sum(ks))
        used = 0
        for k in ks:
            before = pending.copy()
            count = step_naive(pending, k, targets)
            drawn = stream[used:used + k]
            used += k
            assert not np.any(pending[drawn])
            untouched = np.ones(N, dtype=bool)
            untouched[drawn] = False
            assert np.array_equal(pending[untouched], before[untouched])
            assert count == np.count_nonzero(pending)


class TestDrawChunking:
    """The push rounds fetch one stream of bounded integers in batches,
    which equals the single draw only because numpy's bounded-integer
    draws are chunk-invariant: chunks of one integers(0, M) stream
    concatenate to exactly one draw of their total size."""

    @pytest.mark.parametrize("M", [2, 3, 8, 2 ** 20 + 3, 3 * 10 ** 9,
                                   2 ** 33 + 1])
    def test_chunks_concatenate_to_one_draw(self, M):
        chunks = [1, 255, 256, 3000, 1, 7, 256, 513]
        whole = np.random.Generator(np.random.PCG64(1313))
        expected = whole.integers(0, M, size=sum(chunks))
        gen = np.random.Generator(np.random.PCG64(1313))
        got = np.concatenate([gen.integers(0, M, size=c) for c in chunks])
        assert np.array_equal(got, expected) and (
            gen.bit_generator.state == whole.bit_generator.state), (
            f"numpy {np.__version__}: chunked integers(0, {M}) draws no "
            "longer equal one draw; the batched push targets in "
            "protocols._Targets rely on it")


class TestRunNaive:
    def test_time_at_full_activity(self):
        # at p = 1 naive push takes log2 N + ln N + O(1) rounds (Frieze and
        # Grimmett 1985; Pittel 1987): the excess over that stays bounded
        # and does not grow along the ladder
        excess, se = [], []
        for N in (2 ** 12, 2 ** 14, 2 ** 16):
            cfg = ProtocolConfig(algorithm=Algorithm.NAIVE, N=N, p=1.0)
            T = np.array([run(cfg, RngStream(seed=4242, stream_id=i))
                          .completion_time for i in range(300)])
            excess.append(T.mean() - (math.log2(N) + math.log(N)))
            se.append(T.std(ddof=1) / math.sqrt(len(T)))
            assert -1.0 <= excess[-1] <= 3.0, (N, excess[-1])
        assert excess[-1] - excess[0] <= 3.0 * math.hypot(se[0], se[-1]), excess

    def test_full_law_two_nodes(self):
        cfg = ProtocolConfig(algorithm=Algorithm.NAIVE, N=2, p=1.0)
        samples = np.array([
            run(cfg, RngStream(seed=20, stream_id=i)).completion_time
            for i in range(5000)])
        tv = ExactLaw.from_samples(samples).total_variation(exact_naive_law(2, 1.0))
        assert tv <= 0.03

    def test_single_node(self):
        cfg = ProtocolConfig(algorithm=Algorithm.NAIVE, N=1, p=0.5)
        result = run(cfg, RngStream(seed=0))
        assert result.completion_time == 0
        assert not result.cap_hit
        assert result.n_active == 1


def reference_cyclic_phase2(active, informed, n, counts, cap):
    """Step-by-step cyclic sweeps: a slow reference for the closed form.

    A node informed at phase-2 age s (or joining later at age 0) targets
    (own index + age) mod N each round, walking forward around the ring.
    counts holds the informed count after each step so far, its last entry
    the count of informed, and len(counts) - 1 is the clock; the informed
    count after each phase-2 step is appended to it until n or the cap.
    Returns the informed count and, per node, the phase-2 step that
    informed it (0 if informed before phase 2, -1 if never).
    """
    N = len(active)
    ages = np.zeros(N, dtype=np.int64)
    informed_at = np.where(informed, 0, -1)
    k = counts[-1]
    step = 0
    while k < n and len(counts) <= cap:
        senders = np.flatnonzero(informed)
        ages[senders] += 1
        targets = (senders + ages[senders]) % N
        hits = active[targets] & ~informed[targets]
        informed[targets[hits]] = True
        step += 1
        informed_at[targets[hits]] = step
        k = int(np.count_nonzero(informed))
        counts.append(k)
    return k, informed_at


def first_passage(counts, level):
    """The first step whose informed count reaches level, or None."""
    for t, k in enumerate(counts):
        if k >= level:
            return t
    return None


def reference_phase1(config, rng):
    """A phased trial's warm-up: step_naive to the phase-1 schedule or the
    cap, whichever comes first. Returns the (active, informed) masks it
    leaves and the informed count after each step."""
    active = sample_active(config.N, config.p, rng)
    pending = active.copy()
    pending[0] = False
    targets = protocols._Targets(rng.protocol_generator, config.N)
    n = int(np.count_nonzero(active))
    counts = [1]  # the informed count after each step
    limit = min(config.phase1_steps, config.step_cap)
    while counts[-1] < n and len(counts) <= limit:
        counts.append(n - step_naive(pending, counts[-1], targets))
    return active, active & ~pending, counts


def reference_run(config, rng):
    """A cyclic or improved-cyclic trial: reference_phase1, then phase 2
    stepped by its literal reference. The improved count after phase-2
    step t is the warm-up's last count plus the offsets <= t."""
    active, informed, counts = reference_phase1(config, rng)
    phase1_end = len(counts) - 1
    n = int(np.count_nonzero(active))
    cap = config.step_cap
    if counts[-1] < n and config.algorithm is Algorithm.CYCLIC:
        reference_cyclic_phase2(active, informed, n, counts, cap)
    elif counts[-1] < n:
        per_step = Counter(reference_phase2(
            active, informed, config.segment_length, config.p,
            cap - phase1_end).values())
        while counts[-1] < n and len(counts) <= cap:
            counts.append(counts[-1] + per_step[len(counts) - phase1_end])
    eps, p, N = config.epsilon, config.p, config.N
    return TraceResult(
        config=config, n_active=n, completion_time=len(counts) - 1,
        cap_hit=counts[-1] < n,
        phase1_end=phase1_end,
        threshold_times={"t_eps": first_passage(counts, eps * p * N),
                         "t_one_minus_eps": first_passage(
                             counts, (1.0 - eps) * p * N)},
        trajectory=counts if config.record_trajectory else None)


def check_run_under_caps(algorithm, p, stream):
    """run equals reference_run at N = 4096 with no cap, a cap at the end
    of phase 1, one step past it and one inside phase 2."""
    N = 4096
    config = ProtocolConfig(algorithm=algorithm, N=N, p=p,
                            record_trajectory=True)
    phase1_end = config.phase1_steps
    full = reference_run(config, RngStream(seed=21, stream_id=stream))
    assert full.completion_time > phase1_end + 3
    inside = (phase1_end + full.completion_time) // 2
    for cap in (None, phase1_end, phase1_end + 1, inside):
        cfg = ProtocolConfig(algorithm=algorithm, N=N, p=p, max_steps=cap,
                             record_trajectory=True)
        got = run(cfg, RngStream(seed=21, stream_id=stream))
        expected = reference_run(cfg, RngStream(seed=21, stream_id=stream))
        assert got == expected, cap
        assert got.cap_hit == (cap is not None)


def cyclic_offsets(active, informed):
    """The phase-2 engine with cyclic's one-node segments on the (active,
    informed) masks of a network, with a budget no cover exceeds."""
    return _phase2_offsets(informed, active & ~informed, 1, 1.0, len(active))


class TestCyclicPhase2:
    def test_gap_closes_one_node_per_step(self):
        # all active, uninformed run of length g: exactly g further steps
        for g in (1, 3, 5):
            N = 12
            _, cover = cyclic_offsets(
                *fully_active(N, [i for i in range(N) if not 4 <= i < 4 + g]))
            clock = int(cover.max())
            assert clock == g

    def test_strict_progress_until_complete(self):
        _, cover = cyclic_offsets(*fully_active(30, [0]))
        trajectory = [1] + (1 + np.bincount(cover).cumsum()[1:]).tolist()
        assert trajectory[-1] == 30
        assert all(b > a for a, b in zip(trajectory, trajectory[1:]))

    def test_run_reports_phase_boundary(self):
        cfg = ProtocolConfig(algorithm=Algorithm.CYCLIC, N=4096, p=0.3)
        result = run(cfg, RngStream(seed=21, stream_id=4))
        assert not result.cap_hit
        assert result.phase1_end == cfg.phase1_steps
        assert result.completion_time >= result.phase1_end

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 200), st.floats(0.0, 1.0), st.floats(0.0, 1.0),
           st.integers(0, 10 ** 6))
    def test_offsets_match_reference(self, N, p_active, p_informed, seed):
        # informed nodes are active, as in every run; node 0 is both
        gen = np.random.default_rng(seed)
        active = gen.random(N) < p_active
        active[0] = True
        informed = active & (gen.random(N) < p_informed)
        informed[0] = True
        au, cover = cyclic_offsets(active, informed)
        n = int(active.sum())
        k, informed_at = reference_cyclic_phase2(
            active, informed.copy(), n, [int(informed.sum())], cap=N)
        assert k == n
        assert np.array_equal(au, np.flatnonzero(active & ~informed))
        assert np.array_equal(cover, informed_at[au])

    @pytest.mark.parametrize("p,stream", [(0.3, 0), (0.3, 3), (0.5, 1),
                                          (0.5, 2)])
    def test_run_matches_reference_under_caps(self, p, stream):
        check_run_under_caps(Algorithm.CYCLIC, p, stream)


# ---------------------------------------------------------------------------
# literal re-implementation of the improved phase 2, used as ground truth
# ---------------------------------------------------------------------------

def reference_phase2(active, informed, ell, p, budget):
    """Position-by-position stepping of the segment broadcast plus waves.

    Same pinned semantics as _phase2_offsets, written in the
    dumbest possible way: explicit per-step delivery of the intra-segment
    round-robin, and per-wave dict records advanced one step at a time.
    Positions keep their local-broadcast delivery time even if a wave
    passes through first; waves write only positions nothing has covered.
    """
    active = np.asarray(active, dtype=bool)
    informed = np.asarray(informed, dtype=bool)
    N = len(active)
    S = (N + ell - 1) // ell
    seg_span = [range(i * ell, min((i + 1) * ell, N)) for i in range(S)]
    seg_len = [len(span) for span in seg_span]
    seeded = [sum(bool(informed[x]) for x in span) for span in seg_span]
    act = [sum(bool(active[x]) for x in span) for span in seg_span]
    good = [seeded[i] >= 1 and act[i] >= math.ceil(seg_len[i] * p / 2.0)
            for i in range(S)]

    offsets = {}  # position -> phase-2 step at which it becomes informed
    deliveries = []  # (step, position) events of the local broadcasts
    broadcast_len = [0] * S
    for i, span in enumerate(seg_span):
        if seeded[i] == 0:
            continue
        uninformed = [x for x in span if not informed[x]]
        broadcast_len[i] = math.ceil(len(uninformed) / seeded[i])
        for rank, x in enumerate(uninformed):
            deliveries.append((rank // seeded[i] + 1, x))

    waves = []
    claimed_by = [-1] * S
    for i in range(S):
        if good[i]:
            claimed_by[i] = len(waves)
            waves.append({"id": len(waves), "origin": i, "front": (i + 1) % S,
                          "size": act[i], "progress": 0,
                          "cover_start": broadcast_len[i],
                          "alive": True, "merged_into": None})

    targets = set(np.flatnonzero(active & ~informed))
    for t in range(1, budget + 1):
        if not targets - set(offsets):
            break
        for step, x in deliveries:
            if step == t and active[x] and x not in offsets:
                offsets[x] = t
        moving = [w for w in waves if w["alive"] and w["cover_start"] < t]
        for w in moving:
            span = seg_span[w["front"]]
            lo = span[0] + w["progress"]
            hi = min(lo + w["size"], span[0] + len(span))
            for x in range(lo, hi):
                if active[x] and not informed[x] and x not in offsets:
                    offsets[x] = t
        for w in moving:
            w["progress"] += w["size"]
        finished = [w for w in moving if w["progress"] >= seg_len[w["front"]]]
        finished.sort(key=lambda w: (w["front"], w["cover_start"],
                                     -w["size"], w["origin"]))
        for w in finished:
            s_id = w["front"]
            if claimed_by[s_id] == -1:
                claimed_by[s_id] = w["id"]
                w["size"] += act[s_id]
                continue
            root = waves[claimed_by[s_id]]
            while not root["alive"]:
                root = waves[root["merged_into"]]
            if root is not w:
                root["size"] += w["size"]
                w["alive"] = False
                w["merged_into"] = root["id"]
        for w in finished:
            if w["alive"]:
                w["front"] = (w["front"] + 1) % S
                w["progress"] = 0
    return offsets


def warmed_up(N, p):
    """The (active, informed) masks the improved protocol's warm-up leaves
    on stream int(10 p), and the phase-2 budget the default cap leaves."""
    config = ProtocolConfig(algorithm=Algorithm.IMPROVED_CYCLIC, N=N, p=p)
    active, informed, counts = reference_phase1(
        config, RngStream(seed=31, stream_id=int(10 * p)))
    return active, informed, config.step_cap - (len(counts) - 1)


def engine_offsets(active, informed, ell, p, budget):
    active = np.asarray(active, dtype=bool)
    informed = np.asarray(informed, dtype=bool)
    au, cover = _phase2_offsets(informed, active & ~informed, ell, p, budget)
    return {int(x): int(c) for x, c in zip(au, cover) if c <= budget}


def checked_offsets(active, informed, ell, p, budget):
    """The engine's offsets, asserted equal to reference_phase2's."""
    expected = reference_phase2(active, informed, ell, p, budget)
    assert engine_offsets(active, informed, ell, p, budget) == expected, (
        len(active), ell, p)
    return expected


class TestImprovedPhase2:
    def test_single_segment_fixture(self):
        # one segment spanning the network: local broadcast only, <= ell steps
        N = 8
        informed = np.zeros(N, dtype=bool)
        informed[0] = True
        offs = engine_offsets(np.ones(N, dtype=bool), informed, 8, 1.0, 100)
        assert set(offs) == set(range(1, N))
        assert max(offs.values()) <= 8

    def test_two_segment_fixture(self):
        # full first segment covers the second in ceil(4/4) = 1 step
        active = np.ones(8, dtype=bool)
        informed = np.array([True] * 4 + [False] * 4)
        offs = engine_offsets(active, informed, 4, 1.0, 100)
        assert offs == {4: 1, 5: 1, 6: 1, 7: 1}

    def test_wave_recruits_swept_segment(self):
        # sizes 4 -> 8 -> 12: each later segment still takes one step
        active = np.ones(16, dtype=bool)
        informed = np.array([True] * 4 + [False] * 12)
        offs = engine_offsets(active, informed, 4, 1.0, 100)
        assert offs == {x: 1 + (x - 4) // 4 for x in range(4, 16)}

    def test_local_broadcast_round_robin(self):
        # two seeds in one segment of six: ranks alternate between them
        active = np.ones(6, dtype=bool)
        informed = np.zeros(6, dtype=bool)
        informed[[0, 3]] = True
        offs = engine_offsets(active, informed, 6, 1.0, 100)
        # uninformed ranks: 1,2,4,5 -> steps 1,1,2,2
        assert offs == {1: 1, 2: 1, 4: 2, 5: 2}

    def test_bad_segment_does_not_transmit(self):
        # second segment seeded but with too few actives to be good
        active = np.array([True] * 4 + [True] + [False] * 3 + [True] * 4)
        informed = np.zeros(12, dtype=bool)
        informed[[0, 1, 2, 3, 4]] = True
        offs = engine_offsets(active, informed, 4, 1.0, 100)
        # wave from segment 0 must still cross the bad middle segment
        assert all(x in offs for x in range(8, 12))

    def test_no_good_segments_strands_the_rest(self):
        # the lone seeded segment fails the census; nothing else is reached
        active = np.array([True] + [False] * 3 + [True] * 4)
        informed = np.zeros(8, dtype=bool)
        informed[0] = True
        offs = engine_offsets(active, informed, 4, 0.9, 1000)
        assert offs == {}

    def test_budget_truncates_coverage(self):
        active = np.ones(32, dtype=bool)
        informed = np.zeros(32, dtype=bool)
        informed[0] = True
        full = engine_offsets(active, informed, 4, 1.0, 1000)
        partial = engine_offsets(active, informed, 4, 1.0, 3)
        assert partial == {x: s for x, s in full.items() if s <= 3}
        assert len(partial) < len(full)

    @settings(max_examples=120, deadline=None)
    @given(st.integers(4, 60), st.integers(2, 8),
           st.sampled_from([0.3, 0.6, 0.9, 1.0]),
           st.floats(0.05, 0.95), st.integers(0, 10 ** 6))
    def test_matches_reference_simulator(self, N, ell, p, seed_density, seed):
        ell = min(ell, N)
        gen = np.random.default_rng(seed)
        active = gen.random(N) < max(p - 0.1, 0.2)
        active[0] = True
        informed = active & (gen.random(N) < seed_density)
        informed[0] = True
        checked_offsets(active, informed, ell, p, 10 * N + 20)

    def test_matches_reference_on_dense_grid(self):
        # deterministic sweep across small shapes, including ragged tails
        rng = np.random.default_rng(7)
        for N in (5, 8, 11, 16, 23):
            for ell in (2, 3, 4, 5):
                for p in (0.4, 0.8, 1.0):
                    for _ in range(4):
                        active = rng.random(N) < 0.7
                        active[0] = True
                        informed = active & (rng.random(N) < 0.4)
                        informed[0] = True
                        checked_offsets(active, informed, ell, p, 10 * N + 20)

    @pytest.mark.parametrize("N", [2 ** 12, 2 ** 14])
    @pytest.mark.parametrize("p", [0.1, 0.3, 0.5, 0.8])
    def test_matches_reference_on_warmed_up_networks(self, N, p):
        active, informed, budget = warmed_up(N, p)
        default_ell = ProtocolConfig(algorithm=Algorithm.IMPROVED_CYCLIC,
                                     N=N, p=p).segment_length
        for ell in (default_ell, 2, 8):
            checked_offsets(active, informed, ell, p, budget)

    def test_merge_mid_segment_speeds_the_receiver(self):
        # segments [0,3) [3,6) [6,9), ell 3; the first two are good with one
        # seed each, so both waves wait out a 2-step broadcast. The wave of
        # segment 1 (size 1) covers node 6 at step 3, while the wave of
        # segment 0 (size 3) finishes segment 1 and dies into it; from
        # step 4 the receiver has size 4 and covers 7 and 8 together
        active = np.array([c == "1" for c in "111100111"])
        informed = np.array([c == "1" for c in "100100000"])
        assert checked_offsets(active, informed, 3, 0.6, 100) == {
            1: 1, 2: 2, 6: 3, 7: 4, 8: 4}
        lone = active.copy()
        lone[:3] = False  # without the merging wave, node 8 waits to step 5
        assert reference_phase2(lone, informed & lone, 3, 0.6, 100)[8] == 5

    def test_merge_after_step_one_beats_the_local_schedule(self):
        # segments [0,4) [4,8) [8,9), ell 4, all good. Node 3's local slot
        # is step 3. The size-1 wave of the tail segment reaches segment 0
        # at step 1; the saturated wave of segment 1 dies into it at step 1,
        # and at step 2 the merged wave covers nodes 1-3, so node 3 is
        # informed at step 2
        active = np.ones(9, dtype=bool)
        informed = np.array([c == "1" for c in "100011111"])
        assert checked_offsets(active, informed, 4, 0.9, 100) == {
            1: 1, 2: 2, 3: 2}

    def test_saturated_wave_crosses_empty_bad_segments(self):
        # ell 2: the wave of segment 0 (size 2, saturated) crosses three bad
        # segments with no active node, one per step, and covers segment 4
        # at step 4; the size-1 wave of segment 5 dies into it at step 3
        # and changes nothing
        active = np.array([c == "1" for c in "110000001110"])
        informed = np.array([c == "1" for c in "110000000010"])
        assert checked_offsets(active, informed, 2, 1.0, 100) == {8: 4, 9: 4}

    def test_wave_wraps_past_the_short_tail(self):
        # segments [0,3) [3,6) [6,8): the saturated wave of segment 1 covers
        # the 2-node tail at step 1 and goes on to segment 0 at step 2
        active = np.array([c == "1" for c in "01111100"])
        informed = np.array([c == "1" for c in "00011100"])
        assert checked_offsets(active, informed, 3, 1.0, 100) == {1: 2, 2: 2}

    @pytest.mark.parametrize("p", [0.3, 0.5])
    def test_matches_reference_at_default_ell_2_16(self, p):
        config = ProtocolConfig(algorithm=Algorithm.IMPROVED_CYCLIC,
                                N=2 ** 16, p=p)
        active, informed, budget = warmed_up(config.N, p)
        checked_offsets(active, informed, config.segment_length, p, budget)

    def test_merge_cycle_fixture(self):
        # segments [0,5) [5,10) [10,12); the first and last are good. The
        # wave from segment 0 claims segment 1 at step 3; at step 4 it
        # finishes segment 2 (the other wave's) while the other wave
        # finishes segment 0, each claimed by the other's tree. By then
        # every node is covered, so the engine and the reference both stop
        # after step 3, and neither has to merge the cycle.
        active = np.array([c == "1" for c in "111101000111"])
        informed = np.array([c == "1" for c in "111001000001"])
        assert checked_offsets(active, informed, 5, 0.9, 100) == {
            3: 1, 9: 3, 10: 1}

    @settings(max_examples=100, deadline=None)
    @given(st.integers(1, 80), st.sampled_from([0.1, 0.5, 1.0]),
           st.floats(0.0, 1.0), st.floats(0.0, 1.0), st.integers(0, 10 ** 6))
    def test_one_node_segments_step_as_cyclic(self, N, p, p_active,
                                              p_informed, seed):
        # with ell = 1 every informed node is a good segment of its own,
        # and its wave crosses one node per step whatever merges into it,
        # as the node's cyclic sweep does: the two literal references agree
        gen = np.random.default_rng(seed)
        active = gen.random(N) < p_active
        active[0] = True
        informed = active & (gen.random(N) < p_informed)
        informed[0] = True
        _, informed_at = reference_cyclic_phase2(
            active, informed.copy(), int(active.sum()),
            [int(informed.sum())], cap=N)
        expected = {x: int(s) for x, s in enumerate(informed_at) if s > 0}
        assert reference_phase2(active, informed, 1, p, N) == expected

    @settings(max_examples=100, deadline=None)
    @given(st.integers(1, 80), st.sampled_from([0.1, 0.5, 1.0]),
           st.floats(0.0, 1.0), st.floats(0.0, 1.0), st.integers(0, 10 ** 6))
    def test_one_node_segments_match_the_cyclic_engine(self, N, p, p_active,
                                                       p_informed, seed):
        # with ell = 1 every wave is saturated at launch, so the engine
        # gives the cyclic sweeps' covers in closed form, before the census,
        # _ring_keep and the step loop
        gen = np.random.default_rng(seed)
        active = gen.random(N) < p_active
        active[0] = True
        informed = active & (gen.random(N) < p_informed)
        informed[0] = True
        pending = active & ~informed
        _, informed_at = reference_cyclic_phase2(
            active, informed.copy(), int(active.sum()),
            [int(informed.sum())], cap=N)
        au = np.flatnonzero(pending)
        expected = informed_at[au]
        gap = int(expected.max(initial=0))  # the last cyclic cover

        def no_census(*args):
            raise AssertionError("one-node segments reached the census")

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(protocols, "_segment_census", no_census)
            mp.setattr(protocols, "_ring_keep", no_census)
            for budget in {gap + 1, max(gap - 1, 1), max(gap // 2, 1)}:
                got_au, cover = _phase2_offsets(informed, pending, 1, p,
                                                budget)
                assert np.array_equal(got_au, au)
                within = expected <= budget
                assert np.array_equal(cover <= budget, within)
                assert np.array_equal(cover[within], expected[within])

    def test_budget_cuts_a_saturated_wave_in_a_mixed_ring(self):
        # ell 4, p 0.5: segments 0 and 4 are good and saturated (4 actives,
        # one seed, a 3-step broadcast), segment 5 is good with one active,
        # the others bad. Wave 0's closed form gives segments 1-3 their
        # arrivals 4, 5 and 6. The size-1 wave of segment 5 covers 24 at
        # step 4; wave 4 finishes segment 5 at step 4 and dies into it, so
        # 25-27 are covered together at step 5. Budget 5 cuts segment 3
        # (12-15, arrival 6) and segment 7 (28-31, step 6)
        active = np.array([c == "1" for c in
                           "1111" "1001" "1001" "1111" "1111" "1000" "1111"
                           "1111"])
        informed = np.array([c == "1" for c in
                             "1000" "0000" "0000" "0000" "1000" "1000" "0000"
                             "0000"])
        assert checked_offsets(active, informed, 4, 0.5, 5) == {
            1: 1, 2: 2, 3: 3, 4: 4, 7: 4, 8: 5, 11: 5, 17: 1, 18: 2, 19: 3,
            24: 4, 25: 5, 26: 5, 27: 5}
        assert checked_offsets(active, informed, 4, 0.5, 100)[12] == 6
        lone = active.copy()
        lone[16:20] = False  # without wave 4, node 26 waits to step 6
        assert reference_phase2(lone, informed & lone, 4, 0.5, 100)[26] == 6


class TestImprovedRun:
    def test_completes_and_reports_phases(self):
        cfg = ProtocolConfig(algorithm=Algorithm.IMPROVED_CYCLIC, N=4096, p=0.5)
        result = run(cfg, RngStream(seed=22, stream_id=1))
        assert not result.cap_hit
        assert result.phase1_end == cfg.phase1_steps
        assert result.completion_time > result.phase1_end

    def test_trajectory_reconstruction_consistent(self):
        cfg = ProtocolConfig(algorithm=Algorithm.IMPROVED_CYCLIC, N=2048,
                             p=0.5, record_trajectory=True)
        result = run(cfg, RngStream(seed=23, stream_id=2))
        trajectory = result.trajectory
        assert len(trajectory) == result.completion_time + 1
        assert trajectory[-1] == result.n_active
        assert all(b >= a for a, b in zip(trajectory, trajectory[1:]))

    def test_cap_inside_phase2(self):
        cfg = ProtocolConfig(algorithm=Algorithm.IMPROVED_CYCLIC, N=4096,
                             p=0.5, max_steps=28)
        result = run(cfg, RngStream(seed=5, stream_id=0))
        assert result.cap_hit
        assert result.completion_time == 28
        assert result.phase1_end == 26

    def test_cap_inside_phase1(self):
        cfg = ProtocolConfig(algorithm=Algorithm.IMPROVED_CYCLIC, N=4096,
                             p=0.5, max_steps=1)
        result = run(cfg, RngStream(seed=5, stream_id=0))
        assert result.cap_hit
        assert result.completion_time == 1

    def test_single_node(self):
        cfg = ProtocolConfig(algorithm=Algorithm.IMPROVED_CYCLIC, N=1, p=0.5)
        result = run(cfg, RngStream(seed=0))
        assert result.completion_time == 0 and not result.cap_hit

    @pytest.mark.parametrize("p,stream", [(0.3, 0), (0.3, 3), (0.5, 1),
                                          (0.5, 2)])
    def test_run_matches_reference_under_caps(self, p, stream):
        check_run_under_caps(Algorithm.IMPROVED_CYCLIC, p, stream)

    def test_one_node_segments_run_as_cyclic(self):
        # the segment length round(sqrt(ln N)) is 1 up to N = 9, where every
        # coupled improved-cyclic trial is the cyclic one; at N = 10 (ell =
        # 2) some trial differs. Every improved trial is reference_run's,
        # so a wrong cover cannot hide behind both protocols at once
        phased = (Algorithm.CYCLIC, Algorithm.IMPROVED_CYCLIC)
        fields = ("completion_time", "cap_hit", "phase1_end",
                  "threshold_times", "trajectory")
        differ = 0
        for N in range(1, 11):
            for p in (0.1, 0.3, 0.5, 0.9, 1.0):
                config = ProtocolConfig(algorithm=Algorithm.IMPROVED_CYCLIC,
                                        N=N, p=p, record_trajectory=True)
                assert config.segment_length == (1 if N <= 9 else 2)
                for stream in range(100):
                    rng = RngStream(seed=4242, stream_id=stream)
                    got = run_coupled(config, phased, rng)
                    assert got[phased[1]] == reference_run(config, rng)
                    cyclic, improved = ([getattr(got[alg], name)
                                         for name in fields]
                                        for alg in phased)
                    if N <= 9:
                        assert cyclic == improved, (N, p, stream)
                    else:
                        differ += cyclic != improved
        assert differ > 0


class TestSegmentCensus:
    """The improved protocol's segment census, _segment_census."""

    def test_counts_and_fronts(self):
        active = np.ones(10, dtype=bool)
        informed = np.zeros(10, dtype=bool)
        informed[0] = True
        seeded, act, good = _segment_census(informed, active & ~informed, 4,
                                            1.0)
        assert seeded.tolist() == [1, 0, 0]  # segments [0,4) [4,8) [8,10)
        assert act.tolist() == [4, 4, 2]
        assert good.tolist() == [True, False, False]  # unseeded are bad
        # the good segment's wave front starts at the next segment once its
        # 3-step broadcast is done, and recruits it before the tail
        offs = engine_offsets(active, informed, 4, 1.0, 100)
        assert offs == {1: 1, 2: 2, 3: 3, 4: 4, 5: 4, 6: 4, 7: 4, 8: 5, 9: 5}

    def test_short_tail_threshold(self):
        # the 2-node tail segment needs ceil(2*p/2) = 1 active node
        active = np.zeros(10, dtype=bool)
        active[[0, 8]] = True
        informed = np.zeros(10, dtype=bool)
        informed[[0, 8]] = True
        *_, good = _segment_census(informed, active & ~informed, 4, 1.0)
        assert good[2]
        assert not good[0]  # 1 active of 4 needed 2


class TestOracle:
    def test_doubling_at_full_activity(self):
        cfg = ProtocolConfig(algorithm=Algorithm.ORACLE, N=1024, p=1.0,
                             record_trajectory=True)
        result = run(cfg, RngStream(seed=24))
        assert result.completion_time == 10
        assert result.trajectory == [2 ** t for t in range(11)]
        assert result.threshold_times == {"t_eps": 7, "t_one_minus_eps": 10}

    def test_matches_exact_law(self):
        cfg = ProtocolConfig(algorithm=Algorithm.ORACLE, N=8, p=0.5)
        samples = np.array([
            run(cfg, RngStream(seed=25, stream_id=i)).completion_time
            for i in range(10 ** 4)])
        tv = ExactLaw.from_samples(samples).total_variation(exact_oracle_law(8, 0.5))
        assert tv <= 0.04

    def test_single_node(self):
        cfg = ProtocolConfig(algorithm=Algorithm.ORACLE, N=1, p=1.0)
        assert run(cfg, RngStream(seed=0)).completion_time == 0

    def test_matches_shuffled_order(self):
        # reference: the never-targeted labels in a shuffled order, taken k
        # at a time, the first n - 1 of them pending; the hypergeometric
        # chain must give the same law of the informed count in every round
        N, n, trials = 1000, 300, 2000

        def shuffled(gen):
            pending = gen.permutation(N - 1) < n - 1
            counts, pos = [1], 0
            while counts[-1] < n:
                k = counts[-1]
                counts.append(k + int(np.count_nonzero(pending[pos:pos + k])))
                pos += k
            return counts

        ref = [shuffled(np.random.default_rng([31, i])) for i in range(trials)]
        chain = [protocols._run_oracle(
            N, n, N, lambda i=i: np.random.default_rng([32, i]))
            for i in range(trials)]
        rounds = max(map(len, ref + chain))
        ref, chain = (np.array([c + [n] * (rounds - len(c)) for c in runs])
                      for runs in (ref, chain))
        se = np.sqrt((ref.var(axis=0) + chain.var(axis=0)) / trials)
        gap = np.abs(ref.mean(axis=0) - chain.mean(axis=0))
        assert (gap <= 4.5 * se).all(), (gap, se)

    def test_peak_memory_below_two_bytes_per_node(self):
        # no int64 temporary of size N: the N-byte active mask sets the peak
        N = 2 ** 20
        cfg = ProtocolConfig(algorithm=Algorithm.ORACLE, N=N, p=0.5)
        tracemalloc.start()
        try:
            run(cfg, RngStream(seed=30))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * N

    def test_hypergeometric_count_limit(self, monkeypatch):
        # numpy's hypergeometric takes counts below 10^9; past that the
        # oracle is refused before sample_active builds a 1 GB mask, and
        # the other algorithms go on to build it
        class Sampled(Exception):
            pass

        def sampled(*args):
            raise Sampled

        monkeypatch.setattr(protocols, "sample_active", sampled)
        for alg in Algorithm:
            cfg = ProtocolConfig(algorithm=alg, N=10 ** 9 + 1, p=0.5)
            if alg is Algorithm.ORACLE:
                with pytest.raises(ConfigError, match="1000000000"):
                    run(cfg, RngStream(seed=0))
            else:
                with pytest.raises(Sampled):
                    run(cfg, RngStream(seed=0))
        with pytest.raises(Sampled):
            run(ProtocolConfig(algorithm=Algorithm.ORACLE, N=10 ** 9, p=0.5),
                RngStream(seed=0))


class TestCouplingAndDeterminism:
    def test_rerun_is_identical(self):
        cfg = ProtocolConfig(algorithm=Algorithm.IMPROVED_CYCLIC, N=2048,
                             p=0.4, record_trajectory=True)
        a = run(cfg, RngStream(seed=26, stream_id=9))
        b = run(cfg, RngStream(seed=26, stream_id=9))
        assert a.completion_time == b.completion_time
        assert a.n_active == b.n_active
        assert a.threshold_times == b.threshold_times
        assert a.trajectory == b.trajectory

    def test_algorithms_share_the_active_set(self):
        stream = RngStream(seed=27, stream_id=5)
        results = {
            alg: run(ProtocolConfig(algorithm=alg, N=4096, p=0.5), stream)
            for alg in Algorithm}
        counts = {r.n_active for r in results.values()}
        assert len(counts) == 1

    def test_warmup_thresholds_coupled(self):
        # naive, cyclic and improved share phase-1 draws; t_eps falls inside it
        stream = RngStream(seed=28, stream_id=3)
        times = {
            alg: run(ProtocolConfig(algorithm=alg, N=4096, p=0.5),
                     stream).threshold_times["t_eps"]
            for alg in (Algorithm.NAIVE, Algorithm.CYCLIC,
                        Algorithm.IMPROVED_CYCLIC)}
        assert len(set(times.values())) == 1

    def test_cap_hit_all_algorithms(self):
        for alg in Algorithm:
            cfg = ProtocolConfig(algorithm=alg, N=4096, p=0.5, max_steps=1)
            result = run(cfg, RngStream(seed=29))
            assert result.cap_hit
            assert result.completion_time == 1

    def test_oracle_wins_in_law_not_per_trial(self):
        # the oracle draws its own hit counts, so a coupled trial can see
        # it finish later; check_domination counts such trials at large N
        stream = RngStream(seed=7, stream_id=0)
        times = {alg: run(ProtocolConfig(algorithm=alg, N=3, p=0.5),
                          stream).completion_time
                 for alg in Algorithm}
        assert times == {Algorithm.NAIVE: 1, Algorithm.CYCLIC: 1,
                         Algorithm.IMPROVED_CYCLIC: 1, Algorithm.ORACLE: 2}


class TestRunCoupled:
    """One run_coupled call equals a separate run per algorithm."""

    @staticmethod
    def caps(N, p):
        # none, inside phase 1, at its end, one past it and inside phase 2
        end = ProtocolConfig(algorithm=Algorithm.NAIVE, N=N, p=p).phase1_steps
        return [None] + sorted({max(1, end - 1), max(1, end), end + 1,
                                end + 3})

    @pytest.mark.parametrize("N", [1, 2, 3, 8, 1000, 4096])
    @pytest.mark.parametrize("p", [0.1, 0.5, 1.0])
    def test_matches_separate_runs(self, N, p):
        capped_in_phase2 = 0
        for stream in range(4):
            for cap in self.caps(N, p):
                config = ProtocolConfig(algorithm=Algorithm.NAIVE, N=N, p=p,
                                        max_steps=cap, record_trajectory=True)
                rng = RngStream(seed=41, stream_id=stream)
                coupled = run_coupled(config, tuple(Algorithm), rng)
                assert set(coupled) == set(Algorithm)
                for alg, got in coupled.items():
                    alone = run(ProtocolConfig(
                        algorithm=alg, N=N, p=p, max_steps=cap,
                        record_trajectory=True), rng)
                    assert got == alone, (alg, stream, cap)
                    if alg is Algorithm.CYCLIC and got.cap_hit:
                        capped_in_phase2 += got.completion_time > got.phase1_end
        if N >= 1000:
            assert capped_in_phase2 > 0

    @pytest.mark.parametrize("algorithms", [
        (Algorithm.IMPROVED_CYCLIC, Algorithm.NAIVE),
        (Algorithm.CYCLIC, Algorithm.IMPROVED_CYCLIC),
        (Algorithm.ORACLE,),
    ])
    def test_subsets_match_separate_runs(self, algorithms):
        config = ProtocolConfig(algorithm=Algorithm.CYCLIC, N=4096, p=0.3,
                                record_trajectory=True)
        for stream in range(3):
            rng = RngStream(seed=42, stream_id=stream)
            coupled = run_coupled(config, algorithms, rng)
            assert set(coupled) == set(algorithms)
            for alg in algorithms:
                alone = run(ProtocolConfig(algorithm=alg, N=4096, p=0.3,
                                           record_trajectory=True), rng)
                assert coupled[alg] == alone

    def test_single_algorithm_keeps_the_config(self):
        config = ProtocolConfig(algorithm=Algorithm.CYCLIC, N=64, p=0.5)
        result = run_coupled(config, (Algorithm.CYCLIC,), RngStream(seed=3))
        assert result[Algorithm.CYCLIC].config is config

    def test_repeated_algorithm_rejected(self):
        # one result per algorithm: a repeat would run its phase 2 twice
        config = ProtocolConfig(algorithm=Algorithm.CYCLIC, N=64, p=0.5)
        for algorithms in [(Algorithm.CYCLIC, Algorithm.CYCLIC),
                           (Algorithm.NAIVE, Algorithm.ORACLE, Algorithm.NAIVE)]:
            with pytest.raises(ConfigError, match="repeated algorithm"):
                run_coupled(config, algorithms, RngStream(seed=3))

    def test_layers_called_through_module_globals(self, monkeypatch):
        # per-layer tracing wraps protocols.sample_active and
        # protocols.step_naive; a local binding would bypass the wrappers
        calls = {"sample_active": 0, "step_naive": 0}

        def counting(name):
            original = getattr(protocols, name)

            def wrapper(*args):
                calls[name] += 1
                return original(*args)
            return wrapper

        for name in calls:
            monkeypatch.setattr(protocols, name, counting(name))
        config = ProtocolConfig(algorithm=Algorithm.NAIVE, N=4096, p=0.5)
        result = run_coupled(config, (Algorithm.NAIVE, Algorithm.CYCLIC),
                             RngStream(seed=43))
        assert calls["sample_active"] == 1
        assert calls["step_naive"] == result[Algorithm.NAIVE].completion_time
        assert calls["step_naive"] > result[Algorithm.CYCLIC].phase1_end > 0

    @pytest.mark.parametrize("algorithms", [(alg,) for alg in Algorithm]
                             + [tuple(Algorithm)])
    def test_no_draw_builds_no_generator(self, algorithms, monkeypatch):
        # at N = 2 with node 1 inactive node 0 is informed at step 0, so no
        # run draws a target and none builds a protocol generator; with
        # node 1 active the other three draw on one shared generator, and
        # the oracle's first round takes the one label left without a draw
        builds = []
        original = RngStream.protocol_generator

        def counting(rng):
            builds.append(rng)
            return original(rng)

        monkeypatch.setattr(RngStream, "protocol_generator", counting)
        config = ProtocolConfig(algorithm=algorithms[0], N=2, p=0.5)
        seen = {False: 0, True: 0}  # streams by whether node 1 is active
        for stream in range(40):
            rng = RngStream(seed=44, stream_id=stream)
            node1 = bool(sample_active(2, 0.5, rng)[1])
            del builds[:]
            result = run_coupled(config, algorithms, rng)
            if not node1:
                assert all(r.completion_time == 0 for r in result.values())
            expected = (set(algorithms) != {Algorithm.ORACLE}) and node1
            assert len(builds) == expected, (stream, node1)
            seen[node1] += 1
        assert min(seen.values()) > 5


def coupled_digest(cells, algorithms, seed=1212):
    """sha256 of every TraceResult field but the config, for the results of
    the given algorithms when all four run coupled on each (N, p, stream)
    cell, trajectories on."""
    records = []
    for N, p, stream in cells:
        config = ProtocolConfig(algorithm=Algorithm.NAIVE, N=N, p=p,
                                record_trajectory=True)
        coupled = run_coupled(config, tuple(Algorithm),
                              RngStream(seed=seed, stream_id=stream))
        for alg in algorithms:
            r = coupled[alg]
            records.append([N, p, stream, alg.value, r.n_active,
                            r.completion_time, r.cap_hit, r.phase1_end,
                            r.threshold_times, r.trajectory])
    text = json.dumps(records, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


class TestPinnedOutputs:
    """Outputs and draw order pinned to digests: a change of any informed
    count, any phase boundary or any draw moves one. The three protocols
    and the oracle are hashed apart, so a change to one cannot hide behind
    a re-pin of the other. The protocols' digests were recorded on the code
    that still shuffled the oracle's targets, whose protocol outputs had
    not moved since the push kernel moved to one pending mask; the
    oracle's on the code that first drew its hits as hypergeometric
    counts."""

    PROTOCOLS = (Algorithm.NAIVE, Algorithm.CYCLIC, Algorithm.IMPROVED_CYCLIC)
    ORACLE = (Algorithm.ORACLE,)

    CELLS = ([(N, p, stream) for N in (8, 10, 1000, 2 ** 16)
              for p in (0.3, 0.5) for stream in range(2)]
             + [(2 ** 20, 0.5, 0)])
    DIGEST = ("83eef239905a12f1990d9fd4be033f8f2d494104d1e68e46"
              "69bd8d3409834f14")
    ORACLE_DIGEST = ("329c05b327d414e3f3a484344d0189fc6db614e6b25d9898"
                     "afd37b5ab32ce5d5")

    def test_coupled_digest(self):
        assert coupled_digest(self.CELLS, self.PROTOCOLS) == self.DIGEST

    def test_oracle_digest(self):
        assert coupled_digest(self.CELLS, self.ORACLE) == self.ORACLE_DIGEST

    # where batched push targets and generators built at the first draw
    # could show: N = 2 and 3, where many trials draw nothing, and N = 600
    # at p = 1.0, where a round's k crosses the batch size mid-trial; the
    # protocols' outputs there have not moved since the code that drew
    # each round's targets in one call
    BOUNDARY_CELLS = [(N, p, stream) for N in (2, 3, 600) for p in (0.3, 1.0)
                      for stream in range(3)]
    BOUNDARY_DIGEST = ("c68f0ceb0c63584fbf1ffa3668fd27aba41aa8771f116574"
                       "124308324f115562")
    ORACLE_BOUNDARY_DIGEST = ("3315ce29ed91f8674e72e8b921030b4029c7d5c75543"
                              "ccf6bbb94922eeb69ba9")

    def test_batch_boundary_digest(self):
        assert (coupled_digest(self.BOUNDARY_CELLS, self.PROTOCOLS)
                == self.BOUNDARY_DIGEST)

    def test_oracle_boundary_digest(self):
        assert (coupled_digest(self.BOUNDARY_CELLS, self.ORACLE)
                == self.ORACLE_BOUNDARY_DIGEST)


class TestLongestUninformedRun:
    # on a fully active ring the last node of the longest uninformed run is
    # the last one the cyclic sweeps reach, at a step equal to its length
    @pytest.mark.parametrize("N,informed_idx,expected", [
        (8, [0], 7),
        (8, [0, 4], 3),
        (8, [3], 7),
        (8, list(range(8)), 0),
        (8, [0, 1, 2, 3], 4),
        (5, [2, 3], 3),
    ])
    def test_fixtures(self, N, informed_idx, expected):
        _, cover = cyclic_offsets(*fully_active(N, informed_idx))
        assert cover.max(initial=0) == expected

    @settings(max_examples=80, deadline=None)
    @given(st.integers(1, 40), st.data())
    def test_matches_rotation_brute_force(self, N, data):
        informed_idx = data.draw(st.sets(st.integers(0, N - 1), min_size=1))
        active, informed = fully_active(N, sorted(informed_idx))
        flags = informed.tolist()
        best = 0
        for start in range(N):
            length = 0
            while length < N and not flags[(start + length) % N]:
                length += 1
            best = max(best, length)
        _, cover = cyclic_offsets(active, informed)
        assert cover.max(initial=0) == best


class TestTrace:
    """_trace against linear scans of the informed counts."""

    def test_levels_reached_exactly_or_never(self):
        # levels 0.1 * 0.5 * 100 = 5.0 and 45.0: a count equal to a level
        # passes it, and a run ending below a level leaves it None
        config = ProtocolConfig(algorithm=Algorithm.NAIVE, N=100, p=0.5)
        got = _trace(config, 40, [1, 2, 5, 5, 8], 3)
        assert got.threshold_times == {"t_eps": 2, "t_one_minus_eps": None}
        assert (got.completion_time, got.cap_hit, got.phase1_end,
                got.trajectory) == (4, True, 3, None)

    @settings(max_examples=300, deadline=None)
    @given(st.integers(1, 200), st.sampled_from([0.1, 0.3, 0.5, 1.0]),
           st.one_of(st.sampled_from([0.125, 0.25]), st.floats(0.01, 0.49)),
           st.booleans(), st.data())
    def test_matches_linear_scan(self, N, p, epsilon, record, data):
        n = data.draw(st.integers(1, N), label="n_active")
        counts = [1]  # nondecreasing, ending at the first count to reach n
        for gain in data.draw(st.lists(st.integers(0, N), max_size=40),
                              label="gains"):
            if counts[-1] >= n:
                break
            counts.append(min(n, counts[-1] + gain))
        config = ProtocolConfig(algorithm=Algorithm.NAIVE, N=N, p=p,
                                epsilon=epsilon, record_trajectory=record)
        got = _trace(config, n, counts, None)
        done = first_passage(counts, n)
        assert got.completion_time == (len(counts) - 1 if done is None
                                       else done)
        assert got.cap_hit == (done is None)
        assert got.threshold_times == {
            "t_eps": first_passage(counts, epsilon * p * N),
            "t_one_minus_eps": first_passage(counts, (1.0 - epsilon) * p * N)}
        assert got.trajectory == (counts if record else None)
        assert (got.n_active, got.phase1_end) == (n, None)
