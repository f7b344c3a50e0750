import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gossipsim.core import (
    Algorithm,
    ProtocolConfig,
    RngStream,
    default_max_steps,
    default_phase1_slack,
    default_segment_length,
    phase1_steps,
    sample_active,
)
from gossipsim import protocols
from gossipsim.protocols import (
    TraceResult,
    _UNSET,
    _cyclic_phase2_offsets,
    _improved_phase2_offsets,
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


class TestStepNaive:
    def test_two_node_half_split(self):
        gen = RngStream(seed=11).protocol_generator()
        hits = 0
        reps = 4000
        for _ in range(reps):
            active, informed = fully_active(2, [0])
            hits += step_naive(active, informed, 1, gen) - 1
        assert abs(hits / reps - 0.5) < 0.03

    def test_three_node_two_thirds(self):
        gen = RngStream(seed=12).protocol_generator()
        hits = 0
        reps = 4000
        for _ in range(reps):
            active, informed = fully_active(3, [0])
            hits += step_naive(active, informed, 1, gen) - 1
        assert abs(hits / reps - 2 / 3) < 0.03

    def test_one_step_law_matches_kernel(self):
        # fully active, k=3 informed, u=13: counts vs the exact one-round law
        N, k = 16, 3
        gen = RngStream(seed=13).protocol_generator()
        reps = 10 ** 5
        active, template = fully_active(N, range(k))
        counts = np.zeros(N - k + 1, dtype=np.int64)
        for _ in range(reps):
            counts[step_naive(active, template.copy(), k, gen) - k] += 1
        exact = naive_step_kernel(N, k, N - k)
        tv = 0.5 * np.abs(counts / reps - exact).sum()
        assert tv <= 0.02

    def test_never_informs_inactive(self):
        gen = RngStream(seed=14).protocol_generator()
        active = np.zeros(20, dtype=bool)
        active[[0, 3, 7]] = True
        informed = np.zeros(20, dtype=bool)
        informed[0] = True
        k = 1
        for _ in range(50):
            k = step_naive(active, informed, k, gen)
        assert not np.any(informed & ~active)
        assert k == np.count_nonzero(informed)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(2, 64), st.integers(0, 10 ** 6))
    def test_informed_monotone(self, N, seed):
        rng = RngStream(seed=seed)
        active = sample_active(N, 0.6, rng)
        informed = np.zeros(N, dtype=bool)
        informed[0] = True
        gen = rng.protocol_generator()
        previous = informed.copy()
        k = 1
        for _ in range(5):
            k = step_naive(active, informed, k, gen)
            assert np.all(informed >= previous)
            previous = informed.copy()

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 200), st.floats(0.0, 1.0), st.floats(0.0, 1.0),
           st.integers(0, 2 ** 32))
    def test_round_contract(self, N, p_active, p_informed, seed):
        # any active mask and informed subset of it: the round is exactly
        # one gen.integers(0, N, size=k) batch, the draw order that
        # (seed, stream_id) coupling rests on, scattered onto active nodes
        masks = np.random.default_rng(seed)
        active = masks.random(N) < p_active
        informed = active & (masks.random(N) < p_informed)
        before = informed.copy()
        k = int(np.count_nonzero(informed))
        gen = np.random.Generator(np.random.PCG64(seed))
        twin = np.random.Generator(np.random.PCG64(seed))
        count = step_naive(active, informed, k, gen)
        targets = twin.integers(0, N, size=k)
        assert gen.bit_generator.state == twin.bit_generator.state
        assert count == np.count_nonzero(informed)
        assert not np.any(informed & ~active)
        expected = before.copy()
        expected[targets[active[targets]]] = True
        assert np.array_equal(informed, expected)


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


def reference_run_cyclic(config, rng):
    """A cyclic trial: step_naive to the phase-1 schedule, then phase 2
    stepped by reference_cyclic_phase2."""
    active = sample_active(config.N, config.p, rng)
    informed = np.zeros(config.N, dtype=bool)
    informed[0] = True
    gen = rng.protocol_generator()
    n = int(np.count_nonzero(active))
    counts = [1]  # the informed count after each step
    cap = config.step_cap
    limit = min(phase1_steps(config.N, config.p,
                             default_phase1_slack(config.N)), cap)
    k = 1
    while k < n and len(counts) <= limit:
        k = step_naive(active, informed, k, gen)
        counts.append(k)
    phase1_end = len(counts) - 1
    if k < n:
        k, _ = reference_cyclic_phase2(active, informed, n, counts, cap)
    eps, p, N = config.epsilon, config.p, config.N
    return TraceResult(
        config=config, n_active=n, completion_time=len(counts) - 1,
        cap_hit=k < n,
        phase1_end=phase1_end,
        threshold_times={"t_eps": first_passage(counts, eps * p * N),
                         "t_one_minus_eps": first_passage(
                             counts, (1.0 - eps) * p * N)},
        trajectory=counts if config.record_trajectory else None)


class TestCyclicPhase2:
    def test_gap_closes_one_node_per_step(self):
        # all active, uninformed run of length g: exactly g further steps
        for g in (1, 3, 5):
            N = 12
            _, cover = _cyclic_phase2_offsets(
                *fully_active(N, [i for i in range(N) if not 4 <= i < 4 + g]))
            clock = int(cover.max())
            assert clock == g

    def test_strict_progress_until_complete(self):
        _, cover = _cyclic_phase2_offsets(*fully_active(30, [0]))
        trajectory = [1] + (1 + np.bincount(cover).cumsum()[1:]).tolist()
        assert trajectory[-1] == 30
        assert all(b > a for a, b in zip(trajectory, trajectory[1:]))

    def test_run_reports_phase_boundary(self):
        cfg = ProtocolConfig(algorithm=Algorithm.CYCLIC, N=4096, p=0.3)
        result = run(cfg, RngStream(seed=21, stream_id=4))
        assert not result.cap_hit
        assert result.phase1_end == phase1_steps(4096, 0.3,
                                                 default_phase1_slack(4096))
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
        au, cover = _cyclic_phase2_offsets(active, informed)
        n = int(active.sum())
        k, informed_at = reference_cyclic_phase2(
            active, informed.copy(), n, [int(informed.sum())], cap=N)
        assert k == n
        assert np.array_equal(au, np.flatnonzero(active & ~informed))
        assert np.array_equal(cover, informed_at[au])

    @pytest.mark.parametrize("p,stream", [(0.3, 0), (0.3, 3), (0.5, 1),
                                          (0.5, 2)])
    def test_run_matches_reference_under_caps(self, p, stream):
        N = 4096
        phase1_end = phase1_steps(N, p, default_phase1_slack(N))
        full = reference_run_cyclic(
            ProtocolConfig(algorithm=Algorithm.CYCLIC, N=N, p=p,
                           record_trajectory=True),
            RngStream(seed=21, stream_id=stream))
        assert full.completion_time > phase1_end + 3
        inside = (phase1_end + full.completion_time) // 2
        for cap in (None, phase1_end, phase1_end + 1, inside):
            cfg = ProtocolConfig(algorithm=Algorithm.CYCLIC, N=N, p=p,
                                 max_steps=cap, record_trajectory=True)
            got = run(cfg, RngStream(seed=21, stream_id=stream))
            expected = reference_run_cyclic(
                cfg, RngStream(seed=21, stream_id=stream))
            assert got == expected, cap
            assert got.cap_hit == (cap is not None)


# ---------------------------------------------------------------------------
# literal re-implementation of the improved phase 2, used as ground truth
# ---------------------------------------------------------------------------

def reference_phase2(active, informed, ell, p, budget):
    """Position-by-position stepping of the segment broadcast plus waves.

    Same pinned semantics as _improved_phase2_offsets, written in the
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
            waves.append({"origin": i, "front": (i + 1) % S,
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
            wid = waves.index(w)
            if claimed_by[s_id] == -1:
                claimed_by[s_id] = wid
                w["size"] += act[s_id]
                continue
            root = waves[claimed_by[s_id]]
            while not root["alive"]:
                root = waves[root["merged_into"]]
            if root is not w:
                root["size"] += w["size"]
                w["alive"] = False
                w["merged_into"] = waves.index(root)
        for w in finished:
            if w["alive"]:
                w["front"] = (w["front"] + 1) % S
                w["progress"] = 0
    return offsets


def sequential_phase2(active, informed, ell, p, budget):
    """Wave engine with a Python loop per wave: a slow reference.

    Same contract as _improved_phase2_offsets, returning (au, cover). Each
    step marks the moving waves' blocks one wave at a time and merges the
    finished waves one at a time, in (segment, cover_start, -size, origin)
    order. It sweeps while an active node is unreached or a scheduled local
    delivery lies ahead.
    """
    N = len(active)
    S = (N + ell - 1) // ell
    seg_of = np.arange(N) // ell
    seg_start = np.arange(S) * ell
    seg_len = np.minimum(ell, N - seg_start)
    seeded = np.bincount(seg_of, weights=informed.astype(np.float64),
                         minlength=S).astype(np.int64)
    act = np.bincount(seg_of, weights=active.astype(np.float64),
                      minlength=S).astype(np.int64)
    threshold = np.ceil(seg_len * p / 2.0).astype(np.int64)
    good = (seeded >= 1) & (act >= threshold)

    au = np.flatnonzero(active & ~informed)
    cover = np.full(len(au), _UNSET, dtype=np.int64)
    if len(au) == 0:
        return au, cover

    # 2a schedule: rank positions within each segment among non-informed slots
    unpos = np.flatnonzero(~informed)
    useg = unpos // ell
    counts = np.bincount(useg, minlength=S)
    starts = np.concatenate(([0], np.cumsum(counts)[:-1]))
    rank = np.arange(len(unpos)) - starts[useg]
    g0 = seeded[useg]
    rounds = np.where(g0 >= 1, rank // np.maximum(g0, 1) + 1, _UNSET)
    cover = rounds[active[unpos]].astype(np.int64)
    broadcast_len = np.where(
        seeded >= 1,
        (seg_len - seeded + np.maximum(seeded, 1) - 1) // np.maximum(seeded, 1),
        0,
    )

    remaining = int(np.count_nonzero(cover == _UNSET))
    assigned = cover[cover != _UNSET]
    pending_max = int(assigned.max()) if len(assigned) else 0
    if S == 1:
        return au, cover

    origin = np.flatnonzero(good)
    W = len(origin)
    if W == 0:
        return au, cover

    front = (origin + 1) % S
    size = act[origin].copy()
    progress = np.zeros(W, dtype=np.int64)
    cover_start = broadcast_len[origin].copy()
    alive = np.ones(W, dtype=bool)
    merged_into = np.arange(W)
    claimed_by = np.full(S, -1, dtype=np.int64)
    claimed_by[origin] = np.arange(W)

    t = 0
    while (remaining > 0 or t < pending_max) and t < budget:
        t += 1
        moving = np.flatnonzero(alive & (cover_start < t))
        if len(moving) == 0:
            if not alive.any():
                break
            continue
        f = front[moving]
        lo = seg_start[f] + progress[moving]
        hi = np.minimum(lo + size[moving], seg_start[f] + seg_len[f])
        li = np.searchsorted(au, lo)
        ri = np.searchsorted(au, hi)
        for j in np.flatnonzero(ri > li):
            block = cover[li[j]:ri[j]]
            late = block > t
            if late.any():
                remaining -= int((block[late] == _UNSET).sum())
                block[late] = t
        progress[moving] += size[moving]
        finished = moving[progress[moving] >= seg_len[f]]
        if len(finished):
            ff = front[finished]
            order = np.lexsort((origin[finished], -size[finished],
                                cover_start[finished], ff))
            for row in order:
                w = int(finished[row])
                s_id = int(ff[row])
                if claimed_by[s_id] == -1:
                    claimed_by[s_id] = w
                    size[w] += act[s_id]
                    continue
                root = int(claimed_by[s_id])
                while not alive[root]:
                    root = int(merged_into[root])
                if root != w:
                    size[root] += size[w]
                    alive[w] = False
                    merged_into[w] = root
            survivors = finished[alive[finished]]
            front[survivors] = (front[survivors] + 1) % S
            progress[survivors] = 0
    return au, cover


def post_phase1_state(N, p, stream):
    """The (active, informed) masks as the improved protocol's warm-up
    leaves them, and the warm-up's informed counts."""
    rng = RngStream(seed=31, stream_id=stream)
    active = sample_active(N, p, rng)
    informed = np.zeros(N, dtype=bool)
    informed[0] = True
    gen = rng.protocol_generator()
    n = int(np.count_nonzero(active))
    counts = [1]
    while (counts[-1] < n
           and len(counts) <= phase1_steps(N, p, default_phase1_slack(N))):
        counts.append(step_naive(active, informed, counts[-1], gen))
    return active, informed, counts


def engine_offsets(active, informed, ell, p, budget):
    au, cover = _improved_phase2_offsets(
        np.asarray(active, dtype=bool), np.asarray(informed, dtype=bool),
        ell, p, budget)
    return {int(x): int(c) for x, c in zip(au, cover) if c <= budget}


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
        budget = 10 * N + 20
        expected = reference_phase2(active, informed, ell, p, budget)
        got = engine_offsets(active, informed, ell, p, budget)
        assert got == expected

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
                        budget = 10 * N + 20
                        expected = reference_phase2(active, informed, ell, p, budget)
                        got = engine_offsets(active, informed, ell, p, budget)
                        assert got == expected, (N, ell, p)

    @pytest.mark.parametrize("N", [2 ** 12, 2 ** 14])
    @pytest.mark.parametrize("p", [0.1, 0.3, 0.5, 0.8])
    def test_matches_sequential_on_warmed_up_networks(self, N, p):
        active, informed, counts = post_phase1_state(N, p, stream=int(10 * p))
        budget = default_max_steps(N, p) - (len(counts) - 1)
        for ell in (default_segment_length(N), 2, 8):
            au, cover = _improved_phase2_offsets(
                active, informed, ell, p, budget)
            ref_au, ref_cover = sequential_phase2(
                active, informed, ell, p, budget)
            assert np.array_equal(au, ref_au), (N, p, ell)
            assert np.array_equal(cover, ref_cover), (N, p, ell)

    def test_merge_cycle_fixture(self):
        # segments [0,5) [5,10) [10,12); the first and last are good. The
        # wave from segment 0 claims segment 1 at step 3; at step 4 it
        # finishes segment 2 (the other wave's) while the other wave
        # finishes segment 0, each claimed by the other's tree. By then
        # every node is covered: the vectorised sweep stops after step 3,
        # the sequential one merges the cycle, and the offsets agree.
        active = np.array([c == "1" for c in "111101000111"])
        informed = np.array([c == "1" for c in "111001000001"])
        expected = reference_phase2(active, informed, 5, 0.9, 100)
        assert expected == {3: 1, 9: 3, 10: 1}
        assert engine_offsets(active, informed, 5, 0.9, 100) == expected
        au, cover = sequential_phase2(active, informed, 5, 0.9, 100)
        assert dict(zip(au.tolist(), cover.tolist())) == expected


class TestImprovedRun:
    def test_completes_and_reports_phases(self):
        cfg = ProtocolConfig(algorithm=Algorithm.IMPROVED_CYCLIC, N=4096, p=0.5)
        result = run(cfg, RngStream(seed=22, stream_id=1))
        assert not result.cap_hit
        assert result.phase1_end == phase1_steps(4096, 0.5,
                                                 default_phase1_slack(4096))
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


class TestSegmentView:
    """The improved protocol's segment census, _segment_census."""

    def test_counts_and_fronts(self):
        active = np.ones(10, dtype=bool)
        informed = np.zeros(10, dtype=bool)
        informed[0] = True
        S, seg_start, seg_len, seeded, act, good = _segment_census(
            active, informed, 4, 1.0)
        assert S == 3
        assert seg_start.tolist() == [0, 4, 8]
        assert seg_len.tolist() == [4, 4, 2]
        assert seeded.tolist() == [1, 0, 0]
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
        *_, good = _segment_census(active, informed, 4, 1.0)
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
        # the oracle draws its own target order, so a coupled trial can see
        # it finish later; check_domination counts such trials at large N
        stream = RngStream(seed=7, stream_id=10)
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
        end = phase1_steps(N, p, default_phase1_slack(N))
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
        _, cover = _cyclic_phase2_offsets(*fully_active(N, informed_idx))
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
        _, cover = _cyclic_phase2_offsets(active, informed)
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
