import math
import tracemalloc
from collections import defaultdict

import numpy as np
import pytest

from pushpull_mac import FrameConfig, PushTrigger, RcsPopulation, RcsResult, SemanticQuery, simulate_rcs
from pushpull_mac.mac_rcs import _independent_frames

from _invariants import (
    RcsFrame,
    check_rcs_run,
    generator_emitting,
    match_probability,
    recorded_rcs_rounds,
    run_rcs_frame,
)

ALL = SemanticQuery(0.0, 1.0)
NONE = SemanticQuery(2.0, 3.0)


def config(s, alpha, k=1):
    return FrameConfig(s, 0.01, k, k, alpha)


def population(n_pull, n_push, threshold=0.5):
    return RcsPopulation(n_pull, n_push, PushTrigger(threshold))


def push_attempts(res):
    return int(res.frames[:, 3].sum())


def push_successes(res):
    return int(res.frames[:, 4].sum())


def frame_rows(res):
    return [RcsFrame(*row) for row in res.frames.tolist()]


class TestRunRcsFrame:
    def test_no_matches_is_vacuous_success(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            fr = run_rcs_frame(config(20, 0.5), population(8, 8, 0.0), NONE, rng)
            assert fr.matched_pull == 0
            assert fr.retrieval_success

    def test_alpha_one_blocks_push(self):
        rng = np.random.default_rng(1)
        for _ in range(200):
            with recorded_rcs_rounds() as rounds:
                fr = run_rcs_frame(config(20, 1.0), population(2, 10, 0.0), ALL, rng)
            assert fr.push_attempted == 10
            assert fr.push_succeeded == 0
            assert [r.n_slots for r in rounds] == [20]  # the reserved round only

    def test_reserved_transmissions_match_query(self):
        rng = np.random.default_rng(2)
        with recorded_rcs_rounds() as rounds:
            fr = run_rcs_frame(config(30, 1.0), population(12, 6, 0.5), ALL, rng)
        assert fr.matched_pull == 12
        assert fr.push_attempted > 0
        # the 12 matched devices and none of the pushing ones transmit
        (reserved,) = rounds
        assert reserved.n_slots == 30
        assert len(reserved.choices) == reserved.counts.sum() == 12
        assert np.count_nonzero(reserved.winner_mask) == fr.pull_succeeded_reserved

    def test_two_matched_one_slot_always_collide(self):
        rng = np.random.default_rng(3)
        for _ in range(300):
            fr = run_rcs_frame(config(1, 1.0), population(2, 0), ALL, rng)
            assert fr.matched_pull == 2
            assert fr.pull_succeeded == 0
            assert not fr.retrieval_success

    def test_two_matched_two_reserved_slots_half(self):
        rng = np.random.default_rng(4)
        wins = 0
        frames = 30_000
        for _ in range(frames):
            fr = run_rcs_frame(config(2, 1.0), population(2, 0), ALL, rng)
            wins += fr.retrieval_success
        assert wins / frames == pytest.approx(0.5, abs=0.015)

    def test_zero_reserved_budget_goes_to_shared(self):
        rng = np.random.default_rng(5)
        with recorded_rcs_rounds() as rounds:
            fr = run_rcs_frame(config(10, 0.0), population(1, 0), ALL, rng)
        assert [r.n_slots for r in rounds] == [10]  # the shared round only
        assert fr.pull_succeeded_reserved == 0
        assert fr.pull_succeeded_shared == 1  # lone contender in 10 shared slots

    def test_straggler_retry_in_shared(self):
        # 2 matched devices, 1 reserved slot: both collide there, then both
        # retry among the shared slots
        rng = np.random.default_rng(6)
        with recorded_rcs_rounds() as rounds:
            fr = run_rcs_frame(config(10, 0.1), population(2, 0), ALL, rng)
        assert fr.pull_succeeded_reserved == 0
        reserved, shared = rounds
        assert reserved.counts.tolist() == [2]
        assert (shared.n_slots, shared.counts.sum()) == (9, 2)

    def test_packet_size_mismatch_rejected(self):
        with pytest.raises(ValueError, match="equal pull/push packet sizes"):
            run_rcs_frame(
                FrameConfig(10, 0.01, 2, 1, 0.5), population(1, 1), ALL, np.random.default_rng(0)
            )

    def test_multislot_packets_shrink_opportunities(self):
        # S=10, alpha=0.5, 2-slot packets: 2 reserved and 2 shared opportunities
        rng = np.random.default_rng(7)
        with recorded_rcs_rounds() as rounds:
            run_rcs_frame(config(10, 0.5, k=2), population(6, 0), ALL, rng)
        assert rounds[0].n_slots == 2
        assert [len(r.counts) for r in rounds] == [2] * len(rounds)

    def test_matches_are_the_observations_in_the_query(self):
        # the frame's first draws are one observation per pull device
        query = SemanticQuery(0.4, 0.6)
        observations = np.random.default_rng(8).random(40)
        matching = int(np.count_nonzero(query.match_mask(observations)))
        assert 0 < matching < 40
        fr = run_rcs_frame(config(20, 1.0), population(40, 0), query, np.random.default_rng(8))
        assert fr.matched_pull == matching
        # a lone match gets through
        lone = next(n for n in range(1, 40) if np.count_nonzero(query.match_mask(observations[:n])) == 1)
        fr = run_rcs_frame(config(20, 1.0), population(lone, 0), query, np.random.default_rng(8))
        assert fr.matched_pull == fr.pull_succeeded == 1


class TestSimulateRcs:
    def test_rejects_zero_frames(self):
        with pytest.raises(ValueError):
            simulate_rcs(config(10, 0.5), population(2, 2), ALL, 0, seed=1)

    def test_never_matching_query_gives_full_accuracy(self):
        res = simulate_rcs(config(10, 0.5), population(5, 5), NONE, 500, seed=1)
        assert res.retrieval_accuracy == 1.0

    def test_no_push_attempts_reported_absent(self):
        res = simulate_rcs(config(10, 0.5), population(3, 5, threshold=1.0), ALL, 500, seed=1)
        assert res.push_success_prob is None
        assert push_attempts(res) == 0

    def test_estimates_match_frame_results(self):
        res = simulate_rcs(config(25, 0.4), population(6, 10), ALL, 2000, seed=3)
        frames = frame_rows(res)
        assert res.retrieval_accuracy == pytest.approx(sum(f.retrieval_success for f in frames) / len(frames))
        att = sum(f.push_attempted for f in frames)
        suc = sum(f.push_succeeded for f in frames)
        assert res.push_success_prob == pytest.approx(suc / att)
        assert res.frames.shape == (2000, 5) and res.frames.dtype == np.int64

    def test_deterministic(self):
        a = simulate_rcs(config(25, 0.4), population(6, 10), ALL, 1000, seed=9)
        b = simulate_rcs(config(25, 0.4), population(6, 10), ALL, 1000, seed=9)
        assert a.retrieval_accuracy == b.retrieval_accuracy
        assert a.frames.tolist() == b.frames.tolist()

    def test_more_slots_help_both_metrics(self):
        pop = population(12, 40)
        q = SemanticQuery(0.25, 0.75)
        r25 = simulate_rcs(config(25, 0.4), pop, q, 20_000, seed=11)
        r50 = simulate_rcs(config(50, 0.4), pop, q, 20_000, seed=11)
        assert r50.retrieval_accuracy >= r25.retrieval_accuracy - 0.02
        assert r50.push_success_prob >= r25.push_success_prob - 0.02

    def test_block_memory_does_not_grow_with_slots(self):
        # 25000 shared slots: the counts of a 128-frame block's shared rounds
        # would take 24 MiB, so only the slots chosen are counted; the frames
        # stay those of the per-draw reference
        cfg, pop, q = config(50_000, 0.5), population(12, 40), SemanticQuery(0.25, 0.75)
        tracemalloc.start()
        try:
            simulate_rcs(cfg, pop, q, 300, seed=7)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 20 * 2**20
        check_rcs_run(cfg, pop, q, 300, seed=7)

    def test_frame_memory_does_not_grow_with_slots(self):
        # 2**21 shared slots: one frame's shared-round counts alone would
        # take 16 MiB
        cfg, pop, q = config(2**22, 0.5), population(12, 40), SemanticQuery(0.25, 0.75)
        tracemalloc.start()
        try:
            simulate_rcs(cfg, pop, q, 5, seed=7)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20
        check_rcs_run(cfg, pop, q, 5, seed=7)

    def test_variance_halves_when_frames_double(self):
        pop = population(6, 10)
        cfg = config(25, 0.4)
        accs_n, accs_2n = [], []
        for seed in range(260):
            accs_n.append(simulate_rcs(cfg, pop, ALL, 300, seed=seed).retrieval_accuracy)
            accs_2n.append(simulate_rcs(cfg, pop, ALL, 600, seed=10_000 + seed).retrieval_accuracy)
        ratio = np.var(accs_n) / np.var(accs_2n)
        assert 1.4 <= ratio <= 2.9


class TestRcsResult:
    def test_estimators_read_from_frame_counts(self):
        # (matched, reserved wins, shared wins, push attempts, push successes)
        two = RcsResult(np.array([[2, 1, 1, 3, 1], [1, 0, 0, 1, 0]], dtype=np.int64))
        assert two.retrieval_accuracy == 0.5
        assert two.push_success_prob == 0.25
        silent = RcsResult(np.array([[0, 0, 0, 0, 0]], dtype=np.int64))
        assert silent.retrieval_accuracy == 1.0
        assert silent.push_success_prob is None

    def test_pooled_replications_weigh_frames_and_attempts(self):
        # pooling concatenates frame counts: the estimates are totals over
        # totals, not means of per-run estimates
        runs = [simulate_rcs(config(25, 0.4), population(6, 10), ALL, n, seed=n) for n in (300, 900)]
        pooled = RcsResult(np.concatenate([r.frames for r in runs]))
        assert len(pooled.frames) == 1200
        wins = sum(f.retrieval_success for r in runs for f in frame_rows(r))
        assert pooled.retrieval_accuracy == wins / 1200
        assert pooled.push_success_prob == sum(map(push_successes, runs)) / sum(map(push_attempts, runs))


def _binomial(n, p):
    """P(K = k) for K ~ Bin(n, p), k = 0..n."""
    return [math.comb(n, k) * p**k * (1 - p) ** (n - k) for k in range(n + 1)]


def _stragglers(m, r):
    """P(X = x), x = 0..m, where X counts the balls that do not land alone
    when m balls fall uniformly into r slots (the occupancy law; Kolchin et
    al., Random Allocations, 1978), by a walk over (empty, singleton) slot
    counts.  Without slots every ball is a straggler."""
    if r == 0:
        return [0.0] * m + [1.0]
    states = {(r, 0): 1.0}
    for _ in range(m):
        after = defaultdict(float)
        for (empty, alone), pr in states.items():
            crowded = r - empty - alone
            if empty:
                after[empty - 1, alone + 1] += pr * empty / r
            if alone:
                after[empty, alone - 1] += pr * alone / r
            if crowded:
                after[empty, alone] += pr * crowded / r
        states = after
    law = [0.0] * (m + 1)
    for (_, alone), pr in states.items():
        law[m - alone] += pr
    return law


def _all_alone(tagged, others, slots):
    """P(each of ``tagged`` balls lands alone) when ``tagged + others`` balls
    fall uniformly into ``slots`` slots: falling(slots, tagged) *
    (slots - tagged)**others / slots**(tagged + others)."""
    if tagged == 0:
        return 1.0
    if slots < tagged:
        return 0.0
    return math.perm(slots, tagged) * (slots - tagged) ** others / slots ** (tagged + others)


def rcs_exact(cfg, pop, query):
    """(retrieval accuracy, pooled push success) of independent RCS frames
    with one-slot packets.  M ~ Bin(n_pull, match probability) devices match
    and contend in R reserved slots; the X stragglers retry among X + P
    contenders in Sh shared slots, P ~ Bin(n_push, 1 - threshold).  A frame
    retrieves iff every straggler lands alone; the pooled push success is
    E[push successes] / E[P]."""
    reserved, shared = cfg.pull_slot_budget, cfg.push_slot_budget
    p_push = 1.0 - pop.trigger.threshold
    accuracy = push_won = 0.0
    for m, pm in enumerate(_binomial(pop.n_pull_devices, match_probability(query))):
        for x, px in enumerate(_stragglers(m, reserved)):
            for n_push, pp in enumerate(_binomial(pop.n_push_devices, p_push)):
                w = pm * px * pp
                accuracy += w * _all_alone(x, n_push, shared)
                if n_push:
                    push_won += w * n_push * _all_alone(1, x + n_push - 1, shared)
    return accuracy, push_won / (pop.n_push_devices * p_push)


def z_score(residuals):
    """Mean over standard error of per-frame residuals whose exact mean is 0."""
    sd = residuals.std(ddof=1)
    if sd == 0:
        return 0.0 if residuals.mean() == 0 else math.inf
    return residuals.mean() * math.sqrt(len(residuals)) / sd


class TestExactOracle:
    """``simulate_rcs`` against the closed forms of ``rcs_exact`` on the
    reference geometry (12 pull / 40 push devices, query [0.25, 0.75],
    threshold 0.5).  The closed forms do not depend on the random stream,
    so they hold whatever the draw order."""

    POP = population(12, 40, threshold=0.5)
    QUERY = SemanticQuery(0.25, 0.75)

    def test_closed_form_reference_value(self):
        accuracy, _ = rcs_exact(config(50, 0.4), self.POP, self.QUERY)
        assert accuracy == pytest.approx(0.55634, abs=5e-6)

    def test_occupancy_law_small_cases(self):
        # two balls in two slots: both alone or both crowded, half the time each
        assert _stragglers(2, 2) == pytest.approx([0.5, 0.0, 0.5])
        # three balls in three slots: 6 of 27 placements are all-alone, 3 all-crowded
        assert _stragglers(3, 3) == pytest.approx([6 / 27, 0.0, 18 / 27, 3 / 27])
        for m, r in ((5, 7), (12, 20), (4, 1)):
            assert sum(_stragglers(m, r)) == pytest.approx(1.0)

    @pytest.mark.parametrize("s, alpha", [(25, 0.0), (50, 0.4), (75, 0.8), (50, 1.0)])
    def test_simulation_matches_closed_form(self, s, alpha):
        cfg = config(s, alpha)
        accuracy, push_success = rcs_exact(cfg, self.POP, self.QUERY)
        counts = simulate_rcs(cfg, self.POP, self.QUERY, 40_000, seed=2024).frames
        matched, reserved, shared, attempted, succeeded = counts.T
        retrieved = (reserved + shared == matched).astype(np.float64)
        assert abs(z_score(retrieved - accuracy)) <= 4
        assert abs(z_score(succeeded - push_success * attempted)) <= 4
        if alpha == 1.0:
            assert push_success == 0.0 and not succeeded.any()


class TestRejectedDraws:
    """numpy rejects a 32-bit word w for a draw below n when (w * n) mod 2**32
    < 2**32 % n and takes the next word instead; the block kernel replays
    that rule, also for the high half a frame leaves buffered."""

    REJECTED = 171798692  # 171798692 * 25 == 2**32 + 4, and 4 < 2**32 % 25 == 21
    ACCEPTED = 7

    @pytest.mark.parametrize(
        "alpha, low, high",
        [
            (0.5, REJECTED, ACCEPTED),  # reserved round skips a fresh half
            (0.5, ACCEPTED, REJECTED),  # next frame's reserved round skips the buffered half
            (0.0, REJECTED, ACCEPTED),  # shared round skips a fresh half
            (0.0, ACCEPTED, REJECTED),  # next frame's shared round skips the buffered half
        ],
    )
    def test_matches_numpy(self, alpha, low, high):
        # one pull device, which matches ALL, and three push devices: frame 0
        # draws four doubles (outputs 1-3 are <= 0.5, so none pushes), then
        # one 32-bit draw from output 4, plus one if that half is rejected; a
        # skipped or extra half shifts every later frame's draws, which the
        # push contention then shows
        cfg = config(50, alpha)
        assert (cfg.pull_slot_budget, cfg.push_slot_budget) == ((25, 25) if alpha else (0, 50))
        bound = 25 if alpha else 50  # 2**32 % 50 == 46 rejects REJECTED too
        pop = population(1, 3)
        word = (high << 32) | low
        probe = generator_emitting(word, 4)
        assert (probe.random(4)[1:] <= 0.5).all()
        first = probe.integers(0, bound, size=1, dtype=np.int64)
        assert first[0] == ((low if low == self.ACCEPTED else high) * bound) >> 32
        rng = generator_emitting(word, 4)
        expected = [run_rcs_frame(cfg, pop, ALL, rng) for _ in range(50)]
        assert (expected[0].matched_pull, expected[0].push_attempted) == (1, 0)
        counts = _independent_frames(cfg.pull_slot_budget, cfg.push_slot_budget, pop, ALL, 50, generator_emitting(word, 4))
        assert counts.tolist() == [list(f) for f in expected]
