import numpy as np
import pytest

from pushpull_mac import (
    FrameConfig,
    ObservationModel,
    PushTrigger,
    RcsPopulation,
    SemanticQuery,
    SlotKind,
    run_rcs_frame,
    simulate_rcs,
)
from pushpull_mac.mac_rcs import _independent_frames

from _invariants import generator_emitting

ALL = SemanticQuery(0.0, 1.0)
NONE = SemanticQuery(2.0, 3.0)


def config(s, alpha, k=1):
    return FrameConfig(s, 0.01, k, k, alpha)


def population(n_pull, n_push, threshold=0.5):
    return RcsPopulation(n_pull, n_push, PushTrigger(threshold))


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
            fr = run_rcs_frame(config(20, 1.0), population(2, 10, 0.0), ALL, rng)
            assert fr.push_attempted == 10
            assert fr.push_succeeded == 0
            assert fr.shared_outcomes == ()

    def test_reserved_transmissions_match_query(self):
        rng = np.random.default_rng(2)
        fr = run_rcs_frame(config(30, 1.0), population(12, 6, 0.5), ALL, rng)
        assert fr.matched_pull == 12
        assert sum(o.count for o in fr.reserved_outcomes) == 12
        for o in fr.reserved_outcomes:
            if o.kind is SlotKind.SUCCESS:
                assert o.winner < 12

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
            fr = run_rcs_frame(config(2, 1.0), population(2, 0), ALL, rng, record_outcomes=False)
            wins += fr.retrieval_success
        assert wins / frames == pytest.approx(0.5, abs=0.015)

    def test_zero_reserved_budget_goes_to_shared(self):
        rng = np.random.default_rng(5)
        fr = run_rcs_frame(config(10, 0.0), population(1, 0), ALL, rng)
        assert fr.reserved_outcomes == ()
        assert fr.pull_succeeded_reserved == 0
        assert fr.pull_succeeded_shared == 1  # lone contender in 10 shared slots

    def test_straggler_retry_in_shared(self):
        # 2 matched devices, 1 reserved slot: both collide there, then both
        # retry among the shared slots
        rng = np.random.default_rng(6)
        fr = run_rcs_frame(config(10, 0.1), population(2, 0), ALL, rng)
        assert fr.pull_succeeded_reserved == 0
        assert sum(o.count for o in fr.shared_outcomes) == 2

    def test_packet_size_mismatch_rejected(self):
        with pytest.raises(ValueError, match="equal pull/push packet sizes"):
            run_rcs_frame(
                FrameConfig(10, 0.01, 2, 1, 0.5), population(1, 1), ALL, np.random.default_rng(0)
            )

    def test_multislot_packets_shrink_opportunities(self):
        # S=10, alpha=0.5, 2-slot packets: 2 reserved and 2 shared opportunities
        rng = np.random.default_rng(7)
        fr = run_rcs_frame(config(10, 0.5, k=2), population(6, 0), ALL, rng)
        assert len(fr.reserved_outcomes) == 2

    def test_fixed_observations(self):
        pop = RcsPopulation(
            3, 0, PushTrigger(1.0), observations=ObservationModel(fixed=(0.1, 0.5, 0.9))
        )
        fr = run_rcs_frame(config(20, 1.0), pop, SemanticQuery(0.4, 0.6), np.random.default_rng(8))
        assert fr.matched_pull == 1
        assert fr.pull_succeeded == 1


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
        assert res.record.rcs_push_attempts == 0

    def test_estimates_match_frame_results(self):
        res = simulate_rcs(config(25, 0.4), population(6, 10), ALL, 2000, seed=3)
        assert res.retrieval_accuracy == pytest.approx(
            sum(f.retrieval_success for f in res.frames) / len(res.frames)
        )
        att = sum(f.push_attempted for f in res.frames)
        suc = sum(f.push_succeeded for f in res.frames)
        assert res.push_success_prob == pytest.approx(suc / att)
        assert res.record.rcs_frames == 2000

    def test_deterministic(self):
        a = simulate_rcs(config(25, 0.4), population(6, 10), ALL, 1000, seed=9)
        b = simulate_rcs(config(25, 0.4), population(6, 10), ALL, 1000, seed=9)
        assert a.retrieval_accuracy == b.retrieval_accuracy
        assert [f.pull_succeeded for f in a.frames] == [f.pull_succeeded for f in b.frames]

    def test_more_slots_help_both_metrics(self):
        pop = population(12, 40)
        q = SemanticQuery(0.25, 0.75)
        r25 = simulate_rcs(config(25, 0.4), pop, q, 20_000, seed=11)
        r50 = simulate_rcs(config(50, 0.4), pop, q, 20_000, seed=11)
        assert r50.retrieval_accuracy >= r25.retrieval_accuracy - 0.02
        assert r50.push_success_prob >= r25.push_success_prob - 0.02

    def test_persistent_backlog_retries_until_delivered(self):
        # crowded shared portion: collided updates linger and retry, so the
        # persistent mode logs more attempts than the per-frame default
        pop = population(10, 5, threshold=0.9)
        q = ALL
        cfg = config(12, 0.8)  # 9 reserved, 3 shared slots
        default = simulate_rcs(cfg, pop, q, 4000, seed=13)
        persistent = simulate_rcs(cfg, pop, q, 4000, seed=13, persistent_push_backlog=True)
        assert persistent.record.rcs_push_attempts > default.record.rcs_push_attempts
        # per frame a device attempts at most once
        assert all(f.push_attempted <= 5 for f in persistent.frames)
        # with ample shared slots and no contention the modes coincide
        quiet = population(0, 3, threshold=0.5)
        a = simulate_rcs(config(30, 0.0), quiet, q, 2000, seed=14)
        b = simulate_rcs(config(30, 0.0), quiet, q, 2000, seed=14, persistent_push_backlog=True)
        assert a.record.rcs_push_successes <= b.record.rcs_push_successes

    def test_persistent_backlog_pinned(self):
        # exact values: both modes run one frame kernel, and a change in the
        # persistent mode's draw order or backlog update moves them
        pop = population(12, 40)
        q = SemanticQuery(0.25, 0.75)
        for alpha, accuracy, push_prob, attempts in (
            (0.4, 0.21, 0.06898859559886492, 74708),
            (0.0, 0.002, 0.2115317555376988, 65957),
        ):
            res = simulate_rcs(config(25, alpha), pop, q, 2000, seed=7, persistent_push_backlog=True)
            assert res.retrieval_accuracy == accuracy
            assert res.push_success_prob == push_prob
            assert res.record.rcs_push_attempts == attempts

    def test_persistent_backlog_blocked_at_alpha_one(self):
        pop = population(2, 4, threshold=0.0)
        res = simulate_rcs(config(10, 1.0), pop, ALL, 50, seed=15, persistent_push_backlog=True)
        assert res.record.rcs_push_successes == 0
        # every device goes pending after the first frame and stays there
        assert all(f.push_attempted == 4 for f in res.frames)

    def test_variance_halves_when_frames_double(self):
        pop = population(6, 10)
        cfg = config(25, 0.4)
        accs_n, accs_2n = [], []
        for seed in range(260):
            accs_n.append(simulate_rcs(cfg, pop, ALL, 300, seed=seed).retrieval_accuracy)
            accs_2n.append(simulate_rcs(cfg, pop, ALL, 600, seed=10_000 + seed).retrieval_accuracy)
        ratio = np.var(accs_n) / np.var(accs_2n)
        assert 1.4 <= ratio <= 2.9


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
        # one fixed match and three push devices: frame 0 draws three doubles
        # (none pushes), then one 32-bit draw from output 3, plus one if
        # that half is rejected; a skipped or extra half shifts every later
        # frame's draws, which the push contention then shows
        cfg = config(50, alpha)
        assert (cfg.pull_slot_budget, cfg.push_slot_budget) == ((25, 25) if alpha else (0, 50))
        bound = 25 if alpha else 50  # 2**32 % 50 == 46 rejects REJECTED too
        pop = RcsPopulation(1, 3, PushTrigger(0.5), ObservationModel((0.5,)))
        word = (high << 32) | low
        probe = generator_emitting(word, 3)
        probe.random(3)
        first = probe.integers(0, bound, size=1, dtype=np.int64)
        assert first[0] == ((low if low == self.ACCEPTED else high) * bound) >> 32
        rng = generator_emitting(word, 3)
        expected = [run_rcs_frame(cfg, pop, ALL, rng, record_outcomes=False) for _ in range(50)]
        assert expected[0].push_attempted == 0
        counts = _independent_frames(cfg.pull_slot_budget, cfg.push_slot_budget, pop, ALL, 50, generator_emitting(word, 3))
        assert counts.tolist() == [
            [f.matched_pull, f.pull_succeeded_reserved, f.pull_succeeded_shared, f.push_attempted, f.push_succeeded]
            for f in expected
        ]
