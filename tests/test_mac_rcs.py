import math
import tracemalloc

import numpy as np
import pytest

from pushpull_mac import FrameConfig, PushTrigger, RcsPopulation, RcsResult, SemanticQuery, mac_rcs, rawdraw, simulate_rcs
from pushpull_mac.mac_rcs import _independent_frames

from _invariants import (
    RcsFrame,
    _stragglers,
    check_rcs_run,
    generator_emitting,
    match_probability,
    rcs_exact,
    recorded_rcs_rounds,
    run_rcs_frame,
    z_score,
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
        # 25000 shared slots: the counts of a window's shared rounds (about
        # 125 frames of this population) would take 24 MiB, so only the slots
        # chosen are counted; the frames stay those of the per-draw reference
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


class TestWindow:
    """The kernel walks fixed windows of raw output: it keeps the unused
    words and the word of a pending buffered half, then appends fresh ones."""

    def test_pending_half_does_not_pin_the_window(self):
        # only frame 0 matches, and its one reserved draw leaves a buffered
        # half that no later frame takes (nobody pushes); keeping every word
        # from that half on would hold the run's 4 million words (a 200 MiB
        # peak)
        cfg, pop = config(50, 0.5), RcsPopulation(1, 2000, PushTrigger(1.0))
        x0 = float(np.random.default_rng(7).random())
        q = SemanticQuery(x0, x0)
        tracemalloc.start()
        try:
            res = simulate_rcs(cfg, pop, q, 2000, seed=7)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20
        assert res.frames[:, 0].tolist() == [1] + [0] * 1999 and not res.frames[:, 3].any()
        check_rcs_run(cfg, pop, q, 2000, seed=7)

    def test_held_half_taken_windows_later(self):
        # 4000 rarely pushing devices and two shared slots: frame 3's lone
        # push leaves a buffered half, which waits five silent frames (20000
        # words; a window, twice a frame's worst case, is 12000) until frame
        # 8's two pushes take it and one fresh half; whether they collide
        # reads the held half's value
        cfg, pop = config(2, 0.0), population(0, 4000, threshold=1 - 1e-4)
        rng = np.random.default_rng(8)
        frames = [run_rcs_frame(cfg, pop, ALL, rng) for _ in range(30)]
        assert [f.push_attempted for f in frames[:9]] == [0, 0, 0, 1, 0, 0, 0, 0, 2]
        check_rcs_run(cfg, pop, ALL, 30, seed=8)

    def test_rejections_overrun_the_window(self, monkeypatch):
        # two always-pushing devices and 50 shared slots: a frame takes two
        # doubles and one word of halves, so with a window of six words
        # frame 1 ends at the window's last word.  Its first half is
        # rejected, so its second draw lies past the window's end and the
        # frame starts the next window
        monkeypatch.setattr(mac_rcs, "_WINDOW_WORDS", 6)
        cfg, pop = config(50, 0.0), population(0, 2, threshold=0.0)
        word = (TestRejectedDraws.ACCEPTED << 32) | TestRejectedDraws.REJECTED
        raw = generator_emitting(word, 5).bit_generator.random_raw(6)
        assert rawdraw.rejected(rawdraw.halves_of(raw), 50) == [10]
        rng = generator_emitting(word, 5)
        expected = [run_rcs_frame(cfg, pop, ALL, rng) for _ in range(10)]
        assert [f.push_attempted for f in expected] == [2] * 10
        counts = _independent_frames(0, 50, pop, ALL, 10, generator_emitting(word, 5))
        assert counts.tolist() == [list(f) for f in expected]


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
    < 2**32 % n and takes the next word instead; the kernel replays that
    rule, also for the high half a frame leaves buffered."""

    REJECTED = 171798692  # 171798692 * 25 == 2**32 + 4, and 4 < 2**32 % 25 == 21
    ACCEPTED = 7

    # (alpha, low, high, position): the built output and where it lands
    CASES = [
        (0.5, REJECTED, ACCEPTED, 4),  # reserved round skips a fresh half
        (0.5, ACCEPTED, REJECTED, 4),  # next frame's reserved round skips the buffered half
        (0.0, REJECTED, ACCEPTED, 4),  # shared round skips a fresh half
        (0.0, ACCEPTED, REJECTED, 4),  # next frame's shared round skips the buffered half
        (0.0, REJECTED, ACCEPTED, 9),  # next frame's shared round takes the buffered half, then skips a fresh one
    ]

    @pytest.mark.parametrize(
        "alpha, low, high, position",
        [
            pytest.param(*case, id="-".join(map(str, case[:3])) + ("" if case[3] == 4 else f"-at-{case[3]}"))
            for case in CASES
        ],
    )
    def test_matches_numpy(self, alpha, low, high, position):
        # one pull device, which matches ALL, and three push devices: frame 0
        # draws four doubles (outputs 1-3 are <= 0.5, so none pushes), then
        # one 32-bit draw from output 4, plus one if that half is rejected; a
        # skipped or extra half shifts every later frame's draws, which the
        # push contention then shows.  At position 9, output 4's low half is
        # frame 0's one draw and its high half stays buffered; frame 1 draws
        # outputs 5-8 as doubles, and one of 6-8 pushes, so its shared round
        # of two or more takes the buffered half and then output 9's halves,
        # the low one rejected.  Search high state halves, from the default,
        # until the outputs before the built one give that layout.
        cfg = config(50, alpha)
        assert (cfg.pull_slot_budget, cfg.push_slot_budget) == ((25, 25) if alpha else (0, 50))
        bound = 25 if alpha else 50  # 2**32 % 50 == 46 rejects REJECTED too
        pop = population(1, 3)
        word = (high << 32) | low
        for i in range(200):
            state = (0x9E3779B97F4A7C18 + i * 0x2545F4914F6CDD1D) % 2**64
            raw = generator_emitting(word, position, state).bit_generator.random_raw(position + 1)
            pushes = (raw >> np.uint64(11)) * 2.0**-53 > 0.5  # the doubles numpy draws
            if not pushes[1:4].any() and (position == 4 or pushes[6:9].any()):
                break
        else:
            raise AssertionError("no state gives the layout")
        if position == 4:
            probe = generator_emitting(word, position, state)
            probe.random(4)
            first = probe.integers(0, bound, size=1, dtype=np.int64)
            assert first[0] == ((low if low == self.ACCEPTED else high) * bound) >> 32
        else:  # output 4's halves are accepted: one draw in frame 0 and the buffered one in frame 1
            assert not rawdraw.rejected(rawdraw.halves_of(raw[4:5]), bound)
        rng = generator_emitting(word, position, state)
        expected = [run_rcs_frame(cfg, pop, ALL, rng) for _ in range(50)]
        assert (expected[0].matched_pull, expected[0].push_attempted) == (1, 0)
        if position == 9:
            assert expected[1].matched_pull + expected[1].push_attempted >= 2
        rng = generator_emitting(word, position, state)
        counts = _independent_frames(cfg.pull_slot_budget, cfg.push_slot_budget, pop, ALL, 50, rng)
        assert counts.tolist() == [list(f) for f in expected]


class TestRawWordBounds:
    """The kernel tests a double d = (x >> 11) * 2**-53 against the query and
    the trigger as its raw word x against least raw words
    (``rawdraw.least_word``); at the words next to every bound that must
    agree with ``match_mask`` and ``fires`` on d."""

    QUERIES = [
        (0.25, 0.75),
        (0.5, 0.5),  # lo == hi on the grid
        (0.1, 0.1),  # lo == hi between grid points
        (-0.5, 0.3),
        (-3.0, -2.0),
        (0.2, 1.0),
        (0.2, 1.5),
        (1.0, 1.0),
        (2.0, 3.0),
        (0.0, 0.0),
        (-1e308, 1e308),
        (2**-53, 1 - 2**-53),
        (1 - 2**-53, 1 - 2**-53),
    ]
    THRESHOLDS = [0.0, 1.0, 1 - 2**-53, 2**-53, 0.5, 0.1]

    @staticmethod
    def words_near(*bounds):
        """Raw words whose doubles are k - 1, k, k + 1 times 2**-53 for each
        bound's k = floor(bound * 2**53), and the least and greatest doubles,
        each with the 11 low bits (which the double drops) clear and set."""
        ks = {0, 2**53 - 1}
        for b in bounds:
            k = math.floor(min(max(b, -1.0), 2.0) * 2**53)
            ks.update((k - 1, k, k + 1))
        return np.array([k << 11 | low for k in sorted(ks) if 0 <= k < 2**53 for low in (0, 2**11 - 1)], dtype=np.uint64)

    @staticmethod
    def doubles(words):
        return (words >> np.uint64(11)) * 2.0**-53

    @pytest.mark.parametrize("lo, hi", QUERIES)
    def test_match_on_words(self, lo, hi):
        words = self.words_near(lo, hi)
        got = (words >= rawdraw.least_word(lo)) & (words < rawdraw.least_word(hi, strict=True))
        assert got.tolist() == SemanticQuery(lo, hi).match_mask(self.doubles(words)).tolist()

    @pytest.mark.parametrize("threshold", THRESHOLDS)
    def test_push_on_words(self, threshold):
        words = self.words_near(threshold)
        got = words >= rawdraw.least_word(threshold, strict=True)
        assert got.tolist() == PushTrigger(threshold).fires(self.doubles(words)).tolist()

    def test_least_words(self):
        assert rawdraw.least_word(0.25) == 2**51 << 11  # 0.25 itself is a double
        assert rawdraw.least_word(0.25, strict=True) == (2**51 + 1) << 11
        assert rawdraw.least_word(0.1) == rawdraw.least_word(0.1, strict=True)  # 0.1 is not
        assert rawdraw.least_word(-0.5) == rawdraw.least_word(0.0) == 0
        assert rawdraw.least_word(0.0, strict=True) == 2**11
        assert rawdraw.least_word(1 - 2**-53) == 2**64 - 2**11
        # no double reaches 1: the least word is past every word
        assert rawdraw.least_word(1.0) == rawdraw.least_word(1 - 2**-53, strict=True) == rawdraw.least_word(1e308) == 2**64

    # (k, n_pull, n_push, query, threshold): one device, whose observation
    # is the run's first output, with double k * 2**-53
    EDGE_FRAMES = [
        (2**51, 1, 0, (0.25, 0.75), 0.5),  # d == lo matches
        (2**51 - 1, 1, 0, (0.25, 0.75), 0.5),  # just below lo
        (3 * 2**51, 1, 0, (0.25, 0.75), 0.5),  # d == hi matches
        (3 * 2**51 + 1, 1, 0, (0.25, 0.75), 0.5),  # just above hi
        (2**52, 0, 1, (0.0, 1.0), 0.5),  # d == threshold does not push
        (2**52 + 1, 0, 1, (0.0, 1.0), 0.5),  # just above it pushes
        (2**53 - 1, 0, 1, (0.0, 1.0), 1 - 2**-53),  # the greatest double is not above 1 - 2**-53
    ]

    @pytest.mark.parametrize("low", [0, 2**11 - 1])  # the bits the double drops
    @pytest.mark.parametrize("k, n_pull, n_push, bounds, threshold", EDGE_FRAMES)
    def test_kernel_at_exact_bounds(self, k, n_pull, n_push, bounds, threshold, low):
        cfg, pop, query = config(10, 0.5), population(n_pull, n_push, threshold), SemanticQuery(*bounds)
        word = k << 11 | low
        rng = generator_emitting(word, 0)
        expected = [run_rcs_frame(cfg, pop, query, rng) for _ in range(20)]
        counts = _independent_frames(cfg.pull_slot_budget, cfg.push_slot_budget, pop, query, 20, generator_emitting(word, 0))
        assert counts.tolist() == [list(f) for f in expected]
        d = np.array([k * 2.0**-53])
        decided = query.match_mask(d)[0] if n_pull else pop.trigger.fires(d)[0]
        assert counts[0, 0] + counts[0, 3] == decided


class TestWindowCounts:
    """``_window_counts`` sums a mask over every width-word window by
    doubling sums, in the narrowest type that holds ``width``."""

    @pytest.mark.parametrize("width", [0, 1, 12, 40, 255, 256, 4000])
    @pytest.mark.parametrize("offset", [0, 3, 41])
    def test_matches_cumsum(self, width, offset):
        n_starts = 700
        mask = np.random.default_rng(width + offset).random(offset + n_starts + width + 5) < 0.7
        total = np.concatenate(([0], np.cumsum(mask)))
        want = total[offset + width : offset + width + n_starts] - total[offset : offset + n_starts]
        got = mac_rcs._window_counts(mask, offset, width, n_starts)
        assert got.tolist() == want.tolist()
        assert got.itemsize == (1 if width < 256 else 2)

    def test_full_windows(self):
        # every word set: the counts reach the type's top at 255
        got = mac_rcs._window_counts(np.ones(300, dtype=bool), 2, 255, 40)
        assert got.tolist() == [255] * 40 and got.itemsize == 1


class TestReservedRound:
    """The walk reads a reserved round's winners as 2k - m from its k
    distinct choices among m when at most one slot is chosen twice, and
    counts the lone choices otherwise; both against the per-draw reference."""

    @staticmethod
    def reserved_choices(cfg, pop, n_frames, seed):
        """Each frame's reserved choices in the per-draw reference."""
        rng = np.random.default_rng(seed)
        with recorded_rcs_rounds() as rounds:
            for _ in range(n_frames):
                run_rcs_frame(cfg, pop, ALL, rng)
        return [r.choices.tolist() for r in rounds if r.n_slots == cfg.pull_slot_budget]

    @pytest.mark.parametrize("alpha, n_pull", [(0.2, 6), (0.2, 12), (0.3, 8), (0.3, 12)])
    def test_slots_chosen_three_times(self, alpha, n_pull):
        cfg, pop = config(10, alpha), population(n_pull, 4)
        assert cfg.pull_slot_budget in (2, 3) and cfg.pull_slot_budget != cfg.push_slot_budget
        choices = self.reserved_choices(cfg, pop, 200, seed=n_pull)
        assert all(len(set(c)) < len(c) - 1 for c in choices)  # every frame takes the count
        assert any(max(map(c.count, c)) >= 3 for c in choices)
        check_rcs_run(cfg, pop, ALL, 200, seed=n_pull)

    def test_one_pair_collides(self):
        # three devices in three slots: all alone, one pair and a lone
        # device (2k - m = 1), or all in one slot
        cfg, pop = config(10, 0.3), population(3, 4)
        choices = self.reserved_choices(cfg, pop, 300, seed=5)
        patterns = {tuple(sorted(map(c.count, c))) for c in choices}
        assert {(1, 1, 1), (1, 2, 2), (3, 3, 3)} <= patterns
        check_rcs_run(cfg, pop, ALL, 300, seed=5)
