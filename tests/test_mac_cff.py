import hashlib
import math
import time
import tracemalloc
from collections import Counter
from typing import NamedTuple

import numpy as np
import pytest

from pushpull_mac import (
    FrameConfig,
    PacketClass,
    mac_cff,
    rawdraw,
    schedule_pull,
    simulate_cff,
    uniform_slot_contention,
)
from pushpull_mac.mac_cff import PushAbortRule, contention_rounds
from pushpull_mac.capacity import WARMUP_FRACTION
from pushpull_mac.metrics import reliability_within, slot_budget
from _invariants import (
    check_cff_matches_reference,
    empirical_quantile,
    frame_arrival_counts,
    generator_emitting,
    pull_on_time,
    z_score,
)

PULL, PUSH = PacketClass.PULL, PacketClass.PUSH


def paper_config(alpha):
    return FrameConfig(100, 0.01, 5, 1, alpha)


def delivery_log(config, pull_rate, push_rate, horizon_frames, seed, **kw):
    """Run simulate_cff and return {klass: [(arrival_slots, delivery_slots), ...]}."""
    log = {PULL: [], PUSH: []}
    simulate_cff(
        config, pull_rate, push_rate, horizon_frames, seed,
        on_delivery=lambda klass, arrival, delivery: log[klass].append((arrival, delivery)),
        **kw,
    )
    return log


class TestPullQueue:
    def test_fifo_order_enforced(self):
        # overloaded pull: packets pile up, several share an arrival slot, and
        # the queue is served oldest first, one block per packet
        log = delivery_log(paper_config(0.2), 3000, 0, 60, seed=8)
        arrival = np.concatenate([a for a, _ in log[PULL]])
        delivery = np.concatenate([d for _, d in log[PULL]])
        assert (np.diff(arrival) >= 0).all()
        assert (np.diff(arrival) == 0).any()
        assert (np.diff(delivery) > 0).all()


def reference_schedule(joining, capacity, slots_per_frame, packet_slots):
    """Frame-by-frame FIFO service: the loop that schedule_pull unrolls."""
    out, queued = [], 0
    for g, n in enumerate(joining):
        queued += n
        k = min(queued, capacity)
        out += [g * slots_per_frame + (b + 1) * packet_slots - 1 for b in range(k)]
        queued -= k
    return out


class TestSchedulePull:
    def test_small_queue_fully_served(self):
        # three packets queued for frame 1 (slots 100..199) fill its first 5-slot blocks
        served = schedule_pull(np.array([0, 3]), capacity=20, slots_per_frame=100, packet_slots=5)
        assert served.dtype == np.int64
        assert served.tolist() == [104, 109, 114]

    def test_excess_resched_next_frame(self):
        served = schedule_pull(np.array([25]), capacity=20, slots_per_frame=100, packet_slots=5)
        assert len(served) == 20
        # the five most recent arrivals stay queued and lead the next frame
        served = schedule_pull(np.array([25, 0]), capacity=20, slots_per_frame=100, packet_slots=5)
        assert served[20:].tolist() == [104, 109, 114, 119, 124]

    def test_empty_queue(self):
        assert schedule_pull(np.zeros(3, dtype=np.int64), capacity=20, slots_per_frame=100).size == 0
        assert schedule_pull(np.empty(0, dtype=np.int64), capacity=20, slots_per_frame=100).size == 0

    def test_zero_capacity(self):
        assert schedule_pull(np.array([2, 5]), capacity=0, slots_per_frame=100).size == 0

    def test_backlog_carries_over_frames(self):
        # each frame serves min(queued, capacity), oldest first; the rest waits
        joining = np.array([25, 30, 0, 3, 0])
        served = schedule_pull(joining, capacity=20, slots_per_frame=100, packet_slots=4)
        assert np.bincount(served // 100).tolist() == [20, 20, 15, 3]
        assert served.tolist() == reference_schedule(joining.tolist(), 20, 100, 4)
        rng = np.random.default_rng(3)
        for _ in range(200):
            joining = rng.poisson(rng.uniform(0, 8), size=int(rng.integers(1, 30)))
            args = (int(rng.integers(0, 8)), 50, int(rng.integers(1, 5)))
            assert schedule_pull(joining, *args).tolist() == reference_schedule(joining.tolist(), *args)


def reference_rounds(choice, n_slots, group, n_groups):
    """The framed-ALOHA rule per round with a Counter: the win mask."""
    per_round = [Counter() for _ in range(n_groups)]
    for slot, r in zip(choice, group):
        per_round[r][slot] += 1
    return [n_slots > 0 and per_round[r][slot] == 1 for slot, r in zip(choice, group)]


class TestContentionRounds:
    @pytest.mark.parametrize("n_slots", [0, 1, 2, 7, 50])
    def test_matches_a_per_round_counter(self, n_slots):
        rng = np.random.default_rng(n_slots)
        for _ in range(40):
            n_groups = int(rng.choice([1, 2, 9, 60]))
            n = int(rng.integers(0, 4 * max(n_slots, 1) * n_groups + 2))
            choice = rng.integers(0, max(n_slots, 1), size=n)  # no slot: only the length is read
            group = rng.integers(0, n_groups, size=n)
            win = contention_rounds(choice, n_slots, group, n_groups)
            assert win.tolist() == reference_rounds(choice, n_slots, group, n_groups)
            # one round: the same rule
            win = contention_rounds(choice, n_slots)
            assert win.tolist() == reference_rounds(choice, n_slots, np.zeros(n, dtype=np.int64), 1)

    @pytest.mark.parametrize("n_slots", [mac_cff._DENSE_SLOTS + 1, 2**20, 2**32 - 1])
    def test_many_slots_count_only_the_chosen(self, n_slots):
        # more (round, slot) pairs than the dense cap and than contenders:
        # the same rule from the slots chosen alone
        rng = np.random.default_rng(n_slots % 1000)
        for _ in range(40):
            n_groups = int(rng.choice([1, 2, 9, 60]))
            n = int(rng.integers(0, 3000))
            pool = rng.integers(0, n_slots, size=int(rng.integers(1, 300)))  # few slots, so some collide
            choice = rng.choice(pool, size=n)
            group = rng.integers(0, n_groups, size=n)
            win = contention_rounds(choice, n_slots, group, n_groups)
            assert win.tolist() == reference_rounds(choice, n_slots, group, n_groups)
            win = contention_rounds(choice, n_slots)
            assert win.tolist() == reference_rounds(choice, n_slots, np.zeros(n, dtype=np.int64), 1)
        # as many contenders as slots past the cap: every slot is counted
        slots = mac_cff._DENSE_SLOTS + 1
        choice = rng.integers(0, slots, size=slots)
        win = contention_rounds(choice, slots)
        assert win.tolist() == (np.bincount(choice)[choice] == 1).tolist()
        # the per-draw round still reports every slot's count
        choices, counts, winners = uniform_slot_contention(3, min(n_slots, 2**20), rng)
        assert len(counts) == min(n_slots, 2**20) and counts.sum() == 3
        assert winners.tolist() == (counts[choices] == 1).tolist()


class TestContendPush:
    def test_lone_contender_always_delivered(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            choices, counts, winners = uniform_slot_contention(1, 80, rng)
            assert winners.tolist() == [True]
            assert counts[choices[0]] == 1
            assert np.count_nonzero(counts == 1) == 1
            assert np.count_nonzero(counts == 0) == 79

    def test_two_contenders_one_slot_collide(self):
        choices, counts, winners = uniform_slot_contention(2, 1, np.random.default_rng(0))
        assert choices.tolist() == [0, 0]
        assert counts.tolist() == [2]
        assert not winners.any()

    def test_zero_slots_everything_persists(self):
        with pytest.raises(ValueError):
            uniform_slot_contention(5, 0, np.random.default_rng(0))
        # a frame without push opportunities delivers no push packet; all
        # of them are still pending, hence failed, at the horizon
        rec = simulate_cff(paper_config(1.0), 0, 2000, 30, seed=6)
        assert rec.arrived(PUSH) > 0
        assert rec.failed(PUSH) == rec.arrived(PUSH)
        assert delivery_log(paper_config(1.0), 0, 2000, 30, seed=6)[PUSH] == []

    def test_two_contenders_two_slots_half_succeed(self):
        rng = np.random.default_rng(123)
        wins = 0
        frames = 30_000
        for _ in range(frames):
            wins += int(np.count_nonzero(uniform_slot_contention(2, 2, rng)[2]))
        assert wins / (2 * frames) == pytest.approx(0.5, abs=0.015)

    def test_delivery_slot_mapping_with_stride(self):
        # S=20, alpha=0.25: push sub-frame starts at offset 5 with five
        # 3-slot opportunities, each delivered at its end slot
        cfg = FrameConfig(20, 0.01, 1, 3, 0.25)
        log = delivery_log(cfg, 0, 100, 100, seed=4)
        offsets = np.concatenate([d for _, d in log[PUSH]]) % 20
        assert set(offsets.tolist()) == {5 + (k + 1) * 3 - 1 for k in range(5)}


class TestSimulateCff:
    def test_rejects_bad_args(self):
        cfg = paper_config(0.5)
        with pytest.raises(ValueError):
            simulate_cff(cfg, 100, 100, 0, seed=1)
        with pytest.raises(ValueError):
            simulate_cff(cfg, -1, 0, 10, seed=1)
        with pytest.raises(ValueError):
            simulate_cff(cfg, 0, 0, 10, seed=1, warmup_frames=10)

    def test_alpha_zero_starves_pull(self):
        rec = simulate_cff(paper_config(0.0), pull_rate=500, push_rate=0, horizon_frames=50, seed=2)
        assert rec.arrived(PULL) > 0
        assert len(rec.latency_slots(PULL)) == 0
        assert rec.failed(PULL) == rec.arrived(PULL)
        assert reliability_within(rec, PULL, 1e9) == 0.0

    def test_alpha_one_starves_push(self):
        rec = simulate_cff(paper_config(1.0), pull_rate=0, push_rate=500, horizon_frames=50, seed=2)
        assert rec.arrived(PUSH) > 0
        assert len(rec.latency_slots(PUSH)) == 0

    def test_sparse_pull_served_next_frame_within_two_frames(self):
        cfg = paper_config(0.5)
        log = []
        rec = simulate_cff(
            cfg, pull_rate=100, push_rate=0, horizon_frames=400, seed=5,
            on_delivery=lambda *d: log.append(d),
        )
        assert len(rec.latency_slots(PULL)) > 0
        # light load: every packet is scheduled in the frame after arrival,
        # inside the first capacity blocks, so latency <= 2 frames
        for klass, arrival, delivery in log:
            assert klass is PULL
            assert (delivery // 100 == arrival // 100 + 1).all()
        assert rec.latency_slots(PULL).max() <= 2 * cfg.slots_per_frame

    def test_conservation_under_overload(self):
        for rates in ((3000, 0), (0, 15000), (1500, 4000)):
            rec = simulate_cff(paper_config(0.4), *rates, horizon_frames=80, seed=9)
            for klass in (PULL, PUSH):
                assert rec.arrived(klass) == len(rec.latency_slots(klass)) + rec.failed(klass)

    def test_deterministic(self):
        a = simulate_cff(paper_config(0.3), 400, 900, 120, seed=77)
        b = simulate_cff(paper_config(0.3), 400, 900, 120, seed=77)
        assert a.latencies(PULL) == b.latencies(PULL)
        assert a.latencies(PUSH) == b.latencies(PUSH)
        c = simulate_cff(paper_config(0.3), 400, 900, 120, seed=78)
        assert c.latencies(PUSH) != b.latencies(PUSH)

    def test_slotted_aloha_success_probability(self):
        # no retransmissions, alpha=0: per-slot load G = rate * frame / slots
        cfg = paper_config(0.0)
        rate = 10_000.0  # G = 1.0
        rec = simulate_cff(cfg, 0, rate, horizon_frames=300, seed=13, push_retransmit=False)
        p_success = len(rec.latency_slots(PUSH)) / rec.arrived(PUSH)
        assert p_success == pytest.approx(math.exp(-1.0), abs=0.02)

    def test_warmup_excluded_from_measurement(self):
        cfg = paper_config(0.5)
        full = simulate_cff(cfg, 300, 300, 100, seed=3)
        trimmed = simulate_cff(cfg, 300, 300, 100, seed=3, warmup_frames=50)
        assert trimmed.arrived(PULL) < full.arrived(PULL)
        assert trimmed.arrived(PULL) == len(trimmed.latency_slots(PULL)) + trimmed.failed(PULL)

    def test_abort_is_equivalent_when_target_met(self):
        cfg = paper_config(0.3)
        rule = PushAbortRule(latency_target=0.05, target_reliability=0.99)
        plain = simulate_cff(cfg, 0, 300, 200, seed=21)
        aborted = simulate_cff(cfg, 0, 300, 200, seed=21, push_abort=rule)
        assert plain.latencies(PUSH) == aborted.latencies(PUSH)
        assert plain.arrived(PUSH) == aborted.arrived(PUSH)

    def test_abort_certifies_miss(self):
        cfg = paper_config(0.3)
        rule = PushAbortRule(latency_target=0.02, target_reliability=0.99)
        full = simulate_cff(cfg, 0, 8000, 400, seed=21)
        fast = simulate_cff(cfg, 0, 8000, 400, seed=21, push_abort=rule)
        rel_full = reliability_within(full, PUSH, 0.02)
        rel_fast = reliability_within(fast, PUSH, 0.02)
        assert rel_full < 0.99
        assert rel_fast <= rel_full
        assert fast.arrived(PUSH) == len(fast.latency_slots(PUSH)) + fast.failed(PUSH)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_abort_fires_for_targets_of_a_frame_or_less(self, seed):
        # no push packet meets these targets, so each aborted run must stop
        # within its first frames (about 20k deliveries in the full run)
        cfg = paper_config(0.5)
        full = simulate_cff(cfg, 0, 1000, 2000, seed)
        for target in (0.0005, 0.001, 0.002, 0.005):
            assert reliability_within(full, PUSH, target) == 0.0
            fast = simulate_cff(cfg, 0, 1000, 2000, seed, push_abort=PushAbortRule(target, 0.99))
            assert len(fast.latency_slots(PUSH)) < 1500, target

    def test_memory_follows_contenders_not_slots(self):
        # 2**22 push slots: counting every slot of a round would take 32 MiB;
        # only the chosen ones are counted, and the records stay the per-draw
        # reference's
        cfg = FrameConfig(2**22, 0.01, 1, 1, 0.0)
        tracemalloc.start()
        try:
            simulate_cff(cfg, 0.0, 300.0, 20, 3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20
        check_cff_matches_reference(cfg, 0.0, 300.0, 20, 3)

    def test_first_window_follows_the_run(self):
        # a two-frame push run takes a few dozen halves: its first window
        # fetches about that many raw outputs, not a whole window's worth
        class Counting(np.random.PCG64):
            fetched = 0

            def random_raw(self, size=None, output=True):
                self.fetched += size
                return super().random_raw(size, output)

        bit_generator = Counting(7)
        rec = simulate_cff(paper_config(0.5), 200.0, 800.0, 2, np.random.Generator(bit_generator))
        assert rec.arrived(PUSH) and rec.latency_slots(PUSH).size  # a round was drawn
        assert 0 < bit_generator.fetched < mac_cff._WINDOW_WORDS
        check_cff_matches_reference(paper_config(0.5), 200.0, 800.0, 2, lambda: np.random.Generator(Counting(7)))

    def test_abort_rule_validation(self):
        for bad in (0.0, -0.01, math.inf, math.nan):
            with pytest.raises(ValueError):
                PushAbortRule(latency_target=bad, target_reliability=0.99)
        for bad in (0.0, 1.5):
            with pytest.raises(ValueError):
                PushAbortRule(latency_target=0.02, target_reliability=bad)

    def test_push_deliveries_only_in_push_subframe(self):
        cfg = paper_config(0.6)
        log = delivery_log(cfg, 0, 2000, 60, seed=31)
        assert log[PUSH] and not log[PULL]
        for arrival, delivery in log[PUSH]:
            off = delivery % 100
            assert ((60 <= off) & (off < 100)).all()
            assert (delivery // 100 > arrival // 100).all()

    def test_latency_quantiles_monotone_in_alpha(self):
        # at fixed rates, more pull slots cannot worsen pull latency and
        # cannot improve push latency (Monte Carlo slack of one slot)
        slack = 2e-3
        rates = dict(pull_rate=700, push_rate=900, horizon_frames=600)
        lo = simulate_cff(paper_config(0.4), seed=55, **rates)
        hi = simulate_cff(paper_config(0.6), seed=55, **rates)
        for p in (0.5, 0.9):
            assert empirical_quantile(hi.latencies(PULL), p) <= empirical_quantile(lo.latencies(PULL), p) + slack
            assert empirical_quantile(hi.latencies(PUSH), p) >= empirical_quantile(lo.latencies(PUSH), p) - slack


class _SettleSpy:
    """Records the frames and the contenders of the held rounds each
    ``_settle`` call settles."""

    def __init__(self, monkeypatch):
        self.frames, self.sizes = [], []
        settle = mac_cff._settle

        def spy(held, *args):
            self.frames.append([f for f, *_ in held])
            self.sizes.append([pend.size for _, pend, *_ in held])
            return settle(held, *args)

        monkeypatch.setattr(mac_cff, "_settle", spy)


class TestHeldRounds:
    """``simulate_cff`` holds its push rounds (pending packets, draws, win
    mask) and settles their winners' delivery slots in bulk: once the held
    rounds pass ``_HELD_CONTENDERS`` contenders, and at the end of the run.
    The abort skips its lookups while the oldest pending packet arrived
    after the frame it checks.  Records and ``on_delivery`` calls must stay
    those of the per-draw reference wherever a settle falls."""

    @pytest.mark.parametrize("cap", [0, 7, 2**10])
    @pytest.mark.parametrize(
        "kw",
        [
            {},
            dict(push_abort=PushAbortRule(0.05, 0.99)),
            dict(push_abort=PushAbortRule(0.03, 0.5), warmup_frames=20),
        ],
    )
    def test_backlogs_cross_the_cap(self, monkeypatch, cap, kw):
        # near the push capacity (about 1840 pps on this frame): backlogs of
        # a few to a few dozen packets, so the held rounds pass the cap again
        # and again during the run
        monkeypatch.setattr(mac_cff, "_HELD_CONTENDERS", cap)
        spy = _SettleSpy(monkeypatch)
        check_cff_matches_reference(paper_config(0.5), 200.0, 1700.0, 300, 4, **kw)
        assert len(spy.frames) > 2

    @pytest.mark.parametrize("lag", [1, 2, 3, 4, 5])
    def test_abort_just_after_a_settle(self, monkeypatch, lag):
        # a target of lag frames on the paper frame checks frame f - lag
        # after frame f's round; with the cap one below the run's contenders
        # the loop's one settle comes in the abort frame's round, just before
        # the check that stops the run
        cfg, rates, horizon = paper_config(0.5), (200.0, 2500.0), 200
        kw = dict(push_abort=PushAbortRule(lag * cfg.frame_duration, 0.99))
        spy = _SettleSpy(monkeypatch)
        monkeypatch.setattr(mac_cff, "_HELD_CONTENDERS", math.inf)
        simulate_cff(cfg, *rates, horizon, lag, **kw)
        (frames,), (sizes,) = spy.frames, spy.sizes  # one settle, after the loop
        assert frames[-1] < horizon - 1  # the run aborted in its last round's frame
        monkeypatch.setattr(mac_cff, "_HELD_CONTENDERS", sum(sizes) - 1)
        spy.frames.clear()
        check_cff_matches_reference(cfg, *rates, horizon, lag, **kw)
        assert spy.frames == [frames]  # settled in the abort frame, nothing left after the loop
        # below capacity the backlog is a packet or two, often the last of
        # its frame, and the lookups run only when one can be late: with
        # target 1 the first late packet stops the run
        rule = PushAbortRule(lag * cfg.frame_duration, 1.0)
        for seed in range(6):
            for rate in (1000.0, 1500.0):
                check_cff_matches_reference(cfg, 200.0, rate, horizon, seed, push_abort=rule)

    def test_single_attempt_with_an_abort(self, monkeypatch):
        monkeypatch.setattr(mac_cff, "_HELD_CONTENDERS", 5)
        for rule in (PushAbortRule(0.02, 0.9), PushAbortRule(0.005, 0.99)):
            kw = dict(push_retransmit=False, push_abort=rule)
            check_cff_matches_reference(paper_config(0.5), 200.0, 2500.0, 100, 6, **kw)

    def test_no_push_slot_with_an_abort(self):
        # no push opportunity: pending packets never leave, and nothing is held
        cfg = paper_config(1.0)
        assert cfg.push_tx_capacity == 0
        for rule in (PushAbortRule(0.02, 0.9), PushAbortRule(0.05, 0.5), PushAbortRule(0.01, 0.01)):
            check_cff_matches_reference(cfg, 300.0, 800.0, 120, 8, push_abort=rule)
            check_cff_matches_reference(cfg, 300.0, 800.0, 120, 8, push_abort=rule, warmup_frames=30)

    def test_no_push_slot_is_linear_in_the_horizon(self):
        # the backlog that never drains is a slice of the run's packet
        # numbers and no round is drawn, so the run is linear in its horizon
        # (joining the backlog anew every frame made 16000 frames take 5 s)
        cfg = paper_config(1.0)
        start = time.perf_counter()
        record = simulate_cff(cfg, 500.0, 2000.0, 16000, 1)
        assert time.perf_counter() - start < 1.0
        assert record.failed(PacketClass.PUSH) == record.arrived(PacketClass.PUSH) > 300_000
        check_cff_matches_reference(cfg, 500.0, 2000.0, 200, 1, warmup_frames=20)

    def test_held_rounds_stay_capped_on_a_collapsed_run(self, monkeypatch):
        # K = 20 push slots against about 10 arrivals a frame: the backlog
        # collapses and grows to about 20k; with an abort the run goes frame
        # by frame, and held uncapped its rounds took about 650 MiB
        cfg = paper_config(0.8)
        assert cfg.push_tx_capacity == 20
        spy = _SettleSpy(monkeypatch)
        tracemalloc.start()
        try:
            simulate_cff(cfg, 0.0, 1000.0, 2000, 5, push_abort=PushAbortRule(0.05, 0.01))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert spy.frames[-1][-1] > 1900  # frame by frame almost to the horizon
        assert peak < 8 * 2**20


class TestExactOracle:
    """Both classes against closed forms that hold whatever the draw order,
    with mu = rate * frame_duration the mean arrivals per frame."""

    FRAMES = 20_000

    @pytest.mark.parametrize("rate", [1000.0, 3000.0, 5000.0])
    def test_push_success_matches_closed_form(self, rate):
        """Push without retransmission: frame f's arrivals, Poisson with
        mean mu, are the only contenders of frame f+1, so each of the K push
        slots holds an independent Poisson(mu / K) count and delivers with
        probability q = (mu / K) exp(-mu / K): a packet succeeds with
        probability K q / mu = exp(-mu / K).  The deliveries of the H - 1
        rounds are Bin((H - 1) K, q)."""
        cfg = paper_config(0.5)
        k = cfg.push_tx_capacity
        assert k == 50
        load = rate * cfg.frame_duration / k
        q = load * math.exp(-load)
        rec = simulate_cff(cfg, 0, rate, self.FRAMES, seed=2024, push_retransmit=False)
        trials = (self.FRAMES - 1) * k
        z = (len(rec.latency_slots(PUSH)) - trials * q) / math.sqrt(trials * q * (1 - q))
        assert abs(z) <= 4

    @pytest.mark.parametrize(
        "cfg, rate",
        [
            (paper_config(0.6), 100.0),
            (FrameConfig(50, 0.01, 2, 1, 0.8), 300.0),
            (FrameConfig(90, 0.009, 5, 1, 0.5), 50.0),
        ],
    )
    def test_pull_latency_matches_closed_form(self, cfg, rate):
        """Below the ceiling frame f's N ~ Poisson(mu) pull arrivals are all
        served in frame f+1, in arrival order: the one at offset u in
        position b has latency S - u + (b + 1) P slots.  With u uniform on
        the frame and E[sum of b] = mu**2 / 2, the packet-mean latency is
        m = (S + 1) / 2 + P (1 + mu / 2).  Frames are independent, so the
        per-frame sums of latency - m over the packets have mean 0."""
        S, P = cfg.slots_per_frame, cfg.pull_packet_slots
        mu = rate * cfg.frame_duration
        overflow = 1 - sum(math.exp(-mu) * mu**n / math.factorial(n) for n in range(cfg.pull_tx_capacity + 1))
        assert overflow <= 1e-8
        m = (S + 1) / 2 + P * (1 + mu / 2)
        log = delivery_log(cfg, rate, 0, self.FRAMES, seed=5)
        arrival = np.concatenate([a for a, _ in log[PULL]])
        delivery = np.concatenate([dl for _, dl in log[PULL]])
        frame = arrival // S
        assert (delivery // S == frame + 1).all()
        n = self.FRAMES - 1  # the last frame's arrivals are never served
        residual = np.bincount(frame, delivery + 1 - arrival, minlength=n) - m * np.bincount(frame, minlength=n)
        z = residual.mean() * math.sqrt(n) / residual.std(ddof=1)
        assert abs(z) <= 4

    # the queueing regime: pull rates at 90 % of the pull service rate (6, 10
    # and 14 packets per 10 ms frame), so packets wait behind leftovers
    QUEUEING = ((0.3, 540.0), (0.5, 900.0), (0.7, 1260.0))
    RUNS, HORIZON = 40, 10_000

    def test_pull_reliability_in_the_queueing_regime(self):
        """The reliability of pull runs against its exact law
        (``pull_on_time``), judged by the code's own ``slot_budget``, at 20 ms
        and at 30 ms (a budget of 299 slots).  Each run measures frames W ..
        H - 1 after a warm-up W, and frame H - 1 - k can deliver only k frames
        on, so its on-time count has mean (H - W) reach[-1] - sum over k of
        (reach[-1] - reach[k]); with arrivals as a control variate the per-run
        residual on_time - reach[-1] / mu x arrived + that cut has mean 0.
        At 50 ms the misses are rare bursts (reliability above 0.9998) and
        the residuals too skewed for a normal z over 40 runs, so it is left out."""
        warmup = int(self.HORIZON * WARMUP_FRACTION)
        zs = []
        for alpha, rate in self.QUEUEING:
            cfg = paper_config(alpha)
            mu = rate * cfg.frame_duration
            runs = [simulate_cff(cfg, rate, 0, self.HORIZON, seed, warmup_frames=warmup) for seed in range(self.RUNS)]
            arrived = np.array([rec.arrived(PULL) for rec in runs])
            for target in (0.02, 0.03):
                reach = pull_on_time(cfg, rate, slot_budget(target, cfg.slot_duration))
                cut = sum(reach[-1] - reach[k] for k in range(len(reach) - 1))
                on_time = np.array([round(reliability_within(rec, PULL, target) * rec.arrived(PULL)) for rec in runs])
                zs.append(z_score(on_time - reach[-1] / mu * arrived + cut))
        z_max = max(map(abs, zs))
        print(f"pull reliability in the queueing regime: max |z| {z_max:.3f} over {len(zs)} z-scores")
        assert z_max <= 4, zs


# Exact outputs of nine runs, recorded before the pull FIFO was served in
# closed form and the offset draws were batched; both changes must keep the
# random stream and every record byte-identical.  Counts are (pull arrived,
# delivered, failed, push arrived, delivered, failed); the digest covers both
# classes' ``latencies`` (seconds in delivery order, then +inf per miss).
# The no_retransmit digest was re-recorded with each class's misses moved
# after its deliveries, when the record stopped storing +inf samples.  The
# odd_geometry case was recorded when the frame still took an optional
# overhead region, with that region empty: dropping the option kept its bytes.
PINNED = {
    "pull_only": (
        (paper_config(0.5), 3000, 0, 120, 11, {}),
        (3528, 1190, 2338, 0, 0, 0),
        "11b4b7a032d8e41a2caa754a56cf1039b2c7d2514b88749d39b54b3173947c0e",
    ),
    "push_abort": (
        (paper_config(0.3), 0, 2600, 300, 21, dict(warmup_frames=30, push_abort=PushAbortRule(0.05, 0.9))),
        (0, 0, 0, 7026, 703, 6323),
        "c6ffc9d41bc2431ca2a62cb918277bf9d5df628215f52cc42e5e286f785e0cf4",
    ),
    "mixed_overload": (
        (paper_config(0.4), 3000, 15000, 80, 9, {}),
        (2398, 632, 1766, 12058, 18, 12040),
        "b6eca995d2acff4dd3443d5a595950622c012fdfb287139fa7304a489e7d074c",
    ),
    "no_retransmit": (
        (paper_config(0.3), 500, 6000, 100, 13, dict(push_retransmit=False)),
        (481, 474, 7, 5982, 2507, 3475),
        "7b4bf418189c0f6996bb4b3e49428d75e0311896c1d71648ec0d2eeb3f2d9db8",
    ),
    "warmup": (
        (paper_config(0.5), 800, 900, 150, 3, dict(warmup_frames=40)),
        (874, 855, 19, 954, 946, 8),
        "3019515d7422a0a2969839d04e07e060ba7958b2195a660c36ecbaaaa67fb944",
    ),
    "one_frame": (
        (paper_config(0.5), 3000, 3000, 1, 5, {}),
        (35, 0, 35, 30, 0, 30),
        "89dcbbed3ee89ec6e71538b69597f467a19931deceb145ac035db17cd88d676d",
    ),
    # multi-slot packets in both sub-frames: 6 pull packets of 3 slots, 11 push of 2
    "odd_geometry": (
        (FrameConfig(40, 0.004, 3, 2, 0.45), 2000, 2500, 90, 17, {}),
        (719, 534, 185, 918, 22, 896),
        "ff58a0e964b081f87276176dc14e546c9ee01b0a11843d31a61ec06bd9399f11",
    ),
    # frames without new push arrivals while collided ones still wait: their
    # round must draw after the pull offsets of the frames before it
    "sparse_push_backlog": (
        (FrameConfig(10, 0.01, 2, 2, 0.3), 300, 100, 200, 41, dict(warmup_frames=12)),
        (577, 154, 423, 200, 38, 162),
        "7606e702430ba9360d83f3069059a1d8dc460c4b55fde1a3523c8eacf51c4958",
    ),
    # no push opportunities: nothing contends, yet the abort still reads the
    # backlog every frame and stops the run midway
    "alpha_one_abort": (
        (paper_config(1.0), 800, 500, 100, 6, dict(warmup_frames=10, push_abort=PushAbortRule(0.02, 0.5))),
        (726, 396, 330, 499, 0, 499),
        "be57bafb063ced03956e27a0ae8d4fac7717282fb1f33b883671c6075df01523",
    ),
}


@pytest.mark.parametrize("case", sorted(PINNED))
def test_pinned_output(case):
    (cfg, pull_rate, push_rate, horizon, seed, kw), counts, digest = PINNED[case]
    rec = simulate_cff(cfg, pull_rate, push_rate, horizon, seed, **kw)
    got = tuple(n for k in (PULL, PUSH) for n in (rec.arrived(k), len(rec.latency_slots(k)), rec.failed(k)))
    assert got == counts
    h = hashlib.sha256()
    for klass in (PULL, PUSH):
        h.update(np.asarray(rec.latencies(klass), dtype=np.float64).tobytes())
    assert h.hexdigest() == digest


class TestRejectedDraws:
    """numpy rejects a 32-bit half x for a draw below n when (x * n) mod 2**32
    < 2**32 % n and takes the next half instead.  ``simulate_cff`` replays
    that rule on raw output in contention draws (below push_tx_capacity) and
    offset draws (below S), also where a rejection pushes a take past the end
    of a raw window.  Such a half turns up about once in 1e8 draws, so these
    generator states are built rather than found."""

    REJECTED = 171798692  # * 25 == 2**32 + 4 (4 < 2**32 % 25 == 21); * 50 == 2**33 + 8 (8 < 2**32 % 50 == 46)
    ACCEPTED = 7
    CONFIG = FrameConfig(50, 0.01, 1, 1, 0.5)  # S = 50, push_tx_capacity = 25
    # (round draws, offset draws) per frame step, as a run makes them; when
    # nothing is rejected: halves 0-2 | 3-6, 7 | 8-13, 14-18 | 19-20 | 21-22
    # | 23-25, 26-27 | 28-29, 30
    STEPS = ((0, 3), (4, 1), (6, 5), (2, 0), (0, 2), (3, 2), (2, 1))

    # (window, position, low, high): where the built output lands
    CASES = [
        (4096, 2, REJECTED, ACCEPTED),  # half 4: a round skips a low half
        (4096, 2, ACCEPTED, REJECTED),  # half 5: a round skips a high half
        (4096, 0, ACCEPTED, REJECTED),  # half 1: offsets skip a high half
        (4096, 7, REJECTED, REJECTED),  # halves 14-15: offsets skip two
        (1, 2, REJECTED, REJECTED),  # the first window ends at half 8: two skips push a round past it
        (1, 3, ACCEPTED, REJECTED),  # half 7, the window's last, skipped by a one-draw offset take
        (4096, 9, ACCEPTED, REJECTED),  # half 19: step 3 ends by the limit, step 4's round skips it
        (4096, 10, ACCEPTED, REJECTED),  # half 21: step 4 ends by the limit, step 5's offsets skip it
    ]
    # of the last two cases: the step that ends by the limit right before the built half
    BY_THE_LIMIT = {(4096, 9, ACCEPTED, REJECTED): 2, (4096, 10, ACCEPTED, REJECTED): 3}
    # a first window of 14 words (12 for an expected run of 24 halves, 2 for
    # the first take): step 6 ends by the limit at the window's end, half 28,
    # and step 7's round skips half 28 of the next window
    WINDOW_END = (4096, 14, REJECTED, ACCEPTED)

    # each case at S = 50, K = 25, and at S = K = 25, where both kinds of take
    # read one list of rejected halves (REJECTED is rejected below 25 too)
    @pytest.mark.parametrize(
        "window, position, low, high, S, K",
        [
            pytest.param(*case, S, K, id="-".join(map(str, case)) + ("-S=K" if S == K else ""))
            for case in CASES + [WINDOW_END]
            for S, K in ((50, 25), (25, 25))
        ],
    )
    def test_stream_matches_numpy(self, monkeypatch, window, position, low, high, S, K):
        monkeypatch.setattr(mac_cff, "_WINDOW_WORDS", window)
        case = (window, position, low, high)
        word = (high << 32) | low
        numpy_rng = generator_emitting(word, position)
        expected = [
            numpy_rng.integers(0, bound, size=k, dtype=np.int64).tolist()
            for n, m in self.STEPS
            for bound, k in ((K, n), (S, m))
            if k
        ]
        first = 24 if case == self.WINDOW_END else 2 * window  # the run's expected halves
        stream = mac_cff._HalfStream(generator_emitting(word, position).bit_generator, S, K, first)
        by_limit, rounds = [], []
        for n, m in self.STEPS:
            by_limit.append(stream.h + n + m <= stream.limit)
            rounds.append(stream.step(n, m).tolist())
            if case == self.WINDOW_END and len(rounds) == 6:
                assert by_limit[-1] and stream.h == stream.size == 28
        offsets = iter(stream.close(sum(m for _, m in self.STEPS)).tolist())
        got = [
            draws
            for r, (n, m) in zip(rounds, self.STEPS)
            for draws, k in ((r, n), ([next(offsets) for _ in range(m)], m))
            if k
        ]
        assert got == expected
        assert next(offsets, None) is None
        if case in self.BY_THE_LIMIT:
            step = self.BY_THE_LIMIT[case]
            assert by_limit[step] and not by_limit[step + 1]

    @staticmethod
    def _counts(rng, horizon, rates):
        """Words the count draws take, and the pull and push counts."""
        config = TestRejectedDraws.CONFIG
        start = rng.bit_generator.state["state"]["state"]
        counts = [frame_arrival_counts(rate, config, horizon, rng) for rate in rates]
        after = rng.bit_generator.state["state"]["state"]
        probe = np.random.PCG64(0)
        state = probe.state
        state["state"]["state"] = start
        probe.state = state
        words = next(k for k in range(1, 1000) if probe.advance(1).state["state"]["state"] == after)
        return words, *counts

    @staticmethod
    def _layout(rng, horizon, rates=(200.0, 300.0)):
        """Words the count draws take, and the halves of the first offset
        take and of the first contention round after them."""
        words, pull, push = TestRejectedDraws._counts(rng, horizon, rates)
        first = int(np.flatnonzero(push)[0])  # frames before it have no push arrival
        offsets = int(pull[: first + 1].sum() + push[: first + 1].sum())
        return words, (2 * words, 2 * words + offsets), (2 * words + offsets, 2 * words + offsets + int(push[first]))

    # edges of the frame step's fast path, each found in the steps of a run
    # (see _StepLog): rates, frames, the built output's position (past the
    # count draws, which take about 3-7 words a frame here), window words,
    # the run's options, and whether the run's steps show the edge (the
    # built output's first half is ``half``, counted from the stream's first)
    EDGES = {
        # a step ends by the stream's limit at the built output's first
        # half, and the next step's round begins there
        "round after a step by the limit": (
            (200.0, 300.0), 14, 120, 4096, {},
            lambda log, half: any(a.by_limit and b.start == half and b.n for a, b in zip(log.steps, log.steps[1:])),
        ),
        # ... and the next step, with nothing pending, begins there with offsets
        "offsets after a step by the limit": (
            (200.0, 100.0), 30, 200, 4096, {},
            lambda log, half: any(a.by_limit and b.start == half and not b.n for a, b in zip(log.steps, log.steps[1:])),
        ),
        # a step ends by the limit at the window's end, and a step follows
        "window end": (
            (200.0, 300.0), 30, 260, 8, {},
            lambda log, half: any(a.by_limit and a.at_end for a in log.steps[:-1]),
        ),
        # the abort frame's round fits the window and its offsets run into
        # the next one; close() drops those offsets
        "abort frame past a refill": (
            (200.0, 3000.0), 30, 400, 8, dict(push_abort=PushAbortRule(0.01, 0.9)),
            lambda log, half: log.steps[-1].straddles and log.kept[-1] < sum(step.m for step in log.steps),
        ),
    }

    # 0: offset draws, 1: a contention round
    @pytest.mark.parametrize("target", [0, 1, *EDGES])
    def test_runs_match_numpy(self, monkeypatch, target):
        # both halves of one output are rejected; search high state halves
        # until that output lands in the first offsets (or the first round)
        # right after the count draws, or the run's steps show the edge,
        # then compare whole runs
        word = (self.REJECTED << 32) | self.REJECTED
        position, horizon, rates, kws = 44, 6, (200.0, 300.0), [{}]
        if target in self.EDGES:
            rates, horizon, position, window, kw, shows = self.EDGES[target]
            monkeypatch.setattr(mac_cff, "_WINDOW_WORDS", window)
            log, kws = _StepLog(monkeypatch), [kw, {}]
        for i in range(4000):
            high = (0x9E3779B97F4A7C18 + i * 0x2545F4914F6CDD1D) % 2**64
            words, *spans = self._layout(generator_emitting(word, position, high), horizon, rates)
            if words > position:
                continue
            if target in self.EDGES:
                log.clear()
                simulate_cff(self.CONFIG, *rates, horizon, generator_emitting(word, position, high), **kw)
                if shows(log, 2 * (position - words)):
                    break
            elif spans[target][0] <= 2 * position and 2 * position + 1 < spans[target][1]:
                break
        else:
            raise AssertionError(f"no state puts the rejected output in the target draws ({target})")
        for kw in kws + [dict(push_abort=PushAbortRule(0.01, 0.9)), dict(push_retransmit=False)]:
            check_cff_matches_reference(
                self.CONFIG, *rates, horizon, lambda: generator_emitting(word, position, high), **kw
            )


class _Step(NamedTuple):
    start: int  # its first half, counted from the stream's first
    n: int  # round draws
    m: int  # offset draws
    by_limit: bool  # it ended by the stream's limit: one comparison and a slice
    at_end: bool  # it ended at its window's end
    straddles: bool  # its round fit its window and its offsets ran into a refill


class _StepLog:
    """Records the frame steps of ``simulate_cff`` runs (``_Step``), and the
    offset draws each ``close`` keeps."""

    def __init__(self, monkeypatch):
        self.steps, self.kept = [], []
        step, refill, close = mac_cff._HalfStream.step, mac_cff._HalfStream._refill, mac_cff._HalfStream.close
        origins = {}  # stream -> its window's first half, counted from the stream's first
        taking = []  # the step under way: its stream, where its round ends, whether a refill came past that

        def spy_refill(stream, short):
            origin = origins.get(stream, 0)
            if taking and taking[0] is stream and origin + stream.h >= taking[1]:
                taking[2] = True
            origins[stream] = origin + 2 * (stream.h // 2)  # the window keeps its words from the one holding half h
            refill(stream, short)

        def spy_step(stream, n, m):
            h, origin = stream.h, origins.get(stream, 0)
            by_limit = h + n + m <= stream.limit
            taking[:] = [stream, origin + h + n, False]
            draws = step(stream, n, m)
            self.steps.append(_Step(origin + h, n, m, by_limit, by_limit and stream.h == stream.size, taking[2]))
            taking.clear()
            return draws

        def spy_close(stream, count):
            self.kept.append(count)
            return close(stream, count)

        monkeypatch.setattr(mac_cff._HalfStream, "_refill", spy_refill)
        monkeypatch.setattr(mac_cff._HalfStream, "step", spy_step)
        monkeypatch.setattr(mac_cff._HalfStream, "close", spy_close)

    def clear(self):
        self.steps.clear()
        self.kept.clear()


class _RoundSpy:
    """Counts the contention rounds ``simulate_cff`` makes (the reference
    loop does not use the stream): the rounds the frame steps draw (a step
    of n > 0 draws with push opportunities) and the frames
    ``take_winnerless`` takes in bulk, each one a round certified
    winnerless.  Also their draws and the longest, the rounds long enough to
    be certified (more than 16 K contenders, K >= 2), the certified rounds,
    the ``take_winnerless`` calls and the stretches of more than one frame."""

    def __init__(self, monkeypatch):
        self.rounds = self.draws = self.longest = self.certifiable = self.certified = 0
        self.takes = self.stretches = 0
        step, take = mac_cff._HalfStream.step, mac_cff._HalfStream.take_winnerless

        def count(sizes, certifiable):
            self.rounds += len(sizes)
            self.draws += sum(sizes)
            self.longest = max([self.longest, *sizes])
            self.certifiable += certifiable

        def spy_step(stream, n, m):
            if n and stream.push_ops:
                count([n], stream.push_ops >= 2 and n > mac_cff._PREFIX_PER_SLOT * stream.push_ops)
            return step(stream, n, m)

        def spy_take(stream, rounds, offsets):
            taken = take(stream, rounds, offsets)
            count(rounds[:taken].tolist(), taken)
            self.certified += taken
            self.takes += 1
            self.stretches += taken > 1
            return taken

        monkeypatch.setattr(mac_cff._HalfStream, "step", spy_step)
        monkeypatch.setattr(mac_cff._HalfStream, "take_winnerless", spy_take)


class TestCertifiedRounds:
    """Once the pending push packets outnumber 16 K (K = push_tx_capacity >=
    2), ``simulate_cff`` takes frames in bulk while each round computes to
    no winner from its first 16 K draws alone: they put two in every slot.
    Only runs that retransmit and have no abort rule do so.  The rest of
    such a round is only checked against the rejection rule, and a frame
    with a rejected half in its round or offsets is left to the per-frame
    path.  Records and the stream must stay those of the per-draw Generator
    calls, wherever a rejected half falls."""

    REJECTED, ACCEPTED = TestRejectedDraws.REJECTED, TestRejectedDraws.ACCEPTED
    CONFIG = TestRejectedDraws.CONFIG  # S = 50, K = 25: rounds of more than 400 are certifiable
    PREFIX = mac_cff._PREFIX_PER_SLOT * 25
    # offsets, two frames of a certifiable round and offsets, a short round;
    # with nothing rejected: halves 0-2, then 3-453 (its prefix 3-402) and
    # 454-458, then 459-909 (its prefix 459-858) and 910-914, then 915-918
    TAKES = ((50, 3), (25, 451), (50, 5), (25, 451), (50, 5), (25, 4))

    @pytest.mark.parametrize(
        "window, position, low, high, n_rejected",
        [
            (4096, 50, ACCEPTED, ACCEPTED, 0),  # nothing rejected
            (4096, 50, REJECTED, ACCEPTED, 1),  # half 100, in the first round's prefix
            (4096, 201, REJECTED, REJECTED, 2),  # halves 402-403: the prefix's last half and the next
            (4096, 215, ACCEPTED, REJECTED, 1),  # half 431, in the first round's rest
            (4096, 228, REJECTED, ACCEPTED, 1),  # half 456, in the first frame's offsets
            (4096, 250, REJECTED, ACCEPTED, 1),  # half 500, in the second round's prefix
            (4096, 440, ACCEPTED, REJECTED, 1),  # half 881, in the second round's rest
            (4096, 456, ACCEPTED, REJECTED, 1),  # half 913, in the second frame's offsets
            (225, 215, REJECTED, REJECTED, 2),  # the first window ends at half 450, past two skips
            (1, 2, ACCEPTED, REJECTED, 1),  # half 5 ends the first window; the round goes on in fresh output
            (1, 250, REJECTED, ACCEPTED, 1),  # a budget of 16 halves: one frame a take
            (29, 229, REJECTED, ACCEPTED, 1),  # a budget of 464 halves: half 458 ends the last frame in it
            (29, 229, ACCEPTED, REJECTED, 1),  # half 459 begins the first frame past it
        ],
    )
    def test_stream_matches_numpy(self, monkeypatch, window, position, low, high, n_rejected):
        monkeypatch.setattr(mac_cff, "_WINDOW_WORDS", window)
        word = (high << 32) | low
        numpy_rng = generator_emitting(word, position)
        expected = [numpy_rng.integers(0, bound, size=n, dtype=np.int64).tolist() for bound, n in self.TAKES]
        # the frames before the first one with a rejected half are taken
        halves = rawdraw.halves_of(generator_emitting(word, position).bit_generator.random_raw(500))
        spans = [(3, 454, 25), (454, 459, 50), (459, 910, 25), (910, 915, 50)]
        rejected = [len(rawdraw.rejected(halves[a:b], bound)) for a, b, bound in spans]
        assert sum(rejected) == n_rejected  # all in the two frames
        frames = next((k // 2 for k, n in enumerate(rejected) if n), 2)
        computed = []  # the push draws the stretch computes
        bounded = mac_cff.bounded

        def spy(halves, bound):
            draws = bounded(halves, bound)
            if bound == 25:
                computed.append(draws)
            return draws

        rounds, offsets = np.array([451, 451]), np.array([5, 5])
        # with a prefix of one draw a slot the check always fails, so every
        # round is computed in full
        for per_slot in (mac_cff._PREFIX_PER_SLOT, 1):
            monkeypatch.setattr(mac_cff, "_PREFIX_PER_SLOT", per_slot)
            stream = mac_cff._HalfStream(generator_emitting(word, position).bit_generator, 50, 25, 2 * window)
            stream.step(0, 3)
            computed.clear()
            monkeypatch.setattr(mac_cff, "bounded", spy)
            taken = 0
            while taken < 2:  # as the frame loop does: a take that stops short hands a frame over
                more = stream.take_winnerless(rounds[taken:], offsets[taken:])
                if not more:
                    break
                taken += more
            monkeypatch.setattr(mac_cff, "bounded", bounded)
            assert taken == (frames if per_slot > 1 else 0)
            # only prefixes were computed, numpy's first per_slot * 25 draws
            # of consecutive rounds, at least for every frame taken
            prefixes = [expected[1][: per_slot * 25], expected[3][: per_slot * 25]]
            got = np.concatenate(computed).tolist() if computed else []
            assert got == sum(prefixes[: len(got) // (per_slot * 25)], []) and len(got) >= taken * per_slot * 25
            # the frames left are drawn one by one, ending where numpy's did
            for j in range(taken, 2):
                assert stream.step(451, 5).tolist() == expected[1 + 2 * j]
            assert stream.step(4, 0).tolist() == expected[5]
            assert stream.close(13).tolist() == expected[0] + expected[2] + expected[4]

    @staticmethod
    def _frames(rng, horizon, rates):
        """Words the count draws take, and from frame 1 on, if every round is
        winnerless and nothing is rejected, the halves each frame takes:
        (round start, round end, offsets end)."""
        words, pull, push = TestRejectedDraws._counts(rng, horizon, rates)
        assert push[0]  # frame 0 takes its offsets alone
        at, pending, frames = 2 * words + int(pull[0] + push[0]), 0, []
        for j in range(1, horizon):
            pending += int(push[j - 1])
            frames.append((at, at + pending, at + pending + int(pull[j] + push[j])))
            at = frames[-1][2]
        return words, frames

    @pytest.mark.parametrize("part", ["prefix", "rest", "offsets", "last_in_budget", "past_budget"])
    def test_stretches_match_numpy(self, monkeypatch, part):
        # about 500 push arrivals a frame: from frame 1 on every round is
        # certifiable, and the frames are taken in bulk; search high state
        # halves until an output whose halves are both rejected lands in
        # frame 3 (a later frame of the stretch), then compare whole runs
        word = (self.REJECTED << 32) | self.REJECTED
        rates, horizon = (200.0, 50_000.0), 9
        # frame 3 takes about halves 3000-4600 for its round, then 500 for its offsets
        position = {"prefix": 1600, "rest": 1900, "offsets": 2430, "last_in_budget": 2430, "past_budget": 1600}[part]
        for i in range(4000):
            high = (0x9E3779B97F4A7C18 + i * 0x2545F4914F6CDD1D) % 2**64
            words, frames = self._frames(generator_emitting(word, position, high), horizon, rates)
            start, end, done = frames[2]
            lo, hi = {
                "prefix": (start, start + self.PREFIX),
                "rest": (start + self.PREFIX, end),
                "offsets": (end, done),
                "last_in_budget": (end, done),
                "past_budget": (start, start + self.PREFIX),
            }[part]
            if words <= position and lo <= 2 * position and 2 * position + 1 < hi:
                break
        else:
            raise AssertionError(f"no state puts the rejected output in frame 3's {part}")
        if part.endswith("budget"):
            # a stretch from frame 1 fits frames 1-3 or 1-2 in its budget of 16 windows
            last = frames[2 if part == "last_in_budget" else 1][2]
            monkeypatch.setattr(mac_cff, "_WINDOW_WORDS", -(-(last - frames[0][0]) // 16))
        spy = _RoundSpy(monkeypatch)
        for kw in (
            {},
            dict(push_abort=PushAbortRule(0.05, 0.2)),  # runs to the horizon
            dict(push_abort=PushAbortRule(0.01, 0.85)),  # stops in frame 2
            dict(push_abort=PushAbortRule(0.01, 0.5)),  # targets of one frame and less
            dict(push_abort=PushAbortRule(0.005, 0.5)),
            dict(push_abort=PushAbortRule(0.02, 0.6)),
            dict(push_retransmit=False),
        ):
            takes = spy.takes
            check_cff_matches_reference(
                self.CONFIG, *rates, horizon, lambda: generator_emitting(word, position, high), **kw
            )
            # runs with an abort or without retransmission go frame by frame
            assert not kw or spy.takes == takes, kw
        assert spy.stretches

    @pytest.mark.parametrize("window", [4096, 1])
    @pytest.mark.parametrize("part", ["prefix", "rest"])
    def test_runs_match_numpy(self, monkeypatch, part, window):
        # about 500 push arrivals a frame: the first round already has more
        # than 400 contenders; search high state halves until an output whose
        # halves are both rejected lands in its prefix (or past it)
        monkeypatch.setattr(mac_cff, "_WINDOW_WORDS", window)
        word = (self.REJECTED << 32) | self.REJECTED
        rates, position, horizon = (200.0, 50_000.0), 450 if part == "prefix" else 600, 4
        for i in range(4000):
            high = (0x9E3779B97F4A7C18 + i * 0x2545F4914F6CDD1D) % 2**64
            words, _, (lo, hi) = TestRejectedDraws._layout(generator_emitting(word, position, high), horizon, rates)
            lo, hi = (lo, lo + self.PREFIX) if part == "prefix" else (lo + self.PREFIX, hi)
            if words <= position and lo <= 2 * position and 2 * position + 1 < hi:
                break
        else:
            raise AssertionError(f"no state puts the rejected output in the round's {part}")
        spy = _RoundSpy(monkeypatch)
        for kw in ({}, dict(push_abort=PushAbortRule(0.01, 0.9)), dict(push_retransmit=False)):
            check_cff_matches_reference(
                self.CONFIG, *rates, horizon, lambda: generator_emitting(word, position, high), **kw
            )
        assert spy.certified

    def test_rounds_that_fail_the_check_are_computed(self, monkeypatch):
        # with a prefix of 6 draws a slot, the check fails for almost half of
        # the long rounds; the per-frame path computes them in full
        monkeypatch.setattr(mac_cff, "_PREFIX_PER_SLOT", 6)
        spy = _RoundSpy(monkeypatch)
        check_cff_matches_reference(self.CONFIG, 200.0, 1500.0, 80, 11)
        assert 0 < spy.certifiable - spy.certified < spy.certified
        check_cff_matches_reference(self.CONFIG, 200.0, 1500.0, 80, 11, push_abort=PushAbortRule(0.05, 0.5))

    def test_bound_one_rounds_consume_nothing(self, monkeypatch):
        cfg = FrameConfig(12, 0.01, 2, 5, 0.5)  # push_tx_capacity 1
        assert cfg.push_tx_capacity == 1
        spy = _RoundSpy(monkeypatch)
        check_cff_matches_reference(cfg, 500.0, 3000.0, 40, 5)
        assert spy.longest > mac_cff._PREFIX_PER_SLOT and not spy.certified

    def test_single_attempt_rounds(self, monkeypatch):
        # about 500 contenders a frame, each round computed in full: a run
        # without retransmission takes no frame in bulk
        spy = _RoundSpy(monkeypatch)
        check_cff_matches_reference(self.CONFIG, 200.0, 50_000.0, 30, 8, push_retransmit=False)
        assert spy.certifiable >= 25 and not spy.certified

    def test_abort_after_collapse(self, monkeypatch):
        horizon = 40
        spy = _RoundSpy(monkeypatch)
        check_cff_matches_reference(
            self.CONFIG, 200.0, 6000.0, horizon, 9, push_abort=PushAbortRule(0.03, 0.5), warmup_frames=2
        )
        # the backlog passed 400 contenders, then the run stopped early; a run
        # with an abort takes no frame in bulk
        assert spy.certifiable and not spy.certified and spy.rounds < horizon - 1

    def test_certified_rounds_skip_most_slot_values(self, monkeypatch):
        # without the stretches every contention draw is computed (more,
        # when a window's worth is computed ahead)
        (cfg, pull_rate, push_rate, horizon, seed, kw), counts, _ = PINNED["mixed_overload"]
        computed = 0
        bounded = mac_cff.bounded

        def counting(halves, bound):
            nonlocal computed
            computed += len(halves) if bound == cfg.push_tx_capacity else 0
            return bounded(halves, bound)

        monkeypatch.setattr(mac_cff, "bounded", counting)
        spy = _RoundSpy(monkeypatch)
        rec = simulate_cff(cfg, pull_rate, push_rate, horizon, seed, **kw)
        assert len(rec.latency_slots(PUSH)) == counts[4]
        assert spy.certified and computed < spy.draws / 2
