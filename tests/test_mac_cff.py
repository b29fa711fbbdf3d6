import math

import numpy as np
import pytest

from pushpull_mac import FrameConfig, PacketClass, schedule_pull, simulate_cff, uniform_slot_contention
from pushpull_mac.mac_cff import PushAbortRule
from pushpull_mac.metrics import reliability_within

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


class TestSchedulePull:
    def test_small_queue_fully_served(self):
        queue = np.arange(3, dtype=np.int64)
        served = schedule_pull(queue, capacity=20, frame_start_slot=100, packet_slots=5)
        assert served.dtype == np.int64
        assert served.tolist() == [104, 109, 114]

    def test_excess_resched_next_frame(self):
        queue = np.arange(25, dtype=np.int64)
        served = schedule_pull(queue, capacity=20, frame_start_slot=0, packet_slots=5)
        assert len(served) == 20
        # the caller drops the served head; the five most recent arrivals remain queued
        assert queue[len(served):].tolist() == [20, 21, 22, 23, 24]

    def test_empty_queue(self):
        assert schedule_pull(np.empty(0, dtype=np.int64), capacity=20).size == 0

    def test_zero_capacity(self):
        assert schedule_pull(np.arange(2, dtype=np.int64), capacity=0).size == 0


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
        assert rec.push_arrived > 0
        assert rec.push_failed == rec.push_arrived
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
        assert rec.pull_arrived > 0
        assert rec.pull_delivered == 0
        assert rec.pull_failed == rec.pull_arrived
        assert reliability_within(rec, PULL, 1e9) == 0.0

    def test_alpha_one_starves_push(self):
        rec = simulate_cff(paper_config(1.0), pull_rate=0, push_rate=500, horizon_frames=50, seed=2)
        assert rec.push_arrived > 0
        assert rec.push_delivered == 0

    def test_sparse_pull_served_next_frame_within_two_frames(self):
        cfg = paper_config(0.5)
        log = []
        rec = simulate_cff(
            cfg, pull_rate=100, push_rate=0, horizon_frames=400, seed=5,
            on_delivery=lambda *d: log.append(d),
        )
        assert rec.pull_delivered > 0
        # light load: every packet is scheduled in the frame after arrival,
        # inside the first capacity blocks, so latency <= 2 frames
        for klass, arrival, delivery in log:
            assert klass is PULL
            assert (delivery // 100 == arrival // 100 + 1).all()
        finite = [l for l in rec.pull_latencies if math.isfinite(l)]
        assert max(finite) <= 2 * cfg.frame_duration + 1e-12

    def test_conservation_under_overload(self):
        for rates in ((3000, 0), (0, 15000), (1500, 4000)):
            rec = simulate_cff(paper_config(0.4), *rates, horizon_frames=80, seed=9)
            assert rec.pull_arrived == rec.pull_delivered + rec.pull_failed
            assert rec.push_arrived == rec.push_delivered + rec.push_failed

    def test_deterministic(self):
        a = simulate_cff(paper_config(0.3), 400, 900, 120, seed=77)
        b = simulate_cff(paper_config(0.3), 400, 900, 120, seed=77)
        assert a.pull_latencies == b.pull_latencies
        assert a.push_latencies == b.push_latencies
        c = simulate_cff(paper_config(0.3), 400, 900, 120, seed=78)
        assert c.push_latencies != b.push_latencies

    def test_slotted_aloha_success_probability(self):
        # no retransmissions, alpha=0: per-slot load G = rate * frame / slots
        cfg = paper_config(0.0)
        rate = 10_000.0  # G = 1.0
        rec = simulate_cff(cfg, 0, rate, horizon_frames=300, seed=13, push_retransmit=False)
        p_success = rec.push_delivered / rec.push_arrived
        assert p_success == pytest.approx(math.exp(-1.0), abs=0.02)

    def test_warmup_excluded_from_measurement(self):
        cfg = paper_config(0.5)
        full = simulate_cff(cfg, 300, 300, 100, seed=3)
        trimmed = simulate_cff(cfg, 300, 300, 100, seed=3, warmup_frames=50)
        assert trimmed.pull_arrived < full.pull_arrived
        assert trimmed.pull_arrived == trimmed.pull_delivered + trimmed.pull_failed

    def test_abort_is_equivalent_when_target_met(self):
        cfg = paper_config(0.3)
        rule = PushAbortRule(latency_target=0.05, target_reliability=0.99)
        plain = simulate_cff(cfg, 0, 300, 200, seed=21)
        aborted = simulate_cff(cfg, 0, 300, 200, seed=21, push_abort=rule)
        assert plain.push_latencies == aborted.push_latencies
        assert plain.push_arrived == aborted.push_arrived

    def test_abort_certifies_miss(self):
        cfg = paper_config(0.3)
        rule = PushAbortRule(latency_target=0.02, target_reliability=0.99)
        full = simulate_cff(cfg, 0, 8000, 400, seed=21)
        fast = simulate_cff(cfg, 0, 8000, 400, seed=21, push_abort=rule)
        rel_full = reliability_within(full, PUSH, 0.02)
        rel_fast = reliability_within(fast, PUSH, 0.02)
        assert rel_full < 0.99
        assert rel_fast <= rel_full
        assert fast.push_arrived == fast.push_delivered + fast.push_failed

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
        from pushpull_mac import empirical_quantile

        slack = 2e-3
        rates = dict(pull_rate=700, push_rate=900, horizon_frames=600)
        lo = simulate_cff(paper_config(0.4), seed=55, **rates)
        hi = simulate_cff(paper_config(0.6), seed=55, **rates)
        for p in (0.5, 0.9):
            assert empirical_quantile(hi.pull_latencies, p) <= empirical_quantile(lo.pull_latencies, p) + slack
            assert empirical_quantile(hi.push_latencies, p) >= empirical_quantile(lo.push_latencies, p) - slack
