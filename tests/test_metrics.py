import math

import numpy as np
import pytest

from pushpull_mac import (
    EmptySampleError,
    FrameConfig,
    MetricsRecord,
    PacketClass,
    merge_records,
    reliability_within,
)
from pushpull_mac.core import stable_floor
from pushpull_mac.metrics import slot_budget

from _invariants import empirical_quantile

PULL, PUSH = PacketClass.PULL, PacketClass.PUSH

# the paper frame: 100 slots per 10 ms
SLOT = FrameConfig(100, 0.01, 5, 1, 0.5).slot_duration


def record_with(klass, latency_slots, failures=0, slot_duration=SLOT):
    rec = MetricsRecord(slot_duration)
    rec.add(klass, latency_slots, failed=failures, arrived=len(latency_slots) + failures)
    return rec


class TestReliabilityWithin:
    def test_two_of_three_within_20ms(self):
        rec = record_with(PULL, [50, 150, 250])
        assert reliability_within(rec, PULL, 0.020) == pytest.approx(2 / 3)

    def test_all_failed_is_zero(self):
        rec = record_with(PUSH, [], failures=5)
        assert reliability_within(rec, PUSH, 1.0) == 0.0

    def test_deterministic_one_frame_latency(self):
        rec = record_with(PULL, [100] * 10_000)
        assert reliability_within(rec, PULL, 0.02) == 1.0

    def test_empty_sample_signalled(self):
        with pytest.raises(EmptySampleError):
            reliability_within(MetricsRecord(SLOT), PULL, 0.02)

    def test_in_flight_counts_against(self):
        # arrivals recorded but not yet resolved sit in the denominator
        rec = MetricsRecord(SLOT)
        rec.add(PULL, arrived=4)
        rec.add(PULL, [100])
        assert reliability_within(rec, PULL, 0.02) == pytest.approx(0.25)

    def test_float_boundary_on_the_paper_frame(self):
        # latencies are judged as the float64 product k * slot_duration, and
        # 300 * 1e-4 == 0.030000000000000002 > 0.03: a packet delivered in
        # exactly 30 ms counts as late at L = 30 ms.  The recorded digests
        # depend on this rule; an exact slot budget would flip the first case.
        assert 300 * SLOT == 0.030000000000000002
        assert reliability_within(record_with(PULL, [300]), PULL, 0.030) == 0.0
        assert reliability_within(record_with(PULL, [299]), PULL, 0.030) == 1.0


class TestSlotBudget:
    def test_budget_is_the_float_rule(self):
        # on-time by the budget is on-time by the float64 product, for
        # latencies around the target on random whole-ms frames and targets,
        # where L / dt often lands a rounding error off an integer
        rng = np.random.default_rng(28)
        moved = off_stable_floor = 0
        for _ in range(2000):
            slot = FrameConfig(int(rng.integers(1, 2000)), int(rng.integers(1, 50)) * 1e-3, 1, 1, 0.5).slot_duration
            target = int(rng.integers(1, 200)) * 1e-3
            lat = math.floor(target / slot) + np.arange(-3, 4)
            lat = lat[lat >= 0]
            budget = slot_budget(target, slot)
            assert np.count_nonzero(lat <= budget) == np.count_nonzero(lat * slot <= target), (slot, target)
            moved += budget != math.floor(target / slot)
            off_stable_floor += budget != stable_floor(target / slot)
        # the draws reach both corrections: floor(L / dt) moved, and a
        # budget other than stable_floor's
        assert moved > 0 and off_stable_floor > 0

    def test_paper_frame_at_30ms(self):
        assert slot_budget(0.030, SLOT) == 299
        assert slot_budget(0.020, SLOT) == 200

    def test_target_below_one_slot(self):
        assert slot_budget(SLOT / 2, SLOT) == 0
        assert reliability_within(record_with(PULL, [1, 1]), PULL, SLOT / 2) == 0.0

    def test_infinite_target_puts_every_latency_on_time(self):
        assert slot_budget(math.inf, SLOT) == np.iinfo(np.int64).max
        assert reliability_within(record_with(PULL, [1, 2**62], failures=1), PULL, math.inf) == pytest.approx(2 / 3)

    def test_huge_frame_where_stable_floor_falls_short(self):
        # 1e-3 / 1e-11 rounds to just below 1e8, but 1e8 * 1e-11 <= 1e-3
        slot = FrameConfig(10**8, 1e-3, 1, 1, 0.5).slot_duration
        assert 10**8 * slot <= 1e-3
        assert slot_budget(1e-3, slot) == 10**8
        assert stable_floor(1e-3 / slot) == 10**8 - 1


class TestRecord:
    def test_counts_and_latency_views(self):
        rec = record_with(PUSH, [3, 1, 2], failures=2)
        assert (rec.arrived(PUSH), len(rec.latency_slots(PUSH)), rec.failed(PUSH)) == (5, 3, 2)
        assert rec.latency_slots(PUSH).dtype == np.int64
        assert rec.latency_slots(PUSH).tolist() == [3, 1, 2]
        # seconds in delivery order, then one +inf per miss
        assert rec.latencies(PUSH) == [3 * SLOT, 1 * SLOT, 2 * SLOT, math.inf, math.inf]
        assert (rec.arrived(PULL), len(rec.latency_slots(PULL)), rec.failed(PULL), rec.latencies(PULL)) == (0, 0, 0, [])

    def test_adds_accumulate(self):
        rec = MetricsRecord(SLOT)
        rec.add(PULL, [4])
        rec.add(PULL, failed=1)
        rec.add(PULL, np.array([7, 8]), arrived=4)
        assert rec.latency_slots(PULL).tolist() == [4, 7, 8]
        assert (rec.arrived(PULL), len(rec.latency_slots(PULL)), rec.failed(PULL)) == (4, 3, 1)


class TestEmpiricalQuantile:
    def test_order_statistic_100(self):
        assert empirical_quantile(list(range(1, 101)), 0.99) == 99

    def test_singleton(self):
        assert empirical_quantile([42.0], 0.5) == 42.0

    def test_order_statistic_200(self):
        assert empirical_quantile(list(range(1, 201)), 0.99) == 198

    def test_extremes(self):
        samples = [3.0, 1.0, 2.0]
        assert empirical_quantile(samples, 1.0) == 3.0
        assert empirical_quantile(samples, 1e-9) == 1.0

    def test_permutation_invariant(self):
        rng = np.random.default_rng(0)
        samples = list(rng.uniform(size=500))
        shuffled = list(samples)
        rng.shuffle(shuffled)
        for p in (0.01, 0.5, 0.9, 0.99, 1.0):
            assert empirical_quantile(samples, p) == empirical_quantile(shuffled, p)

    def test_monotone_in_p(self):
        rng = np.random.default_rng(1)
        samples = list(rng.normal(size=400)) + [math.inf] * 7
        ps = np.linspace(0.01, 1.0, 60)
        qs = [empirical_quantile(samples, float(p)) for p in ps]
        assert all(a <= b for a, b in zip(qs, qs[1:]))

    def test_errors(self):
        with pytest.raises(EmptySampleError):
            empirical_quantile([], 0.5)
        with pytest.raises(ValueError):
            empirical_quantile([1.0], 0.0)
        with pytest.raises(ValueError):
            empirical_quantile([1.0], 1.5)


class TestConsistency:
    def test_reliability_and_quantile_agree(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            n_ok = int(rng.integers(1, 60))
            n_fail = int(rng.integers(0, 10))
            rec = record_with(PULL, rng.integers(10, 1000, size=n_ok), failures=n_fail)
            target = float(rng.uniform(0.05, 1.0))
            latency = float(rng.uniform(0.001, 0.12))
            rel = reliability_within(rec, PULL, latency)
            q = empirical_quantile(rec.latencies(PULL), target)
            assert (rel >= target) == (q <= latency)


class TestMerge:
    def make(self, seed):
        rng = np.random.default_rng(seed)
        rec = record_with(PULL, rng.integers(10, 1000, size=5), failures=int(rng.integers(0, 3)))
        rec.add(PUSH, [200], failed=1, arrived=2)
        return rec

    def test_counters_add(self):
        a, b = self.make(1), self.make(2)
        merged = merge_records([a, b])
        for klass in PacketClass:
            assert merged.arrived(klass) == a.arrived(klass) + b.arrived(klass)
            assert merged.failed(klass) == a.failed(klass) + b.failed(klass)
            assert merged.latency_slots(klass).tolist() == (
                a.latency_slots(klass).tolist() + b.latency_slots(klass).tolist()
            )
        assert merged.slot_duration == SLOT
        # the inputs are left as they were
        assert len(a.latency_slots(PULL)) == 5

    def test_associative_counters(self):
        a, b, c = self.make(1), self.make(2), self.make(3)
        left = merge_records([merge_records([a, b]), c])
        right = merge_records([a, merge_records([b, c])])
        for klass in PacketClass:
            assert left.arrived(klass) == right.arrived(klass)
            assert left.failed(klass) == right.failed(klass)
            assert left.latencies(klass) == right.latencies(klass)

    def test_no_records_rejected(self):
        with pytest.raises(ValueError, match="at least one record"):
            merge_records([])
        with pytest.raises(ValueError, match="at least one record"):
            merge_records(iter(()))

    def test_different_slot_durations_rejected(self):
        a = record_with(PULL, [10])
        b = record_with(PULL, [10], slot_duration=SLOT / 2)
        with pytest.raises(ValueError, match="slot durations"):
            merge_records([a, b])
