import math

import numpy as np
import pytest

from pushpull_mac import (
    EmptySampleError,
    MetricsRecord,
    PacketClass,
    empirical_quantile,
    merge_records,
    reliability_within,
)

PULL, PUSH = PacketClass.PULL, PacketClass.PUSH


def record_with(klass, latencies, failures=0, **counters):
    rec = MetricsRecord(**counters)
    rec.add_arrivals(klass, len(latencies) + failures)
    rec.extend_deliveries(klass, latencies)
    rec.add_failures(klass, failures)
    return rec


class TestReliabilityWithin:
    def test_two_of_three_within_20ms(self):
        rec = record_with(PULL, [0.005, 0.015, 0.025])
        assert reliability_within(rec, PULL, 0.020) == pytest.approx(2 / 3)

    def test_all_failed_is_zero(self):
        rec = record_with(PUSH, [], failures=5)
        assert reliability_within(rec, PUSH, 1.0) == 0.0

    def test_deterministic_one_frame_latency(self):
        rec = record_with(PULL, [0.01] * 10_000)
        assert reliability_within(rec, PULL, 0.02) == 1.0

    def test_empty_sample_signalled(self):
        with pytest.raises(EmptySampleError):
            reliability_within(MetricsRecord(), PULL, 0.02)

    def test_in_flight_counts_against(self):
        # arrivals recorded but not yet resolved sit in the denominator
        rec = MetricsRecord()
        rec.add_arrivals(PULL, 4)
        rec.extend_deliveries(PULL, [0.01])
        assert reliability_within(rec, PULL, 0.02) == pytest.approx(0.25)


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
            lats = list(rng.uniform(0.001, 0.1, size=n_ok))
            rec = record_with(PULL, lats, failures=n_fail)
            target = float(rng.uniform(0.05, 1.0))
            latency = float(rng.uniform(0.001, 0.12))
            rel = reliability_within(rec, PULL, latency)
            q = empirical_quantile(rec.pull_latencies, target)
            assert (rel >= target) == (q <= latency)


class TestMerge:
    def make(self, seed):
        rng = np.random.default_rng(seed)
        # plus one RCS frame: retrieval succeeded, 2 of 3 push attempts succeeded
        rec = record_with(
            PULL,
            list(rng.uniform(0.001, 0.1, size=5)),
            failures=int(rng.integers(0, 3)),
            rcs_frames=1,
            rcs_retrieval_successes=1,
            rcs_push_attempts=3,
            rcs_push_successes=2,
        )
        rec.add_arrivals(PUSH, 2)
        rec.extend_deliveries(PUSH, [0.02])
        rec.add_failures(PUSH, 1)
        return rec

    def test_counters_add(self):
        a, b = self.make(1), self.make(2)
        merged = merge_records([a, b])
        assert merged.pull_arrived == a.pull_arrived + b.pull_arrived
        assert merged.push_failed == a.push_failed + b.push_failed
        assert merged.rcs_push_attempts == 6
        assert merged.pull_latencies == a.pull_latencies + b.pull_latencies

    def test_associative_counters(self):
        a, b, c = self.make(1), self.make(2), self.make(3)
        left = merge_records([merge_records([a, b]), c])
        right = merge_records([a, merge_records([b, c])])
        for attr in (
            "pull_arrived",
            "pull_delivered",
            "pull_failed",
            "push_arrived",
            "push_delivered",
            "push_failed",
            "rcs_frames",
            "rcs_retrieval_successes",
            "rcs_push_attempts",
            "rcs_push_successes",
        ):
            assert getattr(left, attr) == getattr(right, attr)
        assert left.pull_latencies == right.pull_latencies

    def test_rcs_estimators(self):
        rec = MetricsRecord()
        assert rec.retrieval_accuracy is None
        assert rec.push_success_rate is None
        # two frames: one retrieval success, 4 push attempts with 1 success
        rec = MetricsRecord(rcs_frames=2, rcs_retrieval_successes=1, rcs_push_attempts=4, rcs_push_successes=1)
        assert rec.retrieval_accuracy == pytest.approx(0.5)
        assert rec.push_success_rate == pytest.approx(0.25)
