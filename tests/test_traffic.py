import math

import numpy as np
import pytest

from pushpull_mac import (
    FrameConfig,
    PacketClass,
    RcsPopulation,
    SemanticQuery,
    derive_seed,
    simulate_cff,
    simulate_rcs,
)
from pushpull_mac.mac_cff import sample_arrival_offsets

from _invariants import match_probability, matches

PULL, PUSH = PacketClass.PULL, PacketClass.PUSH

# 0.1 ms slots; alpha 1 serves pull traffic only, so push arrivals never contend
ONE_SLOT = FrameConfig(1, 1e-4, 1, 1, 1.0)
HUNDRED_SLOTS = FrameConfig(100, 1e-2, 1, 1, 1.0)

# RCS frames whose counts show the observation and push-value draws
RCS_FRAME = FrameConfig(20, 0.01, 1, 1, 0.5)
ALL = SemanticQuery(0.0, 1.0)


def pull_devices(n, query, n_frames, seed):
    """Per-frame counts of ``n`` pull devices whose observation matches ``query``."""
    return simulate_rcs(RCS_FRAME, RcsPopulation(n, 0, 1.0), query, n_frames, seed).frames[:, 0]


def push_devices(n, threshold, n_frames, seed):
    """Per-frame counts of ``n`` push devices whose drawn value exceeds ``threshold``."""
    return simulate_rcs(RCS_FRAME, RcsPopulation(0, n, threshold), ALL, n_frames, seed).frames[:, 3]


class TestPoissonArrivals:
    """The per-frame Poisson arrival counts ``simulate_cff`` draws first."""

    def test_zero_rate_never_arrives(self):
        rec = simulate_cff(ONE_SLOT, 0.0, 0.0, 1000, seed=0)
        assert rec.arrived(PULL) == rec.arrived(PUSH) == 0
        # a zero pull rate draws nothing: the push counts are the first draw
        rec = simulate_cff(HUNDRED_SLOTS, 0.0, 500.0, 200, seed=3)
        assert rec.arrived(PULL) == 0
        assert rec.arrived(PUSH) == np.random.default_rng(3).poisson(500.0 * 1e-4 * 100, size=200).sum() > 0

    def test_slot_mean_matches_rate(self):
        # rate 1e5 pkt/s on 0.1 ms slots: mean 10 per slot
        n = 100_000
        rec = simulate_cff(ONE_SLOT, 1e5, 0.0, n, seed=7)
        assert rec.arrived(PULL) / n == pytest.approx(10.0, abs=0.05)

    def test_batched_counts_mean_over_million_slots(self):
        # one count per 100-slot frame: rate 1e4 pkt/s, mean 1 per slot
        rec = simulate_cff(HUNDRED_SLOTS, 1e4, 0.0, 10_000, seed=11)
        assert rec.arrived(PULL) / 1_000_000 == pytest.approx(1.0, abs=0.005)

    def test_deterministic_given_seed(self):
        a = simulate_cff(HUNDRED_SLOTS, 5000.0, 3000.0, 200, seed=42)
        b = simulate_cff(HUNDRED_SLOTS, 5000.0, 3000.0, 200, seed=42)
        for klass in PacketClass:
            assert a.latency_slots(klass).tolist() == b.latency_slots(klass).tolist()
            assert (a.arrived(klass), a.failed(klass)) == (b.arrived(klass), b.failed(klass))
        # the pull counts are drawn first, then the push counts
        rng = np.random.default_rng(42)
        assert a.arrived(PULL) == rng.poisson(5000.0 * 1e-4 * 100, size=200).sum()
        assert a.arrived(PUSH) == rng.poisson(3000.0 * 1e-4 * 100, size=200).sum()

    def test_validation(self):
        for bad in (-1.0, math.nan, math.inf):
            with pytest.raises(ValueError, match="finite and >= 0"):
                simulate_cff(ONE_SLOT, bad, 1.0, 10, seed=0)
            with pytest.raises(ValueError, match="finite and >= 0"):
                simulate_cff(ONE_SLOT, 1.0, bad, 10, seed=0)
        with pytest.raises(ValueError):
            FrameConfig(10, 0.0, 1, 1, 0.5)
        with pytest.raises(ValueError):
            FrameConfig(0, 0.01, 1, 1, 0.5)
        with pytest.raises(ValueError):
            simulate_cff(ONE_SLOT, 1.0, 1.0, 0, seed=0)

    def test_offsets_sorted_in_range(self):
        rng = np.random.default_rng(5)
        offs = sample_arrival_offsets(np.array([500]), 40, rng)
        assert offs.shape == (500,)
        assert (offs[:-1] <= offs[1:]).all()
        assert offs.min() >= 0 and offs.max() < 40
        assert sample_arrival_offsets(np.array([0]), 40, rng).size == 0

    def test_batched_offsets_match_per_batch_draws(self):
        # one draw over consecutive batches yields the values of one draw per
        # batch, each sorted within its batch, and leaves the stream where the
        # per-batch draws leave it
        counts = np.array([3, 0, 7, 1, 0, 12, 5])
        per_batch = np.random.default_rng(9)
        expected = [np.sort(per_batch.integers(0, 6, size=n, dtype=np.int64)) for n in counts]
        batched = np.random.default_rng(9)
        offs = sample_arrival_offsets(counts, 6, batched)
        assert offs.tolist() == np.concatenate(expected).tolist()
        assert batched.integers(0, 2**32) == per_batch.integers(0, 2**32)


class TestSemanticQuery:
    def test_full_interval_matches_everything(self):
        obs = np.random.default_rng(0).uniform(size=50)
        assert matches(SemanticQuery(0.0, 1.0), obs).all()

    def test_point_query(self):
        assert matches(SemanticQuery(0.4, 0.4), np.array([0.4, 0.5])).tolist() == [True, False]

    def test_match_fraction_concentrates(self):
        rng = np.random.default_rng(21)
        values = rng.uniform(size=100_000)
        matched = matches(SemanticQuery(0.2, 0.7), values)
        assert matched.mean() == pytest.approx(0.5, abs=0.01)

    def test_invalid(self):
        with pytest.raises(ValueError):
            SemanticQuery(0.7, 0.2)
        with pytest.raises(ValueError):
            SemanticQuery(math.nan, 0.5)

    def test_match_probability(self):
        assert match_probability(SemanticQuery(0.2, 0.7)) == pytest.approx(0.5)
        assert match_probability(SemanticQuery(-1.0, 2.0)) == pytest.approx(1.0)
        assert match_probability(SemanticQuery(1.5, 2.0)) == 0.0
        # the fraction of pull devices an RCS frame finds matching
        for lo, hi in ((0.2, 0.7), (-1.0, 2.0), (1.5, 2.0)):
            query = SemanticQuery(lo, hi)
            matched = pull_devices(50, query, 400, seed=13)
            assert matched.mean() / 50 == pytest.approx(match_probability(query), abs=0.01)


class TestPushTrigger:
    def test_threshold_one_never_pushes(self):
        assert not push_devices(10, 1.0, 200, seed=0).any()

    def test_threshold_zero_always_pushes(self):
        assert (push_devices(10, 0.0, 200, seed=0) == 10).all()

    def test_inclusion_rate(self):
        included = push_devices(100, 0.9, 1000, seed=31).sum()
        assert included / 100_000 == pytest.approx(0.1, abs=0.005)

    def test_validation(self):
        with pytest.raises(ValueError, match=r"threshold out of \[0,1\]: 1.2"):
            RcsPopulation(0, 0, 1.2)
        with pytest.raises(ValueError, match="threshold out of"):
            RcsPopulation(0, 0, -0.01)
        with pytest.raises(ValueError, match="threshold out of"):
            RcsPopulation(0, 0, math.nan)
        with pytest.raises(ValueError, match="device counts"):
            RcsPopulation(0, -1, 0.5)
        for edge in (0.0, 1.0):
            assert RcsPopulation(1, 1, edge).push_threshold == edge


class TestObservationModel:
    """Pull devices' observations: one uniform draw on [0, 1) per device and
    frame, seen through the per-frame matched counts of ``simulate_rcs``."""

    def test_default_uniform(self):
        # every observation lies in [0, 1], and a quarter of them in each quarter
        assert (pull_devices(1000, ALL, 20, seed=0) == 1000).all()
        for lo, hi in ((0.0, 0.25), (0.25, 0.5), (0.75, 1.0)):
            matched = pull_devices(1000, SemanticQuery(lo, hi), 40, seed=1)
            assert matched.sum() / 40_000 == pytest.approx(0.25, abs=0.01)

    def test_resampled_each_call(self):
        matched = pull_devices(10, SemanticQuery(0.0, 0.5), 50, seed=9)
        assert len(set(matched.tolist())) > 1

    def test_independence_across_frames_and_devices(self):
        # two devices matching with probability 1/2 each: the per-frame count
        # has variance 1/2 + 2 cov, so cov / (1/4) is the cross-device
        # correlation; the count's frame-to-frame autocorrelation shows a
        # device's own
        matched = pull_devices(2, SemanticQuery(0.0, 0.5), 20_000, seed=17).astype(np.float64)
        cross = (matched.var() - 0.5) / 0.5
        serial = np.corrcoef(matched[:-1], matched[1:])[0, 1]
        assert abs(cross) < 0.02
        assert abs(serial) < 0.02


class TestDeriveSeed:
    def test_xor_scheme(self):
        assert derive_seed(0, 5) == 5
        assert derive_seed(12345, 0) == 12345
        seeds = {derive_seed(99, k) for k in range(100)}
        assert len(seeds) == 100

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            derive_seed(-1, 0)
        with pytest.raises(ValueError):
            derive_seed(0, -1)

    def test_rejects_seeds_beyond_64_bits(self):
        assert derive_seed(2**64 - 1, 1) == 2**64 - 2
        with pytest.raises(ValueError):
            derive_seed(5 + 2**64, 0)

    def test_determinism_of_generators(self):
        a = push_devices(50, 0.5, 20, seed=derive_seed(7, 3))
        b = push_devices(50, 0.5, 20, seed=derive_seed(7, 3))
        assert a.tolist() == b.tolist()
