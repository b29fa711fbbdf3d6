import math

import numpy as np
import pytest

from pushpull_mac import (
    ObservationModel,
    PoissonArrivals,
    PushTrigger,
    SemanticQuery,
    derive_seed,
)
from pushpull_mac.traffic import sample_arrival_offsets, sample_frame_arrival_counts


class TestPoissonArrivals:
    def test_zero_rate_never_arrives(self):
        proc = PoissonArrivals(rate=0.0, slot_duration=1e-4)
        rng = np.random.default_rng(0)
        counts = sample_frame_arrival_counts(proc, n_slots=1, n_frames=1000, rng=rng)
        assert counts.dtype == np.int64 and counts.shape == (1000,)
        assert not counts.any()

    def test_slot_mean_matches_rate(self):
        # rate 1e5 pkt/s on 0.1 ms slots: mean 10 per slot
        proc = PoissonArrivals(rate=1e5, slot_duration=1e-4)
        rng = np.random.default_rng(7)
        n = 100_000
        counts = sample_frame_arrival_counts(proc, n_slots=1, n_frames=n, rng=rng)
        assert counts.sum() / n == pytest.approx(10.0, abs=0.05)

    def test_batched_counts_mean_over_million_slots(self):
        proc = PoissonArrivals(rate=1e5, slot_duration=1e-4)
        rng = np.random.default_rng(11)
        counts = sample_frame_arrival_counts(proc, n_slots=100, n_frames=10_000, rng=rng)
        assert counts.sum() / 1_000_000 == pytest.approx(10.0, abs=0.05)

    def test_deterministic_given_seed(self):
        proc = PoissonArrivals(rate=5000.0, slot_duration=1e-4)
        rng1, rng2 = np.random.default_rng(42), np.random.default_rng(42)
        s1 = sample_frame_arrival_counts(proc, 100, 200, rng1)
        s2 = sample_frame_arrival_counts(proc, 100, 200, rng2)
        assert s1.tolist() == s2.tolist()

    def test_validation(self):
        with pytest.raises(ValueError):
            PoissonArrivals(rate=-1.0, slot_duration=1e-4)
        with pytest.raises(ValueError):
            PoissonArrivals(rate=1.0, slot_duration=0.0)
        proc = PoissonArrivals(rate=1.0, slot_duration=1e-4)
        with pytest.raises(ValueError):
            sample_frame_arrival_counts(proc, 0, 10, np.random.default_rng(0))
        with pytest.raises(ValueError):
            sample_frame_arrival_counts(proc, 10, 0, np.random.default_rng(0))

    def test_offsets_sorted_in_range(self):
        rng = np.random.default_rng(5)
        offs = sample_arrival_offsets(500, 40, rng)
        assert offs.shape == (500,)
        assert (offs[:-1] <= offs[1:]).all()
        assert offs.min() >= 0 and offs.max() < 40
        assert sample_arrival_offsets(0, 40, rng).size == 0


class TestSemanticQuery:
    def test_full_interval_matches_everything(self):
        obs = np.random.default_rng(0).uniform(size=50)
        assert SemanticQuery(0.0, 1.0).match_mask(obs).all()

    def test_point_query(self):
        assert SemanticQuery(0.4, 0.4).match_mask(np.array([0.4, 0.5])).tolist() == [True, False]

    def test_match_fraction_concentrates(self):
        rng = np.random.default_rng(21)
        values = rng.uniform(size=100_000)
        matched = SemanticQuery(0.2, 0.7).match_mask(values)
        assert matched.mean() == pytest.approx(0.5, abs=0.01)

    def test_invalid(self):
        with pytest.raises(ValueError):
            SemanticQuery(0.7, 0.2)
        with pytest.raises(ValueError):
            SemanticQuery(math.nan, 0.5)

    def test_match_probability(self):
        assert SemanticQuery(0.2, 0.7).match_probability == pytest.approx(0.5)
        assert SemanticQuery(-1.0, 2.0).match_probability == pytest.approx(1.0)
        assert SemanticQuery(1.5, 2.0).match_probability == 0.0


class TestPushTrigger:
    def test_threshold_one_never_pushes(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            assert not PushTrigger(1.0).push_mask(10, rng).any()

    def test_threshold_zero_always_pushes(self):
        rng = np.random.default_rng(0)
        assert PushTrigger(0.0).push_mask(10, rng).all()

    def test_inclusion_rate(self):
        rng = np.random.default_rng(31)
        included = 0
        for _ in range(1000):
            included += int(np.count_nonzero(PushTrigger(0.9).push_mask(100, rng)))
        assert included / 100_000 == pytest.approx(0.1, abs=0.005)

    def test_validation(self):
        with pytest.raises(ValueError):
            PushTrigger(1.2)
        with pytest.raises(ValueError):
            PushTrigger(-0.01)
        with pytest.raises(ValueError):
            PushTrigger(0.5).push_mask(-1, np.random.default_rng(0))


class TestObservationModel:
    def test_default_uniform(self):
        rng = np.random.default_rng(0)
        obs = ObservationModel().sample(1000, rng)
        assert obs.shape == (1000,)
        assert (obs >= 0).all() and (obs <= 1).all()

    def test_fixed_values(self):
        model = ObservationModel(fixed=(0.1, 0.9))
        assert model.sample(2, np.random.default_rng(0)).tolist() == [0.1, 0.9]
        with pytest.raises(ValueError):
            model.sample(3, np.random.default_rng(0))

    def test_resampled_each_call(self):
        rng = np.random.default_rng(9)
        model = ObservationModel()
        assert not np.array_equal(model.sample(10, rng), model.sample(10, rng))

    def test_independence_across_frames_and_devices(self):
        rng = np.random.default_rng(17)
        model = ObservationModel()
        draws = np.array([model.sample(2, rng) for _ in range(20_000)])
        # frame-to-frame autocorrelation per device, and cross-device correlation
        for series_a, series_b in (
            (draws[:-1, 0], draws[1:, 0]),
            (draws[:, 0], draws[:, 1]),
        ):
            corr = np.corrcoef(series_a, series_b)[0, 1]
            assert abs(corr) < 0.02


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

    def test_determinism_of_generators(self):
        t = PushTrigger(0.5)
        a = t.push_mask(50, np.random.default_rng(derive_seed(7, 3)))
        b = t.push_mask(50, np.random.default_rng(derive_seed(7, 3)))
        assert a.tolist() == b.tolist()
