import math

import numpy as np
import pytest

from pushpull_mac import FrameConfig, PacketClass, simulate_cff
from pushpull_mac.core import SLOT_LIMIT


def paper_config(alpha: float, **kw) -> FrameConfig:
    return FrameConfig(
        slots_per_frame=kw.pop("slots_per_frame", 100),
        frame_duration=kw.pop("frame_duration", 0.01),
        pull_packet_slots=kw.pop("pull_packet_slots", 5),
        push_packet_slots=kw.pop("push_packet_slots", 1),
        alpha=alpha,
        **kw,
    )


class TestFrameLayout:
    def test_full_pull_frame(self):
        layout = paper_config(1.0)
        assert layout.pull_tx_capacity == 20
        assert layout.push_slot_budget == 0
        assert layout.pull_slot_budget == 100

    def test_zero_pull_fraction(self):
        layout = paper_config(0.0)
        assert layout.pull_tx_capacity == 0
        assert layout.push_slot_budget == 100

    def test_fractional_alpha_floor(self):
        layout = paper_config(0.33)
        assert layout.pull_slot_budget == 33
        assert layout.pull_tx_capacity == 6
        assert layout.push_slot_budget == 67

    def test_float_representation_guard(self):
        # 0.29 * 100 == 28.999999999999996 in IEEE doubles; floor must give 29
        layout = paper_config(0.29)
        assert layout.pull_slot_budget == 29
        # at 10**8 slots the product's error passes any fixed epsilon: the
        # budget is the most k with k / S <= alpha
        assert math.floor(0.29 * 10**8 + 1e-9) == 28_999_999 and 29_000_000 / 10**8 == 0.29
        assert FrameConfig(10**8, 0.01, 1, 1, 0.29).pull_slot_budget == 29_000_000

    def test_budgets_partition_frame(self):
        rng = np.random.default_rng(1)
        for _ in range(300):
            s = int(rng.integers(1, 200))
            cfg = FrameConfig(s, 0.01, 1, 1, alpha=float(rng.random()))
            assert cfg.pull_slot_budget + cfg.push_slot_budget == s
            assert 0 <= cfg.pull_slot_budget <= s

    def test_monotone_in_alpha(self):
        alphas = [i / 40 for i in range(41)]
        layouts = [paper_config(a) for a in alphas]
        for prev, cur in zip(layouts, layouts[1:]):
            assert cur.pull_tx_capacity >= prev.pull_tx_capacity
            assert cur.push_slot_budget <= prev.push_slot_budget


class TestFrameConfigValidation:
    def test_alpha_out_of_range(self):
        with pytest.raises(ValueError, match=r"alpha out of \[0,1\]"):
            paper_config(1.5)
        with pytest.raises(ValueError, match=r"alpha out of \[0,1\]"):
            paper_config(-0.1)

    def test_bad_geometry(self):
        with pytest.raises(ValueError):
            FrameConfig(0, 0.01, 1, 1, 0.5)
        with pytest.raises(ValueError):
            FrameConfig(10, 0.01, 11, 1, 0.5)
        with pytest.raises(ValueError):
            FrameConfig(10, 0.01, 1, 11, 0.5)
        with pytest.raises(ValueError):
            FrameConfig(10, 0.0, 1, 1, 0.5)

    def test_slot_limit(self):
        # slot draws are replayed below 2**32 only; the frame owns that limit
        assert SLOT_LIMIT == 2**32
        largest = FrameConfig(2**32 - 1, 0.01, 1, 1, 0.5)
        assert largest.pull_slot_budget + largest.push_slot_budget == 2**32 - 1
        with pytest.raises(ValueError, match=r"slots_per_frame must be in \[1, 4294967296\), got 4294967296"):
            FrameConfig(2**32, 0.01, 1, 1, 0.5)

    def test_slot_duration(self):
        assert paper_config(0.5).slot_duration == pytest.approx(1e-4)


class TestPacket:
    def test_latency(self):
        # latency runs from the arrival slot to the end of the delivery slot
        cfg = paper_config(0.5)
        log = []
        rec = simulate_cff(cfg, 300, 300, 40, seed=4, on_delivery=lambda *d: log.append(d))
        for klass in PacketClass:
            expected = [
                float(lat) * cfg.slot_duration
                for k, arrival, delivery in log
                if k is klass
                for lat in delivery + 1 - arrival
            ]
            assert expected and all(x > 0 for x in expected)
            assert [x for x in rec.latencies(klass) if math.isfinite(x)] == expected
