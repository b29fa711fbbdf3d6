import math
from dataclasses import replace

import pytest

from pushpull_mac import (
    CapacitySpec,
    FrameConfig,
    PacketClass,
    max_class_rate,
    max_rate,
    run_experiment,
    validate_config,
)
from pushpull_mac.capacity import make_cff_rate_evaluator, search_spec, service_ceiling
import pushpull_mac.capacity as capacity
import pushpull_mac.harness as harness

PULL, PUSH = PacketClass.PULL, PacketClass.PUSH


def spec(**kw):
    defaults = dict(
        target_latency=0.02,
        rate_tolerance=10.0,
        rate_upper_bound=2000.0,
        horizon_frames=100,
        replications=1,
    )
    defaults.update(kw)
    return CapacitySpec(**defaults)


class TestMaxRate:
    def test_step_function_bracketed(self):
        res = max_rate(lambda r: (1.0 if r <= 1000 else 0.0, True), spec())
        assert 990 <= res.rate <= 1000
        assert not res.unreachable
        assert len(res.probes) <= math.ceil(math.log2(2000 / 10))

    def test_always_failing_flags_unreachable(self):
        res = max_rate(lambda r: (0.0, True), spec())
        assert res.rate == 0.0
        assert res.unreachable

    def test_always_passing_approaches_upper_bound(self):
        res = max_rate(lambda r: (1.0, True), spec())
        assert res.rate >= 2000 - 2 * 10
        assert res.rate < 2000
        assert not res.unreachable

    def test_evaluation_budget(self):
        calls = []
        max_rate(lambda r: (calls.append(r), (1.0 if r <= 700 else 0.0, True))[1], spec())
        assert len(calls) == math.ceil(math.log2(2000 / 10))

    def test_nonmonotone_reliability_flagged(self):
        # reliability dips right above the passing region then recovers at
        # higher rates; the probed values rise along sorted rates
        def evaluate(r):
            if r <= 900:
                return 1.0, True
            return (0.2 if r < 995 else 0.8), True

        res = max_rate(evaluate, spec())
        assert res.monotonicity_violated

    def test_stopped_probes_not_compared(self):
        # the same dip, read from probes that stopped early: their values
        # are bounds, not means, so the guard skips them
        def evaluate(r):
            if r <= 900:
                return 1.0, True
            return (0.2, False) if r < 995 else (0.8, True)

        res = max_rate(evaluate, spec())
        assert not res.monotonicity_violated
        assert [complete for _, _, complete in res.probes].count(False) > 0

    def test_spec_rejects_an_empty_horizon(self):
        with pytest.raises(ValueError, match="horizon_frames must be >= 1"):
            spec(horizon_frames=0)

    def test_monotone_not_flagged(self):
        res = max_rate(lambda r: (max(0.0, 1.0 - r / 1500), True), spec(target_reliability=0.5))
        assert not res.monotonicity_violated

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            spec(rate_tolerance=0.0)
        with pytest.raises(ValueError):
            spec(target_reliability=1.5)
        with pytest.raises(ValueError):
            spec(rate_upper_bound=-5)
        with pytest.raises(ValueError):
            spec(replications=0)
        with pytest.raises(ValueError):
            spec(target_latency=0.0)
        for bad in (math.inf, math.nan):
            with pytest.raises(ValueError):
                spec(target_latency=bad)
            with pytest.raises(ValueError):
                spec(rate_upper_bound=bad)
            with pytest.raises(ValueError):
                spec(rate_tolerance=bad)
        # a bracket already within tolerance would probe nothing, which
        # reads as an unreachable class; the bound may come from the ceiling
        for bound in (10.0, 5.0):
            with pytest.raises(ValueError, match="rate_tolerance"):
                max_rate(lambda r: (1.0, True), spec(rate_upper_bound=bound))
        half = FrameConfig(100, 0.01, 5, 1, alpha=0.5)  # pull ceiling 1000 pps
        with pytest.raises(ValueError, match="pull search at alpha 0.5, .*rate_tolerance"):
            max_class_rate(half, PULL, spec(rate_tolerance=2000.0, rate_upper_bound=1e6, horizon_frames=50), 1)


class TestServiceCeiling:
    def test_paper_geometry(self):
        cfg = FrameConfig(100, 0.01, 5, 1, alpha=1.0)
        assert service_ceiling(cfg, PULL) == pytest.approx(2000.0)
        assert service_ceiling(cfg, PUSH) == 0.0
        cfg0 = FrameConfig(100, 0.01, 5, 1, alpha=0.0)
        assert service_ceiling(cfg0, PULL) == 0.0
        assert service_ceiling(cfg0, PUSH) == pytest.approx(10000.0)

    def test_search_spec_caps_at_the_ceiling(self):
        half = FrameConfig(100, 0.01, 5, 1, alpha=0.5)  # pull ceiling 1000 pps, push 5000 pps
        wide = spec(rate_upper_bound=1e6)
        assert search_spec(half, PULL, wide) == replace(wide, rate_upper_bound=1000.0)
        assert search_spec(half, PUSH, spec(rate_upper_bound=2000.0)) == spec(rate_upper_bound=2000.0)
        assert search_spec(FrameConfig(100, 0.01, 5, 1, alpha=0.0), PULL, wide) is None  # no pull slot


class TestMaxClassRate:
    def test_zero_ceiling_short_circuits(self):
        cfg = FrameConfig(100, 0.01, 5, 1, alpha=0.0)
        res = max_class_rate(cfg, PULL, spec(), master_seed=1)
        assert res.rate == 0.0
        assert res.unreachable
        assert res.probes == ()

    def test_pull_capacity_below_hard_ceiling(self):
        # alpha=1: 20 pull packets per 10 ms frame caps service at 2000 pkt/s
        cfg = FrameConfig(100, 0.01, 5, 1, alpha=1.0)
        s = spec(rate_tolerance=50.0, rate_upper_bound=10000.0, horizon_frames=400, replications=3)
        res = max_class_rate(cfg, PULL, s, master_seed=7)
        assert 0 < res.rate < 2000.0
        assert not res.unreachable
        # direct confirmation that the ceiling rate itself is infeasible
        evaluate = make_cff_rate_evaluator(cfg, PULL, s, master_seed=7)
        rel, _ = evaluate(2000.0)
        assert rel < 0.99

    def test_vacuous_at_tiny_rate(self):
        cfg = FrameConfig(100, 0.01, 5, 1, alpha=0.5)
        evaluate = make_cff_rate_evaluator(cfg, PULL, spec(horizon_frames=50), master_seed=3)
        assert evaluate(0.0) == (1.0, True)


class TestProbeStops:
    """A probe simulates only the runs that decide it."""

    @staticmethod
    def probe(monkeypatch, cfg, klass, rate, replications):
        runs = []
        original = capacity.simulate_cff

        def counted(*args, **kwargs):
            runs.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(capacity, "simulate_cff", counted)
        s = spec(horizon_frames=200, replications=replications)
        rel, complete = make_cff_rate_evaluator(cfg, klass, s, master_seed=5)(rate)
        return rel, complete, len(runs)

    def test_pull_probe_at_the_ceiling_stops_after_one_run(self, monkeypatch):
        cfg = FrameConfig(100, 0.01, 5, 1, alpha=1.0)
        rel, complete, runs = self.probe(monkeypatch, cfg, PULL, service_ceiling(cfg, PULL), 3)
        assert (runs, complete) == (1, False)
        assert rel < 0.99

    def test_push_probe_far_above_capacity_stops_after_one_run(self, monkeypatch):
        cfg = FrameConfig(100, 0.01, 5, 1, alpha=0.3)
        rel, complete, runs = self.probe(monkeypatch, cfg, PUSH, 8000.0, 5)
        assert (runs, complete) == (1, False)
        assert rel < 0.99

    @pytest.mark.parametrize("klass, rate, replications", [(PULL, 200.0, 3), (PUSH, 20.0, 5)])
    def test_passing_probe_makes_every_run(self, monkeypatch, klass, rate, replications):
        cfg = FrameConfig(100, 0.01, 5, 1, alpha=0.5)
        rel, complete, runs = self.probe(monkeypatch, cfg, klass, rate, replications)
        assert (runs, complete) == (replications, True)
        assert rel >= 0.99


def frontier_rows(alphas, rate_tolerance_pps, horizon_frames):
    """Rows of a paper-frame capacity experiment, the frontier ``pushpull-mac
    capacity`` writes."""
    data = {
        "protocol": "cff",
        "experiment": "capacity",
        "frame": {"slots_per_frame": 100, "frame_duration_ms": 10.0, "pull_packet_slots": 5, "push_packet_slots": 1},
        "alphas": alphas,
        "latency_targets_ms": [20.0],
        "capacity": {"rate_tolerance_pps": rate_tolerance_pps, "rate_upper_bound_pps": 2000.0},
        "horizon_frames": horizon_frames,
        "replications": 1,
        "master_seed": 2,
    }
    return run_experiment(validate_config(data)).rows


class TestCapacityFrontier:
    def test_degenerate_endpoints(self):
        rows = frontier_rows([0.0, 0.5, 1.0], 100.0, 60)
        rate = {(r["alpha"], r["metric_name"]): float(r["metric_value"]) for r in rows}
        assert [r["alpha"] for r in rows] == ["0.0", "0.0", "0.5", "0.5", "1.0", "1.0"]
        assert rate["0.0", "max_pull_rate_pps"] == 0.0
        assert rate["1.0", "max_push_rate_pps"] == 0.0
        assert rate["0.5", "max_pull_rate_pps"] > 0.0
        assert not any(r["error"] for r in rows)

    def test_per_point_errors_do_not_abort(self, monkeypatch):
        original = harness.max_class_rate

        def flaky(config, klass, sp, master_seed=0):
            if config.alpha == 0.5:
                raise RuntimeError("boom")
            return original(config, klass, sp, master_seed)

        monkeypatch.setattr(harness, "max_class_rate", flaky)
        rows = frontier_rows([0.0, 0.5, 1.0], 200.0, 30)
        bad = [r for r in rows if r["error"]]
        assert [r["alpha"] for r in bad] == ["0.5", "0.5"]
        assert all("boom" in r["error"] and r["metric_value"] == "" for r in bad)
        assert all(r["metric_value"] != "" for r in rows if r["alpha"] != "0.5")
