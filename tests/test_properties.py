"""Randomized invariant sweep: conservation, collision-freedom, FIFO order and
portion purity over >= 10^3 generated configurations."""
from dataclasses import replace

import numpy as np

from pushpull_mac import CapacitySpec, FrameConfig, PacketClass, capacity, mac_cff, mac_rcs
from pushpull_mac.capacity import make_cff_rate_evaluator, max_class_rate, max_rate, service_ceiling
from pushpull_mac.mac_cff import PushAbortRule
from pushpull_mac.metrics import reliability_within, slot_budget

from _invariants import (
    check_cff_matches_reference,
    check_cff_run,
    check_rcs_frame,
    check_rcs_run,
    random_cff_config,
    random_rcs_case,
    reference_rate_evaluator,
)

N_CFF_CONFIGS = 600
N_RCS_FRAMES = 500
N_RCS_RUNS = 60
N_CFF_RUNS = 120
N_ABORT_RUNS = 300
N_CAPACITY_SEARCHES = 40

# a 20-slot, 10 ms frame: latency targets below and above one frame
CAPACITY_FRAME = (20, 0.01, 2, 1)
CAPACITY_TARGETS = (0.006, 0.025)


def test_cff_invariants_randomized():
    rng = np.random.default_rng(2024)
    for i in range(N_CFF_CONFIGS):
        config = random_cff_config(rng)
        try:
            check_cff_run(config, rng)
        except AssertionError as exc:
            raise AssertionError(f"config #{i} violated an invariant: {config}") from exc


def test_rcs_invariants_randomized():
    rng = np.random.default_rng(4048)
    for i in range(N_RCS_FRAMES):
        config, population, query = random_rcs_case(rng)
        try:
            check_rcs_frame(config, population, query, rng)
        except AssertionError as exc:
            raise AssertionError(
                f"case #{i} violated an invariant: {config}, pull={population.n_pull_devices}, "
                f"push={population.n_push_devices}, query=[{query.lo}, {query.hi}]"
            ) from exc


class _RawCalls:
    """Stands in for the Generator the RCS kernel reads, which only calls
    ``bit_generator.random_raw``; counts those calls, one a window."""

    def __init__(self, rng: np.random.Generator) -> None:
        self.bit_generator = self
        self._random_raw = rng.bit_generator.random_raw
        self.calls = 0

    def random_raw(self, size):
        self.calls += 1
        return self._random_raw(size)


def test_rcs_runs_match_frame_loop(monkeypatch):
    # run lengths whose words span one to about three of the kernel's
    # windows: runs end mid-window, and some refill mid-run
    windows = []
    kernel = mac_rcs._independent_frames

    def counting(*args):
        rng = _RawCalls(args[-1])
        counts = kernel(*args[:-1], rng)
        windows.append(rng.calls)
        return counts

    monkeypatch.setattr(mac_rcs, "_independent_frames", counting)
    rng = np.random.default_rng(8096)
    for i in range(N_RCS_RUNS):
        config, population, query = random_rcs_case(rng)
        doubles = population.n_pull_devices + population.n_push_devices  # a frame's fewest words
        n_frames = int(rng.integers(1, min(4000, 3 * mac_rcs._WINDOW_WORDS // max(doubles, 1)) + 1))
        seed = int(rng.integers(0, 2**32))
        try:
            check_rcs_run(config, population, query, n_frames, seed)
        except AssertionError as exc:
            raise AssertionError(
                f"run #{i} ({n_frames} frames, seed {seed}) differs from the frame loop: {config}, "
                f"pull={population.n_pull_devices}, push={population.n_push_devices}, "
                f"query=[{query.lo}, {query.hi}]"
            ) from exc
    assert len(windows) == N_RCS_RUNS
    assert sum(calls > 1 for calls in windows) >= N_RCS_RUNS // 4, windows


def _edge_cff_config(rng: np.random.Generator) -> FrameConfig:
    """Geometries whose draws consume no words or whose rounds run long."""
    return [
        FrameConfig(1, 0.001, 1, 1, 0.0),  # S = 1: offset draws consume nothing
        FrameConfig(12, 0.01, 2, 5, 0.5),  # push_tx_capacity 1: rounds consume nothing
        FrameConfig(12, 0.01, 1, 7, 0.5),  # push_tx_capacity 0: no rounds
        FrameConfig(20, 0.005, 2, 1, 1.0),  # alpha 1
        FrameConfig(20, 0.005, 2, 1, 0.0),  # alpha 0
        FrameConfig(40, 0.004, 3, 2, 0.45),  # multi-slot packets in both sub-frames
    ][int(rng.integers(0, 6))]


def test_cff_runs_match_reference(monkeypatch):
    # simulate_cff replays the generator's raw output; a loop of Generator
    # calls must give the same records and delivery callbacks.  Heavy push
    # loads back up to rounds longer than one raw window, and past the
    # 16 K contenders from which frames are taken in bulk while their rounds
    # are certified winnerless (in runs that retransmit and have no abort).
    rng = np.random.default_rng(1616)
    window_halves = 2 * mac_cff._WINDOW_WORDS
    certified = []  # per certifiable round (n > 16 K, K >= 2) of the current run: was it certified?
    stretches = []  # frames of each bulk take of the current run
    step, take = mac_cff._HalfStream.step, mac_cff._HalfStream.take_winnerless

    def spy_step(stream, n, m):
        if stream.push_ops >= 2 and n > mac_cff._PREFIX_PER_SLOT * stream.push_ops:
            certified.append(False)
        return step(stream, n, m)

    def spy_take(stream, *args):
        taken = take(stream, *args)
        certified.extend([True] * taken)
        stretches.append(taken)
        return taken

    monkeypatch.setattr(mac_cff._HalfStream, "step", spy_step)
    monkeypatch.setattr(mac_cff._HalfStream, "take_winnerless", spy_take)
    for i in range(N_CFF_RUNS):
        config = _edge_cff_config(rng) if rng.random() < 0.35 else random_cff_config(rng)
        slot_rate = config.slots_per_frame / config.frame_duration
        pull_rate = float(rng.uniform(0, 1.5 * slot_rate / config.pull_packet_slots)) * (rng.random() < 0.8)
        push_rate = float(rng.uniform(0, slot_rate / config.push_packet_slots)) * (rng.random() < 0.9)
        horizon = int(rng.integers(1, 160))
        kw = {}
        if i % 10 == 9:  # deep backlog: about 100 new contenders per frame
            config = FrameConfig(100, 0.01, 5, 1, 0.8)
            pull_rate, push_rate, horizon = 300.0, 10_000.0, 8 + window_halves // 80
        if rng.random() < 0.3:
            kw["warmup_frames"] = int(rng.integers(0, horizon))
        if rng.random() < 0.2:
            kw["push_retransmit"] = False
        if rng.random() < 0.4:
            target = float(rng.uniform(0.05, 6)) * config.frame_duration
            kw["push_abort"] = PushAbortRule(target, float(rng.choice([0.5, 0.9, 0.99, 1.0])))
        seed = int(rng.integers(0, 2**32))
        certified.clear()
        stretches.clear()
        try:
            check_cff_matches_reference(config, pull_rate, push_rate, horizon, seed, **kw)
        except AssertionError as exc:
            raise AssertionError(
                f"run #{i} differs from the Generator loop: {config}, rates {pull_rate}/{push_rate}, "
                f"{horizon} frames, seed {seed}, {kw}"
            ) from exc
        if kw.keys() & {"push_abort", "push_retransmit"}:
            # runs with an abort or without retransmission go frame by frame
            assert not stretches, f"run #{i} ({kw}) took a stretch"
        elif i % 10 == 9:
            assert any(certified), f"deep backlog #{i} had no certified round"
            assert max(stretches) > 1, f"deep backlog #{i} took no frames in bulk"


def test_push_abort_is_certified():
    # a run with the abort either keeps the plain run's exact record, or
    # stops where the plain run misses the target, reading no more than it
    rng = np.random.default_rng(6464)
    short_aborts = 0  # aborted runs whose target is one frame or less
    for i in range(N_ABORT_RUNS):
        config = random_cff_config(rng)
        slot_rate = config.slots_per_frame / config.frame_duration
        pull_rate = float(rng.uniform(0, slot_rate / config.pull_packet_slots)) * (rng.random() < 0.5)
        push_rate = float(rng.uniform(0, slot_rate / config.push_packet_slots))
        horizon = int(rng.integers(2, 120))
        warmup = int(rng.integers(0, horizon)) if rng.random() < 0.3 else 0
        frames = float(rng.uniform(0.05, 6))
        target = float(rng.choice([0.5, 0.9, 0.99, 1.0]))
        rule = PushAbortRule(frames * config.frame_duration, target)
        seed = int(rng.integers(0, 2**32))
        plain = mac_cff.simulate_cff(config, pull_rate, push_rate, horizon, seed, warmup_frames=warmup)
        run = mac_cff.simulate_cff(config, pull_rate, push_rate, horizon, seed, warmup_frames=warmup, push_abort=rule)
        case = f"run #{i}: {config}, rates {pull_rate}/{push_rate}, {horizon} frames, warm-up {warmup}, {rule}, seed {seed}"
        same = all(
            run.latency_slots(k).tolist() == plain.latency_slots(k).tolist()
            and (run.arrived(k), run.failed(k)) == (plain.arrived(k), plain.failed(k))
            for k in PacketClass
        )
        if not same:
            full = reliability_within(plain, PacketClass.PUSH, rule.latency_target)
            assert full < target and reliability_within(run, PacketClass.PUSH, rule.latency_target) <= full, case
            short_aborts += frames <= 1
    assert short_aborts > 0


def test_push_abort_lag_is_sound_and_tight():
    # the abort counts frame g's pending packets from frame g + lag on,
    # lag = max(1, ceil((B - 1) / S)) for the target's slot budget B; a packet
    # counted then has a latency of at least lag * S + 2 slots, so it is late
    # by the metric's rule (latency > B), and one frame earlier some packet
    # could still be on time, so the abort waits no frame longer than it must.
    # check_cff_matches_reference ties the kernel's lag to the reference's
    # own per-packet test, age * S + 2 > B.
    rng = np.random.default_rng(2828)
    for _ in range(20_000):
        s = int(rng.integers(1, 2000))
        slot = FrameConfig(s, int(rng.integers(1, 50)) * 1e-3, 1, 1, 0.5).slot_duration
        target = int(rng.integers(1, 200)) * 1e-3 if rng.random() < 0.5 else float(rng.uniform(slot, 400 * s * slot))
        budget = slot_budget(target, slot)
        lag = max(1, -(-(budget - 1) // s))
        assert lag * s + 2 > budget, (s, slot, target)
        assert lag == 1 or (lag - 1) * s + 2 <= budget, (s, slot, target)


def _capacity_spec(config, klass, target_latency, replications, target_reliability=0.99):
    """A search below the class's service ceiling, six probes deep."""
    ceiling = service_ceiling(config, klass)
    return CapacitySpec(
        target_latency=target_latency,
        rate_tolerance=ceiling / 64,
        rate_upper_bound=ceiling,
        horizon_frames=120,
        replications=replications,
        target_reliability=target_reliability,
    )


def test_capacity_probes_match_reference(monkeypatch):
    # a bisection driven by the reference probes rates on both sides of the
    # capacity; at each one, a complete probe must return the reference's
    # float, and a stopped one must fail where the reference fails
    rng = np.random.default_rng(3232)
    seen = {True: 0, False: 0}
    raised = []  # per push run: was its abort target raised above the probe's?
    simulate = capacity.simulate_cff

    def spy(*args, push_abort=None, **kwargs):
        if push_abort is not None:
            # a run may abort above the probe's target, never below it
            assert push_abort.target_reliability >= target
            raised.append(push_abort.target_reliability > target)
        return simulate(*args, push_abort=push_abort, **kwargs)

    monkeypatch.setattr(capacity, "simulate_cff", spy)
    for i in range(N_CAPACITY_SEARCHES):
        klass = (PacketClass.PULL, PacketClass.PUSH)[i % 2]
        config = FrameConfig(*CAPACITY_FRAME, alpha=float(rng.choice([0.3, 0.5, 0.7])))
        replications = int(rng.choice([1, 2, 3, 5]))
        target = float(rng.choice([0.5, 0.9, 0.99]))
        spec = _capacity_spec(config, klass, float(rng.choice(CAPACITY_TARGETS)), replications, target)
        seed = int(rng.integers(0, 2**32))
        want = reference_rate_evaluator(config, klass, spec, seed)
        got = make_cff_rate_evaluator(config, klass, spec, seed)

        def both(rate):
            ref = want(rate)
            rel, complete = got(rate)
            case = f"search #{i}: {klass.value} at {rate} pps, {spec}, seed {seed}"
            if complete:
                assert rel == ref, case
            else:
                assert rel < target and ref < target, case
            seen[complete] += 1
            return ref, True

        max_rate(both, spec)
    assert min(seen.values()) > 0 and any(raised), (seen, sum(raised))


def test_capacity_search_matches_reference():
    # 1.5 and 4 frames: the grid has reachable and unreachable searches
    unreachable = set()
    for alpha in (0.2, 0.5, 0.8):
        config = FrameConfig(*CAPACITY_FRAME, alpha=alpha)
        for target_latency in (0.015, 0.04):
            for klass in PacketClass:
                spec = _capacity_spec(config, klass, target_latency, 3)
                # max_class_rate caps the bound at the service ceiling itself
                got = max_class_rate(config, klass, replace(spec, rate_upper_bound=1e6), master_seed=11)
                want_evaluate = reference_rate_evaluator(config, klass, spec, 11)
                want = max_rate(lambda r: (want_evaluate(r), True), spec)
                assert (got.rate, got.unreachable) == (want.rate, want.unreachable), (alpha, target_latency, klass)
                unreachable.add(got.unreachable)
    assert unreachable == {True, False}
