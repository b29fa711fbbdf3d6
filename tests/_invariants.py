"""Shared randomized-invariant checks used by the property and acceptance suites."""
from __future__ import annotations

import numpy as np

from pushpull_mac import (
    FrameConfig,
    PacketClass,
    PoissonArrivals,
    RcsPopulation,
    PushTrigger,
    SemanticQuery,
    SlotKind,
    run_rcs_frame,
    schedule_pull,
    simulate_cff,
    simulate_rcs,
    uniform_slot_contention,
)
from pushpull_mac.core import stable_floor
from pushpull_mac.metrics import MetricsRecord
from pushpull_mac.traffic import sample_arrival_offsets, sample_frame_arrival_counts


_MASK64 = (1 << 64) - 1
_HIGH = 0x9E3779B97F4A7C18


def generator_emitting(word: int, position: int, high: int = _HIGH) -> np.random.Generator:
    """A PCG64 generator whose 64-bit output number ``position`` is ``word``.

    PCG64 steps its 128-bit state, then outputs rotr64(high ^ low, high >> 58);
    any high half with low = rotl64(word, rotation) ^ high yields ``word``.
    The default high half makes outputs 0-2 doubles <= 0.5 for the words the
    RCS tests use; other high halves give other outputs before ``position``.
    """
    rot = high >> 58
    low = ((word << rot) | (word >> (64 - rot))) & _MASK64 ^ high
    bit_generator = np.random.PCG64(0)
    state = bit_generator.state
    state["state"]["state"] = (high << 64) | low
    bit_generator.state = state
    bit_generator.advance(-(position + 1))
    check = np.random.PCG64(0)
    check.state = bit_generator.state
    assert int(check.random_raw(position + 1)[-1]) == word
    return np.random.Generator(bit_generator)


def check_cff_matches_reference(config: FrameConfig, pull_rate, push_rate, horizon_frames, seed, **kw) -> None:
    """``simulate_cff`` and ``reference_cff_run`` give equal records (latency
    lists in order) and equal ``on_delivery`` calls.  ``seed`` may be a
    ``Generator`` factory, called once per run, for crafted states."""
    runs = []
    for run in (reference_cff_run, simulate_cff):
        log = []
        rng = seed() if callable(seed) else seed
        record = run(config, pull_rate, push_rate, horizon_frames, rng, on_delivery=lambda *d: log.append(d), **kw)
        runs.append((record, log))
    (want, want_log), (got, got_log) = runs
    for name in MetricsRecord.__slots__:
        assert getattr(got, name) == getattr(want, name), f"{name} differs"
    assert len(got_log) == len(want_log), "on_delivery call count differs"
    for (k1, a1, d1), (k2, a2, d2) in zip(got_log, want_log):
        assert k1 is k2 and a1.tolist() == a2.tolist() and d1.tolist() == d2.tolist(), "on_delivery calls differ"


def reference_cff_run(
    config: FrameConfig,
    pull_rate: float,
    push_rate: float,
    horizon_frames: int,
    seed,
    *,
    warmup_frames: int = 0,
    push_retransmit: bool = True,
    on_delivery=None,
    push_abort=None,
) -> MetricsRecord:
    """``simulate_cff`` as a loop of ``Generator`` calls: one
    ``uniform_slot_contention`` call per push contention round and one
    ``sample_arrival_offsets`` call for the offsets drawn between two rounds.
    ``simulate_cff`` replays the same draws on raw generator output, so both
    must give the same record and the same ``on_delivery`` calls."""
    rng = np.random.default_rng(seed)
    S = config.slots_per_frame
    slot_dur = config.slot_duration
    push_ops = config.push_tx_capacity
    push_stride = config.push_packet_slots
    push_start_off = config.data_start_slot + config.pull_slot_budget
    measured_from_slot = warmup_frames * S
    record = MetricsRecord()

    # draw order: both per-frame count batches, then per frame: push
    # contention, pull arrival offsets, push arrival offsets
    pull_counts = sample_frame_arrival_counts(PoissonArrivals(pull_rate, slot_dur), S, horizon_frames, rng)
    push_counts = sample_frame_arrival_counts(PoissonArrivals(push_rate, slot_dur), S, horizon_frames, rng)

    late_slots, late_budget, late_cum = 0, np.inf, 0
    if push_abort is not None:
        late_slots = stable_floor(push_abort.latency_target / slot_dur)
        late_budget = (1.0 - push_abort.target_reliability) * int(push_counts[warmup_frames:].sum())

    # frames [0, drawn) have their arrival slots in drawn_parts
    batches = np.stack((pull_counts, push_counts), axis=1).ravel()
    is_push = np.repeat(np.tile((False, True), horizon_frames), batches)
    frame_base = np.repeat(np.arange(0, horizon_frames * S, S, dtype=np.int64), pull_counts + push_counts)
    frame_start = [0] + np.cumsum(pull_counts + push_counts).tolist()
    drawn_parts = []

    def draw_arrivals(lo, hi):
        a, b = frame_start[lo], frame_start[hi]
        slots = sample_arrival_offsets(batches[2 * lo : 2 * hi], S, rng) + frame_base[a:b]
        drawn_parts.append(slots)
        return slots[is_push[a:b]]

    drawn = 0
    pend_arrival = np.empty(0, dtype=np.int64)
    arrived_frames = horizon_frames
    for f in range(horizon_frames):
        # the round's draw follows the offsets of every earlier frame
        if drawn < f and (push_counts[drawn:f].any() or pend_arrival.size):
            pend_arrival = np.concatenate((pend_arrival, draw_arrivals(drawn, f)))
            drawn = f
        if pend_arrival.size and push_ops > 0:
            choices, _, winner_mask = uniform_slot_contention(pend_arrival.size, push_ops, rng)
            if winner_mask.any():
                won_arrival = pend_arrival[winner_mask]
                delivery_slots = choices[winner_mask] * push_stride + (f * S + push_start_off + push_stride - 1)
                lats = (delivery_slots + 1 - won_arrival) * slot_dur
                record.extend_deliveries(PacketClass.PUSH, lats[won_arrival >= measured_from_slot])
                if on_delivery is not None:
                    on_delivery(PacketClass.PUSH, won_arrival, delivery_slots)
            if push_retransmit:
                pend_arrival = pend_arrival[~winner_mask]
            else:
                lost = int(np.count_nonzero(pend_arrival[~winner_mask] >= measured_from_slot))
                record.add_failures(PacketClass.PUSH, lost)
                pend_arrival = pend_arrival[:0]
        if push_abort is not None and pend_arrival.size:
            lo = max(f * S - late_slots + 1, measured_from_slot)
            hi = (f + 1) * S - late_slots
            late_cum += int(np.count_nonzero((pend_arrival >= lo) & (pend_arrival <= hi)))
            if late_cum > late_budget:
                arrived_frames = f
                break

    if drawn < arrived_frames:
        pend_arrival = np.concatenate((pend_arrival, draw_arrivals(drawn, arrived_frames)))
    all_slots = np.concatenate(drawn_parts) if drawn_parts else np.empty(0, dtype=np.int64)
    pull_arrivals = all_slots[~is_push[: all_slots.size]]

    n_served = 0
    if config.pull_tx_capacity and pull_arrivals.size:
        pull_frames = min(arrived_frames + 1, horizon_frames)
        delivery_slots = schedule_pull(
            np.concatenate(([0], pull_counts[: pull_frames - 1])),
            config.pull_tx_capacity,
            S,
            config.data_start_slot,
            config.pull_packet_slots,
        )
        n_served = delivery_slots.size
        served = pull_arrivals[:n_served]
        lats = (delivery_slots + 1 - served) * slot_dur
        record.extend_deliveries(PacketClass.PULL, lats[served >= measured_from_slot])
        if on_delivery is not None and n_served:
            cuts = np.flatnonzero(np.diff(delivery_slots // S)) + 1
            for arrival, delivery in zip(np.split(served, cuts), np.split(delivery_slots, cuts)):
                on_delivery(PacketClass.PULL, arrival, delivery)

    # close the run: undelivered measured packets, and every arrival of the
    # frames never simulated after an abort, are misses
    start = max(arrived_frames, warmup_frames)
    for klass, pending, counts in (
        (PacketClass.PULL, pull_arrivals[n_served:], pull_counts),
        (PacketClass.PUSH, pend_arrival, push_counts),
    ):
        record.add_arrivals(klass, int(counts[warmup_frames:].sum()))
        record.add_failures(klass, int(np.count_nonzero(pending >= measured_from_slot)) + int(counts[start:].sum()))
    return record


def random_cff_config(rng: np.random.Generator) -> FrameConfig:
    s = int(rng.integers(2, 61))
    pull_slots = int(rng.integers(1, min(s, 4) + 1))
    push_slots = int(rng.integers(1, min(s, 3) + 1))
    overhead = int(rng.integers(0, min(s - 1, 3) + 1)) if rng.random() < 0.3 else 0
    alpha = float(rng.choice([0.0, 1.0, round(float(rng.random()), 3)]))
    return FrameConfig(
        slots_per_frame=s,
        frame_duration=float(rng.uniform(0.002, 0.02)),
        pull_packet_slots=pull_slots,
        push_packet_slots=push_slots,
        alpha=alpha,
        overhead_slots=overhead,
    )


def check_cff_run(config: FrameConfig, rng: np.random.Generator) -> None:
    """One randomized CFF run; asserts conservation, sub-frame containment,
    collision-freedom of pull, FIFO order, eligibility timing, pull work
    conservation and one delivery callback per delivering sub-frame."""
    s = config.slots_per_frame
    slot_rate = s / config.frame_duration
    pull_rate = float(rng.uniform(0, 1.5 * slot_rate / config.pull_packet_slots))
    push_rate = float(rng.uniform(0, 1.0 * slot_rate / config.push_packet_slots))
    horizon = int(rng.integers(3, 26))
    retransmit = bool(rng.random() < 0.7)
    seed = int(rng.integers(0, 2**32))

    deliveries = []  # (klass, arrival_slots, delivery_slots) per delivering sub-frame
    record = simulate_cff(
        config,
        pull_rate,
        push_rate,
        horizon,
        seed=seed,
        push_retransmit=retransmit,
        on_delivery=lambda *d: deliveries.append(d),
    )

    # exact conservation per class (no warm-up)
    assert record.pull_arrived == record.pull_delivered + record.pull_failed
    assert record.push_arrived == record.push_delivered + record.push_failed
    assert len(record.pull_latencies) == record.pull_arrived
    assert len(record.push_latencies) == record.push_arrived
    assert sum(a.size for k, a, _ in deliveries if k is PacketClass.PULL) == record.pull_delivered
    assert sum(a.size for k, a, _ in deliveries if k is PacketClass.PUSH) == record.push_delivered

    pull_budget = config.pull_slot_budget
    data_start = config.data_start_slot
    push_start = data_start + pull_budget
    pull_blocks = []
    last_pull_arrival = -1
    served = {klass: np.zeros(horizon, dtype=np.int64) for klass in PacketClass}  # per frame
    for klass, arrival, delivery in deliveries:
        assert arrival.size == delivery.size > 0
        frame = int(delivery[0]) // s
        assert (delivery // s == frame).all() and served[klass][frame] == 0, "one call per delivering sub-frame"
        served[klass][frame] = delivery.size
        assert (delivery + 1 - arrival > 0).all()
        assert (delivery // s > arrival // s).all(), "delivered before eligibility"
        off = delivery % s
        if klass is PacketClass.PULL:
            stride = config.pull_packet_slots
            assert ((data_start + stride - 1 <= off) & (off < data_start + pull_budget)).all()
            assert ((off - data_start - (stride - 1)) % stride == 0).all()
            assert arrival[0] >= last_pull_arrival and (np.diff(arrival) >= 0).all(), "pull FIFO order broken"
            last_pull_arrival = int(arrival[-1])
            pull_blocks.extend(zip((delivery - stride + 1).tolist(), delivery.tolist()))
        else:
            if not retransmit:
                # a single attempt: contention in the frame after arrival
                assert (delivery // s == arrival // s + 1).all(), "push retransmitted"
            push_end = data_start + config.usable_slots
            assert ((push_start + config.push_packet_slots - 1 <= off) & (off < push_end)).all()

    # no two pull transmissions may overlap any slot (contention-free sub-frame)
    pull_blocks.sort()
    for (a0, a1), (b0, b1) in zip(pull_blocks, pull_blocks[1:]):
        assert a1 < b0, "pull transmissions overlap"

    # pull work conservation: every frame serves min(eligible backlog, capacity).
    # The per-frame counts are the run's first draw; frame g's arrivals are
    # eligible from frame g+1.
    pull_counts = sample_frame_arrival_counts(
        PoissonArrivals(pull_rate, config.slot_duration), s, horizon, np.random.default_rng(seed)
    )
    backlog = 0
    for g in range(horizon):
        backlog += int(pull_counts[g - 1]) if g else 0
        assert served[PacketClass.PULL][g] == min(backlog, config.pull_tx_capacity), "pull service not work-conserving"
        backlog -= int(served[PacketClass.PULL][g])


def random_rcs_case(rng: np.random.Generator):
    s = int(rng.integers(1, 41))
    alpha = float(rng.choice([0.0, 1.0, round(float(rng.random()), 3)]))
    config = FrameConfig(s, 0.01, 1, 1, alpha)
    population = RcsPopulation(
        n_pull_devices=int(rng.integers(0, 16)),
        n_push_devices=int(rng.integers(0, 16)),
        trigger=PushTrigger(float(rng.random())),
    )
    lo = float(rng.uniform(-0.1, 1.0))
    query = SemanticQuery(lo, lo + float(rng.uniform(0, 1.1)))
    return config, population, query


def _transmissions(outcomes) -> int:
    return sum(o.count for o in outcomes)


def check_rcs_frame(config, population, query, rng: np.random.Generator) -> None:
    """One randomized RCS frame; asserts the transmit-once-per-portion count
    identities and that push traffic never enters the reserved portion."""
    fr = run_rcs_frame(config, population, query, rng, record_outcomes=True)
    n_pull = population.n_pull_devices
    reserved_ops = config.pull_slot_budget
    shared_ops = config.push_slot_budget

    assert 0 <= fr.pull_succeeded <= fr.matched_pull
    assert 0 <= fr.push_succeeded <= fr.push_attempted
    assert fr.pull_succeeded_reserved + fr.pull_succeeded_shared == fr.pull_succeeded
    assert fr.retrieval_success == (fr.pull_succeeded == fr.matched_pull)

    if reserved_ops > 0:
        # every matched device transmits exactly once here and nothing else does;
        # the count identity also rules out any device transmitting twice
        assert _transmissions(fr.reserved_outcomes) == fr.matched_pull
        for o in fr.reserved_outcomes:
            if o.kind is SlotKind.SUCCESS:
                assert o.winner < n_pull, "push id won a reserved slot"
        stragglers = fr.matched_pull - fr.pull_succeeded_reserved
    else:
        assert fr.reserved_outcomes == ()
        assert fr.pull_succeeded_reserved == 0
        stragglers = fr.matched_pull

    if shared_ops > 0:
        assert _transmissions(fr.shared_outcomes) == stragglers + fr.push_attempted
        winners = [o.winner for o in fr.shared_outcomes if o.kind is SlotKind.SUCCESS]
        assert len(winners) == len(set(winners))
        assert sum(1 for w in winners if w >= n_pull) == fr.push_succeeded
        assert sum(1 for w in winners if w < n_pull) == fr.pull_succeeded_shared
    else:
        assert fr.push_succeeded == 0
        assert fr.pull_succeeded_shared == 0


def check_rcs_run(config, population, query, n_frames: int, seed: int) -> None:
    """``simulate_rcs`` replays the generator's raw output in blocks of frames;
    its frames must equal a loop of ``run_rcs_frame`` calls on the same seed."""
    rng = np.random.default_rng(seed)
    expected = [run_rcs_frame(config, population, query, rng, record_outcomes=False) for _ in range(n_frames)]
    res = simulate_rcs(config, population, query, n_frames, seed)
    assert len(res.frames) == n_frames
    for g, (got, want) in enumerate(zip(res.frames, expected)):
        assert got == want, f"frame {g}: {got} != {want}"
    assert res.record.rcs_retrieval_successes == sum(f.retrieval_success for f in expected)
    assert res.record.rcs_push_attempts == sum(f.push_attempted for f in expected)
    assert res.record.rcs_push_successes == sum(f.push_succeeded for f in expected)
