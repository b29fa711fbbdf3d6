"""Shared randomized-invariant checks used by the property and acceptance suites."""
from __future__ import annotations

import numpy as np

from pushpull_mac import (
    FrameConfig,
    PacketClass,
    RcsPopulation,
    PushTrigger,
    SemanticQuery,
    SlotKind,
    run_rcs_frame,
    simulate_cff,
)


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
    collision-freedom of pull, FIFO order and eligibility timing."""
    s = config.slots_per_frame
    slot_rate = s / config.frame_duration
    pull_rate = float(rng.uniform(0, 1.5 * slot_rate / config.pull_packet_slots))
    push_rate = float(rng.uniform(0, 1.0 * slot_rate / config.push_packet_slots))
    horizon = int(rng.integers(3, 26))
    retransmit = bool(rng.random() < 0.7)

    deliveries = []  # (klass, arrival_slots, delivery_slots) per delivering sub-frame
    record = simulate_cff(
        config,
        pull_rate,
        push_rate,
        horizon,
        seed=int(rng.integers(0, 2**32)),
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
    for klass, arrival, delivery in deliveries:
        assert arrival.size == delivery.size > 0
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
