"""RCS frame simulator: query-triggered pull contention in reserved slots,
then shared slots where residual pull responses and push traffic contend
together.

Queries are per-frame: devices that fail both the reserved attempt and the
single shared retry do not carry over (the next frame is a fresh query).
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .core import FrameConfig, SlotOutcome
from .mac_cff import uniform_slot_contention
from .metrics import MetricsRecord
from .traffic import ObservationModel, PushTrigger, SemanticQuery

__all__ = ["RcsPopulation", "FrameResult", "RcsResult", "run_rcs_frame", "simulate_rcs"]


@dataclass(frozen=True, slots=True)
class RcsPopulation:
    """Disjoint pull- and push-enabled device sets with their data models.

    Device ids: pull devices are 0..n_pull-1, push devices follow.
    """

    n_pull_devices: int
    n_push_devices: int
    trigger: PushTrigger
    observations: ObservationModel = ObservationModel()

    def __post_init__(self) -> None:
        if self.n_pull_devices < 0 or self.n_push_devices < 0:
            raise ValueError("device counts must be >= 0")


@dataclass(frozen=True, slots=True)
class FrameResult:
    """Per-frame outcome counts; a frame retrieves successfully iff every
    query-matching device got its response through."""

    matched_pull: int
    pull_succeeded: int
    push_attempted: int
    push_succeeded: int
    pull_succeeded_reserved: int = 0
    pull_succeeded_shared: int = 0
    reserved_outcomes: Tuple[SlotOutcome, ...] = ()
    shared_outcomes: Tuple[SlotOutcome, ...] = ()

    def __post_init__(self) -> None:
        if self.pull_succeeded > self.matched_pull:
            raise ValueError("pull_succeeded cannot exceed matched_pull")
        if self.push_succeeded > self.push_attempted:
            raise ValueError("push_succeeded cannot exceed push_attempted")
        if self.pull_succeeded_reserved + self.pull_succeeded_shared != self.pull_succeeded:
            raise ValueError("reserved/shared pull successes must sum to pull_succeeded")

    @property
    def retrieval_success(self) -> bool:
        return self.pull_succeeded == self.matched_pull


def _contention_slots(config: FrameConfig) -> Tuple[int, int, int]:
    """(packet size, reserved opportunities, shared opportunities) for RCS."""
    if config.pull_packet_slots != config.push_packet_slots:
        raise ValueError(
            "RCS shared contention requires equal pull/push packet sizes, "
            f"got {config.pull_packet_slots} and {config.push_packet_slots}"
        )
    k = config.pull_packet_slots
    return k, config.pull_slot_budget // k, config.push_slot_budget // k


def _outcomes(choices: np.ndarray, counts: np.ndarray, ids: Sequence[int]) -> List[SlotOutcome]:
    """Per-slot channel results of one contention round, without capture: a
    slot with one transmitter delivers it, two or more all fail."""
    winners = {}
    for i, slot in enumerate(choices):
        if counts[slot] == 1:
            winners[int(slot)] = ids[i]
    out: List[SlotOutcome] = []
    for slot, count in enumerate(counts):
        if count == 0:
            out.append(SlotOutcome.idle())
        elif count == 1:
            out.append(SlotOutcome.success(winners[slot]))
        else:
            out.append(SlotOutcome.collision(int(count)))
    return out


def run_rcs_frame(
    config: FrameConfig,
    population: RcsPopulation,
    query: SemanticQuery,
    rng: np.random.Generator,
    *,
    record_outcomes: bool = True,
) -> FrameResult:
    """Simulate one RCS frame.

    Observations are drawn fresh, query-matching pull devices contend in the
    reserved slots (skipped if that budget is zero), then the unsuccessful
    ones retry once alongside the frame's pushing devices in the shared slots.
    Inter- and intra-class collisions are both plain losses.

    ``record_outcomes=False`` skips per-slot outcome objects (the counts-only
    path consumes the identical random draws, so results do not change).
    """
    _, reserved_ops, shared_ops = _contention_slots(config)
    return _run_frame(reserved_ops, shared_ops, population, query, rng, record_outcomes)[0]


def _run_frame(
    reserved_ops: int,
    shared_ops: int,
    population: RcsPopulation,
    query: SemanticQuery,
    rng: np.random.Generator,
    record_outcomes: bool,
    pending: Optional[np.ndarray] = None,
) -> Tuple[FrameResult, Optional[np.ndarray]]:
    """One RCS frame; returns its result and the next ``pending`` mask.

    ``pending`` (persistent-backlog mode) marks push devices whose update
    collided earlier: they re-attempt this frame and their fresh trigger draw
    is discarded.  Both modes make the same draws in the same order, so they
    differ only in which devices enter the shared contention.  Without
    ``pending`` the returned mask is None.
    """
    n_pull = population.n_pull_devices

    # canonical draw order: observations, push triggers, reserved, shared
    match_mask = query.match_mask(population.observations.sample(n_pull, rng))
    n_matched = int(np.count_nonzero(match_mask))
    push_mask = population.trigger.push_mask(population.n_push_devices, rng)
    if pending is not None:
        push_mask |= pending
    n_pushing = int(np.count_nonzero(push_mask))

    reserved_outcomes: Tuple[SlotOutcome, ...] = ()
    reserved_winner_mask = None
    if reserved_ops > 0 and n_matched:
        choices, counts, winner_mask = uniform_slot_contention(n_matched, reserved_ops, rng)
        n_res_won = int(np.count_nonzero(winner_mask))
        reserved_winner_mask = winner_mask
        if record_outcomes:
            matched_ids = [int(d) for d in np.flatnonzero(match_mask)]
            reserved_outcomes = tuple(_outcomes(choices, counts, matched_ids))
    else:
        n_res_won = 0
        if record_outcomes and reserved_ops > 0:
            reserved_outcomes = tuple(SlotOutcome.idle() for _ in range(reserved_ops))
    n_stragglers = n_matched - n_res_won

    pull_shared_succeeded = 0
    push_succeeded = 0
    shared_outcomes: Tuple[SlotOutcome, ...] = ()
    n_shared = n_stragglers + n_pushing
    if shared_ops > 0 and n_shared:
        choices, counts, winner_mask = uniform_slot_contention(n_shared, shared_ops, rng)
        pull_shared_succeeded = int(np.count_nonzero(winner_mask[:n_stragglers]))
        push_won = winner_mask[n_stragglers:]
        push_succeeded = int(np.count_nonzero(push_won))
        if record_outcomes:
            matched_ids = np.flatnonzero(match_mask)
            if reserved_winner_mask is not None:
                straggler_ids = matched_ids[~reserved_winner_mask]
            else:
                straggler_ids = matched_ids
            push_ids = n_pull + np.flatnonzero(push_mask)
            contender_ids = [int(d) for d in straggler_ids] + [int(d) for d in push_ids]
            shared_outcomes = tuple(_outcomes(choices, counts, contender_ids))
        if pending is not None:
            # delivered updates leave the backlog; collided ones stay pending
            push_mask[np.flatnonzero(push_mask)[push_won]] = False
    elif record_outcomes and shared_ops > 0:
        shared_outcomes = tuple(SlotOutcome.idle() for _ in range(shared_ops))

    result = FrameResult(
        matched_pull=n_matched,
        pull_succeeded=n_res_won + pull_shared_succeeded,
        push_attempted=n_pushing,
        push_succeeded=push_succeeded,
        pull_succeeded_reserved=n_res_won,
        pull_succeeded_shared=pull_shared_succeeded,
        reserved_outcomes=reserved_outcomes,
        shared_outcomes=shared_outcomes,
    )
    return result, (push_mask if pending is not None else None)


@dataclass(slots=True)
class RcsResult:
    """Aggregate of an RCS run; ``push_success_prob`` is None when no push was
    ever attempted."""

    retrieval_accuracy: float
    push_success_prob: Optional[float]
    frames: List[FrameResult]
    record: MetricsRecord


def simulate_rcs(
    config: FrameConfig,
    population: RcsPopulation,
    query: SemanticQuery,
    n_frames: int,
    seed: int,
    *,
    persistent_push_backlog: bool = False,
) -> RcsResult:
    """Run ``n_frames`` RCS frames.

    Retrieval accuracy is the fraction of frames in which every matching
    device was received (vacuously successful with zero matches); push success
    probability pools attempts across frames.  Frames are independent by
    default (failed devices abandon at the frame end); with
    ``persistent_push_backlog`` collided push updates carry over and retry
    until delivered.
    """
    if n_frames < 1:
        raise ValueError(f"n_frames must be >= 1, got {n_frames}")
    rng = np.random.default_rng(seed)
    record = MetricsRecord()
    frames: List[FrameResult] = []
    _, reserved_ops, shared_ops = _contention_slots(config)  # hoisted: loop invariant
    pending = np.zeros(population.n_push_devices, dtype=bool) if persistent_push_backlog else None
    for _ in range(n_frames):
        fr, pending = _run_frame(reserved_ops, shared_ops, population, query, rng, False, pending)
        frames.append(fr)
        record.add_rcs_frame(fr.retrieval_success, fr.push_attempted, fr.push_succeeded)
    accuracy = record.rcs_retrieval_successes / record.rcs_frames
    return RcsResult(
        retrieval_accuracy=accuracy,
        push_success_prob=record.push_success_rate,
        frames=frames,
        record=record,
    )
