"""Domain types, the slotted-time model shared by both frame simulators and
the seed rule.

Time is counted in global slot indices (integers from simulation start);
wall-clock quantities are always derived from slot counts so that runs are
bit-reproducible; a real quantity becomes whole slots by one rule, the most
k whose float64 image is within it (the pull sub-frame, :func:`slot_budget`).
A (seed, config) pair fully determines a run, and the harness and the
capacity search seed replications with :func:`derive_seed`.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Callable

__all__ = ["PacketClass", "FrameConfig", "derive_seed", "slot_budget", "SEED_LIMIT"]

# a frame holds fewer slots than this: every slot draw is below a frame's slot
# count, and the kernels replay numpy's bounded-integer rule below 2**32 only
SLOT_LIMIT = 2**32

SEED_LIMIT = 2**64  # seeds are 64-bit: a larger one would alias a smaller one


def derive_seed(master_seed: int, index: int) -> int:
    """Per-replication seed: master XOR replication index (64-bit)."""
    if master_seed < 0 or index < 0:
        raise ValueError("seeds and indices must be non-negative")
    if master_seed >= SEED_LIMIT or index >= SEED_LIMIT:
        raise ValueError("seeds and indices must be below 2**64")
    return master_seed ^ index


def _most_within(estimate: float, within: Callable[[int], bool]) -> int:
    """The most whole k with ``within(k)`` (true up to some k, false above),
    searched from floor(estimate), a float product or quotient a step or two
    off at most: 0.29 * 100 is 28.999999999999996, while 29 / 100 is 0.29."""
    k = math.floor(estimate)
    while not within(k):
        k -= 1
    while within(k + 1):
        k += 1
    return k


def slot_budget(latency_target: float, slot_duration: float) -> int:
    """The most whole slots k with float64 ``k * slot_duration <=
    latency_target`` (seconds).  A latency is on time iff it is at most the
    budget; on the paper frame 300 * 1e-4 > 0.03, so the budget at 30 ms is
    299.  An infinite target puts every latency on time."""
    if latency_target == math.inf:
        return 2**63 - 1
    return _most_within(latency_target / slot_duration, lambda k: k * slot_duration <= latency_target)


class PacketClass(Enum):
    PULL = "pull"
    PUSH = "push"


@dataclass(frozen=True, slots=True)
class FrameConfig:
    """Frame geometry: slot grid, per-class packet sizes and the pull fraction.

    Every slot of the frame carries data: slots ``0 .. pull_slot_budget - 1``
    form the pull (or reserved) sub-frame and the rest the push (or shared)
    sub-frame.  ``alpha`` is the fraction of the frame's slots reserved for
    pull-based traffic.
    """

    slots_per_frame: int
    frame_duration: float  # seconds
    pull_packet_slots: int
    push_packet_slots: int
    alpha: float

    def __post_init__(self) -> None:
        if not 1 <= self.slots_per_frame < SLOT_LIMIT:
            raise ValueError(f"slots_per_frame must be in [1, {SLOT_LIMIT}), got {self.slots_per_frame}")
        if not (self.frame_duration > 0.0) or not math.isfinite(self.frame_duration):
            raise ValueError(f"frame_duration must be positive, got {self.frame_duration}")
        if not 0.0 <= self.alpha <= 1.0:
            raise ValueError(f"alpha out of [0,1]: {self.alpha}")
        if self.pull_packet_slots < 1 or self.pull_packet_slots > self.slots_per_frame:
            raise ValueError(
                f"pull_packet_slots must be in [1, {self.slots_per_frame}], got {self.pull_packet_slots}"
            )
        if self.push_packet_slots < 1 or self.push_packet_slots > self.slots_per_frame:
            raise ValueError(
                f"push_packet_slots must be in [1, {self.slots_per_frame}], got {self.push_packet_slots}"
            )

    @property
    def slot_duration(self) -> float:
        return self.frame_duration / self.slots_per_frame

    @property
    def pull_slot_budget(self) -> int:
        """The most whole slots k with float64 ``k / S <= alpha``."""
        return _most_within(self.alpha * self.slots_per_frame, lambda k: k / self.slots_per_frame <= self.alpha)

    @property
    def push_slot_budget(self) -> int:
        return self.slots_per_frame - self.pull_slot_budget

    @property
    def pull_tx_capacity(self) -> int:
        """Whole pull packets fitting in the pull sub-frame."""
        return self.pull_slot_budget // self.pull_packet_slots

    @property
    def push_tx_capacity(self) -> int:
        """Whole push packets fitting in the push sub-frame (contention opportunities)."""
        return self.push_slot_budget // self.push_packet_slots
