"""Domain types and the slotted-time model shared by both frame simulators.

Time is counted in global slot indices (integers from simulation start);
wall-clock quantities are always derived from slot counts so that runs are
bit-reproducible.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

__all__ = ["PacketClass", "FrameConfig"]

# Guard against IEEE representation error in alpha * S (e.g. 0.29 * 100 ==
# 28.999999999999996); small enough never to bump a genuinely fractional value.
_FLOOR_EPS = 1e-9

# a frame holds fewer slots than this: every slot draw is below a frame's slot
# count, and the kernels replay numpy's bounded-integer rule below 2**32 only
SLOT_LIMIT = 2**32


def stable_floor(x: float) -> int:
    return int(math.floor(x + _FLOOR_EPS))


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
        return stable_floor(self.alpha * self.slots_per_frame)

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
