"""Latency-reliability capacity search: the maximum sustainable arrival rate
of one traffic class meeting a latency target at a reliability level.  The
harness's ``capacity`` experiment runs it per class over the pull fraction.

Reliability is assumed nonincreasing in the offered rate; a runtime guard
flags observed violations beyond Monte Carlo noise instead of failing
silently.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, List, Optional, Tuple

from .core import FrameConfig, PacketClass, derive_seed
from .mac_cff import PushAbortRule, simulate_cff
from .metrics import reliability_within

__all__ = [
    "CapacitySpec",
    "MaxRateResult",
    "max_rate",
    "make_cff_rate_evaluator",
    "max_class_rate",
    "service_ceiling",
]

# steady-state measurement: arrivals in the first tenth of the horizon are
# simulated but excluded from the latency samples
WARMUP_FRACTION = 0.1

# reliability increase between probed rates tolerated before flagging
NOISE_MARGIN = 0.02


@dataclass(frozen=True, slots=True)
class CapacitySpec:
    """Search parameters for the latency-constrained capacity."""

    target_latency: float  # seconds
    rate_tolerance: float  # pkt/s, final bracket width
    rate_upper_bound: float  # pkt/s
    horizon_frames: int
    replications: int
    target_reliability: float = 0.99

    def __post_init__(self) -> None:
        if not 0 < self.target_latency < math.inf:
            raise ValueError("target_latency must be positive and finite")
        if not 0.0 < self.target_reliability <= 1.0:
            raise ValueError("target_reliability must be in (0,1]")
        if not 0 < self.rate_tolerance < math.inf:
            raise ValueError("rate_tolerance must be positive and finite")
        if not 0 < self.rate_upper_bound < math.inf:
            raise ValueError("rate_upper_bound must be positive and finite")
        if self.rate_upper_bound <= self.rate_tolerance:
            # the bracket would probe nothing and read as an unreachable class
            raise ValueError(
                f"rate_upper_bound {self.rate_upper_bound} must exceed rate_tolerance {self.rate_tolerance}"
            )
        if self.horizon_frames < 1:
            raise ValueError("horizon_frames must be >= 1")
        if self.replications < 1:
            raise ValueError("replications must be >= 1")


@dataclass(frozen=True, slots=True)
class MaxRateResult:
    """Outcome of one capacity search.

    ``rate`` is the highest probed rate that met the target (the lower bracket
    end); ``unreachable`` marks searches where no probed rate passed.
    ``probes`` lists (rate, reliability, complete) in probe order.  A probe
    that is not complete stopped once it could no longer pass: its
    reliability is the bound that stopped it, below the target, not a full
    mean.
    """

    rate: float
    unreachable: bool
    monotonicity_violated: bool
    probes: Tuple[Tuple[float, float, bool], ...]


def max_rate(evaluate: Callable[[float], Tuple[float, bool]], spec: CapacitySpec) -> MaxRateResult:
    """Bisection on [0, rate_upper_bound] down to a rate_tolerance bracket.

    ``evaluate(rate)`` returns (reliability, complete), as
    :func:`make_cff_rate_evaluator` does.  At most ceil(log2(upper/tolerance))
    evaluations; the upper bound itself is never probed (capacities at the
    bound are reported as just under it).  The monotonicity guard compares
    complete probes only.  ``spec`` refuses a bracket already within
    ``rate_tolerance``, which would probe nothing.
    """
    lo, hi = 0.0, spec.rate_upper_bound
    probes: List[Tuple[float, float, bool]] = []
    passed_any = False
    while hi - lo > spec.rate_tolerance:
        mid = 0.5 * (lo + hi)
        rel, complete = evaluate(mid)
        probes.append((mid, float(rel), bool(complete)))
        if rel >= spec.target_reliability:
            lo = mid
            passed_any = True
        else:
            hi = mid
    by_rate = sorted((rate, rel) for rate, rel, complete in probes if complete)
    violated = any(
        by_rate[i + 1][1] > by_rate[i][1] + NOISE_MARGIN for i in range(len(by_rate) - 1)
    )
    return MaxRateResult(
        rate=lo if passed_any else 0.0,
        unreachable=not passed_any,
        monotonicity_violated=violated,
        probes=tuple(probes),
    )


def make_cff_rate_evaluator(
    config: FrameConfig,
    klass: PacketClass,
    spec: CapacitySpec,
    master_seed: int,
) -> Callable[[float], Tuple[float, bool]]:
    """Rate -> (reliability, complete) for one CFF traffic class, the other
    class silent.

    Reliability is the mean over the R replications of per-run reliability
    (not pooled packets; on time means within :func:`~.metrics.slot_budget`);
    a run with no measured arrivals counts as 1.0 (vacuous).  Replication
    seeds are master XOR index, shared across probed rates.

    A probe stops as soon as it can no longer pass.  After each run the mean
    is bounded by scoring every run not yet made 1.0, with the same
    left-to-right float ``sum(...) / R`` as the full mean.  Float addition
    and division round monotonically and no run scores above 1.0, so once
    that bound is below the target t, the full mean is too: the probe
    returns the bound with ``complete`` False.  A probe that is not stopped
    returns its full mean with ``complete`` True.

    Push runs carry a :class:`PushAbortRule`, which stops a run once missing
    its target is certain (the record then understates reliability).  Run
    j's target is what it must score for the probe to pass,
    R·t − (Σ done + R − j − 1), less a slack of 1e-9·R² (far above the
    rounding of these R-term sums, about R²·2⁻⁵³), and never below t.  At t
    it is the plain per-run abort; above t an abort certifies that the
    probe fails, and the bound then stops it.  So stops change no pass/fail
    and no complete probe's value.
    The per-run abort at t is certified per run, not per probe: its
    understated value lowers the mean, so with R > 1 a probe whose other
    runs pass could in principle flip from pass to fail.  That is kept, so
    that capacities stay as they were, until the search is re-recorded.
    """
    warmup = int(spec.horizon_frames * WARMUP_FRACTION)
    R, t = spec.replications, spec.target_reliability
    slack = 1e-9 * R * R

    def evaluate(rate: float) -> Tuple[float, bool]:
        pull_rate, push_rate = (rate, 0.0) if klass is PacketClass.PULL else (0.0, rate)
        rels: List[float] = []
        for j in range(R):
            target, abort = t, None
            if klass is PacketClass.PUSH:
                target = max(t, R * t - (sum(rels) + (R - j - 1)) - slack)
                abort = PushAbortRule(spec.target_latency, target)
            rec = simulate_cff(
                config,
                pull_rate,
                push_rate,
                spec.horizon_frames,
                derive_seed(master_seed, j),
                warmup_frames=warmup,
                push_abort=abort,
            )
            if rec.arrived(klass) == 0:
                rels.append(1.0)
            else:
                rels.append(reliability_within(rec, klass, spec.target_latency))
            bound = sum(rels + [1.0] * (R - j - 1)) / R
            # after the last run the bound is the full mean, exact unless
            # that run's target was raised above t
            if bound < t and (j + 1 < R or target > t):
                return bound, False
        return bound, True

    return evaluate


def service_ceiling(config: FrameConfig, klass: PacketClass) -> float:
    """Hard per-class service-rate bound: whole packets per frame over the
    frame duration.  No arrival rate above it is sustainable."""
    per_frame = config.pull_tx_capacity if klass is PacketClass.PULL else config.push_tx_capacity
    return per_frame / config.frame_duration


def search_spec(config: FrameConfig, klass: PacketClass, spec: CapacitySpec) -> Optional[CapacitySpec]:
    """``spec`` with its bracket capped at the class's service ceiling, which
    is structural, so the cap excludes no feasible rate; None at a zero
    ceiling, where the capacity is exactly zero.  A capped bracket already
    within ``rate_tolerance`` raises ``ValueError`` naming the class and alpha."""
    ceiling = service_ceiling(config, klass)
    if ceiling == 0.0:
        return None
    try:
        return replace(spec, rate_upper_bound=min(spec.rate_upper_bound, ceiling))
    except ValueError as exc:
        raise ValueError(f"{klass.value} search at alpha {config.alpha}, capped at the service ceiling: {exc}") from None


def max_class_rate(
    config: FrameConfig,
    klass: PacketClass,
    spec: CapacitySpec,
    master_seed: int = 0,
) -> MaxRateResult:
    """Capacity search for one class over the bracket of :func:`search_spec`."""
    bounded = search_spec(config, klass, spec)
    if bounded is None:
        return MaxRateResult(rate=0.0, unreachable=True, monotonicity_violated=False, probes=())
    return max_rate(make_cff_rate_evaluator(config, klass, bounded, master_seed), bounded)
