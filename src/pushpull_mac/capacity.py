"""Latency-reliability capacity search: the maximum sustainable arrival rate
meeting a latency target at a reliability level, and the capacity frontier
over the pull fraction.

Reliability is assumed nonincreasing in the offered rate; a runtime guard
flags observed violations beyond Monte Carlo noise instead of failing
silently.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, List, Optional, Sequence, Tuple

from .core import FrameConfig, PacketClass
from .mac_cff import PushAbortRule, simulate_cff
from .metrics import reliability_within
from .traffic import derive_seed

__all__ = [
    "CapacitySpec",
    "MaxRateResult",
    "max_rate",
    "make_cff_rate_evaluator",
    "max_class_rate",
    "FrontierPoint",
    "capacity_frontier",
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
        if not (self.target_latency > 0):
            raise ValueError("target_latency must be positive")
        if not 0.0 < self.target_reliability <= 1.0:
            raise ValueError("target_reliability must be in (0,1]")
        if not (self.rate_tolerance > 0):
            raise ValueError("rate_tolerance must be positive")
        if not (self.rate_upper_bound > 0):
            raise ValueError("rate_upper_bound must be positive")
        if self.horizon_frames < 1:
            raise ValueError("horizon_frames must be >= 1")
        if self.replications < 1:
            raise ValueError("replications must be >= 1")


@dataclass(frozen=True, slots=True)
class MaxRateResult:
    """Outcome of one capacity search.

    ``rate`` is the highest probed rate that met the target (the lower bracket
    end); ``unreachable`` marks searches where no probed rate passed.
    """

    rate: float
    unreachable: bool
    monotonicity_violated: bool
    probes: Tuple[Tuple[float, float], ...]  # (rate, reliability) in probe order


def max_rate(evaluate: Callable[[float], float], spec: CapacitySpec) -> MaxRateResult:
    """Bisection on [0, rate_upper_bound] down to a rate_tolerance bracket.

    At most ceil(log2(upper/tolerance)) evaluations; the upper bound itself is
    never probed (capacities at the bound are reported as just under it).
    """
    lo, hi = 0.0, spec.rate_upper_bound
    probes: List[Tuple[float, float]] = []
    passed_any = False
    while hi - lo > spec.rate_tolerance:
        mid = 0.5 * (lo + hi)
        rel = float(evaluate(mid))
        probes.append((mid, rel))
        if rel >= spec.target_reliability:
            lo = mid
            passed_any = True
        else:
            hi = mid
    by_rate = sorted(probes)
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
) -> Callable[[float], float]:
    """Rate -> reliability for one CFF traffic class, the other class silent.

    Reliability is the mean over replications of per-run reliability (not
    pooled packets); a run with no measured arrivals counts as 1.0 (vacuous).
    Replication seeds are master XOR index, shared across probed rates.

    Push probes carry a :class:`PushAbortRule` so far-above-capacity runs stop
    as soon as missing the target is certain.  An aborted run's reliability is
    understated but stays below the target, so that run's own pass/fail is
    exact.  With ``replications > 1`` the understated value lowers the probe
    mean, so a probe whose other runs pass could in principle flip from pass
    to fail; the abort is certified per run, not per probe.
    """
    warmup = int(spec.horizon_frames * WARMUP_FRACTION)
    abort = (
        PushAbortRule(spec.target_latency, spec.target_reliability)
        if klass is PacketClass.PUSH
        else None
    )

    def evaluate(rate: float) -> float:
        rels = []
        for r in range(spec.replications):
            seed = derive_seed(master_seed, r)
            pull_rate, push_rate = (rate, 0.0) if klass is PacketClass.PULL else (0.0, rate)
            rec = simulate_cff(
                config,
                pull_rate,
                push_rate,
                spec.horizon_frames,
                seed,
                warmup_frames=warmup,
                push_abort=abort,
            )
            if rec.arrived(klass) == 0:
                rels.append(1.0)
            else:
                rels.append(reliability_within(rec, klass, spec.target_latency))
        return sum(rels) / len(rels)

    return evaluate


def service_ceiling(config: FrameConfig, klass: PacketClass) -> float:
    """Hard per-class service-rate bound: whole packets per frame over the
    frame duration.  No arrival rate above it is sustainable."""
    per_frame = config.pull_tx_capacity if klass is PacketClass.PULL else config.push_tx_capacity
    return per_frame / config.frame_duration


def max_class_rate(
    config: FrameConfig,
    klass: PacketClass,
    spec: CapacitySpec,
    master_seed: int = 0,
) -> MaxRateResult:
    """Capacity search for one class, bisecting below the service ceiling.

    The ceiling is structural (a sub-frame cannot carry more packets than fit
    in it), so tightening the bracket never excludes a feasible rate; a zero
    ceiling short-circuits to an exact zero capacity.
    """
    ceiling = service_ceiling(config, klass)
    if ceiling == 0.0:
        return MaxRateResult(rate=0.0, unreachable=True, monotonicity_violated=False, probes=())
    bounded = replace(spec, rate_upper_bound=min(spec.rate_upper_bound, ceiling))
    return max_rate(make_cff_rate_evaluator(config, klass, bounded, master_seed), bounded)


@dataclass(frozen=True, slots=True)
class FrontierPoint:
    alpha: float
    pull: Optional[MaxRateResult]
    push: Optional[MaxRateResult]
    error: Optional[str] = None

    @property
    def max_pull_rate(self) -> float:
        return self.pull.rate if self.pull is not None else math.nan

    @property
    def max_push_rate(self) -> float:
        return self.push.rate if self.push is not None else math.nan


def capacity_frontier(
    config_base: FrameConfig,
    alphas: Sequence[float],
    spec: CapacitySpec,
    master_seed: int = 0,
) -> List[FrontierPoint]:
    """Fig.-3-style frontier: per alpha, independent pull and push capacity
    searches (CFF sub-frames are resource-disjoint, so the searches decouple).

    Per-point failures are recorded on the point instead of aborting the sweep.
    """
    points: List[FrontierPoint] = []
    for alpha in alphas:
        try:
            config = replace(config_base, alpha=alpha)
            pull_res = max_class_rate(config, PacketClass.PULL, spec, master_seed)
            push_res = max_class_rate(config, PacketClass.PUSH, spec, master_seed)
            points.append(FrontierPoint(alpha=alpha, pull=pull_res, push=push_res))
        except Exception as exc:  # per-point isolation; sweep continues
            points.append(FrontierPoint(alpha=alpha, pull=None, push=None, error=str(exc)))
    return points
