"""Shared test helpers: the per-draw references that the array kernels
replay (``reference_cff_run``, ``run_rcs_frame``), the randomized-invariant
checks of the property and acceptance suites, the exact law of RCS frames
(``rcs_exact``) and small statistics."""
from __future__ import annotations

import math
from contextlib import contextmanager
from functools import lru_cache
from typing import NamedTuple, Sequence

import numpy as np

from pushpull_mac import (
    FrameConfig,
    PacketClass,
    RcsPopulation,
    SemanticQuery,
    derive_seed,
    mac_cff,
    mac_rcs,
    schedule_pull,
    simulate_cff,
    simulate_rcs,
)
from pushpull_mac.capacity import WARMUP_FRACTION, CapacitySpec
from pushpull_mac.core import slot_budget
from pushpull_mac.mac_cff import MetricsRecord, PushAbortRule, reliability_within, sample_arrival_offsets


_MASK64 = (1 << 64) - 1
_HIGH = 0x9E3779B97F4A7C18


def generator_emitting(word: int, position: int, high: int = _HIGH) -> np.random.Generator:
    """A PCG64 generator whose 64-bit output number ``position`` is ``word``.

    PCG64 steps its 128-bit state, then outputs rotr64(high ^ low, high >> 58);
    any high half with low = rotl64(word, rotation) ^ high yields ``word``.
    The default high half makes the three outputs before ``word`` doubles
    <= 0.5 for the words the RCS tests use; other high halves give other
    outputs before ``position``.
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


def frame_arrival_counts(rate: float, config: FrameConfig, n_frames: int, rng: np.random.Generator) -> np.ndarray:
    """Per-frame Poisson arrival counts of one class, as ``simulate_cff``
    draws them: one ``poisson`` draw of mean ``rate * slot_duration * S`` per
    frame, and no draw at all for a zero rate."""
    if not rate:
        return np.zeros(n_frames, dtype=np.int64)
    mean = rate * config.slot_duration * config.slots_per_frame
    return rng.poisson(mean, size=n_frames).astype(np.int64)


def empirical_quantile(samples: Sequence[float], p: float) -> float:
    """Order-statistic quantile: smallest value v with at least p of samples <= v.

    1-based index ceil(p*n) in the ascending sort; no interpolation.
    """
    if not 0.0 < p <= 1.0:
        raise ValueError(f"p out of (0,1]: {p}")
    n = len(samples)
    if n == 0:
        raise ValueError("empirical_quantile over empty samples")
    ordered = sorted(samples)
    # guard against float product landing just above an exact integer
    idx = math.ceil(p * n - 1e-9)
    idx = min(max(idx, 1), n)
    return ordered[idx - 1]


def matches(query: SemanticQuery, values: np.ndarray) -> np.ndarray:
    """Which observations ``query`` matches: lo <= value <= hi."""
    return (values >= query.lo) & (values <= query.hi)


def match_probability(query: SemanticQuery) -> float:
    """A device's chance to match ``query``: observations are uniform on [0, 1)."""
    return max(0.0, min(query.hi, 1.0) - max(query.lo, 0.0))


def _binomial(n, p):
    """P(K = k) for K ~ Bin(n, p), k = 0..n."""
    return [math.comb(n, k) * p**k * (1 - p) ** (n - k) for k in range(n + 1)]


@lru_cache(maxsize=None)
def straggler_laws(m_max, r):
    """``laws[m, x]`` = P(X = x), m = 0..m_max, where X counts the balls that
    do not land alone when m balls fall uniformly into r slots (the occupancy
    law; Kolchin et al., Random Allocations, 1978).  One walk over the
    (empty, singleton) slot counts drops ball after ball, so every m's law is
    a step of it.  Without slots every ball is a straggler.  Cached, so it is
    read-only."""
    if r == 0:
        laws = np.eye(m_max + 1)
    else:
        laws = np.zeros((m_max + 1, m_max + 1))
        laws[0, 0] = 1.0
        empty, alone = np.ogrid[: r + 1, : r + 1]
        state = np.zeros((r + 1, r + 1))  # state[e, a] = P(e empty and a singleton slots)
        state[r, 0] = 1.0
        for m in range(1, m_max + 1):
            after = state * np.maximum(r - empty - alone, 0) / r  # the ball joins a crowded slot
            after[:-1, 1:] += (state * empty / r)[1:, :-1]  # an empty one
            after[:, :-1] += (state * alone / r)[:, 1:]  # a singleton, now crowded
            state = after
            singles = state.sum(axis=0)[: min(m, r) + 1]
            laws[m, m - np.arange(len(singles))] = singles
    laws.flags.writeable = False
    return laws


def _all_alone(tagged, others, slots):
    """P(each of ``tagged`` balls lands alone) when ``tagged + others`` balls
    fall uniformly into ``slots`` slots: falling(slots, tagged) *
    (slots - tagged)**others / slots**(tagged + others)."""
    if tagged == 0:
        return 1.0
    if slots < tagged:
        return 0.0
    return math.perm(slots, tagged) * (slots - tagged) ** others / slots ** (tagged + others)


def rcs_exact(cfg, pop, query):
    """(retrieval accuracy, pooled push success) of independent RCS frames
    with one-slot packets.  M ~ Bin(n_pull, match probability) devices match
    and contend in R reserved slots; the X stragglers retry among X + P
    contenders in Sh shared slots, P ~ Bin(n_push, 1 - threshold).  A frame
    retrieves iff every straggler lands alone; the pooled push success is
    E[push successes] / E[P]."""
    reserved, shared = cfg.pull_slot_budget, cfg.push_slot_budget
    p_push = 1.0 - pop.push_threshold
    accuracy = push_won = 0.0
    laws = straggler_laws(pop.n_pull_devices, reserved)
    for m, pm in enumerate(_binomial(pop.n_pull_devices, match_probability(query))):
        for x, px in enumerate(laws[m, : m + 1].tolist()):
            for n_push, pp in enumerate(_binomial(pop.n_push_devices, p_push)):
                w = pm * px * pp
                accuracy += w * _all_alone(x, n_push, shared)
                if n_push:
                    push_won += w * n_push * _all_alone(1, x + n_push - 1, shared)
    return accuracy, push_won / (pop.n_push_devices * p_push)


def _poisson_counts(mu):
    """P(N = n) for N ~ Poisson(mu), n = 0 .. the last count of mass above
    1e-16 past the mean."""
    counts = [math.exp(-mu)]
    while counts[-1] > 1e-16 or len(counts) <= mu:
        counts.append(counts[-1] * mu / len(counts))
    return counts


def pull_leftover_law(config: FrameConfig, rate: float) -> np.ndarray:
    """Stationary law of the pull packets left over at a frame boundary.
    Frame f's N ~ Poisson(mu) arrivals join the l left over and c =
    ``pull_tx_capacity`` are served in frame f + 1, so l' = max(l + N - c, 0)
    (Lindley 1952; Bailey 1954), solved on the support 0 .. n_max + c + 40 /
    theta, n_max the last count of Poisson mass above 1e-16, with the
    overflow kept on its top state.  The law's tail falls like exp(-theta l),
    theta the positive root of E[exp(theta (N - c))] = 1, that is of
    mu (e^theta - 1) = c theta (Cramer-Lundberg), which lies below the
    diffusion value 2 (c - mu) / mu; the support so grows with the load, not
    with c.  The law must leave the top c-block negligible."""
    c, mu = config.pull_tx_capacity, rate * config.frame_duration
    assert 0 < mu < c, "the queue is stable only below the pull service rate"
    counts = _poisson_counts(mu)
    lo, hi = 0.0, 2 * (c - mu) / mu  # theta, by bisection
    for _ in range(60):
        mid = (lo + hi) / 2
        lo, hi = (mid, hi) if mu * math.expm1(mid) < c * mid else (lo, mid)
    size = len(counts) + c + math.ceil(40 / lo)
    # balance[j, l] = P(l -> j) - [j == l]; the last equation is replaced by sum = 1
    balance = -np.eye(size)
    left = np.arange(size)
    for n, p in enumerate(counts):
        balance[np.clip(left + n - c, 0, size - 1), left] += p
    balance[-1] = 1.0
    law = np.linalg.solve(balance, np.eye(1, size, size - 1)[0])
    assert law[-c:].sum() < 1e-12, "leftover support too short for this load"
    return law


def pull_on_time(config: FrameConfig, rate: float, budget: int) -> np.ndarray:
    """``reach[k]``: the expected number of one frame's pull arrivals, in the
    stationary queue, that are on time (latency at most ``budget`` slots)
    and delivered at most k frames after their arrival frame; ``reach[-1]``
    counts every on-time one, so reliability is ``reach[-1] / mu``.  The
    arrival of rank r among the frame's n, behind l left over, sits at queue
    position p = l + r and is served p // c frames after the next, so its
    latency is S (1 + p // c) + (p % c + 1) P - O_(r) slots, where O_(r), the
    r-th smallest of n uniform offsets below S, has P(O_(r) >= a) =
    P(Bin(n, a / S) <= r)."""
    S, P, c = config.slots_per_frame, config.pull_packet_slots, config.pull_tx_capacity
    mu = rate * config.frame_duration
    law = pull_leftover_law(config, rate)
    rounds = budget // S + 1  # no packet served later is on time
    left = np.arange(c * rounds)[:, None]  # no packet behind more is on time
    by_round = np.zeros(rounds)
    x = np.arange(S + 1) / S
    n, arrivals = 1, math.exp(-mu) * mu
    while arrivals > 1e-16 or n <= mu:
        k = np.arange(n + 1)[:, None]
        ranks = np.arange(n)
        # cdf[r, a] = P(Bin(n, a / S) <= r)
        pmf = np.array([math.comb(n, j) for j in range(n + 1)])[:, None] * x**k * (1 - x) ** (n - k)
        cdf = np.cumsum(pmf, axis=0)
        position = left + ranks
        late_rounds, slot = np.divmod(position, c)
        least_offset = S * (1 + late_rounds) + (slot + 1) * P - budget
        on_time = np.where(least_offset < S, cdf[ranks, np.clip(least_offset, 0, S)], 0.0)
        by_round += arrivals * np.bincount(
            np.minimum(late_rounds, rounds - 1).ravel(), (law[: left.size, None] * on_time).ravel(), rounds
        )
        n, arrivals = n + 1, arrivals * mu / (n + 1)
    return np.concatenate(([0.0], np.cumsum(by_round)))


class PastMetastability(AssertionError):
    """The push backlog's law leaves mass on the top of its support: the
    load is past the metastable regime :func:`push_on_time` solves."""


def push_on_time(config: FrameConfig, rate: float, budget: int) -> np.ndarray:
    """``reach[k]`` as in :func:`pull_on_time`, for push arrivals with
    retransmission: reliability is ``reach[-1] / mu``.  Losers stay pending,
    so the backlog C carried out of a round follows C' = stragglers(C + A),
    A ~ Poisson(mu), whose law comes from the occupancy walk
    (:func:`straggler_laws`).  It is solved on the Poisson support plus 40
    states, with the overflow kept on the top state.  Framed ALOHA with
    immediate retransmission collapses under a large backlog (Schoute 1983),
    so that law is only metastable: the top of its support must hold
    negligible mass, else :class:`PastMetastability` is raised.  A tagged
    arrival's first round holds 1 + C + A'' contenders, A'' ~ Poisson(mu)
    its frame's other arrivals.  Of n it wins
    with probability (1 - 1/K)^(n - 1), in a uniform slot c of the K =
    ``push_tx_capacity``, and it loses among x stragglers with probability
    P(X = x) x / n; its next round then holds x + A.  Won in round j, its
    latency is j S + P0 + (c + 1) Q - o slots, with P0 = ``pull_slot_budget``,
    Q = ``push_packet_slots`` and o its offset, uniform below S."""
    S, Q, K = config.slots_per_frame, config.push_packet_slots, config.push_tx_capacity
    mu = rate * config.frame_duration
    assert K >= 1 and mu > 0
    counts = _poisson_counts(mu)
    size = len(counts) + 40  # backlog states
    top = size + len(counts) - 1  # contenders of a round: backlog, arrivals and the tagged one
    laws = straggler_laws(top, K)

    def arrive(law):
        """The law of a count plus A ~ Poisson(mu), overflow kept on ``top``."""
        joined = np.convolve(law, counts)
        joined[top] += joined[top + 1 :].sum()
        return joined[: top + 1]

    carried = sum(p * laws[a : a + size] for a, p in enumerate(counts))  # [C, C']
    carried[:, size - 1] += carried[:, size:].sum(axis=1)
    # balance[j, l] = P(l -> j) - [j == l]; the last equation is replaced by sum = 1
    balance = carried[:, :size].T - np.eye(size)
    balance[-1] = 1.0
    backlog = np.linalg.solve(balance, np.eye(1, size, size - 1)[0])
    if backlog[-10:].sum() >= 1e-9:
        raise PastMetastability(f"push backlog support too short at {rate} pps")
    n = np.arange(top + 1)
    wins = (1 - 1 / K) ** np.maximum(n - 1, 0)
    loses = laws * n / np.maximum(n, 1)[:, None]  # [n, x]: the tagged one among x stragglers
    least_offset = config.pull_slot_budget + (np.arange(K) + 1) * Q - budget  # plus j S in round j
    contenders = arrive(np.concatenate(([0.0], backlog, np.zeros(top - size))))
    by_round = []
    for j in range(1, budget // S + 2):  # no packet delivered later is on time
        on_time = np.mean(S - np.clip(j * S + least_offset, 0, S)) / S
        by_round.append(mu * (contenders @ wins) * on_time)
        contenders = arrive(contenders @ loses)
    return np.concatenate(([0.0], np.cumsum(by_round)))


def z_score(residuals):
    """Mean over standard error of per-frame residuals whose exact mean is 0."""
    sd = residuals.std(ddof=1)
    if sd == 0:
        return 0.0 if residuals.mean() == 0 else math.inf
    return residuals.mean() * math.sqrt(len(residuals)) / sd


def check_cff_matches_reference(config: FrameConfig, pull_rate, push_rate, horizon_frames, seed, **kw) -> None:
    """``simulate_cff`` and ``reference_cff_run`` give equal records (per
    class: latency slots in order, arrivals and misses) and equal
    ``on_delivery`` calls.  ``seed`` may be a ``Generator`` factory, called
    once per run, for crafted states."""
    runs = []
    for run in (reference_cff_run, simulate_cff):
        log = []
        rng = seed() if callable(seed) else seed
        record = run(config, pull_rate, push_rate, horizon_frames, rng, on_delivery=lambda *d: log.append(d), **kw)
        runs.append((record, log))
    (want, want_log), (got, got_log) = runs
    assert_same_record(got, want)
    assert len(got_log) == len(want_log), "on_delivery call count differs"
    for (k1, a1, d1), (k2, a2, d2) in zip(got_log, want_log):
        assert k1 is k2 and a1.tolist() == a2.tolist() and d1.tolist() == d2.tolist(), "on_delivery calls differ"


def assert_same_record(got, want) -> None:
    """Two CFF records hold the same slot duration and, per class, the same
    latencies in the same order, arrivals and misses."""
    assert got.slot_duration == want.slot_duration
    for klass in PacketClass:
        assert got.latency_slots(klass).tolist() == want.latency_slots(klass).tolist(), f"{klass} latencies differ"
        assert got.arrived(klass) == want.arrived(klass), f"{klass} arrivals differ"
        assert got.failed(klass) == want.failed(klass), f"{klass} misses differ"


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
    ``integers`` call per push contention round, decided by
    ``mac_cff.contention_rounds`` (the draws of ``uniform_slot_contention``,
    without its per-slot counts, so memory follows the contenders, not S),
    and one ``sample_arrival_offsets`` call for the offsets drawn between two
    rounds.  ``simulate_cff`` replays the same draws on raw generator output,
    so both must give the same record and the same ``on_delivery`` calls."""
    rng = np.random.default_rng(seed)
    S = config.slots_per_frame
    slot_dur = config.slot_duration
    push_ops = config.push_tx_capacity
    push_stride = config.push_packet_slots
    push_start_off = config.pull_slot_budget
    measured_from_slot = warmup_frames * S
    # measured latencies (slots) per class in delivery order, and the
    # measured push packets dropped after their single attempt
    latencies = {klass: [] for klass in PacketClass}
    dropped = 0

    # draw order: both per-frame count batches, then per frame: push
    # contention, pull arrival offsets, push arrival offsets
    pull_counts = frame_arrival_counts(pull_rate, config, horizon_frames, rng)
    push_counts = frame_arrival_counts(push_rate, config, horizon_frames, rng)

    late_slots, late_budget, late_cum = 0, np.inf, 0
    if push_abort is not None:
        late_slots = slot_budget(push_abort.latency_target, slot_dur)
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
            choices = rng.integers(0, push_ops, size=pend_arrival.size, dtype=np.int64)
            winner_mask = mac_cff.contention_rounds(choices, push_ops)
            if winner_mask.any():
                won_arrival = pend_arrival[winner_mask]
                delivery_slots = choices[winner_mask] * push_stride + (f * S + push_start_off + push_stride - 1)
                lats = delivery_slots + 1 - won_arrival
                latencies[PacketClass.PUSH].append(lats[won_arrival >= measured_from_slot])
                if on_delivery is not None:
                    on_delivery(PacketClass.PUSH, won_arrival, delivery_slots)
            if push_retransmit:
                pend_arrival = pend_arrival[~winner_mask]
            else:
                dropped += int(np.count_nonzero(pend_arrival[~winner_mask] >= measured_from_slot))
                pend_arrival = pend_arrival[:0]
        if push_abort is not None and pend_arrival.size:
            # a packet of frame g pending now is delivered from slot (f+1)*S
            # on, a latency of at least (f-g)*S + 2; count each the first
            # time that bound passes the target (a packet of an earlier
            # frame than f-1 was pending at frame f-1's check too)
            age = f - pend_arrival // S
            late_now = age * S + 2 > late_slots
            late_before = (age >= 2) & ((age - 1) * S + 2 > late_slots)
            late = late_now & ~late_before & (pend_arrival >= measured_from_slot)
            late_cum += int(np.count_nonzero(late))
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
            config.pull_packet_slots,
        )
        n_served = delivery_slots.size
        served = pull_arrivals[:n_served]
        lats = delivery_slots + 1 - served
        latencies[PacketClass.PULL].append(lats[served >= measured_from_slot])
        if on_delivery is not None and n_served:
            cuts = np.flatnonzero(np.diff(delivery_slots // S)) + 1
            for arrival, delivery in zip(np.split(served, cuts), np.split(delivery_slots, cuts)):
                on_delivery(PacketClass.PULL, arrival, delivery)

    # close the run: undelivered measured packets (queued, pending or
    # dropped), and every arrival of the frames never simulated after an
    # abort, are misses
    start = max(arrived_frames, warmup_frames)
    classes = {}
    for klass, pending, lost, counts in (
        (PacketClass.PULL, pull_arrivals[n_served:], 0, pull_counts),
        (PacketClass.PUSH, pend_arrival, dropped, push_counts),
    ):
        missed = int(np.count_nonzero(pending >= measured_from_slot)) + lost + int(counts[start:].sum())
        lats = np.concatenate(latencies[klass]) if latencies[klass] else np.empty(0, dtype=np.int64)
        classes[klass] = (lats, missed, int(counts[warmup_frames:].sum()))
    return MetricsRecord(slot_dur, classes)


def reference_rate_evaluator(config: FrameConfig, klass: PacketClass, spec: CapacitySpec, master_seed: int):
    """Rate -> reliability of a capacity probe without probe-level stops:
    every replication runs, push runs with the per-run abort at the probe's
    own target, and the result is the plain mean.  A complete probe of
    ``make_cff_rate_evaluator`` must return the same float, and a stopped
    one must fail exactly when this one does."""
    warmup = int(spec.horizon_frames * WARMUP_FRACTION)
    abort = PushAbortRule(spec.target_latency, spec.target_reliability) if klass is PacketClass.PUSH else None

    def evaluate(rate: float) -> float:
        pull_rate, push_rate = (rate, 0.0) if klass is PacketClass.PULL else (0.0, rate)
        rels = []
        for r in range(spec.replications):
            rec = simulate_cff(
                config,
                pull_rate,
                push_rate,
                spec.horizon_frames,
                derive_seed(master_seed, r),
                warmup_frames=warmup,
                push_abort=abort,
            )
            rels.append(1.0 if rec.arrived(klass) == 0 else reliability_within(rec, klass, spec.target_latency))
        return sum(rels) / len(rels)

    return evaluate


def random_cff_config(rng: np.random.Generator) -> FrameConfig:
    s = int(rng.integers(2, 61))
    pull_slots = int(rng.integers(1, min(s, 4) + 1))
    push_slots = int(rng.integers(1, min(s, 3) + 1))
    alpha = float(rng.choice([0.0, 1.0, round(float(rng.random()), 3)]))
    return FrameConfig(
        slots_per_frame=s,
        frame_duration=float(rng.uniform(0.002, 0.02)),
        pull_packet_slots=pull_slots,
        push_packet_slots=push_slots,
        alpha=alpha,
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
    # watching the deliveries changes nothing
    assert_same_record(simulate_cff(config, pull_rate, push_rate, horizon, seed=seed, push_retransmit=retransmit), record)

    # exact conservation per class (no warm-up); the recorded latencies are
    # the delivery callbacks' own, in order, held as int64 slot counts
    for klass in PacketClass:
        assert record.latency_slots(klass).dtype == np.int64
        assert record.arrived(klass) == len(record.latency_slots(klass)) + record.failed(klass)
        assert len(record.latencies(klass)) == record.arrived(klass)
        lats = [d + 1 - a for k, a, d in deliveries if k is klass]
        assert record.latency_slots(klass).tolist() == (np.concatenate(lats).tolist() if lats else [])

    pull_budget = config.pull_slot_budget
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
            assert ((stride - 1 <= off) & (off < pull_budget)).all()
            assert ((off - (stride - 1)) % stride == 0).all()
            assert arrival[0] >= last_pull_arrival and (np.diff(arrival) >= 0).all(), "pull FIFO order broken"
            last_pull_arrival = int(arrival[-1])
            pull_blocks.extend(zip((delivery - stride + 1).tolist(), delivery.tolist()))
        else:
            if not retransmit:
                # a single attempt: contention in the frame after arrival
                assert (delivery // s == arrival // s + 1).all(), "push retransmitted"
            assert ((pull_budget + config.push_packet_slots - 1 <= off) & (off < s)).all()

    # no two pull transmissions may overlap any slot (contention-free sub-frame)
    pull_blocks.sort()
    for (a0, a1), (b0, b1) in zip(pull_blocks, pull_blocks[1:]):
        assert a1 < b0, "pull transmissions overlap"

    # pull work conservation: every frame serves min(eligible backlog, capacity).
    # The per-frame counts are the run's first draw; frame g's arrivals are
    # eligible from frame g+1.
    pull_counts = frame_arrival_counts(pull_rate, config, horizon, np.random.default_rng(seed))
    backlog = 0
    for g in range(horizon):
        backlog += int(pull_counts[g - 1]) if g else 0
        assert served[PacketClass.PULL][g] == min(backlog, config.pull_tx_capacity), "pull service not work-conserving"
        backlog -= int(served[PacketClass.PULL][g])


# bounds that are doubles numpy draws, as in the benchmark's query [0.25, 0.75]
# and threshold 0.5
GRID_BOUNDS = (0.0, 0.25, 0.5, 0.75, 1.0)


def random_rcs_case(rng: np.random.Generator):
    """A random RCS geometry, population and query, up to the benchmark's
    widths (75 slots, 12 pull and 40 push devices); a quarter of the
    push thresholds and queries take their bounds from ``GRID_BOUNDS``."""
    s = int(rng.integers(1, 81))
    alpha = float(rng.choice([0.0, 1.0, round(float(rng.random()), 3)]))
    config = FrameConfig(s, 0.01, 1, 1, alpha)
    threshold = float(rng.choice(GRID_BOUNDS)) if rng.random() < 0.25 else float(rng.random())
    population = RcsPopulation(
        n_pull_devices=int(rng.integers(0, 16)),
        n_push_devices=int(rng.integers(0, 41)),
        push_threshold=threshold,
    )
    if rng.random() < 0.25:
        lo, hi = sorted(rng.choice(GRID_BOUNDS, size=2).tolist())
    else:
        lo = float(rng.uniform(-0.1, 1.0))
        hi = lo + float(rng.uniform(0, 1.1))
    return config, population, SemanticQuery(lo, hi)


class RcsFrame(NamedTuple):
    """One RCS frame's counts, in the column order of ``RcsResult.frames``."""

    matched_pull: int
    pull_succeeded_reserved: int
    pull_succeeded_shared: int
    push_attempted: int
    push_succeeded: int

    @property
    def pull_succeeded(self) -> int:
        return self.pull_succeeded_reserved + self.pull_succeeded_shared

    @property
    def retrieval_success(self) -> bool:
        return self.pull_succeeded == self.matched_pull


def run_rcs_frame(
    config: FrameConfig, population: RcsPopulation, query: SemanticQuery, rng: np.random.Generator
) -> RcsFrame:
    """One RCS frame with one numpy call per draw: the per-draw reference
    that ``simulate_rcs`` replays on raw generator output.

    Observations are drawn fresh, query-matching pull devices contend in the
    reserved slots (skipped if that budget is zero), then the unsuccessful
    ones retry once alongside the frame's pushing devices in the shared slots.
    Inter- and intra-class collisions are both plain losses.  Rounds are made
    by ``mac_cff.uniform_slot_contention``, looked up at each call.
    """
    reserved_ops, shared_ops = mac_rcs._contention_slots(config)
    # canonical draw order: observations, push values, reserved, shared
    n_matched = int(np.count_nonzero(matches(query, rng.random(population.n_pull_devices))))
    n_pushing = int(np.count_nonzero(rng.random(population.n_push_devices) > population.push_threshold))

    n_res_won = 0
    if reserved_ops > 0 and n_matched:
        n_res_won = int(np.count_nonzero(mac_cff.uniform_slot_contention(n_matched, reserved_ops, rng)[2]))
    n_stragglers = n_matched - n_res_won

    pull_shared_succeeded = push_succeeded = 0
    if shared_ops > 0 and n_stragglers + n_pushing:
        winner_mask = mac_cff.uniform_slot_contention(n_stragglers + n_pushing, shared_ops, rng)[2]
        # the frame's stragglers come first, then its pushing devices
        pull_shared_succeeded = int(np.count_nonzero(winner_mask[:n_stragglers]))
        push_succeeded = int(np.count_nonzero(winner_mask[n_stragglers:]))

    return RcsFrame(n_matched, n_res_won, pull_shared_succeeded, n_pushing, push_succeeded)


class ContentionRound(NamedTuple):
    n_slots: int
    choices: np.ndarray  # one slot per contender, in contender order
    counts: np.ndarray  # transmitters per slot
    winner_mask: np.ndarray  # per contender


@contextmanager
def recorded_rcs_rounds():
    """Within the block, record every round ``run_rcs_frame`` draws (every
    ``mac_cff.uniform_slot_contention`` call) in call order; yields the list
    the rounds are appended to."""
    rounds = []
    original = mac_cff.uniform_slot_contention

    def recording(n_contenders, n_slots, rng):
        result = original(n_contenders, n_slots, rng)
        rounds.append(ContentionRound(n_slots, *result))
        return result

    mac_cff.uniform_slot_contention = recording
    try:
        yield rounds
    finally:
        mac_cff.uniform_slot_contention = original


def check_rcs_frame(config, population, query, rng: np.random.Generator) -> None:
    """One randomized RCS frame; asserts from its contention rounds that
    exactly the matched pull devices transmit in the reserved portion (push
    traffic never enters it), that the shared round holds the stragglers,
    then the pushing devices, and that the frame's counts are the winners in
    each round and slice."""
    with recorded_rcs_rounds() as rounds:
        fr = run_rcs_frame(config, population, query, rng)
    reserved_ops = config.pull_slot_budget
    shared_ops = config.push_slot_budget

    assert 0 <= fr.pull_succeeded <= fr.matched_pull
    assert 0 <= fr.push_succeeded <= fr.push_attempted
    assert fr.retrieval_success == (fr.pull_succeeded == fr.matched_pull)

    if reserved_ops > 0 and fr.matched_pull:
        reserved = rounds.pop(0)
        assert reserved.n_slots == reserved_ops
        # every matched device transmits exactly once here and nothing else does
        assert reserved.counts.sum() == len(reserved.choices) == fr.matched_pull, "push entered the reserved round"
        assert np.count_nonzero(reserved.winner_mask) == fr.pull_succeeded_reserved
    else:
        assert fr.pull_succeeded_reserved == 0
    stragglers = fr.matched_pull - fr.pull_succeeded_reserved

    if shared_ops > 0 and stragglers + fr.push_attempted:
        shared = rounds.pop(0)
        assert shared.n_slots == shared_ops
        assert shared.counts.sum() == len(shared.choices) == stragglers + fr.push_attempted
        assert np.count_nonzero(shared.winner_mask[:stragglers]) == fr.pull_succeeded_shared
        assert np.count_nonzero(shared.winner_mask[stragglers:]) == fr.push_succeeded
    else:
        assert fr.push_succeeded == 0
        assert fr.pull_succeeded_shared == 0
    assert not rounds, "contention round outside the two portions"


def check_rcs_run(config, population, query, n_frames: int, seed: int) -> None:
    """``simulate_rcs`` replays the generator's raw output in blocks of frames;
    its frames must equal a loop of ``run_rcs_frame`` calls on the same seed."""
    rng = np.random.default_rng(seed)
    expected = [run_rcs_frame(config, population, query, rng) for _ in range(n_frames)]
    res = simulate_rcs(config, population, query, n_frames, seed)
    assert res.frames.shape == (n_frames, 5) and res.frames.dtype == np.int64
    for g, (got, want) in enumerate(zip(res.frames.tolist(), expected)):
        assert got == list(want), f"frame {g}: {got} != {want}"
    assert res.retrieval_accuracy == sum(f.retrieval_success for f in expected) / n_frames
    attempts = sum(f.push_attempted for f in expected)
    assert res.push_success_prob == (sum(f.push_succeeded for f in expected) / attempts if attempts else None)
