"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s``.  The two sweep criteria
carry their stated runtime budgets and are the slow part of the suite; they
are marked ``slow``, so ``pytest -m "not slow"`` leaves them out.
"""
import math
import time

import numpy as np
import pytest

from pushpull_mac import (
    CapacitySpec,
    FrameConfig,
    PacketClass,
    RcsPopulation,
    SemanticQuery,
    max_class_rate,
    run_experiment,
    simulate_cff,
    simulate_rcs,
    validate_config,
)
from pushpull_mac.capacity import service_ceiling
from pushpull_mac.cli import main as cli_main
from pushpull_mac.mac_cff import contention_rounds
from pushpull_mac.metrics import slot_budget

from _invariants import (
    check_cff_run,
    check_rcs_frame,
    pull_on_time,
    random_cff_config,
    random_rcs_case,
    rcs_exact,
    z_score,
)

PULL, PUSH = PacketClass.PULL, PacketClass.PUSH

PAPER_FRAME = dict(slots_per_frame=100, frame_duration=0.01, pull_packet_slots=5, push_packet_slots=1)

RCS_POPULATION = RcsPopulation(n_pull_devices=12, n_push_devices=40, push_threshold=0.5)
RCS_QUERY = SemanticQuery(0.25, 0.75)


def _report(criterion: str, passed: bool, detail: str = "") -> None:
    status = "PASS" if passed else "FAIL"
    print(f"[acceptance] criterion {criterion}: {status}{' — ' + detail if detail else ''}")
    assert passed, f"criterion {criterion}: {detail}"


# configs/cff_frontier.json without its output path
FRONTIER_CONFIG = {
    "protocol": "cff",
    "experiment": "capacity",
    "frame": {"slots_per_frame": 100, "frame_duration_ms": 10.0, "pull_packet_slots": 5, "push_packet_slots": 1},
    "alphas": [round(0.1 * i, 1) for i in range(1, 10)],
    "latency_targets_ms": [20.0, 30.0, 50.0],
    "capacity": {"target_reliability": 0.99, "rate_tolerance_pps": 50.0, "rate_upper_bound_pps": 10_000.0},
    "horizon_frames": 2000,
    "replications": 20,
    "master_seed": 1,
}


@pytest.mark.slow
def test_criterion_1_capacity_frontier_qualitative():
    """Fig.-3-style frontier, as the harness (and ``pushpull-mac capacity``)
    writes it: monotone in alpha, dominated by larger L, bounded by the pull
    service ceiling, each pull row within a rate tolerance of the exact
    capacity; finishes inside 10 minutes."""
    alphas = FRONTIER_CONFIG["alphas"]
    tol = FRONTIER_CONFIG["capacity"]["rate_tolerance_pps"]
    start = time.monotonic()
    rows = run_experiment(validate_config(FRONTIER_CONFIG), workers=1).rows
    elapsed = time.monotonic() - start

    problems = [f"alpha={r['alpha']} L={r['L_ms']}: point error {r['error']}" for r in rows if r["error"]]
    # rates[metric, L] lists the capacities in alpha order, as the rows come
    rates = {}
    for r in rows:
        rates.setdefault((r["metric_name"], float(r["L_ms"])), []).append(float(r["metric_value"] or "nan"))
    assert all(len(v) == len(alphas) for v in rates.values())
    for l_ms in FRONTIER_CONFIG["latency_targets_ms"]:
        pulls, pushes = rates["max_pull_rate_pps", l_ms], rates["max_push_rate_pps", l_ms]
        print(f"  L={l_ms:4.0f}ms  pull: " + " ".join(f"{x:7.1f}" for x in pulls))
        print(f"  {'':8} push: " + " ".join(f"{x:7.1f}" for x in pushes))
        # (a) monotone within one rate tolerance
        for i in range(1, len(alphas)):
            if pulls[i] < pulls[i - 1] - tol:
                problems.append(f"L={l_ms}: pull capacity drops {pulls[i - 1]:.0f}->{pulls[i]:.0f} at alpha={alphas[i]}")
            if pushes[i] > pushes[i - 1] + tol:
                problems.append(f"L={l_ms}: push capacity rises {pushes[i - 1]:.0f}->{pushes[i]:.0f} at alpha={alphas[i]}")
        # (c) hard service bound for pull
        for alpha, pull in zip(alphas, pulls):
            if pull > alpha * 2000.0 + 1e-9:
                problems.append(f"L={l_ms}: pull capacity {pull:.1f} > {alpha * 2000:.1f}")
    # (b) pointwise dominance of larger latency budgets
    for lo_l, hi_l in ((20.0, 30.0), (30.0, 50.0)):
        for klass in ("pull", "push"):
            metric = f"max_{klass}_rate_pps"
            for alpha, lo, hi in zip(alphas, rates[metric, lo_l], rates[metric, hi_l]):
                if hi < lo - tol:
                    problems.append(
                        f"{klass} dominance broken at alpha={alpha}: L={hi_l} gives {hi:.0f} < L={lo_l} {lo:.0f}"
                    )
    problems += _exact_pull_capacity_problems(rates, tol)
    if elapsed > 600.0:
        problems.append(f"runtime {elapsed:.0f}s exceeds 600s")
    _report(
        "1 (capacity frontier, Fig.-3 trends)",
        not problems,
        "; ".join(problems) if problems else f"27 points in {elapsed:.0f}s",
    )


def _exact_pull_capacity_problems(rates, tol):
    """Each pull row against the exact capacity of the stationary queue
    (``pull_on_time``, on time by ``slot_budget``): the capacity lies in
    [row - tol, row + 2 tol), so the exact reliability is at least the
    target at row - tol and below it at row + 2 tol, unless that rate
    reaches the service ceiling, which no stable rate does.  The capacity
    itself, bisected to 1 pps, gives the row's offset."""
    config = validate_config(FRONTIER_CONFIG)
    target = config.target_reliability
    problems, offsets, lows, highs, at_ceiling = [], [], [], [], 0
    for l_ms in config.latency_targets_ms:
        for alpha, row in zip(config.alphas, rates["max_pull_rate_pps", l_ms]):
            frame = config.frame_config(alpha)
            budget = slot_budget(l_ms * 1e-3, frame.slot_duration)
            ceiling = service_ceiling(frame, PULL)

            def reliability(rate):
                return pull_on_time(frame, rate, budget)[-1] / (rate * frame.frame_duration)

            lo, hi = row - tol, row + 2 * tol
            if lo >= ceiling:
                problems.append(f"pull alpha={alpha} L={l_ms}: {lo:.1f} pps is past the ceiling {ceiling:.1f}")
                continue
            if lo > 0:
                lows.append(reliability(lo))
                if lows[-1] < target:
                    problems.append(f"pull alpha={alpha} L={l_ms}: exact reliability {lows[-1]:.4f} at {lo:.1f} pps")
            if hi >= ceiling:
                at_ceiling += 1
                hi = ceiling
            else:
                highs.append(reliability(hi))
                if highs[-1] >= target:
                    problems.append(f"pull alpha={alpha} L={l_ms}: exact reliability {highs[-1]:.4f} at {hi:.1f} pps")
            lo = max(lo, 0.0)
            while hi - lo > 1.0:
                mid = (lo + hi) / 2
                lo, hi = (mid, hi) if reliability(mid) >= target else (lo, mid)
            offsets.append((abs(lo - row), lo - row, alpha, l_ms))
    if not offsets:
        return problems
    _, offset, alpha, l_ms = max(offsets)
    print(
        f"  exact pull capacities: {len(offsets)} rows checked, largest offset {offset:+.1f} pps"
        f" (alpha={alpha}, L={l_ms}ms); reliability >= {min(lows, default=math.nan):.4f} at row - tol,"
        f" <= {max(highs, default=math.nan):.4f} at row + 2 tol ({at_ceiling} rows at the ceiling)"
    )
    return problems


@pytest.mark.slow
def test_criterion_2_rcs_sweep_qualitative():
    """Fig.-4-style RCS sweep: accuracy nondecreasing and push success
    nonincreasing in alpha, both improving with S; every cell's two metrics
    within 4.5 standard errors of the exact law (``rcs_exact``: under it,
    one of the 66 z-scores exceeds 4.5 with probability about 4.5e-4);
    inside 2 minutes."""
    alphas = [round(0.1 * i, 1) for i in range(11)]
    frame_sizes = (25, 50, 75)
    tol = 0.02
    z_bound = 4.5
    n_frames = 100_000
    start = time.monotonic()
    acc, push, zs = {}, {}, []
    for s in frame_sizes:
        accs, pushes = [], []
        for i, alpha in enumerate(alphas):
            cfg = FrameConfig(s, 0.01, 1, 1, alpha)
            res = simulate_rcs(cfg, RCS_POPULATION, RCS_QUERY, n_frames, seed=1000 + i)
            accs.append(res.retrieval_accuracy)
            pushes.append(res.push_success_prob if res.push_success_prob is not None else 0.0)
            # frames are independent: per-frame residuals against the exact law
            accuracy, push_success = rcs_exact(cfg, RCS_POPULATION, RCS_QUERY)
            matched, reserved, shared, attempted, succeeded = res.frames.T
            retrieved = (reserved + shared == matched).astype(np.float64)
            zs += [z_score(retrieved - accuracy), z_score(succeeded - push_success * attempted)]
        acc[s], push[s] = accs, pushes
        print(f"  S={s:2d} acc : " + " ".join(f"{x:.3f}" for x in accs))
        print(f"  S={s:2d} push: " + " ".join(f"{x:.3f}" for x in pushes))
    elapsed = time.monotonic() - start
    z_max = max(abs(z) for z in zs)
    print(f"  max |z| against the exact law: {z_max:.3f} over {len(zs)} z-scores")

    problems = []
    if z_max > z_bound:
        problems.append(f"max |z| {z_max:.2f} over {len(zs)} z-scores exceeds {z_bound}")
    for s in frame_sizes:
        for i in range(len(alphas) - 1):
            if acc[s][i + 1] < acc[s][i] - tol:
                problems.append(f"S={s}: accuracy drops at alpha={alphas[i + 1]}")
            if push[s][i + 1] > push[s][i] + tol:
                problems.append(f"S={s}: push success rises at alpha={alphas[i + 1]}")
    for s_lo, s_hi in ((25, 50), (50, 75)):
        for i, alpha in enumerate(alphas):
            if acc[s_hi][i] < acc[s_lo][i] - tol:
                problems.append(f"accuracy not improving with S at alpha={alpha}")
            if push[s_hi][i] < push[s_lo][i] - tol:
                problems.append(f"push success not improving with S at alpha={alpha}")
    if elapsed > 120.0:
        problems.append(f"runtime {elapsed:.0f}s exceeds 120s")
    _report(
        "2 (RCS sweep, Fig.-4 trends)",
        not problems,
        "; ".join(problems) if problems else f"33 points in {elapsed:.0f}s, max |z| {z_max:.2f} over {len(zs)}",
    )


def test_criterion_3_slotted_aloha_oracle():
    """CFF push channel without retransmissions reproduces e^-G."""
    problems = []
    details = []
    for g, frames in ((0.5, 2200), (1.0, 1100)):
        cfg = FrameConfig(alpha=0.0, **PAPER_FRAME)
        rate = g * 100 / cfg.frame_duration  # per-slot load G over 100 push slots
        rec = simulate_cff(cfg, 0.0, rate, frames, seed=33, push_retransmit=False)
        assert rec.arrived(PUSH) >= 100_000
        p = len(rec.latency_slots(PUSH)) / rec.arrived(PUSH)
        details.append(f"G={g}: {p:.4f} vs e^-G={math.exp(-g):.4f} (n={rec.arrived(PUSH)})")
        if abs(p - math.exp(-g)) > 0.01:
            problems.append(details[-1])
    _report("3 (slotted-ALOHA oracle)", not problems, "; ".join(problems or details))


def test_criterion_4_small_instance_enumeration():
    """2 contenders / 2 slots succeed half the time; 2 / 1 slot never."""
    frames = 100_000
    rng = np.random.default_rng(44)
    # the rule the simulators run, one round of two contenders per frame, on
    # the draws one ``integers(0, n_slots, size=2)`` call per frame makes
    rounds = np.arange(frames).repeat(2)
    win = contention_rounds(rng.integers(0, 2, size=2 * frames), 2, rounds, frames)
    contend_rate = int(np.count_nonzero(win)) / (2 * frames)

    win = contention_rounds(rng.integers(0, 1, size=2 * frames), 1, rounds, frames)
    forced = int(np.count_nonzero(win))

    # same enumeration through the RCS reserved portion (2 matched, 2 reserved slots)
    pop2 = RcsPopulation(2, 0, 1.0)
    res2 = simulate_rcs(FrameConfig(2, 0.01, 1, 1, 1.0), pop2, SemanticQuery(0.0, 1.0), frames, seed=45)
    rcs_device_rate = res2.retrieval_accuracy  # both-or-neither
    res1 = simulate_rcs(FrameConfig(1, 0.01, 1, 1, 1.0), pop2, SemanticQuery(0.0, 1.0), frames, seed=46)

    problems = []
    if abs(contend_rate - 0.5) > 0.01:
        problems.append(f"contention 2/2 rate {contend_rate:.4f}")
    if forced != 0:
        problems.append(f"contention 2/1 delivered {forced} packets")
    if abs(rcs_device_rate - 0.5) > 0.01:
        problems.append(f"RCS reserved 2/2 rate {rcs_device_rate:.4f}")
    if res1.retrieval_accuracy != 0.0:
        problems.append(f"RCS reserved 2/1 accuracy {res1.retrieval_accuracy}")
    _report(
        "4 (small-instance enumeration)",
        not problems,
        "; ".join(problems) if problems else f"2/2 rates {contend_rate:.3f} and {rcs_device_rate:.3f}, 2/1 exact zero",
    )


def test_criterion_5_conservation_and_purity():
    """Randomized invariants over >= 10^3 generated configurations."""
    rng = np.random.default_rng(555)
    n_cff, n_rcs = 600, 500
    for _ in range(n_cff):
        check_cff_run(random_cff_config(rng), rng)
    for _ in range(n_rcs):
        config, population, query = random_rcs_case(rng)
        check_rcs_frame(config, population, query, rng)
    _report(
        "5 (conservation and purity invariants)",
        True,
        f"{n_cff} CFF runs + {n_rcs} RCS frames",
    )


def test_criterion_6_deterministic_output(tmp_path):
    """Identical (config, seed) gives byte-identical CSV, for any worker count
    and through the CLI."""
    data = {
        "protocol": "rcs",
        "frame": {
            "slots_per_frame": 25,
            "frame_duration_ms": 10.0,
            "pull_packet_slots": 1,
            "push_packet_slots": 1,
        },
        "alphas": [0.2, 0.8],
        "slots_per_frame_values": [25, 50],
        "population": {
            "n_pull_devices": 6,
            "n_push_devices": 10,
            "query": [0.25, 0.75],
            "push_threshold": 0.5,
        },
        "n_frames": 2000,
        "master_seed": 6,
    }
    cfg = validate_config(data)
    paths = [tmp_path / name for name in ("a.csv", "b.csv", "w2.csv", "cli.csv")]
    run_experiment(cfg, out=str(paths[0]), workers=1)
    run_experiment(cfg, out=str(paths[1]), workers=1)
    run_experiment(cfg, out=str(paths[2]), workers=2)
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(__import__("json").dumps(data))
    assert cli_main(["sweep", "--config", str(cfg_file), "--out", str(paths[3]), "--quiet"]) == 0
    blobs = [p.read_bytes() for p in paths]
    identical = all(b == blobs[0] for b in blobs)
    _report(
        "6 (byte-identical determinism)",
        identical and len(blobs[0]) > 0,
        f"{len(blobs[0])} bytes across reruns, worker pools and the CLI",
    )


def test_criterion_7_degenerate_endpoints():
    """alpha=0 kills pull capacity, alpha=1 kills push, exactly."""
    problems = []

    cff0 = FrameConfig(alpha=0.0, **PAPER_FRAME)
    cff1 = FrameConfig(alpha=1.0, **PAPER_FRAME)
    if cff0.pull_tx_capacity != 0:
        problems.append("alpha=0 leaves pull capacity")
    if cff1.push_slot_budget != 0:
        problems.append("alpha=1 leaves push slots")

    rec0 = simulate_cff(cff0, pull_rate=800, push_rate=0, horizon_frames=100, seed=7)
    if len(rec0.latency_slots(PULL)) != 0 or rec0.failed(PULL) != rec0.arrived(PULL):
        problems.append("alpha=0 delivered pull traffic")
    rec1 = simulate_cff(cff1, pull_rate=0, push_rate=800, horizon_frames=100, seed=7)
    if len(rec1.latency_slots(PUSH)) != 0:
        problems.append("alpha=1 delivered push traffic")

    spec = CapacitySpec(
        target_latency=0.02, rate_tolerance=50.0, rate_upper_bound=10_000.0,
        horizon_frames=50, replications=1,
    )
    pull_cap = max_class_rate(cff0, PULL, spec, master_seed=3)
    push_cap = max_class_rate(cff1, PUSH, spec, master_seed=3)
    if pull_cap.rate != 0.0 or not pull_cap.unreachable or pull_cap.probes:
        problems.append("alpha=0 pull capacity search not exactly zero")
    if push_cap.rate != 0.0 or not push_cap.unreachable or push_cap.probes:
        problems.append("alpha=1 push capacity search not exactly zero")

    res = simulate_rcs(
        FrameConfig(50, 0.01, 1, 1, 1.0), RCS_POPULATION, RCS_QUERY, 5000, seed=8
    )
    attempted, succeeded = res.frames[:, 3:].T
    if not attempted.any() or succeeded.any():
        problems.append("RCS alpha=1 allowed push successes")
    if res.push_success_prob != 0.0:
        problems.append(f"RCS alpha=1 push probability {res.push_success_prob}")
    for s in (25, 50, 75):
        if FrameConfig(s, 0.01, 1, 1, 0.0).pull_slot_budget != 0:
            problems.append(f"RCS alpha=0 reserves slots at S={s}")

    _report("7 (degenerate endpoints)", not problems, "; ".join(problems) if problems else "all exact")
