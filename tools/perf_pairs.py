"""Alternating parent/change runs of the benchmark, summarised per metric.

    python3 tools/perf_pairs.py PARENT_ROOT CHANGE_ROOT --workloads cff_mixed,rcs_grid --pairs 10 --seconds 20

PARENT_ROOT and CHANGE_ROOT are two checkouts of the repository.  Each pair
runs ``perfbench/run.py --workload W --seed SEED --seconds S --trace 0`` once
in each root, with that root's own benchmark and package, the parent first in
even pairs and the change first in odd ones, so a slow spell of the host
falls on both sides.  Each run writes only its root's ``.perfbench_out/``.
For every workload and end-to-end metric of the change's BENCHMARK.json it
prints the parent's and the change's median [q1, q3], the relative change of
the medians, in how many pairs the change read lower, the gap of the medians
against the parent's quartile distance, and a verdict against the metric's
``bound``, a fraction of the parent's median: ``within bound`` or ``worse
than bound`` by the medians, or ``unresolved`` when the parent's quartile
distance is wider than the bound and not every change run beats every parent
run.  It also says whether a gain on the metric may be claimed: only when at
least ``GAIN_PAIRS`` pairs ran, the change reads better in at least nine
tenths of them (ties count for neither), and its median is better than the
parent's by more than the parent's quartile distance.  Each side's ``env``
line (host, toolchain and source) is printed once, with a warning when the
sides differ in any of ``SAME_ENV``: numbers from different hosts or
toolchains do not compare, while the commit and the source digest differ by
design.  A run that is not
``correct`` or has failed points is reported and stops the tool; so is a run
that exits non-zero or whose last stdout line is not a result, with its
side, workload, exit code and the tail of its stderr.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple


# stderr lines a failed run's report quotes
STDERR_TAIL = 20

# pairs a gain needs, and the default number of pairs run
GAIN_PAIRS = 10

# env fields both sides must share for their numbers to compare
SAME_ENV = ("nproc", "cpu_model", "python", "numpy")


def failure(where: str, what: str, stderr: str) -> str:
    """The report of a failed run: where, what went wrong, its stderr tail."""
    tail = stderr.rstrip().splitlines()[-STDERR_TAIL:]
    return "\n".join([f"{where}: {what}; stderr tail:", *(f"  {line}" for line in tail or ["(empty)"])])


def parse_result(stdout: str, where: str, stderr: str = "") -> Dict[str, float]:
    """The metric values of a benchmark run's last stdout line."""
    last = (stdout.strip().splitlines() or [""])[-1]
    try:
        result = json.loads(last)
        values = {name: metric["value"] for name, metric in result["metrics"].items()}
        correct, failed = result["correct"], result["failed"]
    except (ValueError, LookupError, TypeError, AttributeError):
        raise SystemExit(failure(where, f"malformed last line {last!r}", stderr)) from None
    if not correct or failed:
        raise SystemExit(f"{where}: correct={correct} failed={failed}")
    return values


def parse_env(stdout: str, where: str, stderr: str = "") -> Optional[Dict[str, str]]:
    """The fields of a benchmark run's ``env`` line, or None without one."""
    line = next((line for line in stdout.splitlines() if line.startswith("env ")), None)
    if line is None:
        return None
    try:
        env = json.loads(line[4:])
    except ValueError:
        env = None
    if not isinstance(env, dict):
        raise SystemExit(failure(where, f"malformed env line {line!r}", stderr))
    return env


def env_warning(parent: Dict[str, str], change: Dict[str, str]) -> Optional[str]:
    """A warning naming the ``SAME_ENV`` fields in which the sides differ."""
    differ = [f"{k} {parent.get(k)!r} vs {change.get(k)!r}" for k in SAME_ENV if parent.get(k) != change.get(k)]
    if not differ:
        return None
    return f"WARNING: parent and change env differ in {', '.join(differ)}; their numbers do not compare"


def run_once(
    side: str, root: Path, workload: str, seed: int, seconds: float
) -> Tuple[Dict[str, float], Optional[Dict[str, str]]]:
    """One benchmark run of ``side`` in ``root``; its end-to-end metrics and
    its env fields."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed)]
    cmd += ["--seconds", str(seconds), "--trace", "0"]
    run = subprocess.run(cmd, cwd=root, capture_output=True, text=True)
    where = f"{side} {workload} ({root})"
    if run.returncode:
        raise SystemExit(failure(where, f"exit code {run.returncode}", run.stderr))
    return parse_result(run.stdout, where, run.stderr), parse_env(run.stdout, where, run.stderr)


def quartiles(values: Sequence[float]) -> List[float]:
    """q1, median, q3 (numpy-free, as perfbench/run.py computes them)."""
    if len(values) < 2:
        return [values[0]] * 3
    q1, median, q3 = statistics.quantiles(values, n=4)
    return [q1, median, q3]


def verdict(metric: Dict[str, Any], parent: Sequence[float], change: Sequence[float]) -> str:
    """The change against the metric's ``bound``, a fraction of the parent's median."""
    p1, pm, p3 = quartiles(parent)
    cm = quartiles(change)[1]
    allowed = metric["bound"] * abs(pm)
    if metric["better"] == "lower":
        worse, beats_all = cm - pm, max(change) < min(parent)
    else:
        worse, beats_all = pm - cm, min(change) > max(parent)
    if p3 - p1 > allowed and not beats_all:
        return "unresolved"
    return "worse than bound" if worse > allowed else "within bound"


def gain(metric: Dict[str, Any], parent: Sequence[float], change: Sequence[float]) -> str:
    """Whether the pairs show a gain on the metric: at least ``GAIN_PAIRS``
    pairs, the change better in at least nine tenths of them, and the medians
    further apart, the change's way, than the parent's quartile distance."""
    p1, pm, p3 = quartiles(parent)
    sign = 1.0 if metric["better"] == "lower" else -1.0
    better = sum(sign * (p - c) > 0 for p, c in zip(parent, change))
    gap = sign * (pm - quartiles(change)[1])
    holds = len(parent) >= GAIN_PAIRS and 10 * better >= 9 * len(parent) and gap > p3 - p1
    return (
        f"gain {'holds' if holds else 'not shown'}: change better in {better}/{len(parent)} "
        f"(needs 9/10 of at least {GAIN_PAIRS}), median gap {gap:+.4f} the better way against parent IQR {p3 - p1:.4f}"
    )


def summarise(metric: Dict[str, Any], parent: Sequence[float], change: Sequence[float]) -> str:
    """One BENCHMARK.json end-to-end metric over paired runs: ``parent[i]``
    and ``change[i]`` ran in pair i."""
    p1, pm, p3 = quartiles(parent)
    c1, cm, c3 = quartiles(change)
    lower = sum(c < p for p, c in zip(parent, change))
    rel = 100.0 * (cm - pm) / pm if pm else float("nan")
    return (
        f"{metric['name']} {pm:.4f} [{p1:.4f}, {p3:.4f}] -> {cm:.4f} [{c1:.4f}, {c3:.4f}] {metric['unit']} "
        f"({rel:+.1f} %, change lower in {lower}/{len(parent)}, gap {abs(cm - pm):.4f}, parent IQR {p3 - p1:.4f}, "
        f"bound {100.0 * metric['bound']:g} %: {verdict(metric, parent, change)})"
    )


def main(argv: Optional[Sequence[str]] = None) -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent_root", type=Path)
    ap.add_argument("change_root", type=Path)
    ap.add_argument("--workloads", default="cff_frontier,rcs_grid,cff_mixed", help="comma-separated names")
    ap.add_argument("--pairs", type=int, default=GAIN_PAIRS)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args(argv)
    if args.pairs < 1:
        ap.error("--pairs must be >= 1")
    roots = {"parent": args.parent_root.resolve(), "change": args.change_root.resolve()}
    metrics = json.loads((roots["change"] / "BENCHMARK.json").read_text())["end_to_end"]
    envs: Dict[str, Dict[str, str]] = {}  # each side's first env line
    for workload in args.workloads.split(","):
        runs: Dict[str, List[Dict[str, float]]] = {"parent": [], "change": []}
        for i in range(args.pairs):
            for side in ("parent", "change") if i % 2 == 0 else ("change", "parent"):
                values, env = run_once(side, roots[side], workload, args.seed, args.seconds)
                runs[side].append(values)
                if side in envs or env is None:
                    continue
                envs[side] = env
                print(f"{side} env {json.dumps(env, sort_keys=True)}")
                warning = env_warning(envs["parent"], envs["change"]) if len(envs) == 2 else None
                if warning:
                    print(warning)
            pair = {side: runs[side][-1] for side in runs}
            print(f"{workload} pair {i + 1}/{args.pairs}: {json.dumps(pair, sort_keys=True)}", file=sys.stderr)
        print(f"{workload} ({args.pairs} pairs)")
        for metric in metrics:
            parent, change = ([r[metric["name"]] for r in runs[side]] for side in ("parent", "change"))
            print("  " + summarise(metric, parent, change))
            print("    " + gain(metric, parent, change))


if __name__ == "__main__":
    main()
