"""Benchmark of the pushpull_mac sweep harness.

    python3 perfbench/run.py --workload cff_frontier --seed 1 --seconds 20 --trace 0

Runs one workload (a sweep config in ``perfbench/workloads/``, its master seed
set from ``--seed``) through ``pushpull_mac.run_experiment`` with
``workers=1``, checks the output CSVs, and prints each metric by name with its
unit.  The last stdout line is one JSON object: ``correct``, ``attempted`` and
``failed`` (sweep points) and ``metrics`` (end-to-end with ``--trace 0``,
per-layer with ``--trace 1``).  See ``perfbench/README.md``.

Every run measures, each in fresh interpreters started from here:
set-up (import + config load, several times), the untraced sweep (repeated
for ``--seconds``) and one traced sweep.  Both trace modes run the same steps
and differ only in the metrics they report.  Times are scaled to a reference
host speed with the calibrations in ``calib.py``, timed next to each
measurement; the raw times are printed and kept in the result record.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path
from typing import Dict, List, Tuple

from calib import IMPORT_CODE, IMPORT_REFERENCE_S, REFERENCE_S, scales

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORKLOADS = BENCH_DIR / "workloads"
DIGESTS = BENCH_DIR / "digests.json"
OUT = ROOT / ".perfbench_out"
DEFAULT_SEED = 1  # the seed the reference digests are recorded at

SETUP_RUNS = 8  # per half: one half before the sweeps, one after
RUN_LIMIT_S = 170.0  # every child of one run ends within this
SETUP_CODE = (
    "import sys, time\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "t0 = time.perf_counter()\n"
    "import pushpull_mac\n"
    "t1 = time.perf_counter()\n"
    "pushpull_mac.load_config(sys.argv[2])\n"
    "t2 = time.perf_counter()\n"
    "print(t1 - t0, t2 - t1)\n"
)

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MiB"}
LAYER_UNITS = {
    "traffic.offsets.calls": "count",
    "traffic.offsets.self_s": "s",
    "mac_cff.runs": "count",
    "mac_cff.self_s": "s",
    "mac_cff.pull.calls": "count",
    "mac_cff.pull.served": "count",
    "mac_cff.pull.self_s": "s",
    "mac_cff.push.rounds": "count",
    "mac_cff.push.contenders": "count",
    "mac_cff.push.success_ratio": "ratio",
    "mac_cff.push.self_s": "s",
    "mac_rcs.frames": "count",
    "mac_rcs.self_s": "s",
    "mac_rcs.us_per_frame": "us",
    "mac_rcs.contention.rounds": "count",
    "mac_rcs.contention.success_ratio": "ratio",
    "mac_rcs.contention.self_s": "s",
    "metrics.samples": "count",
    "metrics.reliability.calls": "count",
    "metrics.reliability.self_s": "s",
    "metrics.merge.self_s": "s",
    "capacity.searches": "count",
    "capacity.probes": "count",
    "capacity.probe_runs": "count",
    "capacity.self_s": "s",
    "harness.points": "count",
    "harness.self_s": "s",
    "harness.point_s_max": "s",
    "setup.import_s": "s",
    "setup.config_s": "s",
    "trace.overhead_frac": "ratio",
    "host.calib_s": "s",
    "host.wall_raw_s": "s",
}


class BenchError(Exception):
    """The benchmark could not measure (as opposed to a failed output check)."""


def _child(args: List[str], deadline: float) -> str:
    timeout = deadline - time.monotonic()
    try:
        if timeout <= 0:
            raise subprocess.TimeoutExpired(args, 0)
        proc = subprocess.run(
            [sys.executable, *args],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=timeout,
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"run exceeded {RUN_LIMIT_S} s in child {args[:2]}") from exc
    if proc.returncode != 0:
        raise BenchError(f"child failed ({proc.returncode}): {args[:2]}\n{proc.stderr}")
    return proc.stdout.strip().splitlines()[-1]


def measure_setup(config_path: Path, deadline: float) -> List[Tuple[float, float, float]]:
    """(import s, config-load s, host-speed scale) of fresh interpreters, each
    timed between two import calibrations."""
    calibrations = [float(_child(["-c", IMPORT_CODE], deadline))]
    runs = []
    for _ in range(SETUP_RUNS):
        out = _child(["-c", SETUP_CODE, str(SRC), str(config_path)], deadline)
        runs.append(tuple(float(x) for x in out.split()))
        calibrations.append(float(_child(["-c", IMPORT_CODE], deadline)))
    return [(i, c, k) for (i, c), k in zip(runs, scales(calibrations, IMPORT_REFERENCE_S))]


def setup_metrics(runs: List[Tuple[float, float, float]]) -> Dict[str, float]:
    return {
        "setup_s": statistics.median(k * (i + c) for i, c, k in runs),
        "setup.import_s": statistics.median(k * i for i, _, k in runs),
        "setup.config_s": statistics.median(k * c for _, c, k in runs),
    }


def run_worker(mode: str, config_path: Path, seed: int, seconds: float, out_dir: Path, deadline: float) -> dict:
    args = [str(BENCH_DIR / "worker.py"), mode, "--config", str(config_path), "--seed", str(seed)]
    args += ["--seconds", repr(seconds), "--out-dir", str(out_dir)]
    return json.loads(_child(args, deadline))


def environment() -> Dict[str, str]:
    """What a result must be read next to: numbers from different machines,
    toolchains or sources are not comparable."""
    import numpy

    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {
        "nproc": str(len(os.sched_getaffinity(0))),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_commit": _git_commit(),
        "src_sha256": _tree_digest(SRC),
    }


def _git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text(encoding="utf-8").strip()
    if not ref.startswith("ref: "):
        return ref
    ref_file = ROOT / ".git" / ref[5:]
    if ref_file.is_file():
        return ref_file.read_text(encoding="utf-8").strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return "unknown"


def _tree_digest(root: Path) -> str:
    """SHA-256 over the package sources, to identify code without git."""
    h = hashlib.sha256()
    for path in sorted(root.rglob("*.py")):
        h.update(path.relative_to(root).as_posix().encode("utf-8") + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


def quartiles(values: List[float]) -> str:
    if len(values) < 2:
        return f"n={len(values)}"
    q1, _, q3 = statistics.quantiles(values, n=4)
    return f"n={len(values)}, q1 {q1:.6g}, q3 {q3:.6g}"


def run(workload: str, config_path: Path, out_dir: Path, seed: int, seconds: float, trace: int) -> int:
    from check import check_csv
    from pushpull_mac import load_config

    config = replace(load_config(config_path), master_seed=seed)
    env = environment()
    print(f"workload {workload}, seed {seed}, {seconds} s, trace {trace}")
    print("env " + json.dumps(env, sort_keys=True))

    # set-up is sampled on both sides of the sweeps, so one quiet or busy
    # spell of the host does not decide it alone
    deadline = time.monotonic() + RUN_LIMIT_S
    setup_runs = measure_setup(config_path, deadline)
    plain = run_worker("untraced", config_path, seed, seconds, out_dir, deadline)
    traced = run_worker("traced", config_path, seed, seconds, out_dir, deadline)
    setup_runs += measure_setup(config_path, deadline)
    setup = setup_metrics(setup_runs)

    digests = json.loads(DIGESTS.read_text(encoding="utf-8"))["workloads"]
    reference = digests.get(workload) if seed == DEFAULT_SEED else None
    same_as = (
        ("repeated", (out_dir / "repeat.csv").read_bytes()),
        ("traced", (out_dir / "traced.csv").read_bytes()),
    )
    check = check_csv(config, (out_dir / "untraced.csv").read_bytes(), reference, same_as)
    for key, reasons in check.failures.items():
        print(f"FAILED point {key}: {'; '.join(reasons)}")

    walls = [w * k for w, k in zip(plain["walls"], scales(plain["calibrations"]))]
    wall = statistics.median(walls)
    end_to_end = {"wall_s": wall, "setup_s": setup["setup_s"], "peak_rss_mb": plain["peak_rss_mb"]}
    traced_scale = scales(traced["calibrations"])[0]
    layers = {n: v * traced_scale if LAYER_UNITS[n] in ("s", "us") else v for n, v in traced["layers"].items()}
    layers["setup.import_s"] = setup["setup.import_s"]
    layers["setup.config_s"] = setup["setup.config_s"]
    layers["trace.overhead_frac"] = traced["wall"] * traced_scale / wall - 1.0
    layers["host.calib_s"] = statistics.median(plain["calibrations"])
    layers["host.wall_raw_s"] = statistics.median(plain["walls"])

    print(f"wall_s = {wall:.6g} s (scaled median of timed sweeps; {quartiles(walls)})")
    print(f"  raw {layers['host.wall_raw_s']:.6g} s; calibration {layers['host.calib_s']:.6g} s of {REFERENCE_S} s")
    print(f"setup_s = {setup['setup_s']:.6g} s (scaled median of {2 * SETUP_RUNS} fresh interpreters)")
    print(f"peak_rss_mb = {plain['peak_rss_mb']:.6g} MiB")
    frac = check.failed / check.attempted
    print(f"points_failed_frac = {frac:.6g} ({check.failed} of {check.attempted} sweep points failed)")
    print(f"reference digest: {'checked' if reference is not None else 'none recorded for this seed'}")
    if trace:
        for name, value in layers.items():
            print(f"{name} = {value:.6g} {LAYER_UNITS[name]}")
        print(f"spans written: {traced['spans']} to {out_dir / 'spans.csv'}")

    reported = layers if trace else end_to_end
    units = LAYER_UNITS if trace else END_TO_END_UNITS
    result = {
        "correct": check.failed == 0,
        "attempted": check.attempted,
        "failed": check.failed,
        "metrics": {name: {"value": reported[name], "unit": units[name]} for name in units},
    }
    record = {
        "env": env,
        "workload": workload,
        "seed": seed,
        "end_to_end": end_to_end,
        "layers": layers,
        "raw_walls": plain["walls"],
        "calibrations": plain["calibrations"],
        "setup_runs": setup_runs,
        "failures": check.failures,
    }
    (out_dir / f"result_seed{seed}_trace{trace}.json").write_text(json.dumps(record, indent=2) + "\n")
    print(json.dumps(result))
    return 0


def record_digests() -> int:
    """Re-record the reference digests at the default seed.  Only a change to
    the model may do this, and it is a benchmark change, not a perf change."""
    from check import check_csv, point_digests, sha256
    from pushpull_mac import load_config, run_experiment

    out = {"seed": DEFAULT_SEED, "workloads": {}}
    for path in sorted(WORKLOADS.glob("*.json")):
        config = replace(load_config(path), master_seed=DEFAULT_SEED, output=None)
        csv_path = OUT / path.stem / "record.csv"
        run_experiment(config, str(csv_path), workers=1)
        data = csv_path.read_bytes()
        check = check_csv(config, data)
        if check.failures:
            raise BenchError(f"{path.stem}: output fails its invariants: {check.failures}")
        out["workloads"][path.stem] = {
            "csv_sha256": sha256(data),
            "points": point_digests(config, data.decode("utf-8")),
        }
        print(f"{path.stem}: {out['workloads'][path.stem]['csv_sha256']}")
    DIGESTS.write_text(json.dumps(out, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description="pushpull_mac sweep benchmark")
    parser.add_argument("--workload", choices=sorted(p.stem for p in WORKLOADS.glob("*.json")))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-digests", action="store_true", help="re-record reference digests and exit")
    args = parser.parse_args()

    if not (SRC / "pushpull_mac" / "__init__.py").is_file():
        print(f"perfbench: no package sources at {SRC / 'pushpull_mac'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    try:
        if args.record_digests:
            return record_digests()
        if args.workload is None:
            parser.error("--workload is required")
        if args.seed < 0 or args.seconds <= 0:
            parser.error("--seed must be >= 0 and --seconds > 0")
        config_path = WORKLOADS / f"{args.workload}.json"
        return run(args.workload, config_path, OUT / args.workload, args.seed, args.seconds, args.trace)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
