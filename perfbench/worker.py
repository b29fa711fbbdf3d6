"""One measured process of the benchmark (started by run.py).

``untraced``: one warm-up sweep, then timed sweeps until ``--seconds`` have
passed, with a host-speed calibration (``calib.py``) before the first and
after every sweep; then the process's peak resident memory.  ``traced``: one
warm-up sweep, then one sweep with the tracer installed, between two
calibrations; the per-layer metrics, and the spans written out.  Each sweep is
``pushpull_mac.run_experiment`` with ``workers=1``, CSV and meta sidecar
included.  Times are reported raw; run.py scales them.  The last stdout line
is a JSON object.
"""
from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from dataclasses import replace
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import pushpull_mac  # noqa: E402
from calib import calibrate  # noqa: E402

MIN_TIMED_SWEEPS = 3


def _sweep(config, out: Path) -> float:
    start = time.perf_counter()
    pushpull_mac.run_experiment(config, str(out), workers=1)
    return time.perf_counter() - start


def untraced(config, out_dir: Path, seconds: float) -> dict:
    first = out_dir / "untraced.csv"
    repeat = out_dir / "repeat.csv"
    _sweep(config, first)
    reference = first.read_bytes()
    walls = []
    calibrations = [calibrate()]
    deadline = time.perf_counter() + seconds
    while len(walls) < MIN_TIMED_SWEEPS or time.perf_counter() < deadline:
        walls.append(_sweep(config, repeat))
        calibrations.append(calibrate())
        if repeat.read_bytes() != reference:
            break  # keep the differing CSV for the check
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss  # KiB on Linux
    return {"walls": walls, "calibrations": calibrations, "peak_rss_mb": peak_kb / 1024.0}


def traced(config, out_dir: Path) -> dict:
    from tracer import Tracer  # the untraced process never loads the tracer

    _sweep(config, out_dir / "warmup.csv")
    tracer = Tracer()
    tracer.install()
    try:
        before = calibrate()
        start = time.perf_counter()
        tracer.run_experiment(config, str(out_dir / "traced.csv"))
        wall = time.perf_counter() - start
        after = calibrate()
    finally:
        tracer.uninstall()
    tracer.write_spans(out_dir / "spans.csv")
    return {
        "wall": wall,
        "calibrations": [before, after],
        "layers": tracer.layer_metrics(),
        "spans": len(tracer.spans),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=("untraced", "traced"))
    parser.add_argument("--config", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--out-dir", required=True)
    args = parser.parse_args()

    config = replace(pushpull_mac.load_config(args.config), master_seed=args.seed, output=None)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    if args.mode == "untraced":
        report = untraced(config, out_dir, args.seconds)
    else:
        report = traced(config, out_dir)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
