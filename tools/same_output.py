"""Byte identity of two checkouts' sweep CSVs over several master seeds.

    python3 tools/same_output.py PARENT_ROOT CHANGE_ROOT --seeds 10

PARENT_ROOT and CHANGE_ROOT are two checkouts of the repository.  For each
workload config in the change's ``perfbench/workloads/`` (read, never
written) and each master seed 1..N, each root runs the sweep with its own
package (``ROOT/src``) in a fresh interpreter:
``run_experiment(replace(load_config(config), master_seed=seed), out,
workers=1)``.  The two CSVs are compared by SHA-256.  Per workload it prints
``identical`` or the first seed whose CSVs differ, with the first line that
differs on each side (line 1 is the header).  The exit status is 1 if any
workload differs.  A run that exits non-zero stops the tool with its side,
workload, seed, exit code and the tail of its stderr, in the report format of
``perf_pairs.py``.  The CSVs and meta sidecars go to a temporary directory
that is removed at the end.
"""
from __future__ import annotations

import argparse
import hashlib
import os
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Optional, Sequence

sys.path.insert(0, str(Path(__file__).resolve().parent))
from perf_pairs import failure  # noqa: E402

# one sweep, run in a fresh interpreter with the root's src/ first on the path
SWEEP = (
    "import sys\n"
    "from dataclasses import replace\n"
    "from pushpull_mac import load_config, run_experiment\n"
    "config, seed, out = sys.argv[1:]\n"
    "run_experiment(replace(load_config(config), master_seed=int(seed)), out, workers=1)\n"
)


def run_sweep(side: str, root: Path, config: Path, seed: int, out: Path) -> bytes:
    """The CSV that ``root``'s package writes for ``config`` at ``seed``."""
    path = [str(root / "src"), *filter(None, [os.environ.get("PYTHONPATH")])]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    cmd = [sys.executable, "-c", SWEEP, str(config), str(seed), str(out)]
    run = subprocess.run(cmd, cwd=root, env=env, capture_output=True, text=True)
    if run.returncode:
        where = f"{side} {config.stem} seed {seed} ({root})"
        raise SystemExit(failure(where, f"exit code {run.returncode}", run.stderr))
    return out.read_bytes()


def first_difference(parent: bytes, change: bytes) -> str:
    """Where two CSVs first differ: the line number and both sides' line."""
    a, b = parent.decode().splitlines(), change.decode().splitlines()
    i = next((i for i, (x, y) in enumerate(zip(a, b)) if x != y), min(len(a), len(b)))
    side = [lines[i] if i < len(lines) else "(no line)" for lines in (a, b)]
    return f"line {i + 1}: parent {side[0]!r}, change {side[1]!r}"


def compare(roots: Sequence[Path], config: Path, seeds: int, scratch: Path) -> Optional[str]:
    """Where one workload's CSVs first differ over master seeds 1..``seeds``;
    None if they are identical."""
    for seed in range(1, seeds + 1):
        sides = zip(("parent", "change"), roots)
        csvs = [run_sweep(side, root, config, seed, scratch / f"{side}.csv") for side, root in sides]
        digests = [hashlib.sha256(csv).hexdigest() for csv in csvs]
        print(f"{config.stem} seed {seed}: {' '.join(d[:16] for d in digests)}", file=sys.stderr)
        if digests[0] != digests[1]:
            return f"seed {seed} differs at {first_difference(*csvs)}"
    return None


def main(argv: Optional[Sequence[str]] = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent_root", type=Path)
    ap.add_argument("change_root", type=Path)
    ap.add_argument("--seeds", type=int, default=10, help="compare master seeds 1..N")
    args = ap.parse_args(argv)
    if args.seeds < 1:
        ap.error("--seeds must be >= 1")
    roots = [args.parent_root.resolve(), args.change_root.resolve()]
    configs = sorted((roots[1] / "perfbench" / "workloads").glob("*.json"))
    if not configs:
        ap.error(f"no workload configs in {roots[1] / 'perfbench' / 'workloads'}")
    differ = False
    with tempfile.TemporaryDirectory() as scratch:
        for config in configs:
            found = compare(roots, config, args.seeds, Path(scratch))
            print(f"{config.stem}: {found or f'identical at seeds 1..{args.seeds}'}")
            differ |= found is not None
    return int(differ)


if __name__ == "__main__":
    raise SystemExit(main())
