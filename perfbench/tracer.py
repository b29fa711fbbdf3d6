"""Out-of-tree span tracer for the per-layer benchmark run.

Modules bind functions at import (``from .mac_cff import simulate_cff``), so
each public function is wrapped at the name its *caller* looks it up by, not
where it is defined.  Nothing inside ``src/`` is changed.  Spans are kept in
memory as (name, start, end, parent, point) and written out at the end; a
span's self time is its duration minus the time its child spans cover.
"""
from __future__ import annotations

import csv
import time
from collections import Counter
from pathlib import Path
from typing import Callable, Dict, List, Optional

import numpy as np

import pushpull_mac
from pushpull_mac import capacity, harness, mac_cff, mac_rcs

# span fields, by index
NAME, START, END, PARENT, POINT = range(5)

ExitHook = Callable[[tuple, object], None]


class Tracer:
    """Records nested spans on one thread; installs and removes wrappers."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self.counts: Counter = Counter()
        self._stack: List[int] = []
        self._point = -1
        self._restore: List[tuple] = []

    # -- recording ---------------------------------------------------------
    def _enter(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, self._point])
        self._stack.append(idx)
        return idx

    def _exit(self, idx: int) -> None:
        self.spans[idx][END] = time.perf_counter()
        self._stack.pop()

    def traced(self, name: str, fn: Callable, on_exit: Optional[ExitHook] = None) -> Callable:
        def wrapper(*args, **kwargs):
            idx = self._enter(name)
            try:
                result = fn(*args, **kwargs)
                # counting inside the span charges its cost to this layer,
                # not to the caller's self time
                if on_exit is not None:
                    on_exit(args, result)
            finally:
                self._exit(idx)
            return result

        return wrapper

    def patch(self, module, attr: str, name: str, on_exit: Optional[ExitHook] = None) -> None:
        original = getattr(module, attr)  # AttributeError if the lookup name moved
        self._restore.append((module, attr, original))
        setattr(module, attr, self.traced(name, original, on_exit))

    # -- installation --------------------------------------------------------
    def install(self) -> None:
        count = self.counts

        def pull(args, result):
            count["mac_cff.pull.served"] += len(result)

        def push(args, result):
            count["mac_cff.push.contenders"] += int(args[0])
            count["mac_cff.push.winners"] += int(np.count_nonzero(result[2]))

        def rcs_contention(args, result):
            count["mac_rcs.contention.contenders"] += int(args[0])
            count["mac_rcs.contention.winners"] += int(np.count_nonzero(result[2]))

        def rcs_run(args, result):
            count["mac_rcs.frames"] += len(result.frames)

        def reliability(args, result):
            record, klass = args[0], args[1]
            count["metrics.samples"] += len(record.latencies(klass))

        self.patch(mac_cff, "sample_arrival_offsets", "traffic.offsets")
        self.patch(mac_cff, "schedule_pull", "mac_cff.pull", pull)
        self.patch(mac_cff, "uniform_slot_contention", "mac_cff.push", push)
        self.patch(harness, "simulate_cff", "mac_cff.run")
        self.patch(capacity, "simulate_cff", "mac_cff.run")
        self.patch(mac_rcs, "uniform_slot_contention", "mac_rcs.contention", rcs_contention)
        self.patch(harness, "simulate_rcs", "mac_rcs.run", rcs_run)
        self.patch(harness, "reliability_within", "metrics.reliability", reliability)
        self.patch(capacity, "reliability_within", "metrics.reliability", reliability)
        self.patch(harness, "merge_records", "metrics.merge")
        self.patch(harness, "max_class_rate", "capacity.search")
        self.patch(capacity, "max_rate", "capacity.bisect")

        make_evaluator = capacity.make_cff_rate_evaluator
        self._restore.append((capacity, "make_cff_rate_evaluator", make_evaluator))

        def traced_evaluator(*args, **kwargs):
            return self.traced("capacity.probe", make_evaluator(*args, **kwargs))

        capacity.make_cff_rate_evaluator = traced_evaluator

        # the per-point job runner is the only boundary that carries the point id
        run_point = harness._run_point
        self._restore.append((harness, "_run_point", run_point))
        point_span = self.traced("harness.point", run_point)

        def traced_point(job):
            self._point = job.index
            try:
                return point_span(job)
            finally:
                self._point = -1

        harness._run_point = traced_point

    def uninstall(self) -> None:
        while self._restore:
            module, attr, original = self._restore.pop()
            setattr(module, attr, original)

    def run_experiment(self, config, out) -> "harness.RunResult":
        """``pushpull_mac.run_experiment`` inside a ``harness.run`` span."""
        return self.traced("harness.run", pushpull_mac.run_experiment)(config, out, workers=1)

    # -- reporting -----------------------------------------------------------
    def self_times(self) -> List[float]:
        covered = [0.0] * len(self.spans)
        for span in self.spans:
            if span[PARENT] >= 0:
                covered[span[PARENT]] += span[END] - span[START]
        return [s[END] - s[START] - c for s, c in zip(self.spans, covered)]

    def write_spans(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(("name", "start_s", "end_s", "parent", "point"))
            for span in self.spans:
                writer.writerow((span[NAME], repr(span[START]), repr(span[END]), span[PARENT], span[POINT]))

    def layer_metrics(self) -> Dict[str, float]:
        """Per-layer metrics over every recorded span (see README.md)."""
        self_s: Counter = Counter()
        calls: Counter = Counter()
        total_s: Counter = Counter()
        point_s_max = 0.0
        probe_runs = 0
        for span, own in zip(self.spans, self.self_times()):
            name = span[NAME]
            self_s[name] += own
            calls[name] += 1
            total_s[name] += span[END] - span[START]
            if name == "harness.point":
                point_s_max = max(point_s_max, span[END] - span[START])
            elif name == "mac_cff.run" and span[PARENT] >= 0 and self.spans[span[PARENT]][NAME] == "capacity.probe":
                probe_runs += 1
        c = self.counts
        frames = c["mac_rcs.frames"]
        return {
            "traffic.offsets.calls": calls["traffic.offsets"],
            "traffic.offsets.self_s": self_s["traffic.offsets"],
            "mac_cff.runs": calls["mac_cff.run"],
            "mac_cff.self_s": self_s["mac_cff.run"],
            "mac_cff.pull.calls": calls["mac_cff.pull"],
            "mac_cff.pull.served": c["mac_cff.pull.served"],
            "mac_cff.pull.self_s": self_s["mac_cff.pull"],
            "mac_cff.push.rounds": calls["mac_cff.push"],
            "mac_cff.push.contenders": c["mac_cff.push.contenders"],
            "mac_cff.push.success_ratio": _ratio(c["mac_cff.push.winners"], c["mac_cff.push.contenders"]),
            "mac_cff.push.self_s": self_s["mac_cff.push"],
            "mac_rcs.frames": frames,
            "mac_rcs.self_s": self_s["mac_rcs.run"],
            "mac_rcs.us_per_frame": _ratio(total_s["mac_rcs.run"] * 1e6, frames),
            "mac_rcs.contention.rounds": calls["mac_rcs.contention"],
            "mac_rcs.contention.success_ratio": _ratio(
                c["mac_rcs.contention.winners"], c["mac_rcs.contention.contenders"]
            ),
            "mac_rcs.contention.self_s": self_s["mac_rcs.contention"],
            "metrics.samples": c["metrics.samples"],
            "metrics.reliability.calls": calls["metrics.reliability"],
            "metrics.reliability.self_s": self_s["metrics.reliability"],
            "metrics.merge.self_s": self_s["metrics.merge"],
            "capacity.searches": calls["capacity.search"],
            "capacity.probes": calls["capacity.probe"],
            "capacity.probe_runs": probe_runs,
            "capacity.self_s": self_s["capacity.search"] + self_s["capacity.bisect"] + self_s["capacity.probe"],
            "harness.points": calls["harness.point"],
            "harness.self_s": self_s["harness.run"] + self_s["harness.point"],
            "harness.point_s_max": point_s_max,
        }


def _ratio(num: float, den: float) -> float:
    # a layer the workload never reaches reports 0, not NaN (the output is JSON)
    return num / den if den else 0.0

