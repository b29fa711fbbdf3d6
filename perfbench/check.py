"""Output check for the benchmark workloads.

The simulator is deterministic, so a speed-only change must leave every CSV
byte-identical.  Rows are grouped into sweep points; a point fails when any of
its rows carries an ``error``, breaks an invariant, differs from the reference
digest recorded for the default seed, or differs between runs that must agree
(repeated and traced runs).  ``points_failed_frac`` is failed points over
points attempted.
"""
from __future__ import annotations

import csv
import hashlib
import io
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from pushpull_mac.capacity import service_ceiling
from pushpull_mac.core import PacketClass
from pushpull_mac.harness import ExperimentConfig

PointKey = str
Rows = List[Dict[str, str]]

_COLUMNS = (
    "protocol",
    "alpha",
    "S",
    "L_ms",
    "pull_rate_pps",
    "push_rate_pps",
    "metric_name",
    "metric_value",
    "replications",
    "seed",
    "error",
)
_CAPACITY_CLASSES = {"max_pull_rate_pps": PacketClass.PULL, "max_push_rate_pps": PacketClass.PUSH}
_FRACTIONS = {"pull_reliability", "push_reliability", "retrieval_accuracy", "push_success_prob"}


@dataclass
class CheckResult:
    """Sweep points in output order and the reasons each failed point failed."""

    points: List[PointKey]
    failures: Dict[PointKey, List[str]] = field(default_factory=dict)

    def fail(self, key: PointKey, reason: str) -> None:
        self.failures.setdefault(key, []).append(reason)

    @property
    def attempted(self) -> int:
        return len(self.points)

    @property
    def failed(self) -> int:
        return len(self.failures)


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def expected_points(config: ExperimentConfig) -> Dict[PointKey, List[Tuple[str, str]]]:
    """Point key -> the (L_ms, metric_name) rows it must emit, in sweep order."""
    if config.protocol == "rcs":
        metrics = [("", "retrieval_accuracy"), ("", "push_success_prob")]
        return {_key(repr(a), str(s), ""): metrics for a in config.alphas for s in config.slots_per_frame_values}
    s = str(config.slots_per_frame)
    if config.experiment == "capacity":
        return {
            _key(repr(a), s, repr(l)): [(repr(l), "max_pull_rate_pps"), (repr(l), "max_push_rate_pps")]
            for a in config.alphas
            for l in config.latency_targets_ms
        }
    metrics = [(repr(l), m) for l in config.latency_targets_ms for m in ("pull_reliability", "push_reliability")]
    return {_key(repr(a), s, ""): metrics for a in config.alphas}


def _key(alpha: str, s: str, l_ms: str) -> PointKey:
    return f"alpha={alpha},S={s},L={l_ms}"


def point_of(config: ExperimentConfig, row: Dict[str, str]) -> PointKey:
    # cff simulate points carry every latency target; capacity points are per target
    l_ms = row["L_ms"] if config.experiment == "capacity" else ""
    return _key(row["alpha"], row["S"], l_ms)


def split_points(config: ExperimentConfig, text: str) -> Tuple[List[str], Dict[PointKey, Rows]]:
    reader = csv.DictReader(io.StringIO(text))
    grouped: Dict[PointKey, Rows] = {}
    for row in reader:
        grouped.setdefault(point_of(config, row), []).append(row)
    return list(reader.fieldnames or ()), grouped


def point_digests(config: ExperimentConfig, text: str) -> Dict[PointKey, str]:
    """SHA-256 of each point's CSV lines (in file order)."""
    lines: Dict[PointKey, List[str]] = {}
    body = text.splitlines(keepends=True)[1:]
    for line, row in zip(body, csv.DictReader(io.StringIO(text))):
        lines.setdefault(point_of(config, row), []).append(line)
    return {key: sha256("".join(ls).encode("utf-8")) for key, ls in lines.items()}


def check_csv(
    config: ExperimentConfig,
    data: bytes,
    reference: Optional[dict] = None,
    same_as: Tuple[Tuple[str, bytes], ...] = (),
) -> CheckResult:
    """Check one sweep CSV.

    ``reference`` is the recorded ``{"csv_sha256", "points"}`` entry for this
    config and seed, or None when no digest is recorded for the seed.
    ``same_as`` holds (label, bytes) of runs that must be byte-identical.
    """
    expected = expected_points(config)
    result = CheckResult(points=list(expected))
    text = data.decode("utf-8")
    header, grouped = split_points(config, text)
    if tuple(header) != _COLUMNS:
        for key in expected:
            result.fail(key, f"CSV header {header}")
        return result

    for key in grouped:
        if key not in expected:
            result.points.append(key)
            result.fail(key, "unexpected sweep point")
    for key, slots in expected.items():
        rows = grouped.get(key, [])
        got = [(r["L_ms"], r["metric_name"]) for r in rows]
        if got != slots:
            result.fail(key, f"rows {got}, expected {slots}")
        for row in rows:
            _check_row(config, key, row, result)
    _check_pull_frontier(config, grouped, result)

    mine = point_digests(config, text)
    if reference is not None:
        for key in result.points:
            if mine.get(key) != reference["points"].get(key):
                result.fail(key, "differs from the reference digest")
        if sha256(data) != reference["csv_sha256"] and not result.failures:
            for key in result.points:
                result.fail(key, "CSV digest differs from the reference")
    for label, other in same_as:
        theirs = point_digests(config, other.decode("utf-8"))
        for key in result.points:
            if mine.get(key) != theirs.get(key):
                result.fail(key, f"differs from the {label} run")
    return result


def _check_row(config: ExperimentConfig, key: PointKey, row: Dict[str, str], result: CheckResult) -> None:
    if row["error"]:
        result.fail(key, f"error cell: {row['error']}")
        return
    name = row["metric_name"]
    try:
        value = float(row["metric_value"])
    except ValueError:
        # every workload point has arrivals and push attempts, so no metric is undefined
        result.fail(key, f"{name}: not a number: {row['metric_value']!r}")
        return
    if name in _FRACTIONS and not 0.0 <= value <= 1.0:
        result.fail(key, f"{name}={value} outside [0, 1]")
    elif name in _CAPACITY_CLASSES:
        ceiling = service_ceiling(config.frame_config(float(row["alpha"])), _CAPACITY_CLASSES[name])
        if not 0.0 <= value <= ceiling:
            result.fail(key, f"{name}={value} outside [0, service ceiling {ceiling}]")


def _check_pull_frontier(config: ExperimentConfig, grouped: Dict[PointKey, Rows], result: CheckResult) -> None:
    """Pull capacity is nondecreasing in alpha (per latency target), within
    the search's rate tolerance; a drop fails the higher-alpha point."""
    if config.experiment != "capacity":
        return
    s = str(config.slots_per_frame)
    for l_ms in config.latency_targets_ms:
        previous: Optional[float] = None
        for alpha in sorted(config.alphas):
            key = _key(repr(alpha), s, repr(l_ms))
            rates = [r["metric_value"] for r in grouped.get(key, []) if r["metric_name"] == "max_pull_rate_pps"]
            try:
                rate = float(rates[0])
            except (IndexError, ValueError):
                previous = None
                continue
            if previous is not None and rate < previous - config.rate_tolerance_pps:
                result.fail(key, f"pull frontier drops from {previous} to {rate} pps")
            previous = rate
