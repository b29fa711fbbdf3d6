"""Experiment configuration, sweep execution and machine-readable output.

A JSON config drives one of three experiment kinds:

* ``cff`` + ``simulate``  — fixed-rate CFF runs swept over alpha,
* ``cff`` + ``capacity``  — capacity frontier swept over alpha x latency target,
* ``rcs`` + ``simulate``  — RCS runs swept over alpha x slots-per-frame.

Results go to a fixed-schema CSV (one row per sweep point per metric) plus a
JSON metadata sidecar that echoes the fully defaulted config.  Identical
(config, seed) pairs produce byte-identical CSVs regardless of worker count:
every point is an independently seeded job and rows are sorted before
writing.
"""
from __future__ import annotations

import csv
import json
import math
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from . import __version__
from .capacity import CapacitySpec, max_class_rate
from .core import FrameConfig, PacketClass
from .mac_cff import simulate_cff
from .mac_rcs import simulate_rcs, RcsPopulation
from .metrics import merge_records, reliability_within
from .traffic import SEED_LIMIT, ObservationModel, PushTrigger, SemanticQuery, derive_seed

__all__ = ["ConfigError", "ExperimentConfig", "load_config", "validate_config", "run_experiment", "RunResult"]

CSV_COLUMNS = (
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

Logger = Optional[Callable[[str], None]]


class ConfigError(Exception):
    """Malformed or invalid experiment configuration."""


# ---------------------------------------------------------------------------
# config schema
# ---------------------------------------------------------------------------

def _check_keys(data: dict, allowed: set, required: set, path: str = "") -> None:
    for key in data:
        if key not in allowed:
            raise ConfigError(f"unknown config key: {path}{key}")
    for key in required:
        if key not in data:
            raise ConfigError(f"missing config key: {path}{key}")


def _as_int(value, path: str, minimum: Optional[int] = None, limit: Optional[int] = None) -> int:
    if not isinstance(value, int) or isinstance(value, bool):
        raise ConfigError(f"{path}: expected an integer, got {value!r}")
    if minimum is not None and value < minimum:
        raise ConfigError(f"{path}: must be >= {minimum}, got {value}")
    if limit is not None and value >= limit:
        raise ConfigError(f"{path}: must be < {limit}, got {value}")
    return value


def _as_float(value, path: str, minimum: Optional[float] = None, strict: bool = False) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{path}: expected a number, got {value!r}")
    out = float(value)
    if not math.isfinite(out):
        raise ConfigError(f"{path}: must be finite, got {value!r}")
    if minimum is not None and (out < minimum or (strict and out == minimum)):
        op = ">" if strict else ">="
        raise ConfigError(f"{path}: must be {op} {minimum}, got {value}")
    return out


def _as_alpha(value, path: str) -> float:
    out = _as_float(value, path)
    if not 0.0 <= out <= 1.0:
        raise ConfigError(f"{path}: alpha out of [0,1]: {value}")
    return out


def _as_list(value, path: str):
    if not isinstance(value, list) or not value:
        raise ConfigError(f"{path}: expected a non-empty list")
    return value


@dataclass(frozen=True, slots=True)
class ExperimentConfig:
    """Fully validated experiment description (defaults applied)."""

    protocol: str
    experiment: str
    slots_per_frame: int
    frame_duration_ms: float
    pull_packet_slots: int
    push_packet_slots: int
    overhead_slots_per_frame: int
    alphas: Tuple[float, ...]
    latency_targets_ms: Tuple[float, ...] = ()
    pull_rate_pps: Optional[float] = None
    push_rate_pps: Optional[float] = None
    n_pull_devices: Optional[int] = None
    n_push_devices: Optional[int] = None
    query_lo: Optional[float] = None
    query_hi: Optional[float] = None
    push_threshold: Optional[float] = None
    slots_per_frame_values: Tuple[int, ...] = ()
    target_reliability: float = 0.99
    rate_tolerance_pps: float = 50.0
    rate_upper_bound_pps: float = 10000.0
    horizon_frames: Optional[int] = None
    n_frames: Optional[int] = None
    replications: int = 1
    master_seed: int = 0
    output: Optional[str] = None

    def frame_config(self, alpha: float, slots_per_frame: Optional[int] = None) -> FrameConfig:
        return FrameConfig(
            slots_per_frame=slots_per_frame or self.slots_per_frame,
            frame_duration=self.frame_duration_ms * 1e-3,
            pull_packet_slots=self.pull_packet_slots,
            push_packet_slots=self.push_packet_slots,
            alpha=alpha,
            overhead_slots=self.overhead_slots_per_frame,
        )

    def population(self) -> RcsPopulation:
        return RcsPopulation(
            n_pull_devices=self.n_pull_devices,
            n_push_devices=self.n_push_devices,
            trigger=PushTrigger(self.push_threshold),
            observations=ObservationModel(),
        )

    def query(self) -> SemanticQuery:
        return SemanticQuery(self.query_lo, self.query_hi)

    def to_dict(self) -> dict:
        """Lossless config echo (round-trips through validate_config)."""
        out: Dict[str, object] = {
            "protocol": self.protocol,
            "experiment": self.experiment,
            "frame": {
                "slots_per_frame": self.slots_per_frame,
                "frame_duration_ms": self.frame_duration_ms,
                "pull_packet_slots": self.pull_packet_slots,
                "push_packet_slots": self.push_packet_slots,
                "overhead_slots_per_frame": self.overhead_slots_per_frame,
            },
            "alphas": list(self.alphas),
            "replications": self.replications,
            "master_seed": self.master_seed,
        }
        if self.protocol == "cff":
            out["latency_targets_ms"] = list(self.latency_targets_ms)
            out["horizon_frames"] = self.horizon_frames
            if self.experiment == "simulate":
                out["traffic"] = {
                    "pull_rate_pps": self.pull_rate_pps,
                    "push_rate_pps": self.push_rate_pps,
                }
            else:
                out["capacity"] = {
                    "target_reliability": self.target_reliability,
                    "rate_tolerance_pps": self.rate_tolerance_pps,
                    "rate_upper_bound_pps": self.rate_upper_bound_pps,
                }
        else:
            out["population"] = {
                "n_pull_devices": self.n_pull_devices,
                "n_push_devices": self.n_push_devices,
                "query": [self.query_lo, self.query_hi],
                "push_threshold": self.push_threshold,
            }
            out["n_frames"] = self.n_frames
            out["slots_per_frame_values"] = list(self.slots_per_frame_values)
        if self.output is not None:
            out["output"] = self.output
        return out


_TOP_KEYS_COMMON = {"protocol", "experiment", "frame", "alphas", "replications", "master_seed", "output"}
_FRAME_KEYS = {
    "slots_per_frame",
    "frame_duration_ms",
    "pull_packet_slots",
    "push_packet_slots",
    "overhead_slots_per_frame",
}


def validate_config(data: dict) -> ExperimentConfig:
    """Validate a parsed config dict; unknown keys anywhere are rejected."""
    if not isinstance(data, dict):
        raise ConfigError("config root must be a JSON object")
    protocol = data.get("protocol")
    if protocol not in ("cff", "rcs"):
        raise ConfigError(f"protocol must be 'cff' or 'rcs', got {protocol!r}")
    experiment = data.get("experiment", "simulate")
    if experiment not in ("simulate", "capacity"):
        raise ConfigError(f"experiment must be 'simulate' or 'capacity', got {experiment!r}")
    if experiment == "capacity" and protocol != "cff":
        raise ConfigError("the capacity frontier is defined for protocol 'cff' only")

    if protocol == "cff":
        allowed = _TOP_KEYS_COMMON | {"latency_targets_ms", "horizon_frames"}
        allowed |= {"traffic"} if experiment == "simulate" else {"capacity"}
        required = {"protocol", "frame", "alphas", "horizon_frames", "latency_targets_ms"}
        required |= {"traffic"} if experiment == "simulate" else set()
    else:
        allowed = _TOP_KEYS_COMMON | {"population", "n_frames", "slots_per_frame_values"}
        required = {"protocol", "frame", "alphas", "population", "n_frames"}
    _check_keys(data, allowed, required)

    frame = data["frame"]
    if not isinstance(frame, dict):
        raise ConfigError("frame: expected an object")
    _check_keys(frame, _FRAME_KEYS, _FRAME_KEYS - {"overhead_slots_per_frame"}, "frame.")
    slots_per_frame = _as_int(frame["slots_per_frame"], "frame.slots_per_frame", 1)
    frame_duration_ms = _as_float(frame["frame_duration_ms"], "frame.frame_duration_ms", 0.0, strict=True)
    pull_packet_slots = _as_int(frame["pull_packet_slots"], "frame.pull_packet_slots", 1)
    push_packet_slots = _as_int(frame["push_packet_slots"], "frame.push_packet_slots", 1)
    overhead = _as_int(frame.get("overhead_slots_per_frame", 0), "frame.overhead_slots_per_frame", 0)

    alphas = tuple(
        _as_alpha(a, f"alphas[{i}]") for i, a in enumerate(_as_list(data["alphas"], "alphas"))
    )
    replications = _as_int(data.get("replications", 1), "replications", 1)
    master_seed = _as_int(data.get("master_seed", 0), "master_seed", 0, SEED_LIMIT)
    output = data.get("output")
    if output is not None and not isinstance(output, str):
        raise ConfigError(f"output: expected a string path, got {output!r}")

    kwargs: Dict[str, object] = dict(
        protocol=protocol,
        experiment=experiment,
        slots_per_frame=slots_per_frame,
        frame_duration_ms=frame_duration_ms,
        pull_packet_slots=pull_packet_slots,
        push_packet_slots=push_packet_slots,
        overhead_slots_per_frame=overhead,
        alphas=alphas,
        replications=replications,
        master_seed=master_seed,
        output=output,
    )

    if protocol == "cff":
        kwargs["latency_targets_ms"] = tuple(
            _as_float(x, f"latency_targets_ms[{i}]", 0.0, strict=True)
            for i, x in enumerate(_as_list(data["latency_targets_ms"], "latency_targets_ms"))
        )
        kwargs["horizon_frames"] = _as_int(data["horizon_frames"], "horizon_frames", 1)
        if experiment == "simulate":
            traffic = data["traffic"]
            if not isinstance(traffic, dict):
                raise ConfigError("traffic: expected an object")
            _check_keys(traffic, {"pull_rate_pps", "push_rate_pps"}, {"pull_rate_pps", "push_rate_pps"}, "traffic.")
            kwargs["pull_rate_pps"] = _as_float(traffic["pull_rate_pps"], "traffic.pull_rate_pps", 0.0)
            kwargs["push_rate_pps"] = _as_float(traffic["push_rate_pps"], "traffic.push_rate_pps", 0.0)
        else:
            cap = data.get("capacity", {})
            if not isinstance(cap, dict):
                raise ConfigError("capacity: expected an object")
            _check_keys(
                cap,
                {"target_reliability", "rate_tolerance_pps", "rate_upper_bound_pps"},
                set(),
                "capacity.",
            )
            target_rel = _as_float(cap.get("target_reliability", 0.99), "capacity.target_reliability")
            if not 0.0 < target_rel <= 1.0:
                raise ConfigError(f"capacity.target_reliability: must be in (0,1], got {target_rel}")
            kwargs["target_reliability"] = target_rel
            kwargs["rate_tolerance_pps"] = _as_float(
                cap.get("rate_tolerance_pps", 50.0), "capacity.rate_tolerance_pps", 0.0, strict=True
            )
            kwargs["rate_upper_bound_pps"] = _as_float(
                cap.get("rate_upper_bound_pps", 10000.0), "capacity.rate_upper_bound_pps", 0.0, strict=True
            )
    else:
        pop = data["population"]
        if not isinstance(pop, dict):
            raise ConfigError("population: expected an object")
        pop_keys = {"n_pull_devices", "n_push_devices", "query", "push_threshold"}
        _check_keys(pop, pop_keys, pop_keys, "population.")
        kwargs["n_pull_devices"] = _as_int(pop["n_pull_devices"], "population.n_pull_devices", 0)
        kwargs["n_push_devices"] = _as_int(pop["n_push_devices"], "population.n_push_devices", 0)
        query = pop["query"]
        if not isinstance(query, list) or len(query) != 2:
            raise ConfigError("population.query: expected [lo, hi]")
        lo = _as_float(query[0], "population.query[0]")
        hi = _as_float(query[1], "population.query[1]")
        if lo > hi:
            raise ConfigError(f"population.query: empty interval, lo={lo} > hi={hi}")
        kwargs["query_lo"], kwargs["query_hi"] = lo, hi
        threshold = _as_float(pop["push_threshold"], "population.push_threshold")
        if not 0.0 <= threshold <= 1.0:
            raise ConfigError(f"population.push_threshold: out of [0,1]: {threshold}")
        kwargs["push_threshold"] = threshold
        kwargs["n_frames"] = _as_int(data["n_frames"], "n_frames", 1)
        s_values = data.get("slots_per_frame_values", [slots_per_frame])
        kwargs["slots_per_frame_values"] = tuple(
            _as_int(s, f"slots_per_frame_values[{i}]", 1)
            for i, s in enumerate(_as_list(s_values, "slots_per_frame_values"))
        )

    cfg = ExperimentConfig(**kwargs)
    # surface geometry errors (packet larger than frame, overhead too big, ...) now
    try:
        for alpha in cfg.alphas:
            for s in cfg.slots_per_frame_values or (cfg.slots_per_frame,):
                cfg.frame_config(alpha, s)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    return cfg


def load_config(path) -> ExperimentConfig:
    """Read and validate a JSON experiment config."""
    p = Path(path)
    if not p.is_file():
        raise ConfigError(f"config file not found: {p}")
    try:
        data = json.loads(p.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config parse error: {p}: line {exc.lineno} column {exc.colno}: {exc.msg}") from exc
    return validate_config(data)


# ---------------------------------------------------------------------------
# sweep execution
# ---------------------------------------------------------------------------

@dataclass(frozen=True, slots=True)
class _PointJob:
    index: int
    config: ExperimentConfig
    alpha: float
    slots_per_frame: int
    latency_ms: Optional[float]
    seed: int


@dataclass(slots=True)
class RunResult:
    rows: List[Dict[str, str]]
    csv_path: Optional[Path]
    meta_path: Optional[Path]
    wall_time_s: float


def _point_seed(master_seed: int, index: int) -> int:
    # keeps point streams clear of the replication XOR space (indices < 2**32)
    if not 0 <= master_seed < SEED_LIMIT:
        raise ValueError(f"master_seed must be in [0, 2**64), got {master_seed}")
    return (master_seed ^ ((index + 1) << 32)) & (SEED_LIMIT - 1)


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _base_row(job: _PointJob) -> Dict[str, str]:
    return {
        "protocol": job.config.protocol,
        "alpha": _fmt(job.alpha),
        "S": _fmt(job.slots_per_frame),
        "L_ms": _fmt(job.latency_ms),
        "pull_rate_pps": "",
        "push_rate_pps": "",
        "metric_name": "",
        "metric_value": "",
        "replications": _fmt(job.config.replications),
        "seed": _fmt(job.seed),
        "error": "",
    }


def _metric_rows(job: _PointJob, metrics: Sequence[Tuple[str, Optional[float]]], **extra) -> List[Dict[str, str]]:
    rows = []
    for name, value in metrics:
        row = _base_row(job)
        row.update({k: _fmt(v) for k, v in extra.items()})
        row["metric_name"] = name
        row["metric_value"] = _fmt(value)
        rows.append(row)
    return rows


def _cff_simulate_point(job: _PointJob) -> List[Dict[str, str]]:
    # one simulated system per alpha; every latency target reads the same record
    cfg = job.config
    frame = cfg.frame_config(job.alpha)
    records = []
    for r in range(cfg.replications):
        records.append(
            simulate_cff(
                frame,
                cfg.pull_rate_pps,
                cfg.push_rate_pps,
                cfg.horizon_frames,
                derive_seed(job.seed, r),
            )
        )
    merged = merge_records(records)
    rows: List[Dict[str, str]] = []
    for l_ms in cfg.latency_targets_ms:
        rows += _metric_rows(
            job,
            [
                (name, reliability_within(merged, klass, l_ms * 1e-3) if merged.arrived(klass) else None)
                for klass, name in ((PacketClass.PULL, "pull_reliability"), (PacketClass.PUSH, "push_reliability"))
            ],
            L_ms=l_ms,
            pull_rate_pps=cfg.pull_rate_pps,
            push_rate_pps=cfg.push_rate_pps,
        )
    return rows


def _cff_capacity_point(job: _PointJob) -> List[Dict[str, str]]:
    cfg = job.config
    frame = cfg.frame_config(job.alpha)
    spec = CapacitySpec(
        target_latency=job.latency_ms * 1e-3,
        rate_tolerance=cfg.rate_tolerance_pps,
        rate_upper_bound=cfg.rate_upper_bound_pps,
        horizon_frames=cfg.horizon_frames,
        replications=cfg.replications,
        target_reliability=cfg.target_reliability,
    )
    pull_res = max_class_rate(frame, PacketClass.PULL, spec, job.seed)
    push_res = max_class_rate(frame, PacketClass.PUSH, spec, job.seed)
    return _metric_rows(
        job,
        [("max_pull_rate_pps", pull_res.rate), ("max_push_rate_pps", push_res.rate)],
        pull_rate_pps=pull_res.rate,
        push_rate_pps=push_res.rate,
    )


def _rcs_simulate_point(job: _PointJob) -> List[Dict[str, str]]:
    cfg = job.config
    frame = cfg.frame_config(job.alpha, job.slots_per_frame)
    records = []
    for r in range(cfg.replications):
        res = simulate_rcs(
            frame, cfg.population(), cfg.query(), cfg.n_frames, derive_seed(job.seed, r)
        )
        records.append(res.record)
    merged = merge_records(records)
    return _metric_rows(
        job,
        [
            ("retrieval_accuracy", merged.retrieval_accuracy),
            ("push_success_prob", merged.push_success_rate),
        ],
    )


def _point_metric_slots(config: ExperimentConfig) -> List[Tuple[Optional[float], str]]:
    """(L_ms, metric_name) pairs every point of this experiment must emit."""
    if config.protocol == "rcs":
        return [(None, "retrieval_accuracy"), (None, "push_success_prob")]
    if config.experiment == "capacity":
        return [(None, "max_pull_rate_pps"), (None, "max_push_rate_pps")]
    return [
        (l_ms, name)
        for l_ms in config.latency_targets_ms
        for name in ("pull_reliability", "push_reliability")
    ]


def enumerate_points(config: ExperimentConfig) -> List[_PointJob]:
    """Sweep points in output order; each carries its derived seed."""
    jobs: List[_PointJob] = []
    if config.protocol == "cff":
        s = config.slots_per_frame
        if config.experiment == "capacity":
            combos = [(a, s, l) for a in config.alphas for l in config.latency_targets_ms]
        else:
            # latency targets are reporting thresholds, not separate systems
            combos = [(a, s, None) for a in config.alphas]
    else:
        combos = [(a, s, None) for a in config.alphas for s in config.slots_per_frame_values]
    for i, (alpha, s, l_ms) in enumerate(combos):
        jobs.append(
            _PointJob(
                index=i,
                config=config,
                alpha=alpha,
                slots_per_frame=s,
                latency_ms=l_ms,
                seed=_point_seed(config.master_seed, i),
            )
        )
    return jobs


def _run_point(job: _PointJob) -> Tuple[int, List[Dict[str, str]]]:
    """Execute one sweep point; failures become rows with the error column set."""
    try:
        if job.config.protocol == "rcs":
            return job.index, _rcs_simulate_point(job)
        if job.config.experiment == "capacity":
            return job.index, _cff_capacity_point(job)
        return job.index, _cff_simulate_point(job)
    except Exception as exc:
        rows = []
        for l_ms, name in _point_metric_slots(job.config):
            row = _base_row(job)
            if l_ms is not None:
                row["L_ms"] = _fmt(l_ms)
            row["metric_name"] = name
            row["error"] = f"{type(exc).__name__}: {exc}"
            rows.append(row)
        return job.index, rows


def _write_csv(path: Path, rows: Sequence[Dict[str, str]]) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=CSV_COLUMNS, lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)


def run_experiment(
    config: ExperimentConfig,
    out: Optional[str] = None,
    *,
    workers: int = 1,
    log: Logger = None,
) -> RunResult:
    """Execute the configured sweep; write CSV + metadata sidecar if an output
    path is configured (or given).  Returns all rows either way."""
    if workers < 1:
        raise ValueError("workers must be >= 1")
    start = time.monotonic()
    jobs = enumerate_points(config)
    results: List[Tuple[int, List[Dict[str, str]]]] = []
    if workers == 1 or len(jobs) <= 1:
        for job in jobs:
            results.append(_run_point(job))
            if log:
                log(f"point {job.index + 1}/{len(jobs)} done (alpha={job.alpha})")
    else:
        # a fork-started pool starts all its workers at once; more than one
        # per point would only idle
        with ProcessPoolExecutor(max_workers=min(workers, len(jobs))) as pool:
            for index, rows in pool.map(_run_point, jobs):
                results.append((index, rows))
                if log:
                    log(f"point {index + 1}/{len(jobs)} done")
    results.sort(key=lambda item: item[0])
    rows = [row for _, point_rows in results for row in point_rows]
    wall = time.monotonic() - start

    out_path = Path(out) if out is not None else (Path(config.output) if config.output else None)
    meta_path = None
    if out_path is not None:
        _write_csv(out_path, rows)
        meta_path = out_path.with_suffix(".meta.json")
        meta = {
            "config": config.to_dict(),
            "master_seed": config.master_seed,
            "n_points": len(jobs),
            "n_rows": len(rows),
            "version": __version__,
            "wall_time_s": wall,
        }
        meta_path.write_text(json.dumps(meta, indent=2, sort_keys=True) + "\n", encoding="utf-8")
        if log:
            log(f"wrote {out_path} ({len(rows)} rows) and {meta_path}")
    return RunResult(rows=rows, csv_path=out_path, meta_path=meta_path, wall_time_s=wall)
