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
from dataclasses import dataclass, fields
from functools import partial
from itertools import repeat
from pathlib import Path
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from . import __version__
from .capacity import CapacitySpec, max_class_rate
from .core import FrameConfig, PacketClass
from .mac_cff import simulate_cff
from .mac_rcs import RcsPopulation, RcsResult, simulate_rcs
from .metrics import merge_records, reliability_within
from .traffic import SEED_LIMIT, PushTrigger, SemanticQuery, derive_seed

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

def _int(value, path: str, minimum: int, limit: Optional[int] = None) -> int:
    if not isinstance(value, int) or isinstance(value, bool):
        raise ConfigError(f"{path}: expected an integer, got {value!r}")
    if value < minimum:
        raise ConfigError(f"{path}: must be >= {minimum}, got {value}")
    if limit is not None and value >= limit:
        raise ConfigError(f"{path}: must be < {limit}, got {value}")
    return value


def _float(value, path: str, minimum: Optional[float] = None, strict: bool = False) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{path}: expected a number, got {value!r}")
    out = float(value)
    if not math.isfinite(out):
        raise ConfigError(f"{path}: must be finite, got {value!r}")
    if minimum is not None and (out < minimum or (strict and out == minimum)):
        op = ">" if strict else ">="
        raise ConfigError(f"{path}: must be {op} {minimum}, got {value}")
    return out


_positive_int = partial(_int, minimum=1)
_nonnegative_int = partial(_int, minimum=0)
_positive = partial(_float, minimum=0.0, strict=True)
_nonnegative = partial(_float, minimum=0.0)


def _fraction(value, path: str, message: str, open_at_zero: bool = False) -> float:
    # ``message`` names the raw {value} or the parsed {number}
    out = _float(value, path)
    if out < 0.0 or out > 1.0 or (open_at_zero and out == 0.0):
        raise ConfigError(f"{path}: {message.format(value=value, number=out)}")
    return out


_alpha = partial(_fraction, message="alpha out of [0,1]: {value}")
_threshold = partial(_fraction, message="out of [0,1]: {number}")
_reliability = partial(_fraction, message="must be in (0,1], got {number}", open_at_zero=True)


def _interval(value, path: str) -> Tuple[float, float]:
    if not isinstance(value, list) or len(value) != 2:
        raise ConfigError(f"{path}: expected [lo, hi]")
    lo, hi = (_float(x, f"{path}[{i}]") for i, x in enumerate(value))
    if lo > hi:
        raise ConfigError(f"{path}: empty interval, lo={lo} > hi={hi}")
    return lo, hi


def _list_of(parse: Callable) -> Callable:
    def parse_list(value, path: str) -> tuple:
        if not isinstance(value, list) or not value:
            raise ConfigError(f"{path}: expected a non-empty list")
        return tuple(parse(item, f"{path}[{i}]") for i, item in enumerate(value))

    return parse_list


def _output_path(value, path: str) -> Optional[str]:
    if value is not None and not isinstance(value, str):
        raise ConfigError(f"{path}: expected a string path, got {value!r}")
    return value


def _kind_name(value, path: str) -> str:
    return value  # checked before the table is read: it picks the rows


_REQUIRED = object()
_KINDS = ("cff.simulate", "cff.capacity", "rcs.simulate")
_CFF = _KINDS[:2]
_RCS = _KINDS[2:]

# The one declaration of every config key: (dotted path, parser, default or
# _REQUIRED, experiment kinds that take it).  A callable default is computed
# from the values read before it.  validate_config reads keys in this order;
# the ExperimentConfig field is the path's last component.
_SCHEMA = (
    ("protocol", _kind_name, _REQUIRED, _KINDS),
    ("experiment", _kind_name, "simulate", _KINDS),
    ("frame.slots_per_frame", _positive_int, _REQUIRED, _KINDS),
    ("frame.frame_duration_ms", _positive, _REQUIRED, _KINDS),
    ("frame.pull_packet_slots", _positive_int, _REQUIRED, _KINDS),
    ("frame.push_packet_slots", _positive_int, _REQUIRED, _KINDS),
    ("frame.overhead_slots_per_frame", _nonnegative_int, 0, _KINDS),
    ("alphas", _list_of(_alpha), _REQUIRED, _KINDS),
    ("replications", _positive_int, 1, _KINDS),
    ("master_seed", partial(_int, minimum=0, limit=SEED_LIMIT), 0, _KINDS),
    ("output", _output_path, None, _KINDS),
    ("latency_targets_ms", _list_of(_positive), _REQUIRED, _CFF),
    ("horizon_frames", _positive_int, _REQUIRED, _CFF),
    ("traffic.pull_rate_pps", _nonnegative, _REQUIRED, ("cff.simulate",)),
    ("traffic.push_rate_pps", _nonnegative, _REQUIRED, ("cff.simulate",)),
    ("capacity.target_reliability", _reliability, 0.99, ("cff.capacity",)),
    ("capacity.rate_tolerance_pps", _positive, 50.0, ("cff.capacity",)),
    ("capacity.rate_upper_bound_pps", _positive, 10000.0, ("cff.capacity",)),
    ("population.n_pull_devices", _nonnegative_int, _REQUIRED, _RCS),
    ("population.n_push_devices", _nonnegative_int, _REQUIRED, _RCS),
    ("population.query", _interval, _REQUIRED, _RCS),
    ("population.push_threshold", _threshold, _REQUIRED, _RCS),
    ("n_frames", _positive_int, _REQUIRED, _RCS),
    ("slots_per_frame_values", _list_of(_positive_int), lambda values: [values["slots_per_frame"]], _RCS),
)

@dataclass(frozen=True, slots=True)
class ExperimentConfig:
    """Fully validated experiment description (defaults applied).

    Keys the experiment kind does not take are None.
    """

    protocol: str
    experiment: str
    slots_per_frame: int
    frame_duration_ms: float
    pull_packet_slots: int
    push_packet_slots: int
    overhead_slots_per_frame: int
    alphas: Tuple[float, ...]
    latency_targets_ms: Optional[Tuple[float, ...]]
    horizon_frames: Optional[int]
    pull_rate_pps: Optional[float]
    push_rate_pps: Optional[float]
    target_reliability: Optional[float]
    rate_tolerance_pps: Optional[float]
    rate_upper_bound_pps: Optional[float]
    n_pull_devices: Optional[int]
    n_push_devices: Optional[int]
    query: Optional[Tuple[float, float]]
    push_threshold: Optional[float]
    n_frames: Optional[int]
    slots_per_frame_values: Optional[Tuple[int, ...]]
    replications: int
    master_seed: int
    output: Optional[str]

    @property
    def kind(self) -> str:
        return f"{self.protocol}.{self.experiment}"

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
        )

    def to_dict(self) -> dict:
        """Lossless config echo (round-trips through validate_config); an
        unset output is left out."""
        out: Dict[str, object] = {}
        for path, _, _, kinds in _SCHEMA:
            section, _, key = path.rpartition(".")
            value = getattr(self, key)
            if self.kind in kinds and value is not None:
                node = out.setdefault(section, {}) if section else out
                node[key] = list(value) if isinstance(value, tuple) else value
        return out


def _read_object(obj: dict, tree: dict, prefix: str, values: dict) -> None:
    """Check and parse one JSON object against its part of the schema tree."""
    for key in obj:
        if key not in tree:
            raise ConfigError(f"unknown config key: {prefix}{key}")
    for key, node in tree.items():
        rows = node.values() if isinstance(node, dict) else (node,)
        if key not in obj and any(row[2] is _REQUIRED for row in rows):
            raise ConfigError(f"missing config key: {prefix}{key}")
    for key, node in tree.items():
        if isinstance(node, dict):
            section = obj.get(key, {})
            if not isinstance(section, dict):
                raise ConfigError(f"{prefix}{key}: expected an object")
            _read_object(section, node, f"{prefix}{key}.", values)
        else:
            _, parse, default, _ = node
            raw = obj[key] if key in obj else (default(values) if callable(default) else default)
            values[key] = parse(raw, prefix + key)


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
    kind = f"{protocol}.{experiment}"
    if kind not in _KINDS:
        raise ConfigError("the capacity frontier is defined for protocol 'cff' only")

    # top-level key -> its row, or for a section the rows of its keys
    tree: Dict[str, object] = {}
    for row in _SCHEMA:
        if kind in row[3]:
            section, _, key = row[0].rpartition(".")
            (tree.setdefault(section, {}) if section else tree)[key] = row
    values: Dict[str, object] = {}
    _read_object(data, tree, "", values)
    cfg = ExperimentConfig(**{f.name: values.get(f.name) for f in fields(ExperimentConfig)})
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
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"config read error: {p}: {exc}") from exc
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


def _metric_rows(job: _PointJob, values: Iterable[Optional[float]], **extra) -> List[Dict[str, str]]:
    """One row per metric of the job's kind, valued in ``_POINT_KINDS`` order;
    ``extra`` fills or overrides columns, and unset columns stay empty."""
    point = {
        "protocol": job.config.protocol,
        "alpha": job.alpha,
        "S": job.slots_per_frame,
        "L_ms": job.latency_ms,
        "replications": job.config.replications,
        "seed": job.seed,
    } | extra
    rows = []
    for name, value in zip(_POINT_KINDS[job.config.kind][1], values):
        row = point | {"metric_name": name, "metric_value": value}
        rows.append({column: _fmt(row.get(column)) for column in CSV_COLUMNS})
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
                reliability_within(merged, klass, l_ms * 1e-3) if merged.arrived(klass) else None
                for klass in (PacketClass.PULL, PacketClass.PUSH)
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
        [pull_res.rate, push_res.rate],
        pull_rate_pps=pull_res.rate,
        push_rate_pps=push_res.rate,
    )


def _rcs_simulate_point(job: _PointJob) -> List[Dict[str, str]]:
    cfg = job.config
    frame = cfg.frame_config(job.alpha, job.slots_per_frame)
    runs = [
        simulate_rcs(frame, cfg.population(), SemanticQuery(*cfg.query), cfg.n_frames, derive_seed(job.seed, r))
        for r in range(cfg.replications)
    ]
    # replications pool by concatenating their frame counts
    pooled = RcsResult(np.concatenate([run.frames for run in runs]))
    return _metric_rows(job, [pooled.retrieval_accuracy, pooled.push_success_prob])


# experiment kind -> (point function, the metric names its rows carry in order)
_POINT_KINDS = {
    "cff.simulate": (_cff_simulate_point, ("pull_reliability", "push_reliability")),
    "cff.capacity": (_cff_capacity_point, ("max_pull_rate_pps", "max_push_rate_pps")),
    "rcs.simulate": (_rcs_simulate_point, ("retrieval_accuracy", "push_success_prob")),
}


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
    kind = job.config.kind
    try:
        return job.index, _POINT_KINDS[kind][0](job)
    except Exception as exc:
        error = f"{type(exc).__name__}: {exc}"
        targets = job.config.latency_targets_ms if kind == "cff.simulate" else (job.latency_ms,)
        return job.index, [
            row for l_ms in targets for row in _metric_rows(job, repeat(None), L_ms=l_ms, error=error)
        ]


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
        # imported here: it costs every start about 14 ms, and one worker
        # needs no pool; a fork-started pool starts all its workers at once,
        # so more than one per point would only idle
        from concurrent.futures import ProcessPoolExecutor

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
