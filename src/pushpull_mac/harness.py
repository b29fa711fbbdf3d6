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

import contextlib
import csv
import json
import math
import os
import time
from dataclasses import dataclass, field, fields
from functools import partial
from itertools import product, repeat
from pathlib import Path
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple, Union

import numpy as np

from . import __version__
from .capacity import CapacitySpec, max_class_rate, search_spec
from .core import SLOT_LIMIT, FrameConfig, PacketClass
from .mac_cff import simulate_cff
from .mac_rcs import RcsPopulation, RcsResult, _contention_slots, simulate_rcs
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
    try:
        out = float(value)
    except OverflowError:  # an integer past the float range
        out = math.inf
    if not math.isfinite(out):
        raise ConfigError(f"{path}: must be finite, got {value!r}")
    if minimum is not None and (out < minimum or (strict and out == minimum)):
        op = ">" if strict else ">="
        raise ConfigError(f"{path}: must be {op} {minimum}, got {value}")
    return out


_positive_int = partial(_int, minimum=1)
_slots = partial(_int, minimum=1, limit=SLOT_LIMIT)
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
    if value == "":
        raise ConfigError(f"{path}: expected a non-empty path")
    return value


def _kind_name(value, path: str) -> str:
    return value  # checked before the keys are read: it picks them


_REQUIRED = object()
_KINDS = ("cff.simulate", "cff.capacity", "rcs.simulate")
_CFF = _KINDS[:2]
_CFF_SIMULATE = _KINDS[:1]
_CFF_CAPACITY = _KINDS[1:2]
_RCS = _KINDS[2:]


def _key(parse: Callable, default=_REQUIRED, kinds: Tuple[str, ...] = _KINDS, section: str = ""):
    """Declare a config key as an ExperimentConfig field: its parser, its
    default (a parsed value, or _REQUIRED), the experiment kinds that take it
    and the JSON object it sits in ("" for the root).  The key is the field's
    name."""
    return field(metadata={"parse": parse, "default": default, "kinds": kinds, "section": section})


@dataclass(frozen=True, slots=True)
class ExperimentConfig:
    """Fully validated experiment description (defaults applied).

    Each field declares its config key once (``_key``); validate_config
    reads the keys in field order.  Keys the experiment kind does not take
    are None.
    """

    protocol: str = _key(_kind_name)
    experiment: str = _key(_kind_name, "simulate")
    slots_per_frame: int = _key(_slots, section="frame")
    frame_duration_ms: float = _key(_positive, section="frame")
    pull_packet_slots: int = _key(_positive_int, section="frame")
    push_packet_slots: int = _key(_positive_int, section="frame")
    alphas: Tuple[float, ...] = _key(_list_of(_alpha))
    replications: int = _key(_positive_int, 1)
    master_seed: int = _key(partial(_int, minimum=0, limit=SEED_LIMIT), 0)
    output: Optional[str] = _key(_output_path, None)
    latency_targets_ms: Optional[Tuple[float, ...]] = _key(_list_of(_positive), kinds=_CFF)
    horizon_frames: Optional[int] = _key(_positive_int, kinds=_CFF)
    pull_rate_pps: Optional[float] = _key(_nonnegative, kinds=_CFF_SIMULATE, section="traffic")
    push_rate_pps: Optional[float] = _key(_nonnegative, kinds=_CFF_SIMULATE, section="traffic")
    target_reliability: Optional[float] = _key(_reliability, 0.99, kinds=_CFF_CAPACITY, section="capacity")
    rate_tolerance_pps: Optional[float] = _key(_positive, 50.0, kinds=_CFF_CAPACITY, section="capacity")
    rate_upper_bound_pps: Optional[float] = _key(_positive, 10000.0, kinds=_CFF_CAPACITY, section="capacity")
    n_pull_devices: Optional[int] = _key(_nonnegative_int, kinds=_RCS, section="population")
    n_push_devices: Optional[int] = _key(_nonnegative_int, kinds=_RCS, section="population")
    query: Optional[Tuple[float, float]] = _key(_interval, kinds=_RCS, section="population")
    push_threshold: Optional[float] = _key(_threshold, kinds=_RCS, section="population")
    n_frames: Optional[int] = _key(_positive_int, kinds=_RCS)
    slots_per_frame_values: Optional[Tuple[int, ...]] = _key(_list_of(_slots), None, kinds=_RCS)

    @property
    def kind(self) -> str:
        return f"{self.protocol}.{self.experiment}"

    def frame_config(self, alpha: float, slots_per_frame: Optional[int] = None) -> FrameConfig:
        """A point's frame; the sweep passes the point's frame size."""
        return FrameConfig(
            slots_per_frame=self.slots_per_frame if slots_per_frame is None else slots_per_frame,
            frame_duration=self.frame_duration_ms * 1e-3,
            pull_packet_slots=self.pull_packet_slots,
            push_packet_slots=self.push_packet_slots,
            alpha=alpha,
        )

    def capacity_spec(self, latency_ms: float) -> CapacitySpec:
        return CapacitySpec(
            target_latency=latency_ms * 1e-3,
            rate_tolerance=self.rate_tolerance_pps,
            rate_upper_bound=self.rate_upper_bound_pps,
            horizon_frames=self.horizon_frames,
            replications=self.replications,
            target_reliability=self.target_reliability,
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
        for f in fields(self):
            value = getattr(self, f.name)
            if self.kind in f.metadata["kinds"] and value is not None:
                section = f.metadata["section"]
                node = out.setdefault(section, {}) if section else out
                node[f.name] = list(value) if isinstance(value, tuple) else value
        return out


def _read_object(obj: dict, tree: dict, prefix: str, values: dict) -> None:
    """Check and parse one JSON object against its part of the key tree."""
    for key in obj:
        if key not in tree:
            raise ConfigError(f"unknown config key: {prefix}{key}")
    for key, node in tree.items():
        leaves = node.values() if isinstance(node, dict) else (node,)
        if key not in obj and any(leaf.metadata["default"] is _REQUIRED for leaf in leaves):
            raise ConfigError(f"missing config key: {prefix}{key}")
    for key, node in tree.items():
        if isinstance(node, dict):
            section = obj.get(key, {})
            if not isinstance(section, dict):
                raise ConfigError(f"{prefix}{key}: expected an object")
            _read_object(section, node, f"{prefix}{key}.", values)
        else:
            values[key] = node.metadata["parse"](obj[key], prefix + key) if key in obj else node.metadata["default"]


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

    # top-level key -> its field, or for a section the fields of its keys
    tree: Dict[str, object] = {}
    for f in fields(ExperimentConfig):
        if kind in f.metadata["kinds"]:
            section = f.metadata["section"]
            (tree.setdefault(section, {}) if section else tree)[f.name] = f
    values: Dict[str, object] = {}
    _read_object(data, tree, "", values)
    cfg = ExperimentConfig(**{f.name: values.get(f.name) for f in fields(ExperimentConfig)})
    # surface what a point would fail on now, by the library's own checks:
    # geometry (a packet larger than the frame), RCS packet sizes, a search
    # bracket already within tolerance, capped or not
    try:
        for job in enumerate_points(cfg):
            frame = cfg.frame_config(job.alpha, job.slots_per_frame)
            if cfg.protocol == "rcs":
                _contention_slots(frame)
            if job.latency_ms is not None:
                spec = cfg.capacity_spec(job.latency_ms)
                for klass in PacketClass:
                    search_spec(frame, klass, spec)
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
    except ValueError as exc:  # an integer literal past Python's digit limit
        raise ConfigError(f"config parse error: {p}: {exc}") from exc
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
    return derive_seed(master_seed, (index + 1) << 32)


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
    frame = cfg.frame_config(job.alpha, job.slots_per_frame)
    merged = merge_records(
        [
            simulate_cff(frame, cfg.pull_rate_pps, cfg.push_rate_pps, cfg.horizon_frames, derive_seed(job.seed, r))
            for r in range(cfg.replications)
        ]
    )
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
    frame = cfg.frame_config(job.alpha, job.slots_per_frame)
    spec = cfg.capacity_spec(job.latency_ms)
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
    """Sweep points in output order, each with its derived seed: alphas x
    frame sizes x latency targets.  Only capacity points sweep the targets;
    a simulated system reads every target from one record."""
    sizes = config.slots_per_frame_values or (config.slots_per_frame,)
    targets = config.latency_targets_ms if config.experiment == "capacity" else (None,)
    return [
        _PointJob(i, config, alpha, s, l_ms, _point_seed(config.master_seed, i))
        for i, (alpha, s, l_ms) in enumerate(product(config.alphas, sizes, targets))
    ]


def point_label(alpha, slots_per_frame, latency_ms) -> str:
    """How progress lines name a sweep point: its alpha, frame size and, where
    the point has one, latency target."""
    label = f"alpha={alpha}, S={slots_per_frame}"
    return f"{label}, L={latency_ms}ms" if latency_ms else label


def _run_point(job: _PointJob) -> Tuple[int, List[Dict[str, str]], float]:
    """Execute one sweep point: (its index, its rows, its wall seconds);
    failures become rows with the error column set."""
    start = time.monotonic()
    kind = job.config.kind
    try:
        rows = _POINT_KINDS[kind][0](job)
    except Exception as exc:
        error = f"{type(exc).__name__}: {exc}"
        targets = job.config.latency_targets_ms if kind == "cff.simulate" else (job.latency_ms,)
        rows = [row for l_ms in targets for row in _metric_rows(job, repeat(None), L_ms=l_ms, error=error)]
    return job.index, rows, time.monotonic() - start


def _write_csv(path: Path, rows: Sequence[Dict[str, str]]) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=CSV_COLUMNS, lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)


def run_experiment(
    config: ExperimentConfig,
    out: Union[str, os.PathLike, None] = None,
    *,
    workers: int = 1,
    log: Logger = None,
) -> RunResult:
    """Execute the configured sweep; write CSV + metadata sidecar if an output
    path is configured (or given).  Returns all rows either way."""
    if workers < 1:
        raise ValueError("workers must be >= 1")
    if out is not None:  # the output key's rule, before any point runs
        out = _output_path(os.fspath(out), "out")
    start = time.monotonic()
    jobs = enumerate_points(config)
    results: List[Tuple[int, List[Dict[str, str]], float]] = []
    pool = None
    if workers > 1 and len(jobs) > 1:
        # imported here: it costs every start about 14 ms, and one worker
        # needs no pool; a fork-started pool starts all its workers at once,
        # so more than one per point would only idle
        from concurrent.futures import ProcessPoolExecutor

        pool = ProcessPoolExecutor(max_workers=min(workers, len(jobs)))
    with pool or contextlib.nullcontext():
        # either map yields the results in job order
        for job, result in zip(jobs, (pool.map if pool else map)(_run_point, jobs)):
            results.append(result)
            if log:
                point = point_label(job.alpha, job.slots_per_frame, job.latency_ms)
                log(f"point {job.index + 1}/{len(jobs)} done ({point})")
    rows = [row for _, point_rows, _ in results for row in point_rows]
    wall = time.monotonic() - start

    target = out or config.output
    out_path = Path(target) if target else None
    meta_path = None
    if out_path is not None:
        _write_csv(out_path, rows)
        meta_path = out_path.with_suffix(".meta.json")
        meta = {
            "config": config.to_dict(),
            "master_seed": config.master_seed,
            "n_points": len(jobs),
            "n_rows": len(rows),
            "point_wall_s": [seconds for _, _, seconds in results],  # in point order
            "version": __version__,
            "wall_time_s": wall,
        }
        meta_path.write_text(json.dumps(meta, indent=2, sort_keys=True) + "\n", encoding="utf-8")
        if log:
            log(f"wrote {out_path} ({len(rows)} rows) and {meta_path}")
    return RunResult(rows=rows, csv_path=out_path, meta_path=meta_path, wall_time_s=wall)
