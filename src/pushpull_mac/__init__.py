"""Slot-level simulator of coexisting pull- and push-based medium access in a
single-cell IoT uplink, with a capacity-search and experiment harness."""

__version__ = "0.1.0"

from .core import FrameConfig, PacketClass, derive_seed
from .mac_cff import MetricsRecord, merge_records, reliability_within, schedule_pull, simulate_cff
from .mac_rcs import RcsPopulation, RcsResult, SemanticQuery, simulate_rcs
from .capacity import CapacitySpec, MaxRateResult, max_class_rate, max_rate
from .harness import ConfigError, ExperimentConfig, RunResult, load_config, run_experiment, validate_config

__all__ = [
    "__version__",
    "FrameConfig",
    "PacketClass",
    "SemanticQuery",
    "derive_seed",
    "schedule_pull",
    "simulate_cff",
    "RcsPopulation",
    "RcsResult",
    "simulate_rcs",
    "MetricsRecord",
    "merge_records",
    "reliability_within",
    "CapacitySpec",
    "MaxRateResult",
    "max_class_rate",
    "max_rate",
    "ConfigError",
    "ExperimentConfig",
    "RunResult",
    "load_config",
    "run_experiment",
    "validate_config",
]
