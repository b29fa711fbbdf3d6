import concurrent.futures
import csv
import hashlib
import json
import math
import os
import re
import subprocess
import sys
from dataclasses import fields, replace
from pathlib import Path

import pytest

import pushpull_mac.harness as harness
from pushpull_mac import ConfigError, load_config, run_experiment, validate_config
from pushpull_mac.harness import CSV_COLUMNS, enumerate_points, _point_seed

REPO = Path(__file__).resolve().parent.parent


def cff_simulate_cfg(**overrides):
    data = {
        "protocol": "cff",
        "experiment": "simulate",
        "frame": {
            "slots_per_frame": 100,
            "frame_duration_ms": 10.0,
            "pull_packet_slots": 5,
            "push_packet_slots": 1,
        },
        "alphas": [0.3, 0.6],
        "latency_targets_ms": [20.0, 50.0],
        "traffic": {"pull_rate_pps": 300.0, "push_rate_pps": 500.0},
        "horizon_frames": 40,
        "replications": 2,
        "master_seed": 5,
    }
    data.update(overrides)
    return data


def rcs_cfg(**overrides):
    data = {
        "protocol": "rcs",
        "frame": {
            "slots_per_frame": 25,
            "frame_duration_ms": 10.0,
            "pull_packet_slots": 1,
            "push_packet_slots": 1,
        },
        "alphas": [0.0, 0.5],
        "slots_per_frame_values": [25, 50],
        "population": {
            "n_pull_devices": 4,
            "n_push_devices": 6,
            "query": [0.2, 0.8],
            "push_threshold": 0.5,
        },
        "n_frames": 400,
        "master_seed": 9,
    }
    data.update(overrides)
    return data


class TestValidateConfig:
    def test_paper_setup_accepted(self):
        cfg = validate_config(cff_simulate_cfg())
        assert cfg.slots_per_frame == 100
        assert cfg.pull_packet_slots == 5
        assert cfg.push_packet_slots == 1
        assert cfg.frame_duration_ms == 10.0

    def test_round_trips_through_echo(self):
        cfg = validate_config(cff_simulate_cfg())
        assert validate_config(cfg.to_dict()) == cfg
        rcs = validate_config(rcs_cfg())
        assert validate_config(rcs.to_dict()) == rcs

    def test_alpha_out_of_range(self):
        with pytest.raises(ConfigError, match=r"alpha out of \[0,1\]"):
            validate_config(cff_simulate_cfg(alphas=[1.5]))

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown config key: alpha_"):
            validate_config(cff_simulate_cfg(alpha_=[0.5]))

    def test_unknown_nested_key_rejected(self):
        data = cff_simulate_cfg()
        data["frame"]["slot_per_frame"] = 10
        with pytest.raises(ConfigError, match="unknown config key: frame.slot_per_frame"):
            validate_config(data)

    def test_protocol_specific_keys_enforced(self):
        with pytest.raises(ConfigError, match="unknown config key: traffic"):
            validate_config(rcs_cfg(traffic={"pull_rate_pps": 1.0, "push_rate_pps": 1.0}))
        with pytest.raises(ConfigError, match="capacity frontier"):
            validate_config(rcs_cfg(experiment="capacity"))
        with pytest.raises(ConfigError, match="missing config key: traffic"):
            data = cff_simulate_cfg()
            del data["traffic"]
            validate_config(data)
        with pytest.raises(ConfigError, match="missing config key: n_frames"):
            data = rcs_cfg()
            del data["n_frames"]
            validate_config(data)

    def test_type_errors(self):
        with pytest.raises(ConfigError, match="horizon_frames"):
            validate_config(cff_simulate_cfg(horizon_frames="many"))
        with pytest.raises(ConfigError, match="horizon_frames"):
            validate_config(cff_simulate_cfg(horizon_frames=True))
        with pytest.raises(ConfigError, match="traffic.pull_rate_pps"):
            validate_config(cff_simulate_cfg(traffic={"pull_rate_pps": -1, "push_rate_pps": 0}))
        with pytest.raises(ConfigError, match="population.query"):
            validate_config(rcs_cfg(population={
                "n_pull_devices": 1, "n_push_devices": 1, "query": [0.9, 0.1], "push_threshold": 0.5,
            }))
        with pytest.raises(ConfigError, match="push_threshold"):
            validate_config(rcs_cfg(population={
                "n_pull_devices": 1, "n_push_devices": 1, "query": [0.1, 0.9], "push_threshold": 1.5,
            }))

    def test_geometry_errors_surfaced(self):
        data = cff_simulate_cfg()
        data["frame"]["pull_packet_slots"] = 500
        with pytest.raises(ConfigError, match="pull_packet_slots"):
            validate_config(data)

    def test_overhead_key_refused(self, tmp_path):
        # every slot of a frame carries data; there is no overhead region
        data = cff_simulate_cfg()
        data["frame"]["overhead_slots_per_frame"] = 0
        path = tmp_path / "overhead.json"
        path.write_text(json.dumps(data))
        with pytest.raises(ConfigError) as info:
            load_config(path)
        assert str(info.value) == "unknown config key: frame.overhead_slots_per_frame"

    def test_defaults_applied(self):
        cfg = validate_config(rcs_cfg())
        assert cfg.replications == 1
        # capacity configs take no traffic block; search knobs default
        data = cff_simulate_cfg(experiment="capacity")
        del data["traffic"]
        cfg2 = validate_config(data)
        assert cfg2.target_reliability == 0.99
        assert cfg2.rate_tolerance_pps == 50.0
        assert cfg2.rate_upper_bound_pps == 10000.0
        with pytest.raises(ConfigError, match="unknown config key: traffic"):
            validate_config(cff_simulate_cfg(experiment="capacity"))

    def test_readme_documents_every_key(self):
        readme = (REPO / "README.md").read_text(encoding="utf-8")
        block = readme.split("## Config schema (JSON)")[1].split("```jsonc")[1].split("```")[0]
        for f in fields(harness.ExperimentConfig):
            for key in filter(None, (f.metadata["section"], f.name)):
                assert f'"{key}":' in block, f"README config block lacks {key}"


def capacity_cfg():
    data = cff_simulate_cfg(
        experiment="capacity",
        capacity={"target_reliability": 0.99, "rate_tolerance_pps": 50.0, "rate_upper_bound_pps": 10000.0},
    )
    del data["traffic"]
    return data


_BASES = {"cff": cff_simulate_cfg, "capacity": capacity_cfg, "rcs": rcs_cfg}
_DELETE = object()
_TRAFFIC = {"pull_rate_pps": 1.0, "push_rate_pps": 1.0}

# (base config, dotted key or None for the whole root, new value or _DELETE,
# the exact ConfigError message); each row breaks exactly one rule
SINGLE_FAULTS = [
    ("cff", None, [], "config root must be a JSON object"),
    ("cff", "protocol", "tdma", "protocol must be 'cff' or 'rcs', got 'tdma'"),
    ("cff", "protocol", _DELETE, "protocol must be 'cff' or 'rcs', got None"),
    ("cff", "experiment", "sweep", "experiment must be 'simulate' or 'capacity', got 'sweep'"),
    ("rcs", "experiment", "capacity", "the capacity frontier is defined for protocol 'cff' only"),
    ("cff", "alpha_", [0.5], "unknown config key: alpha_"),
    ("cff", "n_frames", 10, "unknown config key: n_frames"),
    ("cff", "capacity", {}, "unknown config key: capacity"),
    ("capacity", "traffic", _TRAFFIC, "unknown config key: traffic"),
    ("rcs", "traffic", _TRAFFIC, "unknown config key: traffic"),
    ("rcs", "horizon_frames", 10, "unknown config key: horizon_frames"),
    ("cff", "frame", _DELETE, "missing config key: frame"),
    ("cff", "alphas", _DELETE, "missing config key: alphas"),
    ("cff", "latency_targets_ms", _DELETE, "missing config key: latency_targets_ms"),
    ("capacity", "horizon_frames", _DELETE, "missing config key: horizon_frames"),
    ("cff", "traffic", _DELETE, "missing config key: traffic"),
    ("rcs", "population", _DELETE, "missing config key: population"),
    ("rcs", "n_frames", _DELETE, "missing config key: n_frames"),
    ("cff", "frame", [], "frame: expected an object"),
    ("cff", "frame.slot_per_frame", 10, "unknown config key: frame.slot_per_frame"),
    ("cff", "frame.slots_per_frame", _DELETE, "missing config key: frame.slots_per_frame"),
    ("rcs", "frame.frame_duration_ms", _DELETE, "missing config key: frame.frame_duration_ms"),
    ("cff", "frame.pull_packet_slots", _DELETE, "missing config key: frame.pull_packet_slots"),
    ("cff", "frame.push_packet_slots", _DELETE, "missing config key: frame.push_packet_slots"),
    ("cff", "frame.slots_per_frame", "100", "frame.slots_per_frame: expected an integer, got '100'"),
    ("cff", "frame.slots_per_frame", 100.0, "frame.slots_per_frame: expected an integer, got 100.0"),
    ("cff", "frame.slots_per_frame", 0, "frame.slots_per_frame: must be >= 1, got 0"),
    ("cff", "frame.frame_duration_ms", 0, "frame.frame_duration_ms: must be > 0.0, got 0"),
    ("cff", "frame.frame_duration_ms", True, "frame.frame_duration_ms: expected a number, got True"),
    ("cff", "frame.frame_duration_ms", math.nan, "frame.frame_duration_ms: must be finite, got nan"),
    ("cff", "frame.pull_packet_slots", 0, "frame.pull_packet_slots: must be >= 1, got 0"),
    ("rcs", "frame.push_packet_slots", 0, "frame.push_packet_slots: must be >= 1, got 0"),
    ("cff", "frame.overhead_slots_per_frame", 0, "unknown config key: frame.overhead_slots_per_frame"),
    ("cff", "frame.pull_packet_slots", 500, "pull_packet_slots must be in [1, 100], got 500"),
    ("rcs", "frame.overhead_slots_per_frame", 10, "unknown config key: frame.overhead_slots_per_frame"),
    ("rcs", "slots_per_frame_values", [50, 0.5], "slots_per_frame_values[1]: expected an integer, got 0.5"),
    ("cff", "alphas", "0.5", "alphas: expected a non-empty list"),
    ("rcs", "alphas", [], "alphas: expected a non-empty list"),
    ("cff", "alphas", [0.3, 1.5], "alphas[1]: alpha out of [0,1]: 1.5"),
    ("cff", "alphas", [2], "alphas[0]: alpha out of [0,1]: 2"),
    ("rcs", "alphas", [-0.1], "alphas[0]: alpha out of [0,1]: -0.1"),
    ("cff", "alphas", ["a"], "alphas[0]: expected a number, got 'a'"),
    ("cff", "replications", 0, "replications: must be >= 1, got 0"),
    ("rcs", "replications", "2", "replications: expected an integer, got '2'"),
    ("cff", "master_seed", -1, "master_seed: must be >= 0, got -1"),
    ("rcs", "master_seed", 2**64 + 5, "master_seed: must be < 18446744073709551616, got 18446744073709551621"),
    ("cff", "output", 5, "output: expected a string path, got 5"),
    ("rcs", "output", ["a.csv"], "output: expected a string path, got ['a.csv']"),
    ("cff", "latency_targets_ms", [], "latency_targets_ms: expected a non-empty list"),
    ("cff", "latency_targets_ms", [20.0, -5], "latency_targets_ms[1]: must be > 0.0, got -5"),
    ("capacity", "latency_targets_ms", [math.inf], "latency_targets_ms[0]: must be finite, got inf"),
    ("cff", "horizon_frames", "many", "horizon_frames: expected an integer, got 'many'"),
    ("cff", "horizon_frames", True, "horizon_frames: expected an integer, got True"),
    ("capacity", "horizon_frames", 0, "horizon_frames: must be >= 1, got 0"),
    ("cff", "traffic", [], "traffic: expected an object"),
    ("cff", "traffic.burst", 1, "unknown config key: traffic.burst"),
    ("cff", "traffic.pull_rate_pps", _DELETE, "missing config key: traffic.pull_rate_pps"),
    ("cff", "traffic.push_rate_pps", _DELETE, "missing config key: traffic.push_rate_pps"),
    ("cff", "traffic.pull_rate_pps", -1, "traffic.pull_rate_pps: must be >= 0.0, got -1"),
    ("cff", "traffic.push_rate_pps", "fast", "traffic.push_rate_pps: expected a number, got 'fast'"),
    ("capacity", "capacity", [], "capacity: expected an object"),
    ("capacity", "capacity.target", 0.9, "unknown config key: capacity.target"),
    ("capacity", "capacity.target_reliability", 1.5, "capacity.target_reliability: must be in (0,1], got 1.5"),
    ("capacity", "capacity.target_reliability", 0, "capacity.target_reliability: must be in (0,1], got 0.0"),
    ("capacity", "capacity.target_reliability", "high", "capacity.target_reliability: expected a number, got 'high'"),
    ("capacity", "capacity.rate_tolerance_pps", 0, "capacity.rate_tolerance_pps: must be > 0.0, got 0"),
    ("capacity", "capacity.rate_upper_bound_pps", -1.0, "capacity.rate_upper_bound_pps: must be > 0.0, got -1.0"),
    ("rcs", "population", [], "population: expected an object"),
    ("rcs", "population.size", 3, "unknown config key: population.size"),
    ("rcs", "population.n_pull_devices", _DELETE, "missing config key: population.n_pull_devices"),
    ("rcs", "population.n_push_devices", _DELETE, "missing config key: population.n_push_devices"),
    ("rcs", "population.query", _DELETE, "missing config key: population.query"),
    ("rcs", "population.push_threshold", _DELETE, "missing config key: population.push_threshold"),
    ("rcs", "population.n_pull_devices", -1, "population.n_pull_devices: must be >= 0, got -1"),
    ("rcs", "population.n_push_devices", 1.5, "population.n_push_devices: expected an integer, got 1.5"),
    ("rcs", "population.query", [0.2], "population.query: expected [lo, hi]"),
    ("rcs", "population.query", "0.2,0.8", "population.query: expected [lo, hi]"),
    ("rcs", "population.query", ["a", 0.8], "population.query[0]: expected a number, got 'a'"),
    ("rcs", "population.query", [0.2, math.nan], "population.query[1]: must be finite, got nan"),
    ("rcs", "population.query", [0.9, 0.1], "population.query: empty interval, lo=0.9 > hi=0.1"),
    ("rcs", "population.query", [1, 0], "population.query: empty interval, lo=1.0 > hi=0.0"),
    ("rcs", "population.push_threshold", 1.5, "population.push_threshold: out of [0,1]: 1.5"),
    ("rcs", "population.push_threshold", -1, "population.push_threshold: out of [0,1]: -1.0"),
    ("rcs", "n_frames", 0, "n_frames: must be >= 1, got 0"),
    ("rcs", "slots_per_frame_values", [], "slots_per_frame_values: expected a non-empty list"),
    ("rcs", "slots_per_frame_values", [25, 0], "slots_per_frame_values[1]: must be >= 1, got 0"),
    pytest.param(  # past the float range; the id spares the 401 digits
        "cff", "traffic.pull_rate_pps", 10**400, f"traffic.pull_rate_pps: must be finite, got {10**400}",
        id="cff-traffic.pull_rate_pps-10**400",
    ),
    ("cff", "frame.slots_per_frame", 2**32, "frame.slots_per_frame: must be < 4294967296, got 4294967296"),
    ("rcs", "slots_per_frame_values", [50, 2**32], "slots_per_frame_values[1]: must be < 4294967296, got 4294967296"),
    ("rcs", "frame.pull_packet_slots", 2, "RCS shared contention requires equal pull/push packet sizes, got 2 and 1"),
    ("capacity", "capacity.rate_tolerance_pps", 20000.0, "rate_upper_bound 10000.0 must exceed rate_tolerance 20000.0"),
    (  # the pull ceiling at alpha 0.3 (600 pps) caps a bracket that is wide
        "capacity", "capacity.rate_tolerance_pps", 700.0,
        "pull search at alpha 0.3, capped at the service ceiling: rate_upper_bound 600.0 must exceed rate_tolerance 700.0",
    ),
    ("cff", "output", "", "output: expected a non-empty path"),  # would write nothing
]


class TestConfigMessages:
    @pytest.mark.parametrize("base, key, value, message", SINGLE_FAULTS)
    def test_single_fault_message(self, base, key, value, message):
        data = _BASES[base]()
        if key is None:
            data = value
        else:
            *parents, leaf = key.split(".")
            node = data
            for name in parents:
                node = node[name]
            if value is _DELETE:
                del node[leaf]
            else:
                node[leaf] = value
        with pytest.raises(ConfigError) as info:
            validate_config(data)
        assert str(info.value) == message

    def test_base_configs_are_valid(self):
        for build in _BASES.values():
            validate_config(build())

    def test_missing_keys_named_in_a_fixed_order(self, tmp_path):
        # several keys missing at once: the one named must not depend on
        # string hashing, which PYTHONHASHSEED varies between processes
        data = json.loads((REPO / "configs" / "rcs_single.json").read_text())
        data["population"] = {}
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(data))
        script = (
            "import sys\n"
            "from pushpull_mac import ConfigError, load_config\n"
            "try:\n"
            "    load_config(sys.argv[1])\n"
            "except ConfigError as exc:\n"
            "    print(exc)\n"
        )
        env = {**os.environ, "PYTHONPATH": str(REPO / "src")}
        outputs = [
            subprocess.run(
                [sys.executable, "-c", script, str(path)],
                env={**env, "PYTHONHASHSEED": seed},
                capture_output=True,
                text=True,
                check=True,
                timeout=60,
            ).stdout
            for seed in ("1", "2")
        ]
        assert outputs == ["missing config key: population.n_pull_devices\n"] * 2


SHIPPED_CONFIGS = sorted(json.loads((Path(__file__).parent / "config_echo.json").read_text()).items())


class TestConfigEcho:
    @pytest.mark.parametrize("name, echo", SHIPPED_CONFIGS, ids=[name for name, _ in SHIPPED_CONFIGS])
    def test_shipped_config_echo_recorded(self, name, echo):
        # the meta sidecar writes this echo; sorted JSON text tells 10 from 10.0
        cfg = load_config(REPO / name)
        assert json.dumps(cfg.to_dict(), sort_keys=True) == json.dumps(echo, sort_keys=True)
        assert validate_config(cfg.to_dict()) == cfg

    def test_every_shipped_config_recorded(self):
        shipped = sorted(REPO.glob("configs/*.json")) + sorted(REPO.glob("perfbench/workloads/*.json"))
        assert [str(p.relative_to(REPO)) for p in shipped] == [name for name, _ in SHIPPED_CONFIGS]


class TestLoadConfig:
    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="not found"):
            load_config(tmp_path / "nope.json")

    def test_parse_error_has_location(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text('{"protocol": "cff",\n  broken\n}')
        with pytest.raises(ConfigError, match="line 2"):
            load_config(p)

    def test_integer_past_the_digit_limit(self, tmp_path):
        p = tmp_path / "long.json"
        p.write_text(json.dumps(cff_simulate_cfg()).replace('"horizon_frames": 40', '"horizon_frames": ' + "1" * 5000))
        with pytest.raises(ConfigError, match=f"config parse error: {re.escape(str(p))}: .*digits"):
            load_config(p)

    def test_not_utf8_names_the_path(self, tmp_path):
        p = tmp_path / "utf16.json"
        p.write_bytes(json.dumps(cff_simulate_cfg()).encode("utf-16"))
        with pytest.raises(ConfigError, match=f"config read error: {re.escape(str(p))}: .*can't decode"):
            load_config(p)

    def test_loads_valid_file(self, tmp_path):
        p = tmp_path / "ok.json"
        p.write_text(json.dumps(cff_simulate_cfg()))
        assert load_config(p).protocol == "cff"

    def test_shipped_example_configs_are_valid(self):
        configs_dir = Path(__file__).resolve().parent.parent / "configs"
        for name in ("cff_frontier.json", "cff_single.json", "rcs_sweep.json", "rcs_single.json"):
            cfg = load_config(configs_dir / name)
            assert cfg.protocol in ("cff", "rcs")


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


class TestRunExperiment:
    def test_cff_simulate_rows(self, tmp_path):
        cfg = validate_config(cff_simulate_cfg())
        out = tmp_path / "cff.csv"
        result = run_experiment(cfg, out=str(out))
        rows = read_csv(out)
        # 2 alphas x 2 latency targets x 2 metrics
        assert len(rows) == 8
        assert list(rows[0].keys()) == list(CSV_COLUMNS)
        assert [r["metric_name"] for r in rows[:2]] == ["pull_reliability", "push_reliability"]
        assert rows[0]["alpha"] == "0.3" and rows[0]["L_ms"] == "20.0"
        assert rows[2]["L_ms"] == "50.0"
        assert rows[4]["alpha"] == "0.6"
        for r in rows:
            assert r["error"] == ""
            assert 0.0 <= float(r["metric_value"]) <= 1.0
            assert r["pull_rate_pps"] == "300.0"
            assert r["replications"] == "2"

    def test_rcs_rows(self, tmp_path):
        cfg = validate_config(rcs_cfg())
        out = tmp_path / "rcs.csv"
        run_experiment(cfg, out=str(out))
        rows = read_csv(out)
        # 2 alphas x 2 frame sizes x 2 metrics
        assert len(rows) == 8
        assert rows[0]["S"] == "25" and rows[1]["S"] == "25"
        assert rows[2]["S"] == "50"
        assert {r["metric_name"] for r in rows} == {"retrieval_accuracy", "push_success_prob"}
        assert all(r["L_ms"] == "" for r in rows)

    def test_rcs_absent_push_metric(self, tmp_path):
        data = rcs_cfg()
        data["population"]["push_threshold"] = 1.0
        cfg = validate_config(data)
        rows = run_experiment(cfg, out=str(tmp_path / "r.csv")).rows
        push_rows = [r for r in rows if r["metric_name"] == "push_success_prob"]
        assert push_rows and all(r["metric_value"] == "" for r in push_rows)
        assert all(r["error"] == "" for r in push_rows)

    def test_capacity_rows(self, tmp_path):
        data = cff_simulate_cfg(
            experiment="capacity",
            alphas=[0.0, 1.0],
            latency_targets_ms=[20.0],
            horizon_frames=30,
            replications=1,
            capacity={"rate_tolerance_pps": 500.0, "rate_upper_bound_pps": 2000.0},
        )
        del data["traffic"]
        cfg = validate_config(data)
        rows = run_experiment(cfg, out=str(tmp_path / "cap.csv")).rows
        assert len(rows) == 4
        by_alpha = {r["alpha"]: r for r in rows if r["metric_name"] == "max_pull_rate_pps"}
        assert float(by_alpha["0.0"]["metric_value"]) == 0.0
        # both capacities echoed in the rate columns of every frontier row
        for r in rows:
            assert r["pull_rate_pps"] != "" and r["push_rate_pps"] != ""

    def test_metadata_sidecar(self, tmp_path):
        cfg = validate_config(rcs_cfg())
        out = tmp_path / "rcs.csv"
        result = run_experiment(cfg, out=str(out))
        meta = json.loads(result.meta_path.read_text())
        assert result.meta_path == tmp_path / "rcs.meta.json"
        assert meta["config"] == cfg.to_dict()
        assert meta["master_seed"] == 9
        assert meta["n_rows"] == 8
        assert meta["n_points"] == 4
        assert "version" in meta and "wall_time_s" in meta
        # each point's wall seconds, in point order, within the run's
        times = meta["point_wall_s"]
        assert len(times) == 4 and all(t >= 0.0 for t in times) and sum(times) <= meta["wall_time_s"]
        # the echo is lossless: reloading it reproduces the same run
        assert validate_config(meta["config"]) == cfg
        # a worker pool times each point in its worker, and the CSV stays the same
        pooled = run_experiment(cfg, out=str(tmp_path / "pooled.csv"), workers=2)
        times = json.loads(pooled.meta_path.read_text())["point_wall_s"]
        assert len(times) == 4 and all(0.0 <= t <= pooled.wall_time_s for t in times)
        assert pooled.csv_path.read_bytes() == out.read_bytes()

    def test_byte_identical_reruns(self, tmp_path):
        cfg = validate_config(rcs_cfg())
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        run_experiment(cfg, out=str(a))
        run_experiment(cfg, out=str(b))
        assert a.read_bytes() == b.read_bytes()

    def test_byte_identical_across_worker_pools(self, tmp_path):
        cfg = validate_config(rcs_cfg())
        a, b = tmp_path / "w1.csv", tmp_path / "w2.csv"
        run_experiment(cfg, out=str(a), workers=1)
        run_experiment(cfg, out=str(b), workers=2)
        assert a.read_bytes() == b.read_bytes()

    def test_pool_capped_at_point_count(self, tmp_path, monkeypatch):
        # a fake pool records its size and maps in-process, so no process starts
        sizes = []

        class InProcessPool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, jobs):
                return map(fn, jobs)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InProcessPool)
        cfg = validate_config(rcs_cfg())
        a, b = tmp_path / "w1.csv", tmp_path / "w500.csv"
        run_experiment(cfg, out=str(a), workers=1)
        run_experiment(cfg, out=str(b), workers=500)
        assert sizes == [len(enumerate_points(cfg))] == [4]
        assert a.read_bytes() == b.read_bytes()

    def test_import_loads_no_process_pool(self):
        # the pool module costs every start about 14 ms; only workers > 1 needs it
        script = "import sys, pushpull_mac\nprint('concurrent.futures.process' in sys.modules)\n"
        env = {**os.environ, "PYTHONPATH": str(REPO / "src")}
        out = subprocess.run(
            [sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True, timeout=60
        ).stdout
        assert out == "False\n"

    def test_seed_changes_bytes(self, tmp_path):
        a = run_experiment(validate_config(rcs_cfg()), out=str(tmp_path / "a.csv"))
        b = run_experiment(validate_config(rcs_cfg(master_seed=10)), out=str(tmp_path / "b.csv"))
        assert (tmp_path / "a.csv").read_bytes() != (tmp_path / "b.csv").read_bytes()

    def test_point_failures_emit_error_rows(self, tmp_path, monkeypatch):
        cfg = validate_config(rcs_cfg())

        def explode(frame, population, query, n_frames, seed):
            if frame.alpha == 0.5:
                raise RuntimeError("injected fault")
            return real_simulate(frame, population, query, n_frames, seed)

        real_simulate = harness.simulate_rcs
        monkeypatch.setattr(harness, "simulate_rcs", explode)
        rows = run_experiment(cfg, out=str(tmp_path / "f.csv")).rows
        assert len(rows) == 8  # failures still emit rows
        bad = [r for r in rows if r["error"]]
        good = [r for r in rows if not r["error"]]
        assert len(bad) == 4 and all("injected fault" in r["error"] for r in bad)
        assert all(r["metric_value"] == "" for r in bad)
        assert all(r["metric_value"] != "" or r["metric_name"] == "push_success_prob" for r in good)

    def test_no_output_path_returns_rows_only(self):
        cfg = validate_config(rcs_cfg())
        result = run_experiment(cfg)
        assert result.csv_path is None
        assert len(result.rows) == 8

    def test_empty_out_refused_before_any_point(self, tmp_path, monkeypatch):
        # the output key's rule, checked before the sweep: no point runs
        cfg = validate_config(rcs_cfg())
        lines = []
        monkeypatch.setattr(harness, "_run_point", lambda job: pytest.fail("a point ran"))
        with pytest.raises(ConfigError, match="^out: expected a non-empty path$"):
            run_experiment(cfg, out="", log=lines.append)
        assert lines == []
        monkeypatch.undo()
        # a non-empty str or Path still writes
        for out in (str(tmp_path / "a.csv"), tmp_path / "b.csv"):
            assert run_experiment(cfg, out=out).csv_path == Path(out)
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()

    def test_progress_log_names_each_point(self, tmp_path):
        lines = []
        run_experiment(validate_config(rcs_cfg(alphas=[0.5])), out=str(tmp_path / "r.csv"), log=lines.append)
        assert lines[:2] == ["point 1/2 done (alpha=0.5, S=25)", "point 2/2 done (alpha=0.5, S=50)"]
        lines = []
        run_experiment(validate_config(capacity_cfg()), log=lines.append)
        assert lines[:2] == ["point 1/4 done (alpha=0.3, S=100, L=20.0ms)", "point 2/4 done (alpha=0.3, S=100, L=50.0ms)"]

    def test_rcs_default_frame_size(self):
        # without slots_per_frame_values an RCS sweep runs the frame's own size
        data = rcs_cfg()
        del data["slots_per_frame_values"]
        cfg = validate_config(data)
        assert cfg.slots_per_frame_values is None
        assert "slots_per_frame_values" not in cfg.to_dict()
        assert validate_config(cfg.to_dict()) == cfg
        rows = run_experiment(cfg).rows
        assert [(r["alpha"], r["S"]) for r in rows] == [("0.0", "25")] * 2 + [("0.5", "25")] * 2

    def test_seeds_beyond_64_bits_rejected(self):
        # seed derivation is 64-bit, so 5 + 2**64 would alias seed 5
        with pytest.raises(ConfigError, match="master_seed: must be < 18446744073709551616"):
            validate_config(rcs_cfg(master_seed=5 + 2**64))
        assert validate_config(rcs_cfg(master_seed=2**64 - 1)).master_seed == 2**64 - 1
        with pytest.raises(ValueError):
            _point_seed(2**64, 0)
        with pytest.raises(ValueError):
            enumerate_points(replace(validate_config(rcs_cfg()), master_seed=5 + 2**64))

    def test_points_are_alphas_by_frame_sizes_by_targets(self):
        # one rule for every kind: only capacity sweeps the latency targets
        points = {
            "cff": [(0.3, 100, None), (0.6, 100, None)],
            "capacity": [(0.3, 100, 20.0), (0.3, 100, 50.0), (0.6, 100, 20.0), (0.6, 100, 50.0)],
            "rcs": [(0.0, 25, None), (0.0, 50, None), (0.5, 25, None), (0.5, 50, None)],
        }
        for base, want in points.items():
            jobs = enumerate_points(validate_config(_BASES[base]()))
            assert [(j.alpha, j.slots_per_frame, j.latency_ms) for j in jobs] == want, base
            assert [j.index for j in jobs] == list(range(len(want)))

    def test_point_seeds_distinct(self):
        cfg = validate_config(rcs_cfg())
        jobs = enumerate_points(cfg)
        seeds = [j.seed for j in jobs]
        assert len(set(seeds)) == len(seeds)
        assert seeds == [_point_seed(9, i) for i in range(len(jobs))]


# Sweeps whose points pool three replications: the CFF rows read records
# merged by ``merge_records``, the RCS rows frame counts pooled across runs,
# and the capacity rows a bisection whose probes average three runs.
# The CSV digests were recorded before the record kept latencies in slots
# and RCS results were read from frame counts, and the capacity digest
# before a probe could stop early; all of these changes keep them.
REPLICATED_SWEEPS = {
    "capacity": (
        dict(
            capacity_cfg(),
            alphas=[0.2, 0.5, 0.8],
            latency_targets_ms=[20.0, 50.0],
            horizon_frames=200,
            replications=3,
            master_seed=1,
        ),
        "696888d5b36a5f6535721f9913bce1ac81f9203131e806773a7c3d6630ce43ad",
    ),
    "cff": (
        cff_simulate_cfg(
            alphas=[0.2, 0.5, 0.8],
            latency_targets_ms=[20.0, 30.0, 50.0],
            traffic={"pull_rate_pps": 500.0, "push_rate_pps": 800.0},
            horizon_frames=1000,
            replications=3,
            master_seed=1,
        ),
        "a3d167455a4b10fc4acf6d34dc5c1f78a6866b6eac6cc33f4193e654510f2349",
    ),
    "rcs": (
        rcs_cfg(
            frame={"slots_per_frame": 50, "frame_duration_ms": 10.0, "pull_packet_slots": 1, "push_packet_slots": 1},
            alphas=[0.0, 0.4, 1.0],
            population={"n_pull_devices": 12, "n_push_devices": 40, "query": [0.25, 0.75], "push_threshold": 0.5},
            n_frames=2000,
            replications=3,
            master_seed=1,
        ),
        "552b3affe1338e0141bf5e3075ca8bed1545bee2f01f03e669a124be98c1c0b0",
    ),
}


@pytest.mark.parametrize("protocol", sorted(REPLICATED_SWEEPS))
def test_replicated_sweep_pinned(protocol, tmp_path):
    data, digest = REPLICATED_SWEEPS[protocol]
    out = tmp_path / f"{protocol}.csv"
    run_experiment(validate_config(data), out=str(out))
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest
