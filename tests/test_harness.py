import csv
import json
from dataclasses import replace
from pathlib import Path

import pytest

import pushpull_mac.harness as harness
from pushpull_mac import ConfigError, load_config, run_experiment, validate_config
from pushpull_mac.harness import CSV_COLUMNS, enumerate_points, _point_seed


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
        assert cfg.overhead_slots_per_frame == 0

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

    def test_overhead_slots_reach_frame_config(self):
        data = cff_simulate_cfg()
        data["frame"]["overhead_slots_per_frame"] = 10
        cfg = validate_config(data)
        frame = cfg.frame_config(0.5)
        assert frame.overhead_slots == 10
        assert frame.pull_slot_budget + frame.push_slot_budget == 90

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


class TestLoadConfig:
    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="not found"):
            load_config(tmp_path / "nope.json")

    def test_parse_error_has_location(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text('{"protocol": "cff",\n  broken\n}')
        with pytest.raises(ConfigError, match="line 2"):
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
        # the echo is lossless: reloading it reproduces the same run
        assert validate_config(meta["config"]) == cfg

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

        monkeypatch.setattr(harness, "ProcessPoolExecutor", InProcessPool)
        cfg = validate_config(rcs_cfg())
        a, b = tmp_path / "w1.csv", tmp_path / "w500.csv"
        run_experiment(cfg, out=str(a), workers=1)
        run_experiment(cfg, out=str(b), workers=500)
        assert sizes == [len(enumerate_points(cfg))] == [4]
        assert a.read_bytes() == b.read_bytes()

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

    def test_seeds_beyond_64_bits_rejected(self):
        # seed derivation is 64-bit, so 5 + 2**64 would alias seed 5
        with pytest.raises(ConfigError, match="master_seed: must be < 18446744073709551616"):
            validate_config(rcs_cfg(master_seed=5 + 2**64))
        assert validate_config(rcs_cfg(master_seed=2**64 - 1)).master_seed == 2**64 - 1
        with pytest.raises(ValueError):
            _point_seed(2**64, 0)
        with pytest.raises(ValueError):
            enumerate_points(replace(validate_config(rcs_cfg()), master_seed=5 + 2**64))

    def test_point_seeds_distinct(self):
        cfg = validate_config(rcs_cfg())
        jobs = enumerate_points(cfg)
        seeds = [j.seed for j in jobs]
        assert len(set(seeds)) == len(seeds)
        assert seeds == [_point_seed(9, i) for i in range(len(jobs))]
