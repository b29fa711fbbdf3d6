"""Fast checks of the benchmark itself, at tiny sweep sizes.

    python3 -m pytest perfbench/tests -q
"""
from __future__ import annotations

import json
from dataclasses import replace
from pathlib import Path

import pytest

import check
import run
from pushpull_mac import capacity, harness, mac_cff, mac_rcs, run_experiment, validate_config
from tracer import Tracer

BENCH_DIR = Path(__file__).resolve().parent.parent
FRAME = {"slots_per_frame": 100, "frame_duration_ms": 10.0, "pull_packet_slots": 5, "push_packet_slots": 1}
TINY = {
    "cff_frontier": {
        "protocol": "cff",
        "experiment": "capacity",
        "frame": FRAME,
        "alphas": [0.2, 0.8],
        "latency_targets_ms": [50.0],
        "capacity": {"target_reliability": 0.99, "rate_tolerance_pps": 200.0, "rate_upper_bound_pps": 10000.0},
        "horizon_frames": 20,
        "replications": 1,
        "master_seed": 3,
    },
    "rcs_grid": {
        "protocol": "rcs",
        "frame": {**FRAME, "slots_per_frame": 50, "pull_packet_slots": 1},
        "alphas": [0.0, 0.5],
        "slots_per_frame_values": [25, 50],
        "population": {"n_pull_devices": 12, "n_push_devices": 40, "query": [0.25, 0.75], "push_threshold": 0.5},
        "n_frames": 50,
        "master_seed": 3,
    },
    "cff_mixed": {
        "protocol": "cff",
        "experiment": "simulate",
        "frame": FRAME,
        "alphas": [0.2, 0.8],
        "latency_targets_ms": [20.0, 50.0],
        "traffic": {"pull_rate_pps": 500.0, "push_rate_pps": 800.0},
        "horizon_frames": 30,
        "replications": 2,
        "master_seed": 3,
    },
}


def _sweep(name: str, path: Path) -> bytes:
    run_experiment(validate_config(TINY[name]), str(path), workers=1)
    return path.read_bytes()


def _corrupt(data: bytes, row: int, column: str, value: str) -> bytes:
    lines = data.decode("utf-8").splitlines(keepends=True)
    header = lines[0].rstrip("\n").split(",")
    cells = lines[row].rstrip("\n").split(",")
    cells[header.index(column)] = value
    lines[row] = ",".join(cells) + "\n"
    return "".join(lines).encode("utf-8")


def test_benchmark_json_lists_every_emitted_metric_with_its_unit():
    spec = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.LAYER_UNITS
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(p.stem for p in run.WORKLOADS.glob("*.json"))


@pytest.mark.parametrize("name", sorted(TINY))
def test_tracing_leaves_csv_bytes_unchanged_and_reports_every_layer(name, tmp_path):
    plain = _sweep(name, tmp_path / "plain.csv")
    originals = (mac_cff.schedule_pull, capacity.simulate_cff, harness._run_point, mac_rcs.uniform_slot_contention)
    tracer = Tracer()
    tracer.install()
    try:
        tracer.run_experiment(validate_config(TINY[name]), str(tmp_path / "traced.csv"))
    finally:
        tracer.uninstall()
    assert (tmp_path / "traced.csv").read_bytes() == plain
    assert (mac_cff.schedule_pull, capacity.simulate_cff, harness._run_point, mac_rcs.uniform_slot_contention) == originals

    layers = tracer.layer_metrics()
    traced_names = {name for name in run.LAYER_UNITS if name.split(".")[0] not in ("setup", "trace", "host")}
    assert set(layers) == traced_names
    assert all(value >= 0 for value in layers.values())
    assert layers["harness.points"] == len(check.expected_points(validate_config(TINY[name])))
    busy = {"cff_frontier": "capacity.probe_runs", "rcs_grid": "mac_rcs.frames", "cff_mixed": "metrics.samples"}
    assert layers[busy[name]] > 0


def test_self_time_subtracts_child_spans():
    tracer = Tracer()
    tracer.spans = [["outer", 0.0, 10.0, -1, 0], ["inner", 1.0, 4.0, 0, 0], ["inner", 5.0, 6.0, 0, 0]]
    assert tracer.self_times() == [6.0, 3.0, 1.0]


@pytest.mark.parametrize("name", sorted(TINY))
def test_clean_output_passes(name, tmp_path):
    config = validate_config(TINY[name])
    data = _sweep(name, tmp_path / "a.csv")
    reference = {"csv_sha256": check.sha256(data), "points": check.point_digests(config, data.decode())}
    result = check.check_csv(config, data, reference, (("repeated", data),))
    assert result.failures == {}
    assert result.attempted == len(check.expected_points(config)) > 1


@pytest.mark.parametrize("name", sorted(TINY))
def test_flipped_metric_value_fails_exactly_its_point(name, tmp_path):
    config = validate_config(TINY[name])
    data = _sweep(name, tmp_path / "a.csv")
    reference = {"csv_sha256": check.sha256(data), "points": check.point_digests(config, data.decode())}
    bad = _corrupt(data, 1, "metric_value", "0.5")
    assert bad != data
    result = check.check_csv(config, bad, reference)
    first = next(iter(check.expected_points(config)))
    assert list(result.failures) == [first]
    # the same corruption also shows as a mismatch against an identical run
    assert list(check.check_csv(config, data, None, (("traced", bad),)).failures) == [first]


@pytest.mark.parametrize("name", sorted(TINY))
def test_injected_error_fails_its_point_without_a_reference(name, tmp_path):
    config = validate_config(TINY[name])
    data = _sweep(name, tmp_path / "a.csv")
    result = check.check_csv(config, _corrupt(data, 2, "error", "RuntimeError: boom"))
    assert result.failed == 1
    assert "error cell" in next(iter(result.failures.values()))[0]


def test_range_and_frontier_invariants(tmp_path):
    config = validate_config(TINY["cff_frontier"])
    data = _sweep("cff_frontier", tmp_path / "a.csv")
    # row 1 is alpha=0.2's pull capacity; its service ceiling is 400 pps
    over = check.check_csv(config, _corrupt(data, 1, "metric_value", "450.0"))
    assert any("service ceiling" in r for r in over.failures["alpha=0.2,S=100,L=50.0"])
    # row 3 is alpha=0.8's pull capacity; dropping it below alpha=0.2's breaks monotonicity
    drop = check.check_csv(config, _corrupt(_corrupt(data, 1, "metric_value", "300.0"), 3, "metric_value", "0.0"))
    assert any("frontier drops" in r for r in drop.failures["alpha=0.8,S=100,L=50.0"])

    rcs = validate_config(TINY["rcs_grid"])
    rcs_data = _sweep("rcs_grid", tmp_path / "b.csv")
    assert check.check_csv(rcs, _corrupt(rcs_data, 1, "metric_value", "1.5")).failed == 1


def test_missing_point_is_a_failed_point(tmp_path):
    config = validate_config(TINY["cff_mixed"])
    data = _sweep("cff_mixed", tmp_path / "a.csv")
    truncated = b"".join(data.splitlines(keepends=True)[:-4])
    result = check.check_csv(config, truncated)
    assert (result.attempted, result.failed) == (2, 1)


def test_stored_digests_cover_every_workload_at_the_default_seed():
    digests = json.loads(run.DIGESTS.read_text(encoding="utf-8"))
    assert digests["seed"] == run.DEFAULT_SEED
    for path in run.WORKLOADS.glob("*.json"):
        config = replace(harness.load_config(path), master_seed=run.DEFAULT_SEED)
        entry = digests["workloads"][path.stem]
        assert set(entry["points"]) == set(check.expected_points(config))


def test_run_prints_every_metric_and_a_result_line(tmp_path, capsys):
    config_path = tmp_path / "tiny.json"
    config_path.write_text(json.dumps(TINY["cff_mixed"]), encoding="utf-8")
    for trace, units in ((0, run.END_TO_END_UNITS), (1, run.LAYER_UNITS)):
        assert run.run("tiny", config_path, tmp_path / "out", 3, 0.05, trace) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        result = json.loads(lines[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert (result["correct"], result["attempted"], result["failed"]) == (True, 2, 0)
        assert result["metrics"] == {n: {"value": result["metrics"][n]["value"], "unit": u} for n, u in units.items()}
        assert any(line.startswith("points_failed_frac = 0 (0 of 2") for line in lines)
        assert any(line.startswith("env ") for line in lines)
