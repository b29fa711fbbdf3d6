import json

import pushpull_mac.harness as harness
from pushpull_mac.cli import main


def write_cfg(tmp_path, data, name="cfg.json"):
    p = tmp_path / name
    p.write_text(json.dumps(data))
    return str(p)


def cff_single(**overrides):
    data = {
        "protocol": "cff",
        "experiment": "simulate",
        "frame": {
            "slots_per_frame": 100,
            "frame_duration_ms": 10.0,
            "pull_packet_slots": 5,
            "push_packet_slots": 1,
        },
        "alphas": [0.5],
        "latency_targets_ms": [20.0],
        "traffic": {"pull_rate_pps": 200.0, "push_rate_pps": 400.0},
        "horizon_frames": 30,
        "master_seed": 2,
    }
    data.update(overrides)
    return data


def rcs_single(**overrides):
    data = {
        "protocol": "rcs",
        "frame": {
            "slots_per_frame": 25,
            "frame_duration_ms": 10.0,
            "pull_packet_slots": 1,
            "push_packet_slots": 1,
        },
        "alphas": [0.5],
        "population": {
            "n_pull_devices": 4,
            "n_push_devices": 6,
            "query": [0.2, 0.8],
            "push_threshold": 0.5,
        },
        "n_frames": 300,
        "master_seed": 2,
    }
    data.update(overrides)
    return data


class TestSingles:
    def test_cff_single_prints_metrics(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, cff_single())
        assert main(["cff", "--config", cfg]) == 0
        out = capsys.readouterr().out
        assert "pull_reliability=" in out
        assert "push_reliability=" in out

    def test_cff_single_writes_csv(self, tmp_path):
        cfg = write_cfg(tmp_path, cff_single())
        out = tmp_path / "res.csv"
        assert main(["cff", "--config", cfg, "--out", str(out), "--quiet"]) == 0
        text = out.read_text()
        assert text.startswith("protocol,alpha,S,L_ms,")
        assert (tmp_path / "res.meta.json").is_file()

    def test_quiet_suppresses_output(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, cff_single())
        assert main(["cff", "--config", cfg, "--quiet"]) == 0
        captured = capsys.readouterr()
        assert captured.out == ""

    def test_cff_rejects_multi_alpha(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, cff_single(alphas=[0.2, 0.5]))
        assert main(["cff", "--config", cfg]) == 1
        assert "exactly one alpha" in capsys.readouterr().err

    def test_rcs_single(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, rcs_single())
        assert main(["rcs", "--config", cfg]) == 0
        assert "retrieval_accuracy=" in capsys.readouterr().out

    def test_rcs_rejects_wrong_protocol(self, tmp_path):
        cfg = write_cfg(tmp_path, cff_single())
        assert main(["rcs", "--config", cfg]) == 1

    def test_rcs_rejects_two_frame_sizes(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, rcs_single(slots_per_frame_values=[25, 50]))
        assert main(["rcs", "--config", cfg]) == 1
        assert "subcommand 'rcs' runs a single point" in capsys.readouterr().err
        assert main(["sweep", "--config", cfg, "--quiet"]) == 0


class TestSweepAndCapacity:
    def test_sweep_runs_rcs_grid(self, tmp_path):
        data = rcs_single(alphas=[0.0, 1.0], slots_per_frame_values=[25, 50])
        cfg = write_cfg(tmp_path, data)
        out = tmp_path / "grid.csv"
        assert main(["sweep", "--config", cfg, "--out", str(out), "--quiet"]) == 0
        assert len(out.read_text().splitlines()) == 1 + 8

    def test_capacity_subcommand_needs_capacity_experiment(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, cff_single())
        assert main(["capacity", "--config", cfg]) == 1
        assert "experiment=capacity" in capsys.readouterr().err

    def test_capacity_runs(self, tmp_path):
        data = cff_single(
            experiment="capacity",
            alphas=[0.0, 1.0],
            capacity={"rate_tolerance_pps": 500.0, "rate_upper_bound_pps": 2000.0},
        )
        del data["traffic"]
        cfg = write_cfg(tmp_path, data)
        out = tmp_path / "cap.csv"
        assert main(["capacity", "--config", cfg, "--out", str(out), "--quiet", "--workers", "2"]) == 0
        assert len(out.read_text().splitlines()) == 1 + 4


class TestErrorPaths:
    def test_missing_config_file(self, tmp_path, capsys):
        assert main(["cff", "--config", str(tmp_path / "nope.json")]) == 1
        assert "config error" in capsys.readouterr().err

    def test_malformed_json(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text("{not json")
        assert main(["cff", "--config", str(p)]) == 1

    def test_overhead_key_refused(self, tmp_path, capsys):
        data = cff_single()
        data["frame"]["overhead_slots_per_frame"] = 0
        assert main(["cff", "--config", write_cfg(tmp_path, data)]) == 1
        assert capsys.readouterr().err == "pushpull-mac: config error: unknown config key: frame.overhead_slots_per_frame\n"

    def test_config_not_utf8(self, tmp_path, capsys):
        p = tmp_path / "utf16.json"
        p.write_bytes(json.dumps(cff_single()).encode("utf-16"))  # starts with ff fe
        assert main(["sweep", "--config", str(p)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("pushpull-mac: config error:")
        assert "Traceback" not in err

    def test_invalid_config_values(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, cff_single(alphas=[2.0]))
        assert main(["cff", "--config", cfg]) == 1
        assert "alpha out of [0,1]" in capsys.readouterr().err

    def test_usage_error_is_exit_1(self, capsys):
        assert main(["frobnicate"]) == 1
        assert "error" in capsys.readouterr().err

    def test_bad_seed_flag(self, tmp_path):
        cfg = write_cfg(tmp_path, cff_single())
        assert main(["cff", "--config", cfg, "--seed", "-3"]) == 1

    def test_seed_beyond_64_bits_rejected(self, tmp_path, capsys):
        # 5 + 2**64 would run the streams of seed 5 under another name
        cfg = write_cfg(tmp_path, rcs_single())
        out = tmp_path / "r.csv"
        assert main(["rcs", "--config", cfg, "--seed", str(5 + 2**64), "--out", str(out), "--quiet"]) == 1
        assert f"--seed: must be < {2**64}, got {5 + 2**64}" in capsys.readouterr().err
        assert not out.exists()
        assert main(["rcs", "--config", cfg, "--seed", str(2**64 - 1), "--out", str(out), "--quiet"]) == 0
        assert main(["rcs", "--config", write_cfg(tmp_path, rcs_single(master_seed=2**64)), "--quiet"]) == 1

    def test_empty_out_flag_rejected(self, tmp_path, capsys):
        # an empty path names no file: refused like any bad flag, before running
        cfg = write_cfg(tmp_path, rcs_single())
        assert main(["rcs", "--config", cfg, "--out", "", "--quiet"]) == 1
        assert capsys.readouterr().err == "pushpull-mac: config error: --out: expected a non-empty path\n"

    def test_capped_search_bracket_rejected_at_load(self, tmp_path, capsys):
        # the pull ceiling at alpha 0.1 (200 pps) leaves a bracket narrower
        # than the tolerance: every row of the point would carry the error
        data = cff_single(
            experiment="capacity", alphas=[0.1], latency_targets_ms=[50.0], capacity={"rate_tolerance_pps": 500.0}
        )
        del data["traffic"]
        assert main(["capacity", "--config", write_cfg(tmp_path, data), "--quiet"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("pushpull-mac: config error: pull search at alpha 0.1, capped at the service ceiling:")

    def test_bad_workers_flag(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, rcs_single())
        assert main(["sweep", "--config", cfg, "--workers", "0", "--quiet"]) == 1
        assert "--workers must be >= 1" in capsys.readouterr().err

    def test_point_error_printed_on_its_rows(self, tmp_path, capsys, monkeypatch):
        # a failing point is a row with the error column set, not a failed run
        def fail(*args, **kwargs):
            raise RuntimeError("no frames today")

        monkeypatch.setattr(harness, "simulate_rcs", fail)
        cfg = write_cfg(tmp_path, rcs_single())
        assert main(["sweep", "--config", cfg, "--out", str(tmp_path / "r.csv")]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines == [
            f"{name}=n/a (alpha=0.5, S=25) [error: RuntimeError: no frames today]"
            for name in ("retrieval_accuracy", "push_success_prob")
        ]

    def test_runtime_failure_is_exit_2(self, tmp_path, capsys):
        blocker = tmp_path / "blocker"
        blocker.write_text("")
        cfg = write_cfg(tmp_path, cff_single())
        # output directory path collides with an existing file -> OSError
        rc = main(["cff", "--config", cfg, "--out", str(blocker / "sub" / "x.csv"), "--quiet"])
        assert rc == 2
        assert "runtime failure" in capsys.readouterr().err


class TestOverrides:
    def test_seed_override_lands_in_metadata(self, tmp_path):
        cfg = write_cfg(tmp_path, rcs_single())
        out = tmp_path / "r.csv"
        assert main(["rcs", "--config", cfg, "--seed", "77", "--out", str(out), "--quiet"]) == 0
        meta = json.loads((tmp_path / "r.meta.json").read_text())
        assert meta["master_seed"] == 77

    def test_replications_override(self, tmp_path):
        cfg = write_cfg(tmp_path, rcs_single())
        out = tmp_path / "r.csv"
        assert main(["rcs", "--config", cfg, "--replications", "3", "--out", str(out), "--quiet"]) == 0
        rows = out.read_text().splitlines()[1:]
        assert all(",3," in row for row in rows)

    def test_config_output_used_when_no_flag(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        cfg = write_cfg(tmp_path, rcs_single(output="fromcfg.csv"))
        assert main(["rcs", "--config", cfg, "--quiet"]) == 0
        assert (tmp_path / "fromcfg.csv").is_file()
