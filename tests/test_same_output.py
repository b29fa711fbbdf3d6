"""The CSV comparison of tools/same_output.py, against stub roots (no sweep run)."""
import importlib.util
import json
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "same_output.py"
_SPEC = importlib.util.spec_from_file_location("same_output", _PATH)
same_output = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(same_output)


def _stub_root(path, rows, fail=""):
    """A root whose package writes, for master seed s, a CSV with a header and
    ``rows(s)`` (an expression in s) as one row per item; it fails with
    ``fail`` on stderr when given.  Its workloads are two configs."""
    package = path / "src" / "pushpull_mac"
    package.mkdir(parents=True)
    (package / "__init__.py").write_text(
        "import sys\n"
        "from dataclasses import dataclass\n"
        "@dataclass(frozen=True)\n"
        "class Config:\n"
        "    name: str\n"
        "    master_seed: int = 0\n"
        "def load_config(path):\n"
        "    return Config(path)\n"
        "def run_experiment(config, out, workers):\n"
        + (f"    sys.exit({fail!r})\n" if fail else "")
        + "    s = config.master_seed\n"
        f"    rows = {rows}\n"
        "    with open(out, 'w') as f:\n"
        "        f.write('seed,value\\n' + ''.join(f'{s},{r}\\n' for r in rows))\n"
    )
    workloads = path / "perfbench" / "workloads"
    workloads.mkdir(parents=True)
    for name in ("alpha", "beta"):
        (workloads / f"{name}.json").write_text(json.dumps({"name": name}))
    return path


def test_identical_roots(tmp_path, capsys):
    parent = _stub_root(tmp_path / "parent", "[s, 2 * s]")
    change = _stub_root(tmp_path / "change", "[s, 2 * s]")
    assert same_output.main([str(parent), str(change), "--seeds", "3"]) == 0
    captured = capsys.readouterr()
    assert captured.out.splitlines() == ["alpha: identical at seeds 1..3", "beta: identical at seeds 1..3"]
    assert len(captured.err.splitlines()) == 6  # one digest line per workload and seed


def test_first_differing_seed_and_line(tmp_path, capsys):
    parent = _stub_root(tmp_path / "parent", "[s, 2 * s]")
    change = _stub_root(tmp_path / "change", "[s, 2 * s + (s >= 2)]")
    assert same_output.main([str(parent), str(change), "--seeds", "3"]) == 1
    assert capsys.readouterr().out.splitlines() == [
        "alpha: seed 2 differs at line 3: parent '2,4', change '2,5'",
        "beta: seed 2 differs at line 3: parent '2,4', change '2,5'",
    ]


def test_a_missing_line_differs():
    assert same_output.first_difference(b"h\n1\n", b"h\n1\n2\n") == "line 3: parent '(no line)', change '2'"
    assert same_output.first_difference(b"h\n1\n", b"x\n1\n") == "line 1: parent 'h', change 'x'"


def test_failed_run_reports_side_workload_seed_and_stderr(tmp_path):
    parent = _stub_root(tmp_path / "parent", "[s]")
    change = _stub_root(tmp_path / "change", "[s]", fail="boom")
    with pytest.raises(SystemExit) as info:
        same_output.main([str(parent), str(change), "--seeds", "2"])
    assert str(info.value) == f"change alpha seed 1 ({change}): exit code 1; stderr tail:\n  boom"


def test_seeds_must_be_positive(tmp_path):
    with pytest.raises(SystemExit):
        same_output.main(["a", "b", "--seeds", "0"])
