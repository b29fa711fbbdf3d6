"""The paired-run summary of tools/perf_pairs.py (no benchmark run)."""
import importlib.util
import json
from functools import partial
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "perf_pairs.py"
_SPEC = importlib.util.spec_from_file_location("perf_pairs", _PATH)
perf_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(perf_pairs)


WALL = {"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.2}


def test_summary_reads_medians_quartiles_and_pairs():
    parent = [0.140, 0.136, 0.138, 0.137, 0.139]
    change = [0.106, 0.108, 0.139, 0.105, 0.107]  # pair 3 reads higher
    line = perf_pairs.summarise(WALL, parent, change)
    assert line == (
        "wall_s 0.1380 [0.1365, 0.1395] -> 0.1070 [0.1055, 0.1235] s "
        "(-22.5 %, change lower in 4/5, gap 0.0310, parent IQR 0.0030, bound 20 %: within bound)"
    )


def test_summary_of_one_pair():
    other = {"name": "other", "unit": "MiB", "better": "lower", "bound": 0.1}
    line = perf_pairs.summarise(other, [2.0], [2.5])
    assert line == (
        "other 2.0000 [2.0000, 2.0000] -> 2.5000 [2.5000, 2.5000] MiB "
        "(+25.0 %, change lower in 0/1, gap 0.5000, parent IQR 0.0000, bound 10 %: worse than bound)"
    )


def test_verdict_against_the_bound():
    parent = [1.0, 1.0, 1.0, 1.0]
    assert perf_pairs.verdict(WALL, parent, [1.1, 1.1, 1.1, 1.1]) == "within bound"
    assert perf_pairs.verdict(WALL, parent, [1.3, 1.3, 1.3, 1.3]) == "worse than bound"
    higher = dict(WALL, better="higher")
    assert perf_pairs.verdict(higher, parent, [0.9, 0.9, 0.9, 0.9]) == "within bound"
    assert perf_pairs.verdict(higher, parent, [0.7, 0.7, 0.7, 0.7]) == "worse than bound"
    # a parent IQR of 0.8 is wider than 20 % of its median 1.0
    spread = [0.5, 0.9, 1.1, 1.5]
    assert perf_pairs.verdict(WALL, spread, [0.8, 1.0, 1.0, 1.2]) == "unresolved"
    assert perf_pairs.verdict(WALL, spread, [2.0, 2.0, 2.0, 2.0]) == "unresolved"
    # unless every change run beats every parent run
    assert perf_pairs.verdict(WALL, spread, [0.2, 0.3, 0.3, 0.4]) == "within bound"
    assert perf_pairs.verdict(higher, spread, [1.6, 1.7, 1.7, 1.8]) == "within bound"


def test_pairs_must_be_positive():
    with pytest.raises(SystemExit):
        perf_pairs.main(["a", "b", "--pairs", "0"])


def test_result_line_gives_metric_values():
    stdout = (
        "wall_s 0.1 s\n"
        '{"correct": true, "attempted": 3, "failed": 0, "metrics": '
        '{"wall_s": {"value": 0.1, "unit": "s"}, "peak_rss_mb": {"value": 38.5, "unit": "MiB"}}}\n'
    )
    assert perf_pairs.parse_result(stdout, "here") == {"wall_s": 0.1, "peak_rss_mb": 38.5}
    with pytest.raises(SystemExit, match="here: correct=True failed=1"):
        perf_pairs.parse_result(stdout.replace('"failed": 0', '"failed": 1'), "here")


def _stub_root(tmp_path, body):
    """A root whose perfbench/run.py is the script ``body``."""
    (tmp_path / "perfbench").mkdir()
    (tmp_path / "perfbench" / "run.py").write_text("import sys\n" + body)
    return tmp_path


def test_failed_run_reports_side_workload_exit_code_and_stderr(tmp_path):
    body = "print('metrics follow')\nsys.stderr.write('early\\n' + 'Traceback: boom\\n')\nsys.exit(3)\n"
    root = _stub_root(tmp_path, body)
    with pytest.raises(SystemExit) as info:
        perf_pairs.run_once("change", root, "cff_mixed", 1, 0.5)
    assert str(info.value) == f"change cff_mixed ({root}): exit code 3; stderr tail:\n  early\n  Traceback: boom"
    long = perf_pairs.failure("w", "x", "\n".join(map(str, range(30))))
    assert long.splitlines()[1:] == [f"  {i}" for i in range(30 - perf_pairs.STDERR_TAIL, 30)]


def test_malformed_last_line_is_reported(tmp_path):
    root = _stub_root(tmp_path, "print('{\"correct\": true')\nsys.stderr.write('warned\\n')\n")
    with pytest.raises(SystemExit) as info:
        perf_pairs.run_once("parent", root, "rcs_grid", 1, 0.5)
    assert str(info.value) == (
        f"parent rcs_grid ({root}): malformed last line '{{\"correct\": true'; stderr tail:\n  warned"
    )
    for stdout in ("", '{"correct": true}', "[1, 2]"):  # no line, no metrics, not an object
        with pytest.raises(SystemExit, match="here: malformed last line .*stderr tail:\n  \\(empty\\)"):
            perf_pairs.parse_result(stdout, "here")


def test_gain_rule():
    parent = [1.00, 1.02, 0.98, 1.01, 0.99, 1.00, 1.03, 0.97, 1.00, 1.01]  # IQR 0.025
    gain = partial(perf_pairs.gain, WALL, parent)
    assert gain([0.9] * 9 + [1.1]).startswith("gain holds: change better in 9/10 ")
    assert gain([0.9] * 8 + [1.1] * 2).startswith("gain not shown: change better in 8/10 ")
    # better in every pair, but the medians are closer than the parent's IQR
    assert gain([p - 0.01 for p in parent]).startswith("gain not shown: change better in 10/10 ")
    # ties count for neither side
    assert gain(parent[:1] + [0.9] * 9).startswith("gain holds: change better in 9/10 ")
    assert gain(parent[:2] + [0.9] * 8).startswith("gain not shown: change better in 8/10 ")
    assert gain([0.9] * 10).endswith(
        "(needs 9/10 of at least 10), median gap +0.1000 the better way against parent IQR 0.0250"
    )
    # fewer pairs than the rule needs show no gain
    assert perf_pairs.gain(WALL, parent[:9], [0.5] * 9).startswith("gain not shown: change better in 9/9 ")
    higher = partial(perf_pairs.gain, dict(WALL, better="higher"), parent)
    assert higher([1.1] * 10).startswith("gain holds: change better in 10/10 ")
    assert higher([0.9] * 10).startswith("gain not shown: change better in 0/10 ")


def _results_root(path, values):
    """A root whose perfbench/run.py prints, on its i-th run, a correct result
    with ``values[name][i]`` for each metric, and whose BENCHMARK.json names
    those metrics."""
    path.mkdir()
    body = (
        "import json, pathlib\n"
        "runs = pathlib.Path(__file__).with_name('runs')\n"
        "i = int(runs.read_text()) if runs.exists() else 0\n"
        "runs.write_text(str(i + 1))\n"
        f"values = {values!r}\n"
        "metrics = {name: {'value': v[i], 'unit': 's'} for name, v in values.items()}\n"
        "print(json.dumps({'correct': True, 'attempted': 1, 'failed': 0, 'metrics': metrics}))\n"
    )
    root = _stub_root(path, body)
    rss = {"name": "peak_rss_mb", "unit": "MiB", "better": "lower", "bound": 0.1}
    (root / "BENCHMARK.json").write_text(json.dumps({"end_to_end": [WALL, rss]}))
    return root


def test_ten_pairs_by_default_with_a_gain_verdict_per_metric(tmp_path, capsys):
    wall = [1.00, 1.02, 0.98, 1.01, 0.99, 1.00, 1.03, 0.97, 1.00, 1.01]
    parent = _results_root(tmp_path / "parent", {"wall_s": wall, "peak_rss_mb": [40.0] * 10})
    change = _results_root(tmp_path / "change", {"wall_s": [0.8] * 9 + [1.2], "peak_rss_mb": [40.0] * 10})
    perf_pairs.main([str(parent), str(change), "--workloads", "cff_mixed", "--seconds", "0.5"])
    assert [(root / "perfbench" / "runs").read_text() for root in (parent, change)] == ["10", "10"]
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "cff_mixed (10 pairs)"
    assert lines[1].startswith("  wall_s 1.0000 [") and lines[1].endswith("bound 20 %: within bound)")
    assert lines[2].startswith("    gain holds: change better in 9/10 ")
    assert lines[3].startswith("  peak_rss_mb 40.0000 [")
    assert lines[4].startswith("    gain not shown: change better in 0/10 ")
    assert len(lines) == 5
