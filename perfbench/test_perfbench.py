"""Tests of the benchmark itself: its inputs, its output names and its checks.

    python -m pytest -q perfbench
"""

import dataclasses
import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _load(name):
    spec = importlib.util.spec_from_file_location("perfbench_" + name, HERE / (name + ".py"))
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up here
    spec.loader.exec_module(module)
    return module


bench = _load("run")
inputs = _load("inputs")

from cacheways import formats  # noqa: E402  (run.py put src/ on the path)
from cacheways.simulate import Policy, run_mix  # noqa: E402


def _tree(directory: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


@pytest.mark.parametrize("workload", ["cli", "dense", "churn"])
def test_same_seed_same_bytes_and_every_file_parses(tmp_path, workload):
    a = inputs.write_inputs(str(tmp_path / "a"), 7, workload)
    inputs.write_inputs(str(tmp_path / "b"), 7, workload)
    inputs.write_inputs(str(tmp_path / "c"), 8, workload)
    assert _tree(tmp_path / "a") == _tree(tmp_path / "b")
    assert _tree(tmp_path / "a") != _tree(tmp_path / "c")
    formats.read_mix(a["heavy"])
    formats.read_nests(a["nests"])
    formats.read_curves(a["curves"])
    formats.read_samples(a["train"])
    formats.read_samples(a["test"])
    if workload != "cli":
        mix = formats.read_mix(a["engine"])
        assert len(mix.processes) in (inputs.DENSE_PROCESSES, inputs.CHURN_PROCESSES)


@pytest.mark.parametrize("trace,key", [(0, "end_to_end"), (1, "per_layer")])
def test_printed_names_match_benchmark_json(trace, key):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "dense", "--seed", "3",
         "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170, check=True,
    )
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1
    printed = {name: m["unit"] for name, m in result["metrics"].items()}
    assert printed == {m["name"]: m["unit"] for m in spec[key]}


@pytest.fixture
def pair_report():
    mix = formats.read_mix(str(ROOT / "mixes" / "light" / "l1-pair.mix"))
    report = run_mix(mix, Policy("comcas"))
    assert bench.check_report(mix, report) == []
    return mix, report


def test_check_rejects_completion_below_run_alone(pair_report):
    mix, report = pair_report
    pid = min(report.completions)
    tampered = dataclasses.replace(
        report, completions={**report.completions, pid: report.unmixed[pid] * 0.99}
    )
    problems = bench.check_report(mix, tampered)
    assert len(problems) == 1 and "run-alone" in problems[0]


def test_check_rejects_missing_pid_and_infinite_end(pair_report):
    mix, report = pair_report
    pid = min(report.completions)
    rest = {p: t for p, t in report.completions.items() if p != pid}
    tampered = dataclasses.replace(report, completions=rest, end_time=float("inf"))
    problems = bench.check_report(mix, tampered)
    assert any("finished pids" in p for p in problems)
    assert any("end time" in p for p in problems)


def test_self_time_excludes_child_spans():
    spans_mod = _load("spans")
    spans = [["outer", -1, 0.0, 10.0], ["inner", 0, 1.0, 4.0], ["inner", 0, 5.0, 6.0]]
    summary = spans_mod.Summary(spans)
    assert summary.self_time["outer"] == 6.0
    assert summary.total["inner"] == 4.0 and summary.count["inner"] == 2
    assert summary.mean_us("inner") == 2e6
