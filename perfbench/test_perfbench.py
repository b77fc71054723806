"""Tests of the benchmark itself, every workload at its tiny size.

    python3 -m pytest perfbench/test_perfbench.py -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import tracing
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd, capture_output=True, text=True, timeout=600
    )


def result(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_benchmark_json_matches_the_harness():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
@pytest.mark.parametrize("trace", ["0", "1"])
def test_every_metric_printed_and_checks_pass(workload, trace):
    seconds = "4" if workload == "hmm_readout" else "1"
    out = result(bench("--workload", workload, "--seed", "5", "--seconds", seconds,
                       "--trace", trace, "--size", "tiny"))
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] is True and out["failed"] == 0 and out["attempted"] >= 1
    units = run.PER_LAYER if trace == "1" else run.END_TO_END
    assert {k: v["unit"] for k, v in out["metrics"].items()} == units
    for name, metric in out["metrics"].items():
        assert isinstance(metric["value"], float), name
        if trace == "0":
            assert metric["value"] > 0, name


def test_wrappers_installed_only_inside_the_traced_block(capsys):
    sys.path.insert(0, str(ROOT / "src"))
    before = tracing.current_bindings()
    with tracing.installed(tracing.Tracer()):
        during = tracing.current_bindings()
    assert all(a is not b for a, b in zip(before, during))
    assert all(a is b for a, b in zip(before, tracing.current_bindings()))

    assert run.main(["--workload", "hmm_readout", "--seed", "2", "--seconds", "0.5",
                     "--trace", "1", "--size", "tiny"]) == 0
    assert all(a is b for a, b in zip(before, tracing.current_bindings()))
    out = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert out["metrics"]["markov.start_posterior_batch.calls"]["value"] > 0


def test_fails_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = bench("--workload", "hmm_readout", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
