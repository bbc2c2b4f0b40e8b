"""Self-test of the benchmark: every workload at its shortest length prints
every metric BENCHMARK.json names, with its unit, and no check fails.

    python3 -m pytest perfbench/tests -q
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
RUN = os.path.join(BENCH, "run.py")

sys.path[:0] = [os.path.join(ROOT, "src"), BENCH]
from workloads import WORKLOADS  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
    SPEC = json.load(fh)


def run(*args, cwd=ROOT):
    return subprocess.run([sys.executable, RUN, *args], cwd=cwd, capture_output=True,
                          text=True, timeout=600)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", [w["name"] for w in SPEC["workloads"]])
def test_workload_prints_every_metric_with_its_unit(name, trace):
    done = run("--workload", name, "--seed", "3", "--seconds", "1", "--trace", str(trace),
               "--length", str(WORKLOADS[name].min_length))
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m: v["unit"] for m, v in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in wanted}
    for metric in wanted:
        assert f"  {metric['name']} " in done.stdout  # printed by name, value and unit


@pytest.mark.parametrize("name, length", [("sift", 9), ("exact", 9), ("limit", 2001),
                                          ("cli", 61)])
def test_size_guards_reject_lengths_by_name(name, length):
    done = run("--workload", name, "--seed", "1", "--seconds", "1", "--length", str(length))
    assert done.returncode != 0
    assert "SizeGuardError" in done.stderr
    assert "{" not in done.stdout


def test_fails_without_the_package(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    done = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "sift", "--seed", "1",
                           "--seconds", "1", "--trace", "0"], cwd=tmp_path,
                          capture_output=True, text=True, timeout=180)
    assert done.returncode != 0
    assert done.stdout == ""
