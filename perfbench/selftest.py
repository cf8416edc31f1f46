"""Tests of the benchmark itself, on its quick mode.

    python3 -m pytest -q perfbench/selftest.py

Every workload runs one round at tiny sizes with all its output checks, on
two seeds, in both modes.  The file name keeps these tests out of the
repository's default test collection.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

RUN = Path(__file__).resolve().parent / "run.py"
BENCHMARK = json.loads((RUN.parent.parent / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]


def bench(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(RUN), *args], capture_output=True, text=True,
                          timeout=170)


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("seed", ["1", "2"])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_quick_round_passes_every_check(workload, seed, trace):
    proc = bench("--workload", workload, "--seed", seed, "--seconds", "1", "--trace", trace,
                 "--quick")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    wanted = BENCHMARK["per_layer" if trace == "1" else "end_to_end"]
    assert {m["name"]: m["unit"] for m in wanted}.items() <= {
        k: v["unit"] for k, v in result["metrics"].items()}.items()
    if trace == "0":
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_refuses_to_run_without_package_source(tmp_path):
    bare = tmp_path / "perfbench"
    bare.mkdir()
    for f in RUN.parent.glob("*.py"):
        (bare / f.name).write_text(f.read_text())
    proc = subprocess.run([sys.executable, str(bare / "run.py"), "--workload", WORKLOADS[0],
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          capture_output=True, text=True, timeout=60, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
