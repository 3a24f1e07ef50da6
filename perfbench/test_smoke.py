"""Smoke test of the benchmark at a tiny size.

    python3 -m pytest -q perfbench/test_smoke.py
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
END_TO_END = {"setup_s", "wall_s", "job_p50_ms", "job_p90_ms", "peak_rss_mb"}


def bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def result_of(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def metric_names(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}


@pytest.mark.parametrize("workload", ["ideal_build", "betti_koszul", "cli_queries"])
@pytest.mark.parametrize("trace", ["0", "1"])
def test_tiny_run(workload, trace):
    proc = bench("--workload", workload, "--seed", "3", "--seconds", "0.1",
                 "--trace", trace, "--scale", "0.03")
    result = result_of(proc)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    assert set(result["metrics"]) == metric_names(trace == "1")
    if trace == "0":
        assert set(result["metrics"]) == END_TO_END
        assert all(m["value"] > 0 for m in result["metrics"].values())
    assert "error_rate = 0 ratio" in proc.stdout


def test_same_seed_same_jobs():
    sys.path.insert(0, str(HERE))
    import random

    from workloads import WORKLOADS

    for make, _, _ in WORKLOADS.values():
        assert make(random.Random(5), 0.05) == make(random.Random(5), 0.05)


def test_fails_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "cli_queries", "--seed", "1", "--seconds", "1",
                 "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
