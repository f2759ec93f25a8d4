"""The benchmark's own tests: every workload at tiny size, pinned hashes, failure paths.

Run from the root of the repository: python3 -m pytest perfbench
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", "--size", "tiny",
                           "--seconds", "0.2", *args],
                          cwd=cwd, capture_output=True, text=True, timeout=600)


def lines(stdout):
    return [json.loads(line) for line in stdout.splitlines()]


@pytest.mark.parametrize("trace, group", [(0, "end_to_end"), (1, "per_layer")])
def test_tiny_run_of_every_workload_prints_every_metric(trace, group):
    proc = bench("--workload", "all", "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    docs = lines(proc.stdout)
    assert set(docs[-1]) == RESULT_KEYS
    results = [d for d in docs if set(d) == RESULT_KEYS]
    records = [d for d in docs if set(d) != RESULT_KEYS]
    names = [r["workload"] for r in records]
    assert names == ["eval-strict", "eval-loose", "train-compare"]
    assert {w["name"] for w in BENCHMARK["workloads"]} <= set(names)
    wanted = {m["name"]: m["unit"] for m in BENCHMARK[group]}
    for result, record in zip(results, records):
        assert record["pinned"], "tiny runs at the default seed check the pinned hashes"
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
        assert {k: v["unit"] for k, v in result["metrics"].items()} == wanted
        assert all(math.isfinite(v["value"]) for v in result["metrics"].values())


def copy_benchmark(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    return tmp_path / "perfbench"


def test_tampered_pin_counts_as_a_failure(tmp_path):
    pins_path = copy_benchmark(tmp_path) / "pins.json"
    pins = json.loads(pins_path.read_text())
    pins["tiny"]["eval-strict"]["report.json"] = "0" * 64
    pins_path.write_text(json.dumps(pins))
    (tmp_path / "src").symlink_to(ROOT / "src", target_is_directory=True)
    proc = bench("--workload", "eval-strict", cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    result = lines(proc.stdout)[-1]
    assert set(result) == RESULT_KEYS
    assert result["correct"] is False and result["failed"] >= 1
    assert "pinned" in proc.stderr


def test_without_sources_exits_nonzero_and_prints_no_result(tmp_path):
    copy_benchmark(tmp_path)
    proc = bench("--workload", "eval-strict", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
