"""Checks of the benchmark itself.

    python3 -m pytest bench/test_bench.py

These run the benchmark in subprocesses for a few minutes; they are not part
of the package's test suite.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def bench(*args, cwd=ROOT, hash_seed=None):
    env = dict(os.environ)
    if hash_seed is not None:
        env["PYTHONHASHSEED"] = str(hash_seed)
    return subprocess.run([sys.executable, str(Path(cwd) / "bench" / "run.py"), *args],
                          capture_output=True, text=True, cwd=str(cwd), env=env, timeout=600)


def one_pass(workload, hash_seed=0, seed=7, rounds=1):
    proc = bench("--role", "pass", "--workload", workload, "--seed", str(seed),
                 "--rounds", str(rounds), hash_seed=hash_seed)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def counters(layers):
    return {name: value for name, value in layers.items() if not name.endswith(".s")}


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_inputs_outputs_and_counts_ignore_the_hash_seed(workload):
    a = one_pass(workload, hash_seed=0)
    b = one_pass(workload, hash_seed=4242)
    assert (a["attempted"], a["failed"], a["digest"]) == (b["attempted"], b["failed"], b["digest"])
    assert counters(a["layers"]) == counters(b["layers"])
    assert a["layers"]["jets.created"] > 0


def test_traced_outputs_equal_untraced_and_self_times_account_for_the_untraced_time():
    result = one_pass("battery", rounds=10)
    assert result["mismatched"] == []
    assert abs(result["coverage"] - 1.0) <= 0.10
    assert result["layers"]["kernels.calls"] > 0 and result["layers"]["frame.calls"] > 0


@pytest.mark.parametrize("trace, key", [(0, "end_to_end"), (1, "per_layer")])
def test_result_line_names_every_metric(trace, key):
    proc = bench("--workload", "battery", "--seed", "3", "--seconds", "1", "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["attempted"] >= 1
    want = {m["name"]: m["unit"] for m in SPEC[key]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == want


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "battery", "--seed", "1", "--seconds", "1", "--trace", "0",
                 cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
