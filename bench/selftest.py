"""Self-test of the benchmark harness (not part of the package's test suite).

Run from the repository root:

    python3 -m pytest -q bench/selftest.py

Short runs of each workload print every metric named in BENCHMARK.json
with its unit; a corrupted reference value makes ops fail; and the
benchmark refuses to run without the package source.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SHORT_OPS = {"ed_roots": 2, "bae_scan": 1, "thermo_sweep": 60}


def run(*args, cwd=ROOT):
    cmd = [sys.executable, "bench/run.py", "--seed", "3", "--seconds", "1", *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=600)


def result_of(proc) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_short_run_prints_every_metric(workload, trace):
    proc = run("--workload", workload, "--trace", str(trace),
               "--ops", str(SHORT_OPS[workload]))
    result = result_of(proc)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in expected}
    for m in expected:
        entry = result["metrics"][m["name"]]
        assert entry["unit"] == m["unit"]
        assert isinstance(entry["value"], (int, float))
        assert f"{workload} {m['name']} = " in proc.stdout
    if not trace:
        assert all(result["metrics"][m["name"]]["value"] > 0 for m in expected)


def test_traced_self_times_account_for_wall():
    result = result_of(run("--workload", "ed_roots", "--trace", "1", "--ops", "2"))
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert metrics["hamiltonian.direct.calls"] == 2
    assert metrics["hamiltonian.direct.bytes"] == 2 * 16 * 4 ** 8
    assert metrics["trace.self_sum_s"] == pytest.approx(metrics["trace.wall_s"], rel=1e-9)


def test_all_runs_each_workload():
    result = result_of(run("--workload", "all", "--ops", "1"))
    assert result["correct"]
    names = {f"{w['name']}.{m['name']}" for w in SPEC["workloads"] for m in SPEC["end_to_end"]}
    assert set(result["metrics"]) == names


def test_corrupted_reference_fails(tmp_path):
    refs = json.loads((BENCH_DIR / "references.json").read_text())
    refs["ed"]["8"]["I"][0] += 1e-6     # the first op of the unshuffled ed batch
    bad = tmp_path / "references.json"
    bad.write_text(json.dumps(refs))
    proc = run("--workload", "ed_roots", "--ops", "1", "--references", str(bad))
    result = result_of(proc)
    assert not result["correct"]
    assert result["failed"] == result["attempted"] >= 1   # every run of the one op
    detail = json.loads(proc.stdout.splitlines()[-2].removeprefix("detail "))
    assert detail["fail_frac"] > 0


def test_refuses_to_run_without_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = run("--workload", "ed_roots", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert not any(line.startswith("{") for line in proc.stdout.splitlines())
