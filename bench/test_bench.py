"""Smoke test of the benchmark at a tiny size.

    python3 -m pytest bench/test_bench.py -q

Runs every workload once untraced and twice traced with the same seed, and
checks that every metric named in BENCHMARK.json is printed with its unit,
that no verdict disagrees with the reference, and that the exact per-op
counts repeat.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
TINY = ["--seed", "3", "--seconds", "0.2", "--inputs", "6", "--setup-runs", "1"]


def _run(args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, str(Path(cwd) / "bench" / "run.py"), *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=300,
    )


def _result(args):
    out = _run([*args, *TINY])
    assert out.returncode == 0, out.stderr
    lines = out.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert lines[-2].startswith("record: ")
    return result, json.loads(lines[-2][len("record: ") :])


def _assert_metrics(result, specs):
    assert set(result["metrics"]) == {m["name"] for m in specs}
    for spec in specs:
        metric = result["metrics"][spec["name"]]
        assert metric["unit"] == spec["unit"]
        assert isinstance(metric["value"], float)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics_and_no_errors(workload):
    result, record = _result(["--workload", workload, "--trace", "0"])
    _assert_metrics(result, SPEC["end_to_end"])
    assert result["correct"] is True
    assert result["failed"] == 0 and record["error_rate"] == 0.0
    assert result["attempted"] >= 6
    assert record["oracle_self_check"] == "ok"
    for key in ("commit", "python", "numpy", "nproc", "seed", "blas_threads"):
        assert key in record
    assert record["timed_ops"] >= 6 and record["whole_passes"] >= 1


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_counts_repeat_for_a_seed(workload):
    runs = [_result(["--workload", workload, "--trace", "1"]) for _ in range(2)]
    for result, record in runs:
        assert (ROOT / record["spans_file"]).is_file()
        _assert_metrics(result, SPEC["per_layer"])
        assert result["correct"] is True and result["failed"] == 0
    exact = [
        m["name"]
        for m in SPEC["per_layer"]
        if m["name"].endswith((".calls", ".rejects"))
        or m["name"] in ("foliation.lattice_points", "foliation.directions")
    ]
    first, second = ({name: r["metrics"][name]["value"] for name in exact} for r, _ in runs)
    assert first == second


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    out = _run(["--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1"], cwd=tmp_path)
    assert out.returncode != 0
    assert '"metrics"' not in out.stdout
