"""End-to-end runs of the benchmark command, each a few seconds long."""

import json
import os
import shutil
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    SPEC = json.load(fh)

REPEATED_COUNTS = ("loss.cell_updates", "decode.prune.candidates", "decode.prune.kept",
                   "decode.prune.keep_ratio", "decode.lm.calls")


def bench(*args, cwd=ROOT):
    proc = subprocess.run([sys.executable, "benchmarks/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)
    return proc


def result(*args):
    proc = bench(*args)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_untraced_run_reports_every_end_to_end_metric():
    out = result("--workload", "decode-fused", "--seed", "4", "--seconds", "1", "--trace", "0")
    assert out["correct"] and out["failed"] == 0 and out["attempted"] >= 1
    assert list(out["metrics"]) == [m["name"] for m in SPEC["end_to_end"]]
    assert all(v["value"] > 0 for v in out["metrics"].values())


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_traced_counts_repeat_exactly(workload):
    args = ("--workload", workload, "--seed", "9", "--seconds", "1", "--trace", "1")
    first, second = result(*args), result(*args)
    assert first["correct"] and second["correct"]
    names = [m["name"] for m in SPEC["per_layer"]]
    assert list(first["metrics"]) == names
    counts = [k for k in names if k.endswith(".calls") or k in REPEATED_COUNTS]
    assert {k: first["metrics"][k] for k in counts} == {k: second["metrics"][k] for k in counts}


def test_fails_without_the_library(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "benchmarks", ignore=shutil.ignore_patterns("out"))
    proc = bench("--workload", "train-toy", "--seed", "1", "--seconds", "1", "--trace", "0",
                 cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
