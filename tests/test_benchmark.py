"""The benchmark's traced run completes on every workload.

The per-layer metrics of ``perfbench/run.py --trace 1`` divide by the
number of calls to the functions it wraps in ``polalign.montecarlo`` and
``polalign.cli`` (``run_trial``, ``optimize``, the reconstructions, ...).
A change that stops calling one of them per trial breaks the benchmark;
this test shows it in the test suite, on the benchmark's tiny inputs.
"""

import json
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _f:
    BENCHMARK = json.load(_f)


@pytest.mark.parametrize("workload", [w["name"] for w in BENCHMARK["workloads"]])
def test_traced_run(workload):
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1",
         "--seconds", "0.01", "--trace", "1", "--size", "tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert result["correct"] is True
    for metric in BENCHMARK["per_layer"]:
        assert metric["name"] in result["metrics"]
