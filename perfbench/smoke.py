"""Smoke test of the benchmark itself, at a tiny size.

    python3 perfbench/smoke.py

Run from the root of a source checkout.  It

1. runs every workload through run.py at ``--size tiny``, with and without
   tracing, and asserts that the checks pass and that every metric named
   in BENCHMARK.json is printed with its unit;
2. plants wrong outputs in the program and asserts that the checks catch
   them: ``align`` angles shifted by 0.2 rad, a ``timing-check`` that
   always names broken timing, and sweep QBERs scaled by ten.

Exits 0 when every assertion holds.
"""

from __future__ import annotations

import dataclasses
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def _run(workload: str, trace: int) -> dict:
    done = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload, "--seed", "1",
         "--seconds", "1", "--trace", str(trace), "--size", "tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert done.returncode == 0, (
        f"{workload} trace={trace} exited {done.returncode}:\n{done.stdout}{done.stderr}"
    )
    return json.loads(done.stdout.splitlines()[-1])


def check_metrics_printed():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, declared in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            result = _run(workload, trace)
            assert set(result) == {"correct", "attempted", "failed", "metrics"}, result
            assert result["correct"] is True, (workload, trace, result)
            assert result["attempted"] >= 1, result
            printed = result["metrics"]
            assert set(printed) == {m["name"] for m in declared}, (workload, trace, sorted(printed))
            for m in declared:
                assert printed[m["name"]]["unit"] == m["unit"], (workload, m)
                assert isinstance(printed[m["name"]]["value"], float), (workload, m)
            print(f"smoke: {workload} trace={trace} prints all {len(declared)} metrics")


def _expect_check_failure(workloads, name: str, module, attr: str, fake):
    workdir = os.path.join(ROOT, ".bench_build", "perfbench", f"smoke-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    original = getattr(module, attr)
    try:
        inputs = workloads.prepare(name, 1, workdir, "tiny")
        workloads.measure(name, inputs, 0.1, False)  # unplanted: must pass
        setattr(module, attr, fake(original))
        try:
            workloads.measure(name, inputs, 0.1, False)
        except workloads.CheckFailed as exc:
            print(f"smoke: planted fault in {module.__name__}.{attr} caught: {exc}")
            return
        raise AssertionError(f"planted fault in {module.__name__}.{attr} was not caught")
    finally:
        setattr(module, attr, original)
        shutil.rmtree(workdir, ignore_errors=True)


def check_planted_faults():
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from polalign import WavePlateAngles, cli, montecarlo
    from polalign.timing import AlignmentStatus
    import workloads

    def shifted_angles(optimize):
        def fake(*args, **kwargs):
            result = optimize(*args, **kwargs)
            t1, t2, t3 = result.angles.as_tuple()
            return dataclasses.replace(result, angles=WavePlateAngles(t1 + 0.2, t2, t3))
        return fake

    def always_timing(classify):
        def fake(*args, **kwargs):
            verdict = classify(*args, **kwargs)
            return dataclasses.replace(verdict, status=AlignmentStatus.TIMING_MISALIGNED)
        return fake

    def scaled_qber(residual_qber):
        return lambda *args, **kwargs: 10.0 * residual_qber(*args, **kwargs)

    _expect_check_failure(workloads, "startup", cli, "optimize", shifted_angles)
    _expect_check_failure(workloads, "startup", cli, "classify", always_timing)
    _expect_check_failure(workloads, "ref-sweep", montecarlo, "residual_qber", scaled_qber)


def main() -> int:
    check_metrics_printed()
    check_planted_faults()
    print("smoke: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
