"""Run one workload of the polalign benchmark and print its result as JSON.

    python3 perfbench/run.py --workload ref-sweep --seed 1 --seconds 15 --trace 0

Run from the root of a source checkout; the program is imported from
``src``.  Set-up (import plus input generation) is timed in three fresh
interpreters, each scaled to the reference speed by the calibration loop of
speed.py, which the interpreter times just before and just after its set-up;
``setup_s`` is the median.  ``trials_per_s`` is scaled by calibrations
that a timer runs every 0.25 s while the work runs (speed.Calibrated).
With ``--trace 0`` the last line of standard output carries the end-to-end
metrics; with ``--trace 1`` it carries the per-layer metrics of a traced
``jobs=1`` run, and the spans are written to ``.bench_build/perfbench``.
The exit code is 0 when every output check passed, 1 when one failed and
2 when the benchmark cannot run.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time

import speed

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_build", "perfbench")
WORKLOADS = ("ref-sweep", "bg-study", "startup")
SETUP_PROBES = 3
PROBE_TIMEOUT_S = 60

# one BLAS thread per process, so load never exceeds the worker count
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--size", default="full", choices=("full", "tiny"),
                        help="tiny is for the smoke test only")
    parser.add_argument("--probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.seconds <= 0:
        parser.error("--seconds must be > 0")
    return args


def _setup(args, workdir):
    """Import the program and build the inputs; returns (seconds, workloads, inputs)."""
    t0 = time.perf_counter()
    sys.path.insert(0, SRC)
    import polalign  # noqa: F401  (the import is part of what is timed)
    import workloads

    inputs = workloads.prepare(args.workload, args.seed, workdir, args.size)
    elapsed = time.perf_counter() - t0
    imported = os.path.dirname(os.path.abspath(polalign.__file__))
    if imported != os.path.join(SRC, "polalign"):
        raise SystemExit(f"error: imported polalign from {imported}, not from this checkout")
    return elapsed, workloads, inputs


def _probe(args):
    """Print this fresh interpreter's set-up time at the reference speed."""
    workdir = os.path.join(WORK, f"probe-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        before = speed.calibration_s()
        elapsed, _, _ = _setup(args, workdir)
        after = speed.calibration_s()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps({"setup_s": elapsed * speed.REFERENCE_S / ((before + after) / 2.0)}))
    return 0


def _probe_setups(argv):
    env = dict(os.environ, TMPDIR=WORK)
    samples = []
    for _ in range(SETUP_PROBES):
        done = subprocess.run(
            [sys.executable, os.path.abspath(__file__), *argv, "--probe"],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S,
        )
        if done.returncode != 0:
            sys.stderr.write(done.stderr)
            raise SystemExit(f"error: set-up probe exited {done.returncode}")
        samples.append(json.loads(done.stdout.splitlines()[-1])["setup_s"])
    return samples


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = _parse(argv)
    if not os.path.isfile(os.path.join(SRC, "polalign", "__init__.py")):
        print(f"error: no polalign sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    os.makedirs(WORK, exist_ok=True)
    os.environ["TMPDIR"] = WORK
    if args.probe:
        return _probe(args)

    setups = [] if args.trace else _probe_setups(argv)
    workdir = os.path.join(WORK, f"{args.workload}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        _, workloads, inputs = _setup(args, workdir)
        print(f"machine: {speed.machine()}")
        trace_path = os.path.join(WORK, f"trace-{args.workload}-seed{args.seed}.jsonl")
        try:
            out = workloads.measure(args.workload, inputs, args.seconds, bool(args.trace),
                                    trace_path)
            correct = True
        except workloads.CheckFailed as exc:
            print(f"check failed: {exc}")
            out = {"attempted": 1, "failed": 1, "metrics": {}, "notes": []}
            correct = False
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for line in out["notes"]:
        print(line)
    metrics = dict(out["metrics"])
    if not args.trace:
        rss_kb = max(resource.getrusage(who).ru_maxrss
                     for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN))
        metrics["setup_s"] = (statistics.median(setups), "s")
        metrics["peak_rss_mb"] = (rss_kb / 1024.0, "MB")
        print("setup_s samples at the reference speed: " + ", ".join(f"{s:.4f}" for s in setups))
    print(json.dumps({
        "correct": correct,
        "attempted": out["attempted"],
        "failed": out["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in sorted(metrics.items())},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
