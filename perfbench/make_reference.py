"""Record the reference cell means that the sweep checks compare against.

    python3 perfbench/make_reference.py

Runs each sweep grid once at a large sample count, with a master seed that
no benchmark pass uses, and writes perfbench/reference.json.  Re-record only
when a change to the program is meant to change the QBER statistics, and
say so in the change.
"""

from __future__ import annotations

import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import speed  # noqa: E402
import workloads  # noqa: E402

#: above 2**32, so no pass seed drawn by workloads.prepare can equal it
REFERENCE_SEED = 2**33 + 1810
REFERENCE_SAMPLES = 600
#: results are the same at any jobs value; two keeps the run short on two cores
JOBS = 2


def main() -> int:
    payload = {"seed": REFERENCE_SEED, "samples": REFERENCE_SAMPLES, "machine": speed.machine()}
    for name in ("ref-sweep", "bg-study"):
        sweep = workloads.Sweep(name, [], REFERENCE_SAMPLES, JOBS)
        payload[name] = {
            key: {"mean": mean, "std": std, "n": n}
            for direction in workloads.DIRECTIONS
            for key, mean, std, n in sweep.arms(sweep.call(direction, REFERENCE_SEED, JOBS))
        }
    with open(workloads.REFERENCE_PATH, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
