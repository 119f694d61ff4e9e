"""Write perfbench/reference/quiet.json: for every workload, the reference's
time for each item built from seed 0, and for its set-up, on a quiet host.

A quiet time is the fastest the reference ran in RUNS untraced runs of the
workload: other work on a shared host only ever slows a run down.  The
quiet times set the scale of every time the benchmark reports, and nothing
else, so re-calibrate only with the reference or the workloads, and say so.

Run from the root of a checkout:  python3 perfbench/calibrate.py
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

import run
import workloads

RUNS = 3
SECONDS = 32


def main() -> int:
    out_dir = os.path.join(run.HERE, "out")
    os.makedirs(out_dir, exist_ok=True)
    quiet = {}
    for name in workloads.WORKLOADS:
        args = argparse.Namespace(workload=name, seed=0, seconds=SECONDS, trace=0)
        segments = []
        for _ in range(RUNS):
            segments += run.measure_segments(args, os.getcwd(), out_dir,
                                             time.monotonic() + run.RUN_LIMIT_S)
        ref_passes = [lat for seg in segments for lat in seg["ref_passes"]]
        quiet[name] = {"setup_s": min(seg["ref_setup_s"] for seg in segments),
                       "items_s": [min(col) for col in zip(*ref_passes)]}
        print(f"{name}: {quiet[name]}", file=sys.stderr)
    with open(run.QUIET, "w", encoding="utf-8") as fh:
        json.dump(quiet, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
