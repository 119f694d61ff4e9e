"""The pmodcalc benchmark.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload corpus --seed 0 --seconds 32 --trace 0

An untraced run measures in SEGMENTS fresh interpreters, one after another,
that share the --seconds between them.  Each sets up pmodcalc and the
reference (a frozen copy of pmodcalc, see worker.py) on the same inputs,
then repeats passes in which every item runs next to its reference item.
Times are reported as they would read on a quiet host: the program's time
over the reference's time next to it, times the reference's time on a quiet
host for seed 0 (reference/quiet.json).  A
traced run (--trace 1) is one interpreter without the reference.  The last
line of standard output is one JSON object with the keys correct, attempted,
failed and metrics; a summary of the run goes to standard error.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

import workloads
from worker import latency_metrics

HERE = os.path.dirname(os.path.abspath(__file__))
QUIET = os.path.join(HERE, "reference", "quiet.json")
SEGMENTS = 4
# All processes of one run end within this many seconds.
RUN_LIMIT_S = 170


def worker(args, root, out_dir, seconds, deadline):
    src = os.path.join(root, "src")
    # Every import compiles from source, so set-up time does not depend on
    # whether an earlier run left bytecode behind.
    env = dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED="0",
               PYTHONDONTWRITEBYTECODE="1")
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(seconds), "--trace", str(args.trace),
           "--out", out_dir]
    proc = subprocess.run(cmd, cwd=root, env=env, capture_output=True, text=True,
                          timeout=max(1.0, deadline - time.monotonic()))
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"perfbench: worker exited {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def measure_segments(args, root, out_dir, deadline):
    """Run SEGMENTS untraced workers; each gets an equal share of the
    measuring time the workers before it left over."""
    segments, measured = [], 0.0
    for i in range(SEGMENTS):
        share = max(0.0, args.seconds - measured) / (SEGMENTS - i)
        segments.append(worker(args, root, out_dir, share, deadline))
        measured += segments[-1]["measured_s"]
    return segments


def untraced_metrics(segments, quiet):
    """The end-to-end metrics of the segments of one run.  setup_s is the
    median over segments of the set-up time over the reference's set-up
    time just after it, times the reference's set-up time on a quiet host."""
    passes = [lat for seg in segments for lat in seg["passes"]]
    ref_passes = [lat for seg in segments for lat in seg["ref_passes"]]
    metrics = latency_metrics(passes, ref_passes, quiet["items_s"])
    setup = statistics.median(seg["setup_s"] / seg["ref_setup_s"] for seg in segments)
    metrics["setup_s"] = {"value": setup * quiet["setup_s"], "unit": "s"}
    metrics["peak_rss_mib"] = {"value": max(seg["peak_rss_mib"] for seg in segments),
                               "unit": "MiB"}
    return metrics


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=list(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=int, default=32)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not 1 <= args.seconds <= 60:
        ap.error("--seconds must be within 1..60")

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "pmodcalc", "__init__.py")):
        print("perfbench: no src/pmodcalc here; run from the root of a checkout",
              file=sys.stderr)
        return 2
    out_dir = os.path.join(HERE, "out")
    os.makedirs(out_dir, exist_ok=True)

    deadline = time.monotonic() + RUN_LIMIT_S
    try:
        if args.trace:
            segments = [worker(args, root, out_dir, args.seconds, deadline)]
            metrics = segments[0].pop("metrics")
        else:
            segments = measure_segments(args, root, out_dir, deadline)
            with open(QUIET, encoding="utf-8") as fh:
                metrics = untraced_metrics(segments, json.load(fh)[args.workload])
    except subprocess.TimeoutExpired as exc:
        print(f"perfbench: worker timed out after {exc.timeout} s", file=sys.stderr)
        return 3
    attempted = sum(seg["attempted"] for seg in segments)
    failed = sum(seg["failed"] for seg in segments)
    detail = {"workload": args.workload, "seed": args.seed,
              "pinned": segments[0]["pinned"],
              "items_per_pass": segments[0]["items_per_pass"],
              "errors": [seg["errors"] for seg in segments if seg["errors"]]}
    if args.trace:
        detail["span_file"] = segments[0]["span_file"]
    else:
        detail.update(
            passes=[len(seg["passes"]) for seg in segments],
            pass_walls_s=[[round(sum(lat), 3) for lat in seg["passes"]] for seg in segments],
            ref_pass_walls_s=[[round(sum(lat), 3) for lat in seg["ref_passes"]]
                              for seg in segments],
            setup_samples_s=[seg["setup_s"] for seg in segments],
            ref_setup_samples_s=[seg["ref_setup_s"] for seg in segments])
    print(json.dumps(detail), file=sys.stderr)
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
