"""One workload in one fresh interpreter: set up, measure, gate, report.

Run by run.py with ``PYTHONPATH`` pointing at the checkout's ``src``.  The
last line of standard output is one JSON object: the items attempted and
failed, and either the raw timings of an untraced run or, with
``--trace 1``, the per-layer metrics.

An untraced run also imports the reference, a frozen copy of pmodcalc
under ``reference/``, and builds the same inputs with it.  Every item runs
next to its reference item, so that the two see the same host; run.py
scales the program's times by the reference's.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import tracing  # noqa: E402
import workloads  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
PINNED = os.path.join(HERE, "expected.json")
REFERENCE = os.path.join(HERE, "reference")
MIN_PASSES = 1


def set_up(name, seed, tmpdir):
    """Import pmodcalc and build the workload's inputs; return (items, seconds)."""
    t0 = time.perf_counter()
    import pmodcalc
    import pmodcalc.cli  # noqa: F401  (analyze items call pmodcalc.cli.main)
    items = workloads.build(name, pmodcalc, seed, tmpdir)
    return items, time.perf_counter() - t0


def set_up_reference(name, seed, tmpdir):
    """Import the reference and build the workload's inputs with it; return
    (items, seconds)."""
    sys.path.insert(0, REFERENCE)
    t0 = time.perf_counter()
    import pmodcalc_ref
    import pmodcalc_ref.cli  # noqa: F401
    items = workloads.build(name, pmodcalc_ref, seed, tmpdir)
    return items, time.perf_counter() - t0


class Gate:
    """Checks each item's digest once in full, then for repeat equality."""

    def __init__(self, pinned):
        self.pinned = pinned
        self.first: dict[str, object] = {}
        self.errors: dict[str, list[str]] = {}

    def ok(self, item, result) -> bool:
        try:
            digest = json.loads(json.dumps(item.digest(result)))
        except (KeyError, TypeError, ValueError, AttributeError) as exc:
            self.errors.setdefault(item.label, []).append(f"no digest: {exc!r}")
            return False
        if item.label not in self.first:
            self.first[item.label] = digest
            errs = workloads.gate(item, digest, self.pinned)
        elif digest != self.first[item.label]:
            errs = ["differs from the first pass"]
        else:
            errs = []
        if errs:
            self.errors.setdefault(item.label, []).extend(errs)
        return not errs

    def failures(self, items, results) -> int:
        """Items of one pass that raised or failed the gate."""
        failed = 0
        for item, out in zip(items, results):
            if isinstance(out, Exception):
                self.errors.setdefault(item.label, []).append(
                    "raised " + "".join(traceback.format_exception(out)))
                failed += 1
            elif not self.ok(item, out):
                failed += 1
        return failed


def one_pass(items):
    """Run every item once; return (pass seconds, item latencies, results).

    An item that raises yields its exception as the result."""
    latencies, results = [], []
    clock = time.perf_counter
    t_pass = clock()
    for item in items:
        t0 = clock()
        try:
            out = item.run()
        except Exception as exc:
            out = exc
        latencies.append(clock() - t0)
        results.append(out)
    return clock() - t_pass, latencies, results


def timed_run(item):
    """Seconds one run of a reference item takes; it must not fail."""
    t0 = time.perf_counter()
    item.run()
    return time.perf_counter() - t0


def paired_pass(items, reference, reference_first):
    """Run every item once, each right after or right before its reference
    item; return (item latencies, reference latencies, results).  An item
    that raises yields its exception as the result."""
    latencies, ref_latencies, results = [], [], []
    for item, ref in zip(items, reference):
        if reference_first:
            ref_latencies.append(timed_run(ref))
        _, lat, out = one_pass([item])
        latencies.extend(lat)
        results.extend(out)
        if not reference_first:
            ref_latencies.append(timed_run(ref))
    return latencies, ref_latencies, results


def measure(items, reference, gate, seconds):
    """Repeat paired passes for about `seconds`, the reference first in
    every other pass: at least MIN_PASSES, and no pass begun that would end
    past `seconds`.  Return per-pass item and reference latencies,
    attempted, failed."""
    passes, ref_passes, failed = [], [], 0
    t0 = time.perf_counter()
    while True:
        lat, ref_lat, results = paired_pass(items, reference, len(passes) % 2 == 1)
        passes.append(lat)
        ref_passes.append(ref_lat)
        failed += gate.failures(items, results)
        del results
        gc.collect()
        if (len(passes) >= MIN_PASSES
                and time.perf_counter() - t0 + sum(lat) + sum(ref_lat) > seconds):
            return passes, ref_passes, len(passes) * len(items), failed


def latency_metrics(passes, ref_passes, quiet_s):
    """wall_s, item_p50_ms and item_tail_ms from paired per-pass latencies.

    An item's latency is the median over passes of its time over its
    reference item's time in the same pass, times the time of the reference
    item in that place on a quiet host (quiet_s): work elsewhere on a shared
    host slows an item and the reference run next to it alike, for minutes
    at a time, and the ratio cancels it.  wall_s sums the item latencies,
    item_p50_ms is their median and item_tail_ms their maximum, the slowest
    item."""
    ratios = [statistics.median(a / b for a, b in zip(col, ref_col))
              for col, ref_col in zip(zip(*passes), zip(*ref_passes))]
    best = [r * q for r, q in zip(ratios, quiet_s)]
    return {"wall_s": {"value": sum(best), "unit": "s"},
            "item_p50_ms": {"value": 1000 * statistics.median(best), "unit": "ms"},
            "item_tail_ms": {"value": 1000 * max(best), "unit": "ms"}}


def measure_traced(items, gate, seconds, span_file):
    """After one warm-up pass, alternate untraced and traced passes for about
    `seconds`; per-layer medians per traced pass, and the median over pairs
    of traced over untraced pass time."""
    _, _, results = one_pass(items)
    failed = gate.failures(items, results)
    attempted = len(items)
    del results
    ratios, per_pass = [], []
    t0 = time.perf_counter()
    while True:
        plain, _, results = one_pass(items)
        failed += gate.failures(items, results)
        del results
        gc.collect()
        with tracing.Tracer() as tracer:
            wall, _, results = one_pass(items)
        ratios.append(wall / plain)
        failed += gate.failures(items, results)
        per_pass.append(tracing.layer_metrics(tracer))
        if len(per_pass) == 1:
            tracer.write(span_file)
        attempted += 2 * len(items)
        del results, tracer
        gc.collect()
        if time.perf_counter() - t0 + plain + wall > seconds:
            break
    metrics = {name: {"value": statistics.median(p[name][0] for p in per_pass),
                      "unit": unit}
               for name, (_, unit) in per_pass[0].items()}
    metrics["trace.overhead_ratio"] = {"value": statistics.median(ratios), "unit": "ratio"}
    return metrics, attempted, failed


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", required=True)
    args = ap.parse_args(argv)

    tmpdir = tempfile.mkdtemp(prefix="inputs-", dir=args.out)
    try:
        items, setup_s = set_up(args.workload, args.seed, tmpdir)
        with open(PINNED, encoding="utf-8") as fh:
            pinned = json.load(fh).get(args.workload, {}).get(str(args.seed))
        gate = Gate(pinned)
        report = {"pinned": pinned is not None, "items_per_pass": len(items)}
        if args.trace:
            span_file = os.path.join(args.out, f"spans-{args.workload}-{args.seed}.jsonl")
            metrics, attempted, failed = measure_traced(items, gate, args.seconds,
                                                        span_file)
            report.update(metrics=metrics, span_file=os.path.relpath(span_file))
        else:
            # The end-to-end runs must have no wrapper installed.
            if tracing.installed():
                raise RuntimeError(f"tracing wrappers installed: {tracing.installed()[:3]}")
            ref_dir = os.path.join(tmpdir, "reference")
            os.mkdir(ref_dir)
            reference, ref_setup_s = set_up_reference(args.workload, args.seed, ref_dir)
            t0 = time.perf_counter()
            passes, ref_passes, attempted, failed = measure(items, reference, gate,
                                                             args.seconds)
            report.update(
                passes=passes, ref_passes=ref_passes, measured_s=time.perf_counter() - t0,
                setup_s=setup_s, ref_setup_s=ref_setup_s,
                peak_rss_mib=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
        report.update(attempted=attempted, failed=failed, errors=gate.errors)
        print(json.dumps(report))
        return 0
    finally:
        shutil.rmtree(tmpdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
