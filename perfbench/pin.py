"""Write perfbench/expected.json: the digest of every item of every workload
for the pinned seeds, computed with the sources under ./src.

Run from the root of a checkout:  python3 perfbench/pin.py
Re-pin only when a workload's inputs change on purpose, and say so.
"""

from __future__ import annotations

import json
import os
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(os.getcwd(), "src")]

import pmodcalc  # noqa: E402
import pmodcalc.cli  # noqa: E402,F401
import workloads  # noqa: E402

#: The default seed of run.py and one held-out seed.
PINNED_SEEDS = (0, 1000)


def main() -> int:
    pinned = {}
    os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
    for name in workloads.WORKLOADS:
        for seed in PINNED_SEEDS:
            with tempfile.TemporaryDirectory(dir=os.path.join(HERE, "out")) as tmp:
                items = workloads.build(name, pmodcalc, seed, tmp)
                digests = {}
                for item in items:
                    digest = json.loads(json.dumps(item.digest(item.run())))
                    errs = workloads.gate(item, digest, None)
                    if errs:
                        print(f"{name} {item.label}: {errs}", file=sys.stderr)
                        return 1
                    digests[item.label] = digest
            pinned.setdefault(name, {})[str(seed)] = digests
            print(f"{name} seed {seed}: {len(digests)} items", file=sys.stderr)
    with open(os.path.join(HERE, "expected.json"), "w", encoding="utf-8") as fh:
        json.dump(pinned, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
