#!/usr/bin/env python3
"""Record each workload's guards per seed into expected.json.

    python3 perfbench/record_expected.py --seeds 0-31

The guards are the outcome digest and the virtual metrics.  Every
benchmark run compares its own with those recorded here for its seed, and
counts a mismatch as failed operations.  Only runs in which no operation
failed are recorded.  Re-record only for a change that is meant to move
the model's outputs, and say so where the change is described.
"""

from __future__ import annotations

import os

# The same pins as run.py: results computed by BLAS, and so the digests,
# may depend on the thread count.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from workloads import WORKLOADS  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", default="0-31",
                        help="inclusive range, e.g. 0-31")
    parser.add_argument("--workload", choices=tuple(WORKLOADS),
                        default=None, help="only this workload")
    args = parser.parse_args()
    lo, hi = (int(x) for x in args.seeds.split("-"))
    path = os.path.join(HERE, "expected.json")
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except FileNotFoundError:
        doc = {}
    names = [args.workload] if args.workload else list(WORKLOADS)
    for name in names:
        table = doc.setdefault(name, {})
        for seed in range(lo, hi + 1):
            out = WORKLOADS[name](seed)
            if out.failed:
                print(f"{name} seed {seed}: not recorded, {out.problems}")
                continue
            table[str(seed)] = out.guards()
            print(f"{name} seed {seed}: {out.digest[:16]}", flush=True)
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
