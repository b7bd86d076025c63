#!/usr/bin/env python3
"""Self-test of the benchmark: its model guards must repeat exactly.

    python3 perfbench/selftest.py [--workload NAME]

For each workload it makes two traced runs of seed 0 and checks that the
outcome digest, the virtual metrics and every per-layer count are
identical, and that both runs pass their own checks.  Then one run of
seed 1 must pass too and give another digest.  Host times are not
compared.  Exits non-zero on any difference.  Takes about two minutes.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
RUN = os.path.join(HERE, "run.py")

#: Per-layer metrics derived from host time, which no run repeats.
HOST_TIMED = ("import_s", "cluster.build_s", "trace.overhead",
              "sim.host_us_per_event")


def bench(workload: str, seed: int, trace: int) -> tuple[dict, dict]:
    """One benchmark run: (detail line, result line)."""
    proc = subprocess.run(
        [sys.executable, RUN, "--workload", workload, "--seed", str(seed),
         "--seconds", "0", "--trace", str(trace)],
        capture_output=True, text=True, timeout=300, check=False)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed}: run failed\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    detail = next(json.loads(line[len("detail "):]) for line in lines
                  if line.startswith("detail "))
    return detail, json.loads(lines[-1])


def must_repeat(detail: dict, result: dict) -> dict:
    """Everything that must repeat exactly for one seed."""
    counts = {k: v["value"] for k, v in result["metrics"].items()
              if not k.endswith(".self_s") and k not in HOST_TIMED}
    return {"guards": detail["guards"], "attempted": result["attempted"],
            "failed": result["failed"], "counts": counts}


def check(workload: str) -> list[str]:
    errors = []
    first = bench(workload, 0, trace=1)
    second = bench(workload, 0, trace=1)
    other = bench(workload, 1, trace=0)
    for detail, result in (first, second, other):
        if not result["correct"]:
            errors.append(f"seed {detail['seed']} failed its checks: "
                          f"{detail['problems']}")
    a, b = must_repeat(*first), must_repeat(*second)
    for key in a:
        if a[key] != b[key]:
            errors.append(f"seed 0 twice: {key} differs: {a[key]} != {b[key]}")
    if other[0]["guards"]["digest"] == a["guards"]["digest"]:
        errors.append("seeds 0 and 1 gave the same digest")
    return errors


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default=None)
    args = parser.parse_args()
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
        names = [w["name"] for w in json.load(fh)["workloads"]]
    if args.workload:
        names = [args.workload]
    failed = False
    for name in names:
        errors = check(name)
        failed = failed or bool(errors)
        print(f"{name}: {'FAIL' if errors else 'ok'}")
        for err in errors:
            print(f"  {err}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
