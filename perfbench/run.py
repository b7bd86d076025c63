#!/usr/bin/env python3
"""The repo benchmark: host throughput, set-up time and model guards.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload paper_figures --seed 0 --seconds 30
    python3 perfbench/run.py --workload all                # every workload
    python3 perfbench/run.py --workload all --trace 1      # per-layer table

One run is one fresh, single-threaded process (BLAS and OpenMP are pinned
to one thread before numpy loads).  It measures the workload's set-up in
fresh interpreters, then repeats the workload body for ``--seconds``
seconds with tracing off, checking every repetition's outputs.  Between
all of these it times a fixed loop in a child process (``hostref.py``)
and reports both host times at that loop's nominal speed.  With
``--trace 1`` it adds one repetition under cProfile and reports the
per-layer table instead of the end-to-end one.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``failed`` over
``attempted`` is the workload's ``failed_share``.  See README.md.
"""

from __future__ import annotations

import os

#: Pinned before numpy is imported anywhere in this process or its
#: children: a second BLAS thread only adds CPU load and noise here.
THREAD_PINS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_PINS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import cProfile  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

import hostref  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
PROBE = os.path.join(HERE, "setup_probe.py")
EXPECTED = os.path.join(HERE, "expected.json")

WORKLOAD_NAMES = ("paper_figures", "jobs_ensemble", "tenants_open",
                  "collective_p2p")
#: Share of each repetition's host time spent on the host reference.
REF_SHARE = 0.1
#: Fresh interpreters started per run to time set-up; the median counts.
SETUP_REPS = 5

#: name -> unit, in print order.
END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "peak_rss_mib": "MiB",
    "virtual_s": "s",
    "virtual_p50_s": "s",
    "virtual_p99_s": "s",
}
PER_LAYER = {
    **{f"{layer}.self_s": "s" for layer in (
        "sim", "mpisim", "netsim", "gpusim", "core", "core.daemon",
        "core.coalesce", "core.arm", "jobs", "buffers", "obs", "numpy",
        "workloads", "other")},
    "sim.events": "count",
    "sim.cancelled_share": "ratio",
    "sim.host_us_per_event": "us",
    "netsim.transfers": "count",
    "netsim.events_per_transfer": "ratio",
    "netsim.transfers_per_copy": "ratio",
    "mpisim.isends": "count",
    "core.copies": "count",
    "core.rpcs": "count",
    "core.events_per_rpc": "ratio",
    "core.rpc_timeouts": "count",
    "core.coalesce.merged_ratio": "ratio",
    "core.arm.preemptions": "count",
    "jobs.kernel_cache_hit_rate": "ratio",
    "jobs.alloc_cache_hit_rate": "ratio",
    "jobs.leases_reused": "count",
    "import_s": "s",
    "cluster.build_s": "s",
    "trace.overhead": "ratio",
}


def child_env() -> dict[str, str]:
    """Environment for child interpreters: the source tree on the path."""
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ,
                PYTHONPATH=SRC + (os.pathsep + path if path else ""))


def environment() -> dict:
    """What the numbers depend on besides the code."""
    import numpy

    threads = None
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("Threads:"):
                    threads = int(line.split()[1])
    except OSError:
        pass
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:
        cpus = os.cpu_count()
    return {
        "nproc": cpus,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "thread_pins": {v: os.environ[v] for v in THREAD_PINS},
        "process_threads": threads,
        # Without .pyc files every import compiles, which shows in setup_s.
        "writes_bytecode": not sys.dont_write_bytecode,
        "platform": platform.platform(),
    }


def recorded(workload: str, seed: int) -> dict | None:
    """The guards recorded in expected.json for this seed, if any."""
    try:
        with open(EXPECTED) as fh:
            return json.load(fh).get(workload, {}).get(str(seed))
    except FileNotFoundError:
        return None


def _differ(a: dict, b: dict) -> str:
    return ", ".join(k for k in a if a[k] != b.get(k))


class Run:
    """The repetitions of one workload in this process, and their checks."""

    def __init__(self, workload: str, seed: int, ref: hostref.HostRef):
        from workloads import WORKLOADS

        self.workload = workload
        self.body = WORKLOADS[workload]
        self.ref = ref
        self.seed = seed
        self.expected = recorded(workload, seed)
        self.times: list[float] = []
        #: Seconds of each host reference pass, taken between the set-up
        #: probes and between the repetitions.
        self.setup_ref: list[float] = []
        self.body_ref: list[float] = []
        #: One dict per fresh interpreter timed by ``setup()``.
        self.setup_samples: list[dict] = []
        #: Operations completed per untraced repetition.
        self.done: list[int] = []
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.first = None

    def rep(self):
        """One checked repetition: (host seconds, operations completed)."""
        gc.collect()
        t0 = time.perf_counter()
        out = self.body(self.seed)
        dt = time.perf_counter() - t0
        failed = out.failed
        problems = list(out.problems)
        guards = out.guards()
        if self.first is None:
            self.first = out
        elif guards != self.first.guards():
            failed = out.ops
            problems.append("repetition differs from the first in "
                            + _differ(guards, self.first.guards()))
        if self.expected is not None and guards != self.expected:
            failed = out.ops
            problems.append(f"seed {self.seed} differs from expected.json in "
                            + _differ(guards, self.expected))
        self.attempted += out.ops
        self.failed += failed
        self.problems.extend(p for p in problems if p not in self.problems)
        return dt, out.ops - failed

    def reference(self, into: list[float], budget: float) -> None:
        """Time the host reference for ``budget`` seconds (at least once)."""
        spent = 0.0
        while not spent or spent < budget:
            dt = self.ref.sample()
            into.append(dt)
            spent += dt

    def setup(self) -> None:
        """Time ``SETUP_REPS`` fresh interpreters up to their first event.

        The host reference runs once before the first and after each, for
        a tenth of that interpreter's time.
        """
        self.reference(self.setup_ref, 0.0)
        for _ in range(SETUP_REPS):
            t0 = time.perf_counter()
            proc = subprocess.run([sys.executable, PROBE, self.workload],
                                  env=child_env(), capture_output=True,
                                  text=True, timeout=120, check=False)
            if proc.returncode != 0:
                raise SystemExit(f"setup probe failed:\n{proc.stderr}")
            doc = json.loads(proc.stdout.strip().splitlines()[-1])
            self.setup_samples.append({"setup_s": doc["first_event_at"] - t0,
                                       "import_s": doc["import_s"],
                                       "build_s": doc["build_s"]})
            self.reference(self.setup_ref,
                           REF_SHARE * (time.perf_counter() - t0))

    def untraced(self, seconds: float) -> None:
        """Repeat the body until ``seconds`` have passed (at least once).

        After each repetition the host reference runs for a tenth of that
        repetition's time, so its samples spread over the run as the
        repetitions do.
        """
        start = time.perf_counter()
        while not self.times or time.perf_counter() - start < seconds:
            dt, done = self.rep()
            self.times.append(dt)
            self.done.append(done)
            self.reference(self.body_ref, REF_SHARE * dt)


def host_factor(ref_times: list[float]) -> float:
    """How much slower than nominal the host ran the reference loop."""
    return statistics.median(ref_times) / hostref.NOMINAL_S


def raw_ops_per_s(run: Run) -> float:
    """Completed operations per host second of all untraced repetitions."""
    return sum(run.done) / sum(run.times)


def end_to_end(run: Run) -> dict[str, float]:
    out = run.first
    setup = statistics.median(s["setup_s"] for s in run.setup_samples)
    return {
        "setup_s": setup / host_factor(run.setup_ref),
        "ops_per_s": raw_ops_per_s(run) * host_factor(run.body_ref),
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
        "virtual_s": out.virtual_s,
        "virtual_p50_s": out.virtual_p50_s,
        "virtual_p99_s": out.virtual_p99_s,
    }


def per_layer(run: Run) -> dict[str, float]:
    import layers

    prof = cProfile.Profile()
    prof.enable()
    traced, _done = run.rep()
    prof.disable()
    prof.create_stats()
    untraced = statistics.median(run.times)
    metrics = {f"{k}.self_s": v for k, v in layers.fold(prof.stats).items()}
    metrics.update(layers.counts(prof.stats))
    metrics.update({k: 0.0 for k in ("core.coalesce.merged_ratio",
                                     "jobs.kernel_cache_hit_rate",
                                     "jobs.alloc_cache_hit_rate",
                                     "jobs.leases_reused")})
    metrics.update(run.first.report)  # the workload's own report wins
    events = metrics["sim.events"]
    metrics["sim.host_us_per_event"] = (untraced / events * 1e6
                                        if events else 0.0)
    setup = run.setup_samples
    metrics["import_s"] = statistics.median(s["import_s"] for s in setup)
    metrics["cluster.build_s"] = statistics.median(s["build_s"]
                                                   for s in setup)
    metrics["trace.overhead"] = traced / untraced
    return {k: metrics[k] for k in PER_LAYER}


def print_table(metrics: dict[str, float], units: dict[str, str]) -> None:
    for name, value in metrics.items():
        print(f"  {name:28s} {value:>18.6g} {units[name]}")


def pin_to_one_cpu() -> int | None:
    """Pin this process, and so every process it starts, to one CPU.

    On a shared VM other tenants slow its CPUs independently of each
    other, so the host reference tracks the body only on the body's CPU.
    """
    if not hasattr(os, "sched_setaffinity"):
        return None
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def run_one(args: argparse.Namespace) -> int:
    env = environment()
    env["pinned_cpu"] = pin_to_one_cpu()
    with hostref.HostRef() as ref:
        run = Run(args.workload, args.seed, ref)
        run.setup()
        run.untraced(args.seconds)
    units = PER_LAYER if args.trace else END_TO_END
    metrics = per_layer(run) if args.trace else end_to_end(run)
    detail = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "rep_host_s": run.times, "done_per_rep": run.done,
        "raw_ops_per_s": raw_ops_per_s(run),
        "host_factor": {"setup": host_factor(run.setup_ref),
                        "body": host_factor(run.body_ref)},
        "ref_host_s": {"setup": run.setup_ref, "body": run.body_ref},
        "guards": run.first.guards(),
        "guards_recorded": run.expected is not None,
        "failed_share": run.failed / run.attempted,
        "problems": run.problems,
        "setup": run.setup_samples,
        "env": env,
    }
    print("detail " + json.dumps(detail))
    print(f"{args.workload} seed {args.seed}: {len(run.times)} untraced "
          f"reps{' + 1 traced' if args.trace else ''}, {run.attempted} ops, "
          f"{run.failed} failed, p50/p99 over {run.first.samples} samples")
    for problem in run.problems:
        print(f"  FAILED: {problem}")
    print_table(metrics, units)
    print(f"  {'failed_share':28s} {run.failed / run.attempted:>18.6g} "
          f"share")
    print(json.dumps({
        "correct": run.failed == 0 and not run.problems,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": v, "unit": units[k]}
                    for k, v in metrics.items()},
    }))
    return 0


def run_all(args: argparse.Namespace) -> int:
    """Each workload in its own fresh process; one combined table."""
    units = PER_LAYER if args.trace else END_TO_END
    results = {}
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=600, check=False)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            sys.stderr.write(proc.stderr)
            raise SystemExit(f"{name}: benchmark run failed "
                             f"(exit {proc.returncode})")
        for line in lines[:-1]:
            if not line.startswith("detail "):
                print(line)
        results[name] = json.loads(lines[-1])
    width = max(len(n) for n in WORKLOAD_NAMES)
    print()
    print(f"{'metric':28s} {'unit':6s} "
          + " ".join(f"{n:>{width}s}" for n in WORKLOAD_NAMES))
    rows = list(units) + ["failed_share"]
    for metric in rows:
        cells = []
        for name in WORKLOAD_NAMES:
            res = results[name]
            value = (res["failed"] / res["attempted"]
                     if metric == "failed_share"
                     else res["metrics"][metric]["value"])
            cells.append(f"{value:>{width}.6g}")
        print(f"{metric:28s} {units.get(metric, 'share'):6s} "
              + " ".join(cells))
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{name}/{k}": v for name, r in results.items()
                    for k, v in r["metrics"].items()},
    }))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0,
                        help="host seconds of untraced repetitions")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: per-layer table from a cProfile run")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"no repro sources under {SRC}: run from a checkout",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, SRC)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
