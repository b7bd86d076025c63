"""Set-up probe: one fresh interpreter from import to the first event.

``run.py`` starts this script several times per run and takes the median.
It imports the modules a workload drives, builds the cluster that
workload's first operation builds, processes one simulated event, and
prints one JSON line::

    {"import_s": ..., "build_s": ..., "first_event_at": ...}

``first_event_at`` is a ``time.perf_counter()`` reading.  On Linux that
clock is the system-wide monotonic clock, so the parent subtracts its own
reading taken just before it started this process: the difference is
``setup_s``, interpreter start-up included.

This module imports nothing from ``repro`` at load time; everything
``repro`` costs is inside the timed region.
"""

from __future__ import annotations

import importlib
import json
import sys
import time

#: The modules each workload's body imports.
MODULES = {
    "paper_figures": ("repro.analysis.experiments.fig09",
                      "repro.analysis.experiments.fig10",
                      "repro.analysis.experiments.fig11"),
    "jobs_ensemble": ("repro.workloads.ensemble",),
    "tenants_open": ("repro.workloads.tenants",),
    "collective_p2p": ("repro.workloads.collective",),
}


def build_cluster(workload: str):
    """The cluster shape the workload's first operation builds."""
    from repro.cluster import Cluster, ClusterSpec, paper_testbed
    from repro.netsim import TopologySpec

    if workload == "paper_figures":  # fig09's first remote point
        return Cluster(paper_testbed(n_compute=1, n_accelerators=1))
    if workload == "jobs_ensemble":  # EnsembleConfig defaults
        return Cluster(paper_testbed(n_compute=2, n_accelerators=4))
    if workload == "tenants_open":  # TenantWorkloadConfig defaults
        return Cluster(paper_testbed(n_compute=4, n_accelerators=8))
    if workload == "collective_p2p":  # CollectiveConfig defaults
        return Cluster(ClusterSpec(
            n_compute=1, n_accelerators=8,
            topology=TopologySpec(kind="torus2d", dims=(2, 2))))
    raise SystemExit(f"setup_probe: unknown workload {workload!r}")


def main(workload: str) -> None:
    if workload not in MODULES:
        raise SystemExit(f"setup_probe: unknown workload {workload!r}")
    t0 = time.perf_counter()
    for name in MODULES[workload]:
        importlib.import_module(name)
    t1 = time.perf_counter()
    cluster = build_cluster(workload)
    t2 = time.perf_counter()
    cluster.engine.step()
    t3 = time.perf_counter()
    print(json.dumps({"import_s": t1 - t0, "build_s": t2 - t1,
                      "first_event_at": t3}))


if __name__ == "__main__":
    main(sys.argv[1])
