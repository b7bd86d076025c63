"""Extension H: end-to-end batch execution on the live dynamic cluster.

Where Ext-C compares scheduling *policies* on an abstract model, this
study runs a real mixed workload — multi-GPU QR factorizations, GPU-burn
jobs and a CPU-only job with different accelerator demands — through the
:class:`~repro.jobs.JobService` front door on a fully simulated cluster
(Sect. V-B's batch-script flow: a job asks for N accelerators, starts once
they are free, and releases them when it ends).  One lease slot per device
makes every lease a whole device, as in the paper's static assignment.
Reported is what the operator would see: job waits, runtimes, and the
ARM's measured pool utilization, cross-checked against per-device
counters from :mod:`repro.analysis.metrics`.
"""

from __future__ import annotations

from ...cluster import Cluster, paper_testbed
from ...jobs import JobService, JobSpec
from ...mpisim import Phantom
from ...units import MiB
from ...workloads.linalg import qr_factorize
from ..metrics import collect
from ..series import FigureResult


def _job(name: str, body, n_gpus: int, arrival: float = 0.0) -> JobSpec:
    # One tenant per job: the service spreads tenants round-robin over
    # the compute nodes, which act as the jobs' gateways.
    return JobSpec(name=name, tenant=name, body=body,
                   n_accelerators=n_gpus, arrival_s=arrival)


def _qr_job(n: int, n_gpus: int) -> JobSpec:
    def body(ctx):
        res = yield from qr_factorize(ctx.engine, ctx.cpu,
                                      ctx.accelerators, n, nb=128)
        return res.gflops

    return _job(f"qr{n}x{n_gpus}g", body, n_gpus)


def _burn_job(name: str, items: int, n_gpus: int,
              arrival: float = 0.0) -> JobSpec:
    def body(ctx):
        ptrs = []
        for ac in ctx.accelerators:
            ptrs.append((yield from ac.mem_alloc(8 * MiB)))
        for _ in range(items):
            for ac, p in zip(ctx.accelerators, ptrs):
                yield from ac.memcpy_h2d(p, Phantom(8 * MiB))
                yield from ac.kernel_run(
                    "dgemm", {"A": 0, "B": 0, "C": 0,
                              "m": 1024, "n": 1024, "k": 1024}, real=False)
        for ac, p in zip(ctx.accelerators, ptrs):
            yield from ac.mem_free(p)
        return items

    return _job(name, body, n_gpus, arrival)


def _cpu_job(name: str, seconds: float) -> JobSpec:
    def body(ctx):
        yield ctx.engine.timeout(seconds)
        return seconds

    return _job(name, body, 0)


def run(quick: bool = False) -> FigureResult:
    cluster = Cluster(paper_testbed(n_compute=2, n_accelerators=3))
    cluster.arm.admission.slots_per_device = 1
    service = JobService(cluster)
    qr_n = 1024 if quick else 2048
    jobs = [
        _qr_job(qr_n, 3),
        _burn_job("burn-1g", 4 if quick else 20, 1),
        _cpu_job("cpu-only", 0.2),
        _burn_job("burn-2g", 4 if quick else 15, 2, arrival=0.01),
        _qr_job(qr_n // 2, 1),
    ]
    records = service.run_all(jobs)
    report = collect(cluster)

    fig = FigureResult(
        fig_id="ext-batch",
        title="Mixed batch workload on the live dynamic cluster",
        xlabel="job", ylabel="seconds",
        notes="2 compute nodes + 3 pooled accelerators; JobService, "
              "one lease per device, WFQ by accelerator count",
    )
    xs = list(range(len(records)))
    fig.add("wait", xs, [r.start_s - r.spec.arrival_s for r in records])
    fig.add("runtime", xs, [r.end_s - r.start_s for r in records])
    fig.add("ok", xs, [1.0 if r.ok else 0.0 for r in records])
    fig.notes += ("; jobs=" + ",".join(r.spec.name for r in records)
                  + f"; pool_utilization={report.pool_utilization:.3f}"
                  + f"; offload_bytes={report.total_offload_bytes}")
    # Carry the aggregates as a tiny series for the check.
    fig.add("aggregates", [0, 1, 2],
            [report.pool_utilization,
             report.mean_gpu_utilization,
             float(report.total_offload_bytes)])
    return fig


def check(fig: FigureResult) -> None:
    assert all(v == 1.0 for v in fig.get("ok").y), "a batch job failed"
    pool_util, gpu_util, offload = fig.get("aggregates").y
    # The pool did real, measurable work.
    assert 0.05 < pool_util <= 1.0, pool_util
    assert 0.0 < gpu_util <= 1.0, gpu_util
    assert offload > 100 * MiB
    # Competition for the 3-GPU pool forced someone to queue.
    assert max(fig.get("wait").y) > 0.0
