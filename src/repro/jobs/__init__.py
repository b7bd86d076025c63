"""The ensemble/job service front door (Pegasus-style, Sect. V-B scaled up).

``repro.jobs`` turns one-python-process-drives-one-cluster into a serving
system: submit N :class:`JobSpec` jobs — priority, tenant, accelerator
count, DAG dependencies — and a :class:`JobService` schedules them through
the multi-tenant admission machinery, drives them concurrently over a
:class:`~repro.cluster.builder.Cluster`, and applies the warm paths that
make aggregation pay (cross-tenant request coalescing, per-tenant kernel
caching, allocation-lease reuse).

It is also the paper's Sect. V-B batch path: with one lease slot per
device, a job asks for N accelerators, starts once they are free, and
releases them when it ends; ``n_accelerators=0`` is a CPU-only job.
"""

from .service import (
    JobAccelerator,
    JobContext,
    JobRecord,
    JobService,
    JobSpec,
    JobState,
    KernelCache,
    LeasePool,
)

__all__ = [
    "JobAccelerator",
    "JobContext",
    "JobRecord",
    "JobService",
    "JobSpec",
    "JobState",
    "KernelCache",
    "LeasePool",
]
