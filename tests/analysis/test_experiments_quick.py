"""Smoke tests: every experiment driver runs in quick mode and passes its
own shape check (the benchmarks run the full sweeps)."""

import pytest

from repro.analysis.experiments import (
    ext_async,
    ext_batch,
    ext_blocksize,
    ext_faults,
    ext_gpudirect,
    ext_tcp,
    ext_utilization,
    fig05,
    fig06,
    fig09,
    fig10,
    fig11,
)


class TestFigureDriversQuick:
    def test_fig05_quick(self):
        fig = fig05.run(quick=True)
        # Quick mode skips intermediate sizes; the endpoint relations hold.
        assert fig.get("mpi-pingpong").at(65536.0) > 2500
        assert fig.get("dyn-naive").at(65536.0) < fig.get(
            "dyn-pipeline-128-512K").at(65536.0)

    def test_fig06_quick(self):
        fig = fig06.run(quick=True)
        assert fig.get("dyn-pipeline-128K").at(65536.0) > \
            fig.get("dyn-naive").at(65536.0)

    def test_fig09_quick_sizes(self):
        fig = fig09.run(quick=True)
        assert fig.get("cuda-local").x == [1024, 3072, 5184]
        local = fig.get("cuda-local")
        net1 = fig.get("1-network-gpu")
        for x in local.x:
            assert net1.at(x) <= local.at(x) * 1.005

    def test_fig10_quick(self):
        fig = fig10.run(quick=True)
        fig10.check(fig)

    def test_fig11_quick(self):
        fig = fig11.run(quick=True)
        local = fig.get("cuda-local")
        dyn = fig.get("dynamic-architecture")
        for x in local.x:
            assert 0 < dyn.at(x) / local.at(x) - 1 < 0.05


class TestExtensionDriversQuick:
    def test_ext_tcp_quick(self):
        fig = ext_tcp.run(quick=True)
        ext_tcp.check(fig)

    def test_ext_batch_quick(self):
        # The Sect. V-B batch flow through the JobService front door.
        fig = ext_batch.run(quick=True)
        ext_batch.check(fig)

    def test_ext_blocksize_quick(self):
        fig = ext_blocksize.run(quick=True)
        # Quick mode has 1 MiB and 64 MiB messages; optimum must grow.
        ext_blocksize.check(fig)

    def test_ext_utilization_quick(self):
        fig = ext_utilization.run(quick=True)
        ext_utilization.check(fig)

    def test_ext_utilization_seed_robust(self):
        for seed in (1, 7, 99):
            fig = ext_utilization.run(quick=True, seed=seed)
            static = fig.get("static")
            dynamic = fig.get("dynamic")
            assert dynamic.y[0] <= static.y[0] * 1.0001  # makespan

    def test_ext_faults_quick(self):
        fig = ext_faults.run(quick=True)
        ext_faults.check(fig)

    def test_ext_gpudirect_quick(self):
        fig = ext_gpudirect.run(quick=True)
        ext_gpudirect.check(fig)

    def test_ext_async_quick(self):
        # The one experiment that sends stream frames: its check gates the
        # >=2x control round-trip cut, bit-identical R and no slowdown.
        fig = ext_async.run(quick=True)
        ext_async.check(fig)
