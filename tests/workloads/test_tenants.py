"""Tests for the open-loop multi-tenant workload generator."""

import pytest

from repro.errors import MiddlewareError
from repro.workloads import tenants


def _small(seed=0, **overrides):
    kwargs = dict(n_tenants=24, n_accelerators=2, n_gateways=2,
                  slots_per_device=2, requests_per_tenant=2,
                  window_s=2e-3, payload_bytes=64 * 1024, seed=seed)
    kwargs.update(overrides)
    return tenants.TenantWorkloadConfig(**kwargs)


class TestConfig:
    @pytest.mark.parametrize("kwargs", [
        {"n_tenants": 0},
        {"n_accelerators": 0},
        {"n_accelerators": 9},
        {"n_gateways": 0},
        {"requests_per_tenant": 0},
        {"window_s": 0.0},
        {"payload_bytes": 4},
    ])
    def test_validation(self, kwargs):
        with pytest.raises(MiddlewareError):
            _small(**kwargs)


class TestRun:
    def test_every_request_accounted(self):
        # Seed 1 at default size preempts some request more often than
        # its failover budget allows; that request must count as aborted
        # rather than crash the run.
        for cfg, submitted in ((_small(), 48),
                               (tenants.TenantWorkloadConfig(seed=1), 1000)):
            report = tenants.run(cfg)
            assert report.submitted == submitted
            assert (report.completed + report.rejected + report.aborted
                    == report.submitted)
            assert report.completed > 0

    def test_contended_run_preempts_and_recovers(self):
        report = tenants.run(_small())
        # 48 arrivals in 2 ms over 4 slots: priorities must collide.
        assert report.preemptions > 0
        assert report.recoveries > 0

    def test_same_seed_bit_identical_digest(self):
        a = tenants.run(_small(seed=11))
        b = tenants.run(_small(seed=11))
        assert a.digest == b.digest
        assert a.duration_s == b.duration_s
        assert a.per_tenant == b.per_tenant

    def test_different_seed_different_digest(self):
        a = tenants.run(_small(seed=11))
        b = tenants.run(_small(seed=12))
        assert a.digest != b.digest

    def test_latency_percentiles_present(self):
        report = tenants.run(_small())
        assert 0.0 < report.latency_p50_s <= report.latency_p99_s
        assert report.per_tenant
        for row in report.per_tenant.values():
            assert row["count"] >= 1
            assert 0.0 < row["p50_s"] <= row["p99_s"]

    def test_fairness_from_registry(self):
        report = tenants.run(_small())
        assert 0.0 < report.fairness <= 1.0
        assert report.registry.value("tenant.fairness_jain") == report.fairness
        assert report.registry.histograms("tenant.latency_s")

    def test_report_renders(self):
        report = tenants.run(_small())
        text = tenants.format_report(report)
        assert "fairness" in text
        assert "p99" in text
        assert "digest" in text
