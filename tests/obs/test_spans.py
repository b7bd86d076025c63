"""Span tracing: collection, request decomposition, and leak protection."""

import numpy as np
import pytest

from repro.core.api import run_parallel
from repro.errors import MiddlewareError, RequestTimeout
from repro.obs import NULL_SPAN, SpanContext, collector_for, enable_tracing
from repro.sim import Engine
from repro.units import KiB, MiB


class TestCollectorBasics:
    def test_disabled_collector_returns_null_span(self):
        engine = Engine()
        col = collector_for(engine)
        assert not col.enabled
        span = col.start("client.ping", "cn0")
        assert span is NULL_SPAN
        assert not col.spans

    def test_collector_is_per_engine_singleton(self):
        e1, e2 = Engine(), Engine()
        assert collector_for(e1) is collector_for(e1)
        assert collector_for(e1) is not collector_for(e2)

    def test_null_span_is_inert(self):
        NULL_SPAN.event("x", a=1)
        NULL_SPAN.set(b=2)
        assert NULL_SPAN.child("y") is NULL_SPAN
        NULL_SPAN.finish()
        assert NULL_SPAN.wire is None
        assert NULL_SPAN.context is None
        assert not NULL_SPAN
        with NULL_SPAN:
            pass
        assert NULL_SPAN.attrs == {}

    def test_span_timestamps_are_virtual(self):
        engine = Engine()
        col = enable_tracing(engine)

        def prog():
            with col.start("client.op", "cn0") as span:
                yield engine.timeout(1.5)
            return span

        proc = engine.process(prog())
        engine.run(until=proc)
        span = proc.value
        assert span.start == pytest.approx(0.0)
        assert span.end == pytest.approx(1.5)
        assert span.duration == pytest.approx(1.5)

    def test_child_shares_trace_id(self):
        engine = Engine()
        col = enable_tracing(engine)
        parent = col.start("client.op", "cn0")
        child = parent.child("dma.copy", "gpu0")
        assert child.trace_id == parent.trace_id
        assert child.parent_id == parent.span_id
        assert col.children_of(parent) == [child]

    def test_context_manager_records_error(self):
        engine = Engine()
        col = enable_tracing(engine)
        with pytest.raises(ValueError):
            with col.start("client.op", "cn0") as span:
                raise ValueError("boom")
        assert not span.open
        assert "ValueError" in span.attrs["error"]

    def test_adopt_parent_is_consumed_once(self):
        engine = Engine()
        col = enable_tracing(engine)
        root = col.start("stream.frame", "s0")
        col.adopt_parent(root.context)
        child = col.start("client.op", "cn0")
        assert child.parent_id == root.span_id
        orphan = col.start("client.op", "cn0")
        assert orphan.parent_id is None

    def test_abort_open_closes_and_marks(self):
        engine = Engine()
        col = enable_tracing(engine)
        span = col.start("client.op", "cn0")
        assert col.open_spans == [span]
        n = col.abort_open("test teardown")
        assert n == 1
        assert not span.open
        assert span.attrs["aborted"] == "test teardown"
        assert col.open_spans == []


class TestRequestDecomposition:
    def test_remote_memcpy_decomposes_on_one_trace(self, cluster, sess,
                                                   collector, ac):
        addr = sess.call(ac.mem_alloc(1 * MiB))
        sess.call(ac.memcpy_h2d(addr, np.ones(1 * MiB // 8)))
        roots = collector.by_name("client.memcpy_h2d")
        assert len(roots) == 1
        root = roots[0]
        family = collector.by_trace(root.trace_id)
        names = {s.name for s in family}
        # The one remote op decomposes into daemon handling, per-block
        # network receives, and DMA copies — all on one trace id.
        assert {"client.memcpy_h2d", "daemon.memcpy_h2d",
                "net.recv", "dma.copy"} <= names
        daemon_span = next(s for s in family if s.name == "daemon.memcpy_h2d")
        assert daemon_span.parent_id == root.span_id
        for s in family:
            assert not s.open
            assert root.start <= s.start
            assert s.end <= root.end + 1e-12

    def test_kernel_run_has_gpu_child_span(self, cluster, sess, collector, ac):
        n = 64
        p = sess.call(ac.mem_alloc(8 * n))
        sess.call(ac.memcpy_h2d(p, np.ones(n)))
        sess.call(ac.kernel_run("dscal", {"x": p, "n": n, "alpha": 2.0}))
        root = collector.by_name("client.kernel_run")[0]
        names = {s.name for s in collector.by_trace(root.trace_id)}
        assert "gpu.kernel" in names

    def test_retry_recorded_as_span_events(self, cluster, sess, collector):
        from repro.core import FaultInjector, RetryPolicy
        handles = sess.call(cluster.arm_client(0).alloc(count=1))
        ac = cluster.remote(0, handles[0],
                            retry=RetryPolicy(timeout_s=5e-3, max_attempts=3))
        # Crash the daemon so every attempt times out.
        FaultInjector(cluster).crash_at(handles[0].ac_id, at_time=sess.now)
        with pytest.raises(RequestTimeout):
            sess.call(ac.ping())
        span = collector.by_name("client.ping")[0]
        events = [e.name for e in span.events]
        assert events.count("timeout") == 3
        assert events.count("retry") == 2

    def test_trace_rides_request_without_wire_cost(self, cluster, sess, ac,
                                                   collector):
        from repro.core.protocol import Op, Request
        from repro.mpisim import payload_nbytes
        bare = Request(op=Op.PING, req_id=1, reply_to=0)
        traced = Request(op=Op.PING, req_id=1, reply_to=0, trace=(7, 9))
        assert payload_nbytes(bare) == payload_nbytes(traced)


class TestSpanLeakProtection:
    def _failing_branch(self, ac):
        yield from ac.mem_alloc(100 * 1024**3)  # OOM -> MiddlewareError

    def _slow_branch(self, ac, nbytes):
        addr = yield from ac.mem_alloc(nbytes)
        yield from ac.memcpy_h2d(addr, np.ones(nbytes // 8))

    def test_run_parallel_failure_leaves_no_open_spans(self, cluster, sess,
                                                       collector, ac):
        """Regression: a dead branch must not leak half-open spans."""
        def driver():
            yield from run_parallel(cluster.engine, [
                self._slow_branch(ac, 4 * MiB),
                self._failing_branch(ac),
            ])

        with pytest.raises(MiddlewareError):
            sess.call(driver())
        assert collector.open_spans == []
        aborted = [s for s in collector.spans if "aborted" in s.attrs]
        assert aborted, "interrupted branch spans should be marked aborted"

    def test_sync_parallel_failure_leaves_no_open_spans(self, cluster, sess,
                                                        collector, ac):
        with pytest.raises(MiddlewareError):
            sess.parallel([
                self._slow_branch(ac, 4 * MiB),
                self._failing_branch(ac),
            ])
        assert collector.open_spans == []

    def test_sync_call_timeout_leaves_no_open_spans(self, cluster, sess,
                                                    collector, ac):
        addr = sess.call(ac.mem_alloc(8 * MiB))
        with pytest.raises(RequestTimeout):
            sess.call(ac.memcpy_h2d(addr, np.ones(8 * MiB // 8)),
                      timeout_s=1e-6)
        assert collector.open_spans == []

    def test_run_parallel_success_unaffected(self, cluster, sess, collector,
                                             ac):
        def driver():
            results = yield from run_parallel(cluster.engine, [
                ac.mem_alloc(1 * KiB),
                ac.kernel_create("daxpy"),
            ])
            return results

        sess.call(driver())
        assert collector.open_spans == []
        assert not [s for s in collector.spans if "aborted" in s.attrs]


class TestFailoverSpans:
    def test_failover_recovery_span_and_events(self, cluster, sess, collector):
        from repro.core import FailoverConfig, FaultInjector
        handles = sess.call(cluster.arm_client(0).alloc(count=1, job="t"))
        rac = cluster.resilient(0, handles[0], config=FailoverConfig(job="t"))
        sess.call(rac.mem_alloc(1 * KiB))
        # Break the current accelerator; the next op triggers failover.
        FaultInjector(cluster).break_at(handles[0].ac_id, at_time=sess.now)
        sess.sleep(1e-4)
        sess.call(rac.ping())
        assert rac.failovers == 1
        spans = collector.by_name("failover.recover")
        assert len(spans) == 1
        span = spans[0]
        assert not span.open
        events = [e.name for e in span.events]
        assert "break_reported" in events
        assert "replacement_assigned" in events
        assert span.attrs["replayed_buffers"] == 1


class TestFlowSpans:
    """The fabric's and DMA engine's callback chains record spans."""

    def test_traced_ping_records_finished_net_flow_spans(self, cluster, sess,
                                                         collector, ac):
        before = len(collector.by_name("net.flow"))
        sess.call(ac.ping())
        flows = collector.by_name("net.flow")[before:]
        assert len(flows) >= 2  # the request and its reply
        for span in flows:
            assert not span.open
            (injected,) = span.events
            assert injected.name == "injected"
            assert span.start <= injected.time <= span.end

    def test_cut_link_closes_span_at_injection(self):
        from repro.netsim import IB_QDR_MPI, Fabric
        engine = Engine()
        col = enable_tracing(engine)
        fabric = Fabric(engine, IB_QDR_MPI)
        fabric.add_endpoint("a")
        fabric.add_endpoint("b")
        fabric.cut("a", "b")
        tx = fabric.transfer("a", "b", 4096)
        engine.run()
        (span,) = col.by_name("net.flow")
        assert tx.dropped and not tx.delivered.triggered
        assert not span.open
        assert [e.name for e in span.events] == ["injected"]
        assert span.end == span.events[0].time == IB_QDR_MPI.injection_overhead_s

    def test_traced_copy_records_dma_span_with_engine_acquired(self):
        from repro.gpusim import PCIE_GEN2_X16, DMAEngine
        engine = Engine()
        col = enable_tracing(engine)
        dma = DMAEngine(engine, PCIE_GEN2_X16, name="gpu0.dma")
        root = col.start("daemon.memcpy_h2d", "ac0")
        first = dma.copy(4096, ctx=root.context)
        second = dma.copy(8192, ctx=root.context)
        engine.run(until=second)
        assert first.processed
        a, b = col.by_name("dma.copy")
        for span in (a, b):
            assert not span.open
            assert span.parent_id == root.span_id
            assert [e.name for e in span.events] == ["engine_acquired"]
        assert a.end == PCIE_GEN2_X16.copy_time(4096)
        # The second copy queues for the engine until the first is done.
        assert b.start == 0.0 and b.events[0].time == a.end
        assert b.end == engine.now
