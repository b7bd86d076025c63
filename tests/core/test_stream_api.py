"""Unit tests for the asynchronous command-stream API and its MBATCH frames."""

import numpy as np
import pytest

from repro.core import (
    BATCHABLE_OPS,
    DEFAULT_MAX_BATCH,
    FaultInjector,
    Op,
    Request,
    RetryPolicy,
    TAG_REQUEST,
    next_request_id,
    reply_tag,
)
from repro.core.coalesce import FrameCoalescer
from repro.errors import MiddlewareError


@pytest.fixture
def rig(cluster):
    sess = cluster.session()
    handles = sess.call(cluster.arm_client(0).alloc(count=2))
    acs = [cluster.remote(0, h) for h in handles]
    return cluster, sess, acs


def _raw_mbatch(cluster, sess, ac, req_id, ops, attempt=0):
    """Send one single-sub-frame MBATCH by hand; return the reply."""
    rank = cluster.compute_rank(0)

    def exchange():
        req = Request(op=Op.MBATCH, req_id=req_id, reply_to=0,
                      params={"reqs": [(req_id, ops)]}, attempt=attempt)
        rreq = rank.irecv(source=ac.handle.daemon_rank, tag=reply_tag(req_id))
        rank.isend(ac.handle.daemon_rank, TAG_REQUEST, req)
        yield rreq.done
        return rreq.message.payload

    return sess.call(exchange())


class TestBatchFrame:
    def test_coalesced_rpc_one_round_trip(self, rig):
        cluster, sess, acs = rig
        ac = acs[0]
        daemon = cluster.daemons[ac.handle.ac_id]
        co = FrameCoalescer(ac.rank, ac.handle.daemon_rank)
        subs = sess.call(ac.coalesced_rpc(co, [
            (Op.MEM_ALLOC, {"nbytes": 4096}),
            (Op.MEM_ALLOC, {"nbytes": 8192}),
            (Op.KERNEL_CREATE, {"name": "dscal"}),
            (Op.PING, {}),
        ]))
        assert co.requests == 1 and co.frames_out == 1  # one wire frame
        assert daemon.stats.mbatches == 1
        assert daemon.stats.mbatched_ops == 4
        assert [s.ok for s in subs] == [True] * 4
        addr_a, addr_b = subs[0].value, subs[1].value
        assert addr_a != addr_b
        assert daemon.gpu.memory.used_bytes == 4096 + 8192
        assert ac._live == {addr_a: 4096, addr_b: 8192}

    def test_batch_rejects_unbatchable_op(self, rig):
        cluster, sess, acs = rig
        ac = acs[0]
        co = FrameCoalescer(ac.rank, ac.handle.daemon_rank)
        with pytest.raises(MiddlewareError):
            sess.call(ac.coalesced_rpc(co, [(Op.MEMCPY_H2D, {})]))
        assert co.subs_in == 0       # refused before anything was queued
        # A hand-built frame gets past the client check; the daemon
        # answers ERROR for the op and skips the rest of its sub-frame.
        reply = _raw_mbatch(cluster, sess, ac, next_request_id(),
                            [(Op.MEMCPY_H2D.value, {}), (Op.PING.value, {})])
        bad, skipped = reply.value[0]
        assert not bad.ok and "not batchable" in bad.error
        assert not skipped.ok and "skipped" in skipped.error

    def test_transfers_are_not_batchable(self):
        assert Op.MEMCPY_H2D not in BATCHABLE_OPS
        assert Op.MEMCPY_D2H not in BATCHABLE_OPS
        assert Op.PEER_PUT not in BATCHABLE_OPS
        # A retried frame must be at-most-once.
        from repro.core import DEDUP_OPS, RETRYABLE_OPS
        assert Op.MBATCH in RETRYABLE_OPS and Op.MBATCH in DEDUP_OPS
        assert not hasattr(Op, "BATCH")   # MBATCH is the one batch frame

    def test_failed_sub_op_aborts_rest_of_frame(self, rig):
        cluster, sess, acs = rig
        ac = acs[0]
        daemon = cluster.daemons[ac.handle.ac_id]
        used = daemon.gpu.memory.used_bytes
        co = FrameCoalescer(ac.rank, ac.handle.daemon_rank)
        subs = sess.call(ac.coalesced_rpc(co, [
            (Op.KERNEL_CREATE, {"name": "no_such_kernel"}),
            (Op.MEM_ALLOC, {"nbytes": 4096}),
        ]))
        assert not subs[0].ok
        assert not subs[1].ok and "skipped" in subs[1].error
        assert daemon.gpu.memory.used_bytes == used  # alloc never ran

    def test_duplicate_batch_frame_replayed_not_reexecuted(self, rig):
        cluster, sess, acs = rig
        ac = acs[0]
        daemon = cluster.daemons[ac.handle.ac_id]
        req_id = next_request_id()
        ops = [(Op.MEM_ALLOC.value, {"nbytes": 4096}),
               (Op.MEM_ALLOC.value, {"nbytes": 4096})]

        first = _raw_mbatch(cluster, sess, ac, req_id, ops)
        used = daemon.gpu.memory.used_bytes
        second = _raw_mbatch(cluster, sess, ac, req_id, ops, attempt=1)
        # The whole frame is deduplicated: same addresses, no new memory.
        assert ([s.value for s in second.value[0]]
                == [s.value for s in first.value[0]])
        assert daemon.gpu.memory.used_bytes == used
        assert daemon.stats.dedup_hits == 1
        assert daemon.stats.mbatches == 1


class TestStream:
    def test_ops_coalesce_and_preserve_order(self, rig):
        cluster, sess, acs = rig
        ac = acs[0]
        daemon = cluster.daemons[ac.handle.ac_id]

        def body():
            s = ac.stream()
            s.kernel_create("dscal")
            a = s.mem_alloc(8 * 32)
            s.memcpy_h2d(a, np.arange(32, dtype=np.float64))
            s.kernel_run("dscal", {"x": a, "n": 32, "alpha": 3.0})
            d = s.memcpy_d2h(a, 8 * 32)
            s.mem_free(a)
            yield from s.synchronize()
            return s, d

        s, d = sess.call(body())
        assert np.allclose(d.result(), np.arange(32) * 3.0)
        # create+alloc coalesced; h2d / run / d2h / free went solo.
        assert s.ops_issued == 6
        assert s.frames_issued == 5
        assert s.roundtrips_saved == 1
        assert daemon.stats.mbatches == 1 and daemon.stats.mbatched_ops == 2

    def test_future_params_resolve_across_frames(self, rig):
        _, sess, acs = rig
        ac = acs[0]

        def body():
            s = ac.stream()
            s.kernel_create("daxpy")
            x = s.mem_alloc(8 * 16)       # futures used as kernel params
            y = s.mem_alloc(8 * 16)
            s.memcpy_h2d(x, np.ones(16))
            s.memcpy_h2d(y, np.full(16, 2.0))
            s.kernel_run("daxpy", {"x": x, "y": y, "n": 16, "alpha": 10.0})
            d = s.memcpy_d2h(y, 8 * 16)
            yield from s.synchronize()
            return d

        d = sess.call(body())
        assert np.allclose(d.result(), 12.0)

    def test_max_batch_splits_long_runs(self, rig):
        _, sess, acs = rig
        ac = acs[0]

        n = 2 * DEFAULT_MAX_BATCH + 2

        def body():
            s = ac.stream()
            for _ in range(n):
                s.ping()
            yield from s.synchronize()
            return s

        s = sess.call(body())
        assert s.ops_issued == n
        # 2x16+2 pings -> frames of 16+16+2.
        assert s.frames_issued == 3
        assert s.ops_batched == n
        assert s.coalescer.frames_out == 3

    def test_result_before_completion_raises(self, rig):
        _, sess, acs = rig

        def body():
            s = acs[0].stream()
            f = s.mem_alloc(64)
            with pytest.raises(MiddlewareError):
                f.result()
            yield from s.synchronize()
            return f

        f = sess.call(body())
        assert f.ok and isinstance(f.result(), int)

    def test_error_is_sticky_and_fails_queued_ops(self, rig):
        _, sess, acs = rig

        def body():
            s = acs[0].stream()
            good = s.mem_alloc(64)
            bad = s.kernel_create("no_such_kernel")
            tail = s.mem_alloc(64)
            with pytest.raises(MiddlewareError):
                yield from s.synchronize()
            return s, good, bad, tail

        s, good, bad, tail = sess.call(body())
        assert good.ok
        assert bad.done and not bad.ok
        assert tail.done and not tail.ok
        with pytest.raises(MiddlewareError):
            tail.result()
        with pytest.raises(MiddlewareError):  # stream refuses new work
            s.mem_alloc(64)

    def test_dependency_on_failed_future_aborts(self, rig):
        _, sess, acs = rig
        ac0, ac1 = acs

        def body():
            s0, s1 = ac0.stream(), ac1.stream()
            bad = s0.kernel_create("nope")
            # s1's op depends on a future that will fail on s0.
            dep = s1.mem_free(bad)
            with pytest.raises(MiddlewareError):
                yield from s0.synchronize()
            with pytest.raises(MiddlewareError):
                yield from s1.synchronize()
            return dep

        dep = sess.call(body())
        assert dep.done and not dep.ok

    def test_independent_streams_overlap(self, rig):
        cluster, sess, acs = rig
        params = {"A": 0, "B": 0, "C": 0, "m": 512, "n": 512, "k": 512}

        def timed(n_streams):
            def body():
                streams = [acs[i].stream() for i in range(n_streams)]
                for s in streams:
                    s.kernel_create("dgemm")
                    s.kernel_run("dgemm", params, real=False)
                t0 = cluster.engine.now
                for s in streams:
                    yield from s.synchronize()
                return cluster.engine.now - t0
            return sess.call(body())

        one = timed(1)
        two = timed(2)
        # Two accelerators' kernels overlap: far cheaper than serialized.
        assert two < 1.5 * one

    def test_kernel_set_args_stays_ordered_and_local(self, rig):
        _, sess, acs = rig
        ac = acs[0]

        def body():
            s = ac.stream()
            s.kernel_create("dscal")
            a = s.mem_alloc(8 * 8)
            s.memcpy_h2d(a, np.ones(8))
            s.kernel_set_args("dscal", {"x": a, "n": 8, "alpha": 4.0})
            s.kernel_run("dscal")    # uses the staged args
            d = s.memcpy_d2h(a, 8 * 8)
            yield from s.synchronize()
            return s, d

        s, d = sess.call(body())
        assert np.allclose(d.result(), 4.0)
        # set_args cost no round trip (6 ops, 5 remote, create+alloc in
        # one frame -> 4 frames).
        assert s.ops_issued == 6
        assert s.ops_issued_remote() == 5
        assert s.frames_issued == 4

    def test_stream_retry_is_at_most_once(self, rig):
        """A frame whose reply is delayed past the deadline is resent;
        the daemon replays it instead of re-allocating."""
        cluster, sess, acs = rig
        ac = cluster.remote(0, acs[0].handle,
                            retry=RetryPolicy(timeout_s=150e-6))
        daemon = cluster.daemons[ac.handle.ac_id]
        # A 50x straggler for 1 ms: the frame's reply misses its 150 us
        # deadline, so the frame really is resent.
        now = cluster.engine.now
        FaultInjector(cluster).slow_at(ac.handle.ac_id, now, 50.0,
                                       until_time=now + 1e-3)

        def body():
            s = ac.stream()
            a = s.mem_alloc(4096)
            b = s.mem_alloc(4096)
            yield from s.synchronize()
            return s, a, b

        s, a, b = sess.call(body())
        assert a.result() != b.result()
        assert s.coalescer.timeouts >= 1          # an attempt timed out
        assert daemon.stats.dedup_hits >= 1       # ...and was replayed
        assert daemon.stats.mbatches == 1         # executed exactly once
        assert daemon.gpu.memory.used_bytes == 2 * 4096
        # The resend's replay reply, delivered after the original, is
        # dropped rather than left queued on the reply tag.
        sess.sleep(2e-3)
        state = cluster.comm._states[cluster.compute_rank(0).index]
        lo, hi = reply_tag(0), reply_tag(0) + 290_000
        assert not [t for _, t, _ in state.unexpected._entries
                    if lo <= t < hi]
        assert not [t for _, t, _ in state.posted._entries if lo <= t < hi]


class TestBackendParity:
    def test_local_accelerator_stream(self):
        from repro.baselines import LocalAccelerator
        from repro.cluster import Cluster, paper_testbed
        cluster = Cluster(paper_testbed(n_compute=1, n_accelerators=0,
                                        local_gpus=True))
        node = cluster.compute_nodes[0]
        local = LocalAccelerator(cluster.engine, node.local_gpu, node.cpu)
        sess = cluster.session()

        def body():
            s = local.stream()
            assert s.coalescer is None   # no RPC to batch
            s.kernel_create("dscal")
            a = s.mem_alloc(8 * 8)
            s.memcpy_h2d(a, np.full(8, 3.0))
            s.kernel_run("dscal", {"x": a, "n": 8, "alpha": 2.0})
            d = s.memcpy_d2h(a, 8 * 8)
            s.mem_free(a)
            yield from s.synchronize()
            return d

        d = sess.call(body())
        assert np.allclose(d.result(), 6.0)

    def test_resilient_accelerator_stream(self, rig):
        cluster, sess, acs = rig
        ra = cluster.resilient(0, acs[0].handle)

        def body():
            s = ra.stream()
            assert s.coalescer is None   # per-op failover guard
            s.kernel_create("dscal")
            a = s.mem_alloc(8 * 8)
            s.memcpy_h2d(a, np.full(8, 1.0))
            s.kernel_run("dscal", {"x": a, "n": 8, "alpha": 7.0})
            d = s.memcpy_d2h(a, 8 * 8)
            yield from s.synchronize()
            return d

        d = sess.call(body())
        assert np.allclose(d.result(), 7.0)
