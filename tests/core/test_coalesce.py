"""Cross-stream coalescing: merging, isolation, and MBATCH at-most-once."""

import pytest

from repro.cluster import Cluster, paper_testbed
from repro.core import (
    FaultInjector,
    Op,
    Request,
    RetryPolicy,
    TAG_REQUEST,
    next_request_id,
    reply_tag,
)
from repro.core.coalesce import FrameCoalescer
from repro.core.daemon import DEDUP_CACHE_SIZE
from repro.errors import MiddlewareError


@pytest.fixture
def rig():
    cluster = Cluster(paper_testbed(n_compute=1, n_accelerators=1))
    sess = cluster.session()
    handles = sess.call(cluster.arm_client(0).alloc(count=1))
    ac = cluster.remote(0, handles[0])
    co = FrameCoalescer(cluster.compute_rank(0), handles[0].daemon_rank)
    return cluster, sess, ac, co


class TestFrameCoalescer:
    def test_single_sub_frame_round_trips(self, rig):
        cluster, sess, ac, co = rig
        subs = sess.call(ac.coalesced_rpc(co, [(Op.PING, {})]))
        assert len(subs) == 1 and subs[0].ok and subs[0].value == "pong"
        assert co.subs_in == 1 and co.frames_out == 1
        assert co.roundtrips_saved == 0

    def test_concurrent_sub_frames_share_a_wire_frame(self, rig):
        cluster, sess, ac, co = rig
        daemon = cluster.daemons[ac.handle.ac_id]
        results = sess.parallel([
            ac.coalesced_rpc(co, [(Op.MEM_ALLOC, {"nbytes": 64})])
            for _ in range(4)])
        addrs = {subs[0].value for subs in results}
        assert len(addrs) == 4 and all(s[0].ok for s in results)
        # Flush-on-drain gathered the concurrent submissions: fewer
        # frames than sub-frames, and the daemon saw merged carriers.
        assert co.subs_in == 4
        assert co.frames_out < co.subs_in
        assert co.merged_subs > 0
        assert co.roundtrips_saved == co.subs_in - co.frames_out
        assert daemon.stats.mbatches == co.frames_out
        assert daemon.stats.mbatched_subs == 4

    def test_sub_frame_failure_does_not_skip_other_riders(self, rig):
        cluster, sess, ac, co = rig
        good, bad = sess.parallel([
            ac.coalesced_rpc(co, [(Op.MEM_ALLOC, {"nbytes": 64})]),
            ac.coalesced_rpc(co, [(Op.MEM_FREE, {"addr": 0xdead})]),
        ])
        assert good[0].ok
        assert not bad[0].ok

    def test_ops_within_a_sub_frame_execute_in_order(self, rig):
        cluster, sess, ac, co = rig
        subs = sess.call(ac.coalesced_rpc(co, [
            (Op.MEM_ALLOC, {"nbytes": 128}),
            (Op.PING, {}),
        ]))
        assert [s.ok for s in subs] == [True, True]
        addr = subs[0].value
        freed = sess.call(ac.coalesced_rpc(co, [(Op.MEM_FREE,
                                                 {"addr": addr})]))
        assert freed[0].ok

    def test_non_batchable_op_rejected(self, rig):
        cluster, sess, ac, co = rig
        with pytest.raises(MiddlewareError):
            sess.call(ac.coalesced_rpc(
                co, [(Op.MEMCPY_H2D, {"addr": 0, "nbytes": 8})]))


class TestMbatchDedup:
    """A retried merged frame must replay every sub-response exactly once."""

    def _exchange(self, cluster, sess, dst, req):
        rank = cluster.compute_rank(0)

        def roundtrip():
            rreq = rank.irecv(source=dst, tag=reply_tag(req.req_id))
            rank.isend(dst, TAG_REQUEST, req)
            yield rreq.done
            return rreq.message.payload

        return sess.call(roundtrip())

    def _mbatch_req(self, req_id, reqs, attempt=0):
        return Request(op=Op.MBATCH, req_id=req_id, reply_to=0,
                       params={"reqs": reqs}, attempt=attempt)

    def test_duplicate_mbatch_replays_every_sub_once(self, rig):
        cluster, sess, ac, _ = rig
        daemon = cluster.daemons[ac.handle.ac_id]
        scope = dict(ac._scope)
        req_id = next_request_id()
        reqs = [(next_request_id(),
                 [(Op.MEM_ALLOC.value, {"nbytes": 256, **scope})])
                for _ in range(3)]
        first = self._exchange(cluster, sess, ac.handle.daemon_rank,
                               self._mbatch_req(req_id, reqs))
        assert first.ok and len(first.value) == 3
        used = daemon.gpu.memory.used_bytes

        dup = self._exchange(cluster, sess, ac.handle.daemon_rank,
                             self._mbatch_req(req_id, reqs, attempt=1))
        assert dup.ok
        # Bit-identical replay: same addresses per sub, no re-execution.
        assert [[s.value for s in sub] for sub in dup.value] \
            == [[s.value for s in sub] for sub in first.value]
        assert daemon.gpu.memory.used_bytes == used
        assert daemon.stats.dedup_hits == 1

    def test_straggler_resend_gives_each_rider_its_result_once(self, rig):
        # A daemon straggler in the middle of a merged frame: the carrier
        # misses its deadline and is resent, and the daemon replays it.
        cluster, sess, ac, _ = rig
        daemon = cluster.daemons[ac.handle.ac_id]
        co = FrameCoalescer(cluster.compute_rank(0), ac.handle.daemon_rank,
                            retry=RetryPolicy(timeout_s=150e-6))
        now = cluster.engine.now
        FaultInjector(cluster).slow_at(ac.handle.ac_id, now, 50.0,
                                       until_time=now + 1e-3)
        used = daemon.gpu.memory.used_bytes
        first, second = sess.parallel([
            ac.coalesced_rpc(co, [(Op.MEM_ALLOC, {"nbytes": 4096})]),
            ac.coalesced_rpc(co, [(Op.MEM_ALLOC, {"nbytes": 4096}),
                                  (Op.PING, {})]),
        ])
        assert co.frames_out == 1 and co.merged_subs == 2  # one carrier
        assert co.timeouts >= 1 and daemon.stats.dedup_hits >= 1
        assert daemon.stats.mbatches == 1 and daemon.stats.mbatched_subs == 2
        # Each rider got its own responses, executed exactly once.
        assert len(first) == 1 and len(second) == 2
        assert all(s.ok for s in first + second)
        assert first[0].value != second[0].value
        assert second[1].value == "pong"
        assert daemon.gpu.memory.used_bytes == used + 2 * 4096

    def test_merged_frame_weighs_its_sub_count_in_the_dedup_window(
            self, rig, monkeypatch):
        # Regression: eviction must be weighted by replayable
        # sub-responses, or one merged frame of N subs would occupy a
        # single slot and stretch the window's memory by N.
        import repro.core.daemon as daemon_mod
        monkeypatch.setattr(daemon_mod, "DEDUP_CACHE_SIZE", 8)
        cluster, sess, ac, _ = rig
        daemon = cluster.daemons[ac.handle.ac_id]
        scope = dict(ac._scope)
        mb_id = next_request_id()
        reqs = [(next_request_id(),
                 [(Op.MEM_ALLOC.value, {"nbytes": 64, **scope})])
                for _ in range(6)]
        self._exchange(cluster, sess, ac.handle.daemon_rank,
                       self._mbatch_req(mb_id, reqs))
        assert daemon._dedup_weight == 6
        # Three plain allocs push the weight past 8: the 6-sub frame is
        # evicted first (FIFO), leaving only the plain entries.
        for _ in range(3):
            req = Request(op=Op.MEM_ALLOC, req_id=next_request_id(),
                          reply_to=0, params={"nbytes": 64, **scope})
            self._exchange(cluster, sess, ac.handle.daemon_rank, req)
        assert mb_id not in daemon._dedup
        assert daemon._dedup_weight == 3
        assert len(daemon._dedup) == 3

    def test_real_cache_bound_unchanged_for_plain_ops(self, rig):
        # The weighted window degenerates to the historical count bound
        # when nothing is merged.
        assert DEDUP_CACHE_SIZE == 512
