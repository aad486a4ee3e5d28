"""Point-to-point MPI semantics: matching, ordering, protocols."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.errors import DeadlockError, MPIError
from repro.mpi import ANY_SOURCE, ANY_TAG
from repro.mpi.cluster import Cluster
from repro.mpi.pt2pt import Transport
from repro.obs import (CommRecorder, EnergyRecorder, MetricsRegistry,
                       TimelineRecorder, using)
from tests.conftest import arange_payload, make_test_machine, run_ranks


@pytest.fixture
def m():
    return make_test_machine()


def test_send_recv_delivers_payload(m):
    def prog(comm):
        if comm.rank == 0:
            yield from comm.send(1, data=arange_payload(0), tag=5)
        else:
            res = yield from comm.recv(0, tag=5)
            return res.data, res.source, res.tag, res.nbytes

    out = run_ranks(m, 2, prog)
    data, source, tag, nbytes = out.results[1]
    assert np.array_equal(data, arange_payload(0))
    assert (source, tag, nbytes) == (0, 5, 64)


def test_payload_is_copied_not_aliased(m):
    def prog(comm):
        if comm.rank == 0:
            buf = arange_payload(0)
            req = comm.isend(1, data=buf, tag=0)
            buf[:] = -1.0  # mutate after isend; receiver must see original
            yield req
        else:
            res = yield from comm.recv(0)
            return res.data

    out = run_ranks(m, 2, prog)
    assert np.array_equal(out.results[1], arange_payload(0))


def test_tag_matching_selects_correct_message(m):
    def prog(comm):
        if comm.rank == 0:
            yield from comm.send(1, nbytes=8, data=1.0, tag=10)
            yield from comm.send(1, nbytes=8, data=2.0, tag=20)
        else:
            second = yield from comm.recv(0, tag=20)
            first = yield from comm.recv(0, tag=10)
            return first.data, second.data

    out = run_ranks(m, 2, prog)
    assert out.results[1] == (1.0, 2.0)


def test_non_overtaking_same_tag(m):
    def prog(comm):
        if comm.rank == 0:
            for i in range(4):
                yield from comm.send(1, nbytes=8, data=float(i), tag=7)
        else:
            got = []
            for _ in range(4):
                res = yield from comm.recv(0, tag=7)
                got.append(res.data)
            return got

    out = run_ranks(m, 2, prog)
    assert out.results[1] == [0.0, 1.0, 2.0, 3.0]


def test_any_source_any_tag(m):
    def prog(comm):
        if comm.rank == 0:
            got = []
            for _ in range(2):
                res = yield from comm.recv(ANY_SOURCE, ANY_TAG)
                got.append((res.source, res.data))
            return sorted(got)
        else:
            yield from comm.send(0, nbytes=8, data=float(comm.rank),
                                 tag=comm.rank)

    out = run_ranks(m, 3, prog)
    assert out.results[0] == [(1, 1.0), (2, 2.0)]


def test_unexpected_message_buffered(m):
    """Eager message arrives before the receive is posted."""
    def prog(comm):
        if comm.rank == 0:
            yield from comm.send(1, nbytes=64, data=3.5, tag=1)
        else:
            yield 1.0  # make sure the message arrived long ago
            res = yield from comm.recv(0, tag=1)
            return res.data, comm.now

    out = run_ranks(m, 2, prog)
    data, t = out.results[1]
    assert data == 3.5
    assert t >= 1.0  # completed at post time, not arrival time


def test_rendezvous_sender_blocks_until_recv_posted(m):
    nbytes = 10 * 1024 * 1024  # far above eager threshold

    def prog(comm):
        if comm.rank == 0:
            yield from comm.send(1, nbytes=nbytes)
            return comm.now
        yield 2.0  # delay posting the receive
        yield from comm.recv(0)
        return comm.now

    out = run_ranks(m, 2, prog)
    send_done = out.results[0]
    assert send_done > 2.0  # could not complete before the recv existed


def test_eager_sender_completes_before_recv_posted(m):
    def prog(comm):
        if comm.rank == 0:
            yield from comm.send(1, nbytes=64)
            return comm.now
        yield 2.0
        yield from comm.recv(0)
        return comm.now

    out = run_ranks(m, 2, prog)
    assert out.results[0] < 0.1  # sender long gone


def test_isend_allows_compute_overlap(m):
    nbytes = 1024 * 1024

    def overlapped(comm):
        if comm.rank == 0:
            req = comm.isend(1, nbytes=nbytes)
            yield from comm.elapse(0.5)   # overlapped compute
            yield req
            return comm.now
        yield from comm.recv(0)

    def serial(comm):
        if comm.rank == 0:
            yield from comm.send(1, nbytes=nbytes)
            yield from comm.elapse(0.5)
            return comm.now
        yield from comm.recv(0)

    t_overlap = run_ranks(m, 2, overlapped).results[0]
    t_serial = run_ranks(m, 2, serial).results[0]
    assert t_overlap < t_serial


def test_sendrecv_exchanges(m):
    def prog(comm):
        other = 1 - comm.rank
        res = yield from comm.sendrecv(other, other,
                                       data=float(comm.rank), nbytes=8)
        return res.data

    out = run_ranks(m, 2, prog)
    assert out.results == [1.0, 0.0]


def test_recv_without_send_deadlocks(m):
    def prog(comm):
        if comm.rank == 1:
            yield from comm.recv(0, tag=9)

    with pytest.raises(DeadlockError):
        run_ranks(m, 2, prog)


def test_bad_ranks_rejected(m):
    def prog(comm):
        with pytest.raises(MPIError, match="rank 5 outside communicator"):
            comm.isend(5, nbytes=8)
        with pytest.raises(MPIError, match="rank 7 outside communicator"):
            comm.irecv(source=7)
        with pytest.raises(MPIError, match="rank 5 outside communicator"):
            yield from comm.sendrecv(5, 0, nbytes=8)
        with pytest.raises(MPIError, match="rank 7 outside communicator"):
            yield from comm.sendrecv(0, 7, nbytes=8)
        yield 0.0

    run_ranks(m, 2, prog)


def test_negative_user_tag_rejected(m):
    def prog(comm):
        with pytest.raises(MPIError):
            comm.isend(0, nbytes=8, tag=-3)
        with pytest.raises(MPIError, match="tags must be >= 0"):
            yield from comm.sendrecv(0, 0, nbytes=8, sendtag=-3)
        yield 0.0

    run_ranks(m, 2, prog)


def test_nbytes_inference_and_override(m):
    def prog(comm):
        if comm.rank == 0:
            yield from comm.send(1, data=np.zeros(16))          # 128 B
            yield from comm.send(1, data=np.zeros(16), nbytes=4096)
        else:
            a = yield from comm.recv(0)
            b = yield from comm.recv(0)
            return a.nbytes, b.nbytes

    out = run_ranks(m, 2, prog)
    assert out.results[1] == (128, 4096)


def test_missing_nbytes_rejected(m):
    def prog(comm):
        with pytest.raises(MPIError):
            comm.isend(0)  # no data, no nbytes
        with pytest.raises(MPIError, match="either data or nbytes"):
            yield from comm.sendrecv(0, 0)
        with pytest.raises(MPIError, match="nbytes must be >= 0"):
            yield from comm.sendrecv(0, 0, nbytes=-1)
        yield 0.0

    run_ranks(m, 2, prog)


def test_negative_delay_and_work_rejected():
    """The elision proof (docs/MODEL.md §3) needs CPU clocks that only
    move forward: a negative (or NaN) delay, flop or byte count is an
    error and leaves the rank's clock where it was."""
    from repro.machine import get_machine

    def prog(comm):
        if comm.rank == 1:
            for _ in range(100):
                yield from comm.recv(0)
            return None
        reqs = [comm.isend(1, nbytes=8) for _ in range(100)]
        transport = comm.cluster.transport
        t_cpu = transport.cpu_free_at(0)
        with pytest.raises(MPIError, match="seconds must be >= 0"):
            yield from comm.elapse(-t_cpu / 2)
        with pytest.raises(MPIError, match="must be >= 0"):
            yield from comm.compute(flops=-1e4)
        with pytest.raises(MPIError, match="must be >= 0"):
            yield from comm.compute(nbytes=-64.0)
        with pytest.raises(MPIError, match="seconds must be >= 0"):
            yield from comm.elapse(float("nan"))
        yield from comm.waitall(reqs)
        return t_cpu, transport.cpu_free_at(0)

    t_cpu, t_after = run_ranks(get_machine("xeon"), 2, prog).results[0]
    assert t_cpu > 0 and t_after == t_cpu


def test_send_cpu_overheads_serialise(m):
    """N isends from one rank cost at least N * send_overhead of CPU."""
    n = 16
    o_send = m.network.send_overhead_us * 1e-6

    def prog(comm):
        if comm.rank == 0:
            reqs = [comm.isend(1, nbytes=0, tag=i) for i in range(n)]
            t_cpu = comm.cluster.transport.cpu_free_at(comm.world_rank)
            yield from comm.waitall(reqs)
            return t_cpu
        for i in range(n):
            yield from comm.recv(0, tag=i)

    t_cpu = run_ranks(m, 2, prog).results[0]
    assert t_cpu >= n * o_send * 0.999


def test_wildcard_source_reported_correctly(m):
    def prog(comm):
        if comm.rank == 0:
            res = yield from comm.recv(ANY_SOURCE)
            return res.source
        elif comm.rank == 2:
            yield from comm.send(0, nbytes=8)

    out = run_ranks(m, 3, prog)
    assert out.results[0] == 2


def test_intra_node_faster_than_inter_node():
    m = make_test_machine(cpus_per_node=2)
    nbytes = 1024 * 1024

    def prog(comm, partner):
        if comm.rank == 0:
            t0 = comm.now
            yield from comm.send(partner, nbytes=nbytes)
            res = yield from comm.recv(partner)
            return comm.now - t0
        elif comm.rank == partner:
            res = yield from comm.recv(0)
            yield from comm.send(0, nbytes=nbytes)

    t_intra = run_ranks(m, 4, prog, 1).results[0]   # same node
    t_inter = run_ranks(m, 4, prog, 2).results[0]   # across nodes
    assert t_intra < t_inter


def test_non_overtaking_across_protocols_queued(m):
    """A rendezvous message sent before an eager one (same src/tag) must
    be received first even though its payload takes longer to move."""
    def prog(comm):
        if comm.rank == 0:
            r1 = comm.isend(1, nbytes=1 << 20, data="LARGE", tag=5)
            r2 = comm.isend(1, nbytes=64, data="small", tag=5)
            yield from comm.waitall([r1, r2])
        else:
            yield 0.01  # both envelopes queue before the receives post
            a = yield from comm.recv(0, tag=5)
            b = yield from comm.recv(0, tag=5)
            return a.data, b.data

    assert run_ranks(m, 2, prog).results[1] == ("LARGE", "small")


def test_non_overtaking_across_protocols_posted(m):
    """Same rule when the receives are posted before the sends land."""
    def prog(comm):
        if comm.rank == 0:
            yield 0.001
            r1 = comm.isend(1, nbytes=1 << 20, data="LARGE", tag=5)
            r2 = comm.isend(1, nbytes=64, data="small", tag=5)
            yield from comm.waitall([r1, r2])
        else:
            a = yield from comm.recv(0, tag=5)
            b = yield from comm.recv(0, tag=5)
            return a.data, b.data

    assert run_ranks(m, 2, prog).results[1] == ("LARGE", "small")


def test_eager_recv_waits_for_payload_not_just_envelope(m):
    """Matching happens at envelope time, completion at payload time."""
    nbytes = 4 * 1024 * 1024
    import dataclasses
    net = dataclasses.replace(m.network, eager_threshold=1 << 30)
    eager_m = dataclasses.replace(m, network=net)

    def prog(comm):
        if comm.rank == 0:
            yield from comm.send(2, nbytes=nbytes)
        elif comm.rank == 2:
            res = yield from comm.recv(0)
            return comm.now

    t = run_ranks(eager_m, 4, prog).results[2]
    wire_time = nbytes / eager_m.fabric_params().effective_point_bw
    assert t >= wire_time  # cannot complete before the bytes moved


# -- the exchange path: elided send completions against queued ones -----------
#
# Transport.sendrecv never queues an exchange's eager send completion when
# it provably fires before the receive completes.  The queued reference
# below patches Transport._post_send to refuse every elision; the two
# paths must be indistinguishable, and so must a run with every recorder
# on and one with every recorder off.

#: Around the test machine's 8192-byte eager threshold.
SIZES = (0, 8, 64, 4096, 8192, 8193, 40000)
DELAYS = (0.0, 1e-7, 1e-6, 5e-6, 3e-5)
MAX_RANKS = 6

_round = st.fixed_dictionaries({
    # sendrecv; irecv then isend; isend then irecv (late posting)
    "kind": st.sampled_from(("sendrecv", "recv_first", "send_first")),
    "shift": st.integers(0, MAX_RANKS - 1),   # dest = rank + shift
    "any_source": st.booleans(),
    "wait_send_first": st.booleans(),
    "nbytes": st.lists(st.sampled_from(SIZES), min_size=MAX_RANKS,
                       max_size=MAX_RANKS),
    "delay": st.lists(st.sampled_from(DELAYS), min_size=MAX_RANKS,
                      max_size=MAX_RANKS),
})
exchange_programs = st.fixed_dictionaries({
    "nprocs": st.integers(2, MAX_RANKS),
    "rounds": st.lists(_round, min_size=1, max_size=6),
})


def exchange_program(comm, rounds):
    """Round ``r`` sends to ``rank + shift`` with tag ``r``; every rank
    posts both halves before blocking, so no program deadlocks.  Returns
    the completion time and received envelope of every round."""
    p, me = comm.size, comm.rank
    log = []
    for r, rnd in enumerate(rounds):
        yield from comm.elapse(rnd["delay"][me])
        dest = (me + rnd["shift"]) % p
        source = (ANY_SOURCE if rnd["any_source"]
                  else (me - rnd["shift"]) % p)
        nbytes = rnd["nbytes"][me]
        if rnd["kind"] == "sendrecv":
            res = yield from comm.sendrecv(dest, source, nbytes=nbytes,
                                           sendtag=r)
        else:
            if rnd["kind"] == "recv_first":
                rreq = comm.irecv(source, tag=r)
                sreq = comm.isend(dest, nbytes=nbytes, tag=r)
            else:
                sreq = comm.isend(dest, nbytes=nbytes, tag=r)
                rreq = comm.irecv(source, tag=r)
            if rnd["wait_send_first"]:
                yield from comm.wait(sreq)
            res = yield from comm.wait(rreq)
            yield from comm.wait(sreq)
        log.append((comm.now, (res.source, res.tag, res.nbytes)))
    return log


_post_send = Transport._post_send


def _queued_post_send(self, src, dst, nbytes, tag, data, channel,
                      force_rendezvous, elide):
    return _post_send(self, src, dst, nbytes, tag, data, channel,
                      force_rendezvous, False)


def observe_run(machine, nprocs, program, *args):
    """Per-rank results, end time and the engine's event count."""
    cluster = Cluster(machine, nprocs)
    run = cluster.run(program, *args)
    return run.results, run.elapsed, cluster.engine.events_processed


def run_both_paths(machine, nprocs, program, *args):
    """``(elided, queued)`` observations of one program."""
    elided = observe_run(machine, nprocs, program, *args)
    with mock.patch.object(Transport, "_post_send", _queued_post_send):
        queued = observe_run(machine, nprocs, program, *args)
    return elided, queued


@settings(max_examples=150, deadline=None)
@given(program=exchange_programs)
def test_elided_exchange_matches_queued(program):
    elided, queued = run_both_paths(make_test_machine(), program["nprocs"],
                                    exchange_program, program["rounds"])
    assert elided == queued


@settings(max_examples=60, deadline=None)
@given(program=exchange_programs)
def test_exchange_runs_the_same_observed_or_not(program):
    args = (make_test_machine(), program["nprocs"], exchange_program,
            program["rounds"])
    off = observe_run(*args)
    with using(MetricsRegistry(), CommRecorder(), TimelineRecorder(),
               EnergyRecorder()):
        on = observe_run(*args)
    assert on == off


def test_exchange_elides_send_event_only_while_recv_outstanding(m):
    """Rank 0's second exchange matches a message already queued, so its
    receive is charged *before* the send and completes before the send's
    buffer is free: that send event must stay queued.  Eliding it too
    would resume rank 0 at the receive's completion, early."""
    seen = []

    def prog(comm):
        if comm.rank == 1:
            yield from comm.sendrecv(0, 0, nbytes=8, sendtag=0)
            yield from comm.send(0, nbytes=64, tag=1)
            yield from comm.recv(0, tag=1)
            return comm.now
        transport, channel = comm.cluster.transport, comm._p2p_channel
        # Posted before rank 1's message lands: the receive is outstanding.
        rreq, sreq = transport.sendrecv(0, 1, 1, 8, 0, 0, None, channel)
        seen.append(sreq)
        yield rreq
        yield sreq
        yield from comm.elapse(30e-6)  # rank 1's tag-1 message is queued
        rreq, sreq = transport.sendrecv(0, 1, 1, 4096, 1, 1, None, channel)
        seen.append(sreq)
        yield rreq
        t_recv = comm.now
        yield sreq
        return t_recv, comm.now

    elided, queued = run_both_paths(m, 2, prog)
    assert elided == queued
    outstanding, early = seen[:2]          # the elided run's two exchanges
    assert outstanding is None
    assert early is not None
    assert all(ev is not None for ev in seen[2:])   # the queued run
    t_recv, t_done = elided[0][0]
    assert t_done > t_recv


# -- rendezvous timing, exactly --------------------------------------------
#
# One rendezvous message on an idle fabric: RTS after the send overhead
# plus the pair's latency, CTS back over the reverse pair's latency, the
# bulk reserved over the pair's route record from the CTS arrival, the
# receive charged its overhead once the payload lands.

RNDV_BYTES = 1 << 20   # far above the test machine's eager threshold
LATE_POST_S = 1e-3     # long after the RTS has parked


def _rndv_program(comm, dst, late):
    if comm.rank == 0:
        yield from comm.send(dst, nbytes=RNDV_BYTES, tag=3)
        return comm.now
    if comm.rank == dst:
        if late:
            yield LATE_POST_S
        yield from comm.recv(0, tag=3)
        return comm.now
    return None


def _rndv_closed_form(fabric, src_node, dst_node, late):
    """``(send done, recv done, t_inject, t_deliver)`` from the
    fabric's parameters and the pair's route records."""
    params = fabric.params
    route = fabric.route(src_node, dst_node)
    back = fabric.route(dst_node, src_node)
    rts = params.send_overhead + route.latency
    cts = (LATE_POST_S if late else rts) + back.latency
    end = cts
    for r in route.resources:
        end = max(end, cts + RNDV_BYTES / r.bandwidth)
    end = max(end, cts + RNDV_BYTES / route.stream_bw)
    arrival = end + route.latency
    return end, arrival + params.recv_overhead, cts, arrival


@pytest.mark.parametrize("late", [False, True],
                         ids=["recv_before_rts", "recv_after_rts"])
@pytest.mark.parametrize("dst", [1, 2], ids=["intra", "inter"])
@pytest.mark.parametrize("extra_latency", [0.0, 7e-6],
                         ids=["clean", "add_latency"])
def test_rendezvous_timing_matches_closed_form(m, late, dst, extra_latency):
    from repro.machine.faults import add_latency

    setup = (None if not extra_latency
             else lambda fabric: add_latency(fabric, extra_latency))
    cluster = Cluster(m, 4, trace=True)
    out = cluster.run(_rndv_program, dst, late, fabric_setup=setup)
    fabric = cluster.fabric
    src_node, dst_node = cluster.placement[0], cluster.placement[dst]
    assert (src_node == dst_node) == (dst == 1)
    if late:
        assert fabric.params.send_overhead + fabric.route(
            src_node, dst_node).latency < LATE_POST_S
    send_done, recv_done, t_inject, t_deliver = _rndv_closed_form(
        fabric, src_node, dst_node, late)
    assert out.results[0] == send_done
    assert out.results[dst] == recv_done
    (rec,) = out.tracer.messages
    assert (rec.src, rec.dst, rec.nbytes, rec.tag) == (0, dst, RNDV_BYTES, 3)
    assert rec.t_inject == t_inject
    assert rec.t_deliver == t_deliver
    if extra_latency and dst == 2:
        # The faulted latency reached the records the run used.
        clean = m.build_fabric(4).route(src_node, dst_node).latency
        assert fabric.route(src_node, dst_node).latency > clean
        assert recv_done > _rndv_closed_form(
            m.build_fabric(4), src_node, dst_node, late)[1]
