"""Point-to-point message transport over the fabric model.

Implements MPI send/recv semantics — tag matching with wildcards,
non-overtaking order, unexpected-message queues — with two protocols:

* **eager** (``nbytes <= fabric eager threshold``): the sender stages the
  payload through a local copy and is immediately free; the payload
  travels independently and is buffered at the receiver if no receive is
  posted yet (paying an extra copy on late match, as real MPIs do).
* **rendezvous**: the sender issues a small ready-to-send control message;
  the bulk transfer starts only after the matching receive is posted and
  a clear-to-send returns.  The sender's buffer is held until the bulk
  data has left the NIC.

Per-rank CPU overheads (``send_overhead``/``recv_overhead``) serialise on
a per-rank CPU timeline, so bursts of small messages from one rank cost
linear CPU time even though the calls are non-blocking.

The transport runs the same events whether recorders are on or off.
Observation is one ``traffic.record`` per message into the run's tally
(:attr:`Transport.traffic`, kept only while the metrics or comm recorder
is on), handed to the recorders by :meth:`Transport.flush_observations`
when the run ends; CPU-busy seconds for energy accrue unconditionally.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from ..core.engine import Engine, Event
from ..core.trace import MessageRecord, Tracer
from ..network.netmodel import Fabric
from ..network.resources import reserve_route
from ..obs.commviz import PhaseMatrix
from ..obs.context import current
from .datatypes import ANY_SOURCE, ANY_TAG, RecvResult, copy_payload

#: Logical size of rendezvous control messages (RTS/CTS).
_CTRL_BYTES = 64


@dataclass(slots=True)
class _PendingRendezvous:
    """Sender-side state parked at the receiver until the recv posts."""

    source: int
    tag: int
    nbytes: int
    data: Any
    send_done: Event
    seq: int = 0            # per-(src, dst, channel) send order


class _Mailbox:
    """Per-(channel, rank) matching state.

    Posted receives and queued eager arrivals are plain tuples, unpacked
    where they are read (one is built per message):

    * ``posted``: ``(source, tag, event)``;
    * ``unexpected``: ``(source, tag, nbytes, data, t_arrive, seq)``.

    ``seq`` maps a sending rank to the count of messages it has sent to
    this (channel, rank): MPI's non-overtaking rule is enforced on that
    order, not on arrival order (an eager payload can physically land
    after a later message's RTS).
    """

    __slots__ = ("posted", "unexpected", "pending_rndv", "seq")

    def __init__(self) -> None:
        self.posted: list[tuple] = []
        self.unexpected: list[tuple] = []
        self.pending_rndv: list[_PendingRendezvous] = []
        self.seq: dict[int, int] = {}


def _match(source_want: int, tag_want: int, source: int, tag: int) -> bool:
    return (source_want in (ANY_SOURCE, source)) and (tag_want in (ANY_TAG, tag))


class Transport:
    """Message matching and timing for one cluster run."""

    def __init__(
        self,
        engine: Engine,
        fabric: Fabric,
        placement: list[int],
        tracer: Tracer,
    ) -> None:
        self.engine = engine
        self.fabric = fabric
        self.placement = placement
        self.tracer = tracer
        self.nprocs = len(placement)
        # Mailboxes per channel, indexed by rank, made on first use.
        self._boxes: dict[Any, list[_Mailbox | None]] = {}
        # Per-rank CPU availability for serialising software overheads.
        self._cpu_free = [0.0] * self.nprocs
        self._params = fabric.params
        self._route = fabric.route  # memoised per node pair
        # One traffic tally per run while the metrics or comm recorder
        # is on, handed to them when the run ends (flush_observations).
        observed = current("metrics").enabled or current("comm").enabled
        self.traffic = PhaseMatrix() if observed else None
        # Cumulative CPU-busy virtual seconds across all ranks, priced by
        # the energy recorder at the end of the run.
        self.cpu_busy_s = 0.0

    # -- CPU bookkeeping -----------------------------------------------------

    def charge_cpu(self, rank: int, start: float, duration: float) -> float:
        """Occupy rank's CPU for ``duration`` from >= ``start``; returns end."""
        begin = max(start, self._cpu_free[rank])
        end = begin + duration
        self._cpu_free[rank] = end
        self.cpu_busy_s += duration
        return end

    def cpu_free_at(self, rank: int) -> float:
        return self._cpu_free[rank]

    def flush_observations(self) -> None:
        """Hand the run's traffic tally to the metrics and comm recorders.

        :meth:`repro.mpi.cluster.Cluster.run` calls this when a run ends,
        next to :meth:`repro.network.netmodel.Fabric.flush_observations`.
        The tally's intra/inter totals add to the ``mpi.messages.*`` and
        ``mpi.bytes.*`` counters and its cells merge into the comm
        recorder's current phase; a run that sent nothing adds no phase.
        """
        traffic = self.traffic
        if traffic is None:
            return
        registry = current("metrics")
        if registry.enabled:
            registry.counter("mpi.messages.intra").inc(traffic.intra_msgs)
            registry.counter("mpi.messages.inter").inc(traffic.inter_msgs)
            registry.counter("mpi.bytes.intra").inc(traffic.intra_bytes)
            registry.counter("mpi.bytes.inter").inc(traffic.inter_bytes)
        comm = current("comm")
        if comm.enabled and traffic.cells:
            comm.add(traffic)

    def _box(self, channel: Any, rank: int) -> _Mailbox:
        boxes = self._boxes.get(channel)
        if boxes is None:
            boxes = self._boxes[channel] = [None] * self.nprocs
        box = boxes[rank]
        if box is None:
            box = boxes[rank] = _Mailbox()
        return box

    # -- send ------------------------------------------------------------------

    def probe(self, dst: int, source: int, tag: int, channel: Any):
        """Non-consuming envelope check (MPI_Iprobe).

        Returns ``(source, tag, nbytes)`` of the oldest matching queued
        envelope, or ``None`` if nothing matches yet.
        """
        box = self._box(channel, dst)
        best = None
        for a_source, a_tag, a_nbytes, _data, _t, a_seq in box.unexpected:
            if _match(source, tag, a_source, a_tag):
                key = (a_seq, a_source)
                if best is None or key < best[0]:
                    best = (key, (a_source, a_tag, a_nbytes))
        for pen in box.pending_rndv:
            if _match(source, tag, pen.source, pen.tag):
                key = (pen.seq, pen.source)
                if best is None or key < best[0]:
                    best = (key, (pen.source, pen.tag, pen.nbytes))
        return None if best is None else best[1]

    def isend(
        self,
        src: int,
        dst: int,
        nbytes: int,
        tag: int,
        data: Any,
        channel: Any,
        force_rendezvous: bool = False,
    ) -> Event:
        """Post a non-blocking send; returns the send-complete event.

        Callers pass a valid world rank and size and a tag >= 0: the
        user-facing checks live at the API edge (:class:`Comm`), and the
        collectives' peers and tags are valid by construction.
        """
        return self._post_send(src, dst, nbytes, tag, data, channel,
                               force_rendezvous, False)

    def sendrecv(
        self,
        me: int,
        dst: int,
        source: int,
        nbytes: int,
        sendtag: int,
        recvtag: int,
        data: Any,
        channel: Any,
    ) -> tuple[Event, Event | None]:
        """One exchange (MPI_Sendrecv): post the receive, then the send.

        Returns ``(recv_event, send_event)``; the caller yields both, in
        that order.  ``send_event`` is ``None`` when the send is eager
        and the receive was still outstanding once posted (left posted,
        or matched a parked rendezvous).  That receive is charged after
        the send on ``me``'s CPU and queued later, so the send
        completion would always fire first, unwaited; yielding ``None``
        resumes exactly as yielding the fired event would.  The elided
        event is counted as processed but never allocated or queued.
        A receive that matched a queued eager message at once was
        charged *before* the send, so that send event stays queued.
        Recorders on or off, the rule is the same.  docs/MODEL.md §3 has
        the proof.

        As for :meth:`isend`, the arguments are valid world ranks, a size
        >= 0 and a send tag >= 0 (the elision rule needs a monotone CPU
        timeline); :meth:`Comm.sendrecv` checks them.
        """
        boxes = self._boxes.get(channel)
        box = boxes and boxes[me] or self._box(channel, me)
        unexpected = box.unexpected
        if not unexpected and not box.pending_rndv:
            # Nothing queued can match: post the receive inline.
            recv = Event(self.engine)
            box.posted.append((source, recvtag, recv))
            return recv, self._post_send(me, dst, nbytes, sendtag, data,
                                         channel, False, True)
        queued = len(unexpected)
        recv = self._post_recv(box, me, source, recvtag)
        # Only an immediate eager match takes from ``unexpected``.
        return recv, self._post_send(
            me, dst, nbytes, sendtag, data, channel, False,
            len(unexpected) == queued)

    def _post_send(self, src: int, dst: int, nbytes: int, tag: int,
                   data: Any, channel: Any, force_rendezvous: bool,
                   elide: bool) -> Event | None:
        """The send protocols behind :meth:`isend` and :meth:`sendrecv`.

        ``elide`` drops an eager send's completion event and returns
        ``None``; only :meth:`sendrecv` may ask, under its rule.
        """
        # Hot path: one call per simulated message.  Everything below
        # sticks to pre-bound locals, absolute-time pushes (provably not
        # in the past), the pair's cached route record and plain
        # additions for the latency-only control lane — the generic
        # helpers (`engine.schedule`, `control_timing`, `charge_cpu`)
        # cost a call + allocation each that this path pays millions of
        # times per sweep.
        engine = self.engine
        params = self._params
        now = engine._now
        cpu = self._cpu_free
        begin = cpu[src]
        if begin < now:
            begin = now
        t_cpu_done = begin + params.send_overhead
        cpu[src] = t_cpu_done

        boxes = self._boxes.get(channel)
        box = boxes and boxes[dst] or self._box(channel, dst)
        seqs = box.seq
        seq = seqs.get(src, 0) + 1
        seqs[src] = seq

        placement = self.placement
        src_node = placement[src]
        dst_node = placement[dst]
        if self.traffic is not None:
            self.traffic.record(src, dst, nbytes, src_node != dst_node)
        route = self._route(src_node, dst_node)

        if nbytes <= params.eager_threshold and not force_rendezvous:
            # Stage through a local bounce-buffer copy; the sender is free
            # right after, and the wire transfer starts once the copy is
            # done (this staging cost is what makes eager lose to
            # rendezvous at large sizes).
            t_free = t_cpu_done + nbytes / params.memcpy_bw
            cpu[src] = t_free
            # Overhead + staging copy occupied the sending CPU.
            self.cpu_busy_s += t_free - begin
            arrival = reserve_route(route, nbytes, t_free)[2]
            if elide:
                send_done = None
                engine._logical += 1  # counted as dispatched, never queued
            else:
                send_done = Event(engine)
                engine._push(t_free, send_done.fire, (None,))
            payload = None if data is None else copy_payload(data)
            # The envelope (header) travels on the control lane and keeps
            # send order; the payload completes at the bandwidth-queued
            # time.  Matching happens at envelope arrival, receive
            # completion waits for the payload.
            engine._push(t_cpu_done + route.latency, self._deliver_eager,
                         (box, dst, (src, tag, nbytes, payload, arrival,
                                     seq)))
            if self.tracer._enabled:
                self._trace(src, dst, nbytes, tag, t_cpu_done, arrival)
        else:
            # Rendezvous: RTS -> (recv posted) -> CTS -> bulk transfer.
            self.cpu_busy_s += params.send_overhead
            send_done = Event(engine)
            pending = _PendingRendezvous(
                source=src,
                tag=tag,
                nbytes=nbytes,
                data=data,
                send_done=send_done,
                seq=seq,
            )
            engine._push(t_cpu_done + route.latency, self._rts_arrive,
                         (box, dst, pending))
        return send_done

    def _earlier_queued(self, box: _Mailbox, src: int, seq: int,
                        want_source: int, want_tag: int) -> bool:
        """Is an earlier (lower-seq) message from ``src`` queued that the
        posted pattern would also match?  If so, the newcomer must wait —
        matching it now would violate non-overtaking."""
        for a_source, a_tag, _nbytes, _data, _t, a_seq in box.unexpected:
            if (a_source == src and a_seq < seq
                    and _match(want_source, want_tag, a_source, a_tag)):
                return True
        for pen in box.pending_rndv:
            if (pen.source == src and pen.seq < seq
                    and _match(want_source, want_tag, pen.source, pen.tag)):
                return True
        return False

    def _deliver_eager(self, box: _Mailbox, dst: int, arr: tuple) -> None:
        posted = box.posted
        source, tag, nbytes, data, t_arrive, seq = arr
        for i, (want_source, want_tag, event) in enumerate(posted):
            if ((want_source == source or want_source == ANY_SOURCE)
                    and (want_tag == tag or want_tag == ANY_TAG)):
                if ((box.unexpected or box.pending_rndv)
                        and self._earlier_queued(box, source, seq,
                                                 want_source, want_tag)):
                    break  # an older sibling is queued; join the queue
                del posted[i]
                # The recv completes once the payload has fully landed
                # (charge_cpu inlined; its end is never in the past).
                engine = self.engine
                t = t_arrive
                if t < engine._now:
                    t = engine._now
                cpu = self._cpu_free
                if cpu[dst] > t:
                    t = cpu[dst]
                recv_overhead = self._params.recv_overhead
                done = cpu[dst] = t + recv_overhead
                self.cpu_busy_s += recv_overhead
                engine._push(done, event.fire, (
                    RecvResult(data, source, tag, nbytes),))
                return
        box.unexpected.append(arr)

    def _rts_arrive(self, box: _Mailbox, dst: int,
                    pending: _PendingRendezvous) -> None:
        posted = box.posted
        for i, (want_source, want_tag, event) in enumerate(posted):
            if _match(want_source, want_tag, pending.source, pending.tag):
                if self._earlier_queued(box, pending.source, pending.seq,
                                        want_source, want_tag):
                    break
                del posted[i]
                self._start_bulk(dst, pending, event)
                return
        box.pending_rndv.append(pending)

    def _start_bulk(self, dst: int, pending: _PendingRendezvous, recv_event: Event) -> None:
        """Matching recv is posted and RTS arrived: CTS + bulk transfer."""
        engine = self.engine
        fabric = self.fabric
        now = engine._now
        src = pending.source
        src_node = self.placement[src]
        dst_node = self.placement[dst]
        # CTS travels back on the latency-only control lane; bulk leaves
        # after it lands at the sender.
        cts_arrival = now + fabric.latency(dst_node, src_node)
        bulk = fabric.message_timing(
            src_node, dst_node, pending.nbytes, cts_arrival
        )
        # Sender's buffer is free once the bulk data has left the NIC.
        engine._push(bulk.inject_end, pending.send_done.fire, (None,))
        data = pending.data
        payload = None if data is None else copy_payload(data)
        engine._push(bulk.arrival, self._finish_bulk,
                     (dst, pending, recv_event, payload))
        if self.tracer._enabled:
            self._trace(src, dst, pending.nbytes, pending.tag,
                        bulk.inject_start, bulk.arrival)

    def _finish_bulk(self, dst: int, pending: _PendingRendezvous,
                     recv_event: Event, payload: Any) -> None:
        """Bulk payload landed: charge recv overhead, complete the recv."""
        t = self.engine._now
        done = self.charge_cpu(dst, t, self._params.recv_overhead)
        self._complete_recv(
            recv_event, payload, pending.source, pending.tag,
            pending.nbytes, done
        )

    def _complete_recv(
        self, event: Event, payload: Any, src: int, tag: int, nbytes: int,
        t_done: float
    ) -> None:
        """Trigger ``event`` with the receive result at absolute ``t_done``."""
        result = RecvResult(data=payload, source=src, tag=tag, nbytes=nbytes)
        engine = self.engine
        if t_done < engine._now:
            t_done = engine._now
        engine._push(t_done, event.fire, (result,))

    # -- receive -----------------------------------------------------------------

    def irecv(self, dst: int, source: int, tag: int, channel: Any) -> Event:
        """Post a non-blocking receive; returns the recv-complete event.

        ``source`` is a valid world rank or ``ANY_SOURCE`` (see
        :meth:`isend`).
        """
        return self._post_recv(self._box(channel, dst), dst, source, tag)

    def _post_recv(self, box: _Mailbox, dst: int, source: int,
                   tag: int) -> Event:
        """Match the oldest queued envelope, or post the receive."""
        event = Event(self.engine)
        if not box.unexpected and not box.pending_rndv:
            box.posted.append((source, tag, event))
            return event

        # Collect every queued envelope (eager arrivals + parked
        # rendezvous) that matches, then take the oldest by send order —
        # per source, the non-overtaking rule; across sources, the
        # earliest sequence is a deterministic legal choice.
        best = None  # (seq, kind, index)
        for i, (a_source, a_tag, _nbytes, _data, _t,
                a_seq) in enumerate(box.unexpected):
            if _match(source, tag, a_source, a_tag):
                key = (a_seq, a_source)
                if best is None or key < best[0]:
                    best = (key, "eager", i)
        for i, pending in enumerate(box.pending_rndv):
            if _match(source, tag, pending.source, pending.tag):
                key = (pending.seq, pending.source)
                if best is None or key < best[0]:
                    best = (key, "rndv", i)

        if best is not None:
            _key, kind, i = best
            if kind == "eager":
                a_source, a_tag, a_nbytes, a_data, t_arrive, _seq = (
                    box.unexpected.pop(i))
                # Pay the unexpected-buffer copy on a late match; a
                # payload still in flight delays completion further.
                cost = (
                    self._params.recv_overhead
                    + self.fabric.memcpy_time(a_nbytes)
                )
                start = max(self.engine._now, t_arrive)
                done = self.charge_cpu(dst, start, cost)
                self._complete_recv(
                    event, a_data, a_source, a_tag, a_nbytes, done
                )
            else:
                pending = box.pending_rndv.pop(i)
                self._start_bulk(dst, pending, event)
            return event

        box.posted.append((source, tag, event))
        return event

    # -- tracing ----------------------------------------------------------------

    def _trace(
        self, src: int, dst: int, nbytes: int, tag: int, t0: float, t1: float
    ) -> None:
        if self.tracer.enabled:
            self.tracer.record_message(
                MessageRecord(
                    src=src,
                    dst=dst,
                    nbytes=nbytes,
                    tag=tag,
                    t_inject=t0,
                    t_deliver=t1,
                    intra_node=self.placement[src] == self.placement[dst],
                )
            )
