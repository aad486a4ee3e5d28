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
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from ..core.engine import Engine, Event
from ..core.errors import MPIError
from ..core.trace import MessageRecord, Tracer
from ..network.netmodel import Fabric
from ..obs.context import current
from .datatypes import ANY_SOURCE, ANY_TAG, RecvResult, copy_payload

#: Logical size of rendezvous control messages (RTS/CTS).
_CTRL_BYTES = 64


@dataclass
class _PostedRecv:
    source: int
    tag: int
    event: Event
    t_post: float


@dataclass
class _Arrival:
    source: int
    tag: int
    nbytes: int
    data: Any
    t_arrive: float
    seq: int = 0            # per-(src, dst, channel) send order


@dataclass
class _PendingRendezvous:
    """Sender-side state parked at the receiver until the recv posts."""

    source: int
    tag: int
    nbytes: int
    data: Any
    send_done: Event
    recv_done_cb: Any  # callable(recv_event, t_match)
    seq: int = 0            # per-(src, dst, channel) send order


@dataclass
class _Mailbox:
    """Per-(channel, rank) matching state."""

    posted: list[_PostedRecv] = field(default_factory=list)
    unexpected: list[_Arrival] = field(default_factory=list)
    pending_rndv: list[_PendingRendezvous] = field(default_factory=list)


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
        self._boxes: dict[tuple[Any, int], _Mailbox] = {}
        # Per-rank CPU availability for serialising software overheads.
        self._cpu_free = [0.0] * self.nprocs
        # Per-(src, dst, channel) send sequence: MPI's non-overtaking rule
        # is enforced on this order, not on arrival order (an eager
        # payload can physically land after a later message's RTS).
        self._send_seq: dict[tuple[int, int, Any], int] = {}
        registry = current("metrics")
        if registry.enabled:
            # (intra, inter) instrument pairs, indexed by bool(inter).
            self._m_msgs = (registry.counter("mpi.messages.intra"),
                            registry.counter("mpi.messages.inter"))
            self._m_bytes = (registry.counter("mpi.bytes.intra"),
                             registry.counter("mpi.bytes.inter"))
        else:
            self._m_msgs = None
            self._m_bytes = None
        commrec = current("comm")
        self._commrec = commrec if commrec.enabled else None
        # Single per-send instrumentation gate: one attribute test on the
        # hot path instead of three when everything is disabled.
        self._instrumented = (self._m_msgs is not None
                              or self._commrec is not None)
        # Energy accounting: cumulative CPU-busy virtual seconds across
        # all ranks, fed to the energy recorder at end of run.  Gated by
        # one flag fetched here (twin-path: zero cost when off).
        self._energy_on = current("energy").enabled
        self.cpu_busy_s = 0.0

    # -- CPU bookkeeping -----------------------------------------------------

    def charge_cpu(self, rank: int, start: float, duration: float) -> float:
        """Occupy rank's CPU for ``duration`` from >= ``start``; returns end."""
        begin = max(start, self._cpu_free[rank])
        end = begin + duration
        self._cpu_free[rank] = end
        if self._energy_on:
            self.cpu_busy_s += duration
        return end

    def cpu_free_at(self, rank: int) -> float:
        return self._cpu_free[rank]

    def _box(self, channel: Any, rank: int) -> _Mailbox:
        key = (channel, rank)
        box = self._boxes.get(key)
        if box is None:
            box = self._boxes[key] = _Mailbox()
        return box

    # -- send ------------------------------------------------------------------

    def probe(self, dst: int, source: int, tag: int, channel: Any):
        """Non-consuming envelope check (MPI_Iprobe).

        Returns ``(source, tag, nbytes)`` of the oldest matching queued
        envelope, or ``None`` if nothing matches yet.
        """
        box = self._box(channel, dst)
        best = None
        for arr in box.unexpected:
            if _match(source, tag, arr.source, arr.tag):
                key = (arr.seq, arr.source)
                if best is None or key < best[0]:
                    best = (key, (arr.source, arr.tag, arr.nbytes))
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
        """Post a non-blocking send; returns the send-complete event."""
        if not (0 <= dst < self.nprocs):
            raise MPIError(f"destination rank {dst} out of range")
        if tag < 0:
            raise MPIError(f"application tags must be >= 0, got {tag}")
        # Hot path: one isend per simulated message.  Everything below
        # sticks to pre-bound locals, absolute-time pushes (provably not
        # in the past), and plain additions for the latency-only control
        # lane — the generic helpers (`engine.schedule`, `control_timing`,
        # `charge_cpu`) cost a call + allocation each that this path pays
        # millions of times per sweep.
        engine = self.engine
        fabric = self.fabric
        params = fabric.params
        now = engine._now
        send_done = Event(engine)
        cpu = self._cpu_free
        begin = cpu[src]
        if begin < now:
            begin = now
        t_cpu_done = begin + params.send_overhead
        cpu[src] = t_cpu_done

        seq_key = (src, dst, channel)
        seq = self._send_seq.get(seq_key, 0) + 1
        self._send_seq[seq_key] = seq

        placement = self.placement
        src_node = placement[src]
        dst_node = placement[dst]
        if self._instrumented:
            inter = src_node != dst_node
            if self._m_msgs is not None:
                self._m_msgs[inter].inc()
                self._m_bytes[inter].inc(nbytes)
            if self._commrec is not None:
                self._commrec.record(src, dst, nbytes, inter)

        if nbytes <= params.eager_threshold and not force_rendezvous:
            # Stage through a local bounce-buffer copy; the sender is free
            # right after, and the wire transfer starts once the copy is
            # done (this staging cost is what makes eager lose to
            # rendezvous at large sizes).
            t_free = t_cpu_done + nbytes / params.memcpy_bw
            cpu[src] = t_free
            if self._energy_on:
                # Overhead + staging copy occupied the sending CPU.
                self.cpu_busy_s += t_free - begin
            timing = fabric.message_timing(src_node, dst_node, nbytes, t_free)
            engine._push(t_free, send_done.trigger, (None,))
            payload = None if data is None else copy_payload(data)
            # The envelope (header) travels on the control lane and keeps
            # send order; the payload completes at the bandwidth-queued
            # time.  Matching happens at envelope arrival, receive
            # completion waits for the payload.
            env_arrival = t_cpu_done + fabric.latency(src_node, dst_node)
            arrival = _Arrival(src, tag, nbytes, payload, timing.arrival,
                               seq=seq)
            engine._push(env_arrival, self._deliver_eager,
                         (dst, arrival, channel))
            if self.tracer._enabled:
                self._trace(src, dst, nbytes, tag, t_cpu_done, timing.arrival)
        else:
            # Rendezvous: RTS -> (recv posted) -> CTS -> bulk transfer.
            if self._energy_on:
                self.cpu_busy_s += params.send_overhead
            rts_arrival = t_cpu_done + fabric.latency(src_node, dst_node)
            pending = _PendingRendezvous(
                source=src,
                tag=tag,
                nbytes=nbytes,
                data=data,
                send_done=send_done,
                recv_done_cb=None,
                seq=seq,
            )
            engine._push(rts_arrival, self._rts_arrive,
                         (dst, pending, channel))
        return send_done

    def _earlier_queued(self, box: _Mailbox, src: int, seq: int,
                        want_source: int, want_tag: int) -> bool:
        """Is an earlier (lower-seq) message from ``src`` queued that the
        posted pattern would also match?  If so, the newcomer must wait —
        matching it now would violate non-overtaking."""
        for arr in box.unexpected:
            if (arr.source == src and arr.seq < seq
                    and _match(want_source, want_tag, arr.source, arr.tag)):
                return True
        for pen in box.pending_rndv:
            if (pen.source == src and pen.seq < seq
                    and _match(want_source, want_tag, pen.source, pen.tag)):
                return True
        return False

    def _deliver_eager(self, dst: int, arr: _Arrival, channel: Any) -> None:
        now = self.engine._now
        box = self._box(channel, dst)
        for i, pr in enumerate(box.posted):
            if _match(pr.source, pr.tag, arr.source, arr.tag):
                if self._earlier_queued(box, arr.source, arr.seq,
                                        pr.source, pr.tag):
                    break  # an older sibling is queued; join the queue
                del box.posted[i]
                # recv completes once the payload has fully landed
                done = self.charge_cpu(dst, max(now, arr.t_arrive),
                                       self.fabric.params.recv_overhead)
                self._complete_recv(pr.event, arr.data, arr.source, arr.tag,
                                    arr.nbytes, done)
                return
        box.unexpected.append(arr)

    def _rts_arrive(self, dst: int, pending: _PendingRendezvous, channel: Any) -> None:
        box = self._box(channel, dst)
        for i, pr in enumerate(box.posted):
            if _match(pr.source, pr.tag, pending.source, pending.tag):
                if self._earlier_queued(box, pending.source, pending.seq,
                                        pr.source, pr.tag):
                    break
                del box.posted[i]
                self._start_bulk(dst, pending, pr.event)
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
        engine._push(bulk.inject_end, pending.send_done.trigger, (None,))
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
        done = self.charge_cpu(dst, t, self.fabric.params.recv_overhead)
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
        engine._push(t_done, event.trigger, (result,))

    # -- receive -----------------------------------------------------------------

    def irecv(self, dst: int, source: int, tag: int, channel: Any) -> Event:
        """Post a non-blocking receive; returns the recv-complete event."""
        if source != ANY_SOURCE and not (0 <= source < self.nprocs):
            raise MPIError(f"source rank {source} out of range")
        engine = self.engine
        now = engine._now
        event = Event(engine)
        box = self._box(channel, dst)

        # Collect every queued envelope (eager arrivals + parked
        # rendezvous) that matches, then take the oldest by send order —
        # per source, the non-overtaking rule; across sources, the
        # earliest sequence is a deterministic legal choice.
        best = None  # (seq, kind, index)
        for i, arr in enumerate(box.unexpected):
            if _match(source, tag, arr.source, arr.tag):
                key = (arr.seq, arr.source)
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
                arr = box.unexpected.pop(i)
                # Pay the unexpected-buffer copy on a late match; a
                # payload still in flight delays completion further.
                cost = (
                    self.fabric.params.recv_overhead
                    + self.fabric.memcpy_time(arr.nbytes)
                )
                done = self.charge_cpu(dst, max(now, arr.t_arrive), cost)
                self._complete_recv(
                    event, arr.data, arr.source, arr.tag, arr.nbytes, done
                )
            else:
                pending = box.pending_rndv.pop(i)
                self._start_bulk(dst, pending, event)
            return event

        box.posted.append(_PostedRecv(source, tag, event, now))
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
