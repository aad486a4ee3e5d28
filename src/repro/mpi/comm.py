"""The communicator: the mpi4py-flavoured face of the simulated MPI.

Rank programs receive a :class:`Comm` bound to their rank.  Blocking calls
are generators (``data = yield from comm.recv(...)``); non-blocking calls
return request events that can be awaited with ``yield from comm.wait(r)``
or ``yield from comm.waitall(rs)``.

Collective operations live in :mod:`repro.mpi.collectives` and are exposed
here as methods; every collective call advances a per-communicator
sequence number used to keep successive collectives' messages from
cross-matching (the simulated analogue of MPI context ids).
"""

from __future__ import annotations

from functools import lru_cache
from typing import Any, Sequence

from ..core.engine import Event
from ..core.errors import MPIError
from .datatypes import ANY_SOURCE, ANY_TAG, SUM, Op, RecvResult, resolve_nbytes
from . import collectives as _coll


def _tag_error(tag: int) -> MPIError:
    """The error for a negative application tag."""
    return MPIError(f"application tags must be >= 0, got {tag}")


@lru_cache(maxsize=8)
def _iota(n: int) -> tuple[int, ...]:
    """``tuple(range(n))``, shared by every communicator of size ``n``."""
    return tuple(range(n))


class Comm:
    """A communicator handle for one rank."""

    def __init__(
        self,
        cluster: Any,
        rank: int,
        world_ranks: tuple[int, ...],
        comm_key: Any = "world",
    ) -> None:
        if rank < 0 or rank >= len(world_ranks):
            raise MPIError(f"rank {rank} outside communicator of size {len(world_ranks)}")
        self.cluster = cluster
        self._rank = rank
        self._world_ranks = world_ranks
        self._comm_key = comm_key
        self._coll_seq = 0
        self._split_count = 0
        # Pre-built channels: the hot messaging paths send one message
        # per call through these, so they must not allocate.
        self._coll_channel = (comm_key, "coll")
        self._p2p_channel = (comm_key, "p2p")
        # World ranks are usually the identity mapping (COMM_WORLD and
        # order-preserving duplicates); then _localise is a no-op and
        # the linear index() scan per received message is skipped.
        # Every rank of a world builds a Comm over the one shared
        # _iota tuple, so identity answers first; comparing element by
        # element would cost O(n) per rank and O(n^2) per world.
        iota = _iota(len(world_ranks))
        self._identity = world_ranks is iota or world_ranks == iota

    # -- identity -----------------------------------------------------------------

    @property
    def rank(self) -> int:
        """This process's rank within the communicator."""
        return self._rank

    @property
    def size(self) -> int:
        """Number of ranks in the communicator."""
        return len(self._world_ranks)

    @property
    def world_rank(self) -> int:
        """This rank's id in the transport (COMM_WORLD) numbering."""
        return self._world_ranks[self._rank]

    def node_of(self, rank: int) -> int:
        """SMP node hosting a (local) rank — used by topology-aware code."""
        return self.cluster.placement[self._world_ranks[rank]]

    def _global(self, rank: int) -> int:
        if not (0 <= rank < self.size):
            raise MPIError(f"rank {rank} outside communicator of size {self.size}")
        return self._world_ranks[rank]

    # -- point-to-point -----------------------------------------------------------

    def isend(
        self,
        dest: int,
        data: Any = None,
        nbytes: int | None = None,
        tag: int = 0,
    ) -> Event:
        """Non-blocking send; returns the completion request (Event)."""
        n = resolve_nbytes(data, nbytes)
        gdest = self._global(dest)
        if tag < 0:
            raise _tag_error(tag)
        return self.cluster.transport.isend(
            self._world_ranks[self._rank], gdest, n, tag, data,
            self._p2p_channel
        )

    def irecv(self, source: int = ANY_SOURCE, tag: int = ANY_TAG) -> Event:
        """Non-blocking receive; the request's value is a RecvResult."""
        gsrc = source if source == ANY_SOURCE else self._global(source)
        return self.cluster.transport.irecv(
            self._world_ranks[self._rank], gsrc, tag, self._p2p_channel
        )

    def send(self, dest: int, data: Any = None, nbytes: int | None = None,
             tag: int = 0):
        """Blocking send (generator)."""
        req = self.isend(dest, data, nbytes, tag)
        yield req

    def issend(self, dest: int, data: Any = None, nbytes: int | None = None,
               tag: int = 0) -> Event:
        """Non-blocking synchronous send: always rendezvous, so the
        request only completes once the matching receive exists."""
        n = resolve_nbytes(data, nbytes)
        gdest = self._global(dest)
        if tag < 0:
            raise _tag_error(tag)
        return self.cluster.transport.isend(
            self.world_rank, gdest, n, tag, data,
            self._p2p_channel, force_rendezvous=True,
        )

    def ssend(self, dest: int, data: Any = None, nbytes: int | None = None,
              tag: int = 0):
        """Blocking synchronous send (generator; MPI_Ssend)."""
        req = self.issend(dest, data, nbytes, tag)
        yield req

    def iprobe(self, source: int = ANY_SOURCE, tag: int = ANY_TAG):
        """Non-blocking, non-consuming envelope check (MPI_Iprobe).

        Returns ``(source_local, tag, nbytes)`` or ``None``.  Plain call,
        not a generator — probing costs no virtual time.
        """
        gsrc = source if source == ANY_SOURCE else self._global(source)
        hit = self.cluster.transport.probe(
            self.world_rank, gsrc, tag, self._p2p_channel
        )
        if hit is None:
            return None
        gsource, t, n = hit
        return self._world_ranks.index(gsource), t, n

    def probe(self, source: int = ANY_SOURCE, tag: int = ANY_TAG,
              poll_interval: float = 1e-6):
        """Blocking probe (generator): waits until an envelope matches."""
        while True:
            hit = self.iprobe(source, tag)
            if hit is not None:
                return hit
            yield from self.elapse(poll_interval)

    def recv(self, source: int = ANY_SOURCE, tag: int = ANY_TAG):
        """Blocking receive (generator); returns a :class:`RecvResult`."""
        req = self.irecv(source, tag)
        result: RecvResult = yield req
        return self._localise(result)

    def sendrecv(
        self,
        dest: int,
        source: int,
        data: Any = None,
        nbytes: int | None = None,
        sendtag: int = 0,
        recvtag: int | None = None,
    ):
        """Concurrent send+recv (generator); returns the :class:`RecvResult`."""
        if recvtag is None:
            recvtag = sendtag
        ranks = self._world_ranks
        size = len(ranks)
        if source != ANY_SOURCE:
            if not (0 <= source < size):
                raise MPIError(f"rank {source} outside communicator of size {size}")
            source = ranks[source]
        # Hot path (RandomAccess): sizes are almost always plain ints.
        if nbytes.__class__ is not int or nbytes < 0:
            nbytes = resolve_nbytes(data, nbytes)
        if not (0 <= dest < size):
            raise MPIError(f"rank {dest} outside communicator of size {size}")
        if sendtag < 0:
            raise _tag_error(sendtag)
        rreq, sreq = self.cluster.transport.sendrecv(
            ranks[self._rank], ranks[dest], source, nbytes, sendtag, recvtag,
            data, self._p2p_channel)
        result: RecvResult = yield rreq
        yield sreq  # None when elided: the same resume as the fired event
        return self._localise(result)

    def wait(self, request: Event):
        """Wait on one request (generator); returns its value."""
        result = yield request
        if isinstance(result, RecvResult):
            return self._localise(result)
        return result

    def waitall(self, requests: Sequence[Event]):
        """Wait on many requests (generator); returns their values in order."""
        out = []
        for req in requests:
            val = yield req
            if isinstance(val, RecvResult):
                val = self._localise(val)
            out.append(val)
        return out

    def _localise(self, result: RecvResult) -> RecvResult:
        """Map the transport's world source rank back into this comm."""
        if self._identity or result.source == ANY_SOURCE:
            return result
        try:
            local = self._world_ranks.index(result.source)
        except ValueError:  # message from outside this comm cannot happen
            raise MPIError("received message from outside communicator")
        if local == result.source:
            return result
        return RecvResult(result.data, local, result.tag, result.nbytes)

    # -- compute ---------------------------------------------------------------------

    def compute(self, flops: float = 0.0, nbytes: float = 0.0,
                kernel: str = "generic"):
        """Charge roofline compute time to this rank (generator)."""
        if not (flops >= 0 and nbytes >= 0):  # NaN fails too
            raise MPIError(f"flops and nbytes must be >= 0, got {flops}, "
                           f"{nbytes}")
        cluster = self.cluster
        t = cluster.compute_time(flops, nbytes, kernel)
        now = cluster.engine._now
        rank = self._world_ranks[self._rank]
        end = cluster.transport.charge_cpu(rank, now, t)
        tracer = cluster.tracer
        if tracer._enabled:
            from ..core.trace import ComputeRecord

            tracer.record_compute(ComputeRecord(
                rank=rank,
                flops=flops,
                bytes_moved=nbytes,
                kernel=kernel,
                t_start=end - t,
                t_end=end,
            ))
        yield end - now

    def elapse(self, seconds: float):
        """Charge a fixed delay to this rank (generator)."""
        if not seconds >= 0:  # NaN fails too
            raise MPIError(f"seconds must be >= 0, got {seconds}")
        end = self.cluster.transport.charge_cpu(
            self.world_rank, self.cluster.engine.now, seconds
        )
        yield end - self.cluster.engine.now

    @property
    def now(self) -> float:
        """Current virtual time (the simulated MPI_Wtime)."""
        return self.cluster.engine.now

    # -- collectives -------------------------------------------------------------

    def _next_seq(self) -> int:
        self._coll_seq += 1
        return self._coll_seq

    def barrier(self, algorithm: str | None = None):
        """Collective barrier (generator)."""
        return _coll.barrier(self, self._next_seq(), algorithm)

    def bcast(self, data: Any = None, nbytes: int | None = None, root: int = 0,
              algorithm: str | None = None):
        """Broadcast from ``root`` (generator); every rank returns the data."""
        return _coll.bcast(self, self._next_seq(), data, nbytes, root, algorithm)

    def reduce(self, data: Any = None, nbytes: int | None = None, op: Op = SUM,
               root: int = 0, algorithm: str | None = None):
        """Reduce to ``root`` (generator); non-roots return ``None``."""
        return _coll.reduce(self, self._next_seq(), data, nbytes, op, root, algorithm)

    def allreduce(self, data: Any = None, nbytes: int | None = None, op: Op = SUM,
                  algorithm: str | None = None):
        """Reduce-to-all (generator); every rank returns the result."""
        return _coll.allreduce(self, self._next_seq(), data, nbytes, op, algorithm)

    def gather(self, data: Any = None, nbytes: int | None = None, root: int = 0):
        """Gather to ``root`` (generator); root returns the list by rank."""
        return _coll.gather(self, self._next_seq(), data, nbytes, root)

    def scatter(self, datas: Sequence[Any] | None = None,
                nbytes: int | None = None, root: int = 0):
        """Scatter from ``root`` (generator); returns this rank's piece."""
        return _coll.scatter(self, self._next_seq(), datas, nbytes, root)

    def allgather(self, data: Any = None, nbytes: int | None = None,
                  algorithm: str | None = None):
        """Gather-to-all (generator); returns the list ordered by rank."""
        return _coll.allgather(self, self._next_seq(), data, nbytes, algorithm)

    def allgatherv(self, data: Any = None, counts: Sequence[int] | None = None,
                   algorithm: str | None = None):
        """Variable-count gather-to-all (generator)."""
        return _coll.allgatherv(self, self._next_seq(), data, counts, algorithm)

    def alltoall(self, datas: Sequence[Any] | None = None,
                 nbytes: int | None = None, algorithm: str | None = None):
        """Personalised all-to-all (generator); returns items by source."""
        return _coll.alltoall(self, self._next_seq(), datas, nbytes, algorithm)

    def alltoallv(self, datas: Sequence[Any] | None = None,
                  counts: Sequence[int] | None = None,
                  algorithm: str | None = None):
        """Variable-size all-to-all (generator)."""
        return _coll.alltoallv(self, self._next_seq(), datas, counts, algorithm)

    def reduce_scatter(self, data: Any = None, nbytes: int | None = None,
                       op: Op = SUM, algorithm: str | None = None):
        """Reduce then scatter blocks (generator); returns my block."""
        return _coll.reduce_scatter(self, self._next_seq(), data, nbytes, op, algorithm)

    def scan(self, data: Any = None, nbytes: int | None = None,
             op: Op = SUM, algorithm: str | None = None):
        """Inclusive prefix reduction (generator)."""
        return _coll.scan(self, self._next_seq(), data, nbytes, op, algorithm)

    def exscan(self, data: Any = None, nbytes: int | None = None,
               op: Op = SUM, algorithm: str | None = None):
        """Exclusive prefix reduction (generator); rank 0 gets ``None``."""
        return _coll.exscan(self, self._next_seq(), data, nbytes, op, algorithm)

    def gatherv(self, data: Any = None, counts: Sequence[int] | None = None,
                root: int = 0):
        """Variable-count gather to ``root`` (generator)."""
        return _coll.gatherv(self, self._next_seq(), data, counts, root)

    def scatterv(self, datas: Sequence[Any] | None = None,
                 counts: Sequence[int] | None = None, root: int = 0):
        """Variable-count scatter from ``root`` (generator)."""
        return _coll.scatterv(self, self._next_seq(), datas, counts, root)

    # -- communicator management ---------------------------------------------------

    def split(self, color: int, key: int | None = None):
        """Collective split (generator); returns the new :class:`Comm`.

        Ranks passing the same ``color`` end up in the same child
        communicator, ordered by ``key`` (then by parent rank).
        """
        if key is None:
            key = self.rank
        self._split_count += 1
        split_id = self._split_count
        members = yield from self.allgather(
            data=(color, key, self.rank), nbytes=24
        )
        mine = sorted(
            (k, r) for (c, k, r) in (m for m in members) if c == color
        )
        ranks = tuple(self._world_ranks[r] for (_k, r) in mine)
        new_rank = [r for (_k, r) in mine].index(self.rank)
        comm_key = (self._comm_key, "split", split_id, color)
        return Comm(self.cluster, new_rank, ranks, comm_key)

    def dup(self):
        """Collective duplicate (generator)."""
        new = yield from self.split(color=0, key=self.rank)
        return new

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Comm rank={self.rank}/{self.size} key={self._comm_key!r}>"
