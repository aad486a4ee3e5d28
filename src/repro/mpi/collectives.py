"""Collective algorithms over simulated point-to-point messaging.

These are real algorithm implementations — binomial trees, recursive
doubling/halving, Bruck, ring, pairwise exchange, Rabenseifner — whose
cost *emerges* from the message-level fabric model.  This matters for the
paper's IMB section: collective performance reflects "the algorithms used
underneath" (§3.2.3), e.g. local reduction arithmetic is charged per merge
step, which is what separates the vector machines from the scalar ones in
the Reduce/Allreduce figures.

Selection mirrors MPICH-style size/count tuning; every entry point takes
an optional ``algorithm`` override so ablation benchmarks can pin one.

Algorithms are generators, and every entry point returns one.  Payloads
(NumPy arrays) are optional and, when present, are actually
split/merged/reduced so tests can validate results against serial
references.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import accumulate
from typing import Any, Sequence

import numpy as np

from ..core.errors import MPIError
from .datatypes import Op, payload_nbytes, resolve_nbytes

# Tag packing: one collective call owns tags [seq*_TAGSPAN, (seq+1)*_TAGSPAN).
_TAGSPAN = 8192

# Tuning thresholds (bytes), MPICH-flavoured.
BCAST_SHORT = 12 * 1024
REDUCE_SHORT = 32 * 1024
ALLREDUCE_SHORT = 32 * 1024
ALLGATHER_TOTAL_SHORT = 512 * 1024
ALLTOALL_SHORT = 1024


# ---------------------------------------------------------------------------
# plumbing helpers
# ---------------------------------------------------------------------------

def _isend(comm, dest: int, nbytes: int, tag: int, data: Any = None):
    # Hot funnel: every collective message passes through here.  Peers
    # are computed by the algorithms and always in range, so the public
    # API's bounds check (`comm._global`) is skipped in favour of direct
    # world-rank translation.
    ranks = comm._world_ranks
    return comm.cluster.transport.isend(
        ranks[comm._rank], ranks[dest], int(nbytes), tag, data,
        comm._coll_channel,
    )


def _irecv(comm, source: int, tag: int):
    ranks = comm._world_ranks
    return comm.cluster.transport.irecv(
        ranks[comm._rank], ranks[source], tag, comm._coll_channel
    )


def _exchange(comm, dest: int, source: int, nbytes: int, tag: int,
              data: Any = None):
    """Post one exchange; the caller yields the returned ``(rreq, sreq)``
    in order (``sreq`` is None when elided: the same resume)."""
    ranks = comm._world_ranks
    return comm.cluster.transport.sendrecv(
        ranks[comm._rank], ranks[dest], ranks[source], int(nbytes), tag, tag,
        data, comm._coll_channel,
    )


def _reduce_compute(comm, nbytes: float):
    """The local arithmetic of combining two nbytes-long buffers."""
    if nbytes > 0:
        return comm.compute(flops=nbytes / 8.0, nbytes=3.0 * nbytes,
                            kernel="reduction")
    return ()


def _done(value: Any):
    """A collective that completes at once with ``value`` (one rank)."""
    return value
    yield  # pragma: no cover - generator marker


def _combine(op: Op, acc: Any, incoming: Any) -> Any:
    if acc is None or incoming is None:
        return acc if incoming is None else incoming
    return op(acc, incoming)


def balanced_split(nbytes: int, parts: int) -> list[int]:
    """Byte counts of ``parts`` balanced blocks (first blocks larger)."""
    q, r = divmod(int(nbytes), parts)
    return [q + 1] * r + [q] * (parts - r)


def split_payload(data: Any, parts: int) -> list[Any]:
    """Element-wise split of an optional array payload into blocks."""
    if isinstance(data, np.ndarray):
        return list(np.array_split(data, parts))
    return [None] * parts


@lru_cache(maxsize=64)
def _balanced_prefix(nbytes: int, parts: int) -> tuple[int, ...]:
    """Prefix sums of :func:`balanced_split`, shared by every rank."""
    return tuple(accumulate(balanced_split(nbytes, parts), initial=0))


class _Blocks:
    """Per-rank blocks of one buffer: real slices and their byte sizes.

    ``arrs`` holds the slices of an array payload and is None without
    one, so a timing-only call never builds a per-block list.  Block
    sizes are kept as prefix sums: the bytes of blocks ``[lo, hi)`` are
    one subtraction of ints, the exact value of the slice sum.
    """

    def __init__(self, data: Any, nbytes: int, parts: int) -> None:
        if isinstance(data, np.ndarray):
            self.arrs = split_payload(data, parts)
            self._prefix = tuple(accumulate((a.nbytes for a in self.arrs),
                                            initial=0))
        else:
            self.arrs = None
            self._prefix = _balanced_prefix(int(nbytes), parts)

    def nbytes(self, lo: int, hi: int) -> int:
        """Total bytes of blocks ``lo .. hi-1``."""
        return self._prefix[hi] - self._prefix[lo]

    def arr(self, i: int) -> Any:
        """Block ``i`` of the payload, or None without one."""
        return None if self.arrs is None else self.arrs[i]


def _window(acc: list | None, lo: int, hi: int) -> list | None:
    """Blocks ``lo .. hi-1`` of ``acc`` as a payload; None if none holds data."""
    if acc is None:
        return None
    window = acc[lo:hi]
    return window if any(a is not None for a in window) else None


def _pow2_below(n: int) -> int:
    return 1 << (n.bit_length() - 1)


def _is_pow2(n: int) -> bool:
    return n & (n - 1) == 0


def _pick(algorithm: str | None, table: dict[str, Any], default: str):
    name = algorithm or default
    try:
        return table[name]
    except KeyError:
        known = ", ".join(sorted(table))
        raise MPIError(f"unknown algorithm {name!r}; known: {known}") from None


@lru_cache(maxsize=32)
def _survivors(size: int) -> tuple[int, ...]:
    """Local ranks left after :func:`_fold_down` pairs off the first
    ``2*rem`` ranks: the even ones of those, then every rank above."""
    rem = size - _pow2_below(size)
    return tuple(range(0, 2 * rem, 2)) + tuple(range(2 * rem, size))


class _SubGroup:
    """A comm view over a subset of ranks, renumbered 0..len-1.

    Quacks like a Comm for the algorithm helpers: ``rank``/``size`` in the
    subgroup numbering, messaging forwarded to the parent transport.
    """

    def __init__(self, comm, members: tuple[int, ...], rank: int) -> None:
        self._comm = comm
        self._members = members
        self.rank = rank
        self.size = len(members)
        self.cluster = comm.cluster
        self.world_rank = comm.world_rank
        # Mirror the Comm attributes the hot _isend/_irecv funnel reads.
        # On an identity communicator the members are their world ranks.
        self._rank = rank
        self._world_ranks = (members if comm._identity else
                             tuple(map(comm._world_ranks.__getitem__,
                                       members)))
        self._coll_channel = comm._coll_channel

    def _global(self, sub_rank: int) -> int:
        return self._comm._global(self._members[sub_rank])

    def compute(self, **kw):
        return self._comm.compute(**kw)


# ---------------------------------------------------------------------------
# barrier
# ---------------------------------------------------------------------------

def _barrier_dissemination(comm, base_tag: int):
    rank, size = comm.rank, comm.size
    step, rnd = 1, 0
    while step < size:
        dst = (rank + step) % size
        src = (rank - step) % size
        rreq, sreq = _exchange(comm, dst, src, 0, base_tag + rnd)
        yield rreq
        yield sreq
        step <<= 1
        rnd += 1


def _barrier_tree(comm, base_tag: int):
    """Binomial gather to 0 then binomial release (two-phase tree)."""
    yield from _reduce_binomial(comm, base_tag, None, 0, None, 0)
    yield from _bcast_binomial(comm, base_tag + 4096, None, 0, 0)


BARRIER_ALGORITHMS = {
    "dissemination": _barrier_dissemination,
    "tree": _barrier_tree,
}


def barrier(comm, seq: int, algorithm: str | None = None):
    if comm.size == 1:
        return _done(None)
    fn = _pick(algorithm, BARRIER_ALGORITHMS, "dissemination")
    return fn(comm, seq * _TAGSPAN)


# ---------------------------------------------------------------------------
# bcast
# ---------------------------------------------------------------------------

def _bcast_binomial(comm, base_tag: int, data: Any, nbytes: int, root: int):
    rank, size = comm.rank, comm.size
    vr = (rank - root) % size
    mask = 1
    while mask < size:
        if vr & mask:
            src_v = vr - mask
            res = yield _irecv(comm, (src_v + root) % size, base_tag)
            data = res.data
            break
        mask <<= 1
    mask >>= 1
    reqs = []
    while mask > 0:
        if vr + mask < size:
            dst_v = vr + mask
            reqs.append(_isend(comm, (dst_v + root) % size, nbytes, base_tag, data))
        mask >>= 1
    for r in reqs:
        yield r
    return data


def _bcast_scatter_ring(comm, base_tag: int, data: Any, nbytes: int, root: int):
    """van de Geijn large-message bcast: binomial scatter + ring allgatherv.

    Works for any communicator size.  When a real payload is present the
    whole object travels along the scatter edges (receivers cannot
    reconstruct typed chunks); byte counts — and therefore timing — follow
    the true chunked algorithm either way.
    """
    rank, size = comm.rank, comm.size
    vr = (rank - root) % size
    sizes = balanced_split(nbytes, size)
    offsets = [0]
    for s in sizes:
        offsets.append(offsets[-1] + s)

    # --- binomial scatter: vrank v ends up owning block v ------------------
    have_lo, have_hi = (0, size) if vr == 0 else (0, 0)
    mask = 1
    while mask < size:
        if vr & mask:
            src_v = vr - mask
            res = yield _irecv(comm, (src_v + root) % size, base_tag + mask)
            data = res.data if data is None else data
            have_lo, have_hi = vr, min(vr + mask, size)
            break
        mask <<= 1
    mask >>= 1
    while mask > 0:
        if vr + mask < size and have_hi > vr + mask:
            lo, hi = vr + mask, have_hi
            nb = offsets[hi] - offsets[lo]
            if nb > 0:
                yield _isend(comm, (lo + root) % size, nb, base_tag + mask, data)
            have_hi = lo
        mask >>= 1

    # --- ring allgatherv of the blocks (indexed by vrank) ------------------
    right = (vr + 1) % size
    left = (vr - 1) % size
    for i in range(size - 1):
        send_block = (vr - i) % size
        rreq, sreq = _exchange(comm, (right + root) % size,
                               (left + root) % size, sizes[send_block],
                               base_tag + 2048 + i, data)
        yield rreq
        yield sreq
    return data


BCAST_ALGORITHMS = {
    "binomial": _bcast_binomial,
    "scatter_ring": _bcast_scatter_ring,
}


def bcast(comm, seq: int, data: Any, nbytes: int | None, root: int,
          algorithm: str | None = None):
    n = resolve_nbytes(data, nbytes)
    if comm.size == 1:
        return _done(data)
    if algorithm is None:
        algorithm = (
            "binomial" if (n < BCAST_SHORT or comm.size < 8) else "scatter_ring"
        )
    fn = _pick(algorithm, BCAST_ALGORITHMS, "binomial")
    return fn(comm, seq * _TAGSPAN, data, n, root)


# ---------------------------------------------------------------------------
# reduce
# ---------------------------------------------------------------------------

def _reduce_binomial(comm, base_tag: int, data: Any, nbytes: int,
                     op: Op | None, root: int):
    rank, size = comm.rank, comm.size
    vr = (rank - root) % size
    acc = data
    mask = 1
    while mask < size:
        if vr & mask == 0:
            src_v = vr | mask
            if src_v < size:
                res = yield _irecv(comm, (src_v + root) % size, base_tag + mask)
                if op is not None:
                    yield from _reduce_compute(comm, nbytes)
                    acc = _combine(op, acc, res.data)
        else:
            dst_v = vr & ~mask
            yield _isend(comm, (dst_v + root) % size, nbytes, base_tag + mask, acc)
            return None
        mask <<= 1
    return acc


def _fold_down(comm, base_tag: int, data: Any, nbytes: int, op: Op):
    """Non-power-of-two preamble.

    The first ``2*rem`` ranks pair up; odd ranks ship their contribution
    to the even partner and drop out.  Returns ``(active, folded_data)``;
    the active ranks form :func:`_survivor_group`.
    """
    size = comm.size
    p2 = _pow2_below(size)
    rem = size - p2
    rank = comm.rank
    acc = data
    if rem and rank < 2 * rem:
        if rank % 2 == 1:
            yield _isend(comm, rank - 1, nbytes, base_tag, acc)
            return False, None
        res = yield _irecv(comm, rank + 1, base_tag)
        yield from _reduce_compute(comm, nbytes)
        acc = _combine(op, acc, res.data)
    return True, acc


def _survivor_group(comm) -> _SubGroup:
    """The power-of-two subgroup of the ranks :func:`_fold_down` keeps.

    The subgroup rank is arithmetic: survivor ``g`` is local rank ``2g``
    below ``2*rem`` and ``g + rem`` above.  On a power-of-two
    communicator every rank survives under its own number.
    """
    size, rank = comm.size, comm.rank
    rem = size - _pow2_below(size)
    return _SubGroup(comm, _survivors(size),
                     rank // 2 if rank < 2 * rem else rank - rem)


def _unfold_up(comm, base_tag: int, result: Any, nbytes: int):
    """Send the final result back to the folded-out odd ranks."""
    size = comm.size
    rem = size - _pow2_below(size)
    rank = comm.rank
    if not rem or rank >= 2 * rem:
        return result
    if rank % 2 == 1:
        res = yield _irecv(comm, rank - 1, base_tag)
        return res.data
    yield _isend(comm, rank + 1, nbytes, base_tag, result)
    return result


def _reduce_scatter_halving(sub, base_tag: int, blocks: _Blocks, op: Op):
    """Recursive-halving reduce-scatter over a power-of-two (sub)comm.

    On return, subgroup rank ``g`` holds the fully reduced block ``g``:
    returns ``(g, acc_blocks)`` where ``acc_blocks[g]`` is the value.
    ``acc_blocks`` is None while no payload has reached this rank.
    """
    vr, p2 = sub.rank, sub.size
    lo, hi = 0, p2
    acc = blocks.arrs
    step = 0
    while hi - lo > 1:
        half = (hi - lo) // 2
        mid = lo + half
        if vr < mid:
            partner = vr + half
            keep_lo, keep_hi = lo, mid
            give_lo, give_hi = mid, hi
        else:
            partner = vr - half
            keep_lo, keep_hi = mid, hi
            give_lo, give_hi = lo, mid
        send_nb = blocks.nbytes(give_lo, give_hi)
        recv_nb = blocks.nbytes(keep_lo, keep_hi)
        rreq, sreq = _exchange(sub, partner, partner, send_nb,
                               base_tag + step,
                               _window(acc, give_lo, give_hi))
        res = yield rreq
        yield sreq
        yield from _reduce_compute(sub, recv_nb)
        if res.data is not None:
            acc = acc or [None] * p2
            for j, i in enumerate(range(keep_lo, keep_hi)):
                acc[i] = _combine(op, acc[i], res.data[j])
        lo, hi = keep_lo, keep_hi
        step += 1
    return lo, acc


def _gather_segments_binomial(sub, base_tag: int, acc: list | None,
                              blocks: _Blocks):
    """Reverse-halving gather of per-rank segments to subgroup rank 0.

    Returns the full block list at rank 0 (None if no payload ever
    reached it), ``None`` elsewhere.
    """
    vr, p2 = sub.rank, sub.size
    seg_lo, seg_hi = vr, vr + 1
    mask = 1
    while mask < p2:
        if vr & mask:
            dst = vr - mask
            nb = blocks.nbytes(seg_lo, seg_hi)
            window = _window(acc, seg_lo, seg_hi)
            yield _isend(sub, dst, nb, base_tag + mask,
                         None if window is None else (seg_lo, window))
            return None
        src = vr + mask
        if src < p2:
            res = yield _irecv(sub, src, base_tag + mask)
            if res.data is not None:
                in_lo, in_blocks = res.data
                acc = acc or [None] * p2
                for j, i in enumerate(range(in_lo, in_lo + len(in_blocks))):
                    acc[i] = in_blocks[j]
            seg_hi = min(seg_hi + mask, p2)
        mask <<= 1
    return acc


def _reduce_rabenseifner(comm, base_tag: int, data: Any, nbytes: int, op: Op,
                         root: int):
    """Large-message reduce: fold to 2^m, halving reduce-scatter, binomial
    gather to survivor 0, then forward to ``root`` if it differs."""
    active, acc = yield from _fold_down(comm, base_tag, data, nbytes, op)
    result = None
    if active:
        sub = _survivor_group(comm)
        blocks = _Blocks(acc, nbytes, sub.size)
        seg_lo, accb = yield from _reduce_scatter_halving(
            sub, base_tag + 16, blocks, op
        )
        full = yield from _gather_segments_binomial(
            sub, base_tag + 2048, accb, blocks
        )
        if sub.rank == 0 and full is not None:
            arrs = [a for a in full if a is not None]
            result = np.concatenate(arrs) if arrs else None
    # Survivor 0 is always local rank 0 (rank 0 is even), so the
    # gathered result lands at rank 0 and is forwarded when the root
    # differs.
    if root != 0:
        if comm.rank == 0:
            yield _isend(comm, root, nbytes, base_tag + 4096, result)
            return None
        if comm.rank == root:
            res = yield _irecv(comm, 0, base_tag + 4096)
            return res.data
        return None
    return result if comm.rank == 0 else None


REDUCE_ALGORITHMS = {
    "binomial": _reduce_binomial,
    "rabenseifner": _reduce_rabenseifner,
}


def reduce(comm, seq: int, data: Any, nbytes: int | None, op: Op, root: int,
           algorithm: str | None = None):
    n = resolve_nbytes(data, nbytes)
    if comm.size == 1:
        return _done(data)
    if algorithm is None:
        algorithm = "binomial" if n < REDUCE_SHORT else "rabenseifner"
    fn = _pick(algorithm, REDUCE_ALGORITHMS, "binomial")
    return fn(comm, seq * _TAGSPAN, data, n, op, root)


# ---------------------------------------------------------------------------
# allreduce
# ---------------------------------------------------------------------------

def _allreduce_recursive_doubling(comm, base_tag: int, data: Any, nbytes: int,
                                  op: Op):
    active, acc = yield from _fold_down(comm, base_tag, data, nbytes, op)
    if active:
        sub = _survivor_group(comm)
        gidx, p2 = sub.rank, sub.size
        mask, step = 1, 0
        while mask < p2:
            partner = gidx ^ mask
            rreq, sreq = _exchange(sub, partner, partner, nbytes,
                                   base_tag + 16 + step, acc)
            res = yield rreq
            yield sreq
            yield from _reduce_compute(comm, nbytes)
            acc = _combine(op, acc, res.data)
            mask <<= 1
            step += 1
    else:
        acc = None
    out = yield from _unfold_up(comm, base_tag + 1, acc, nbytes)
    return out


def _allreduce_rabenseifner(comm, base_tag: int, data: Any, nbytes: int,
                            op: Op):
    """Reduce-scatter (recursive halving) + allgather (recursive doubling)."""
    active, acc = yield from _fold_down(comm, base_tag, data, nbytes, op)
    if active:
        sub = _survivor_group(comm)
        gidx, p2 = sub.rank, sub.size
        blocks = _Blocks(acc, nbytes, p2)
        seg_lo, accb = yield from _reduce_scatter_halving(
            sub, base_tag + 16, blocks, op
        )
        # Recursive-doubling allgather of the reduced blocks: at each step
        # ranks hold an aligned range of width ``mask`` and exchange it
        # with the partner's adjacent aligned range.
        mask, step = 1, 0
        while mask < p2:
            partner = gidx ^ mask
            lo = (gidx // mask) * mask
            other_lo = (partner // mask) * mask
            send_nb = blocks.nbytes(lo, lo + mask)
            rreq, sreq = _exchange(sub, partner, partner, send_nb,
                                   base_tag + 1024 + step,
                                   _window(accb, lo, lo + mask))
            res = yield rreq
            yield sreq
            if res.data is not None:
                accb = accb or [None] * p2
                for j, i in enumerate(range(other_lo, other_lo + mask)):
                    accb[i] = res.data[j]
            mask <<= 1
            step += 1
        arrs = [a for a in accb or () if a is not None]
        acc = np.concatenate(arrs) if arrs else None
    else:
        acc = None
    out = yield from _unfold_up(comm, base_tag + 1, acc, nbytes)
    return out


ALLREDUCE_ALGORITHMS = {
    "recursive_doubling": _allreduce_recursive_doubling,
    "rabenseifner": _allreduce_rabenseifner,
}


def allreduce(comm, seq: int, data: Any, nbytes: int | None, op: Op,
              algorithm: str | None = None):
    n = resolve_nbytes(data, nbytes)
    if comm.size == 1:
        return _done(data)
    if algorithm is None:
        algorithm = "recursive_doubling" if n < ALLREDUCE_SHORT else "rabenseifner"
    fn = _pick(algorithm, ALLREDUCE_ALGORITHMS, "recursive_doubling")
    return fn(comm, seq * _TAGSPAN, data, n, op)


# ---------------------------------------------------------------------------
# gather / scatter
# ---------------------------------------------------------------------------

def gather(comm, seq: int, data: Any, nbytes: int | None, root: int):
    """Binomial gather; root returns the list of contributions by rank."""
    n = resolve_nbytes(data, nbytes)
    rank, size = comm.rank, comm.size
    base_tag = seq * _TAGSPAN
    if size == 1:
        return [data]
        yield  # pragma: no cover
    vr = (rank - root) % size
    bag = {vr: data}
    mask = 1
    while mask < size:
        if vr & mask == 0:
            src_v = vr | mask
            if src_v < size:
                res = yield _irecv(comm, (src_v + root) % size, base_tag + mask)
                if res.data is not None:
                    bag.update(res.data)
        else:
            dst_v = vr & ~mask
            count = min(mask, size - vr)
            yield _isend(comm, (dst_v + root) % size, n * count,
                         base_tag + mask, bag)
            return None
        mask <<= 1
    return [bag.get((r - root) % size) for r in range(size)]


def scatter(comm, seq: int, datas: Sequence[Any] | None, nbytes: int | None,
            root: int):
    """Binomial scatter; returns this rank's piece."""
    rank, size = comm.rank, comm.size
    base_tag = seq * _TAGSPAN
    if nbytes is None:
        if datas is None:
            raise MPIError("scatter needs datas or nbytes")
        nbytes = max((payload_nbytes(d) for d in datas), default=0)
    if size == 1:
        return datas[0] if datas else None
        yield  # pragma: no cover
    vr = (rank - root) % size
    if vr == 0:
        bag = {v: (datas[(v + root) % size] if datas is not None else None)
               for v in range(size)}
        have_hi = size
    else:
        bag = {}
        have_hi = 0
        mask = 1
        while mask < size:
            if vr & mask:
                src_v = vr - mask
                res = yield _irecv(comm, (src_v + root) % size, base_tag + mask)
                if res.data is not None:
                    bag = res.data
                have_hi = min(vr + mask, size)
                break
            mask <<= 1
    # forwarding phase (root enters with the full bag)
    mask = 1
    while mask < size and not (vr & mask):
        mask <<= 1
    mask >>= 1
    while mask > 0:
        if vr + mask < size and have_hi > vr + mask:
            lo, hi = vr + mask, have_hi
            sub = {v: bag.get(v) for v in range(lo, hi)}
            yield _isend(comm, (lo + root) % size, nbytes * (hi - lo),
                         base_tag + mask, sub)
            have_hi = lo
        mask >>= 1
    return bag.get(vr)


# ---------------------------------------------------------------------------
# allgather / allgatherv
# ---------------------------------------------------------------------------

def _allgather_ring(comm, base_tag: int, items: list, sizes: list[int]):
    rank, size = comm.rank, comm.size
    right = (rank + 1) % size
    left = (rank - 1) % size
    for i in range(size - 1):
        send_block = (rank - i) % size
        recv_block = (rank - i - 1) % size
        rreq, sreq = _exchange(comm, right, left, sizes[send_block],
                               base_tag + i, items[send_block])
        res = yield rreq
        yield sreq
        items[recv_block] = res.data
    return items


def _allgather_recursive_doubling(comm, base_tag: int, items: list,
                                  sizes: list[int]):
    rank, size = comm.rank, comm.size
    if not _is_pow2(size):
        return (yield from _allgather_bruck(comm, base_tag, items, sizes))
    mask, step = 1, 0
    while mask < size:
        partner = rank ^ mask
        lo = (rank // mask) * mask
        other_lo = (partner // mask) * mask
        send_nb = sum(sizes[lo:lo + mask])
        payload = {i: items[i] for i in range(lo, lo + mask)
                   if items[i] is not None} or None
        rreq, sreq = _exchange(comm, partner, partner, send_nb,
                               base_tag + step, payload)
        res = yield rreq
        yield sreq
        if res.data is not None:
            for i, v in res.data.items():
                items[i] = v
        mask <<= 1
        step += 1
    return items


def _allgather_bruck(comm, base_tag: int, items: list, sizes: list[int]):
    """Bruck allgather: any size, ceil(log2 P) steps, doubling blocks."""
    rank, size = comm.rank, comm.size
    held = [(rank, items[rank])]
    pof2, step = 1, 0
    while pof2 < size:
        send_to = (rank - pof2) % size
        recv_from = (rank + pof2) % size
        count = min(pof2, size - pof2)
        chunk = held[:count]
        send_nb = sum(sizes[b] for (b, _v) in chunk)
        rreq, sreq = _exchange(comm, send_to, recv_from, send_nb,
                               base_tag + step, chunk)
        res = yield rreq
        yield sreq
        held.extend(res.data or [])
        pof2 <<= 1
        step += 1
    for b, v in held[:size]:
        items[b] = v
    return items


ALLGATHER_ALGORITHMS = {
    "ring": _allgather_ring,
    "recursive_doubling": _allgather_recursive_doubling,
    "bruck": _allgather_bruck,
}


def allgather(comm, seq: int, data: Any, nbytes: int | None,
              algorithm: str | None = None):
    n = resolve_nbytes(data, nbytes)
    size = comm.size
    if size == 1:
        return _done([data])
    if algorithm is None:
        if n * size <= ALLGATHER_TOTAL_SHORT:
            algorithm = "recursive_doubling" if _is_pow2(size) else "bruck"
        else:
            algorithm = "ring"
    items: list[Any] = [None] * size
    items[comm.rank] = data
    sizes = [n] * size
    fn = _pick(algorithm, ALLGATHER_ALGORITHMS, "ring")
    return fn(comm, seq * _TAGSPAN, items, sizes)


def allgatherv(comm, seq: int, data: Any, counts: Sequence[int] | None,
               algorithm: str | None = None):
    size = comm.size
    if counts is None:
        raise MPIError("allgatherv requires per-rank counts")
    if len(counts) != size:
        raise MPIError(f"counts has {len(counts)} entries for size {size}")
    if size == 1:
        return _done([data])
    items: list[Any] = [None] * size
    items[comm.rank] = data
    sizes = [int(c) for c in counts]
    if algorithm is None:
        # Same tuning rule as allgather, on the true total volume.
        if sum(sizes) <= ALLGATHER_TOTAL_SHORT:
            algorithm = "recursive_doubling" if _is_pow2(size) else "bruck"
        else:
            algorithm = "ring"
    fn = _pick(algorithm, ALLGATHER_ALGORITHMS, "ring")
    return fn(comm, seq * _TAGSPAN, items, sizes)


# ---------------------------------------------------------------------------
# alltoall / alltoallv
# ---------------------------------------------------------------------------

def _alltoall_pairwise(comm, base_tag: int, out_items: list, out_sizes: list):
    rank, size = comm.rank, comm.size
    in_items = [None] * size
    in_items[rank] = out_items[rank]
    for i in range(1, size):
        dst = (rank + i) % size
        src = (rank - i) % size
        rreq, sreq = _exchange(comm, dst, src, out_sizes[dst],
                               base_tag + i, out_items[dst])
        res = yield rreq
        yield sreq
        in_items[src] = res.data
    return in_items


def _alltoall_bruck(comm, base_tag: int, out_items: list, out_sizes: list):
    """Bruck alltoall: log steps of aggregated forwarding.

    Items travel as ``(dest, origin, payload)`` triples; carrying the
    origin replaces the index bookkeeping of the buffer-based original
    and has no timing effect.
    """
    rank, size = comm.rank, comm.size
    result = [None] * size
    result[rank] = out_items[rank]
    held = [(d, rank, out_items[d]) for d in range(size) if d != rank]
    pof2, step = 1, 0
    while pof2 < size:
        send_to = (rank + pof2) % size
        recv_from = (rank - pof2) % size
        moving = [t for t in held if ((t[0] - rank) % size) & pof2]
        held = [t for t in held if not ((t[0] - rank) % size) & pof2]
        send_nb = sum(out_sizes[t[0]] for t in moving)
        rreq, sreq = _exchange(comm, send_to, recv_from, send_nb,
                               base_tag + step, moving)
        res = yield rreq
        yield sreq
        for d, origin, v in res.data or []:
            if d == rank:
                result[origin] = v
            else:
                held.append((d, origin, v))
        pof2 <<= 1
        step += 1
    return result


ALLTOALL_ALGORITHMS = {
    "pairwise": _alltoall_pairwise,
    "bruck": _alltoall_bruck,
}


def alltoall(comm, seq: int, datas: Sequence[Any] | None, nbytes: int | None,
             algorithm: str | None = None):
    size = comm.size
    if datas is not None and len(datas) != size:
        raise MPIError(f"alltoall needs {size} send items, got {len(datas)}")
    if nbytes is None:
        if datas is None:
            raise MPIError("alltoall needs datas or nbytes")
        nbytes = max((payload_nbytes(d) for d in datas), default=0)
    if size == 1:
        return _done([datas[0] if datas else None])
    out_items = list(datas) if datas is not None else [None] * size
    out_sizes = [int(nbytes)] * size
    if algorithm is None:
        algorithm = "bruck" if nbytes <= ALLTOALL_SHORT else "pairwise"
    fn = _pick(algorithm, ALLTOALL_ALGORITHMS, "pairwise")
    return fn(comm, seq * _TAGSPAN, out_items, out_sizes)


def alltoallv(comm, seq: int, datas: Sequence[Any] | None,
              counts: Sequence[int] | None, algorithm: str | None = None):
    size = comm.size
    if counts is None:
        if datas is None:
            raise MPIError("alltoallv needs datas or counts")
        counts = [payload_nbytes(d) for d in datas]
    if len(counts) != size:
        raise MPIError(f"counts has {len(counts)} entries for size {size}")
    if size == 1:
        return _done([datas[0] if datas else None])
    out_items = list(datas) if datas is not None else [None] * size
    out_sizes = [int(c) for c in counts]
    return _alltoall_pairwise(comm, seq * _TAGSPAN, out_items, out_sizes)


# ---------------------------------------------------------------------------
# reduce_scatter
# ---------------------------------------------------------------------------

def _reduce_scatter_rechalving(comm, base_tag: int, data: Any, nbytes: int,
                               op: Op):
    if not _is_pow2(comm.size):
        raise MPIError("recursive_halving reduce_scatter needs 2^k ranks")
    blocks = _Blocks(data, nbytes, comm.size)
    seg_lo, acc = yield from _reduce_scatter_halving(
        _survivor_group(comm), base_tag, blocks, op)
    return None if acc is None else acc[seg_lo]


def _reduce_scatter_via_reduce(comm, base_tag: int, data: Any, nbytes: int,
                               op: Op):
    """Rabenseifner reduce to 0 + binomial scatterv (any size)."""
    size = comm.size
    sizes = balanced_split(nbytes, size)
    total = yield from _reduce_rabenseifner(comm, base_tag, data, nbytes, op, 0)
    pieces = split_payload(total, size) if comm.rank == 0 else None
    my = yield from scatter(comm, (base_tag // _TAGSPAN) * 2 + 1, pieces,
                            max(sizes), 0)
    return my


def _reduce_scatter_pairwise(comm, base_tag: int, data: Any, nbytes: int,
                             op: Op):
    """P-1 steps; each step exchanges one block and folds it in."""
    rank, size = comm.rank, comm.size
    blocks = _Blocks(data, nbytes, size)
    acc = blocks.arr(rank)
    for i in range(1, size):
        dst = (rank + i) % size
        src = (rank - i) % size
        rreq, sreq = _exchange(comm, dst, src, blocks.nbytes(dst, dst + 1),
                               base_tag + i, blocks.arr(dst))
        res = yield rreq
        yield sreq
        yield from _reduce_compute(comm, blocks.nbytes(rank, rank + 1))
        acc = _combine(op, acc, res.data)
    return acc


REDUCE_SCATTER_ALGORITHMS = {
    "recursive_halving": _reduce_scatter_rechalving,
    "reduce_scatterv": _reduce_scatter_via_reduce,
    "pairwise": _reduce_scatter_pairwise,
}


def reduce_scatter(comm, seq: int, data: Any, nbytes: int | None, op: Op,
                   algorithm: str | None = None):
    n = resolve_nbytes(data, nbytes)
    size = comm.size
    if size == 1:
        return _done(data)
    if algorithm is None:
        algorithm = "recursive_halving" if _is_pow2(size) else "reduce_scatterv"
    fn = _pick(algorithm, REDUCE_SCATTER_ALGORITHMS, "recursive_halving")
    return fn(comm, seq * _TAGSPAN, data, n, op)


# ---------------------------------------------------------------------------
# scan / exscan
# ---------------------------------------------------------------------------

def _scan_recursive_doubling(comm, base_tag: int, data: Any, nbytes: int,
                             op: Op, inclusive: bool):
    """Prefix reduction by recursive doubling (any communicator size).

    Rank r ends with op over ranks [0, r] (inclusive) or [0, r)
    (exclusive; rank 0 gets ``None``).
    """
    rank, size = comm.rank, comm.size
    acc = data            # running op over a contiguous rank range
    prefix = data if inclusive else None  # op over ranks [0, r] or [0, r)
    mask, step = 1, 0
    while mask < size:
        partner = rank ^ mask
        if partner < size:
            rreq, sreq = _exchange(comm, partner, partner, nbytes,
                                   base_tag + step, acc)
            res = yield rreq
            yield sreq
            yield from _reduce_compute(comm, nbytes)
            incoming = res.data
            if partner < rank:
                # partner's range lies entirely below mine
                prefix = _combine(op, incoming, prefix)
            acc = _combine(op, acc, incoming)
        mask <<= 1
        step += 1
    return prefix


SCAN_ALGORITHMS = {"recursive_doubling": _scan_recursive_doubling}


def scan(comm, seq: int, data: Any, nbytes: int | None, op: Op,
         algorithm: str | None = None):
    n = resolve_nbytes(data, nbytes)
    if comm.size == 1:
        return _done(data)
    fn = _pick(algorithm, SCAN_ALGORITHMS, "recursive_doubling")
    return fn(comm, seq * _TAGSPAN, data, n, op, True)


def exscan(comm, seq: int, data: Any, nbytes: int | None, op: Op,
           algorithm: str | None = None):
    n = resolve_nbytes(data, nbytes)
    if comm.size == 1:
        return _done(None)
    fn = _pick(algorithm, SCAN_ALGORITHMS, "recursive_doubling")
    return fn(comm, seq * _TAGSPAN, data, n, op, False)


# ---------------------------------------------------------------------------
# gatherv / scatterv
# ---------------------------------------------------------------------------

def gatherv(comm, seq: int, data: Any, counts: Sequence[int] | None,
            root: int):
    """Variable-count gather (binomial tree carrying per-rank sizes)."""
    rank, size = comm.rank, comm.size
    if counts is None:
        raise MPIError("gatherv requires per-rank counts")
    if len(counts) != size:
        raise MPIError(f"counts has {len(counts)} entries for size {size}")
    base_tag = seq * _TAGSPAN
    if size == 1:
        return [data]
        yield  # pragma: no cover
    vr = (rank - root) % size
    bag = {vr: data}
    vsize = lambda v: int(counts[(v + root) % size])  # noqa: E731
    mask = 1
    while mask < size:
        if vr & mask == 0:
            src_v = vr | mask
            if src_v < size:
                res = yield _irecv(comm, (src_v + root) % size,
                                   base_tag + mask)
                if res.data is not None:
                    bag.update(res.data)
        else:
            dst_v = vr & ~mask
            nb = sum(vsize(v) for v in range(vr, min(vr + mask, size)))
            yield _isend(comm, (dst_v + root) % size, nb, base_tag + mask,
                         bag)
            return None
        mask <<= 1
    return [bag.get((r - root) % size) for r in range(size)]


def scatterv(comm, seq: int, datas: Sequence[Any] | None,
             counts: Sequence[int] | None, root: int):
    """Variable-count scatter (binomial tree carrying per-rank sizes)."""
    rank, size = comm.rank, comm.size
    if counts is None:
        raise MPIError("scatterv requires per-rank counts")
    if len(counts) != size:
        raise MPIError(f"counts has {len(counts)} entries for size {size}")
    base_tag = seq * _TAGSPAN
    if size == 1:
        return datas[0] if datas else None
        yield  # pragma: no cover
    vr = (rank - root) % size
    vsize = lambda v: int(counts[(v + root) % size])  # noqa: E731
    if vr == 0:
        bag = {v: (datas[(v + root) % size] if datas is not None else None)
               for v in range(size)}
        have_hi = size
    else:
        bag = {}
        have_hi = 0
        mask = 1
        while mask < size:
            if vr & mask:
                src_v = vr - mask
                res = yield _irecv(comm, (src_v + root) % size,
                                   base_tag + mask)
                if res.data is not None:
                    bag = res.data
                have_hi = min(vr + mask, size)
                break
            mask <<= 1
    mask = 1
    while mask < size and not (vr & mask):
        mask <<= 1
    mask >>= 1
    while mask > 0:
        if vr + mask < size and have_hi > vr + mask:
            lo, hi = vr + mask, have_hi
            sub = {v: bag.get(v) for v in range(lo, hi)}
            nb = sum(vsize(v) for v in range(lo, hi))
            yield _isend(comm, (lo + root) % size, nb, base_tag + mask, sub)
            have_hi = lo
        mask >>= 1
    return bag.get(vr)
