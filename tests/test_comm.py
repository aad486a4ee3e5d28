"""Communicator management: split, dup, rank translation."""

import numpy as np
import pytest

from repro.core.errors import MPIError
from repro.mpi import SUM
from repro.mpi.comm import Comm, _iota
from tests.conftest import make_test_machine, run_ranks

M = make_test_machine(cpus_per_node=2, max_cpus=64)


def test_split_into_even_odd():
    def prog(comm):
        sub = yield from comm.split(color=comm.rank % 2)
        total = yield from sub.allreduce(data=float(comm.rank), nbytes=8,
                                         op=SUM)
        return sub.rank, sub.size, total

    out = run_ranks(M, 8, prog)
    for r in range(8):
        sub_rank, sub_size, total = out.results[r]
        assert sub_size == 4
        assert sub_rank == r // 2
        expected = sum(x for x in range(8) if x % 2 == r % 2)
        assert total == expected


def test_split_key_reorders():
    def prog(comm):
        # reversed key ordering
        sub = yield from comm.split(color=0, key=-comm.rank)
        return sub.rank

    out = run_ranks(M, 4, prog)
    assert list(out.results) == [3, 2, 1, 0]


@pytest.mark.parametrize("n", [4, 300])
def test_identity_flag_of_world_dup_and_reordering_split(n):
    """COMM_WORLD shares one world-rank tuple across its ranks and is the
    identity mapping, as is a ``dup``; a split that reorders ranks is
    not, and maps received sources back (``_localise``)."""
    def prog(comm):
        dup = yield from comm.dup()
        rev = yield from comm.split(color=0, key=-comm.rank)
        peer = rev.size - 1 - rev.rank
        res = yield from rev.sendrecv(peer, peer, nbytes=8, sendtag=1)
        return (comm._world_ranks, comm._identity, dup._identity,
                rev._identity, res.source == peer)

    out = run_ranks(M if n <= 64 else make_test_machine(max_cpus=n), n, prog)
    world = out.results[0][0]
    assert world is _iota(n) and world == tuple(range(n))
    for ranks, world_id, dup_id, rev_id, localised in out.results:
        assert ranks is world
        assert (world_id, dup_id, rev_id, localised) == (True, True, False,
                                                         True)


def test_split_isolated_channels():
    """Messages in a child comm must not match the parent's."""
    def prog(comm):
        sub = yield from comm.split(color=0)
        if comm.rank == 0:
            yield from sub.send(1, nbytes=8, data="sub", tag=3)
            yield from comm.send(1, nbytes=8, data="parent", tag=3)
        else:
            parent_msg = yield from comm.recv(0, tag=3)
            sub_msg = yield from sub.recv(0, tag=3)
            return parent_msg.data, sub_msg.data

    out = run_ranks(M, 2, prog)
    assert out.results[1] == ("parent", "sub")


def test_nested_split():
    def prog(comm):
        half = yield from comm.split(color=comm.rank // 4)
        quarter = yield from half.split(color=half.rank // 2)
        peers = yield from quarter.allgather(data=comm.rank, nbytes=8)
        return peers

    out = run_ranks(M, 8, prog)
    assert out.results[0] == [0, 1]
    assert out.results[5] == [4, 5]
    assert out.results[7] == [6, 7]


def test_dup_preserves_layout():
    def prog(comm):
        dup = yield from comm.dup()
        return dup.rank, dup.size

    out = run_ranks(M, 5, prog)
    assert [r for r, _s in out.results] == list(range(5))
    assert all(s == 5 for _r, s in out.results)


def test_source_rank_localised_in_subcomm():
    def prog(comm):
        # ranks 2,3 form a subcomm; world rank 3 is sub rank 1
        sub = yield from comm.split(color=comm.rank // 2)
        if sub.rank == 1:
            yield from sub.send(0, nbytes=8, data="x")
        else:
            res = yield from sub.recv(1)
            return res.source

    out = run_ranks(M, 4, prog)
    assert out.results[0] == 1
    assert out.results[2] == 1


def test_node_of_matches_placement():
    def prog(comm):
        yield from comm.barrier()
        return [comm.node_of(r) for r in range(comm.size)]

    out = run_ranks(M, 6, prog)
    assert out.results[0] == [0, 0, 1, 1, 2, 2]


def test_comm_rank_validation():
    cluster_like = None

    def prog(comm):
        with pytest.raises(MPIError):
            comm._global(99)
        yield 0.0

    run_ranks(M, 2, prog)


def test_bad_constructor_rank():
    with pytest.raises(MPIError):
        Comm(cluster=None, rank=3, world_ranks=(0, 1))


def test_now_reflects_virtual_time():
    def prog(comm):
        t0 = comm.now
        yield from comm.elapse(1.25)
        return comm.now - t0

    out = run_ranks(M, 1, prog)
    assert out.results[0] == pytest.approx(1.25)
