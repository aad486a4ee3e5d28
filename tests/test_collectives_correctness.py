"""Every collective x every algorithm x assorted communicator sizes,
validated against NumPy references with real payloads."""

import numpy as np
import pytest

from repro.mpi import BXOR, MAX, MIN, PROD, SUM
from repro.mpi.collectives import (
    ALLGATHER_ALGORITHMS,
    ALLREDUCE_ALGORITHMS,
    ALLTOALL_ALGORITHMS,
    BARRIER_ALGORITHMS,
    BCAST_ALGORITHMS,
    REDUCE_ALGORITHMS,
    REDUCE_SCATTER_ALGORITHMS,
)
from tests.conftest import make_test_machine, run_ranks

SIZES = [2, 3, 4, 5, 7, 8, 13, 16]
POW2_SIZES = [2, 4, 8, 16]

M = make_test_machine(cpus_per_node=2, max_cpus=64)


def payload(rank: int, n: int = 12) -> np.ndarray:
    return (np.arange(n, dtype=np.float64) + 1.0) * (rank + 1)


# -- barrier --------------------------------------------------------------------

@pytest.mark.parametrize("algorithm", sorted(BARRIER_ALGORITHMS))
@pytest.mark.parametrize("p", SIZES)
def test_barrier_synchronises(p, algorithm):
    def prog(comm):
        # stagger entries; everyone must leave after the last entry
        yield from comm.elapse(0.001 * comm.rank)
        yield from comm.barrier(algorithm=algorithm)
        return comm.now

    out = run_ranks(M, p, prog)
    latest_entry = 0.001 * (p - 1)
    assert all(t >= latest_entry for t in out.results)


# -- bcast ----------------------------------------------------------------------

@pytest.mark.parametrize("algorithm", sorted(BCAST_ALGORITHMS))
@pytest.mark.parametrize("p", SIZES)
@pytest.mark.parametrize("root", [0, 1])
def test_bcast_delivers_root_payload(p, root, algorithm):
    ref = payload(root)

    def prog(comm):
        data = ref.copy() if comm.rank == root else None
        out = yield from comm.bcast(data=data, nbytes=ref.nbytes, root=root,
                                    algorithm=algorithm)
        return out

    out = run_ranks(M, p, prog)
    for r in range(p):
        assert np.array_equal(out.results[r], ref), f"rank {r}"


# -- reduce ----------------------------------------------------------------------

@pytest.mark.parametrize("algorithm", sorted(REDUCE_ALGORITHMS))
@pytest.mark.parametrize("p", SIZES)
@pytest.mark.parametrize("root", [0, 2])
def test_reduce_sum(p, root, algorithm):
    if root >= p:
        pytest.skip("root outside communicator")
    ref = np.sum([payload(r) for r in range(p)], axis=0)

    def prog(comm):
        out = yield from comm.reduce(data=payload(comm.rank), op=SUM,
                                     root=root, algorithm=algorithm)
        return out

    out = run_ranks(M, p, prog)
    assert np.allclose(out.results[root], ref)
    for r in range(p):
        if r != root:
            assert out.results[r] is None


@pytest.mark.parametrize("op,npop", [(MAX, np.max), (MIN, np.min),
                                     (PROD, np.prod)])
def test_reduce_other_ops(op, npop):
    p = 5
    ref = npop([payload(r) for r in range(p)], axis=0)

    def prog(comm):
        out = yield from comm.reduce(data=payload(comm.rank), op=op, root=0)
        return out

    out = run_ranks(M, p, prog)
    assert np.allclose(out.results[0], ref)


def test_reduce_bxor_integers():
    p = 6
    bufs = [np.arange(8, dtype=np.uint64) * (r + 3) for r in range(p)]
    ref = bufs[0].copy()
    for b in bufs[1:]:
        ref ^= b

    def prog(comm):
        out = yield from comm.reduce(data=bufs[comm.rank], op=BXOR, root=0)
        return out

    out = run_ranks(M, p, prog)
    assert np.array_equal(out.results[0], ref)


# -- allreduce --------------------------------------------------------------------

@pytest.mark.parametrize("algorithm", sorted(ALLREDUCE_ALGORITHMS))
@pytest.mark.parametrize("p", SIZES)
def test_allreduce_sum_everywhere(p, algorithm):
    ref = np.sum([payload(r) for r in range(p)], axis=0)

    def prog(comm):
        out = yield from comm.allreduce(data=payload(comm.rank), op=SUM,
                                        algorithm=algorithm)
        return out

    out = run_ranks(M, p, prog)
    for r in range(p):
        assert np.allclose(out.results[r], ref), f"rank {r}"


# -- gather / scatter ---------------------------------------------------------------

@pytest.mark.parametrize("p", SIZES)
@pytest.mark.parametrize("root", [0, 1])
def test_gather_collects_by_rank(p, root):
    def prog(comm):
        out = yield from comm.gather(data=float(comm.rank * 11), nbytes=8,
                                     root=root)
        return out

    out = run_ranks(M, p, prog)
    assert out.results[root] == [r * 11.0 for r in range(p)]
    for r in range(p):
        if r != root:
            assert out.results[r] is None


@pytest.mark.parametrize("p", SIZES)
@pytest.mark.parametrize("root", [0, 1])
def test_scatter_distributes_by_rank(p, root):
    items = [f"item{r}" for r in range(p)]

    def prog(comm):
        datas = items if comm.rank == root else None
        out = yield from comm.scatter(datas=datas, nbytes=16, root=root)
        return out

    out = run_ranks(M, p, prog)
    assert list(out.results) == items


def test_gather_then_scatter_roundtrip():
    p = 7

    def prog(comm):
        gathered = yield from comm.gather(data=comm.rank * 2, nbytes=8, root=0)
        out = yield from comm.scatter(datas=gathered, nbytes=8, root=0)
        return out

    out = run_ranks(M, p, prog)
    assert list(out.results) == [2 * r for r in range(p)]


# -- allgather(v) --------------------------------------------------------------------

@pytest.mark.parametrize("algorithm", sorted(ALLGATHER_ALGORITHMS))
@pytest.mark.parametrize("p", SIZES)
def test_allgather_orders_by_rank(p, algorithm):
    def prog(comm):
        out = yield from comm.allgather(data=payload(comm.rank),
                                        algorithm=algorithm)
        return out

    out = run_ranks(M, p, prog)
    for r in range(p):
        got = out.results[r]
        assert len(got) == p
        for src in range(p):
            assert np.array_equal(got[src], payload(src)), (r, src)


@pytest.mark.parametrize("algorithm", ["ring", "bruck"])
@pytest.mark.parametrize("p", SIZES)
def test_allgatherv_variable_counts(p, algorithm):
    counts = [8 * (r % 3 + 1) for r in range(p)]

    def prog(comm):
        data = np.full(counts[comm.rank] // 8, float(comm.rank))
        out = yield from comm.allgatherv(data=data, counts=counts,
                                         algorithm=algorithm)
        return out

    out = run_ranks(M, p, prog)
    for got in out.results:
        for src in range(p):
            assert np.array_equal(got[src],
                                  np.full(counts[src] // 8, float(src)))


# -- alltoall(v) ---------------------------------------------------------------------

@pytest.mark.parametrize("algorithm", sorted(ALLTOALL_ALGORITHMS))
@pytest.mark.parametrize("p", SIZES)
def test_alltoall_personalised_exchange(p, algorithm):
    def prog(comm):
        # element [s][d] distinctly identifies the (source, dest) pair
        datas = [np.array([comm.rank * 100.0 + d]) for d in range(p)]
        out = yield from comm.alltoall(datas=datas, algorithm=algorithm)
        return out

    out = run_ranks(M, p, prog)
    for d in range(p):
        got = out.results[d]
        for s in range(p):
            assert got[s] is not None and got[s][0] == s * 100.0 + d, (s, d)


@pytest.mark.parametrize("p", [2, 3, 5, 8])
def test_alltoallv_asymmetric_sizes(p):
    def prog(comm):
        datas = [np.full(d + 1, comm.rank * 10.0 + d) for d in range(p)]
        out = yield from comm.alltoallv(datas=datas)
        return out

    out = run_ranks(M, p, prog)
    for d in range(p):
        got = out.results[d]
        for s in range(p):
            assert np.array_equal(got[s], np.full(d + 1, s * 10.0 + d))


# -- reduce_scatter --------------------------------------------------------------------

@pytest.mark.parametrize("p", SIZES)
def test_reduce_scatter_default_algorithm(p):
    n = 4 * p  # evenly divisible blocks

    def prog(comm):
        data = (np.arange(n, dtype=np.float64) + 1.0) * (comm.rank + 1)
        out = yield from comm.reduce_scatter(data=data, op=SUM)
        return out

    out = run_ranks(M, p, prog)
    scale = sum(r + 1 for r in range(p))
    full = (np.arange(n, dtype=np.float64) + 1.0) * scale
    blocks = np.array_split(full, p)
    for r in range(p):
        assert np.allclose(out.results[r], blocks[r]), f"rank {r}"


@pytest.mark.parametrize("algorithm", ["recursive_halving"])
@pytest.mark.parametrize("p", POW2_SIZES)
def test_reduce_scatter_recursive_halving(p, algorithm):
    n = 2 * p

    def prog(comm):
        data = np.ones(n) * (comm.rank + 1)
        out = yield from comm.reduce_scatter(data=data, op=SUM,
                                             algorithm=algorithm)
        return out

    out = run_ranks(M, p, prog)
    total = sum(r + 1 for r in range(p))
    for r in range(p):
        assert np.allclose(out.results[r], total)


@pytest.mark.parametrize("algorithm", ["pairwise", "reduce_scatterv"])
@pytest.mark.parametrize("p", [3, 5, 8])
def test_reduce_scatter_alternative_algorithms(p, algorithm):
    n = 4 * p

    def prog(comm):
        data = np.arange(n, dtype=np.float64) + comm.rank
        out = yield from comm.reduce_scatter(data=data, op=SUM,
                                             algorithm=algorithm)
        return out

    out = run_ranks(M, p, prog)
    full = np.sum([np.arange(n, dtype=np.float64) + r for r in range(p)],
                  axis=0)
    blocks = np.array_split(full, p)
    for r in range(p):
        assert np.allclose(out.results[r], blocks[r])


# -- size-1 edge cases --------------------------------------------------------------------

def test_collectives_on_single_rank():
    def prog(comm):
        yield from comm.barrier()
        b = yield from comm.bcast(data=1.5, nbytes=8)
        r = yield from comm.reduce(data=2.5, nbytes=8)
        a = yield from comm.allreduce(data=3.5, nbytes=8)
        g = yield from comm.allgather(data=4.5, nbytes=8)
        t = yield from comm.alltoall(datas=[5.5])
        gv = yield from comm.allgatherv(data=6.5, counts=[8])
        tv = yield from comm.alltoallv(datas=[7.5], counts=[8])
        rs = yield from comm.reduce_scatter(data=8.5, nbytes=8)
        sc = yield from comm.scan(data=9.5, nbytes=8)
        ex = yield from comm.exscan(data=10.5, nbytes=8)
        return b, r, a, g, t, gv, tv, rs, sc, ex

    out = run_ranks(M, 1, prog)
    assert out.results[0] == (1.5, 2.5, 3.5, [4.5], [5.5], [6.5], [7.5],
                              8.5, 9.5, None)


def test_unknown_algorithm_rejected():
    from repro.core.errors import MPIError

    def prog(comm):
        with pytest.raises(MPIError, match="unknown algorithm"):
            yield from comm.bcast(nbytes=8, algorithm="telepathy")

    run_ranks(M, 2, prog)


#: One bad call per dispatching collective; each raises MPIError.
BAD_CALLS = {
    "barrier": lambda comm: comm.barrier(algorithm="telepathy"),
    "bcast": lambda comm: comm.bcast(),
    "reduce": lambda comm: comm.reduce(nbytes=-1),
    "allreduce": lambda comm: comm.allreduce(nbytes=8, algorithm="telepathy"),
    "allgather": lambda comm: comm.allgather(nbytes=8, algorithm="telepathy"),
    "allgatherv": lambda comm: comm.allgatherv(data=1.0),
    "alltoall": lambda comm: comm.alltoall(datas=[1.0]),
    "alltoallv": lambda comm: comm.alltoallv(),
    "reduce_scatter": lambda comm: comm.reduce_scatter(
        nbytes=8, algorithm="telepathy"),
    "scan": lambda comm: comm.scan(nbytes=8, algorithm="telepathy"),
    "exscan": lambda comm: comm.exscan(nbytes=8, algorithm="telepathy"),
}


@pytest.mark.parametrize("name", sorted(BAD_CALLS))
def test_bad_collective_argument_raises_out_of_run(name):
    from repro.core.errors import MPIError

    def prog(comm):
        yield from BAD_CALLS[name](comm)

    with pytest.raises(MPIError):
        run_ranks(M, 2, prog)


@pytest.mark.parametrize("p", [1, 2])
def test_every_collective_returns_a_generator(p):
    import inspect

    calls = {
        "barrier": lambda c: c.barrier(),
        "bcast": lambda c: c.bcast(nbytes=8),
        "reduce": lambda c: c.reduce(nbytes=8),
        "allreduce": lambda c: c.allreduce(nbytes=8),
        "gather": lambda c: c.gather(nbytes=8),
        "scatter": lambda c: c.scatter(nbytes=8),
        "allgather": lambda c: c.allgather(nbytes=8),
        "allgatherv": lambda c: c.allgatherv(counts=[8] * p),
        "alltoall": lambda c: c.alltoall(nbytes=8),
        "alltoallv": lambda c: c.alltoallv(counts=[8] * p),
        "reduce_scatter": lambda c: c.reduce_scatter(nbytes=8),
        "scan": lambda c: c.scan(nbytes=8),
        "exscan": lambda c: c.exscan(nbytes=8),
        "gatherv": lambda c: c.gatherv(counts=[8] * p),
        "scatterv": lambda c: c.scatterv(counts=[8] * p),
    }

    def prog(comm):
        kinds = {}
        for name, call in calls.items():
            gen = call(comm)
            kinds[name] = inspect.isgenerator(gen)
            gen.close()  # never started: no message was posted
        return kinds
        yield  # pragma: no cover - generator marker

    for kinds in run_ranks(M, p, prog).results:
        assert kinds == dict.fromkeys(calls, True)
