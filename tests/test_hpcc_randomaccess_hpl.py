"""G-RandomAccess and G-HPL tests."""

import math

import numpy as np
import pytest

from repro import get_machine
from repro.core.errors import BenchmarkError
from repro.hpcc.hpl import (
    HPLConfig,
    assemble_lu,
    default_n,
    hpl_flops,
    hpl_lu_program,
    hpl_model_time,
    reference_matrix,
    run_hpl,
    run_hpl_skeleton,
)
from repro.hpcc.randomaccess import (
    RandomAccessConfig,
    _rank_updates,
    randomaccess_program,
    reference_table,
    run_randomaccess,
)
from repro.mpi.cluster import Cluster
from tests.conftest import make_test_machine

M = make_test_machine(cpus_per_node=2, max_cpus=64)


# -- RandomAccess ---------------------------------------------------------------

@pytest.mark.parametrize("p", [1, 2, 4, 8])
def test_randomaccess_table_matches_serial_replay(p):
    cfg = RandomAccessConfig(local_table_words=128, updates_per_word=2,
                             bucket=32, validate=True)
    cl = Cluster(M, p)
    out = cl.run(randomaccess_program, cfg)
    got = np.concatenate([r[2] for r in out.results])
    ref = reference_table(cl.seed, p, cfg)
    assert np.array_equal(got, ref)


def test_randomaccess_all_updates_applied():
    cfg = RandomAccessConfig(local_table_words=64, updates_per_word=4,
                             bucket=16, validate=True)
    cl = Cluster(M, 4)
    out = cl.run(randomaccess_program, cfg)
    applied = sum(r[1] for r in out.results)
    assert applied == 4 * 64 * 4  # every generated update landed somewhere


def sendrecv_randomaccess_program(comm, cfg: RandomAccessConfig):
    """The timing-only path with every exchange through ``comm.sendrecv``:
    the reference the transport-level fast path must match."""
    p = comm.size
    local = cfg.local_table_words
    my_updates = local * cfg.updates_per_word
    stream = _rank_updates(comm.cluster.seed, comm.rank, my_updates)
    mask = np.uint64(local * p - 1)
    dims = int(math.log2(p))
    yield from comm.barrier()
    t0 = comm.now
    bucket_n = cfg.bucket
    rounds = -(-my_updates // bucket_n)
    dest = (stream & mask) >> np.uint64(local.bit_length() - 1)
    moves = np.zeros((dims, rounds * bucket_n), dtype=bool)
    for k in range(dims):
        go = (dest >> np.uint64(k)) & np.uint64(1)
        moves[k, :my_updates] = go != np.uint64((comm.rank >> k) & 1)
    counts = moves.reshape(dims, rounds, bucket_n).sum(axis=2).tolist()
    applied = 0
    for r in range(rounds):
        for k in range(dims):
            partner = comm.rank ^ (1 << k)
            yield from comm.sendrecv(partner, partner,
                                     nbytes=counts[k][r] * 8, sendtag=k)
        count = min(bucket_n, my_updates - r * bucket_n)
        yield from comm.compute(nbytes=8.0 * count, flops=count,
                                kernel="random_access")
        applied += count
    return comm.now - t0, applied, None


def on_split(program, key):
    """Run ``program`` on a split of COMM_WORLD ordered by ``key(rank,
    size)``; ``None`` runs it on COMM_WORLD itself."""
    def run(comm, cfg):
        if key is not None:
            comm = yield from comm.split(color=0,
                                         key=key(comm.rank, comm.size))
        return (yield from program(comm, cfg))
    return run


@pytest.mark.parametrize("machine", ["test", "sx8"])
@pytest.mark.parametrize("p,order", [
    (8, "world"), (16, "world"), (16, "reversed"), (8, "rotated")])
def test_randomaccess_fast_path_matches_comm_sendrecv(machine, p, order):
    """Exchanging through the transport gives the bit-identical elapsed
    time on every rank and the same engine event count as the same loop
    through ``comm.sendrecv``; on split communicators whose ranks are
    not the world's, the partners' world-rank translation matters."""
    key = {"world": None,
           "reversed": lambda r, n: n - 1 - r,
           "rotated": lambda r, n: (r + 3) % n}[order]
    m = M if machine == "test" else get_machine(machine)
    cfg = RandomAccessConfig(local_table_words=256, updates_per_word=2)
    runs = []
    for program in (randomaccess_program, sendrecv_randomaccess_program):
        cl = Cluster(m, p)
        out = cl.run(on_split(program, key), cfg)
        runs.append(([(e.hex(), n) for e, n, _table in out.results],
                     cl.engine.events_processed, out.elapsed.hex()))
    assert runs[0] == runs[1]


def test_randomaccess_non_pow2_algorithmic_rejected():
    with pytest.raises(BenchmarkError, match="power-of-two"):
        Cluster(M, 3).run(randomaccess_program, RandomAccessConfig())


def test_randomaccess_macro_handles_any_p():
    res = run_randomaccess(get_machine("sx8"), 24, mode="macro")
    assert res.gups > 0


def test_randomaccess_macro_vs_algorithmic_same_magnitude():
    cfg = RandomAccessConfig(local_table_words=256, updates_per_word=1,
                             bucket=8)
    alg = run_randomaccess(M, 8, cfg, mode="algorithmic")
    mac = run_randomaccess(M, 8, cfg, mode="macro")
    assert 0.2 < mac.gups / alg.gups < 5.0


def test_randomaccess_bad_table_size():
    with pytest.raises(BenchmarkError, match="power of two"):
        Cluster(M, 2).run(randomaccess_program,
                          RandomAccessConfig(local_table_words=100))


def test_scalar_systems_beat_vector_in_gups_per_flop():
    """Paper §4.1.2: RandomAccess is hostile to the vector machines; the
    scalar commodity systems lead it relative to their HPL."""
    flagship = {"opteron": 64, "sx8": 576, "xeon": 512}
    ratios = {}
    for name, p in flagship.items():
        m = get_machine(name)
        res = run_randomaccess(m, p, mode="macro")
        ratios[name] = res.gups / hpl_model_time(m, p).gflops
    assert ratios["opteron"] > ratios["sx8"]
    assert ratios["xeon"] > ratios["sx8"]
    # Table 3 anchor: the maximum sits near 4.9e-5 update/flop.
    assert 1e-5 < max(ratios.values()) < 2e-4


# -- HPL ---------------------------------------------------------------------------

def test_hpl_flops_count():
    assert hpl_flops(1000) == pytest.approx(2e9 / 3 + 1.5e6)


def test_default_n_respects_memory():
    n = default_n(M, 8, fill=0.5, nb=128)
    mem = M.node.memory_bytes / M.node.cpus * 8
    assert 8.0 * n * n <= 0.5 * mem
    assert n % 128 == 0


def test_hpl_model_efficiency_below_spec():
    res = hpl_model_time(M, 16)
    assert 0 < res.efficiency <= M.processor.hpl_eff


def test_hpl_model_efficiency_droops_with_scale():
    e_small = hpl_model_time(M, 2).efficiency
    e_large = hpl_model_time(M, 64).efficiency
    assert e_large < e_small


def test_hpl_single_rank_no_comm():
    res = hpl_model_time(M, 1, HPLConfig(n=4096))
    assert res.efficiency == pytest.approx(M.processor.hpl_eff, rel=1e-6)


def test_hpl_skeleton_requires_n():
    with pytest.raises(BenchmarkError):
        run_hpl_skeleton(M, 4, HPLConfig())


def test_hpl_skeleton_agrees_with_model():
    """The DES skeleton and the analytic model must tell the same story."""
    cfg = HPLConfig(n=8192, nb=512)
    skel = run_hpl_skeleton(M, 16, cfg)
    model = hpl_model_time(M, 16, cfg)
    assert skel.elapsed == pytest.approx(model.elapsed, rel=0.5)


def test_hpl_mode_dispatch():
    assert run_hpl(M, 4, HPLConfig(n=2048), mode="model").n == 2048
    assert run_hpl(M, 4, HPLConfig(nb=128), mode="skeleton").nprocs == 4
    with pytest.raises(BenchmarkError):
        run_hpl(M, 4, mode="teleport")


@pytest.mark.parametrize("p,nb", [(2, 4), (3, 4), (4, 8)])
def test_distributed_lu_factorisation_exact(p, nb):
    n = 8 * nb if p != 3 else 6 * nb
    cl = Cluster(M, p)
    out = cl.run(hpl_lu_program, n, nb)
    lower, upper = assemble_lu(out.results, n, nb)
    a = reference_matrix(cl.seed, n)
    residual = np.abs(lower @ upper - a).max() / np.abs(a).max()
    assert residual < 1e-10


def test_lu_solves_linear_system():
    n, nb, p = 32, 8, 2
    cl = Cluster(M, p)
    out = cl.run(hpl_lu_program, n, nb)
    lower, upper = assemble_lu(out.results, n, nb)
    a = reference_matrix(cl.seed, n)
    b = np.arange(n, dtype=np.float64)
    y = np.linalg.solve(lower, b)
    x = np.linalg.solve(upper, y)
    assert np.allclose(a @ x, b)


def test_sx8_hpl_table3_anchor():
    """G-HPL at 576 CPUs ~ 8.7 TF/s (paper Table 3: 8.729)."""
    res = hpl_model_time(get_machine("sx8"), 576)
    assert res.tflops == pytest.approx(8.7, rel=0.02)


def test_opteron_dgemm_over_hpl_anchor():
    """EP-DGEMM / G-HPL ~ 1.8-1.9 for the Opteron (paper: 1.925)."""
    m = get_machine("opteron")
    hpl = hpl_model_time(m, 64)
    dgemm = m.processor.peak_gflops * m.processor.dgemm_eff
    ratio = dgemm * 64 / hpl.gflops
    assert 1.6 < ratio < 2.1


def test_hpl_explicit_grid():
    from repro.hpcc.hpl import _resolve_grid

    assert _resolve_grid(HPLConfig(grid=(2, 8)), 16) == (2, 8)
    assert _resolve_grid(HPLConfig(), 16) == (4, 4)
    with pytest.raises(BenchmarkError):
        _resolve_grid(HPLConfig(grid=(3, 3)), 16)


def test_hpl_flat_grid_slower_than_square():
    """1 x P grids broadcast every panel to every process (HPL folklore)."""
    m = get_machine("xeon")
    square = run_hpl(m, 16, HPLConfig(n=4096, nb=256), mode="skeleton")
    flat = run_hpl(m, 16, HPLConfig(n=4096, nb=256, grid=(1, 16)),
                   mode="skeleton")
    assert flat.gflops < square.gflops
