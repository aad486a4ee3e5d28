"""Property-based tests (hypothesis) on core invariants."""

import json
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.mpi import BXOR, SUM
from repro.mpi.collectives import balanced_split, split_payload
from repro.network import CrossbarSwitch, FatTree, Hypercube
from repro.network.resources import BandwidthResource
from tests.conftest import make_test_machine, run_ranks

M = make_test_machine(cpus_per_node=2, max_cpus=64)

SLOW = settings(max_examples=25, deadline=None,
                suppress_health_check=[HealthCheck.too_slow])


# -- balanced_split / split_payload ------------------------------------------------

@given(st.integers(0, 10 ** 9), st.integers(1, 512))
def test_balanced_split_partitions_exactly(nbytes, parts):
    sizes = balanced_split(nbytes, parts)
    assert len(sizes) == parts
    assert sum(sizes) == nbytes
    assert max(sizes) - min(sizes) <= 1
    assert sorted(sizes, reverse=True) == sizes  # larger blocks first


@given(st.integers(0, 200), st.integers(1, 32))
def test_split_payload_concat_roundtrip(n, parts):
    data = np.arange(n, dtype=np.float64)
    chunks = split_payload(data, parts)
    assert len(chunks) == parts
    assert np.array_equal(np.concatenate(chunks) if chunks else data, data)


# -- bandwidth resource ------------------------------------------------------------

@given(st.lists(st.tuples(st.floats(1, 1e6), st.floats(0, 10)), min_size=1,
                max_size=20))
def test_resource_work_conservation(jobs):
    """Total busy time equals total service demand; FIFO never overlaps."""
    r = BandwidthResource("r", 1000.0)
    total = 0.0
    prev_end = 0.0
    for nbytes, earliest in jobs:
        s, e = r.reserve(nbytes, earliest)
        assert s >= prev_end - 1e-12
        assert abs((e - s) - nbytes / 1000.0) < 1e-9
        total += nbytes / 1000.0
        prev_end = e
    assert abs(r.busy_time - total) < 1e-6


# -- topology invariants -------------------------------------------------------------

@given(st.integers(2, 64))
def test_hypercube_hops_symmetric_and_triangle(n):
    t = Hypercube(n)
    for a in range(0, n, max(1, n // 7)):
        for b in range(0, n, max(1, n // 5)):
            assert t.hops(a, b) == t.hops(b, a)
            assert (t.hops(a, b) == 0) == (a == b)


@given(st.integers(2, 60), st.integers(2, 6), st.integers(2, 6))
def test_fattree_analytic_hops_matches_bruteforce(n, g1, g2):
    cap = g1 * g2 * 4
    if n > cap:
        n = cap
    t = FatTree(n, group_sizes=(g1, g2, 4))
    assert abs(t.average_hops_analytic() - t.average_hops()) < 1e-9


@given(st.integers(1, 64))
def test_crossbar_capacity_scales_linearly(n):
    t = CrossbarSwitch(n)
    assert t.level_capacity_links(1) == 2.0 * n


# -- collective correctness under random inputs --------------------------------------

@SLOW
@given(
    p=st.integers(2, 9),
    n=st.integers(1, 40),
    seed=st.integers(0, 2 ** 16),
)
def test_allreduce_equals_numpy_sum(p, n, seed):
    rng = np.random.default_rng(seed)
    bufs = [rng.standard_normal(n) for _ in range(p)]
    ref = np.sum(bufs, axis=0)

    def prog(comm):
        out = yield from comm.allreduce(data=bufs[comm.rank], op=SUM)
        return out

    out = run_ranks(M, p, prog)
    for r in range(p):
        assert np.allclose(out.results[r], ref)


@SLOW
@given(p=st.integers(2, 9), seed=st.integers(0, 2 ** 16))
def test_allreduce_bxor_self_inverse(p, seed):
    """Applying the same XOR allreduce twice over identical inputs gives
    zero when p is even, the buffer itself when odd."""
    rng = np.random.default_rng(seed)
    buf = rng.integers(0, 2 ** 60, size=8, dtype=np.uint64)

    def prog(comm):
        out = yield from comm.allreduce(data=buf, op=BXOR)
        return out

    out = run_ranks(M, p, prog)
    expected = np.zeros_like(buf) if p % 2 == 0 else buf
    assert np.array_equal(out.results[0], expected)


@SLOW
@given(p=st.integers(2, 8), seed=st.integers(0, 2 ** 16))
def test_alltoall_is_transpose(p, seed):
    """alltoall output[j][i] == input[i][j] (matrix transpose semantics)."""
    rng = np.random.default_rng(seed)
    mat = rng.standard_normal((p, p))

    def prog(comm):
        datas = [np.array([mat[comm.rank, d]]) for d in range(p)]
        out = yield from comm.alltoall(datas=datas)
        return [float(x[0]) for x in out]

    out = run_ranks(M, p, prog)
    got = np.array([out.results[r] for r in range(p)])
    assert np.allclose(got, mat.T)


@SLOW
@given(p=st.integers(2, 9), root=st.integers(0, 8), seed=st.integers(0, 99))
def test_bcast_any_root(p, root, seed):
    root %= p
    rng = np.random.default_rng(seed)
    ref = rng.standard_normal(6)

    def prog(comm):
        data = ref if comm.rank == root else None
        out = yield from comm.bcast(data=data, nbytes=48, root=root)
        return out

    out = run_ranks(M, p, prog)
    for r in range(p):
        assert np.array_equal(out.results[r], ref)


@SLOW
@given(p=st.integers(2, 8), n_mult=st.integers(1, 5),
       seed=st.integers(0, 99))
def test_reduce_scatter_blocks_match_reduce(p, n_mult, seed):
    rng = np.random.default_rng(seed)
    n = p * n_mult
    bufs = [rng.standard_normal(n) for _ in range(p)]
    full = np.sum(bufs, axis=0)
    blocks = np.array_split(full, p)

    def prog(comm):
        out = yield from comm.reduce_scatter(data=bufs[comm.rank], op=SUM)
        return out

    out = run_ranks(M, p, prog)
    for r in range(p):
        assert np.allclose(out.results[r], blocks[r])


# -- simulation determinism ------------------------------------------------------------

@SLOW
@given(p=st.integers(2, 8), nbytes=st.integers(1, 10 ** 6))
def test_virtual_time_deterministic(p, nbytes):
    def prog(comm):
        yield from comm.allreduce(nbytes=nbytes)
        yield from comm.barrier()
        res = yield from comm.allgather(nbytes=nbytes)
        return comm.now

    t1 = run_ranks(M, p, prog).elapsed
    t2 = run_ranks(M, p, prog).elapsed
    assert t1 == t2


@SLOW
@given(nbytes=st.integers(1, 4 * 1024 * 1024))
def test_message_time_monotone_in_size(nbytes):
    """Bigger messages never arrive earlier."""
    def prog(comm, nb):
        if comm.rank == 0:
            yield from comm.send(1, nbytes=nb)
        else:
            yield from comm.recv(0)
            return comm.now

    t_small = run_ranks(M, 2, prog, nbytes).results[1]
    t_big = run_ranks(M, 2, prog, nbytes + 4096).results[1]
    assert t_big >= t_small


@SLOW
@given(p=st.integers(2, 9), seed=st.integers(0, 999))
def test_scan_prefix_property(p, seed):
    """scan[r] - scan[r-1] == input[r] for summed scalars."""
    rng = np.random.default_rng(seed)
    vals = rng.standard_normal(p)

    def prog(comm):
        out = yield from comm.scan(data=np.array([vals[comm.rank]]), op=SUM)
        return float(out[0])

    out = run_ranks(M, p, prog)
    prefix = np.cumsum(vals)
    assert np.allclose(list(out.results), prefix)


@SLOW
@given(p=st.integers(2, 8), seed=st.integers(0, 999))
def test_gatherv_roundtrip_property(p, seed):
    rng = np.random.default_rng(seed)
    lengths = rng.integers(1, 6, size=p)
    counts = [int(8 * n) for n in lengths]

    def prog(comm):
        data = np.full(int(lengths[comm.rank]), float(comm.rank))
        gathered = yield from comm.gatherv(data=data, counts=counts, root=0)
        back = yield from comm.scatterv(datas=gathered, counts=counts,
                                        root=0)
        return back

    out = run_ranks(M, p, prog)
    for r in range(p):
        assert np.array_equal(out.results[r],
                              np.full(int(lengths[r]), float(r)))


@SLOW
@given(p=st.integers(2, 8), factor=st.floats(1.0, 16.0))
def test_straggler_never_speeds_up_collectives(p, factor):
    """Monotonicity: degrading a node can only increase collective time."""
    from repro.machine.faults import slow_node

    def driver(comm):
        yield from comm.barrier()
        t0 = comm.now
        yield from comm.allreduce(nbytes=65536)
        return comm.now - t0

    from repro.mpi.cluster import Cluster
    clean = max(Cluster(M, p).run(driver).results)
    hurt = max(Cluster(M, p).run(
        driver, fabric_setup=lambda f: slow_node(f, 0, factor)).results)
    assert hurt >= clean - 1e-12


@SLOW
@given(
    p=st.integers(1, 6),
    sizes=st.lists(st.integers(1, 64), min_size=1, max_size=6),
    seed=st.integers(0, 999),
)
def test_file_writes_reassemble(p, sizes, seed):
    """Arbitrary non-overlapping writes reassemble exactly on read."""
    from repro.io import file_open
    from repro.mpi.cluster import Cluster

    rng = np.random.default_rng(seed)
    # one region per rank per size entry, laid out back to back
    plan = []
    offset = 0
    for i, size in enumerate(sizes):
        owner = int(rng.integers(0, p))
        payload = bytes([((i + 1) * 37) % 256]) * size
        plan.append((owner, offset, payload))
        offset += size

    def prog(comm):
        f = yield from file_open(comm, verify=True)
        for owner, off, payload in plan:
            if comm.rank == owner:
                yield from f.write_at(off, data=payload)
        yield from comm.barrier()
        got = yield from f.read_at(0, offset)
        yield from f.close()
        return got

    out = Cluster(M, p).run(prog)
    expected = b"".join(payload for (_o, _off, payload) in plan)
    assert out.results[0] == expected


@SLOW
@given(p=st.integers(2, 8), nbytes=st.integers(1, 1 << 20),
       seed=st.integers(0, 99))
def test_put_get_roundtrip_property(p, nbytes, seed):
    """RMA put then remote get returns exactly what was put."""
    from repro.mpi.onesided import win_create

    rng = np.random.default_rng(seed)
    n = max(1, nbytes // 8)
    data = rng.standard_normal(min(n, 64))

    def prog(comm):
        win = yield from win_create(comm, len(data))
        if comm.rank == 0:
            win.put(1, data)
        yield from win.fence()
        if comm.rank == 2 % comm.size:
            req = win.get(1, len(data))
            got = yield req
            yield from win.fence()
            return got
        yield from win.fence()

    out = run_ranks(M, p, prog)
    reader = 2 % p
    assert np.array_equal(out.results[reader], data)


# -- metrics registry (validation-gate dependencies) -------------------------------


@given(st.integers(-60, 60))
def test_log2_bucket_exact_powers_land_in_own_bucket(e):
    """2**(e-1) < v <= 2**e: an exact power of two is its bucket's top."""
    from repro.obs.metrics import log2_bucket

    assert log2_bucket(2.0 ** e) == e
    assert log2_bucket(2.0 ** e * 1.0000001) == e + 1


@given(st.floats(min_value=1e-15, max_value=1e15))
def test_log2_bucket_brackets_every_value(v):
    from repro.obs.metrics import log2_bucket

    e = log2_bucket(v)
    assert 2.0 ** (e - 1) < v <= 2.0 ** e


@st.composite
def _snapshots(draw):
    names = st.sampled_from(["a.x", "a.y", "b.z"])
    reg_ops = draw(st.lists(
        st.tuples(st.sampled_from(["counter", "gauge", "hist"]), names,
                  st.floats(0, 1e6, allow_nan=False)),
        max_size=12))
    from repro.obs.metrics import MetricsRegistry

    reg = MetricsRegistry(enabled=True)
    for kind, name, v in reg_ops:
        if kind == "counter":
            reg.counter(name).inc(v)
        elif kind == "gauge":
            reg.gauge(name).set_max(v)
        else:
            reg.histogram(name).observe(v)
    return reg.snapshot()


@given(_snapshots(), _snapshots())
def test_metrics_merge_commutes(snap_a, snap_b):
    """Fan-in order cannot change merged metrics (exact float equality:
    counters add at most two terms per name, and a + b == b + a)."""
    from repro.obs.metrics import MetricsRegistry

    assert MetricsRegistry.merge_snapshots([snap_a, snap_b]) == \
        MetricsRegistry.merge_snapshots([snap_b, snap_a])


@given(_snapshots())
def test_metrics_merge_empty_is_identity(snap):
    from repro.obs.metrics import MetricsRegistry

    merge = MetricsRegistry.merge_snapshots
    empty = MetricsRegistry(enabled=True).snapshot()
    assert merge([snap, empty]) == merge([snap])
    assert merge([empty, snap]) == merge([snap])


@given(st.integers(0, 4096), st.integers(1, 64))
def test_split_payload_sizes_match_balanced_split(n, parts):
    """The array splitter and the byte accountant agree on distribution."""
    data = np.arange(n, dtype=np.float64)
    chunks = split_payload(data, parts)
    assert [len(c) for c in chunks] == balanced_split(n, parts)


# -- timeline series -----------------------------------------------------------------

from repro.obs.timeline import RESOLUTION, TimelineSeries  # noqa: E402

_intervals = st.lists(
    st.tuples(st.floats(0, 1e3), st.floats(0, 10), st.floats(0, 1e6)),
    max_size=40,
)


def _build_series(ivals):
    s = TimelineSeries()
    for start, dur, nbytes in ivals:
        s.add(start, start + dur, nbytes)
    return s


@given(_intervals)
def test_timeline_snapshot_merge_round_trip_exact(ivals):
    """to_dict -> merge into a fresh series -> to_dict is bit-identical,
    whatever order the intervals arrived in."""
    s = _build_series(ivals)
    snap = s.to_dict()
    t = TimelineSeries()
    t.merge(snap)
    assert t.to_dict() == snap


@given(_intervals, _intervals)
def test_timeline_merge_adds_mass_exactly(a_ivals, b_ivals):
    a, b = _build_series(a_ivals), _build_series(b_ivals)
    m = TimelineSeries()
    m.merge(a.to_dict())
    m.merge(b.to_dict())
    # Fold-in starts from 0.0 accumulators, so the totals are the exact
    # float sums, not approximations.
    assert m.count == a.count + b.count
    assert m.busy_s == a.busy_s + b.busy_s
    assert m.bytes == a.bytes + b.bytes


@given(_intervals, st.integers(1, 8))
def test_timeline_halving_preserves_mass(ivals, halvings):
    """Merging into a coarser series (any number of width halvings in
    reverse) keeps busy_s/bytes exact and bucket mass conserved."""
    s = _build_series(ivals)
    coarse = TimelineSeries()
    coarse.exp = s.exp + halvings
    coarse.merge(s.to_dict())
    assert coarse.exp == s.exp + halvings  # coarser side sets the width
    assert coarse.busy_s == s.busy_s
    assert coarse.bytes == s.bytes
    assert coarse.count == s.count
    fine_cells = s.to_dict()["buckets"]
    coarse_cells = coarse.to_dict()["buckets"]
    assert sum(coarse_cells.values()) == pytest.approx(
        sum(fine_cells.values()), rel=1e-12, abs=1e-12)
    # Every coarse index is a fold of fine indices: i >> halvings.
    want = set(str(int(k) >> halvings) for k in fine_cells)
    assert set(coarse_cells) == want


@given(_intervals)
def test_timeline_bucket_count_stays_bounded(ivals):
    s = _build_series(ivals)
    assert len(s.series()) <= RESOLUTION
    assert s.busy_s == pytest.approx(sum(dur for _, dur, _ in ivals))


# -- batched observation folds -------------------------------------------------------

from repro.obs.metrics import (  # noqa: E402
    Counter,
    Histogram,
    fold_reservations,
)


class _DictSeries:
    """Reference series: a sparse dict of cells, one interval at a time.

    Written out independently of :class:`TimelineSeries`: its own
    width exponent, its own dict of cells, its own pairwise rescale and
    the merge rule (fold to the coarser width; at unequal widths, sum
    the incoming cells in ascending index order before adding).  Its
    :meth:`to_dict` has the same layout, so the two compare by ``repr``.
    """

    def __init__(self, exp=TimelineSeries().exp):
        self.exp = exp
        self.cells: dict[int, float] = {}
        self.count = 0
        self.busy_s = 0.0
        self.bytes = 0.0

    def _rescale(self):
        self.exp += 1
        folded: dict[int, float] = {}
        for i, v in self.cells.items():
            folded[i >> 1] = folded.get(i >> 1, 0.0) + v
        self.cells = folded

    def add(self, start, end, nbytes):
        self.count += 1
        self.bytes += nbytes
        dur = end - start
        if dur <= 0:
            return
        self.busy_s += dur
        while end >= RESOLUTION * 2.0 ** self.exp:
            self._rescale()
        w = 2.0 ** self.exp
        for i in range(int(start / w), int(end / w) + 1):
            lo = start if start > i * w else i * w
            hi = end if end < (i + 1) * w else (i + 1) * w
            if hi > lo:
                self.cells[i] = self.cells.get(i, 0.0) + (hi - lo)

    def merge(self, snap):
        self.count += snap["count"]
        self.busy_s += snap["busy_s"]
        self.bytes += snap["bytes"]
        while self.exp < snap["exp"]:
            self._rescale()
        shift = self.exp - snap["exp"]
        incoming: dict[int, float] = {}
        for k, v in sorted(snap["buckets"].items(), key=lambda kv: int(kv[0])):
            incoming[int(k) >> shift] = incoming.get(int(k) >> shift, 0.0) + v
        for j, v in incoming.items():
            self.cells[j] = self.cells.get(j, 0.0) + v

    def to_dict(self):
        return {
            "exp": self.exp,
            "width_s": 2.0 ** self.exp,
            "count": self.count,
            "busy_s": self.busy_s,
            "bytes": self.bytes,
            "buckets": {str(i): v for i, v in sorted(self.cells.items())},
        }


def _bits(series):
    """repr keeps every float bit (and the sign of zero) visible."""
    return repr(series.to_dict())


#: Intervals whose ends sit exactly on bucket edges of the starting width.
_aligned = st.lists(
    st.tuples(st.integers(0, 4 * RESOLUTION), st.integers(0, 8),
              st.integers(0, 1 << 20)).map(
        lambda t: (t[0] * 2.0 ** -20, t[1] * 2.0 ** -20, t[2])),
    max_size=40,
)
#: Zero-length intervals mixed with ordinary ones.
_with_zero = st.lists(
    st.one_of(st.tuples(st.floats(0, 1e3), st.just(0.0), st.floats(0, 1e6)),
              st.tuples(st.floats(0, 1e3), st.floats(0, 10),
                        st.floats(0, 1e6))),
    max_size=40,
)
#: Short intervals, one far-out interval that forces rescales midway
#: through the batch, then more short intervals at the new width.
_rescale_midway = st.tuples(
    st.lists(st.tuples(st.floats(0, 1e-4), st.floats(0, 1e-5),
                       st.integers(0, 1 << 20)), min_size=1, max_size=15),
    st.tuples(st.floats(1e-3, 1e3), st.floats(0, 10), st.integers(0, 1 << 20)),
    st.lists(st.tuples(st.floats(0, 1e-3), st.floats(0, 1e-4),
                       st.integers(0, 1 << 20)), max_size=15),
).map(lambda t: t[0] + [t[1]] + t[2])

_any_intervals = st.one_of(_intervals, _aligned, _with_zero, _rescale_midway)


def _log(ivals):
    return [(start, start + dur, start, nbytes)
            for start, dur, nbytes in ivals]


@given(_any_intervals, st.integers(1, 8))
def test_timeline_fold_equals_scalar_adds_bit_for_bit(ivals, chunk):
    """Folding a batch (in log-sized chunks, as flushes do) gives exactly
    the series one-by-one adds give, rescales included."""
    ref = _DictSeries()
    for start, dur, nbytes in ivals:
        ref.add(start, start + dur, nbytes)
    log = _log(ivals)
    batched = TimelineSeries()
    for k in range(0, len(log), chunk):
        batched.fold(log[k:k + chunk])
    single = _build_series(ivals)
    assert _bits(batched) == _bits(ref)
    assert _bits(single) == _bits(ref)


#: Snapshot cells with mixed magnitudes: folded into a coarser series,
#: many of them sum into one cell, where the summation order shows.
#: Cells 0-15 sort differently as strings ("10" before "2").
_snapshot_cells = st.dictionaries(
    st.one_of(st.integers(0, 15), st.integers(0, RESOLUTION - 1)),
    st.floats(1e-12, 1e-3), min_size=1, max_size=64)


@given(st.lists(st.tuples(_snapshot_cells, st.integers(0, 8)),
                min_size=1, max_size=4),
       st.integers(0, 8))
def test_timeline_merge_of_json_snapshots_equals_dict_reference(snaps,
                                                                halvings):
    """Merging snapshots read back from JSON (keys in string order, so
    "10" before "2") into a series up to 8 halvings coarser, or finer,
    than they are gives exactly the reference's bits."""
    got = TimelineSeries()
    got.exp += halvings
    ref = _DictSeries(got.exp)
    for cells, offset in snaps:
        exp = TimelineSeries().exp + offset
        snap = json.loads(json.dumps({
            "exp": exp, "width_s": 2.0 ** exp, "count": len(cells),
            "busy_s": sum(cells.values()), "bytes": 0.0,
            "buckets": {str(i): v for i, v in sorted(cells.items())},
        }, sort_keys=True))
        assert list(snap["buckets"]) == sorted(snap["buckets"])
        got.merge(snap)
        ref.merge(snap)
        assert _bits(got) == _bits(ref)


@given(_any_intervals,
       st.lists(st.floats(0, 1e-3), min_size=40, max_size=40),
       st.booleans())
def test_reservation_fold_equals_per_call_instruments(ivals, waits, int_bytes):
    """fold_reservations == observe/inc per reservation, bit for bit, and
    an all-int byte counter stays int."""
    log = [(start, start + dur, start - wait,
            int(nbytes) if int_bytes else nbytes)
           for (start, dur, nbytes), wait in zip(ivals, waits)]
    hist, nbytes_c, busy_c = Histogram("w"), Counter("b"), Counter("s")
    for start, end, earliest, n in log:
        hist.observe(start - earliest)
        nbytes_c.inc(n)
        busy_c.inc(end - start)
    f_hist, f_bytes, f_busy = Histogram("w"), Counter("b"), Counter("s")
    fold_reservations(log[:len(log) // 2], f_hist, f_bytes, f_busy)
    fold_reservations(log[len(log) // 2:], f_hist, f_bytes, f_busy)
    assert repr(f_hist.to_dict()) == repr(hist.to_dict())
    assert repr(f_bytes.value) == repr(nbytes_c.value)
    assert repr(f_busy.value) == repr(busy_c.value)
    assert type(f_bytes.value) is type(nbytes_c.value)
    if int_bytes:
        assert type(f_bytes.value) is int
