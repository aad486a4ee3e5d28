"""Fault-injection tests: stragglers, degraded cores, latency faults."""

import pytest

from repro.core.errors import ConfigError
from repro.machine.faults import add_latency, degrade_core, slow_node
from repro.mpi.cluster import Cluster
from tests.conftest import make_test_machine

M = make_test_machine(cpus_per_node=2, max_cpus=64)
MB = 1024 * 1024


def timed_collective(prog, p=16, setup=None):
    cluster = Cluster(M, p)

    def driver(comm):
        yield from comm.barrier()
        t0 = comm.now
        yield from prog(comm)
        return comm.now - t0

    res = cluster.run(driver, fabric_setup=setup)
    return max(res.results)


def allreduce(comm):
    yield from comm.allreduce(nbytes=MB)


def alltoall(comm):
    yield from comm.alltoall(nbytes=MB // 4)


def test_one_straggler_slows_every_collective():
    clean = timed_collective(allreduce)
    hurt = timed_collective(allreduce,
                            setup=lambda f: slow_node(f, node=3, factor=8.0))
    assert hurt > 1.5 * clean


def test_straggler_cost_independent_of_which_node():
    t2 = timed_collective(allreduce,
                          setup=lambda f: slow_node(f, node=2, factor=8.0))
    t5 = timed_collective(allreduce,
                          setup=lambda f: slow_node(f, node=5, factor=8.0))
    assert t2 == pytest.approx(t5, rel=0.25)


def test_straggler_hits_alltoall_proportionally_less():
    """Alltoall already serialises on every NIC; one slow NIC hurts, but
    the healthy nodes' pairwise steps proceed — the slowdown is milder
    than the collective's 8x component."""
    clean = timed_collective(alltoall)
    hurt = timed_collective(alltoall,
                            setup=lambda f: slow_node(f, node=3, factor=8.0))
    assert 1.1 < hurt / clean < 8.0


def test_degrade_core_hurts_alltoall_not_pingpong():
    def pingpong(comm):
        if comm.rank == 0:
            yield from comm.send(2, nbytes=MB)
        elif comm.rank == 2:
            yield from comm.recv(0)

    clean_a2a = timed_collective(alltoall)
    hurt_a2a = timed_collective(
        alltoall, setup=lambda f: degrade_core(f, 1, 16.0))
    assert hurt_a2a > 1.3 * clean_a2a

    clean_pp = timed_collective(pingpong)
    hurt_pp = timed_collective(
        pingpong, setup=lambda f: degrade_core(f, 1, 16.0))
    assert hurt_pp == pytest.approx(clean_pp, rel=0.3)


def test_add_latency_hits_barrier_hardest():
    def barrier(comm):
        yield from comm.barrier()

    clean = timed_collective(barrier)
    hurt = timed_collective(barrier,
                            setup=lambda f: add_latency(f, 50e-6))
    assert hurt > clean + 40e-6


def test_fault_validation():
    cluster = Cluster(M, 4)
    fabric = cluster.machine.build_fabric(4)
    with pytest.raises(ConfigError):
        slow_node(fabric, node=0, factor=0.5)
    with pytest.raises(ConfigError):
        slow_node(fabric, node=99, factor=2.0)
    with pytest.raises(ConfigError):
        add_latency(fabric, -1e-6)


def test_faults_do_not_leak_across_runs():
    """Each run builds a fresh fabric: injected faults are run-scoped."""
    hurt = timed_collective(allreduce,
                            setup=lambda f: slow_node(f, node=0, factor=8.0))
    clean_after = timed_collective(allreduce)
    assert clean_after < hurt


def test_latency_fault_mid_run_reaches_cached_routes():
    """A latency fault applied after traffic has already cached a node
    pair's route still reaches the next eager message, the fabric's
    ``message_timing`` and the control lane's ``latency``."""
    extra = 50e-6

    def run(fault: bool):
        cluster = Cluster(M, 4, trace=True)  # ranks 0, 1 | 2, 3 on two nodes
        seen = {}

        def prog(comm):
            if comm.rank == 0:
                yield from comm.send(2, nbytes=64, tag=1)
                fabric = comm.cluster.fabric
                before = fabric.message_timing(0, 1, 64, comm.now)
                if fault:
                    add_latency(fabric, extra)
                after = fabric.message_timing(0, 1, 64, comm.now)
                seen["timing"] = (before.arrival - before.inject_end,
                                  after.arrival - after.inject_end)
                seen["latency"] = fabric.latency(0, 1)
                yield from comm.send(2, nbytes=64, tag=2)
            elif comm.rank == 2:
                yield from comm.recv(0, tag=1)
                yield from comm.recv(0, tag=2)

        res = cluster.run(prog)
        eager = {m.tag: m.t_deliver - m.t_inject
                 for m in res.tracer.messages_between(0, 2)}
        return eager, seen

    clean, clean_seen = run(False)
    hurt, hurt_seen = run(True)
    assert hurt[1] == clean[1]                    # sent before the fault
    assert hurt[2] == pytest.approx(clean[2] + extra)
    lat_before, lat_after = hurt_seen["timing"]
    assert lat_after == pytest.approx(lat_before + extra)
    assert hurt_seen["latency"] == pytest.approx(
        clean_seen["latency"] + extra)
