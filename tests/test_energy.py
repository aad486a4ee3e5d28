"""Energy accounting: power models, recorder determinism, surfaces.

The load-bearing contract is the same one the exec backends sign:
energy totals must be byte-identical across serial, parallel, every
exec backend, and cache-warm sweeps — and with ``--energy`` off the
hot paths must not even look at the recorder.
"""

from __future__ import annotations

import json

import pytest

from repro.api import run_figure, run_table
from repro.exec import ResultCache, SimPoint, SweepExecutor, using_executor
from repro.machine import ALL_MACHINES, get_machine
from repro.machine.future import FUTURE_MACHINES
from repro.obs.context import current, install, using
from repro.obs.energy import EnergyRecorder, PowerModel, integrate_energy

CAP = 8  # tiny sweeps keep this fast

PM = PowerModel(cpu_busy_w=100.0, cpu_idle_w=40.0, nic_active_w=8.0,
                nic_idle_w=3.0, link_active_w=5.0, mem_w=20.0,
                provenance="synthetic test numbers")


def _points(nprocs=(2, 4, 8)):
    return [SimPoint.make("imb", "xeon", p, benchmark="Sendrecv",
                          msg_bytes=1024) for p in nprocs]


def _energy_blob(rec: EnergyRecorder) -> str:
    return json.dumps({"phases": rec.snapshot()["phases"],
                       "totals": rec.totals()}, sort_keys=True)


# ---------------------------------------------------------------------------
# PowerModel
# ---------------------------------------------------------------------------

def test_power_model_validation():
    with pytest.raises(ValueError):
        PowerModel(cpu_busy_w=-1, cpu_idle_w=0, nic_active_w=1,
                   nic_idle_w=0, link_active_w=0, mem_w=0)
    with pytest.raises(ValueError):  # busy below idle is nonsense
        PowerModel(cpu_busy_w=10, cpu_idle_w=20, nic_active_w=1,
                   nic_idle_w=0, link_active_w=0, mem_w=0)
    with pytest.raises(ValueError):
        PowerModel(cpu_busy_w=10, cpu_idle_w=1, nic_active_w=1,
                   nic_idle_w=2, link_active_w=0, mem_w=0)


def test_power_model_round_trip_and_node_views():
    assert PowerModel.from_dict(PM.to_dict()) == PM
    assert PM.node_busy_w(4) == 100.0 * 4 + 20.0 + 3.0
    assert PM.node_idle_w(4) == 40.0 * 4 + 20.0 + 3.0


def test_every_registered_machine_has_a_power_model():
    for m in tuple(ALL_MACHINES) + tuple(FUTURE_MACHINES):
        assert m.power is not None, m.name
        assert m.power.provenance, f"{m.name} power model lacks provenance"


# ---------------------------------------------------------------------------
# Integration arithmetic
# ---------------------------------------------------------------------------

def test_integrate_energy_closed_form():
    busy = {"egress": {"busy_s": 1.0, "bytes": 10.0},
            "ingress": {"busy_s": 2.0, "bytes": 10.0},
            "core": {"busy_s": 3.0, "bytes": 10.0},
            "shm": {"busy_s": 0.5, "bytes": 4.0}}
    run = integrate_energy(PM, nprocs=4, n_nodes=2, elapsed_s=10.0,
                           cpu_busy_s=6.0, busy=busy)
    assert run["cpu_j"] == pytest.approx(40.0 * 4 * 10.0 + 60.0 * 6.0)
    assert run["mem_j"] == pytest.approx(20.0 * 2 * 10.0)
    assert run["nic_j"] == pytest.approx(3.0 * 2 * 10.0 + 5.0 * 3.0)
    assert run["link_j"] == pytest.approx(5.0 * 3.0)
    assert run["total_j"] == pytest.approx(
        run["cpu_j"] + run["mem_j"] + run["nic_j"] + run["link_j"])
    assert run["nic_busy_s"] == 3.0 and run["shm_busy_s"] == 0.5


def test_recorder_disabled_records_nothing():
    rec = EnergyRecorder(enabled=False)
    rec.record_run(PM, machine="m", nprocs=2, n_nodes=1, elapsed_s=1.0,
                   cpu_busy_s=0.5, busy={})
    assert rec.snapshot() == {"phases": {}}
    assert rec.totals()["runs"] == 0


def test_recorder_per_run_fan_in_equals_direct():
    """One child recorder per run, merged in input order, is bit-exact
    against direct accumulation — the executor's actual fan-in shape
    (one PointRecord snapshot per point, folded in input order)."""
    runs = [dict(machine="m", nprocs=p, n_nodes=1, elapsed_s=0.1 * p,
                 cpu_busy_s=0.01 * p,
                 busy={"egress": {"busy_s": 0.001 * p, "bytes": 1.0 * p}})
            for p in (2, 4, 8, 16)]
    direct = EnergyRecorder()
    for r in runs:
        direct.record_run(PM, **r)
    snaps = []
    for r in runs:
        child = EnergyRecorder()
        child.record_run(PM, **r)
        snaps.append(child.snapshot())
    merged = EnergyRecorder()
    merged.merge(EnergyRecorder.merge_snapshots(snaps))
    assert _energy_blob(merged) == _energy_blob(direct)


def test_totals_add_average_power_and_edp():
    rec = EnergyRecorder()
    rec.record_run(PM, machine="m", nprocs=1, n_nodes=1, elapsed_s=2.0,
                   cpu_busy_s=1.0, busy={})
    tot = rec.totals()
    assert tot["avg_power_w"] == pytest.approx(tot["total_j"] / 2.0)
    assert tot["edp_js"] == pytest.approx(tot["total_j"] * 2.0)


# ---------------------------------------------------------------------------
# Ambient recorder: thread-local over process-global
# ---------------------------------------------------------------------------

def test_ambient_default_is_shared_disabled_recorder():
    assert current("energy") is current("energy")
    assert not current("energy").enabled


def test_thread_local_scope_shadows_global():
    g, t = EnergyRecorder(), EnergyRecorder()
    previous = install(g)
    try:
        assert current("energy") is g
        with using(t):
            assert current("energy") is t
        assert current("energy") is g
    finally:
        install(previous)


def test_concurrent_threads_see_their_own_recorder():
    import threading

    seen = {}

    def worker(name, rec, gate):
        with using(rec):
            gate.wait(5.0)
            seen[name] = current("energy")

    gate = threading.Barrier(2)
    ra, rb = EnergyRecorder(), EnergyRecorder()
    ts = [threading.Thread(target=worker, args=("a", ra, gate)),
          threading.Thread(target=worker, args=("b", rb, gate))]
    for t in ts:
        t.start()
    for t in ts:
        t.join()
    assert seen == {"a": ra, "b": rb}


# ---------------------------------------------------------------------------
# The contract: byte-identical energy across execution modes
# ---------------------------------------------------------------------------

def _sweep_energy(*, jobs, backend, cache=None):
    rec = EnergyRecorder()
    with using(rec), \
            SweepExecutor(jobs=jobs, cache=cache, backend=backend) as ex, \
            using_executor(ex):
        run_figure("fig13", max_cpus=CAP)
    return _energy_blob(rec)


@pytest.fixture(scope="module")
def serial_energy():
    return _sweep_energy(jobs=1, backend="inline")


@pytest.mark.parametrize("backend", ("inline", "subprocess"))
def test_energy_byte_identical_across_exec_backends(backend, serial_energy):
    assert _sweep_energy(jobs=2, backend=backend) == serial_energy


def test_energy_byte_identical_cache_warm(tmp_path, serial_energy):
    cold = _sweep_energy(jobs=1, backend="inline",
                         cache=ResultCache(tmp_path / "cache"))
    warm = _sweep_energy(jobs=1, backend="inline",
                         cache=ResultCache(tmp_path / "cache"))
    assert cold == serial_energy
    assert warm == serial_energy


def test_cpu_busy_accrues_the_same_with_energy_on_or_off():
    """One transport path: the CPU-busy accumulator runs whether or not
    the energy recorder is on, and only the recorder decides whether the
    run is priced."""
    from repro.mpi.cluster import Cluster

    m = get_machine("xeon")

    def pingpong(comm):
        import numpy as np
        payload = np.zeros(128)
        if comm.rank == 0:
            yield from comm.send(1, payload)
        elif comm.rank == 1:
            yield from comm.recv(0)

    cl = Cluster(m, 2)
    cl.run(pingpong)
    assert cl.transport.cpu_busy_s > 0.0

    with using(EnergyRecorder()) as rec:
        cl_on = Cluster(m, 2)
        cl_on.run(pingpong)
    assert cl_on.transport.cpu_busy_s == cl.transport.cpu_busy_s
    assert rec.snapshot()["phases"]


def test_energy_off_leaves_no_trace():
    """With energy off the sweep records nothing anywhere (twin-path)."""
    assert not current("energy").enabled
    with SweepExecutor(jobs=1, cache=None) as ex, using_executor(ex):
        recs = ex.run_points(_points((2,)))
    assert current("energy").snapshot() == {"phases": {}}
    assert getattr(recs[0], "energy", None) is None


def test_observation_flags_leave_energy_unchanged(tmp_path):
    """The traced representative runs behind --metrics are diagnostics:
    their joules are not charged to the sweep's energy-to-solution."""
    from repro.harness.runner import main as runner_main

    base = ["--figure", "6", "--max-cpus", "16", "--energy", "--jobs", "1",
            "--no-cache", "--no-ledger"]
    docs = []
    for extra in ([], ["--metrics", str(tmp_path / "m.json")]):
        bench = tmp_path / f"bench{len(docs)}.json"
        assert runner_main(base + ["--bench-json", str(bench)] + extra) == 0
        docs.append(json.loads(bench.read_text())["energy"])
    assert docs[1] == docs[0]


# ---------------------------------------------------------------------------
# Physical sanity on a real machine model
# ---------------------------------------------------------------------------

def test_sweep_energy_is_physically_plausible():
    m = get_machine("xeon")
    rec = EnergyRecorder()
    with using(rec), \
            SweepExecutor(jobs=1, cache=None) as ex, using_executor(ex):
        run_figure("fig13", max_cpus=CAP)
    tot = rec.totals()
    assert tot["runs"] > 0 and tot["total_j"] > 0
    # Average power must land between one idle rank and every swept
    # machine's full-tilt draw; anything outside is an accounting bug.
    floor = min(mm.power.cpu_idle_w for mm in ALL_MACHINES)
    assert tot["avg_power_w"] > floor
    assert tot["cpu_j"] + tot["mem_j"] + tot["nic_j"] + tot["link_j"] == \
        pytest.approx(tot["total_j"])
    assert m.power is not None  # the machine the sweep priced


# ---------------------------------------------------------------------------
# Analytic ranking (table4 / fig16 feedstock)
# ---------------------------------------------------------------------------

def test_energy_ranking_covers_all_machines_and_is_sorted():
    from repro.analysis.energy import RANKED_MACHINES, energy_ranking

    ranking = energy_ranking()
    assert len(ranking) == len(RANKED_MACHINES)
    effs = [e.mflops_per_w for e in ranking]
    assert effs == sorted(effs, reverse=True)
    assert ranking[0].machine == "bluegene_p"  # the efficiency landmark
    for e in ranking:
        assert e.energy_j == pytest.approx(e.power_w * e.elapsed_s)
        assert e.edp_js == pytest.approx(e.energy_j * e.elapsed_s)


@pytest.mark.requires_full
def test_fig16_matches_committed_golden():
    """fig16 is analytic, so the full-scale golden is cheap to enforce
    here even though the capped CI golden gate must skip it."""
    from repro.harness.report import figure_to_csv

    regenerated = figure_to_csv(run_figure("fig16", max_cpus=None))
    committed = open("results/fig16.csv", newline="").read()
    assert regenerated == committed


@pytest.mark.requires_full
def test_table4_matches_committed_golden():
    from repro.harness.report import table_to_csv

    committed = open("results/table4.csv", newline="").read()
    assert table_to_csv(run_table("table4")) == committed
