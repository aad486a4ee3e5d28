"""Seeded config fuzzer: random machines, engine/physics invariants.

The calibrated catalog exercises five well-behaved corners of the
:class:`~repro.machine.system.MachineSpec` space.  This fuzzer samples
the rest — random clock/bandwidth/latency/topology perturbations plus
:mod:`repro.machine.faults` degradations — and runs a small benchmark
battery per sampled config, checking properties the *simulator* must
uphold for any physically sensible machine:

* no negative, zero or non-finite virtual times;
* causality: every traced message is delivered at or after injection,
  every compute phase ends at or after it starts;
* conservation: bytes counted by the MPI transport (its ``mpi.*``
  counters and commviz matrix) equal bytes seen on the wire by the
  tracer and by the network resource counters;
* monotonicity: message time does not shrink with size, and degrading a
  node never speeds a synchronising collective up.

Everything is a pure function of the seed: ``run_fuzz(seed, n)`` always
samples the same configs and returns the same verdicts, so a CI failure
replays locally with ``python -m repro.validate --fuzz N --fuzz-seed S``.
Failing configs are shrunk to a 1-minimal perturbation set (no single
perturbation can be removed without the failure vanishing) before they
are reported.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, replace

from ..machine.faults import add_latency, slow_node
from ..machine.node import NodeSpec
from ..machine.processor import ProcessorSpec
from ..machine.system import MachineSpec, NetworkSpec
from ..imb.suite import run_benchmark
from ..mpi.cluster import Cluster
from ..obs.commviz import CommRecorder, PhaseMatrix
from ..obs.context import using
from ..obs.metrics import MetricsRegistry

# ---------------------------------------------------------------------------
# The perturbation space
# ---------------------------------------------------------------------------

#: Multiplicative perturbations, sampled log-uniformly in [lo, hi].
SCALE_FIELDS: dict[str, tuple[float, float]] = {
    "network.link_gbs": (0.25, 4.0),
    "network.nic_gbs": (0.25, 4.0),
    "network.base_latency_us": (0.25, 8.0),
    "network.per_hop_latency_us": (0.25, 8.0),
    "network.send_overhead_us": (0.5, 4.0),
    "network.recv_overhead_us": (0.5, 4.0),
    "node.shm_flow_gbs": (0.25, 4.0),
    "node.shm_latency_us": (0.25, 8.0),
    "node.memcpy_gbs": (0.25, 4.0),
    "processor.peak_gflops": (0.25, 4.0),
    "processor.stream_copy_gbs": (0.25, 4.0),
}

#: Discrete perturbations, sampled uniformly from the options.
CHOICE_FIELDS: dict[str, tuple] = {
    "network.eager_threshold": (0, 1024, 8192, 65536),
    "network.bw_efficiency": (0.5, 0.7, 0.9, 1.0),
    "network.duplex_factor": (1.0, 1.3, 2.0),
    "node.cpus": (1, 2, 4, 8),
    "topology": ("crossbar", "hypercube", "fattree", "torus3d", "multistage"),
}

#: Live-fabric degradations (repro.machine.faults), applied post-build.
FAULT_FIELDS: dict[str, tuple[float, float]] = {
    "fault.slow_node": (1.5, 8.0),        # divide node 0's bandwidth
    "fault.extra_latency_us": (1.0, 20.0),  # add wire latency everywhere
}

#: Rank count the battery runs at (fits every sampled node size).
FUZZ_MAX_CPUS = 16


@dataclass(frozen=True)
class FuzzCase:
    """One sampled configuration: seed provenance + its perturbations."""

    seed: int
    index: int
    perturbations: tuple[tuple[str, object], ...]

    def get(self, key: str, default=None):
        for k, v in self.perturbations:
            if k == key:
                return v
        return default

    def without(self, key: str) -> "FuzzCase":
        return replace(self, perturbations=tuple(
            (k, v) for k, v in self.perturbations if k != key))

    def label(self) -> str:
        ps = ", ".join(f"{k}={v:.3g}" if isinstance(v, float) else f"{k}={v}"
                       for k, v in self.perturbations)
        return f"seed={self.seed}#{self.index}[{ps or 'baseline'}]"

    def to_dict(self) -> dict:
        return {"seed": self.seed, "index": self.index,
                "perturbations": {k: v for k, v in self.perturbations}}

    @classmethod
    def from_dict(cls, doc: dict) -> "FuzzCase":
        return cls(seed=doc["seed"], index=doc["index"],
                   perturbations=tuple(sorted(doc["perturbations"].items())))


def base_machine() -> MachineSpec:
    """The unperturbed reference box (round numbers, 16 CPUs)."""
    return MachineSpec(
        name="fuzzbox",
        label="Fuzz Box",
        system_type="Scalar",
        processor=ProcessorSpec(
            name="FuzzProc", clock_ghz=1.0, peak_gflops=4.0, is_vector=False,
            dgemm_eff=0.9, hpl_eff=0.8, fft_eff=0.1,
            stream_copy_gbs=2.0, stream_triad_gbs=2.0,
            random_update_gups=0.01,
        ),
        node=NodeSpec(
            cpus=2, memory_gb=4.0, shm_flow_gbs=2.0, shm_node_gbs=4.0,
            shm_latency_us=0.5, memcpy_gbs=4.0,
        ),
        network=NetworkSpec(
            name="FuzzNet", topology_kind="crossbar",
            link_gbs=1.0, nic_gbs=1.0, base_latency_us=2.0,
            per_hop_latency_us=0.1, send_overhead_us=0.2,
            recv_overhead_us=0.2, eager_threshold=8192,
            bw_efficiency=1.0, duplex_factor=2.0,
        ),
        max_cpus=FUZZ_MAX_CPUS,
    )


def sample_case(rng: random.Random, seed: int, index: int) -> FuzzCase:
    """Draw one configuration; iteration order is fixed for replay."""
    perts: list[tuple[str, object]] = []
    for key in sorted(SCALE_FIELDS):
        if rng.random() < 0.4:
            lo, hi = SCALE_FIELDS[key]
            perts.append((key, math.exp(rng.uniform(math.log(lo),
                                                    math.log(hi)))))
    for key in sorted(CHOICE_FIELDS):
        if rng.random() < 0.3:
            perts.append((key, rng.choice(CHOICE_FIELDS[key])))
    for key in sorted(FAULT_FIELDS):
        if rng.random() < 0.3:
            lo, hi = FAULT_FIELDS[key]
            perts.append((key, rng.uniform(lo, hi)))
    return FuzzCase(seed=seed, index=index,
                    perturbations=tuple(sorted(perts)))


def build_machine(case: FuzzCase) -> MachineSpec:
    """Apply a case's spec-level perturbations to the base machine.

    Scaled values are clamped back into validity (per-flow shared-memory
    bandwidth may not exceed the node aggregate; fat trees need group
    sizes) so every sampled case is a *legal* spec — the fuzzer probes
    the simulator's physics, not the spec validators.
    """
    base = base_machine()
    proc, node, net = base.processor, base.node, base.network
    proc_kw: dict[str, object] = {}
    node_kw: dict[str, object] = {}
    net_kw: dict[str, object] = {}
    for key, value in case.perturbations:
        if key.startswith("fault.") or key == "topology":
            continue
        layer, fld = key.split(".", 1)
        target = {"processor": proc_kw, "node": node_kw,
                  "network": net_kw}[layer]
        if key in SCALE_FIELDS:
            current = getattr({"processor": proc, "node": node,
                               "network": net}[layer], fld)
            target[fld] = current * value
        else:
            target[fld] = value
    kind = case.get("topology")
    if kind is not None and kind != net.topology_kind:
        net_kw["topology_kind"] = kind
        if kind == "fattree":
            net_kw["group_sizes"] = (4, 4)
            net_kw["level_blocking"] = (1.0, 2.0)
        elif kind == "multistage":
            net_kw["ports"] = FUZZ_MAX_CPUS
    if node_kw:
        flow = node_kw.get("shm_flow_gbs", node.shm_flow_gbs)
        if flow > node_kw.get("shm_node_gbs", node.shm_node_gbs):
            node_kw["shm_node_gbs"] = flow
        node = replace(node, **node_kw)
    if proc_kw:
        proc = replace(proc, **proc_kw)
    if net_kw:
        net = replace(net, **net_kw)
    return replace(base, processor=proc, node=node, network=net)


def fabric_setup_for(case: FuzzCase):
    """Fault-injection hook (``Cluster.run(fabric_setup=...)``)."""
    slow = case.get("fault.slow_node")
    extra = case.get("fault.extra_latency_us")
    if slow is None and extra is None:
        return None

    def setup(fabric):
        if slow is not None:
            slow_node(fabric, 0, slow)
        if extra is not None:
            add_latency(fabric, extra * 1e-6)
        return fabric

    return setup


# ---------------------------------------------------------------------------
# The battery
# ---------------------------------------------------------------------------

def _collective_prog(comm):
    yield from comm.allreduce(nbytes=4096)
    yield from comm.barrier()
    yield from comm.alltoall(nbytes=2048)
    if comm.rank == 0:
        yield from comm.send(1, nbytes=100_000)
    elif comm.rank == 1:
        yield from comm.recv(0)
    return comm.now


def _pingpong_prog(comm, nbytes):
    if comm.rank == 0:
        yield from comm.send(1, nbytes=nbytes)
        yield from comm.recv(1)
    else:
        yield from comm.recv(0)
        yield from comm.send(0, nbytes=nbytes)
    return comm.now


def _allreduce_time_prog(comm):
    yield from comm.barrier()
    t0 = comm.now
    yield from comm.allreduce(nbytes=65536)
    return comm.now - t0


def default_checks(machine: MachineSpec, case: FuzzCase) -> list[str]:
    """Run the battery on one built machine; return invariant violations."""
    bad: list[str] = []
    setup = fabric_setup_for(case)
    p = min(8, machine.max_cpus)

    # 1. Traced + metered collective run: times, causality, conservation.
    registry, comm = MetricsRegistry(), CommRecorder()
    with using(registry, comm):
        cluster = Cluster(machine, p, trace=True)
        out = cluster.run(_collective_prog, fabric_setup=setup)
    if not (math.isfinite(out.elapsed) and out.elapsed > 0):
        bad.append(f"non-positive elapsed time {out.elapsed!r}")
    for rank, t in enumerate(out.results):
        if not (math.isfinite(t) and t >= 0):
            bad.append(f"rank {rank} finished at invalid time {t!r}")
    tracer = cluster.tracer
    for m in tracer.messages:
        if m.t_deliver < m.t_inject or m.t_inject < 0:
            bad.append(f"causality: message {m.src}->{m.dst} delivered at "
                       f"{m.t_deliver} before injection {m.t_inject}")
            break
    for c in tracer.computes:
        if c.t_end < c.t_start or c.t_start < 0:
            bad.append(f"causality: compute on rank {c.rank} ends at "
                       f"{c.t_end} before start {c.t_start}")
            break
    pm = comm.matrix() or PhaseMatrix()
    flat = {**registry.flat(),
            "commviz.bytes.intra": pm.intra_bytes,
            "commviz.bytes.inter": pm.inter_bytes}
    trace_intra = sum(m.nbytes for m in tracer.messages if m.intra_node)
    trace_inter = sum(m.nbytes for m in tracer.messages if not m.intra_node)
    ledgers = [
        ("mpi.bytes.intra", trace_intra),
        ("mpi.bytes.inter", trace_inter),
        ("commviz.bytes.intra", trace_intra),
        ("commviz.bytes.inter", trace_inter),
        ("net.egress.bytes", trace_inter),
        ("net.ingress.bytes", trace_inter),
    ]
    for name, want in ledgers:
        got = flat.get(name, 0)
        if got != want:
            bad.append(f"conservation: {name}={got} but tracer saw {want}")
    if flat.get("engine.events", 0) <= 0:
        bad.append("engine processed no events")

    # 2. IMB measurements stay physical (finite, positive, real bandwidth).
    for bench in ("PingPong", "Allreduce"):
        res = run_benchmark(machine, bench, min(4, machine.max_cpus),
                            msg_bytes=4096)
        bad.extend(res.check())

    # 3. Message time monotone in size.
    t_small = Cluster(machine, 2).run(_pingpong_prog, 1024,
                                      fabric_setup=setup).results[0]
    t_big = Cluster(machine, 2).run(_pingpong_prog, 65536,
                                    fabric_setup=setup).results[0]
    if t_big < t_small - 1e-12:
        bad.append(f"monotonicity: 64 KiB pingpong ({t_big}) faster than "
                   f"1 KiB ({t_small})")

    # 4. A straggler can only slow a synchronising collective down.
    clean = max(Cluster(machine, p).run(_allreduce_time_prog,
                                        fabric_setup=setup).results)

    def hurt_setup(fabric):
        if setup is not None:
            setup(fabric)
        return slow_node(fabric, 0, 4.0)

    hurt = max(Cluster(machine, p).run(_allreduce_time_prog,
                                       fabric_setup=hurt_setup).results)
    if hurt < clean - 1e-12:
        bad.append(f"fault monotonicity: straggler sped allreduce up "
                   f"({clean} -> {hurt})")
    return bad


# ---------------------------------------------------------------------------
# Verdicts, shrinking, the fuzz run
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CaseVerdict:
    case: FuzzCase
    violations: tuple[str, ...]

    @property
    def passed(self) -> bool:
        return not self.violations

    def to_dict(self) -> dict:
        return {**self.case.to_dict(), "violations": list(self.violations)}


def check_case(case: FuzzCase, checks=default_checks) -> CaseVerdict:
    """Build the machine and run the battery; crashes are findings too."""
    try:
        machine = build_machine(case)
    except Exception as exc:
        return CaseVerdict(case, (f"build-error: {exc!r}",))
    try:
        violations = tuple(checks(machine, case))
    except Exception as exc:
        violations = (f"crash: {exc!r}",)
    return CaseVerdict(case, violations)


def shrink(case: FuzzCase, checks=default_checks) -> FuzzCase:
    """Reduce a failing case to a 1-minimal perturbation set.

    Greedily drops perturbations whose removal keeps the case failing,
    restarting the scan after every successful removal; the result is a
    case from which no *single* perturbation can be removed without the
    failure disappearing.  Deterministic (keys are scanned in the case's
    sorted order).
    """
    current = case
    changed = True
    while changed:
        changed = False
        for key, _v in current.perturbations:
            candidate = current.without(key)
            if not check_case(candidate, checks).passed:
                current = candidate
                changed = True
                break
    return current


@dataclass(frozen=True)
class FuzzReport:
    """Outcome of one seeded fuzz run."""

    seed: int
    configs: int
    verdicts: tuple[CaseVerdict, ...]
    shrunk: tuple[FuzzCase, ...]   # one per failing verdict, same order

    @property
    def failures(self) -> tuple[CaseVerdict, ...]:
        return tuple(v for v in self.verdicts if not v.passed)

    @property
    def ok(self) -> bool:
        return not self.failures

    def to_dict(self) -> dict:
        failures = []
        for verdict, small in zip(self.failures, self.shrunk):
            failures.append({
                **verdict.to_dict(),
                "shrunk": small.to_dict()["perturbations"],
                "replay": f"--fuzz {self.configs} --fuzz-seed {self.seed}",
            })
        return {
            "seed": self.seed,
            "configs": self.configs,
            "passed": self.configs - len(failures),
            "failures": failures,
        }


def run_fuzz(seed: int = 0, n_configs: int = 25,
             checks=default_checks) -> FuzzReport:
    """Sample and check ``n_configs`` machines; pure function of the seed."""
    rng = random.Random(seed)
    cases = [sample_case(rng, seed, i) for i in range(n_configs)]
    verdicts = tuple(check_case(c, checks) for c in cases)
    shrunk = tuple(shrink(v.case, checks)
                   for v in verdicts if not v.passed)
    return FuzzReport(seed=seed, configs=n_configs,
                      verdicts=verdicts, shrunk=shrunk)
