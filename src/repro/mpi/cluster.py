"""The cluster runtime: run rank programs on a simulated machine.

This is the library's main entry point::

    from repro import Cluster, get_machine

    def program(comm):
        data = yield from comm.allreduce(np.ones(4), op=SUM)
        return data

    cluster = Cluster(get_machine("sx8"), nprocs=16)
    result = cluster.run(program)
    print(result.elapsed, result.results[0])

A rank *program* is a generator function whose first argument is the
rank's :class:`~repro.mpi.comm.Comm`; extra positional/keyword arguments
are forwarded.  ``run`` executes all ranks to completion under the
discrete-event engine and reports the virtual elapsed time.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from ..core.engine import Engine
from ..core.errors import ConfigError
from ..core.rng import DEFAULT_SEED, make_rng
from ..core.trace import Tracer
from ..machine.system import MachineSpec
from ..obs.context import current
from .comm import Comm, _iota
from .pt2pt import Transport

#: Kernel classes whose throughput is shared across a fully packed node.
_NODE_SCALED_KERNELS = frozenset(
    {"stream_copy", "stream_scale", "stream_add", "stream_triad",
     "reduction", "ptrans"}
)


@dataclass
class RunResult:
    """Outcome of one :meth:`Cluster.run`."""

    results: list[Any]       # per-rank program return values
    elapsed: float           # virtual seconds from t=0 to completion
    tracer: Tracer           # message/compute records (if tracing enabled)

    @property
    def elapsed_us(self) -> float:
        return self.elapsed * 1e6


class Cluster:
    """A machine instance populated with ``nprocs`` MPI ranks."""

    def __init__(
        self,
        machine: MachineSpec,
        nprocs: int,
        *,
        trace: bool = False,
        seed: int | None = None,
        placement: str = "block",
    ) -> None:
        if nprocs < 1:
            raise ConfigError("need at least one process")
        self.machine = machine
        self.nprocs = int(nprocs)
        self.placement = machine.placement(nprocs, strategy=placement)
        self.seed = DEFAULT_SEED if seed is None else seed
        self._trace = trace
        # Live per-run state (populated by run()).
        self.engine: Engine | None = None
        self.fabric = None
        self.transport: Transport | None = None
        self.tracer = Tracer(enabled=trace)
        self._compute_memo: dict[tuple, float] = {}

    # -- derived info -----------------------------------------------------------

    @property
    def n_nodes(self) -> int:
        return self.machine.n_nodes(self.nprocs)

    def rng(self, rank: int) -> np.random.Generator:
        """Deterministic per-rank random generator."""
        return make_rng(self.seed, rank)

    def compute_time(self, flops: float, nbytes: float,
                     kernel: str = "generic") -> float:
        """Roofline compute time on one CPU of this machine.

        Memory-bound kernels are derated by the node's ``stream_node_scale``
        — we assume nodes are fully packed, as in the paper's runs.  A pure
        function of the machine and its arguments, memoised per run:
        kernels such as RandomAccess charge the same bucket every round.
        """
        key = (flops, nbytes, kernel)
        t = self._compute_memo.get(key)
        if t is not None:
            return t
        proc = self.machine.processor
        t = 0.0
        if flops:
            t = flops / proc.kernel_flops(kernel)
        if nbytes:
            bw = proc.kernel_mem_bw(kernel)
            if kernel in _NODE_SCALED_KERNELS:
                bw *= self.machine.node.stream_node_scale
            tm = nbytes / bw
            if tm > t:
                t = tm
        self._compute_memo[key] = t
        return t

    # -- execution ----------------------------------------------------------------

    def run(self, program: Callable, *args: Any,
            fabric_setup: Callable | None = None, **kwargs: Any) -> RunResult:
        """Run ``program(comm, *args, **kwargs)`` on every rank.

        ``fabric_setup``, if given, receives the freshly built fabric
        before any rank starts — the hook used for fault injection
        (see :mod:`repro.machine.faults`).
        """
        self.engine = Engine()
        self._compute_memo = {}
        self.fabric = self.machine.build_fabric(self.nprocs)
        if fabric_setup is not None:
            fabric_setup(self.fabric)
        # RMA window and file registries are per-run state.
        self.__dict__.pop("_rma_windows", None)
        self.__dict__.pop("_rma_arrivals", None)
        self.__dict__.pop("_fs_model", None)
        self.__dict__.pop("_sim_files", None)
        self.tracer = Tracer(enabled=self._trace)
        self.transport = Transport(
            self.engine, self.fabric, self.placement, self.tracer
        )
        world = _iota(self.nprocs)
        procs = []
        for r in range(self.nprocs):
            comm = Comm(self, r, world)
            gen = program(comm, *args, **kwargs)
            procs.append(self.engine.spawn(gen, name=f"rank{r}"))
        try:
            elapsed = self.engine.run()
        finally:
            self.fabric.flush_observations()
            self.transport.flush_observations()
        enrec = current("energy")
        if enrec.enabled and self.machine.power is not None:
            # Price the run's busy intervals: per-rank CPU seconds from
            # the transport clocks, per-kind network busy seconds from
            # the fabric's bandwidth servers.
            enrec.record_run(
                self.machine.power,
                machine=self.machine.name,
                nprocs=self.nprocs,
                n_nodes=self.n_nodes,
                elapsed_s=elapsed,
                cpu_busy_s=self.transport.cpu_busy_s,
                busy=self.fabric.busy_by_kind(),
            )
        return RunResult(
            results=[p.result for p in procs],
            elapsed=elapsed,
            tracer=self.tracer,
        )

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<Cluster {self.machine.name} nprocs={self.nprocs} "
            f"nodes={self.n_nodes}>"
        )
