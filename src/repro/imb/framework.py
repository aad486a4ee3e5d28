"""IMB measurement methodology.

Follows the Intel MPI Benchmarks conventions the paper relies on:

* the reported time is the **maximum over ranks** of the per-iteration
  average (IMB's ``t_max``), in microseconds;
* message sizes follow the standard schedule 0, 1, 2, 4, ... 4194304
  bytes (:func:`imb_message_sizes`), though the paper only plots 1 MB;
* transfer benchmarks also report a bandwidth figure with IMB's
  per-benchmark byte-count conventions (Sendrecv counts 2x, Exchange 4x
  the message size per iteration; MB here is ``2**20`` bytes, as in IMB).

Because the simulator is deterministic there is no statistical noise;
``iterations`` exists to capture steady-state pipelining effects, not to
average out jitter.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ..core.errors import BenchmarkError
from ..machine.system import MachineSpec
from ..mpi.cluster import Cluster

#: IMB standard message-size schedule upper bound (4 MiB).
IMB_MAX_MSG = 4 * 1024 * 1024

#: The paper reports results at 1 MB ("average size of the message is
#: about 1 MB in many real world applications", §1).
PAPER_MSG_BYTES = 1024 * 1024


def imb_message_sizes(max_bytes: int = IMB_MAX_MSG) -> list[int]:
    """The IMB standard-mode schedule: 0, 1, 2, 4, ..., max."""
    sizes = [0]
    b = 1
    while b <= max_bytes:
        sizes.append(b)
        b *= 2
    return sizes


@dataclass(frozen=True)
class IMBResult:
    """One (benchmark, machine, nprocs, msgsize) measurement."""

    benchmark: str
    machine: str
    nprocs: int
    msg_bytes: int
    time_us: float               # IMB t_max, us per call/iteration
    bandwidth_mbs: float | None  # MB/s (2**20), transfer benchmarks only

    def __str__(self) -> str:  # pragma: no cover - display helper
        bw = f", {self.bandwidth_mbs:.1f} MB/s" if self.bandwidth_mbs else ""
        return (
            f"{self.benchmark}[{self.machine}, P={self.nprocs}, "
            f"{self.msg_bytes} B] = {self.time_us:.2f} us{bw}"
        )

    def check(self) -> list[str]:
        """Physical-sanity violations in this measurement (empty = ok).

        Any simulated machine, however degraded, must produce a finite
        positive time and (for transfer benchmarks) a finite positive
        bandwidth — used by the validation fuzzer.
        """
        bad: list[str] = []
        if not (math.isfinite(self.time_us) and self.time_us > 0):
            bad.append(f"{self.benchmark}: non-positive time {self.time_us!r}")
        if self.bandwidth_mbs is not None and not (
                math.isfinite(self.bandwidth_mbs) and self.bandwidth_mbs > 0):
            bad.append(f"{self.benchmark}: invalid bandwidth "
                       f"{self.bandwidth_mbs!r}")
        return bad


class IMBBenchmark:
    """Base class: subclasses provide a rank program and byte accounting."""

    #: Benchmark name as IMB spells it.
    name: str = "?"
    #: Bytes counted per iteration for the bandwidth figure (0 = no bw).
    bytes_per_iteration: float = 0.0
    #: Minimum rank count.
    min_procs: int = 2

    def program(self, comm, nbytes: int, iterations: int):
        """Rank program measuring ``iterations`` calls; returns seconds."""
        raise NotImplementedError

    def run(
        self,
        machine: MachineSpec,
        nprocs: int,
        msg_bytes: int = PAPER_MSG_BYTES,
        iterations: int = 1,
        warmup: int = 1,
        fabric_setup=None,
    ) -> IMBResult:
        if nprocs < self.min_procs:
            raise BenchmarkError(
                f"{self.name} needs >= {self.min_procs} ranks, got {nprocs}"
            )
        if iterations < 1:
            raise BenchmarkError("iterations must be >= 1")
        # A fault-injected fabric invalidates the analytic steady-state
        # price, so fault runs always go through the full simulation.
        t_max = (None if fabric_setup is not None
                 else self._steady_state_time(machine, nprocs, msg_bytes))
        if t_max is None:
            cluster = Cluster(machine, nprocs)

            def driver(comm):
                if warmup:
                    yield from self.program(comm, msg_bytes, warmup)
                yield from comm.barrier()
                t = yield from self.program(comm, msg_bytes, iterations)
                return t / iterations

            res = cluster.run(driver, fabric_setup=fabric_setup)
            t_max = max(res.results)
        bw = None
        if self.bytes_per_iteration:
            per_iter = self.bytes_per_iteration * self._bw_scale(msg_bytes, nprocs)
            bw = per_iter / t_max / (1024.0 * 1024.0) if t_max > 0 else 0.0
        return IMBResult(
            benchmark=self.name,
            machine=machine.name,
            nprocs=nprocs,
            msg_bytes=msg_bytes,
            time_us=t_max * 1e6,
            bandwidth_mbs=bw,
        )

    def _bw_scale(self, msg_bytes: int, nprocs: int) -> float:
        return float(msg_bytes)

    def _steady_state_time(self, machine: MachineSpec, nprocs: int,
                           msg_bytes: int) -> float | None:
        """Analytic per-call time when the macro fast-path is licensed.

        Returns ``None`` (simulate at message level) unless ``nprocs``
        exceeds the installed ``macro_above`` threshold AND a closed-form
        pricer exists for this benchmark.  See :mod:`repro.imb.fastpath`.
        """
        from . import fastpath

        if not fastpath.fastpath_active(nprocs):
            return None
        return fastpath.price(self.name, machine, nprocs, msg_bytes)


#: Registry populated by the benchmark modules.
BENCHMARKS: dict[str, IMBBenchmark] = {}


def register(bench: IMBBenchmark) -> IMBBenchmark:
    BENCHMARKS[bench.name] = bench
    return bench


def get_benchmark(name: str) -> IMBBenchmark:
    try:
        return BENCHMARKS[name]
    except KeyError:
        known = ", ".join(sorted(BENCHMARKS))
        raise BenchmarkError(f"unknown IMB benchmark {name!r}; known: {known}")
