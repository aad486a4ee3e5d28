"""End-to-end numeric verification, HPCC style.

The real HPC Challenge suite ends every run with verification lines
(``...PASSED`` / ``...FAILED``): LU residuals for HPL, element checks
for PTRANS, update-loss counts for RandomAccess, inverse-transform
residuals for FFT.  This module is the simulated analogue — every
benchmark runs in its validated mode with real payloads and is checked
against an independent reference.

Because the simulator's collectives genuinely move and reduce data,
this is a meaningful integrity check of the whole MPI stack, not a
formality: a broken allgather or mis-sliced transpose fails here.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.rng import make_rng
from ..machine.system import MachineSpec
from ..mpi.cluster import Cluster
from .fft import FFTConfig, fft_program
from .hpl import assemble_lu, hpl_lu_program, reference_matrix
from .ptrans import (
    PtransConfig,
    _block_starts,
    process_grid,
    ptrans_program,
    reference_ptrans,
)
from .randomaccess import (
    RandomAccessConfig,
    randomaccess_program,
    reference_table,
)


@dataclass(frozen=True)
class VerificationItem:
    benchmark: str
    passed: bool
    residual: float          # scaled residual / error count
    threshold: float
    detail: str = ""

    def __str__(self) -> str:
        status = "PASSED" if self.passed else "FAILED"
        return (f"{self.benchmark:<14s} {status}  "
                f"(residual {self.residual:.3e}, limit {self.threshold:g})")


@dataclass(frozen=True)
class VerificationReport:
    machine: str
    nprocs: int
    items: tuple[VerificationItem, ...]

    @property
    def all_passed(self) -> bool:
        return all(i.passed for i in self.items)

    def __str__(self) -> str:
        head = f"HPCC verification on {self.machine}, {self.nprocs} CPUs"
        lines = [head, "-" * len(head)]
        lines += [str(i) for i in self.items]
        lines.append("overall: " + ("PASSED" if self.all_passed else "FAILED"))
        return "\n".join(lines)


def verify_hpl(machine: MachineSpec, nprocs: int, n: int = 96,
               nb: int = 8) -> VerificationItem:
    """Distributed LU really factorises: ||L@U - A|| / ||A|| small."""
    n = (n // (nb)) * nb
    cluster = Cluster(machine, nprocs)
    out = cluster.run(hpl_lu_program, n, nb)
    lower, upper = assemble_lu(out.results, n, nb)
    a = reference_matrix(cluster.seed, n)
    residual = float(np.abs(lower @ upper - a).max() / np.abs(a).max())
    return VerificationItem("HPL", residual < 1e-9, residual, 1e-9,
                            detail=f"N={n} NB={nb}")


def verify_ptrans(machine: MachineSpec, nprocs: int,
                  n: int = 60) -> VerificationItem:
    """A = A + B^T matches the serial reference exactly."""
    cluster = Cluster(machine, nprocs)
    out = cluster.run(ptrans_program, PtransConfig(n=n, validate=True))
    ref = reference_ptrans(n, cluster.seed)
    pr, pc = process_grid(nprocs)
    rs, cs = _block_starts(n, pr), _block_starts(n, pc)
    worst = 0.0
    for rank, (_el, block) in enumerate(out.results):
        i, j = divmod(rank, pc)
        expect = ref[rs[i]:rs[i + 1], cs[j]:cs[j + 1]]
        worst = max(worst, float(np.abs(block - expect).max()))
    return VerificationItem("PTRANS", worst < 1e-12, worst, 1e-12,
                            detail=f"N={n}")


def verify_randomaccess(machine: MachineSpec,
                        nprocs: int) -> VerificationItem:
    """Zero lost/duplicated updates: the table equals a serial replay.

    (Real HPCC tolerates 1% lost updates from racing; the simulator is
    deterministic so the bar is exact equality.)
    """
    if nprocs & (nprocs - 1):
        # algorithmic routing needs a power of two; verify the largest below
        nprocs = 1 << (nprocs.bit_length() - 1)
    cfg = RandomAccessConfig(local_table_words=256, updates_per_word=2,
                             bucket=32, validate=True)
    cluster = Cluster(machine, nprocs)
    out = cluster.run(randomaccess_program, cfg)
    got = np.concatenate([r[2] for r in out.results])
    ref = reference_table(cluster.seed, nprocs, cfg)
    errors = int(np.count_nonzero(got != ref))
    return VerificationItem("RandomAccess", errors == 0, float(errors), 0.5,
                            detail=f"{nprocs} ranks, "
                                   f"{cfg.local_table_words * 2} updates/rank")


def verify_fft(machine: MachineSpec, nprocs: int) -> VerificationItem:
    """Distributed spectrum slices match numpy.fft.fft."""
    n = nprocs * nprocs * 8
    cluster = Cluster(machine, nprocs)
    out = cluster.run(fft_program, FFTConfig(total_elements=n, validate=True))
    rng = make_rng(cluster.seed, 333)
    x = rng.random(n) + 1j * rng.random(n)
    ref = np.fft.fft(x)
    n_local = n // nprocs
    worst = 0.0
    for rank, (_el, slice_) in enumerate(out.results):
        expect = ref[rank * n_local:(rank + 1) * n_local]
        scale = max(1.0, float(np.abs(expect).max()))
        worst = max(worst, float(np.abs(slice_ - expect).max()) / scale)
    return VerificationItem("FFT", worst < 1e-9, worst, 1e-9,
                            detail=f"N={n}")


def run_verification(machine: MachineSpec,
                     nprocs: int = 4) -> VerificationReport:
    """Run the full verification battery (small sizes, real numerics)."""
    items = (
        verify_hpl(machine, min(nprocs, 4)),
        verify_ptrans(machine, nprocs),
        verify_randomaccess(machine, nprocs),
        verify_fft(machine, nprocs),
    )
    return VerificationReport(machine=machine.name, nprocs=nprocs,
                              items=items)

