"""Reduction operators and message descriptors for the simulated MPI.

Payloads are optional: a message always has a *logical* byte count (which
drives timing) and may carry a real NumPy array (which lets the test suite
validate algorithm correctness).  Reduction operators behave like their
MPI counterparts on NumPy arrays and on Python scalars.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from ..core.errors import MPIError

#: Wildcards, mirroring MPI.
ANY_SOURCE = -1
ANY_TAG = -1


@dataclass(frozen=True)
class Op:
    """A reduction operator (commutative and associative)."""

    name: str
    fn: Callable[[Any, Any], Any]

    def __call__(self, a: Any, b: Any) -> Any:
        return self.fn(a, b)

    def __repr__(self) -> str:
        return f"<Op {self.name}>"


def _sum(a, b):
    return a + b


def _prod(a, b):
    return a * b


def _max(a, b):
    return np.maximum(a, b) if isinstance(a, np.ndarray) else max(a, b)


def _min(a, b):
    return np.minimum(a, b) if isinstance(a, np.ndarray) else min(a, b)


def _bxor(a, b):
    return np.bitwise_xor(a, b) if isinstance(a, np.ndarray) else a ^ b


def _band(a, b):
    return np.bitwise_and(a, b) if isinstance(a, np.ndarray) else a & b


def _bor(a, b):
    return np.bitwise_or(a, b) if isinstance(a, np.ndarray) else a | b


SUM = Op("SUM", _sum)
PROD = Op("PROD", _prod)
MAX = Op("MAX", _max)
MIN = Op("MIN", _min)
BXOR = Op("BXOR", _bxor)
BAND = Op("BAND", _band)
BOR = Op("BOR", _bor)

OPS = {op.name: op for op in (SUM, PROD, MAX, MIN, BXOR, BAND, BOR)}


def payload_nbytes(data: Any) -> int:
    """Logical size of a payload object."""
    if data is None:
        return 0
    if isinstance(data, np.ndarray):
        return int(data.nbytes)
    if isinstance(data, (bytes, bytearray, memoryview)):
        return len(data)
    if isinstance(data, (int, float, complex, np.generic)):
        return 8
    raise MPIError(
        f"cannot infer nbytes for payload of type {type(data).__name__}; "
        "pass nbytes explicitly"
    )


def resolve_nbytes(data: Any, nbytes: int | None) -> int:
    """Combine an optional payload and an optional explicit size."""
    if nbytes is None:
        if data is None:
            raise MPIError("either data or nbytes must be given")
        return payload_nbytes(data)
    if nbytes < 0:
        raise MPIError(f"nbytes must be >= 0, got {nbytes}")
    return int(nbytes)


def copy_payload(data: Any) -> Any:
    """Copy semantics for delivered payloads (MPI messages are values)."""
    if isinstance(data, np.ndarray):
        return data.copy()
    return data


@dataclass(slots=True)
class RecvResult:
    """What a completed receive hands back."""

    data: Any
    source: int
    tag: int
    nbytes: int
