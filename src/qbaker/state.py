"""Complex state vectors over L qubits.

Amplitudes are stored by position-basis index j ascending, and qubit k is
the 2^k binary digit of j (so qubit L-1 is the most significant bit).
Normalization is checked where an operation requires it, never silently
re-imposed.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, check_count, check_integer

NORM_TOL = 1e-6  # sanity threshold for "this state should be normalized"

# Amplitude sums (norms, overlaps) take numpy's own einsum loop over blocks
# of SUM_BLOCK float64 values, then numpy's sum over the block sums, again in
# blocks: an order fixed by the array's shape alone, where a BLAS dot
# product's order follows its thread count. The blocks also give a lone (D,)
# state and each row of a (rows, D) batch one order: left to itself, einsum
# splits a 1-D sum at its 8192-element buffer but sums each row of a 2-D one
# whole. Lengths are powers of two, so the blocks divide them.
SUM_BLOCK = 1 << 13


@dataclass(frozen=True)
class StateVector:
    """Amplitudes over the 2^qubits position-basis states."""

    qubits: int
    amplitudes: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "qubits", check_count(self.qubits, "qubit count", 1))
        amps = np.ascontiguousarray(self.amplitudes, dtype=np.complex128)
        if amps.shape != (1 << self.qubits,):
            raise DomainError(
                f"amplitude count {amps.shape} does not match 2^{self.qubits}"
            )
        object.__setattr__(self, "amplitudes", amps)

    def norm(self) -> float:
        return float(np.sqrt(squared_norm(self.amplitudes)))


def _floats(amps: np.ndarray) -> np.ndarray:
    # Real and imaginary parts interleaved along the last axis.
    return np.ascontiguousarray(amps, dtype=np.complex128).view(np.float64)


def _blocks(x: np.ndarray) -> np.ndarray:
    return x.reshape(x.shape[:-1] + (-1, min(x.shape[-1], SUM_BLOCK)))


def _dot(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    # sum(x * y) along the last axis of float64 arrays that broadcast.
    sums = np.einsum("...kb,...kb->...k", _blocks(x), _blocks(y))
    while sums.shape[-1] > 1:
        sums = _blocks(sums).sum(axis=-1)
    return sums[..., 0]


def squared_norm(amps: np.ndarray) -> np.ndarray:
    """<a|a> along the last axis: one value per state of a (..., D) array."""
    x = _floats(amps)
    return _dot(x, x)


def overlap(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """<a|b> along the last axis, for (..., D) arrays that broadcast.

    Re<a|b> and Im<a|b> = Re<ia|b> are sums of real products, so <a|a> has
    the bits of squared_norm(a) as its real part.
    """
    x = _floats(b)
    re = _dot(_floats(a), x)
    z = np.empty_like(re, dtype=np.complex128)
    z.real = re
    z.imag = _dot(_floats(1j * a), x)
    return z


def basis_state(qubits: int, j: int) -> StateVector:
    """Return the position eigenstate with index j."""
    qubits = check_count(qubits, "qubit count", 1)
    j = check_integer(j, "basis index")
    if not 0 <= j < (1 << qubits):
        raise DomainError(f"basis index {j} outside [0, 2^{qubits})")
    amps = np.zeros(1 << qubits, dtype=np.complex128)
    amps[j] = 1.0
    return StateVector(qubits, amps)


def random_state(qubits: int, rng: np.random.Generator | int | None = None) -> StateVector:
    """Haar-like random normalized state (complex Gaussian entries)."""
    qubits = check_count(qubits, "qubit count", 1)
    if not isinstance(rng, np.random.Generator):
        rng = np.random.default_rng(rng)
    d = 1 << qubits
    amps = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    amps /= np.sqrt(squared_norm(amps))
    return StateVector(qubits, amps)
