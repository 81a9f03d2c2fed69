"""Fourier-transform gate network and its dense matrix oracle.

The dense transform maps position to momentum amplitudes with matrix
elements e^{-2 pi i k j / D} / sqrt(D). The gate network reproducing it
consists of one A gate per qubit, one conditional-phase gate per qubit
pair, and a bit-reversal swap stage. Written as an operator product the
network reads

    S x (A_0 B_01 ... B_0,L-1) x ... x (A_L-2 B_L-2,L-1) x (A_L-1)

with the rightmost factor acting first; the builder performs that single
reversal into application order.

Sign convention: the product above matches the dense transform only when
the conditional phases carry the NEGATIVE angle, i.e. every B gate in the
forward network is the conjugated variant (the positive-angle network
realizes the elementwise conjugate, which is the inverse transform). The
test suite re-derives this sign from scratch against the dense oracle.
"""
from __future__ import annotations

import functools

import numpy as np

from .errors import DomainError, SizeError, check_count, check_integer
from .gates import (
    MAX_DENSE_QUBITS,
    Circuit,
    a_gate,
    b_gate,
    circuit_to_matrix,
    swap_gate,
)


def dft_matrix(qubits: int, *, max_qubits: int = MAX_DENSE_QUBITS) -> np.ndarray:
    """Dense D x D transform, entry (k, j) = e^{-2 pi i k j / D} / sqrt(D).

    Entry (k, j) is entry k j mod D of one row of D exponentials, so each
    argument stays within 2 pi and every entry is within about 1e-16 of
    numpy's FFT.
    """
    qubits = check_count(qubits, "qubit count", 1)
    if qubits > max_qubits:
        raise SizeError(f"dense transform refused for {qubits} qubits (limit {max_qubits})")
    dim = 1 << qubits
    m = np.arange(dim)
    row = np.exp(-2j * np.pi * m / dim) / np.sqrt(dim)
    index = np.outer(m, m)
    index &= dim - 1
    return row[index]


def _bit_reversal_pairs(qubits: int) -> list[tuple[int, int]]:
    return [(i, qubits - 1 - i) for i in range(qubits // 2)]


@functools.lru_cache(maxsize=None, typed=True)
def qft_circuit(qubits: int) -> Circuit:
    """Gate network realizing the dense transform on `qubits` qubits."""
    qubits = check_count(qubits, "qubit count", 1)
    gates = []
    for m in range(qubits - 1, -1, -1):
        for n in range(qubits - 1, m, -1):
            gates.append(b_gate(m, n, conjugated=True))
        gates.append(a_gate(m))
    for m, n in _bit_reversal_pairs(qubits):
        gates.append(swap_gate(m, n))
    return Circuit(qubits, tuple(gates))


@functools.lru_cache(maxsize=None, typed=True)
def qft_block_circuit(qubits: int, low_qubits: int | None = None) -> Circuit:
    """Network applying the transform to qubits 0..qubits-2 only: the block
    stage of the map.

    The most significant qubit is untouched, so the dense realization is
    block diagonal with 2 identical blocks. `low_qubits`, if given, must
    be qubits - 1.
    """
    qubits = check_count(qubits, "qubit count", 2)
    if low_qubits is not None and check_integer(low_qubits, "low_qubits") != qubits - 1:
        raise DomainError(f"low_qubits must be {qubits - 1}, got {low_qubits}")
    return Circuit(qubits, qft_circuit(qubits - 1).gates)


def qft_residual(qubits: int) -> float:
    """Frobenius distance between the gate network and the dense oracle."""
    # The oracle's size guard runs before the network (about L^2/2 gates)
    # is built, so a huge qubit count is refused without building it.
    oracle = dft_matrix(qubits)
    mat = circuit_to_matrix(qft_circuit(qubits))
    return float(np.linalg.norm(mat - oracle))
