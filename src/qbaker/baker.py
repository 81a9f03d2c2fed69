"""The baker transformation in three guises.

Classical map of the unit square:

    (q, p) -> (2q, p/2)            if 0 <= q <= 1/2
    (q, p) -> (2q - 1, (p+1)/2)    if 1/2 < q <= 1

(stretch in q, squeeze in p, cut, stack; the boundary q = 1/2 belongs to
the first branch). Its quantization on D = 2^L dimensions is the unitary

    T = F_L^{-1} . diag(F_{L-1}, F_{L-1})

in the position basis, where F is the dense Fourier matrix and the block
split is on the most significant position bit (q below or above 1/2). The
same unitary factors into the gate network: the Fourier block acting on
the L-1 least significant qubits, followed by the inverse of the full
Fourier network.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, check_count
from .gates import (
    MAX_DENSE_QUBITS,
    Circuit,
    a_gate,
    b_gate,
    concat,
    dagger,
    swap_gate,
)
from .qft import dft_matrix, qft_block_circuit, qft_circuit


@dataclass(frozen=True)
class ClassicalPoint:
    q: float
    p: float

    def __post_init__(self) -> None:
        if not (0.0 <= self.q <= 1.0 and 0.0 <= self.p <= 1.0):
            raise DomainError(f"point ({self.q}, {self.p}) outside the unit square")


def classical_step(pt: ClassicalPoint) -> ClassicalPoint:
    """One application of the classical map."""
    if pt.q <= 0.5:
        return ClassicalPoint(2.0 * pt.q, 0.5 * pt.p)
    return ClassicalPoint(2.0 * pt.q - 1.0, 0.5 * (pt.p + 1.0))


def classical_orbit(pt: ClassicalPoint, steps: int) -> list[ClassicalPoint]:
    """Trajectory [pt, T(pt), ..., T^steps(pt)]."""
    steps = check_count(steps, "step count", 0)
    orbit = [pt]
    for _ in range(steps):
        pt = classical_step(pt)
        orbit.append(pt)
    return orbit


def baker_matrix(qubits: int, *, max_qubits: int = MAX_DENSE_QUBITS) -> np.ndarray:
    """Dense quantized map: F_L^{-1} . diag(F_{L-1}, F_{L-1}), each column
    half as that half of F_L^H (F_L conjugated in place) times F_{L-1}."""
    full = dft_matrix(qubits, max_qubits=max_qubits)
    half = dft_matrix(qubits - 1) if qubits > 1 else np.eye(1, dtype=np.complex128)
    inverse = np.conjugate(full, out=full).T
    d = half.shape[0]
    out = np.empty(full.shape, dtype=np.complex128)
    np.matmul(inverse[:, :d], half, out=out[:, :d])
    np.matmul(inverse[:, d:], half, out=out[:, d:])
    return out


@functools.lru_cache(maxsize=None, typed=True)
def baker_circuit(qubits: int) -> Circuit:
    """Gate network for one iteration of the quantized map.

    Application order: the Fourier network on the L-1 least significant
    qubits, then the daggered full Fourier network. For one qubit the
    half-size transform is the scalar 1 and the block stage is empty.
    """
    qubits = check_count(qubits, "qubit count", 1)
    inverse_stage = dagger(qft_circuit(qubits))
    if qubits == 1:
        return inverse_stage
    block_stage = qft_block_circuit(qubits)
    return concat(block_stage, inverse_stage)


def baker_reference_3q() -> Circuit:
    """Hand-written 11-gate sequence for the three-qubit map.

    Kept as a golden fixture independent of the builder: written as an
    operator product it reads

        S_02 A_0 Bdg_01 Bdg_02 A_1 Bdg_12 A_2 S_01 A_0 B_01 A_1

    (application order is the reverse), where plain B is the negative-angle
    gate used by the forward Fourier network and Bdg its inverse. The
    sequence differs from the builder output in gate order; both realize
    the same unitary because the inverse Fourier stage here is written as
    the elementwise conjugate of the forward network rather than as its
    reversal.
    """
    gates = (
        a_gate(1),
        b_gate(0, 1, conjugated=True),
        a_gate(0),
        swap_gate(0, 1),
        a_gate(2),
        b_gate(1, 2),
        a_gate(1),
        b_gate(0, 2),
        b_gate(0, 1),
        a_gate(0),
        swap_gate(0, 2),
    )
    return Circuit(3, gates)

