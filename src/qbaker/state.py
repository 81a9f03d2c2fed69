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
        return float(np.linalg.norm(self.amplitudes))


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
    amps /= np.linalg.norm(amps)
    return StateVector(qubits, amps)
