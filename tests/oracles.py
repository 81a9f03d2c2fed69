"""Verification oracles that only the tests use.

The forward Fourier network carries negative conditional-phase angles.
`resolve_phase_sign` re-derives that sign from scratch against the dense
transform, so the convention is pinned by a check rather than assumed.
"""
import numpy as np

from qbaker import Circuit, GateKind, circuit_to_matrix, dft_matrix, qft_circuit

#: Sign of the conditional-phase angles that makes the gate network equal
#: the dense position-to-momentum matrix. Resolved empirically; see
#: resolve_phase_sign().
DFT_PHASE_SIGN = -1


def qft_circuit_with_sign(qubits: int, phase_sign: int) -> Circuit:
    """The Fourier network with every conditional phase at the given sign:
    the gates of qft_circuit(qubits), each B gate of the other sign inverted."""
    conjugated = phase_sign < 0
    gates = tuple(
        g.inverse() if g.kind is GateKind.B and g.conjugated != conjugated else g
        for g in qft_circuit(qubits).gates
    )
    return Circuit(qubits, gates)


def qft_residual_with_sign(qubits: int, phase_sign: int) -> float:
    """Frobenius distance between the network of that sign and the dense oracle."""
    mat = circuit_to_matrix(qft_circuit_with_sign(qubits, phase_sign))
    return float(np.linalg.norm(mat - dft_matrix(qubits)))


def resolve_phase_sign(max_qubits: int = 4, tol: float = 1e-10) -> int:
    """Determine the phase sign by brute-force match against the oracle.

    Exactly one sign must reproduce the dense transform for every size up
    to `max_qubits` (one qubit alone cannot distinguish them: there are no
    two-qubit phases). Anything else means the gate-ordering assumption is
    broken, which is a build-stopping defect, not a tolerance issue.
    """
    candidates = []
    for sign in (1, -1):
        if all(qft_residual_with_sign(L, sign) <= tol for L in range(1, max_qubits + 1)):
            candidates.append(sign)
    if len(candidates) != 1:
        raise RuntimeError(
            "phase-sign resolution failed: matching signs "
            f"{candidates or 'none'}; the network ordering does not realize "
            "the dense transform for either sign"
        )
    return candidates[0]


def is_unitary(mat: np.ndarray, tol: float = 1e-10) -> bool:
    dim = mat.shape[0]
    return bool(np.linalg.norm(mat.conj().T @ mat - np.eye(dim)) <= tol)


def cyclic_shift_matrix(dim: int) -> np.ndarray:
    """Permutation sending position j to position j+1 mod dim."""
    return np.roll(np.eye(dim), 1, axis=0)
