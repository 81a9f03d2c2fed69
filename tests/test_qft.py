import numpy as np
import pytest
from scipy.linalg import block_diag

from qbaker import (
    DomainError,
    GateKind,
    SizeError,
    a_gate,
    circuit_to_matrix,
    dagger,
    dft_matrix,
    elide_swaps,
    gate_count,
    qft_block_circuit,
    qft_circuit,
)

from oracles import DFT_PHASE_SIGN, qft_circuit_with_sign, resolve_phase_sign


def test_dft_matrix_one_qubit():
    expect = np.array([[1, 1], [1, -1]]) / np.sqrt(2)
    assert np.allclose(dft_matrix(1), expect, atol=1e-15)


def test_dft_matrix_entry():
    # entry (k=1, j=1) at D=4 is e^{-i pi/2} / 2 = -i/2
    assert dft_matrix(2)[1, 1] == pytest.approx(-0.5j, abs=1e-15)


def test_dft_matrix_unitary():
    f = dft_matrix(3)
    assert np.linalg.norm(f.conj().T @ f - np.eye(8)) <= 1e-12


@pytest.mark.parametrize("qubits", range(1, 11))
def test_dft_matrix_matches_numpy_fft(qubits):
    # With k j reduced mod D every entry is within an ulp or so of numpy's
    # FFT; the unreduced product was off by 8e-15 at L = 6 and 3.5e-14 at 10.
    dim = 1 << qubits
    expect = np.fft.fft(np.eye(dim), axis=0, norm="ortho")
    assert np.abs(dft_matrix(qubits) - expect).max() <= 2e-16


def test_dft_matrix_guards():
    with pytest.raises(SizeError):
        dft_matrix(11)
    with pytest.raises(DomainError):
        dft_matrix(0)
    assert dft_matrix(11, max_qubits=12).shape == (2048, 2048)


def test_phase_sign_resolution():
    # Exactly one sign reproduces the dense transform; it is the constant.
    assert resolve_phase_sign() == DFT_PHASE_SIGN == -1
    # The rejected sign fails decisively for every size with phase gates.
    for L in (2, 3, 4):
        mat = circuit_to_matrix(qft_circuit_with_sign(L, +1))
        assert np.linalg.norm(mat - dft_matrix(L)) > 0.5


def test_qft_circuit_one_qubit():
    assert qft_circuit(1).gates == (a_gate(0),)


def test_qft_circuit_two_qubits_structure():
    gates = qft_circuit(2).gates
    kinds = [g.kind for g in gates]
    assert kinds == [GateKind.A, GateKind.B, GateKind.A, GateKind.SWAP]
    assert gates[0].m == 1  # most significant qubit mixes first
    assert gates[1].conjugated  # forward network uses the negative angle


@pytest.mark.parametrize("qubits", range(1, 9))
def test_qft_circuit_matches_dense(qubits):
    mat = circuit_to_matrix(qft_circuit(qubits))
    assert np.linalg.norm(mat - dft_matrix(qubits)) <= 1e-10


@pytest.mark.parametrize("qubits", range(1, 9))
def test_qft_gate_counts(qubits):
    counts = gate_count(qft_circuit(qubits))
    assert counts.a == qubits
    assert counts.b == qubits * (qubits - 1) // 2
    assert counts.swap == qubits // 2


@pytest.mark.parametrize("qubits", range(1, 9))
def test_qft_dagger_realizes_inverse(qubits):
    mat = circuit_to_matrix(dagger(qft_circuit(qubits)))
    assert np.linalg.norm(mat - dft_matrix(qubits).conj().T) <= 1e-10


@pytest.mark.parametrize("qubits", range(2, 7))
def test_qft_elide_swaps_equivalent(qubits):
    c = qft_circuit(qubits)
    e = elide_swaps(c)
    assert np.linalg.norm(circuit_to_matrix(e) - circuit_to_matrix(c)) <= 1e-12


def test_block_circuit_single_qubit():
    # The smallest block stage transforms one qubit.
    assert qft_block_circuit(2).gates == (a_gate(0),)


def test_block_circuit_is_block_diagonal():
    # The transform on the qubits - 1 low qubits, once per value of the top
    # one; a second argument, if given, is that count.
    mat = circuit_to_matrix(qft_block_circuit(3))
    inner = circuit_to_matrix(qft_circuit(2))
    assert np.linalg.norm(mat - block_diag(inner, inner)) <= 1e-12
    assert qft_block_circuit(3, 2).gates == qft_circuit(2).gates


def test_block_circuit_many_blocks():
    # Wider networks keep the same two-block structure.
    for qubits in (4, 5):
        mat = circuit_to_matrix(qft_block_circuit(qubits))
        inner = circuit_to_matrix(qft_circuit(qubits - 1))
        assert np.linalg.norm(mat - block_diag(inner, inner)) <= 1e-12
        assert qft_block_circuit(qubits, qubits - 1).gates == qft_circuit(qubits - 1).gates


def test_block_circuit_range_check():
    for qubits in (0, 1):
        with pytest.raises(DomainError):
            qft_block_circuit(qubits)
    for low in (0, 2, 4):
        with pytest.raises(DomainError):
            qft_block_circuit(4, low)
