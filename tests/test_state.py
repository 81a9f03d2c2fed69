import numpy as np
import pytest

from qbaker import DomainError, StateVector, basis_state


def test_basis_state_one_qubit():
    s = basis_state(1, 0)
    assert np.array_equal(s.amplitudes, np.array([1.0, 0.0]))


def test_basis_state_bit_decomposition():
    s = basis_state(3, 5)
    assert s.amplitudes[5] == 1.0
    assert np.count_nonzero(s.amplitudes) == 1


def test_basis_state_out_of_range():
    with pytest.raises(DomainError):
        basis_state(2, 4)
    with pytest.raises(DomainError):
        basis_state(2, -1)


def test_basis_states_have_unit_norm():
    for L in range(1, 6):
        for j in range(1 << L):
            assert basis_state(L, j).norm() == 1.0


def test_statevector_validates_length():
    with pytest.raises(DomainError):
        StateVector(2, np.zeros(3, dtype=complex))
    with pytest.raises(DomainError):
        StateVector(0, np.zeros(1, dtype=complex))
    # construction checks the length and never rescales
    assert StateVector(1, np.array([3.0, 4.0])).norm() == pytest.approx(5.0)
