import numpy as np
import pytest

from qbaker import DomainError, StateVector, basis_state
from qbaker import state
from qbaker.state import overlap, squared_norm


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


@pytest.mark.parametrize("qubits, block", [(1, None), (3, None), (12, None), (13, None),
                                           (15, None), (17, None), (5, 4), (6, 8)])
def test_amplitude_sums_give_a_row_the_bits_of_a_lone_state(monkeypatch, qubits, block):
    # From 2^13 float64 values on, einsum alone sums a 1-D array in
    # buffer-sized pieces and a row of a 2-D one whole; small blocks give
    # the block sums levels of their own.
    if block:
        monkeypatch.setattr(state, "SUM_BLOCK", block)
    rng = np.random.default_rng(qubits)
    dim = 1 << qubits
    rows = rng.standard_normal((3, dim)) + 1j * rng.standard_normal((3, dim))
    sq, z = squared_norm(rows), overlap(rows[0], rows)
    assert sq.shape == z.shape == (3,)
    assert squared_norm(rows[:1]).tobytes() == sq[:1].tobytes()
    for i, row in enumerate(rows):
        assert squared_norm(row.copy()).tobytes() == sq[i].tobytes()
        assert overlap(rows[0].copy(), row.copy()).tobytes() == z[i].tobytes()
        want = np.vdot(rows[0], row)
        assert abs(z[i] - want) <= 1e-12 * abs(sq[0] * sq[i]) ** 0.5
        assert abs(sq[i] - np.vdot(row, row).real) <= 1e-12 * sq[i]
    # A self-overlap is the squared norm, so zero kicks give fidelity 1.
    assert z[0].real == sq[0]

