import numpy as np
import pytest
from scipy.linalg import expm

from qbaker import SizeError, build_operators, check_weyl, dft_matrix

from oracles import cyclic_shift_matrix


def test_u_is_diagonal_phases():
    ops = build_operators(1)
    assert np.allclose(ops.u_op, np.diag([1.0, -1.0]), atol=1e-15)
    ops = build_operators(2)
    expect = np.diag(np.exp(2j * np.pi * np.arange(4) / 4))
    assert np.allclose(ops.u_op, expect, atol=1e-15)


def test_v_two_dim_is_bit_flip():
    # hand value: F^dag diag(1, e^{-i pi}) F with F the 2x2 transform
    ops = build_operators(1)
    assert np.allclose(ops.v_op, np.array([[0, 1], [1, 0]]), atol=1e-14)


def test_v_four_dim_is_cyclic_permutation():
    ops = build_operators(2)
    assert np.allclose(ops.v_op, cyclic_shift_matrix(4), atol=1e-13)


@pytest.mark.parametrize("qubits", range(1, 8))
def test_v_is_cyclic_shift_generally(qubits):
    ops = build_operators(qubits)
    assert np.linalg.norm(ops.v_op - cyclic_shift_matrix(ops.dim)) <= 1e-10


@pytest.mark.parametrize("qubits", range(1, 8))
def test_hermiticity_and_unitarity(qubits):
    ops = build_operators(qubits)
    assert np.linalg.norm(ops.q_op - ops.q_op.conj().T) <= 1e-12
    assert np.linalg.norm(ops.p_op - ops.p_op.conj().T) <= 1e-12
    eye = np.eye(ops.dim)
    assert np.linalg.norm(ops.u_op.conj().T @ ops.u_op - eye) <= 1e-10
    assert np.linalg.norm(ops.v_op.conj().T @ ops.v_op - eye) <= 1e-10


def test_exponentials_match_scipy_expm():
    # independent route to U = exp(2 pi i q), V = exp(-2 pi i p)
    for qubits in (1, 2, 3):
        ops = build_operators(qubits)
        assert np.linalg.norm(ops.u_op - expm(2j * np.pi * ops.q_op)) <= 1e-12
        assert np.linalg.norm(ops.v_op - expm(-2j * np.pi * ops.p_op)) <= 1e-12


def test_commutation_two_dim_hand_check():
    ops = build_operators(1)
    uv = ops.u_op @ ops.v_op
    assert np.allclose(uv, np.array([[0, 1], [-1, 0]]), atol=1e-14)
    assert ops.epsilon == pytest.approx(-1.0)
    residual = np.linalg.norm(uv - ops.epsilon * ops.v_op @ ops.u_op)
    assert residual <= 1e-14


@pytest.mark.parametrize("qubits", range(1, 9))
def test_weyl_report_passes(qubits):
    report = check_weyl(build_operators(qubits))
    assert report.commutation_residual <= 1e-9
    assert report.periodicity_residual <= 1e-9
    assert report.passed


@pytest.mark.parametrize("qubits", range(1, 8))
def test_spectra_are_j_over_d(qubits):
    ops = build_operators(qubits)
    levels = np.arange(ops.dim) / ops.dim
    q_diag = np.sort(np.diag(ops.q_op).real)
    assert np.max(np.abs(q_diag - levels)) <= 1e-12
    fourier = dft_matrix(qubits)
    p_diag = np.sort(np.diag(fourier @ ops.p_op @ fourier.conj().T).real)
    assert np.max(np.abs(p_diag - levels)) <= 1e-12


def test_epsilon_is_primitive_root():
    for qubits in range(1, 9):
        ops = build_operators(qubits)
        assert abs(ops.epsilon**ops.dim - 1.0) <= 1e-13


def test_size_guard():
    with pytest.raises(SizeError):
        build_operators(11)
