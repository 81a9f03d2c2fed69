"""Displacement operators on the discretized unit square (verification only).

Position and momentum operators both have eigenvalues j/D; the momentum
basis is reached through the dense Fourier matrix, which keeps a single
source of truth for that convention. The displacement operators

    U = exp(2 pi i q),   V = exp(-2 pi i p)

obey U V = V U * eps with eps = e^{2 pi i / D}, and periodic boundary
conditions U^D = V^D = 1. None of this feeds the simulation hot path; it
exists as an independent witness that the Fourier convention is the right
one (V must come out as the cyclic shift of position states).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .qft import dft_matrix

PASS_TOL = 1e-9


@dataclass(frozen=True)
class PhaseSpaceOperators:
    dim: int
    q_op: np.ndarray
    p_op: np.ndarray
    u_op: np.ndarray
    v_op: np.ndarray
    epsilon: complex


@dataclass(frozen=True)
class WeylReport:
    commutation_residual: float
    periodicity_residual: float
    passed: bool


def build_operators(qubits: int) -> PhaseSpaceOperators:
    """Construct q, p, U, V for D = 2^qubits dimensions."""
    # The dense transform's guards refuse a bad or huge qubit count first.
    fourier = dft_matrix(qubits)
    dim = 1 << qubits
    levels = np.arange(dim) / dim
    q_op = np.diag(levels).astype(np.complex128)
    p_op = fourier.conj().T @ np.diag(levels) @ fourier
    u_op = np.diag(np.exp(2j * np.pi * levels))
    # exp(-2 pi i p) through the spectral decomposition p = F^dag diag F
    v_op = fourier.conj().T @ np.diag(np.exp(-2j * np.pi * levels)) @ fourier
    epsilon = complex(np.exp(2j * np.pi / dim))
    return PhaseSpaceOperators(dim, q_op, p_op, u_op, v_op, epsilon)


def check_weyl(ops: PhaseSpaceOperators) -> WeylReport:
    """Residuals of the commutation relation and of D-periodicity."""
    u, v = ops.u_op, ops.v_op
    commutation = float(np.linalg.norm(u @ v - ops.epsilon * (v @ u)))
    eye = np.eye(ops.dim)
    periodicity = max(
        float(np.linalg.norm(np.linalg.matrix_power(u, ops.dim) - eye)),
        float(np.linalg.norm(np.linalg.matrix_power(v, ops.dim) - eye)),
    )
    passed = commutation <= PASS_TOL and periodicity <= PASS_TOL
    return WeylReport(commutation, periodicity, passed)
