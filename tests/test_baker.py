import hashlib
import tracemalloc

import numpy as np
import pytest

from qbaker import (
    Circuit,
    ClassicalPoint,
    DomainError,
    GateKind,
    SizeError,
    apply_circuit,
    baker_circuit,
    baker_matrix,
    baker_reference_3q,
    classical_orbit,
    classical_step,
    circuit_to_matrix,
    elide_swaps,
    gate_count,
    iterate,
    kernels,
    random_state,
)

from oracles import is_unitary

INV_SQRT2 = 1.0 / np.sqrt(2.0)


# --- classical map ---------------------------------------------------------

def test_classical_first_branch():
    out = classical_step(ClassicalPoint(0.25, 0.6))
    assert (out.q, out.p) == (0.5, 0.3)


def test_classical_second_branch():
    out = classical_step(ClassicalPoint(0.75, 0.2))
    assert (out.q, out.p) == (0.5, 0.6)


def test_classical_boundary_belongs_to_first_branch():
    out = classical_step(ClassicalPoint(0.5, 0.0))
    assert (out.q, out.p) == (1.0, 0.0)


def test_classical_period_two_orbit():
    pt = ClassicalPoint(1 / 3, 2 / 3)
    once = classical_step(pt)
    assert once.q == pytest.approx(2 / 3, abs=1e-15)
    assert once.p == pytest.approx(1 / 3, abs=1e-15)
    twice = classical_step(once)
    assert twice.q == pytest.approx(pt.q, abs=1e-15)
    assert twice.p == pytest.approx(pt.p, abs=1e-15)


def test_classical_rejects_outside_unit_square():
    with pytest.raises(DomainError):
        ClassicalPoint(1.2, 0.5)
    with pytest.raises(DomainError):
        ClassicalPoint(0.5, -0.1)


def test_classical_orbit_length():
    orbit = classical_orbit(ClassicalPoint(0.2, 0.9), 5)
    assert len(orbit) == 6
    with pytest.raises(DomainError):
        classical_orbit(ClassicalPoint(0.2, 0.9), -1)


@pytest.mark.parametrize("seed", range(6))
def test_classical_area_preservation(seed):
    # a rectangle inside one branch maps to exactly 2x the width and half
    # the height, corner by corner
    rng = np.random.default_rng(seed)
    q0 = rng.uniform(0.0, 0.4)
    q1 = q0 + rng.uniform(0.01, 0.5 - q0 - 0.01)
    p0 = rng.uniform(0.0, 0.9)
    p1 = p0 + rng.uniform(0.01, 1.0 - p0 - 0.005)
    corners = [ClassicalPoint(q, p) for q in (q0, q1) for p in (p0, p1)]
    images = [classical_step(c) for c in corners]
    width = images[2].q - images[0].q
    height = images[1].p - images[0].p
    assert width == pytest.approx(2 * (q1 - q0), rel=1e-12)
    assert height == pytest.approx(0.5 * (p1 - p0), rel=1e-12)


# --- dense unitary ---------------------------------------------------------

def test_baker_matrix_one_qubit():
    expect = INV_SQRT2 * np.array([[1, 1], [1, -1]])
    assert np.allclose(baker_matrix(1), expect, atol=1e-14)


def test_baker_matrix_two_qubits_independent_assembly():
    # assemble the unitary from scratch with explicit loops
    def fourier(dim):
        f = np.empty((dim, dim), dtype=complex)
        for k in range(dim):
            for j in range(dim):
                f[k, j] = np.exp(-2j * np.pi * k * j / dim) / np.sqrt(dim)
        return f

    f4, f2 = fourier(4), fourier(2)
    blocks = np.zeros((4, 4), dtype=complex)
    blocks[:2, :2] = f2
    blocks[2:, 2:] = f2
    expect = np.linalg.inv(f4) @ blocks
    assert np.linalg.norm(baker_matrix(2) - expect) <= 1e-13


def test_baker_matrix_unitarity():
    mat = baker_matrix(3)
    assert np.linalg.norm(mat.conj().T @ mat - np.eye(8)) <= 1e-12


# sha256 of baker_matrix(L).tobytes(), the same at 1 and 2 OpenBLAS threads.
BAKER_MATRIX_SHA256 = {
    1: "7caa015c1dfafa0faf4b71d3cd01135d6783b31384731f2d0e50b97cb3589d26",
    2: "1b41329b5d0d1a1dff106cc853359450557cde96f8f2a2374dc8cbe8b463f8b6",
    3: "c2ac5658d750efe9ab39f0a05368db2883c6191a4e92cb5762ca38529b2b14df",
    4: "f223504eb414f89ac1a81c1e16567bde685357834005d98fccd84345fd2bd55c",
    5: "33d0df8785fd50ee7b6ac4fee6832f9c20044232e08583724157a3d21eb70ec3",
    6: "4fab76708c231eeaa7b123a689b9b10e5053a2185ab19d12c4a4711b56a7fb61",
    7: "c9def1b54499a3906c3e3af7c5b878f92fd9895ec8c5e33114762a260283f417",
    8: "a1d2020616a42a9523ebc949676cabd2cfe2261d4be52d304582eeeb626ad052",
    9: "4cca2ec110b8de42230939ef846d32d8efa56dba670b7835f5c6e3f1b0e69a5d",
    10: "bc5b7b85cfc8520f0289eeb92f9c365af7c2858d06741be8a75c56be83128977",
}


@pytest.mark.parametrize("blas_threads", [1, 2])
def test_baker_matrix_bytes_are_pinned(blas_threads):
    blas = kernels._openblas()
    found = blas and blas[1]()
    try:
        if blas:
            blas[0](blas_threads)
        digests = {L: hashlib.sha256(baker_matrix(L).tobytes()).hexdigest()
                   for L in BAKER_MATRIX_SHA256}
    finally:
        if blas:
            blas[0](found)
            blas[2]()   # setting the count starts the helpers
    assert digests == BAKER_MATRIX_SHA256


def test_baker_matrix_peak_is_two_and_a_quarter_matrices():
    # The full transform, conjugated in place, the half one and the output.
    tracemalloc.start()
    try:
        mat = baker_matrix(8)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert mat.flags.c_contiguous
    assert peak <= 2.3 * mat.nbytes


def test_baker_matrix_size_guard():
    with pytest.raises(SizeError):
        baker_matrix(11)
    with pytest.raises(DomainError):
        baker_matrix(0)


# --- gate network ----------------------------------------------------------

def test_baker_circuit_one_qubit():
    mat = circuit_to_matrix(baker_circuit(1))
    assert np.allclose(mat, INV_SQRT2 * np.array([[1, 1], [1, -1]]), atol=1e-14)


@pytest.mark.parametrize("qubits", range(1, 9))
def test_baker_circuit_matches_matrix(qubits):
    mat = circuit_to_matrix(baker_circuit(qubits))
    assert np.linalg.norm(mat - baker_matrix(qubits)) <= 1e-10


@pytest.mark.parametrize("qubits", range(2, 7))
def test_baker_elide_swaps_equivalent(qubits):
    c = baker_circuit(qubits)
    e = elide_swaps(c)
    assert all(g.kind is not GateKind.SWAP for g in e.gates)
    assert np.linalg.norm(circuit_to_matrix(e) - circuit_to_matrix(c)) <= 1e-12


def test_baker_circuit_and_matrix_forms_agree():
    mat = baker_matrix(4)
    assert np.linalg.norm(circuit_to_matrix(baker_circuit(4)) - mat) <= 1e-10
    assert is_unitary(mat)


def _fft_map(amps: np.ndarray) -> np.ndarray:
    # T = F_L^{-1} diag(F_{L-1}, F_{L-1}), blocks split on the top bit.
    half = np.fft.fft(amps.reshape(2, -1), axis=1, norm="ortho")
    return np.fft.ifft(half.ravel(), norm="ortho")


@pytest.mark.parametrize("qubits", [12, 16, 18, 20])
def test_gate_paths_match_fft_form_past_dense_guard(qubits):
    psi = random_state(qubits, 1000 + qubits)
    expect = _fft_map(psi.amplitudes)
    for got in (iterate(psi, 1), apply_circuit(psi, elide_swaps(baker_circuit(qubits)))):
        err = np.linalg.norm(got.amplitudes - expect) / np.linalg.norm(expect)
        assert err <= 1e-12


# --- the hardcoded three-qubit sequence -------------------------------------

def test_reference_3q_matches_matrix():
    mat = circuit_to_matrix(baker_reference_3q())
    assert np.linalg.norm(mat - baker_matrix(3)) <= 1e-12


def test_reference_3q_matches_builder_matrix():
    fixture = circuit_to_matrix(baker_reference_3q())
    built = circuit_to_matrix(baker_circuit(3))
    assert np.linalg.norm(fixture - built) <= 1e-12


def test_reference_3q_gate_multiset():
    c = baker_reference_3q()
    counts = gate_count(c)
    assert (counts.a, counts.b, counts.swap) == (5, 4, 2)
    b_gates = [g for g in c.gates if g.kind is GateKind.B]
    # in the written sequence three of the four conditional phases are
    # daggered; with the resolved sign those are the positive-angle gates
    assert sum(1 for g in b_gates if not g.conjugated) == 3
    assert sum(1 for g in b_gates if g.conjugated) == 1


def test_reference_3q_multiset_equals_builder():
    assert sorted(
        (g.kind.value, g.m, g.n, g.conjugated) for g in baker_reference_3q().gates
    ) == sorted((g.kind.value, g.m, g.n, g.conjugated) for g in baker_circuit(3).gates)


def test_reference_3q_order_differs_from_builder():
    # same multiset and same unitary, but not the same sequence: the
    # hand-written inverse stage is the elementwise conjugate of the
    # forward network, not its reversal
    assert baker_reference_3q().gates != baker_circuit(3).gates


def test_baker_circuit_flattened_multiset():
    counts = gate_count(baker_circuit(3))
    assert (counts.a, counts.b, counts.swap) == (5, 4, 2)
