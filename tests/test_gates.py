import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qbaker import (
    Circuit,
    DomainError,
    Gate,
    GateKind,
    SizeError,
    a_gate,
    apply_circuit,
    apply_gate,
    b_angle,
    b_gate,
    baker_circuit,
    basis_state,
    circuit_to_matrix,
    concat,
    dagger,
    elide_swaps,
    gate_count,
    qft_circuit,
    random_state,
    swap_gate,
)
from qbaker import gates
from qbaker.gates import inverse_permutation

from oracles import is_unitary

INV_SQRT2 = 1.0 / math.sqrt(2.0)


# --- single gates ----------------------------------------------------------

def test_a_gate_on_basis_state():
    out = apply_gate(basis_state(1, 0), a_gate(0))
    assert np.allclose(out.amplitudes, [INV_SQRT2, INV_SQRT2], atol=1e-15)


def test_a_gate_matrix():
    mat = circuit_to_matrix(Circuit(1, (a_gate(0),)))
    assert np.allclose(mat, INV_SQRT2 * np.array([[1, 1], [1, -1]]), atol=1e-15)


def test_b_gate_phases_only_on_both_bits_set():
    # |q_3> on two qubits has bits j_0 = j_1 = 1; the phase magnitude is pi/2
    out = apply_gate(basis_state(2, 3), b_gate(0, 1))
    assert out.amplitudes[3] == pytest.approx(np.exp(1j * np.pi / 2), abs=1e-15)
    out = apply_gate(basis_state(2, 3), b_gate(0, 1, conjugated=True))
    assert out.amplitudes[3] == pytest.approx(np.exp(-1j * np.pi / 2), abs=1e-15)
    for j in (0, 1, 2):
        out = apply_gate(basis_state(2, j), b_gate(0, 1))
        assert out.amplitudes[j] == 1.0


def test_b_angle_scales_with_label_distance():
    assert b_angle(b_gate(0, 1)) == pytest.approx(math.pi / 2)
    assert b_angle(b_gate(0, 3)) == pytest.approx(math.pi / 8)
    assert b_angle(b_gate(1, 3, conjugated=True)) == pytest.approx(-math.pi / 4)
    # explicit exponent survives label canonicalization
    assert b_angle(b_gate(2, 0, span=1)) == pytest.approx(math.pi / 2)


def test_b_gate_symmetric_in_labels():
    assert b_gate(1, 0) == b_gate(0, 1)
    assert b_gate(2, 0, conjugated=True) == b_gate(0, 2, conjugated=True)


def test_conjugated_flag_is_stored_as_a_bool():
    g = b_gate(0, 1, conjugated=np.True_)
    assert g.conjugated is True
    assert g == b_gate(0, 1, conjugated=True)
    assert g.inverse().inverse() == g


def test_labels_and_span_are_stored_as_ints():
    # A numpy label is stored as the Python int it equals, so the phase
    # exponent n - m is an int too and 1 << span cannot overflow.
    g = b_gate(np.int64(0), np.int64(70))
    assert all(type(v) is int for v in (g.m, g.n, g.span))
    assert g == b_gate(0, 70)
    assert b_angle(g) == b_angle(b_gate(0, 70)) > 0
    assert gates._angle_units(b_gate(np.int64(0), np.int64(5))) == 1 << 58
    assert type(a_gate(np.int64(2)).m) is int
    assert all(type(q) is int for q in swap_gate(np.int64(3), np.int64(1)).labels())


def test_swap_gate_exchanges_bits():
    out = apply_gate(basis_state(2, 1), swap_gate(0, 1))
    assert out.amplitudes[2] == 1.0
    assert np.count_nonzero(out.amplitudes) == 1


def test_swap_matrix_is_permutation():
    mat = circuit_to_matrix(Circuit(2, (swap_gate(0, 1),)))
    expect = np.eye(4)[:, [0, 2, 1, 3]]
    assert np.array_equal(mat.real, expect)


def test_gate_label_validation():
    with pytest.raises(DomainError):
        apply_gate(basis_state(2, 0), a_gate(2))
    with pytest.raises(DomainError):
        swap_gate(1, 1)
    with pytest.raises(DomainError):
        b_gate(0, 0)
    with pytest.raises(DomainError):
        b_gate(0, 1, span=0)


@pytest.mark.parametrize("build, message", [
    (lambda: Gate(GateKind.A, -1), "non-negative"),
    (lambda: Gate(GateKind.B, 0, -1), "non-negative"),
    (lambda: Gate(GateKind.A, 0, 1), "single qubit"),
    (lambda: Gate(GateKind.A, 0, conjugated=True), "A has no conjugated variant"),
    (lambda: Gate(GateKind.SWAP, 0, 1, conjugated=True), "Swap has no conjugated variant"),
    (lambda: Gate(GateKind.A, 0, span=1), "A carries no phase exponent"),
    (lambda: Gate(GateKind.SWAP, 0, 1, span=1), "SWAP carries no phase exponent"),
    (lambda: b_angle(a_gate(0)), "B gates only"),
    (lambda: Circuit(0, ()), "qubit count must be >= 1, got 0"),
    (lambda: concat(Circuit(2, ()), Circuit(3, ())), "different widths"),
    (lambda: baker_circuit(0), "qubit count must be >= 1, got 0"),
    (lambda: qft_circuit(0), "qubit count must be >= 1, got 0"),
    (lambda: b_gate(0, 1, conjugated="no"), "conjugated must be a bool, got 'no'"),
    (lambda: Gate(GateKind.A, 0, conjugated=0), "conjugated must be a bool, got 0"),
    (lambda: Gate(GateKind.B, 0, 1, conjugated=1), "conjugated must be a bool, got 1"),
], ids=["negative A label", "negative B label", "A with two labels", "conjugated A",
        "conjugated SWAP", "span on A", "span on SWAP", "b_angle of A", "no qubits",
        "concat widths", "baker no qubits", "qft no qubits", "string conjugated",
        "integer conjugated A", "integer conjugated B"])
def test_invalid_gates_and_circuits_are_domain_errors(build, message):
    with pytest.raises(DomainError, match=message):
        build()


# --- circuits --------------------------------------------------------------

def test_empty_circuit_is_identity():
    s = random_state(3, 0)
    out = apply_circuit(s, Circuit(3, ()))
    assert np.array_equal(out.amplitudes, s.amplitudes)


def test_a_is_involution():
    s = basis_state(1, 0)
    out = apply_circuit(s, Circuit(1, (a_gate(0), a_gate(0))))
    assert abs(out.amplitudes[0] - 1.0) <= 1e-15
    assert out.amplitudes[1] == 0.0


def test_circuit_validates_labels_and_relabel():
    with pytest.raises(DomainError):
        Circuit(2, (a_gate(2),))
    with pytest.raises(DomainError):
        Circuit(2, (), relabel=(0, 0))
    with pytest.raises(DomainError):
        apply_circuit(basis_state(2, 0), Circuit(3, ()))


def _random_circuit(rng, qubits, n_gates):
    gates = []
    for _ in range(n_gates):
        kind = rng.integers(0, 3)
        if kind == 0 or qubits == 1:
            gates.append(a_gate(int(rng.integers(0, qubits))))
        else:
            m, n = rng.choice(qubits, size=2, replace=False)
            if kind == 1:
                gates.append(b_gate(int(m), int(n), conjugated=bool(rng.integers(0, 2))))
            else:
                gates.append(swap_gate(int(m), int(n)))
    relabel = tuple(int(x) for x in rng.permutation(qubits))
    return Circuit(qubits, tuple(gates), relabel)


@pytest.mark.parametrize("seed", range(8))
@pytest.mark.parametrize("qubits", [1, 2, 3, 5])
def test_apply_circuit_matches_dense_oracle(qubits, seed):
    rng = np.random.default_rng(seed)
    c = _random_circuit(rng, qubits, 12)
    psi = random_state(qubits, rng)
    via_gates = apply_circuit(psi, c).amplitudes
    via_matrix = circuit_to_matrix(c) @ psi.amplitudes
    assert np.linalg.norm(via_gates - via_matrix) <= 1e-12


@pytest.mark.parametrize("seed", range(6))
def test_gate_application_preserves_norm(seed):
    rng = np.random.default_rng(seed)
    qubits = 4
    psi = random_state(qubits, rng)
    for gate in _random_circuit(rng, qubits, 20).gates:
        before = psi.norm()
        psi = apply_gate(psi, gate)
        assert abs(psi.norm() - before) <= 1e-13


@pytest.mark.parametrize("seed", range(6))
def test_gate_then_inverse_restores_state(seed):
    rng = np.random.default_rng(100 + seed)
    psi = random_state(4, rng)
    for gate in _random_circuit(rng, 4, 15).gates:
        back = apply_gate(apply_gate(psi, gate), gate.inverse())
        assert np.max(np.abs(back.amplitudes - psi.amplitudes)) <= 1e-13


def test_norm_drift_over_thousand_gates():
    rng = np.random.default_rng(3)
    psi = random_state(5, rng)
    c = _random_circuit(rng, 5, 1000)
    out = apply_circuit(psi, c)
    assert abs(out.norm() - 1.0) <= 1e-9


def test_circuit_to_matrix_is_unitary():
    rng = np.random.default_rng(17)
    for qubits in (1, 3, 4):
        c = _random_circuit(rng, qubits, 25)
        assert is_unitary(circuit_to_matrix(c), tol=1e-10)


def test_circuit_to_matrix_size_guard():
    with pytest.raises(SizeError):
        circuit_to_matrix(Circuit(11, ()))
    # the guard is the only dense path; the gate path has no such limit
    big = apply_circuit(basis_state(12, 0), Circuit(12, (a_gate(11),)))
    assert abs(big.norm() - 1.0) <= 1e-13


@pytest.mark.parametrize("seed", range(5))
def test_matrix_composition(seed):
    rng = np.random.default_rng(200 + seed)
    qubits = int(rng.integers(2, 6))
    c1 = _random_circuit(rng, qubits, 8)
    c2 = _random_circuit(rng, qubits, 8)
    combined = circuit_to_matrix(concat(c1, c2))
    sequential = circuit_to_matrix(c2) @ circuit_to_matrix(c1)
    assert np.linalg.norm(combined - sequential) <= 1e-12


# --- dagger ----------------------------------------------------------------

def test_dagger_of_single_a():
    c = Circuit(1, (a_gate(0),))
    assert dagger(c).gates == c.gates


def test_dagger_reverses_and_inverts():
    c = Circuit(2, (a_gate(0), b_gate(0, 1)))
    d = dagger(c)
    assert d.gates == (b_gate(0, 1, conjugated=True), a_gate(0))


def test_dagger_qft_gives_inverse():
    c = qft_circuit(3)
    prod = circuit_to_matrix(dagger(c)) @ circuit_to_matrix(c)
    assert np.linalg.norm(prod - np.eye(8)) <= 1e-12


@pytest.mark.parametrize("seed", range(5))
def test_dagger_random_circuits(seed):
    rng = np.random.default_rng(300 + seed)
    qubits = int(rng.integers(1, 6))
    c = _random_circuit(rng, qubits, 12)
    mat = circuit_to_matrix(c)
    prod = circuit_to_matrix(dagger(c)) @ mat
    assert np.linalg.norm(prod - np.eye(1 << qubits)) <= 1e-10


# --- swap elision ----------------------------------------------------------

def test_elide_single_swap():
    c = Circuit(2, (swap_gate(0, 1),))
    e = elide_swaps(c)
    assert e.gates == ()
    assert e.relabel == (1, 0)


def test_elide_swap_then_gate():
    c = Circuit(2, (swap_gate(0, 1), a_gate(0)))
    e = elide_swaps(c)
    assert e.gates == (a_gate(1),)
    assert e.relabel == (1, 0)


def test_elide_preserves_b_phase_across_relabeling():
    # Relabeled conditional phases keep their original angle even when the
    # new label distance differs.
    c = Circuit(3, (swap_gate(1, 2), b_gate(0, 2)))
    e = elide_swaps(c)
    (g,) = e.gates
    assert g.kind is GateKind.B
    assert b_angle(g) == pytest.approx(b_angle(b_gate(0, 2)))
    assert np.linalg.norm(circuit_to_matrix(e) - circuit_to_matrix(c)) <= 1e-12


@pytest.mark.parametrize("seed", range(10))
def test_elide_random_circuits(seed):
    rng = np.random.default_rng(400 + seed)
    qubits = int(rng.integers(2, 7))
    c = _random_circuit(rng, qubits, 20)
    e = elide_swaps(c)
    assert all(g.kind is not GateKind.SWAP for g in e.gates)
    assert np.linalg.norm(circuit_to_matrix(e) - circuit_to_matrix(c)) <= 1e-12


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_elide_never_emits_swaps(seed):
    rng = np.random.default_rng(seed)
    c = _random_circuit(rng, 4, 15)
    e = elide_swaps(c)
    assert all(g.kind is not GateKind.SWAP for g in e.gates)
    assert np.linalg.norm(circuit_to_matrix(e) - circuit_to_matrix(c)) <= 1e-12


# --- counts ----------------------------------------------------------------

def test_gate_count_qft3():
    counts = gate_count(qft_circuit(3))
    assert (counts.a, counts.b, counts.swap) == (3, 3, 1)


def test_gate_count_empty():
    counts = gate_count(Circuit(4, ()))
    assert (counts.a, counts.b, counts.swap) == (0, 0, 0)


# --- relabel semantics -----------------------------------------------------

def test_relabel_applies_after_gates():
    # relabel (1,0) alone must act like a swap
    c = Circuit(2, (), relabel=(1, 0))
    out = apply_circuit(basis_state(2, 1), c)
    assert out.amplitudes[2] == 1.0
    swap_mat = circuit_to_matrix(Circuit(2, (swap_gate(0, 1),)))
    assert np.array_equal(circuit_to_matrix(c), swap_mat)


def test_inverse_permutation():
    perm = (2, 0, 3, 1)
    inv = inverse_permutation(perm)
    assert tuple(perm[i] for i in inv) == (0, 1, 2, 3)
