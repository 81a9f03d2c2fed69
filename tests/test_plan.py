"""The cache-blocked execution plan against the gate-by-gate loop.

The plan is the only way the library applies a circuit. It must give the
bits of the loop below exactly: every amplitude gets the same operations
in the same order, only grouped chunk by chunk.
"""
import multiprocessing
import sys
from collections import Counter

import numpy as np
import pytest

from qbaker import baker_circuit, dagger, qft_circuit, random_state, set_num_threads
from qbaker import gates, kernels
from qbaker.gates import GateKind, a_gate, b_angle

KERNEL_OF_OP = {
    gates._HADAMARD: "hadamard",
    gates._COND_PHASE: "cond_phase",
    gates._PHASE_ON_ONE: "phase_on_one",
    gates._CHUNK_PHASE: None,  # an in-place product in the plan itself
}


def _gate_loop(arr: np.ndarray, circuit) -> np.ndarray:
    """The oracle: every gate on the whole array, in order, then the relabel."""
    qubits = circuit.qubits
    for g in circuit.gates:
        if g.kind is GateKind.A:
            kernels.hadamard(arr, qubits, g.m)
        elif g.kind is GateKind.B:
            kernels.cond_phase(arr, qubits, g.m, g.n, b_angle(g))
        else:
            kernels.swap_bits(arr, qubits, g.m, g.n)
    if not circuit.has_identity_relabel():
        arr = kernels.permute_bits(arr, circuit.qubits, circuit.relabel)
    return arr


def _random_columns(qubits: int, cols: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    shape = (1 << qubits,) if cols == 1 else (1 << qubits, cols)
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


@pytest.mark.parametrize("qubits", [17, 18, 19, 20])
def test_plan_matches_gate_loop_on_large_states(qubits):
    psi = random_state(qubits, 500 + qubits).amplitudes
    circuit = baker_circuit(qubits)
    assert gates._chunk_qubits(psi.size, qubits) == 16
    got = gates._apply_circuit_array(psi.copy(), circuit)
    assert np.array_equal(got, _gate_loop(psi.copy(), circuit))


@pytest.mark.parametrize("qubits", range(6, 13))
@pytest.mark.parametrize("cols", [1, 3, 50])
def test_plan_matches_gate_loop_at_every_chunk_height(monkeypatch, qubits, cols):
    arr = _random_columns(qubits, cols, 10 * qubits + cols)
    for circuit in (baker_circuit(qubits), dagger(qft_circuit(qubits))):
        expect = _gate_loop(arr.copy(), circuit)
        for k in range(gates.MIN_CHUNK_QUBITS, qubits):
            monkeypatch.setattr(gates, "CHUNK_AMPLITUDES", cols << k)
            assert gates._chunk_qubits(arr.size, qubits) == k
            got = gates._apply_circuit_array(arr.copy(), circuit)
            assert np.array_equal(got, expect), (k, circuit.gates[0])


@pytest.mark.parametrize("qubits", range(1, 15))
@pytest.mark.parametrize("cols", [1, 3, 50, 200])
def test_plan_matches_gate_loop_sweep(qubits, cols):
    # At the library's own chunk size: M = 1 and 3 are one chunk; M = 50
    # runs in chunks of 2^10 rows from L = 11 on, M = 200 in chunks of 2^8
    # rows from L = 9 on.
    arr = _random_columns(qubits, cols, 1000 * qubits + cols)
    for circuit in (baker_circuit(qubits), qft_circuit(qubits), dagger(qft_circuit(qubits))):
        got = gates._apply_circuit_array(arr.copy(), circuit)
        assert np.array_equal(got, _gate_loop(arr.copy(), circuit)), circuit.gates[0]


def test_plan_reaches_every_branch():
    # At L = 8 with chunks of 2^4 rows: B below, straddling and above the
    # chunk height, A below it, and A above it as a run of its own.
    k = 4
    circuit = baker_circuit(8)
    steps, _ = gates._plan(circuit, k)
    kinds = {op[0] for height, ops in steps if height == k for op in ops}
    assert kinds == set(KERNEL_OF_OP)
    # Every gate that is not chunk-local is A on a label m >= k, run alone
    # in chunks of 2^(m+1) rows.
    single = [(height, ops) for height, ops in steps if height != k]
    assert single and all(
        height > k and ops == ((gates._HADAMARD, height - 1, 0, 0.0, 0),) for height, ops in single
    )
    elided = gates.elide_swaps(circuit).gates
    assert [g for g in elided if gates._chunk_op(g, k) is None] == [a_gate(h - 1) for h, _ in single]


def test_small_arrays_run_as_one_chunk():
    assert gates._chunk_qubits(8 * 200, 3) == 3          # echo at L = 3, 200 members
    assert gates._chunk_qubits(1 << 16, 16) == 16        # one chunk
    assert gates._chunk_qubits(8 << 14, 3) == 3          # two chunks, each below 2^3 rows
    # (3, 2^15) would be chunks of 2 rows, where the inverse QFT's bits
    # differ from the loop's.
    for qubits, cols in [(3, 200), (16, 1), (9, 64), (3, 1 << 14), (3, 1 << 15)]:
        arr = _random_columns(qubits, cols, qubits)
        for circuit in (baker_circuit(qubits), dagger(qft_circuit(qubits))):
            steps, _ = gates._plan(circuit, gates._chunk_qubits(arr.size, qubits))
            assert [height for height, _ in steps] == [qubits]
            expect = _gate_loop(arr.copy(), circuit)
            assert np.array_equal(gates._apply_circuit_array(arr.copy(), circuit), expect)


def test_plan_calls_kernels_through_the_module(monkeypatch):
    # Wrappers put on the kernels module (as a tracer does) see every call
    # the plan makes, as many as its steps and chunk masks imply.
    qubits = 18
    calls = Counter()
    for name in ("hadamard", "cond_phase", "phase_on_one", "swap_bits", "permute_bits"):
        def counted(*args, _fn=getattr(kernels, name), _name=name):
            calls[_name] += 1
            return _fn(*args)

        monkeypatch.setattr(kernels, name, counted)
    psi = random_state(qubits, 3).amplitudes
    circuit = baker_circuit(qubits)
    k = gates._chunk_qubits(psi.size, qubits)
    gates._apply_circuit_array(psi, circuit)

    steps, _ = gates._plan(circuit, k)
    expect = Counter(permute_bits=1)
    for height, ops in steps:
        # A single-A run above the chunk height calls the kernel once per
        # chunk of 2^height rows, as a chunk-local run does per chunk.
        chunks = range(1 << (qubits - height))
        for kind, _, _, _, mask in ops:
            if KERNEL_OF_OP[kind] is not None:
                expect[KERNEL_OF_OP[kind]] += sum(1 for c in chunks if c & mask == mask)
    assert calls == expect
    assert calls["hadamard"] > sum(1 for g in circuit.gates if g.kind is GateKind.A)


def _in_child(target, *args, timeout: float = 60.0) -> int | None:
    """Exit code of target(*args) in a forked child; a child still running
    after `timeout` seconds (a deadlocked pool) is killed and fails."""
    child = multiprocessing.get_context("fork").Process(target=target, args=args)
    child.start()
    child.join(timeout)
    if child.is_alive():
        child.kill()
        child.join()
    return child.exitcode


def _two_threads_match_the_loop(qubits: int) -> None:
    psi = random_state(qubits, 7).amplitudes
    circuit = baker_circuit(qubits)
    single = gates._apply_circuit_array(psi.copy(), circuit)
    set_num_threads(2)
    threaded = gates._apply_circuit_array(psi.copy(), circuit)
    expect = _gate_loop(psi.copy(), circuit)
    sys.exit(0 if np.array_equal(threaded, single) and np.array_equal(threaded, expect) else 3)


def test_plan_with_two_threads_matches_one_thread():
    # Run in a child so that a deadlocked pool fails the test instead of
    # hanging the run.
    assert _in_child(_two_threads_match_the_loop, 18) == 0


def _parent_then_forked_child(qubits: int) -> None:
    psi = random_state(qubits, 8).amplitudes
    circuit = baker_circuit(qubits)
    set_num_threads(2)
    threaded = gates._apply_circuit_array(psi.copy(), circuit)
    ok = np.array_equal(threaded, _gate_loop(psi.copy(), circuit))
    sys.exit(0 if ok and _in_child(_two_threads_match_the_loop, qubits) == 0 else 3)


def test_plan_in_a_forked_child_after_the_parent():
    # The "parent" is itself a child, so a deadlock in either fails the test.
    assert _in_child(_parent_then_forked_child, 17, timeout=120.0) == 0
