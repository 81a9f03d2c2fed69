"""The cache-blocked execution plan against the gate-by-gate loop.

The plan must give the loop's bits exactly: every amplitude gets the same
operations in the same order, only grouped chunk by chunk.
"""
import multiprocessing
import sys
from collections import Counter

import numpy as np
import pytest

from qbaker import baker_circuit, dagger, qft_circuit, random_state, set_num_threads
from qbaker import gates, kernels
from qbaker.gates import Gate, GateKind

KERNEL_OF_OP = {
    gates._HADAMARD: "hadamard",
    gates._COND_PHASE: "cond_phase",
    gates._PHASE_ON_ONE: "phase_on_one",
    gates._CHUNK_PHASE: None,  # an in-place product in the plan itself
}


def _gate_loop(arr: np.ndarray, circuit) -> np.ndarray:
    """The oracle: every gate on the whole array, in order, then the relabel."""
    for g in circuit.gates:
        gates._apply_gate_array(arr, circuit.qubits, g)
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


def test_plan_reaches_every_branch():
    # At L = 8 with chunks of 2^4 rows: B below, straddling and above the
    # chunk height, A below it, and A above it as a full pass.
    steps, _ = gates._plan(baker_circuit(8), 4)
    kinds = {op[0] for step in steps if isinstance(step, tuple) for op in step}
    assert kinds == set(KERNEL_OF_OP)
    full = [step for step in steps if isinstance(step, Gate)]
    assert full and all(g.kind is GateKind.A and g.m >= 4 for g in full)


def test_small_arrays_skip_the_plan(monkeypatch):
    def refuse(*args):
        raise AssertionError("plan built for a small array")

    monkeypatch.setattr(gates, "_plan", refuse)
    assert gates._chunk_qubits(8 * 200, 3) is None       # echo at L = 3, 200 members
    assert gates._chunk_qubits(1 << 16, 16) is None      # one chunk
    for qubits, cols in [(3, 200), (16, 1), (9, 64)]:
        arr = _random_columns(qubits, cols, qubits)
        circuit = baker_circuit(qubits)
        expect = _gate_loop(arr.copy(), circuit)
        assert np.array_equal(gates._apply_circuit_array(arr, circuit), expect)


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
    chunks = range(1 << (qubits - k))
    expect = Counter(permute_bits=1)
    for step in steps:
        if isinstance(step, Gate):  # a full pass: only A above the chunk height
            assert step.kind is GateKind.A and step.m >= k
            expect["hadamard"] += 1
            continue
        for kind, _, _, _, mask in step:
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
