"""The cache-blocked execution plan against the gate-by-gate loop.

The plan is the only way the library applies a circuit. Below
FUSE_MIN_QUBITS it must give the bits of the loop below exactly: every
amplitude gets the same operations in the same order, only grouped chunk
by chunk. From FUSE_MIN_QUBITS on, each run of B gates that share a label
is one phase-table multiply, and the plan agrees with the loop and with
the FFT form of the map to 1e-12.
"""
import multiprocessing
import sys
from collections import Counter

import numpy as np
import pytest

from qbaker import Circuit, baker_circuit, dagger, qft_circuit, random_state, set_num_threads
from qbaker import gates, kernels
from qbaker.gates import Gate, GateKind, a_gate, b_angle, b_gate

# The function each chunk operation calls, as (module, name).
KERNEL_OF_OP = {
    gates._HADAMARD: (kernels, "hadamard"),
    gates._COND_PHASE: (kernels, "cond_phase"),
    gates._PHASE_ON_ONE: (kernels, "phase_on_one"),
    gates._CHUNK_PHASE: None,  # an in-place product in the plan itself
    gates._FUSED_PHASE: (gates, "_apply_phase_tables"),
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


def _fft_map(arr: np.ndarray) -> np.ndarray:
    # T = F_L^{-1} diag(F_{L-1}, F_{L-1}) on every column, blocks split on
    # the top bit.
    half = np.fft.fft(arr.reshape((2, -1) + arr.shape[1:]), axis=1, norm="ortho")
    return np.fft.ifft(half.reshape(arr.shape), axis=0, norm="ortho")


def _column_error(got: np.ndarray, expect: np.ndarray) -> float:
    return float(np.max(np.linalg.norm(got - expect, axis=0) / np.linalg.norm(expect, axis=0)))


def _fused_ops(steps) -> list[tuple]:
    return [op for _, ops in steps for op in ops if op[0] == gates._FUSED_PHASE]


@pytest.mark.parametrize("qubits", [17, 18, 19, 20])
def test_plan_matches_gate_loop_on_large_states(monkeypatch, qubits):
    monkeypatch.setattr(gates, "FUSE_MIN_QUBITS", 21)
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
    steps, _ = gates._plan(circuit, k, False)
    kinds = {op[0] for height, ops in steps if height == k for op in ops}
    assert kinds == set(KERNEL_OF_OP) - {gates._FUSED_PHASE}
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
            steps, _ = gates._plan(circuit, gates._chunk_qubits(arr.size, qubits), False)
            assert [height for height, _ in steps] == [qubits]
            expect = _gate_loop(arr.copy(), circuit)
            assert np.array_equal(gates._apply_circuit_array(arr.copy(), circuit), expect)


def test_plan_calls_kernels_through_the_module(monkeypatch):
    # Wrappers put on the kernels module (as a tracer does) see every call
    # the plan makes, as many as its steps and chunk masks imply; so does a
    # wrapper on the plan's own phase-table multiply.
    qubits = 18
    calls = Counter()
    targets = [(kernels, "swap_bits"), (kernels, "permute_bits")]
    for module, name in targets + [fn for fn in KERNEL_OF_OP.values() if fn is not None]:
        def counted(*args, _fn=getattr(module, name), _name=name):
            calls[_name] += 1
            return _fn(*args)

        monkeypatch.setattr(module, name, counted)
    psi = random_state(qubits, 3).amplitudes
    circuit = baker_circuit(qubits)
    k = gates._chunk_qubits(psi.size, qubits)
    gates._apply_circuit_array(psi, circuit)

    steps, _ = gates._plan(circuit, k, True)
    expect = Counter(permute_bits=1)
    for height, ops in steps:
        # A single-A run above the chunk height calls the kernel once per
        # chunk of 2^height rows, as a chunk-local run does per chunk.
        chunks = range(1 << (qubits - height))
        for kind, _, _, _, mask in ops:
            if KERNEL_OF_OP[kind] is not None:
                expect[KERNEL_OF_OP[kind][1]] += sum(1 for c in chunks if c & mask == mask)
    assert calls == expect
    assert calls["hadamard"] > sum(1 for g in circuit.gates if g.kind is GateKind.A)
    assert calls["_apply_phase_tables"]


def test_fused_plan_reaches_every_branch(monkeypatch):
    # At L = 8 with chunks of 2^4 rows and fusion forced on: fused runs on a
    # label below and above the chunk height, with no table, one or two,
    # with and without partners above the chunk height, next to lone B
    # gates left as they are.
    monkeypatch.setattr(gates, "FUSE_MIN_QUBITS", 1)
    monkeypatch.setattr(gates, "CHUNK_AMPLITUDES", 3 << 4)
    arr = _random_columns(8, 3, 8)
    arr /= np.linalg.norm(arr, axis=0)
    kinds, branches = set(), set()
    for circuit in (baker_circuit(8), dagger(qft_circuit(8)), qft_circuit(8)):
        steps, _ = gates._plan(circuit, 4, True)
        kinds |= {op[0] for _, ops in steps for op in ops}
        branches |= {(s >= 4, len(tables), bool(outer))
                     for _, s, _, (_, _, tables, outer), _ in _fused_ops(steps)}
        got = gates._apply_circuit_array(arr.copy(), circuit)
        assert _column_error(got, _gate_loop(arr.copy(), circuit)) <= 1e-12
    assert kinds == set(KERNEL_OF_OP) - {gates._PHASE_ON_ONE}
    # (s >= k, number of tables, any partner >= k); these circuits give no
    # run on a label s >= k whose in-chunk partners fit one table.
    assert branches == {
        (False, 0, True), (False, 1, False), (False, 1, True), (False, 2, False),
        (False, 2, True), (True, 0, True), (True, 2, False), (True, 2, True),
    }


# (D, 32) stops at L = 18: at L = 20 one copy is 512 MiB and the gate loop
# takes about 30 s.
@pytest.mark.parametrize(
    "qubits, cols", [(q, m) for q in (17, 18, 19, 20) for m in (1, 3, 32) if m < 32 or q <= 18]
)
def test_fused_plan_matches_gate_loop_and_fft_form(qubits, cols):
    arr = _random_columns(qubits, cols, 40 * qubits + cols)
    arr /= np.linalg.norm(arr, axis=0)
    circuit = baker_circuit(qubits)
    k = gates._chunk_qubits(arr.size, qubits)
    assert _fused_ops(gates._plan(circuit, k, True)[0])
    got = gates._apply_circuit_array(arr.copy(), circuit)
    assert _column_error(got, _gate_loop(arr.copy(), circuit)) <= 1e-12
    assert _column_error(got, _fft_map(arr)) <= 1e-12


def test_no_fused_op_below_fuse_min_qubits(monkeypatch):
    # Every plan the library builds for L <= 16, at every chunk height and
    # column count, keeps the gate loop's operations. The circuit is the
    # last run of the Fourier network: B gates that all carry label 0,
    # which a fusing plan would make one operation at any chunk height.
    assert gates.FUSE_MIN_QUBITS == 17
    plan, built = gates._plan, []

    def spy(circuit, k, fuse):
        steps, relabel = plan(circuit, k, fuse)
        built.append((circuit.qubits, k, fuse, _fused_ops(steps)))
        return steps, relabel

    monkeypatch.setattr(gates, "_plan", spy)
    for qubits in range(3, 17):
        circuit = Circuit(qubits, tuple(b_gate(0, n) for n in range(1, qubits)) + (a_gate(0),))
        for cols in (1, 3):
            arr = _random_columns(qubits, cols, qubits)
            for k in range(gates.MIN_CHUNK_QUBITS, qubits + 1):
                monkeypatch.setattr(gates, "CHUNK_AMPLITUDES", cols << k)
                gates._apply_circuit_array(arr.copy(), circuit)
                assert _fused_ops(plan(circuit, k, True)[0])
    assert {(q, k) for q, k, *_ in built} == {
        (q, k) for q in range(3, 17) for k in range(gates.MIN_CHUNK_QUBITS, q + 1)}
    assert not any(fuse or fused for _, _, fuse, fused in built)


def test_cached_plan_lookup_hashes_no_gate(monkeypatch):
    # The plan cache is keyed by the circuit, whose hash is computed once at
    # construction: a repeat application rehashes none of its gates.
    circuit = baker_circuit(10)
    arr = random_state(10, 1).amplitudes
    gates._apply_circuit_array(arr.copy(), circuit)
    calls = Counter()

    def counted(self, _hash=Gate.__hash__):
        calls["gate"] += 1
        return _hash(self)

    monkeypatch.setattr(Gate, "__hash__", counted)
    gates._apply_circuit_array(arr.copy(), circuit)
    assert calls["gate"] == 0
    Circuit(circuit.qubits, circuit.gates)  # the counter does see hashing
    assert calls["gate"] == len(circuit.gates)


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


def _matches_loop(got: np.ndarray, psi: np.ndarray, circuit) -> bool:
    """Bitwise equal to the gate loop below FUSE_MIN_QUBITS, within 1e-12
    from it on."""
    expect = _gate_loop(psi.copy(), circuit)
    if circuit.qubits < gates.FUSE_MIN_QUBITS:
        return np.array_equal(got, expect)
    return _column_error(got, expect) <= 1e-12


def _two_threads_match_the_loop(qubits: int) -> None:
    psi = random_state(qubits, 7).amplitudes
    circuit = baker_circuit(qubits)
    single = gates._apply_circuit_array(psi.copy(), circuit)
    set_num_threads(2)
    threaded = gates._apply_circuit_array(psi.copy(), circuit)
    sys.exit(0 if np.array_equal(threaded, single) and _matches_loop(threaded, psi, circuit) else 3)


def test_plan_with_two_threads_matches_one_thread(monkeypatch):
    # Run in a child so that a deadlocked pool fails the test instead of
    # hanging the run. Without fusion the threaded plan keeps the loop's bits.
    monkeypatch.setattr(gates, "FUSE_MIN_QUBITS", 21)
    assert _in_child(_two_threads_match_the_loop, 18) == 0


def test_fused_plan_with_two_threads_matches_one_thread():
    # Each chunk gets the same fused operations whichever worker runs it.
    assert _in_child(_two_threads_match_the_loop, 18) == 0


def _parent_then_forked_child(qubits: int) -> None:
    psi = random_state(qubits, 8).amplitudes
    circuit = baker_circuit(qubits)
    set_num_threads(2)
    threaded = gates._apply_circuit_array(psi.copy(), circuit)
    ok = _matches_loop(threaded, psi, circuit)
    sys.exit(0 if ok and _in_child(_two_threads_match_the_loop, qubits) == 0 else 3)


def test_plan_in_a_forked_child_after_the_parent():
    # The "parent" is itself a child, so a deadlock in either fails the test.
    assert _in_child(_parent_then_forked_child, 17, timeout=120.0) == 0
