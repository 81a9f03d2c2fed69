"""The cache-blocked execution plan against the gate-by-gate loop.

The plan is the only way the library applies a circuit. Below
FUSE_MIN_QUBITS it must give the bits of the loop below exactly: every
amplitude gets the same operations in the same order, only grouped chunk
by chunk. From FUSE_MIN_QUBITS on, the plan is built from dense blocks on
windows of adjacent labels, and it agrees with the loop, with the FFT form
of the map and with the closed form of T to 1e-12. Random circuits reach
every plan path at small sizes, with the chunk size and FUSE_MIN_QUBITS
patched down, and are also checked against a product of per-gate dense
matrices.
"""
import math
import multiprocessing
import sys
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qbaker import (
    Circuit,
    baker_circuit,
    basis_state,
    dagger,
    iterate,
    qft_circuit,
    random_state,
    set_num_threads,
)
from qbaker import gates, kernels
from qbaker.gates import Gate, GateKind, a_gate, b_angle, b_gate, swap_gate

from oracles import baker_column

# The function each chunk operation calls, as (module, name).
KERNEL_OF_OP = {
    gates._HADAMARD: (kernels, "hadamard"),
    gates._COND_PHASE: (kernels, "cond_phase"),
    gates._PHASE_ON_ONE: (kernels, "phase_on_one"),
    gates._CHUNK_PHASE: None,  # an in-place product in the plan itself
    gates._FUSED_PHASE: (gates, "_apply_phase_tables"),
    gates._DIAGONAL: (kernels, "diagonal"),
    gates._DENSE: (kernels, "dense_block"),
}
# Operations that only a plan built from dense blocks holds.
BLOCK_OPS = {gates._FUSED_PHASE, gates._DIAGONAL, gates._DENSE}


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


def _block_ops(steps) -> list[tuple]:
    return [op for _, ops in steps for op in ops if op[0] in BLOCK_OPS]


def _array_bytes(value) -> int:
    """Bytes of every numpy array held in a (nested) tuple of plan steps."""
    if isinstance(value, np.ndarray):
        return value.nbytes
    if isinstance(value, tuple):
        return sum(_array_bytes(v) for v in value)
    return 0


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
            got = _loop_plan_after_block_plan(monkeypatch, arr, circuit, expect)
            assert np.array_equal(got, expect), (k, circuit.gates[0])


@pytest.mark.parametrize("qubits", range(1, 15))
@pytest.mark.parametrize("cols", [1, 3, 50, 200])
def test_plan_matches_gate_loop_sweep(monkeypatch, qubits, cols):
    # At the library's own chunk size: M = 1 and 3 are one chunk; M = 50
    # runs in chunks of 2^10 rows from L = 11 on, M = 200 in chunks of 2^8
    # rows from L = 9 on.
    arr = _random_columns(qubits, cols, 1000 * qubits + cols)
    for circuit in (baker_circuit(qubits), qft_circuit(qubits), dagger(qft_circuit(qubits))):
        expect = _gate_loop(arr.copy(), circuit)
        got = _loop_plan_after_block_plan(monkeypatch, arr, circuit, expect)
        assert np.array_equal(got, expect), circuit.gates[0]


def _loop_plan_after_block_plan(monkeypatch, arr: np.ndarray, circuit, expect) -> np.ndarray:
    """The library's plan of the circuit on a copy of `arr`. From
    FUSE_MIN_QUBITS on, that plan is built from dense blocks: it is checked
    against `expect` to 1e-12 here, and the plan without blocks, which must
    keep the loop's bits at every size, is returned instead."""
    got = gates._apply_circuit_array(arr.copy(), circuit)
    if circuit.qubits < gates.FUSE_MIN_QUBITS:
        return got
    assert _block_ops(gates._plan(circuit, gates._chunk_qubits(arr.size, circuit.qubits), True)[0])
    assert _column_error(got, expect) <= 1e-12
    with monkeypatch.context() as mp:
        mp.setattr(gates, "FUSE_MIN_QUBITS", circuit.qubits + 1)
        return gates._apply_circuit_array(arr.copy(), circuit)


def test_plan_reaches_every_branch():
    # At L = 8 with chunks of 2^4 rows: B below, straddling and above the
    # chunk height, A below it, and A above it as a run of its own.
    k = 4
    circuit = baker_circuit(8)
    steps, _ = gates._plan(circuit, k, False)
    kinds = {op[0] for height, ops in steps if height == k for op in ops}
    assert kinds == set(KERNEL_OF_OP) - BLOCK_OPS
    # Every gate that is not chunk-local is A on a label m >= k, run alone
    # in chunks of 2^(m+1) rows.
    single = [(height, ops) for height, ops in steps if height != k]
    assert single and all(
        height > k and ops == ((gates._HADAMARD, height - 1, 0, 0.0, 0),) for height, ops in single
    )
    elided = gates.elide_swaps(circuit).gates
    assert [g for g in elided if gates._chunk_op(g, k) is None] == [a_gate(h - 1) for h, _ in single]


def test_small_arrays_run_as_one_chunk(monkeypatch):
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
            got = _loop_plan_after_block_plan(monkeypatch, arr, circuit, expect)
            assert np.array_equal(got, expect)


def test_plan_calls_kernels_through_the_module(monkeypatch):
    # Wrappers put on the kernels module (as a tracer does) see every call
    # the plan makes, as many as its steps and chunk masks imply; so does a
    # wrapper on the plan's own phase-table multiply. The plan is built
    # first: its dense blocks come from circuit_to_matrix, which calls the
    # kernels too.
    qubits = 18
    psi = random_state(qubits, 3).amplitudes
    circuit = baker_circuit(qubits)
    k = gates._chunk_qubits(psi.size, qubits)
    steps, _ = gates._plan(circuit, k, True)
    calls = Counter()
    targets = [(kernels, "swap_bits"), (kernels, "permute_bits")]
    for module, name in targets + [fn for fn in KERNEL_OF_OP.values() if fn is not None]:
        def counted(*args, _fn=getattr(module, name), _name=name):
            calls[_name] += 1
            return _fn(*args)

        monkeypatch.setattr(module, name, counted)
    gates._apply_circuit_array(psi, circuit)

    expect = Counter(permute_bits=1)
    for height, ops in steps:
        # A step above the chunk height calls its kernel once per chunk of
        # 2^height rows, as a chunk-local run does per chunk.
        chunks = range(1 << (qubits - height))
        for kind, _, _, _, mask in ops:
            if KERNEL_OF_OP[kind] is not None:
                expect[KERNEL_OF_OP[kind][1]] += sum(1 for c in chunks if c & mask == mask)
    assert calls == expect
    # The block plan applies no gate on its own: every A is in a dense block.
    assert calls["dense_block"] and calls["diagonal"] and calls["_apply_phase_tables"]
    assert not calls["hadamard"] and not calls["cond_phase"]


# Hand-made circuits at L = 8 for chunks of 2^4 rows: no A gate at all (a
# fused phase with no table), a partner above the chunk height beside one
# in-chunk partner, in-chunk partners too far apart for one table, and an
# in-chunk B gate before a block above the chunk height (a diagonal table).
BRANCH_CIRCUITS = (
    Circuit(8, (b_gate(5, 6),)),
    Circuit(8, (b_gate(1, 2), a_gate(5))),
    Circuit(8, (b_gate(5, 6), b_gate(0, 6), a_gate(5))),
    Circuit(8, (b_gate(0, 6), b_gate(3, 6), a_gate(5), a_gate(0))),
    Circuit(8, (b_gate(5, 6), b_gate(0, 6), b_gate(3, 6), a_gate(5))),
)


def test_fused_plan_reaches_every_branch(monkeypatch):
    # At L = 8 with chunks of 2^4 rows and fusion forced on: dense blocks
    # below the chunk height, with and without phases folded in, and above
    # it; fused phases with no table, one or two, with and without partners
    # above the chunk height.
    monkeypatch.setattr(gates, "FUSE_MIN_QUBITS", 1)
    monkeypatch.setattr(gates, "CHUNK_AMPLITUDES", 3 << 4)
    arr = _random_columns(8, 3, 8)
    arr /= np.linalg.norm(arr, axis=0)
    kinds, dense, fused = set(), set(), set()
    for circuit in (baker_circuit(8), dagger(qft_circuit(8)), qft_circuit(8)) + BRANCH_CIRCUITS:
        steps, _ = gates._plan(circuit, 4, True)
        kinds |= {op[0] for _, ops in steps for op in ops}
        dense |= {(height > 4, value[1] is not None)
                  for height, ops in steps for kind, _, _, value, _ in ops if kind == gates._DENSE}
        fused |= {(len(tables), bool(outer)) for _, _, _, (_, tables, outer), _ in
                  (op for _, ops in steps for op in ops if op[0] == gates._FUSED_PHASE)}
        got = gates._apply_circuit_array(arr.copy(), circuit)
        assert _column_error(got, _gate_loop(arr.copy(), circuit)) <= 1e-12
    assert kinds == BLOCK_OPS
    # (above the chunk height, phases folded in); a window above the chunk
    # height folds nothing.
    assert dense == {(False, False), (False, True), (True, False)}
    # (number of tables, any partner >= k)
    assert fused == {(0, True), (1, True), (2, False), (2, True)}


def test_block_plan_memory_and_structure():
    # The plan cache keeps 64 plans, so a plan must not hold arrays that
    # grow with D or with the number of chunks, which grows with the column
    # count: the tables and matrices of the L = 20 map stay <= 4 MiB for
    # one state (k = 16), for (D, 32) (k = 11, also the echo's widest batch
    # at L = 17) and for chunks of 2^3 rows.
    steps, _ = gates._plan(baker_circuit(20), 16, True)
    assert _array_bytes(steps) <= 4 << 20
    for qubits, k in [(20, 11), (17, 11), (20, 3)]:
        assert _array_bytes(gates._plan(baker_circuit(qubits), k, True)[0]) <= 4 << 20
    for qubits, k in [(11, 11), (17, 16), (20, 16), (20, 11), (22, 16)]:
        for circuit in (baker_circuit(qubits), qft_circuit(qubits)):
            steps, _ = gates._plan(circuit, k, True)
            assert not any(op[0] == gates._HADAMARD for _, ops in steps for op in ops)


# (D, 32) stops at L = 18: at L = 20 one copy is 512 MiB and the gate loop
# takes about 30 s. (D, 3) stops at L = 20 and (D,) at L = 22, where the
# gate loop takes about 5 s.
@pytest.mark.parametrize(
    "qubits, cols",
    [(q, m) for q in (11, 14, *range(16, 23)) for m in (1, 3, 32)
     if m == 1 or q <= (20 if m == 3 else 18)],
)
def test_fused_plan_matches_gate_loop_and_fft_form(qubits, cols):
    arr = _random_columns(qubits, cols, 40 * qubits + cols)
    arr /= np.linalg.norm(arr, axis=0)
    circuit = baker_circuit(qubits)
    k = gates._chunk_qubits(arr.size, qubits)
    assert _block_ops(gates._plan(circuit, k, True)[0])
    got = gates._apply_circuit_array(arr.copy(), circuit)
    assert _column_error(got, _gate_loop(arr.copy(), circuit)) <= 1e-12
    assert _column_error(got, _fft_map(arr)) <= 1e-12


@pytest.mark.parametrize("qubits", range(17, 23))
def test_block_plan_matches_closed_form_columns(qubits):
    # Basis columns at both ends of each block of T and at the block edge,
    # through the public map step, against the closed form in slices of
    # 2^20 rows.
    dim, rows = 1 << qubits, 1 << 20
    assert qubits >= gates.FUSE_MIN_QUBITS
    for j in (0, 1, dim // 2 - 1, dim // 2, dim - 1):
        got = iterate(basis_state(qubits, j), 1).amplitudes
        err = math.sqrt(sum(
            np.linalg.norm(got[r:r + rows] - baker_column(qubits, j, slice(r, r + rows))) ** 2
            for r in range(0, dim, rows)
        ))
        assert err <= 1e-12, j


def _gate_matrix(g: Gate, qubits: int) -> np.ndarray:
    """Dense matrix of one gate, written from the gate's definition."""
    idx = np.arange(1 << qubits)
    mat = np.zeros((1 << qubits, 1 << qubits), dtype=np.complex128)
    if g.kind is GateKind.A:
        mat[idx, idx] = np.where((idx >> g.m) & 1, -1.0, 1.0) / math.sqrt(2.0)
        mat[idx, idx ^ (1 << g.m)] = 1.0 / math.sqrt(2.0)
    elif g.kind is GateKind.B:
        angle = (-1.0 if g.conjugated else 1.0) * math.pi / 2.0 ** g.span
        mat[idx, idx] = np.where((idx >> g.m) & (idx >> g.n) & 1, np.exp(1j * angle), 1.0)
    else:
        flip = ((idx >> g.m) ^ (idx >> g.n)) & 1
        mat[idx, idx ^ (flip << g.m) ^ (flip << g.n)] = 1.0
    return mat


def _dense_product(arr: np.ndarray, circuit) -> np.ndarray:
    """The circuit as a product of per-gate dense matrices, then the
    relabel's permutation matrix, applied to the columns of arr."""
    for g in circuit.gates:
        arr = _gate_matrix(g, circuit.qubits) @ arr
    idx = np.arange(1 << circuit.qubits)
    moved = sum(((idx >> q) & 1) << p for q, p in enumerate(circuit.relabel))
    out = np.empty_like(arr)
    out[moved] = arr
    return out


@st.composite
def _random_circuits(draw, max_qubits: int = 10) -> Circuit:
    """A, B of both signs and with spans other than n - m, Swap, and a
    relabel."""
    qubits = draw(st.integers(1, max_qubits))
    label = st.integers(0, qubits - 1)
    span = st.none() | st.integers(1, qubits + 2)
    size = draw(st.integers(0, 40))
    drawn = draw(st.lists(
        st.tuples(st.sampled_from("AABBS"), label, label, st.booleans(), span),
        min_size=size, max_size=size))
    out = []
    for kind, m, n, conjugated, s in drawn:
        if kind == "A":
            out.append(a_gate(m))
        elif m != n:
            out.append(b_gate(m, n, conjugated, s) if kind == "B" else swap_gate(m, n))
    return Circuit(qubits, tuple(out), tuple(draw(st.permutations(range(qubits)))))


@settings(max_examples=60, deadline=None)
@given(circuit=_random_circuits(), cols=st.sampled_from([1, 3]), data=st.data())
def test_random_circuits_through_every_plan_path(circuit, cols, data):
    # The chunk height is drawn; FUSE_MIN_QUBITS is patched to each side of
    # L. Without blocks the plan keeps the gate loop's bits; with them it
    # holds no per-gate A and agrees with the loop to 1e-12. Both agree
    # with the dense product.
    qubits = circuit.qubits
    arr = _random_columns(qubits, cols, qubits)
    expect = _gate_loop(arr.copy(), circuit)
    k = qubits
    if qubits > gates.MIN_CHUNK_QUBITS:
        k = data.draw(st.integers(gates.MIN_CHUNK_QUBITS, qubits), label="k")
    dense = _dense_product(arr, circuit)
    assert _column_error(expect, dense) <= 1e-12
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(gates, "CHUNK_AMPLITUDES", cols << k)
        assert gates._chunk_qubits(arr.size, qubits) == k
        mp.setattr(gates, "FUSE_MIN_QUBITS", qubits + 1)
        assert np.array_equal(gates._apply_circuit_array(arr.copy(), circuit), expect)
        mp.setattr(gates, "FUSE_MIN_QUBITS", 1)
        got = gates._apply_circuit_array(arr.copy(), circuit)
    assert _column_error(got, expect) <= 1e-12
    assert _column_error(got, dense) <= 1e-12
    steps, _ = gates._plan(circuit, k, True)
    assert not any(op[0] == gates._HADAMARD for _, ops in steps for op in ops)


def test_no_fused_op_below_fuse_min_qubits(monkeypatch):
    # Every plan the library builds below FUSE_MIN_QUBITS, at every chunk
    # height and column count, keeps the gate loop's operations. The
    # circuit is the last run of the Fourier network: B gates that all
    # carry label 0, which a block plan would make one table and one dense
    # block at any chunk height.
    assert gates.FUSE_MIN_QUBITS == gates.MAX_DENSE_QUBITS + 1 == 11
    plan, built = gates._plan, []

    def spy(circuit, k, fuse):
        steps, relabel = plan(circuit, k, fuse)
        built.append((circuit.qubits, k, fuse, _block_ops(steps)))
        return steps, relabel

    monkeypatch.setattr(gates, "_plan", spy)
    for qubits in range(3, 11):
        circuit = Circuit(qubits, tuple(b_gate(0, n) for n in range(1, qubits)) + (a_gate(0),))
        for cols in (1, 3):
            arr = _random_columns(qubits, cols, qubits)
            for k in range(gates.MIN_CHUNK_QUBITS, qubits + 1):
                monkeypatch.setattr(gates, "CHUNK_AMPLITUDES", cols << k)
                gates._apply_circuit_array(arr.copy(), circuit)
                assert _block_ops(plan(circuit, k, True)[0])
    assert {(q, k) for q, k, *_ in built} == {
        (q, k) for q in range(3, 11) for k in range(gates.MIN_CHUNK_QUBITS, q + 1)}
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
