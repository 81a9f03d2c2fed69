import multiprocessing
import sys

import numpy as np
import pytest

from qbaker import DomainError, apply_circuit, kernels, random_state, set_num_threads
from qbaker.baker import baker_circuit
from qbaker.kernels import (
    cond_phase,
    dense_block,
    diagonal,
    get_num_threads,
    hadamard,
    permute_bits,
    phase_on_one,
    swap_bits,
)


def test_hadamard_matches_two_by_two():
    rng = np.random.default_rng(0)
    arr = rng.standard_normal(8) + 1j * rng.standard_normal(8)
    expect = arr.copy()
    h = np.array([[1, 1], [1, -1]]) / np.sqrt(2)
    for pair in ((0, 2), (1, 3), (4, 6), (5, 7)):  # bit 1 pairs
        expect[list(pair)] = h @ expect[list(pair)]
    hadamard(arr, 3, 1)
    assert np.linalg.norm(arr - expect) <= 1e-14


def test_cond_phase_touches_only_both_bits_set():
    arr = np.ones(8, dtype=complex)
    cond_phase(arr, 3, 0, 2, np.pi / 4)
    phase = np.exp(1j * np.pi / 4)
    for j in range(8):
        expect = phase if (j & 1 and j & 4) else 1.0
        assert arr[j] == pytest.approx(expect, abs=1e-15)


def test_swap_bits_permutes_indices():
    arr = np.arange(8, dtype=complex)
    swap_bits(arr, 3, 0, 2)
    for j in range(8):
        b0, b2 = j & 1, (j >> 2) & 1
        src = (j & 0b010) | (b0 << 2) | b2
        assert arr[j] == src


def test_phase_on_one():
    arr = np.ones(4, dtype=complex)
    phase_on_one(arr, 2, 1, np.pi / 2)
    assert np.allclose(arr, [1, 1, 1j, 1j], atol=1e-15)


def test_permute_bits_identity_and_cycle():
    arr = np.arange(8, dtype=complex)
    assert np.array_equal(permute_bits(arr, 3, (0, 1, 2)), arr)
    # cycle 0->1->2->0: value of bit k moves to bit perm[k]
    out = permute_bits(arr, 3, (1, 2, 0))
    for j in range(8):
        target = (((j >> 0) & 1) << 1) | (((j >> 1) & 1) << 2) | (((j >> 2) & 1) << 0)
        assert out[target] == j


def test_permute_bits_is_permutation():
    out = permute_bits(np.arange(16), 4, (2, 0, 3, 1))
    assert sorted(out.tolist()) == list(range(16))


@pytest.mark.parametrize("qubits", [1, 2, 3, 5, 8])
def test_permute_bits_columns_match_column_by_column_bitwise(qubits):
    rng = np.random.default_rng(qubits)
    dim = 1 << qubits
    for _ in range(4):
        perm = tuple(rng.permutation(qubits).tolist())
        batch = rng.standard_normal((dim, 3)) + 1j * rng.standard_normal((dim, 3))
        got = permute_bits(batch, qubits, perm)
        assert not np.shares_memory(got, batch)
        for c in range(3):
            assert np.array_equal(got[:, c], permute_bits(batch[:, c].copy(), qubits, perm))


def test_matrix_and_vector_paths_agree():
    rng = np.random.default_rng(5)
    mat = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
    cols = mat.copy()
    hadamard(cols, 3, 1)
    for c in range(8):
        col = mat[:, c].copy()
        hadamard(col, 3, 1)
        assert np.linalg.norm(cols[:, c] - col) <= 1e-14


@pytest.mark.parametrize("cols", [1, 3])
@pytest.mark.parametrize("qubits", [1, 2, 3, 5])
def test_batched_kernels_match_column_by_column_bitwise(qubits, cols):
    # A (D, M) array must give every column exactly the bits it gets as a
    # (D,) state. At L=1 (phase_on_one) and L=2 (cond_phase) a (D,) state
    # multiplies a single amplitude, which numpy rounds differently from a
    # longer run; random angles over several draws make that show.
    rng = np.random.default_rng(100 * qubits + cols)
    dim = 1 << qubits
    pairs = [(m, n) for m in range(qubits) for n in range(m + 1, qubits)]
    for _ in range(16):
        batch = rng.standard_normal((dim, cols)) + 1j * rng.standard_normal((dim, cols))
        cases = [(hadamard, (m,)) for m in range(qubits)]
        cases += [(cond_phase, (m, n, rng.uniform(-np.pi, np.pi))) for m, n in pairs]
        cases += [(swap_bits, pair) for pair in pairs]
        cases += [(phase_on_one, (m, rng.uniform(-np.pi, np.pi, cols))) for m in range(qubits)]
        for kernel, args in cases:
            got = batch.copy()
            kernel(got, qubits, *args)
            for c in range(cols):
                col = batch[:, c].copy()
                col_args = args[:-1] + (float(args[-1][c]),) if kernel is phase_on_one else args
                kernel(col, qubits, *col_args)
                assert np.array_equal(got[:, c], col), (kernel.__name__, args, c)


def _on_bits(mat: np.ndarray, qubits: int, m: int) -> np.ndarray:
    """The D x D matrix acting as `mat` on bits [m, m + w) of the index."""
    w = len(mat).bit_length() - 1
    return np.kron(np.kron(np.eye(1 << (qubits - m - w)), mat), np.eye(1 << m))


@pytest.mark.parametrize("cols", [1, 3])
@pytest.mark.parametrize("scratch", [16, 48, 1 << 12])
def test_dense_block_matches_kron(cols, scratch):
    # Every window position of 1 to 4 bits in 8 qubits, through scratch
    # buffers from one 16-amplitude slab to the whole array.
    rng = np.random.default_rng(cols * scratch)
    for w in range(1, 5):
        mat = rng.standard_normal((1 << w, 1 << w)) + 1j * rng.standard_normal((1 << w, 1 << w))
        for m in range(0, 9 - w):
            arr = rng.standard_normal((256, cols)) + 1j * rng.standard_normal((256, cols))
            expect = _on_bits(mat, 8, m) @ arr
            dense_block(arr.reshape(-1) if cols == 1 else arr, 8, m, mat,
                        np.empty(scratch, dtype=complex))
            assert np.abs(arr - expect).max() <= 1e-13, (w, m)


def test_diagonal_multiplies_by_table_over_bits():
    rng = np.random.default_rng(1)
    table = np.exp(1j * rng.uniform(0, 2 * np.pi, 8))
    arr = rng.standard_normal((64, 2)) + 1j * rng.standard_normal((64, 2))
    expect = arr * table[(np.arange(64) >> 2) & 7][:, None]
    diagonal(arr, 6, 2, table)
    assert np.array_equal(arr, expect)
    with pytest.raises(DomainError):
        diagonal(arr, 6, 4, table)


def test_phase_on_one_needs_one_angle_per_column():
    with pytest.raises(DomainError):
        phase_on_one(np.ones((4, 3), dtype=complex), 2, 0, np.zeros(2))


def test_thread_count_validation():
    with pytest.raises(DomainError):
        set_num_threads(0)
    assert get_num_threads() == 1


def _threaded_application() -> None:
    # L = 17 is two chunks of the execution plan, so two workers each get one.
    apply_circuit(random_state(17, 4), baker_circuit(17))
    if kernels._pool is None:
        sys.exit(3)


def test_threaded_kernels_work_in_a_forked_child():
    # The parent's pool threads do not survive a fork; the child must start
    # its own pool instead of waiting on the inherited one.
    try:
        set_num_threads(2)
        _threaded_application()
        child = multiprocessing.get_context("fork").Process(target=_threaded_application)
        child.start()
        child.join(timeout=30)
        if child.is_alive():
            child.kill()
            child.join()
    finally:
        set_num_threads(1)
    assert child.exitcode == 0


def test_threaded_application_bitwise_identical():
    # Contract: deterministic per (input, thread count); these kernels are
    # elementwise, so the result is identical across counts too. L = 18 is
    # four chunks, one per worker.
    psi = random_state(18, 21)
    circuit = baker_circuit(18)
    single = apply_circuit(psi, circuit)
    try:
        set_num_threads(4)
        threaded = apply_circuit(psi, circuit)
        assert kernels._pool is not None
    finally:
        set_num_threads(1)
    assert np.array_equal(single.amplitudes, threaded.amplitudes)
