import cmath
import gc
import importlib
import multiprocessing
import os
import sys
import threading
import weakref

import numpy as np
import pytest

from qbaker import (
    DomainError,
    EchoConfig,
    apply_circuit,
    circuit_to_matrix,
    iterate,
    kernels,
    loschmidt_echo,
    random_state,
    set_num_threads,
)
from qbaker.baker import baker_circuit
from qbaker.kernels import (
    cond_phase,
    dense_block,
    dense_slabs,
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
    phase = np.exp(1j * np.pi / 4)
    cond_phase(arr, 3, 0, 2, phase)
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


@pytest.mark.parametrize("kernel, args", [(cond_phase, (cmath.rect(1.0, 0.7),)), (swap_bits, ())])
def test_two_label_kernels_take_labels_in_either_order(kernel, args):
    rng = np.random.default_rng(4)
    arr = rng.standard_normal((8, 2)) + 1j * rng.standard_normal((8, 2))
    low_first, high_first = arr.copy(), arr.copy()
    kernel(low_first, 3, 0, 2, *args)
    kernel(high_first, 3, 2, 0, *args)
    assert np.array_equal(high_first, low_first)
    assert not np.array_equal(low_first, arr)
    with pytest.raises(DomainError, match="two distinct qubits"):
        kernel(arr, 3, 1, 1, *args)


def test_phase_on_one():
    arr = np.ones(4, dtype=complex)
    phase_on_one(arr, 2, 1, cmath.rect(1.0, np.pi / 2))
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
        cases += [(cond_phase, (m, n, cmath.rect(1.0, rng.uniform(-np.pi, np.pi))))
                  for m, n in pairs]
        cases += [(swap_bits, pair) for pair in pairs]
        cases += [(phase_on_one, (m, np.exp(1j * rng.uniform(-np.pi, np.pi, cols))))
                  for m in range(qubits)]
        for kernel, args in cases:
            got = batch.copy()
            kernel(got, qubits, *args)
            for c in range(cols):
                col = batch[:, c].copy()
                col_args = args[:-1] + (complex(args[-1][c]),) if kernel is phase_on_one else args
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
    # buffers from one 16-amplitude slab to the whole array. Its slabs
    # applied one at a time, last first, give the bits of the whole call.
    rng = np.random.default_rng(cols * scratch)
    for w in range(1, 5):
        mat = rng.standard_normal((1 << w, 1 << w)) + 1j * rng.standard_normal((1 << w, 1 << w))
        for m in range(0, 9 - w):
            arr = rng.standard_normal((256, cols)) + 1j * rng.standard_normal((256, cols))
            by_slab = arr.copy()
            expect = _on_bits(mat, 8, m) @ arr
            buf = np.empty(scratch, dtype=complex)
            dense_block(arr.reshape(-1) if cols == 1 else arr, 8, m, mat, buf)
            assert np.abs(arr - expect).max() <= 1e-13, (w, m)
            for s in reversed(range(dense_slabs(by_slab.size, 8, m, 1 << w, scratch))):
                dense_block(by_slab.reshape(-1) if cols == 1 else by_slab, 8, m, mat, buf,
                            range(s, s + 1))
            assert np.array_equal(by_slab, arr), (w, m)


def test_diagonal_multiplies_by_table_over_bits():
    rng = np.random.default_rng(1)
    table = np.exp(1j * rng.uniform(0, 2 * np.pi, 8))
    arr = rng.standard_normal((64, 2)) + 1j * rng.standard_normal((64, 2))
    expect = arr * table[(np.arange(64) >> 2) & 7][:, None]
    diagonal(arr, 6, 2, table)
    assert np.array_equal(arr, expect)
    with pytest.raises(DomainError):
        diagonal(arr, 6, 4, table)


def test_phase_on_one_needs_one_phase_per_column():
    with pytest.raises(DomainError):
        phase_on_one(np.ones((4, 3), dtype=complex), 2, 0, np.ones(2, dtype=complex))


def test_thread_count_validation():
    threads = get_num_threads()
    with pytest.raises(DomainError):
        set_num_threads(0)
    assert get_num_threads() == threads
    # A float, a string or a bool is not a worker count; a numpy integer is
    # stored as a plain int.
    for bad in (2.5, 2.0, "2", True, False, None):
        with pytest.raises(DomainError, match="integer"):
            set_num_threads(bad)
        assert get_num_threads() == threads
    try:
        set_num_threads(np.int64(1))
        assert type(get_num_threads()) is int and get_num_threads() == 1
    finally:
        set_num_threads(threads)


def _threaded_application() -> None:
    # L = 17 is two chunks of the execution plan, so two workers each get one.
    apply_circuit(random_state(17, 4), baker_circuit(17))
    if kernels._pool is None:
        sys.exit(3)


def test_threaded_kernels_work_in_a_forked_child():
    # The parent's pool threads do not survive a fork; the child must start
    # its own pool instead of waiting on the inherited one.
    threads = get_num_threads()
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
        set_num_threads(threads)
    assert child.exitcode == 0


def _import_fresh_kernels():
    for name in [n for n in sys.modules if n == "qbaker" or n.startswith("qbaker.")]:
        del sys.modules[name]
    return importlib.import_module("qbaker.kernels")


def test_reimported_kernels_module_is_collectable():
    # Nothing process-wide (such as a fork callback) may keep an imported
    # copy of the module, and so its globals, alive.
    saved = {n: m for n, m in sys.modules.items() if n == "qbaker" or n.startswith("qbaker.")}

    class Marker:
        pass

    try:
        old = _import_fresh_kernels()
        old.marker = Marker()
        ref = weakref.ref(old.marker)
        del old
        _import_fresh_kernels()
        gc.collect()
        assert ref() is None
    finally:
        for name in [n for n in sys.modules if n == "qbaker" or n.startswith("qbaker.")]:
            del sys.modules[name]
        sys.modules.update(saved)


def test_threaded_application_bitwise_identical():
    # Contract: deterministic per (input, thread count). Every chunk and
    # every slab of a window above the chunk height gets the same zgemm
    # (`dense_block`) on the same shapes whichever worker runs it, so the
    # result is identical across counts too. L = 18 is four chunks, one per
    # worker.
    psi = random_state(18, 21)
    circuit = baker_circuit(18)
    threads = get_num_threads()
    try:
        set_num_threads(1)
        single = apply_circuit(psi, circuit)
        set_num_threads(4)
        threaded = apply_circuit(psi, circuit)
        assert kernels._pool is not None
    finally:
        set_num_threads(threads)
    assert np.array_equal(single.amplitudes, threaded.amplitudes)


@pytest.fixture
def two_workers():
    # Starts from no pool: a pool exists only while the count is above 1.
    threads = get_num_threads()
    set_num_threads(1)
    set_num_threads(2)
    yield
    set_num_threads(threads)


class BlasRecorder:
    """Stands in for OpenBLAS's set, get and helper-shutdown functions."""

    def __init__(self, monkeypatch, threads: int):
        self.threads = threads
        self.calls = []
        monkeypatch.setattr(kernels, "_blas", (self.set, self.get, self.shutdown))

    def set(self, n):
        self.calls.append(("set", n))
        self.threads = n

    def get(self):
        self.calls.append(("get",))
        return self.threads

    def shutdown(self):
        self.calls.append(("shutdown",))
        return 0


def _block_plan_step() -> np.ndarray:
    # L = 17 is two chunks of a block plan.
    return apply_circuit(random_state(17, 4), baker_circuit(17)).amplitudes


def test_block_plan_pins_stops_and_restores_blas(two_workers, monkeypatch):
    blas = BlasRecorder(monkeypatch, 3)
    _block_plan_step()
    assert blas.calls == [("get",), ("set", 1), ("shutdown",), ("set", 3), ("shutdown",)]
    assert kernels._pool is not None


def test_block_plan_restores_blas_when_a_chunk_raises(two_workers, monkeypatch):
    blas = BlasRecorder(monkeypatch, 3)

    def broken(*args):
        raise RuntimeError("chunk failed")

    monkeypatch.setattr(kernels, "dense_block", broken)
    with pytest.raises(RuntimeError, match="chunk failed"):
        _block_plan_step()
    assert blas.calls[-2:] == [("set", 3), ("shutdown",)] and blas.threads == 3


def test_block_plan_runs_serially_beside_a_foreign_thread(two_workers, monkeypatch):
    # The pin and the stops act on the whole process: a thread that is
    # inside BLAS would get one-thread rounding, or hang.
    blas = BlasRecorder(monkeypatch, 2)
    release = threading.Event()
    foreign = threading.Thread(target=release.wait)
    foreign.start()
    try:
        got = _block_plan_step()
    finally:
        release.set()
        foreign.join(timeout=30)
    assert not foreign.is_alive()
    assert blas.calls == [] and kernels._pool is None
    assert np.array_equal(got, _block_plan_step())


def test_concurrent_block_plans_run_in_their_callers(two_workers, monkeypatch):
    # Each caller sees the others, so none pins OpenBLAS or waits on a lock.
    blas = BlasRecorder(monkeypatch, 3)
    results = [None] * 3

    def call(i):
        results[i] = _block_plan_step()

    callers = [threading.Thread(target=call, args=(i,)) for i in range(3)]
    for t in callers:
        t.start()
    for t in callers:
        t.join(timeout=60)
    assert not any(t.is_alive() for t in callers)
    assert blas.calls == [] and kernels._pool is None
    assert all(np.array_equal(r, _block_plan_step()) for r in results)


def test_default_workers_follow_the_cgroup_quota(monkeypatch, tmp_path):
    cores = len(os.sched_getaffinity(0))
    cpu_max = tmp_path / "cpu.max"
    monkeypatch.setattr(kernels, "_CPU_MAX", str(cpu_max))
    for text, want in [("max 100000\n", cores), ("50000 100000\n", 1),
                       (f"{100000 * cores + 1} 100000\n", cores), ("", cores)]:
        cpu_max.write_text(text)
        assert kernels._cores() == want
    cpu_max.unlink()
    assert kernels._cores() == cores


def _blas_dot_bytes() -> bytes:
    # OpenBLAS's dot product of 2^16 entries rounds by its thread count.
    rng = np.random.default_rng(99)
    x = rng.standard_normal((2, 1 << 16)) + 1j * rng.standard_normal((2, 1 << 16))
    return np.vdot(x[0], x[1]).tobytes()


def test_block_plan_leaves_blas_as_it_found_it(two_workers):
    blas = kernels._openblas()
    if not blas:
        pytest.skip("numpy's BLAS is not an OpenBLAS with the thread functions")
    found = blas[1]()
    try:
        blas[0](1)
        one_thread = _blas_dot_bytes()
        # Two BLAS threads, so that a pin left in place shows whatever ran before.
        blas[0](2)
        before = (blas[1](), _blas_dot_bytes())
        if before[1] == one_thread:
            pytest.skip("this OpenBLAS sums the probe alike on 1 and 2 threads")
        _block_plan_step()
        after = (blas[1](), _blas_dot_bytes())
    finally:
        blas[0](found)
    assert kernels._pool is not None
    assert after == before


def test_per_gate_plans_stay_in_the_calling_thread(two_workers):
    circuit_to_matrix(baker_circuit(9))
    loschmidt_echo(EchoConfig(10, 2, 0.05, 3, 1))
    assert kernels._pool is None


def test_default_is_one_worker_without_the_blas_functions(two_workers, monkeypatch):
    expect = iterate(random_state(18, 5), 1).amplitudes
    monkeypatch.setattr(kernels, "_BLAS_SYMBOLS", kernels._BLAS_SYMBOLS + ("no_such_symbol",))
    monkeypatch.setattr(kernels, "_blas", None)
    monkeypatch.setattr(kernels, "_num_threads", None)
    assert get_num_threads() == 1 and kernels._openblas() == ()
    assert np.array_equal(iterate(random_state(18, 5), 1).amplitudes, expect)
