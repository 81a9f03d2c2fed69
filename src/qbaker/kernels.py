"""In-place bitmask kernels over the leading axis of a complex array.

Each kernel touches every amplitude a constant number of times (O(D) per
gate) and never forms a D x D matrix. Arrays may be shape (D,) for a state
or (D, M) for M columns sharing the transformation (only `phase_on_one`
also takes one angle per column); the leading axis is the basis index and
C-order layout lets every kernel reshape it into (high bits, target bit,
rest) blocks. Each column of a (D, M) array gets the bits it would get as
a (D,) state on its own. (The execution plan in `gates` keeps that
guarantee only below `gates.FUSE_MIN_QUBITS`. From there on it applies
`diagonal` phase tables and `dense_block` products on windows of 4
labels in place of the per-gate kernels; they agree with the gates to
1e-12.)

The kernels are serial, apart from the BLAS threads of the matrix
products in `dense_block`. Threads come from the execution plan in `gates`,
which calls the kernels on chunks of consecutive rows and hands ranges of
chunks to a shared thread pool (`run_chunks`). Every element is written
exactly once, by the same formula from the same inputs, so results are
independent of the thread count.
"""
from __future__ import annotations

import math
import os
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from .errors import DomainError

INV_SQRT2 = 1.0 / math.sqrt(2.0)

_lock = threading.Lock()
_num_threads = 1
_pool: ThreadPoolExecutor | None = None


def set_num_threads(n: int) -> None:
    """Set the worker count for circuit application (default 1).

    Workers share out the chunks of the execution plan, so they apply to
    arrays of at least two chunks.
    """
    global _num_threads, _pool
    if n < 1:
        raise DomainError(f"thread count must be >= 1, got {n}")
    with _lock:
        if n != _num_threads and _pool is not None:
            _pool.shutdown(wait=True)
            _pool = None
        _num_threads = n


def get_num_threads() -> int:
    return _num_threads


def _get_pool(n: int) -> ThreadPoolExecutor:
    global _pool
    with _lock:
        if _pool is None:
            _pool = ThreadPoolExecutor(max_workers=n)
        return _pool


def _reset_after_fork() -> None:
    # The pool's worker threads do not exist in a forked child, and the lock
    # may have been held by one of the parent's threads at the fork.
    global _lock, _pool
    _lock = threading.Lock()
    _pool = None


os.register_at_fork(after_in_child=_reset_after_fork)


def run_chunks(chunk_fn, nchunks: int) -> None:
    """Call chunk_fn(c0, c1) over the chunk indices [0, nchunks).

    With n > 1 workers and at least n chunks, each worker gets one
    contiguous range of chunks. This is the only code that submits to the
    pool, and chunk_fn calls serial kernels, so no worker ever waits on
    the pool.
    """
    n = _num_threads
    if n <= 1 or nchunks < n:
        chunk_fn(0, nchunks)
        return
    pool = _get_pool(n)
    step = (nchunks + n - 1) // n
    futures = [pool.submit(chunk_fn, c0, min(c0 + step, nchunks)) for c0 in range(0, nchunks, step)]
    for f in futures:
        f.result()


def _check_label(qubits: int, m: int) -> None:
    if not 0 <= m < qubits:
        raise DomainError(f"qubit label {m} outside [0, {qubits})")


def hadamard(arr: np.ndarray, qubits: int, m: int) -> None:
    """Mix amplitude pairs differing in bit m with (1,1;1,-1)/sqrt(2)."""
    _check_label(qubits, m)
    view = arr.reshape(1 << (qubits - 1 - m), 2, arr.size >> (qubits - m))
    a = view[:, 0, :]
    b = view[:, 1, :]
    t = a + b
    np.subtract(a, b, out=b)
    b *= INV_SQRT2
    np.multiply(t, INV_SQRT2, out=a)


def cond_phase(arr: np.ndarray, qubits: int, m: int, n: int, angle: float) -> None:
    """Multiply amplitudes whose bits m and n are both 1 by e^{i*angle}."""
    if m > n:
        m, n = n, m
    _check_label(qubits, m)
    _check_label(qubits, n)
    if m == n:
        raise DomainError("conditional phase needs two distinct qubits")
    phase = complex(math.cos(angle), math.sin(angle))
    view = arr.reshape(1 << (qubits - 1 - n), 2, 1 << (n - 1 - m), 2, arr.size >> (qubits - m))
    _multiply(view[:, 1, :, 1, :], phase, arr.size >> qubits)


def swap_bits(arr: np.ndarray, qubits: int, m: int, n: int) -> None:
    """Exchange bits m and n of the basis index (amplitude permutation)."""
    if m > n:
        m, n = n, m
    _check_label(qubits, m)
    _check_label(qubits, n)
    if m == n:
        raise DomainError("swap needs two distinct qubits")
    view = arr.reshape(1 << (qubits - 1 - n), 2, 1 << (n - 1 - m), 2, arr.size >> (qubits - m))
    a = view[:, 0, :, 1, :]
    b = view[:, 1, :, 0, :]
    t = a.copy()
    a[...] = b
    b[...] = t


def phase_on_one(arr: np.ndarray, qubits: int, m: int, angle: float | np.ndarray) -> None:
    """Apply diag(1, e^{i*angle}) on qubit m.

    `angle` is one float for every column, or a 1-D array holding one angle
    per column of a (D, M) array.
    """
    _check_label(qubits, m)
    hi = 1 << (qubits - 1 - m)
    cols = arr.size >> qubits
    if np.ndim(angle) == 0:
        phase = complex(math.cos(angle), math.sin(angle))
        view = arr.reshape(hi, 2, arr.size >> (qubits - m))
    else:
        if np.shape(angle) != (cols,):
            raise DomainError(f"need one angle per column of {arr.shape}, got {np.shape(angle)}")
        phase = np.array([complex(math.cos(a), math.sin(a)) for a in angle])
        view = arr.reshape(hi, 2, 1 << m, cols)
    _multiply(view[:, 1], phase, cols)


def diagonal(arr: np.ndarray, qubits: int, m: int, table: np.ndarray) -> None:
    """Multiply by the diagonal `table` over bits [m, m + w), len(table) = 2^w:
    the amplitudes whose index has those bits equal to r get table[r]."""
    w = len(table).bit_length() - 1
    _check_label(qubits, m + w - 1)
    view = arr.reshape(-1, len(table), arr.size >> (qubits - m))
    view *= table[:, None]


def dense_block(arr: np.ndarray, qubits: int, m: int, unitary: np.ndarray,
                scratch: np.ndarray) -> None:
    """Apply the 2^w x 2^w matrix `unitary` to bits [m, m + w) of the index,
    with bit m + j as bit j of the matrix index.

    The array is taken as (high bits, 2^w, low bits) and multiplied in slabs
    of at most len(scratch) >= 2^w amplitudes, each written to the complex
    `scratch` buffer and copied back, so no temporary grows with the array.
    For m = 0 on a one-column array each slab is one contiguous
    (rows, 2^w) @ unitary.T.
    """
    dim = len(unitary)
    _check_label(qubits, m + dim.bit_length() - 2)   # the top bit, m + w - 1
    lo = arr.size >> (qubits - m)
    if lo == 1:
        rows = arr.reshape(-1, dim)
        step = len(scratch) // dim
        for r in range(0, len(rows), step):
            x = rows[r:r + step]
            out = scratch[:x.size].reshape(x.shape)
            np.matmul(x, unitary.T, out=out)
            x[...] = out
        return
    view = arr.reshape(-1, dim, lo)
    hs = max(1, len(scratch) // (dim * lo))
    ls = min(lo, len(scratch) // dim)
    for h in range(0, len(view), hs):
        for l in range(0, lo, ls):
            x = view[h:h + hs, :, l:l + ls]
            out = scratch[:x.size].reshape(x.shape)
            np.matmul(unitary, x, out=out)
            x[...] = out


def _multiply(target: np.ndarray, phase: complex | np.ndarray, cols: int) -> None:
    """target *= phase, rounded as if each of the `cols` columns were alone.

    numpy's vector loop for complex products may fuse multiply-adds, while a
    lone element takes the plain scalar loop, whose last bit can differ. So
    when the product touches one amplitude per column, it is written out in
    real arithmetic, which rounds like the lone element does.
    """
    if target.size != cols or cols == 1:
        target *= phase
        return
    re, im = target.real.copy(), target.imag.copy()
    p_re, p_im = np.real(phase), np.imag(phase)
    target.real = re * p_re - im * p_im
    target.imag = re * p_im + im * p_re


def permute_bits(arr: np.ndarray, qubits: int, perm: tuple[int, ...]) -> np.ndarray:
    """Return a new array with the value of qubit k moved to qubit perm[k].

    One transposed copy of the (2,)*qubits view: axis i of that view holds
    qubit qubits-1-i, so qubit perm[k]'s axis of the result is taken from
    qubit k's axis of the input. Trailing column axes stay in place.
    """
    axes = list(range(arr.ndim - 1 + qubits))
    for k, pk in enumerate(perm):
        axes[qubits - 1 - pk] = qubits - 1 - k
    view = arr.reshape((2,) * qubits + arr.shape[1:])
    return view.transpose(axes).copy().reshape(arr.shape)
