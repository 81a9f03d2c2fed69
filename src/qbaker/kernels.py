"""In-place bitmask kernels over the leading axis of a complex array.

Each kernel touches every amplitude a constant number of times (O(D) per
gate) and never forms a D x D matrix. Arrays may be shape (D,) for a state
or (D, M) for M columns sharing the transformation (only `phase_on_one`
also takes one phase per column); the leading axis is the basis index and
C-order layout lets every kernel reshape it into (high bits, target bit,
rest) blocks. Phase kernels multiply by the phase e^{i*angle} itself, so
each angle is turned into a phase once, by whoever makes it. Each column
of a (D, M) array gets the bits it would get as a (D,) state on its own.
(The execution plan in `gates` keeps that guarantee only below
`gates.FUSE_MIN_QUBITS`. From there on it applies `diagonal` phase tables
and `dense_block` products on windows of 4 labels in place of the
per-gate kernels; they agree with the gates to 1e-12.)

The kernels are serial, apart from the BLAS threads of the matrix
products in `dense_block`. Threads come from the execution plan in `gates`:
a block plan hands ranges of the work units of each of its steps to a
shared thread pool (`run_chunks`), by default one worker per core this
process may run on, capped by a cgroup v2 CPU quota
(`/sys/fs/cgroup/cpu.max`). A unit is a chunk, or, in a step that applies
a window above the chunk height, one `dense_block` slab of the whole array
(see `dense_slabs`). Per-gate plans run in the calling thread. Every element
is written exactly once, by the same formula from the same inputs, so
results are independent of the thread count.

While the workers run, numpy's bundled OpenBLAS is pinned to one thread,
so that each worker's products do not start BLAS threads of their own.
Its idle helper threads are stopped too: after a threaded BLAS call they
busy-wait for about 0.13 s of CPU, which would take the second worker's
core. The thread count found is restored when the plan ends, which starts
the helpers again, so they are stopped once more; OpenBLAS restarts them
on its next threaded call. The pin and the stops act on the whole
process, so a plan called while any other thread is alive (one that may
be inside BLAS) runs in the calling thread, with neither.
"""
from __future__ import annotations

import ctypes
import math
import os
import threading
from concurrent.futures import ThreadPoolExecutor, wait

import numpy as np

from .errors import DomainError, check_count

INV_SQRT2 = 1.0 / math.sqrt(2.0)

_lock = threading.Lock()
_num_threads: int | None = None   # None until set or first read: the default
_pool: ThreadPoolExecutor | None = None
_pid = os.getpid()  # the process that made _lock and _pool
_WORKER_PREFIX = "qbaker-kernels"
# OpenBLAS's set, get and helper-shutdown functions, as loaded by numpy.
_BLAS_SYMBOLS = ("scipy_openblas_set_num_threads64_", "scipy_openblas_get_num_threads64_",
                 "blas_thread_shutdown_")
_blas: tuple | None = None        # the three functions, () if not found, None until looked up
_CPU_MAX = "/sys/fs/cgroup/cpu.max"


def _openblas() -> tuple:
    """The functions named in _BLAS_SYMBOLS from numpy's bundled OpenBLAS,
    or () when it does not export all three."""
    global _blas
    if _blas is None:
        _blas = ()
        libdir = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
        names = os.listdir(libdir) if os.path.isdir(libdir) else []
        for name in [n for n in names if "openblas" in n]:
            lib = ctypes.CDLL(os.path.join(libdir, name))
            if all(hasattr(lib, symbol) for symbol in _BLAS_SYMBOLS):
                set_threads, get_threads, shutdown = (getattr(lib, s) for s in _BLAS_SYMBOLS)
                set_threads.argtypes, set_threads.restype = [ctypes.c_int], None
                get_threads.argtypes = shutdown.argtypes = []
                get_threads.restype = shutdown.restype = ctypes.c_int
                _blas = (set_threads, get_threads, shutdown)
                break
    return _blas


def _renew_after_fork() -> None:
    # The pool's worker threads do not exist in a forked child, and the lock
    # may have been held by one of the parent's threads at the fork.
    global _lock, _pool, _pid
    if os.getpid() != _pid:
        _lock = threading.Lock()
        _pool = None
        _pid = os.getpid()


def set_num_threads(n: int) -> None:
    """Set the worker count for circuit application.

    The default is one worker per core this process may run on (capped by
    a cgroup v2 CPU quota), when numpy's OpenBLAS can be pinned and its
    helpers stopped (see the module docstring), and 1 otherwise. Workers
    share out the work units of the steps of a block plan (from
    `gates.FUSE_MIN_QUBITS` on): the chunks of a chunk run, or the slabs of
    the whole array in a window step above the chunk height. So they apply
    to arrays of at least two chunks or slabs; per-gate plans run in the
    calling thread.
    """
    global _num_threads, _pool
    count = check_count(n, "thread count", 1)
    _renew_after_fork()
    with _lock:
        if _pool is not None and count != _num_threads:
            _pool.shutdown(wait=True)
            _pool = None
        _num_threads = count


def get_num_threads() -> int:
    global _num_threads
    if _num_threads is None:
        _num_threads = _cores() if _openblas() and hasattr(os, "sched_getaffinity") else 1
    return _num_threads


def _cores() -> int:
    # The cores this process may run on, capped by a cgroup v2 CPU quota.
    cores = len(os.sched_getaffinity(0))
    try:
        with open(_CPU_MAX) as f:
            quota, period = f.read().split()[:2]
        if quota != "max":
            cores = min(cores, max(1, -(-int(quota) // int(period))))
    except (OSError, ValueError):
        pass
    return cores


def _get_pool(n: int) -> ThreadPoolExecutor:
    global _pool
    _renew_after_fork()
    with _lock:
        if _pool is None:
            _pool = ThreadPoolExecutor(max_workers=n, thread_name_prefix=_WORKER_PREFIX)
        return _pool


def _alone() -> bool:
    # True when no thread but the caller and the pool's workers is alive, so
    # that no other thread can be inside BLAS while it is pinned or stopped.
    me = threading.current_thread()
    return all(t is me or t.name.startswith(_WORKER_PREFIX) for t in threading.enumerate())


def run_chunks(steps, pooled: bool) -> None:
    """For each (unit_fn, units) of `steps` in turn, call unit_fn(u0, u1)
    over the work unit indices [0, units): the chunks of a chunk run, or
    the `dense_block` slabs of the whole array in a window step.

    The steps run on the pool when `pooled` (a block plan), there are n > 1
    workers, a step has two or more units and no thread but the caller and
    the pool's workers is alive; OpenBLAS then runs one thread (see the
    module docstring), each step of two or more units is cut into at most
    n contiguous ranges, one per worker, and a step of one unit runs in the
    calling thread. Otherwise every step runs in the calling thread. This
    is the only code that submits to the pool, and unit_fn calls serial
    kernels, so no worker ever waits on the pool.
    """
    n = get_num_threads()
    pool = None
    if pooled and n > 1 and any(units > 1 for _, units in steps) and _alone():
        pool = _get_pool(n)
    blas = _openblas() if pool else ()
    found = blas and blas[1]()
    try:
        if blas:
            blas[0](1)
            blas[2]()
        for unit_fn, units in steps:
            if pool is None or units < 2:
                unit_fn(0, units)
                continue
            step = -(-units // n)
            futures = [pool.submit(unit_fn, u0, min(u0 + step, units))
                       for u0 in range(0, units, step)]
            wait(futures)
            for f in futures:
                f.result()
    finally:
        if blas:
            blas[0](found)
            blas[2]()   # setting the count starts them again


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


def _pair_view(arr: np.ndarray, qubits: int, m: int, n: int, what: str) -> np.ndarray:
    # arr as (high, bit n, middle, bit m, low) for labels m < n, given in either order.
    if m > n:
        m, n = n, m
    _check_label(qubits, m)
    _check_label(qubits, n)
    if m == n:
        raise DomainError(f"{what} needs two distinct qubits")
    return arr.reshape(1 << (qubits - 1 - n), 2, 1 << (n - 1 - m), 2, arr.size >> (qubits - m))


def cond_phase(arr: np.ndarray, qubits: int, m: int, n: int, phase: complex) -> None:
    """Multiply amplitudes whose bits m and n are both 1 by `phase`."""
    view = _pair_view(arr, qubits, m, n, "conditional phase")
    _multiply(view[:, 1, :, 1, :], phase, arr.size >> qubits)


def swap_bits(arr: np.ndarray, qubits: int, m: int, n: int) -> None:
    """Exchange bits m and n of the basis index (amplitude permutation)."""
    view = _pair_view(arr, qubits, m, n, "swap")
    a = view[:, 0, :, 1, :]
    b = view[:, 1, :, 0, :]
    t = a.copy()
    a[...] = b
    b[...] = t


def phase_on_one(arr: np.ndarray, qubits: int, m: int, phase: complex | np.ndarray) -> None:
    """Apply diag(1, phase) on qubit m.

    `phase` is one complex number for every column, or a 1-D array holding
    one phase per column of a (D, M) array.
    """
    _check_label(qubits, m)
    cols = arr.size >> qubits
    if np.ndim(phase) and np.shape(phase) != (cols,):
        raise DomainError(f"need one phase per column of {arr.shape}, got {np.shape(phase)}")
    _multiply(arr.reshape(1 << (qubits - 1 - m), 2, 1 << m, cols)[:, 1], phase, cols)


def diagonal(arr: np.ndarray, qubits: int, m: int, table: np.ndarray) -> None:
    """Multiply by the diagonal `table` over bits [m, m + w), len(table) = 2^w:
    the amplitudes whose index has those bits equal to r get table[r]."""
    w = len(table).bit_length() - 1
    _check_label(qubits, m + w - 1)
    view = arr.reshape(-1, len(table), arr.size >> (qubits - m))
    view *= table[:, None]


def dense_block(arr: np.ndarray, qubits: int, m: int, unitary: np.ndarray,
                scratch: np.ndarray, slabs: range | None = None) -> None:
    """Apply the 2^w x 2^w matrix `unitary` to bits [m, m + w) of the index,
    with bit m + j as bit j of the matrix index.

    The array is taken as (high bits, 2^w, low bits) and multiplied in slabs
    of at most len(scratch) >= 2^w amplitudes, each written to the complex
    `scratch` buffer and copied back, so no temporary grows with the array.
    `slabs` picks slabs by their index in [0, dense_slabs(...)), low bits
    fastest; None is every slab. For m = 0 on a one-column array each slab
    is one contiguous (rows, 2^w) @ unitary.T.
    """
    dim = len(unitary)
    _check_label(qubits, m + dim.bit_length() - 2)   # the top bit, m + w - 1
    lo, hs, ls, nl = _slab_grid(arr.size, qubits, m, dim, len(scratch))
    view = arr.reshape(-1, dim) if lo == 1 else arr.reshape(-1, dim, lo)
    if slabs is None:
        slabs = range(dense_slabs(arr.size, qubits, m, dim, len(scratch)))
    for i in slabs:
        h, l = i // nl * hs, i % nl * ls
        x = view[h:h + hs] if lo == 1 else view[h:h + hs, :, l:l + ls]
        out = scratch[:x.size].reshape(x.shape)
        if lo == 1:
            np.matmul(x, unitary.T, out=out)
        else:
            np.matmul(unitary, x, out=out)
        x[...] = out


def dense_slabs(size: int, qubits: int, m: int, dim: int, room: int) -> int:
    """How many slabs `dense_block` cuts an array of `size` amplitudes into,
    for a dim x dim unitary on bits from m and a scratch of `room`."""
    lo, hs, _, nl = _slab_grid(size, qubits, m, dim, room)
    return -(-(size // (dim * lo)) // hs) * nl


def _slab_grid(size: int, qubits: int, m: int, dim: int, room: int) -> tuple[int, int, int, int]:
    # dense_block's slabs: the low-bit extent lo (columns included), then
    # high rows and low entries per slab, and slabs across the low bits.
    lo = size >> (qubits - m)
    hs = max(1, room // (dim * lo))
    ls = min(lo, room // dim)
    return lo, hs, ls, -(-lo // ls)


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
