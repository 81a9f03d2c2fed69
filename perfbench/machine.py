"""Machine record and roofline denominators.

`record()` is cheap and describes the host: core counts, the cgroup CPU
limit, interpreter and library versions, BLAS build, thread counts and the
last-level cache. The probes (`copy_gbps`, `zgemm_gflops`) allocate and
stream large arrays, so the benchmark runs this file as its own process:

    python3 perfbench/machine.py --state-bytes 16777216

and reads one JSON object from its standard output. That keeps the probes
out of the workload process's peak resident memory. `HostSpeed` is the
reference work the benchmark times around every unit to follow the host's
speed.
"""
from __future__ import annotations

import argparse
import ctypes
import gc
import glob
import json
import os
import platform
import statistics
import sys
import time

import numpy as np

DRAM_COPY_MIB = 512   # per array; at least 4x the 105 MiB last-level cache
ZGEMM_DIM = 512


def _read(path: str) -> str | None:
    try:
        with open(path) as fh:
            return fh.read().strip()
    except OSError:
        return None


def _llc_bytes() -> int | None:
    best = None
    for index in glob.glob("/sys/devices/system/cpu/cpu0/cache/index*"):
        if _read(os.path.join(index, "type")) == "Instruction":
            continue
        size = _read(os.path.join(index, "size"))
        level = _read(os.path.join(index, "level"))
        if not size or not level:
            continue
        scale = {"K": 1 << 10, "M": 1 << 20, "G": 1 << 30}.get(size[-1], 1)
        value = int(size.rstrip("KMG")) * scale
        if best is None or int(level) > best[0]:
            best = (int(level), value)
    return None if best is None else best[1]


def _blas_threads() -> int | None:
    """Thread count of the OpenBLAS that numpy loaded, if it is OpenBLAS."""
    libdir = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libdir, "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def record(kernel_threads: int | None = None) -> dict:
    import scipy

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cgroup_cpu_max": _read("/sys/fs/cgroup/cpu.max"),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "blas_threads": _blas_threads(),
        "env_threads": {
            k: os.environ.get(k)
            for k in ("QBAKER_THREADS", "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                      "MKL_NUM_THREADS")
        },
        "kernel_threads": kernel_threads,
        "llc_bytes": _llc_bytes(),
    }


def _median_time(fn, min_repeats: int, min_seconds: float) -> float:
    fn()  # fault the pages in and warm the caches
    times = []
    t_end = time.perf_counter() + min_seconds
    while len(times) < min_repeats or time.perf_counter() < t_end:
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def copy_gbps(nbytes: int, min_seconds: float = 0.3) -> float:
    """Copy rate at the given array size; read plus write bytes per second."""
    n = max(1, nbytes // 16)
    src = np.ones(n, dtype=np.complex128)
    dst = np.empty_like(src)
    t = _median_time(lambda: np.copyto(dst, src), 3, min_seconds)
    return 2.0 * src.nbytes / t / 1e9


def zgemm_gflops(min_seconds: float = 0.3) -> float:
    dim = ZGEMM_DIM
    rng = np.random.default_rng(0)
    a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    b = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    t = _median_time(lambda: a @ b, 3, min_seconds)
    return 8.0 * dim**3 / t / 1e9


class HostSpeed:
    """Fixed reference work timed right before and right after every unit.

    This host's speed drifts by 20-60% over tens of seconds (co-tenants on
    shared cores), so a whole run can sit in a slow stretch and every wall
    time in it moves together. The benchmark scales each unit's wall time
    by REFERENCE_S[kind] over the mean of the reference timings taken right
    before and right after it; the result reads as seconds on a host where
    the reference work takes REFERENCE_S[kind]. The reference work is of
    the same kind as the workload's bottleneck and calls no qbaker code, so
    a change to the library moves the unit time and not the reference.
    """

    # Typical time of `measure()` per kind inside a workload run on the
    # machine described in perfbench/README.md, chosen so that scaled times
    # come out close to raw wall times there. They set the scale only.
    REFERENCE_S = {"stream": 0.0305, "calls": 0.0118, "blas": 0.0255, "interp": 0.0222}

    def __init__(self, kind: str) -> None:
        self.reference_s = self.REFERENCE_S[kind]
        self._work = getattr(self, f"_{kind}")
        if kind == "stream":
            self.x = np.ones(1 << 20, dtype=np.complex128)        # 16 MiB
        elif kind == "calls":
            self.x = np.ones(8, dtype=np.complex128)
        elif kind == "blas":
            rng = np.random.default_rng(0)
            self.x = rng.standard_normal((512, 512)) + 1j * rng.standard_normal((512, 512))
        self._work()

    def _stream(self) -> None:
        """Strided passes over a 16 MiB array in the gate kernels' access
        patterns: one pair mix on bit 10, phases on the quarters with bits
        (m, n) set, one pair swap (kernel-like traffic)."""
        x = self.x
        view = x.reshape(1 << 9, 2, 1 << 10)
        a, b = view[:, 0, :], view[:, 1, :]
        t = (a + b) * 0.7071067811865476
        np.subtract(a, b, out=b)
        b *= 0.7071067811865476
        a[...] = t
        for m, n in ((0, 19), (3, 11), (5, 17), (8, 9), (12, 18), (1, 14)):
            x.reshape(1 << (19 - n), 2, 1 << (n - 1 - m), 2, 1 << m)[:, 1, :, 1, :] *= -1.0
        view = x.reshape(1 << 4, 2, 1 << 10, 2, 1 << 4)
        t = view[:, 0, :, 1, :].copy()
        view[:, 0, :, 1, :] = view[:, 1, :, 0, :]
        view[:, 1, :, 0, :] = t

    def _calls(self) -> None:
        """Numpy calls on views of 8 amplitudes (dispatch-like)."""
        view = self.x.reshape(2, 2, 2)
        for _ in range(2_000):
            t = (view[:, 0, :] + view[:, 1, :]) * 0.5
            view[:, 1, :] *= 1.0
            view[:, 0, :] = t

    def _blas(self) -> None:
        """Two threaded 512 x 512 complex products (form-factor-like)."""
        self.x @ self.x
        self.x @ self.x

    @staticmethod
    def _interp() -> None:
        """Pure interpreter work: integer arithmetic and float formatting."""
        s = 0
        for i in range(60_000):
            s += i * i
        repr([float(i) / 7.0 for i in range(20_000)])

    def measure(self) -> float:
        # The collector's cost grows with the workload's live heap; keep it
        # out so that only the host moves the reference.
        gc.disable()
        try:
            t0 = time.perf_counter()
            self._work()
            return time.perf_counter() - t0
        finally:
            gc.enable()

    def scale(self, wall_s: float, before_s: float, after_s: float) -> float:
        """Wall time rescaled to the reference host speed, given the
        reference timings taken right before and right after it."""
        return wall_s * self.reference_s / ((before_s + after_s) / 2.0)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--state-bytes", type=int, required=True)
    parser.add_argument("--dram-mib", type=int, default=DRAM_COPY_MIB)
    args = parser.parse_args(argv)
    out = {
        "copy_gbps_state": copy_gbps(args.state_bytes),
        "copy_gbps_dram": copy_gbps(args.dram_mib << 20),
        "zgemm_gflops": zgemm_gflops(),
        "state_bytes": args.state_bytes,
        "dram_copy_bytes": args.dram_mib << 20,
        "gemm_dim": ZGEMM_DIM,
    }
    json.dump(out, sys.stdout)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
