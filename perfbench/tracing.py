"""In-memory span tracer that wraps qbaker's public module attributes.

A span records a name, start, end, parent span and unit id. Spans live in
compact arrays while the run goes and are written out when it ends. The
library itself is untouched: `install` replaces module attributes (for
example ``qbaker.kernels.hadamard``) with timing wrappers, and because
``gates`` and ``dynamics`` look those attributes up at call time, their
calls are seen. Names bound by ``from .x import y`` are patched wherever
the same function object appears, so every caller inside the package goes
through the wrapper.

The wrapper's own bookkeeping (appends before the start stamp and after the
end stamp) lands in the caller's span. `Tracer.calibrate` measures that cost
per span on a no-op, and `Spans` takes it off: a span's self time is its
duration minus its children's durations minus the calibrated cost of each
child, and its inclusive time is its duration minus that cost for every
span below it. ``trace_overhead_frac`` reports what tracing costs in total.
"""
from __future__ import annotations

import statistics
import time
from array import array
from contextlib import contextmanager

import numpy as np

# (module, attribute, span name). The kernels are the five entry points the
# gate and dynamics code dispatch to; their private helpers count as part of
# them. `_apply_circuit_array` is the one private attribute wrapped: it is
# the circuit-application entry point that `dynamics` calls directly, so
# without it the gate-dispatch loop would be invisible.
TARGETS = [
    ("kernels", "hadamard", "kernels.hadamard"),
    ("kernels", "cond_phase", "kernels.cond_phase"),
    ("kernels", "swap_bits", "kernels.swap_bits"),
    ("kernels", "phase_on_one", "kernels.phase_on_one"),
    ("kernels", "permute_bits", "kernels.permute_bits"),
    ("gates", "_apply_circuit_array", "gates.apply_circuit_array"),
    ("gates", "apply_circuit", "gates.apply_circuit"),
    ("gates", "apply_gate", "gates.apply_gate"),
    ("gates", "circuit_to_matrix", "gates.circuit_to_matrix"),
    ("gates", "dagger", "gates.dagger"),
    ("gates", "concat", "gates.concat"),
    ("gates", "elide_swaps", "gates.elide_swaps"),
    ("qft", "qft_circuit", "qft.qft_circuit"),
    ("qft", "qft_block_circuit", "qft.qft_block_circuit"),
    ("qft", "dft_matrix", "qft.dft_matrix"),
    ("baker", "baker_circuit", "baker.baker_circuit"),
    ("baker", "baker_matrix", "baker.baker_matrix"),
    ("dynamics", "iterate", "dynamics.iterate"),
    ("dynamics", "position_distribution", "dynamics.position_distribution"),
    ("dynamics", "momentum_distribution", "dynamics.momentum_distribution"),
    ("dynamics", "distribution_entropy", "dynamics.distribution_entropy"),
    ("dynamics", "form_factor", "dynamics.form_factor"),
    ("dynamics", "phase_kick", "dynamics.phase_kick"),
    ("dynamics", "loschmidt_echo", "dynamics.loschmidt_echo"),
    ("dynamics", "echo_initial_state", "dynamics.echo_initial_state"),
    ("io", "state_to_json", "io.state_to_json"),
    ("io", "state_from_json", "io.state_from_json"),
    ("io", "write_state", "io.write_state"),
    ("io", "read_state", "io.read_state"),
    ("io", "write_text_file", "io.write_text_file"),
    ("io", "write_manifest", "io.write_manifest"),
    ("io", "echo_records_to_csv", "io.echo_records_to_csv"),
    ("cli", "main", "cli.main"),
]

# Computed compulsory traffic of one kernel call, as a multiple of the
# array's byte size: every touched amplitude is read once and written once.
KERNEL_TRAFFIC = {
    "kernels.hadamard": 2.0,       # all amplitudes
    "kernels.cond_phase": 0.5,     # the quarter with both bits set
    "kernels.swap_bits": 1.0,      # the half whose two bits differ
    "kernels.phase_on_one": 1.0,   # the half with the bit set
    "kernels.permute_bits": 2.0,   # all amplitudes, gathered into a new array
}

HOOK = "bench.hook"
CALIBRATE = "bench.calibrate"
NOOP = "bench.noop"
CALIBRATION_CALLS = 10_000
CALIBRATION_REPEATS = 5


class Tracer:
    """Collects spans; only records while `active` is true."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.unit = array("i")
        self.start = array("d")
        self.end = array("d")
        self.nbytes = array("d")
        self.stack = [-1]
        self.unit_id = -1
        self.active = False
        self._patches: list[tuple[object, str, object]] = []
        # Span name -> callable run before the span opens on (caller span
        # name, arguments), timed as its own HOOK span; or run on the result
        # after the span closes, returning the value handed back.
        self.pre_hooks: dict[str, object] = {}
        self.post_hooks: dict[str, object] = {}
        self.counters: dict[tuple[str, int], int] = {}

    def count(self, name: str, n: int = 1) -> None:
        if self.active:
            key = (name, self.unit_id)
            self.counters[key] = self.counters.get(key, 0) + n

    def id_of(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _open(self, nid: int, nbytes: float = 0.0) -> int:
        i = len(self.name_id)
        self.name_id.append(nid)
        self.parent.append(self.stack[-1])
        self.unit.append(self.unit_id)
        self.nbytes.append(nbytes)
        self.end.append(0.0)
        self.stack.append(i)
        self.start.append(time.perf_counter())
        return i

    def _close(self, i: int) -> None:
        self.end[i] = time.perf_counter()
        self.stack.pop()

    def current_name(self) -> str | None:
        i = self.stack[-1]
        return None if i < 0 else self.names[self.name_id[i]]

    @contextmanager
    def span(self, name: str, unit: int):
        """Root span of one unit (or probe); turns recording on inside it."""
        self.unit_id = unit
        self.active = True
        i = self._open(self.id_of(name))
        try:
            yield
        finally:
            self._close(i)
            self.active = False
            self.unit_id = -1

    def _wrap(self, name: str, fn, traffic: float | None = None):
        nid = self.id_of(name)
        hook_id = self.id_of(HOOK)
        traffic = KERNEL_TRAFFIC.get(name) if traffic is None else traffic
        tr = self

        def wrapper(*args, **kwargs):
            if not tr.active:
                return fn(*args, **kwargs)
            pre = tr.pre_hooks.get(name)
            if pre is not None:
                caller = tr.current_name()
                h = tr._open(hook_id)
                try:
                    pre(caller, args)
                finally:
                    tr._close(h)
            i = tr._open(nid, traffic * args[0].nbytes if traffic else 0.0)
            try:
                result = fn(*args, **kwargs)
            finally:
                tr._close(i)
            post = tr.post_hooks.get(name)
            return result if post is None else post(result)

        wrapper.__wrapped__ = fn
        return wrapper

    def calibrate(self, unit: int) -> float:
        """Seconds the wrapper adds to its caller's span per call.

        Times CALIBRATION_CALLS calls of a no-op through a kernel-style
        wrapper inside a root span (recorded under `unit`) and the same
        calls of the bare no-op. The root's self time minus the bare loop,
        per call, is the bookkeeping outside the child's start and end
        stamps. Median over CALIBRATION_REPEATS.
        """
        calls = CALIBRATION_CALLS

        def noop(arr):
            return arr

        wrapped = self._wrap(NOOP, noop, traffic=1.0)
        arr = np.zeros(8, dtype=np.complex128)
        costs = []
        for _ in range(CALIBRATION_REPEATS):
            t0 = time.perf_counter()
            for _ in range(calls):
                noop(arr)
            bare = time.perf_counter() - t0
            root = len(self.name_id)
            with self.span(CALIBRATE, unit):
                for _ in range(calls):
                    wrapped(arr)
            children = sum(self.end[i] - self.start[i] for i in range(root + 1, len(self.end)))
            root_self = self.end[root] - self.start[root] - children
            costs.append((root_self - bare) / calls)
        return statistics.median(costs)

    def install(self, mods) -> None:
        """Wrap every target in every loaded qbaker module namespace."""
        wrappers = {}
        for modname, attr, name in TARGETS:
            fn = getattr(getattr(mods, modname), attr)
            wrappers[id(fn)] = (fn, self._wrap(name, fn))
        for module in mods.all_modules():
            for attr, value in list(vars(module).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patches.append((module, attr, value))
                    setattr(module, attr, hit[1])

    def uninstall(self) -> None:
        for module, attr, value in reversed(self._patches):
            setattr(module, attr, value)
        self._patches.clear()


class Spans:
    """Array view of the recorded spans with self and inclusive times
    resolved, less `span_cost` seconds of wrapper bookkeeping per span."""

    def __init__(self, tr: Tracer, span_cost: float) -> None:
        self.span_cost = span_cost
        self.names = list(tr.names)
        self.name_id = np.frombuffer(tr.name_id, dtype=np.int32).copy()
        self.parent = np.frombuffer(tr.parent, dtype=np.int32).copy()
        self.unit = np.frombuffer(tr.unit, dtype=np.int32).copy()
        self.start = np.frombuffer(tr.start, dtype=np.float64).copy()
        self.end = np.frombuffer(tr.end, dtype=np.float64).copy()
        self.nbytes = np.frombuffer(tr.nbytes, dtype=np.float64).copy()
        self.dur = self.end - self.start
        n = len(self.dur)
        has_parent = self.parent >= 0
        child = np.bincount(self.parent[has_parent], weights=self.dur[has_parent], minlength=n)
        n_children = np.bincount(self.parent[has_parent], minlength=n)
        # One thread opens spans in time order, so the spans below span i
        # are exactly those opened after it and before it closed.
        if np.any(np.diff(self.start) < 0):
            raise ValueError("span start stamps are not in opening order")
        n_below = np.searchsorted(self.start, self.end, side="left") - np.arange(n) - 1
        self.self_time = self.dur - child - span_cost * n_children
        self.incl = self.dur - span_cost * n_below
        self.parent_name = np.where(has_parent, self.name_id[np.maximum(self.parent, 0)], -1)

    def _ids(self, names) -> np.ndarray:
        if isinstance(names, str):
            names = [names]
        return np.array([self.names.index(n) for n in names if n in self.names], dtype=np.int32)

    def select(self, names, *, units=None, parents=None, outermost=False) -> np.ndarray:
        """Mask of the spans named `names`, optionally only in `units`, only
        directly under a span named in `parents`, or (`outermost`) only
        those not directly under another span named in `names`."""
        ids = self._ids(names)
        mask = np.isin(self.name_id, ids)
        if units is not None:
            mask &= np.isin(self.unit, np.asarray(units))
        if parents is not None:
            mask &= np.isin(self.parent_name, self._ids(parents))
        if outermost:
            mask &= ~np.isin(self.parent_name, ids)
        return mask

    def roots(self, unit: int) -> np.ndarray:
        return np.flatnonzero((self.unit == unit) & (self.parent < 0))

    def save(self, path: str) -> None:
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name_id=self.name_id,
            parent=self.parent,
            unit=self.unit,
            start=self.start,
            end=self.end,
            nbytes=self.nbytes,
        )
