"""Gates, circuits, O(D) application, dense realization, and swap elision.

Three gate types act on the position-basis index bits:

* ``A(m)`` mixes the two amplitudes differing in bit m with the matrix
  (1, 1; 1, -1)/sqrt(2).
* ``B(m, n)`` multiplies amplitudes whose bits m and n are both 1 by
  e^{+i pi / 2^(n-m)}; the ``conjugated`` variant uses the opposite sign.
  The gate is symmetric in its labels and stored with m < n.
* ``Swap(m, n)`` exchanges bits m and n of the index.

A circuit stores its gates in application order (first element acts first)
plus an optional relabel permutation applied after the gates: logical
qubit k ends up living at label ``relabel[k]``. Builders that realize an
operator product written right-to-left perform that one reversal
themselves, so nothing else reasons about product order.

Every circuit application goes through ``_apply_circuit_array``, which
runs a cached execution plan: the swap-elided circuit grouped into runs
of gates that act inside chunks of 2^k consecutive basis rows (every B
gate, and A on a label below k), each run applied chunk by chunk while
the chunk is in cache. An A gate on a label m >= k runs alone in chunks
of 2^(m+1) rows. An array of fewer than two chunks of
``CHUNK_AMPLITUDES`` amplitudes is one chunk. Below ``FUSE_MIN_QUBITS``
the result is bitwise equal to applying the gates one by one to the whole
array, and each column of a (D, M) array gets the bits of a lone state.
From ``FUSE_MIN_QUBITS`` on, each sequence of B gates in a run that share
one label is fused into one multiply by a phase table: the result is then
deterministic for a given array shape and thread count, and agrees with
the gate loop, and each column with a lone state, to 1e-12.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from . import kernels
from .errors import DomainError, SizeError
from .state import StateVector

MAX_DENSE_QUBITS = 10


class GateKind(Enum):
    A = "A"
    B = "B"
    SWAP = "SWAP"


@dataclass(frozen=True)
class Gate:
    """One gate. Two-qubit kinds store labels canonically as m < n.

    B gates carry their phase exponent in ``span``: the angle is
    +/- pi / 2^span, with span = n - m at construction. Relabeling a gate
    (swap elision) keeps span, because the phase belongs to the gate, not
    to wherever its wires end up.
    """

    kind: GateKind
    m: int
    n: int | None = None
    conjugated: bool = False
    span: int | None = None

    def __post_init__(self) -> None:
        if self.m < 0 or (self.n is not None and self.n < 0):
            raise DomainError("qubit labels must be non-negative")
        if self.kind is GateKind.A:
            if self.n is not None:
                raise DomainError("A acts on a single qubit")
            if self.conjugated:
                raise DomainError("A has no conjugated variant")
        else:
            if self.n is None or self.n <= self.m:
                raise DomainError(f"{self.kind.value} needs two labels with m < n")
            if self.kind is GateKind.SWAP and self.conjugated:
                raise DomainError("Swap has no conjugated variant")
        if self.kind is GateKind.B:
            if self.span is None:
                object.__setattr__(self, "span", self.n - self.m)
            elif self.span < 1:
                raise DomainError(f"phase exponent must be >= 1, got {self.span}")
        elif self.span is not None:
            raise DomainError(f"{self.kind.value} carries no phase exponent")

    def labels(self) -> tuple[int, ...]:
        return (self.m,) if self.n is None else (self.m, self.n)

    def inverse(self) -> "Gate":
        if self.kind is GateKind.B:
            return Gate(GateKind.B, self.m, self.n, not self.conjugated, self.span)
        return self  # A and Swap are involutions

    def relabeled(self, mapping: tuple[int, ...]) -> "Gate":
        if self.kind is GateKind.A:
            return Gate(GateKind.A, mapping[self.m])
        a, b = sorted((mapping[self.m], mapping[self.n]))
        return Gate(self.kind, a, b, self.conjugated, self.span)


def a_gate(m: int) -> Gate:
    return Gate(GateKind.A, m)


def b_gate(m: int, n: int, conjugated: bool = False, span: int | None = None) -> Gate:
    lo, hi = sorted((m, n))
    return Gate(GateKind.B, lo, hi, conjugated, span)


def swap_gate(m: int, n: int) -> Gate:
    lo, hi = sorted((m, n))
    return Gate(GateKind.SWAP, lo, hi)


def b_angle(gate: Gate) -> float:
    """Phase angle of a B gate: +/- pi / 2^span."""
    if gate.kind is not GateKind.B:
        raise DomainError("b_angle is defined for B gates only")
    sign = -1.0 if gate.conjugated else 1.0
    return sign * math.pi / float(1 << gate.span)


def identity_permutation(qubits: int) -> tuple[int, ...]:
    return tuple(range(qubits))


def inverse_permutation(perm: tuple[int, ...]) -> tuple[int, ...]:
    inv = [0] * len(perm)
    for k, p in enumerate(perm):
        inv[p] = k
    return tuple(inv)


def compose_permutations(outer: tuple[int, ...], inner: tuple[int, ...]) -> tuple[int, ...]:
    """(outer o inner)[k] = outer[inner[k]]: apply inner first."""
    return tuple(outer[i] for i in inner)


@dataclass(frozen=True)
class Circuit:
    """Ordered gate list plus a pending relabel permutation.

    The realized unitary applies the gates first to last, then moves the
    value of qubit k to label relabel[k]. The hash is computed once, at
    construction, so looking a circuit up in the plan cache costs O(1)
    rather than one hash per gate.
    """

    qubits: int
    gates: tuple[Gate, ...]
    relabel: tuple[int, ...] | None = None

    def __post_init__(self) -> None:
        if self.qubits < 1:
            raise DomainError(f"qubit count must be >= 1, got {self.qubits}")
        object.__setattr__(self, "gates", tuple(self.gates))
        relabel = self.relabel
        if relabel is None:
            relabel = identity_permutation(self.qubits)
        relabel = tuple(relabel)
        if sorted(relabel) != list(range(self.qubits)):
            raise DomainError(f"relabel {relabel} is not a permutation of 0..{self.qubits - 1}")
        object.__setattr__(self, "relabel", relabel)
        for g in self.gates:
            for q in g.labels():
                if q >= self.qubits:
                    raise DomainError(f"gate label {q} outside circuit of {self.qubits} qubits")
        object.__setattr__(self, "_hash", hash((self.qubits, self.gates, self.relabel)))

    def __hash__(self) -> int:
        return self._hash

    def has_identity_relabel(self) -> bool:
        return self.relabel == identity_permutation(self.qubits)


@dataclass(frozen=True)
class GateCounts:
    a: int
    b: int
    swap: int


def gate_count(circuit: Circuit) -> GateCounts:
    a = sum(1 for g in circuit.gates if g.kind is GateKind.A)
    b = sum(1 for g in circuit.gates if g.kind is GateKind.B)
    return GateCounts(a, b, len(circuit.gates) - a - b)


# Execution plan (see _plan). A chunk is 2^k consecutive basis rows of the
# array, all its columns included, holding at most CHUNK_AMPLITUDES
# amplitudes: 1 MiB of complex128, half of a 2 MiB L2 cache.
CHUNK_AMPLITUDES = 1 << 16
# Smallest chunk height, as qubits. In a chunk of 2^k rows cond_phase touches
# 2^(k-2) rows per column; at one row per column kernels._multiply switches
# to real arithmetic, whose last bit could differ from the full pass.
MIN_CHUNK_QUBITS = 3
# Smallest circuit whose plans fuse B-gate runs into phase tables: the size
# at which one state spans two chunks. Fused products round differently
# from the gate loop, so smaller circuits (the echo goldens among them) keep
# the loop's bits.
FUSE_MIN_QUBITS = 17

# Chunk operations: (kind, m, n, value, mask). The value is the angle, the
# phase itself for a whole-chunk phase, or the tables of a fused phase; the
# operation acts on the chunks whose index has every bit of the mask set.
_HADAMARD, _COND_PHASE, _PHASE_ON_ONE, _CHUNK_PHASE, _FUSED_PHASE = range(5)


def _chunk_op(gate: Gate, k: int) -> tuple | None:
    """The gate as an operation on one chunk of 2^k rows, or None if it
    mixes rows of different chunks. Inside a chunk every label >= k is a
    constant bit of the chunk index, so a B gate decides per chunk between
    a conditional phase, a phase on one qubit, a phase on the whole chunk
    and nothing. Swap-elided circuits hold only A and B gates."""
    if gate.kind is GateKind.A:
        return (_HADAMARD, gate.m, 0, 0.0, 0) if gate.m < k else None
    angle = b_angle(gate)
    if gate.n < k:
        return (_COND_PHASE, gate.m, gate.n, angle, 0)
    if gate.m < k:
        return (_PHASE_ON_ONE, gate.m, 0, angle, 1 << (gate.n - k))
    phase = complex(math.cos(angle), math.sin(angle))
    return (_CHUNK_PHASE, 0, 0, phase, (1 << (gate.m - k)) | (1 << (gate.n - k)))


def _fused_phase_op(gates: list[Gate], s: int, k: int) -> tuple:
    """B gates that all carry label s as one operation on a chunk of 2^k rows.

    Together they multiply the rows with bit s set by e^{i sum theta_p b_p}
    over the partner labels p. The partners below k span bits [a, b) of the
    row index; the phase on them is one table over that span, or, if the
    span is wider than ceil(k/2) bits, the product of two tables over its
    halves, each shaped to broadcast over a view of the chunk. A partner
    p >= k is a constant bit of the chunk index: `outer` holds (chunk bit,
    angle) for each, summed per chunk into one factor. For s < k the view
    is the half of the chunk with bit s set; for s >= k it is the whole
    chunk, on the chunks whose mask bit is set.
    """
    partners = [(g.n if g.m == s else g.m, b_angle(g)) for g in gates]
    outer = tuple((1 << (p - k), theta) for p, theta in partners if p >= k)
    inner = sorted(p for p, _ in partners if p < k)
    spans = []
    if inner:
        a, b = inner[0], inner[-1] + 1
        h = (a + b) // 2
        spans = [(a, b)] if b - a <= (k + 1) // 2 else [(h, b), (a, h)]
    cuts = sorted({0, k, s, s + 1}.union(*spans) if s < k else {0, k}.union(*spans))
    # Axes of the view, most significant bits first; bit s has an axis of
    # its own, where the view takes 1 and each table 0 (no partner is s).
    segments = list(zip(cuts, cuts[1:]))[::-1]
    shape = tuple(1 << (hi - lo) for lo, hi in segments) + (-1,)
    axis = segments.index((s, s + 1)) if s < k else None
    tables = []
    for lo, hi in spans:
        row = np.arange(1 << (hi - lo))
        angle = sum(theta * ((row >> (p - lo)) & 1) for p, theta in partners if lo <= p < hi)
        table = np.exp(1j * angle).reshape([1 << (b - a) if lo <= a < hi else 1 for a, b in segments])
        tables.append((table if axis is None else table.take(0, axis))[..., None])
    if axis is None:
        return (_FUSED_PHASE, s, 0, (shape, (), tuple(tables), outer), 1 << (s - k))
    return (_FUSED_PHASE, s, 0, (shape, (slice(None),) * axis + (1,), tuple(tables), outer), 0)


def _run_ops(gates: list[Gate], k: int, fuse: bool) -> tuple:
    """Operations for a run of chunk-local gates; with `fuse`, each maximal
    sequence of two or more B gates that share a label becomes one fused
    phase."""
    ops = []
    i = 0
    while i < len(gates):
        end, shared = i + 1, set(gates[i].labels())
        if fuse and gates[i].kind is GateKind.B:
            while (end < len(gates) and gates[end].kind is GateKind.B
                   and shared & set(gates[end].labels())):
                shared &= set(gates[end].labels())
                end += 1
        if end - i > 1:
            ops.append(_fused_phase_op(gates[i:end], min(shared), k))
        else:
            ops.append(_chunk_op(gates[i], k))
        i = end
    return tuple(ops)


@functools.lru_cache(maxsize=64)
def _plan(circuit: Circuit, k: int, fuse: bool) -> tuple[tuple, tuple[int, ...]]:
    """The circuit as (steps, relabel) for chunks of 2^k rows.

    Each step is (height, ops): chunk operations applied chunk by chunk to
    chunks of 2^height rows. The swap-elided gates are grouped into
    maximal runs of chunk-local gates, at height k; an A gate on a label
    m >= k is a one-op run at height m + 1. The relabel follows the steps.
    Without `fuse`, every amplitude gets the same operations in the same
    order as when the gates are applied one by one, so the result is
    bitwise equal. With it, each sequence of B gates that share a label is
    one phase-table multiply, equal to the gates to rounding.
    """
    elided = elide_swaps(circuit)
    steps: list[tuple[int, tuple]] = []
    run: list[Gate] = []
    for g in elided.gates:
        if _chunk_op(g, k) is not None:
            run.append(g)
            continue
        if run:
            steps.append((k, _run_ops(run, k, fuse)))
            run = []
        steps.append((g.m + 1, (_chunk_op(g, g.m + 1),)))
    if run:
        steps.append((k, _run_ops(run, k, fuse)))
    return tuple(steps), elided.relabel


def _chunk_qubits(size: int, qubits: int) -> int:
    """Chunk height k for an array of `size` amplitudes: `qubits`, one
    chunk, when the array holds fewer than two chunks or the height would
    fall below MIN_CHUNK_QUBITS."""
    k = (CHUNK_AMPLITUDES // (size >> qubits)).bit_length() - 1
    return k if MIN_CHUNK_QUBITS <= k < qubits else qubits


def _apply_run(arr: np.ndarray, ops: tuple, k: int, c0: int, c1: int) -> None:
    # Kernels are looked up on the module at each call, so wrappers put on
    # the module attributes see every call.
    rows = 1 << k
    for c in range(c0, c1):
        chunk = arr[c * rows:(c + 1) * rows]
        for kind, m, n, value, mask in ops:
            if kind == _HADAMARD:
                kernels.hadamard(chunk, k, m)
            elif kind == _COND_PHASE:
                kernels.cond_phase(chunk, k, m, n, value)
            elif c & mask != mask:
                continue
            elif kind == _PHASE_ON_ONE:
                kernels.phase_on_one(chunk, k, m, value)
            elif kind == _CHUNK_PHASE:
                chunk *= value
            else:
                _apply_phase_tables(chunk, c, *value)


def _apply_phase_tables(chunk: np.ndarray, c: int, shape: tuple, index: tuple,
                        tables: tuple, outer: tuple) -> None:
    # A fused phase (see _fused_phase_op) on chunk number c.
    angle = sum(theta for bit, theta in outer if c & bit)
    if angle:
        phase = complex(math.cos(angle), math.sin(angle))
        tables = (tables[0] * phase,) + tables[1:] if tables else (phase,)
    if tables:
        target = chunk.reshape(shape)[index]
        for table in tables:
            target *= table


def _apply_circuit_array(arr: np.ndarray, circuit: Circuit) -> np.ndarray:
    """Apply the circuit to the leading axis of `arr` through its cached
    plan; may return a new array."""
    qubits = circuit.qubits
    k = _chunk_qubits(arr.size, qubits)
    steps, relabel = _plan(circuit, k, qubits >= FUSE_MIN_QUBITS)
    for height, ops in steps:
        kernels.run_chunks(functools.partial(_apply_run, arr, ops, height), 1 << (qubits - height))
    if relabel != identity_permutation(qubits):
        arr = kernels.permute_bits(arr, qubits, relabel)
    return arr


def apply_gate(state: StateVector, gate: Gate) -> StateVector:
    """Apply one gate to a copy of the state, as a one-gate circuit."""
    arr = _apply_circuit_array(state.amplitudes.copy(), Circuit(state.qubits, (gate,)))
    return StateVector(state.qubits, arr)


def apply_circuit(state: StateVector, circuit: Circuit, *, copy: bool = True) -> StateVector:
    """Apply every gate in order, then the relabel permutation."""
    if circuit.qubits != state.qubits:
        raise DomainError(f"circuit on {circuit.qubits} qubits, state on {state.qubits}")
    arr = state.amplitudes.copy() if copy else state.amplitudes
    arr = _apply_circuit_array(arr, circuit)
    return StateVector(state.qubits, arr)


def circuit_to_matrix(circuit: Circuit) -> np.ndarray:
    """Dense unitary realized by the circuit (verification path only)."""
    if circuit.qubits > MAX_DENSE_QUBITS:
        raise SizeError(
            f"dense realization refused for {circuit.qubits} qubits "
            f"(limit {MAX_DENSE_QUBITS})"
        )
    return _apply_circuit_array(np.eye(1 << circuit.qubits, dtype=np.complex128), circuit)


def dagger(circuit: Circuit) -> Circuit:
    """Circuit realizing the inverse unitary.

    Gates are reversed and inverted elementwise. A pending relabel pi is
    pushed through: the reversed gates act on labels pi[q] and the result
    carries relabel pi^{-1}.
    """
    pi = circuit.relabel
    gates = tuple(g.inverse().relabeled(pi) for g in reversed(circuit.gates))
    return Circuit(circuit.qubits, gates, inverse_permutation(pi))


def concat(first: Circuit, second: Circuit) -> Circuit:
    """Circuit equivalent to applying `first` then `second`."""
    if first.qubits != second.qubits:
        raise DomainError("cannot concatenate circuits of different widths")
    inv1 = inverse_permutation(first.relabel)
    gates = first.gates + tuple(g.relabeled(inv1) for g in second.gates)
    relabel = compose_permutations(second.relabel, first.relabel)
    return Circuit(first.qubits, gates, relabel)


def elide_swaps(circuit: Circuit) -> Circuit:
    """Remove every Swap gate, folding it into the relabel permutation.

    Remaining gates have their labels rewritten through the accumulated
    permutation; the output realizes the identical unitary.
    """
    sigma = list(identity_permutation(circuit.qubits))   # swaps absorbed so far
    inv = list(sigma)                                    # sigma^{-1}, kept in step
    out: list[Gate] = []
    for g in circuit.gates:
        if g.kind is GateKind.SWAP:
            m, n = g.m, g.n
            # sigma := t_{mn} o sigma  (swap the two values wherever they occur)
            sigma = [n if v == m else m if v == n else v for v in sigma]
            inv[m], inv[n] = inv[n], inv[m]
        else:
            out.append(g.relabeled(tuple(inv)))
    relabel = compose_permutations(circuit.relabel, tuple(sigma))
    return Circuit(circuit.qubits, tuple(out), relabel)
