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

From ``FUSE_MIN_QUBITS`` on, the plan is built from dense blocks instead
(see _blocks and _block_steps), by commutation rules on the gate list
alone: each block is a diagonal of B gates, applied as one phase table
per chunk, then one 2^4 x 2^4 unitary on a window of 4 adjacent labels,
applied as one matrix product per chunk (or, above the chunk height, per
slab of the whole array). No A gate is then applied on its own. The
result is deterministic for a given array shape and thread count, and
agrees with the gate loop, and each column with a lone state, to 1e-12.
"""
from __future__ import annotations

import functools
import math
import mmap
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
# Smallest circuit whose plans are built from dense blocks: the smallest
# too large for circuit_to_matrix. Blocks round differently from the gate
# loop, so every circuit with a dense realization (and with it every dense
# check and the echo goldens) keeps the loop's bits. At L = 11-16 a map
# step through blocks is 4.5-6 times faster than through per-gate runs.
FUSE_MIN_QUBITS = MAX_DENSE_QUBITS + 1
# Labels per window of a dense block: windows are [4i, 4i + 4), cut at the
# chunk height and at the top label.
WINDOW_QUBITS = 4

# Plan tables of at least this many bytes (glibc's default mmap threshold)
# live in private anonymous mappings, not on the malloc heap. A plan is
# built while a state is live, and a lasting table on the heap above the
# state's memory kept glibc from returning that memory when the state was
# freed: benchmark runs of L = 20 steps peaked 10-16 MiB higher.
_MMAP_BYTES = 1 << 17

# Chunk operations: (kind, m, n, value, mask). The value is the angle, the
# phase itself for a whole-chunk phase, the tables of a fused phase, the
# table of a diagonal or the matrix of a dense block; the operation acts on
# the chunks whose index has every bit of the mask set.
_HADAMARD, _COND_PHASE, _PHASE_ON_ONE, _CHUNK_PHASE, _FUSED_PHASE, _DIAGONAL, _DENSE = range(7)


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


def _angle_units(g: Gate) -> int:
    """The angle of a B gate in units of pi / 2^63, modulo 2^64 (an angle
    below one unit is dropped)."""
    return ((-1 if g.conjugated else 1) << (63 - g.span)) % (1 << 64) if g.span <= 63 else 0


def _exp_i(expo: np.ndarray) -> np.ndarray:
    """e^{i pi e / 2^63} for the uint64 angles e, taken as signed."""
    angle = (math.pi / (1 << 63)) * expo.view(np.int64)
    table = np.empty(len(expo), dtype=np.complex128)
    if table.nbytes >= _MMAP_BYTES:
        flags = mmap.MAP_PRIVATE | mmap.MAP_ANONYMOUS
        table = np.frombuffer(mmap.mmap(-1, table.nbytes, flags=flags), dtype=np.complex128)
    np.cos(angle, out=table.real)
    np.sin(angle, out=table.imag)
    return table


def _phase_table(terms: list[tuple[int, int, Gate]], w: int) -> np.ndarray:
    """e^{i phi(r)} for the 2^w values r of w index bits, where phi(r) sums
    the angles of the B gates in `terms` (i, j, gate) whose bits i and j are
    both set in r (i = j: bit i alone).

    Angles are summed exactly, as integer multiples of pi / 2^63 modulo 2 pi
    in uint64 arithmetic, so each entry is one cos and one sin of the exact
    phase. The table doubles once per bit: the rows with bit j set add, to
    the rows below them, the angles of the terms whose top bit is j.
    """
    coef = [[0] * w for _ in range(w)]
    for i, j, g in terms:
        coef[i][j] += _angle_units(g)
    expo = np.zeros(1, dtype=np.uint64)
    for j in range(w):
        lin = np.full(1, coef[j][j] % (1 << 64), dtype=np.uint64)
        for i in range(j):
            lin = np.concatenate((lin, lin + np.uint64(coef[i][j] % (1 << 64))))
        expo = np.concatenate((expo, expo + lin))
    return _exp_i(expo)


def _fold_terms(gates: list[Gate], lo: int, hi: int, k: int, qubits: int) -> tuple:
    """B gates with a label >= k whose other label is in the window [lo, hi)
    or also >= k, as the terms of their phase on the window's 2^w rows in
    chunk number c (see _fold_phases): `lin` holds, for each chunk bit, the
    angles its set bit adds, as a function of the window's bits; `pairs`
    holds (chunk mask, angle) for the gates with both labels >= k. Angles
    are in units of pi / 2^63, as in _phase_table."""
    r = np.arange(1 << (hi - lo), dtype=np.uint64)
    lin = np.zeros((qubits - k, len(r)), dtype=np.uint64)
    pairs = []
    for g in gates:
        if g.m >= k:
            pairs.append(((1 << (g.m - k)) | (1 << (g.n - k)), _angle_units(g)))
        else:
            lin[g.n - k] += np.uint64(_angle_units(g)) * ((r >> np.uint64(g.m - lo)) & np.uint64(1))
    return lin, tuple(pairs)


def _fold_phases(c: int, lin: np.ndarray, pairs: tuple) -> np.ndarray:
    # The phase of folded gates (see _fold_terms) on chunk number c, over
    # the window's bits: the exact angles of _phase_table, summed per chunk,
    # so the plan holds no table that grows with the chunk count.
    expo = lin[[i for i in range(len(lin)) if c >> i & 1]].sum(axis=0, dtype=np.uint64)
    expo += np.uint64(sum(units for mask, units in pairs if c & mask == mask) % (1 << 64))
    return _exp_i(expo)


def _diagonal_op(gates: list[Gate]) -> tuple:
    """B gates with both labels below the chunk height as one multiply by a
    table over their bit span [a, b)."""
    a = min(g.m for g in gates)
    b = max(g.n for g in gates) + 1
    return (_DIAGONAL, a, 0, _phase_table([(g.m - a, g.n - a, g) for g in gates], b - a), 0)


def _fused_phase_op(gates: list[Gate], s: int, k: int) -> tuple:
    """B gates that all carry label s >= k as one operation on a chunk of
    2^k rows, acting on the chunks whose index has bit s set.

    There they multiply the rows by e^{i sum theta_p b_p} over the partner
    labels p. The partners below k span bits [a, b) of the row index; the
    phase on them is one table over that span, or, if the span is wider
    than ceil(k/2) bits, the product of two tables over its halves, each
    shaped to broadcast over a view of the chunk. A partner p >= k is a
    constant bit of the chunk index: `outer` holds (chunk bit, angle) for
    each, summed per chunk into one factor.
    """
    partners = [(g.n if g.m == s else g.m, g) for g in gates]
    outer = tuple((1 << (p - k), b_angle(g)) for p, g in partners if p >= k)
    inner = sorted(p for p, _ in partners if p < k)
    spans = []
    if inner:
        a, b = inner[0], inner[-1] + 1
        h = (a + b) // 2
        spans = [(a, b)] if b - a <= (k + 1) // 2 else [(h, b), (a, h)]
    cuts = sorted({0, k}.union(*spans))
    # Axes of the view, most significant bits first.
    segments = list(zip(cuts, cuts[1:]))[::-1]
    shape = tuple(1 << (hi - lo) for lo, hi in segments) + (-1,)
    tables = tuple(
        _phase_table([(p - lo, p - lo, g) for p, g in partners if lo <= p < hi], hi - lo)
        .reshape([1 << (b - a) if lo <= a < hi else 1 for a, b in segments] + [1])
        for lo, hi in spans
    )
    return (_FUSED_PHASE, s, 0, (shape, tables, outer), 1 << (s - k))


def _blocks(gates: tuple[Gate, ...], window: dict[int, tuple[int, int]], k: int) -> list[tuple]:
    """The swap-elided gates as blocks (diagonal, window, body), in order.

    Each block applies the B gates of its diagonal, then the gates of its
    body, which all act inside one window [lo, hi) (None: no body). An A
    gate joins the open block if it lies in the block's window and no
    deferred gate touches its label; otherwise it opens the next block. A
    B gate inside the window joins the body. Any other B gate commutes with
    the body and is hoisted into the diagonal, unless it touches a label
    with an A in the body: then it is deferred into the next block's
    diagonal. A B gate with one label below k and one at k or above, both
    outside the window, is deferred too, so that it reaches a block whose
    window holds its label below k (see _block_steps). Only commutation of
    diagonal gates with each other and with A on other labels is used, so
    any circuit of A and B gates splits.
    """
    def passes(g: Gate) -> bool:
        return win is not None and g.m < k <= g.n and win not in (window[g.m], window[g.n])

    blocks = []
    diag, win, body, with_a = [], None, [], set()
    deferred, blocked = [], set()
    for g in gates:
        if g.kind is GateKind.A:
            if win is not None and (window[g.m] != win or g.m in blocked):
                blocks.append((diag, win, body))
                diag, body, with_a = deferred, [], set()
                deferred, blocked = [], set()
            if not body:
                win = window[g.m]
                deferred = [h for h in diag if passes(h)]
                diag = [h for h in diag if not passes(h)]
            body.append(g)
            with_a.add(g.m)
        elif win is not None and win[0] <= g.m and g.n < win[1]:
            body.append(g)
        elif passes(g):
            deferred.append(g)
        elif with_a.intersection(g.labels()):
            deferred.append(g)
            blocked.update(g.labels())
        else:
            diag.append(g)
    blocks.append((diag, win, body))
    if deferred:
        blocks.append((deferred, None, []))
    return blocks


def _block_steps(gates: tuple[Gate, ...], qubits: int, k: int) -> list[tuple[int, tuple]]:
    """Steps of a plan built from dense blocks (see _blocks) for chunks of
    2^k rows.

    In a block's diagonal, the B gates below k are one _DIAGONAL table. The
    body is the window's 2^w x 2^w matrix U: the plan without blocks of its
    window-local gates, applied to the identity. If the window lies below
    k, U is a chunk op, and the diagonal's B gates with a label >= k whose
    other label is in the window or also >= k fold into it: on chunk c
    they are a phase d_c over the window's bits, summed per chunk (see
    _fold_terms), so the chunk gets U diag(d_c). Otherwise the window
    is a step of its own at height hi, which acts on the whole array in
    chunks of 2^hi rows. What is left of the diagonal is one fused phase
    per label >= k.
    """
    cuts = sorted(set(range(0, qubits, WINDOW_QUBITS)) | {k, qubits})
    window = {m: (lo, hi) for lo, hi in zip(cuts, cuts[1:]) for m in range(lo, hi)}
    steps, run = [], []
    for diag, win, body in _blocks(gates, window, k):
        inner, fold, groups = [], [], {}
        for g in diag:
            if g.n < k:
                inner.append(g)
            elif win is not None and win[1] <= k and (win[0] <= g.m < win[1] or g.m >= k):
                fold.append(g)
            else:
                groups.setdefault(g.n, []).append(g)
        if inner:
            run.append(_diagonal_op(inner))
        run.extend(_fused_phase_op(group, s, k) for s, group in sorted(groups.items()))
        if win is None:
            continue
        lo, hi = win
        shift = tuple(range(-lo, hi - lo))
        local = Circuit(hi - lo, tuple(g.relabeled(shift) for g in body))
        unitary = _run_plan(np.eye(1 << local.qubits, dtype=np.complex128), local, False)
        if hi > k:
            if run:
                steps.append((k, tuple(run)))
                run = []
            steps.append((hi, ((_DENSE, lo, 0, (unitary, None), 0),)))
            continue
        phases = _fold_terms(fold, lo, hi, k, qubits) if fold else None
        run.append((_DENSE, lo, 0, (unitary, phases), 0))
    if run:
        steps.append((k, tuple(run)))
    return steps


@functools.lru_cache(maxsize=64)
def _plan(circuit: Circuit, k: int, fuse: bool) -> tuple[tuple, tuple[int, ...]]:
    """The circuit as (steps, relabel) for chunks of 2^k rows.

    Each step is (height, ops): chunk operations applied chunk by chunk to
    chunks of 2^height rows. The relabel follows the steps. Without
    `fuse`, the swap-elided gates are grouped into maximal runs of
    chunk-local gates, at height k, and an A gate on a label m >= k is a
    one-op run at height m + 1; every amplitude then gets the same
    operations in the same order as when the gates are applied one by one,
    so the result is bitwise equal. With it, the plan is built from dense
    blocks (see _block_steps), equal to the gates to rounding.
    """
    elided = elide_swaps(circuit)
    if fuse:
        return tuple(_block_steps(elided.gates, circuit.qubits, k)), elided.relabel
    steps: list[tuple[int, tuple]] = []
    run: list[tuple] = []
    for g in elided.gates:
        op = _chunk_op(g, k)
        if op is not None:
            run.append(op)
            continue
        if run:
            steps.append((k, tuple(run)))
            run = []
        steps.append((g.m + 1, (_chunk_op(g, g.m + 1),)))
    if run:
        steps.append((k, tuple(run)))
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
    # Dense blocks write through one scratch of a chunk per call, that is
    # per worker and step.
    rows = 1 << k
    scratch = None
    for c in range(c0, c1):
        chunk = arr[c * rows:(c + 1) * rows]
        for kind, m, n, value, mask in ops:
            if kind == _DENSE:
                unitary, phases = value
                if scratch is None:
                    scratch = np.empty(max(CHUNK_AMPLITUDES, len(unitary)), dtype=np.complex128)
                if phases is not None:
                    unitary = unitary * _fold_phases(c, *phases)
                kernels.dense_block(chunk, k, m, unitary, scratch)
            elif kind == _DIAGONAL:
                kernels.diagonal(chunk, k, m, value)
            elif kind == _HADAMARD:
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


def _apply_phase_tables(chunk: np.ndarray, c: int, shape: tuple, tables: tuple,
                        outer: tuple) -> None:
    # A fused phase (see _fused_phase_op) on chunk number c.
    angle = sum(theta for bit, theta in outer if c & bit)
    if angle:
        phase = complex(math.cos(angle), math.sin(angle))
        tables = (tables[0] * phase,) + tables[1:] if tables else (phase,)
    if tables:
        target = chunk.reshape(shape)
        for table in tables:
            target *= table


def _apply_circuit_array(arr: np.ndarray, circuit: Circuit) -> np.ndarray:
    """Apply the circuit to the leading axis of `arr` through its cached
    plan; may return a new array."""
    return _run_plan(arr, circuit, circuit.qubits >= FUSE_MIN_QUBITS)


def _run_plan(arr: np.ndarray, circuit: Circuit, fuse: bool) -> np.ndarray:
    """As _apply_circuit_array, through the block plan if `fuse`. The
    blocks' own matrices are built with `fuse` off."""
    qubits = circuit.qubits
    k = _chunk_qubits(arr.size, qubits)
    steps, relabel = _plan(circuit, k, fuse)
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
