"""Iteration and quantum-chaos diagnostics for the quantized baker map.

Everything here runs through the O(D)-per-gate kernels; dense matrices
appear only inside the form factor (which needs traces of matrix powers)
and stay behind the usual size guard. Because T is unitary, one dense
product P = T^c there yields seven traces, tr T^(c-3) .. tr T^(c+3), from
the kept powers T, T^2 and T^3, so K(n) out to n_max takes about
n_max / 7 products.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import kernels
from .baker import baker_circuit, baker_matrix
from .errors import DomainError
from .gates import _apply_circuit_array
from .qft import qft_circuit
from .state import StateVector, random_state

DIST_NORM_TOL = 1e-6
# Powers T .. T^KEPT_POWERS that `form_factor` keeps; each dense product then
# yields 2 * KEPT_POWERS + 1 traces.
KEPT_POWERS = 3


def iterate(state: StateVector, steps: int, *, copy: bool = True) -> StateVector:
    """Apply the baker gate network `steps` times."""
    if steps < 0:
        raise DomainError(f"step count must be >= 0, got {steps}")
    circuit = baker_circuit(state.qubits)
    arr = state.amplitudes.copy() if copy else state.amplitudes
    for _ in range(steps):
        arr = _apply_circuit_array(arr, circuit)
    return StateVector(state.qubits, arr)


def _amplitude_columns(state: StateVector | np.ndarray) -> tuple[int, np.ndarray]:
    """Qubit count and amplitudes of a state, or of a (D, M) array whose
    columns are states."""
    if isinstance(state, StateVector):
        return state.qubits, state.amplitudes
    arr = np.asarray(state)
    dim = arr.shape[0] if arr.ndim == 2 else 0
    if dim < 2 or dim & (dim - 1) or arr.dtype != np.complex128:
        raise DomainError(f"need a (2^L, M) complex128 amplitude array, got {arr.shape} {arr.dtype}")
    return dim.bit_length() - 1, arr


def _checked_probabilities(amps: np.ndarray) -> np.ndarray:
    p = np.abs(amps) ** 2
    total = p.sum(axis=0)
    bad = ~(np.abs(total - 1.0) <= DIST_NORM_TOL)  # NaN totals fail too
    if np.any(bad):
        raise DomainError(
            f"state is not normalized (total probability {np.extract(bad, total)[0]!r})"
        )
    return p


def position_distribution(state: StateVector | np.ndarray) -> np.ndarray:
    """|psi_j|^2 over position-basis indices.

    `state` may also be a (D, M) array of M states as columns; the result
    then holds one distribution per column, each checked for normalization.
    """
    return _checked_probabilities(_amplitude_columns(state)[1])


def momentum_distribution(state: StateVector | np.ndarray) -> np.ndarray:
    """Probabilities in the momentum basis, via the Fourier gate network.

    The gate path keeps this O(L^2 D), so it works far beyond the dense
    guard. A (D, M) array of states as columns goes through the network in
    one pass and gives one checked distribution per column.
    """
    qubits, amps = _amplitude_columns(state)
    return _checked_probabilities(_apply_circuit_array(amps.copy(), qft_circuit(qubits)))


def distribution_entropy(p: np.ndarray) -> float | np.ndarray:
    """Shannon entropy in nats; zero entries contribute zero.

    A 2-D `p` holds one distribution per row and gives one entropy per row,
    bitwise equal to the 1-D result for that row.
    """
    p = np.asarray(p, dtype=np.float64)
    if p.ndim != 2:
        nz = p[p > 0.0]
        return float(-(nz * np.log(nz)).sum())
    p = np.ascontiguousarray(p)
    # Rows of positive entries sum along the contiguous axis exactly as a
    # 1-D array does; rows with entries to drop take the 1-D path.
    full = (p > 0.0).all(axis=1)
    out = np.empty(p.shape[0])
    rows = p[full]
    out[full] = -(rows * np.log(rows)).sum(axis=1)
    for i in np.flatnonzero(~full):
        out[i] = distribution_entropy(p[i])
    return out


def form_factor(qubits: int, n_max: int) -> np.ndarray:
    """K(n) = |tr(T^n)|^2 / D for n = 1..n_max, by a two-sided power chain.

    The powers T, T^2 and T^3 are kept (j = 1..KEPT_POWERS). With P = T^c,
    T unitary gives T^-j = (T^j)^dagger, so tr T^(c-j) = vdot(T^j, P), and
    tr T^(c+j) = tr(T^j P) = sum(T^j * P^T). The chain reads the traces of
    T .. T^4 directly and those of T^5 .. T^7 from P = T^4, then steps
    P <- P @ T^7 and reads tr T^(c-3) .. tr T^(c+3) from each product.
    That is n_max - 1 dense products for n_max <= 4, 3 for n_max = 5..7
    and 4 + ceil((n_max - 7) / 7) beyond (77 at the Heisenberg time of
    9 qubits, against 512 for one product per n). T^7 is built only when
    n_max > 7. Six D x D matrices are live at most: T, T^2, T^3, T^7, P
    and one spare, which takes P^T and then the next product.
    """
    if n_max < 0:
        raise DomainError(f"n_max must be >= 0, got {n_max}")
    j = KEPT_POWERS
    t = baker_matrix(qubits)
    # Allocated before any product, so an n_max numpy cannot hold fails at
    # once; the last product's reads may run 2j traces past n_max.
    traces = np.empty(n_max + 2 * j, dtype=np.complex128)
    kept = [t]  # T, T^2, .., T^(j+1), as far as n_max reaches
    while len(kept) < min(n_max, j + 1):
        kept.append(kept[-1] @ t)
    traces[:len(kept)] = [np.trace(m) for m in kept]
    if n_max > j + 1:
        power = kept.pop()  # P = T^(j+1), held apart so it can be freed
        step = kept[-1] @ power if n_max > 2 * j + 1 else None  # T^(2j+1)
        spare = np.empty_like(power)
        c = j + 1
        while True:
            np.copyto(spare, power.T)
            for i, m in enumerate(kept, 1):
                traces[c + i - 1] = np.dot(m.ravel(), spare.ravel())
            if c + j >= n_max:
                break
            np.matmul(power, step, out=spare)
            power, spare = spare, power
            c += 2 * j + 1
            traces[c - 1] = np.trace(power)
            for i, m in enumerate(kept, 1):
                traces[c - i - 1] = np.vdot(m, power)
    return np.abs(traces[:n_max]) ** 2 / (1 << qubits)


def _kick(arr: np.ndarray, qubits: int, angles) -> None:
    # angles[k] is one angle for qubit k, or one per column of arr.
    for k in range(qubits):
        kernels.phase_on_one(arr, qubits, k, angles[k])


def phase_kick(state: StateVector, angles: np.ndarray) -> StateVector:
    """Apply diag(1, e^{i angles[k]}) on every qubit k (diagonal, unitary)."""
    angles = np.asarray(angles, dtype=np.float64)
    if angles.shape != (state.qubits,):
        raise DomainError(f"need one angle per qubit, got shape {angles.shape}")
    arr = state.amplitudes.copy()
    _kick(arr, state.qubits, angles)
    return StateVector(state.qubits, arr)


@dataclass(frozen=True)
class EchoConfig:
    """Parameters of one perturbation-echo experiment."""

    qubits: int
    steps: int
    delta: float
    ensemble: int
    seed: int

    def __post_init__(self) -> None:
        if self.qubits < 1:
            raise DomainError(f"qubit count must be >= 1, got {self.qubits}")
        if self.steps < 0:
            raise DomainError(f"step count must be >= 0, got {self.steps}")
        if not (math.isfinite(self.delta) and self.delta >= 0.0):
            raise DomainError(f"perturbation strength must be finite and >= 0, got {self.delta}")
        if self.ensemble < 1:
            raise DomainError(f"ensemble size must be >= 1, got {self.ensemble}")
        if not 0 <= self.seed < 2**64:
            raise DomainError("seed must fit in an unsigned 64-bit integer")


@dataclass(frozen=True)
class TrajectoryRecord:
    """Per-step diagnostics of one ensemble member, step 0 included.

    Norms of both evolving states are recorded so norm conservation can be
    audited from the output alone.
    """

    fidelity: np.ndarray
    position_entropy: np.ndarray
    momentum_entropy: np.ndarray
    ref_norm: np.ndarray
    pert_norm: np.ndarray


def _philox(seed: int, spawn_key: tuple[int, ...]) -> np.random.Generator:
    # Counter-based generator; spawn keys keep the member streams (1, member)
    # disjoint from the initial-state stream (0,) without hashing tricks.
    ss = np.random.SeedSequence(entropy=seed, spawn_key=spawn_key)
    return np.random.Generator(np.random.Philox(ss))


def echo_initial_state(cfg: EchoConfig) -> StateVector:
    """Seed-derived random normalized state shared by all members."""
    return random_state(cfg.qubits, _philox(cfg.seed, (0,)))


# Members evolve together in batches of at most this many amplitudes (64 MiB
# of complex128); the batch array holds one more column, the reference,
# which each batch evolves again.
ECHO_BATCH_AMPLITUDES = 1 << 22


def echo_batch_size(qubits: int, ensemble: int) -> int:
    """Members per batch: as many as fit in ECHO_BATCH_AMPLITUDES, at least one."""
    return min(ensemble, max(1, ECHO_BATCH_AMPLITUDES >> qubits))


def loschmidt_echo(cfg: EchoConfig) -> list[TrajectoryRecord]:
    """Fidelity decay under per-step random phase kicks.

    Each member evolves the shared initial state with independent
    single-qubit phase kicks (angles uniform in [-delta, +delta], drawn in
    step order from the member's own stream) after every map step, and is
    compared with the unperturbed trajectory. Records fidelity between the
    two plus position and momentum entropies of the perturbed state.

    Each batch of M members is one (D, 1 + M) array: column 0 is the
    unperturbed trajectory, kicked by zero angles, and columns 1..M the
    members. The output is bitwise reproducible from the config. Below
    `gates.FUSE_MIN_QUBITS` every column gets the bits it would get evolved
    on its own, so the output is also independent of batching; from there on
    the fused execution plan makes every column agree with it to 1e-12.
    """
    size = echo_batch_size(cfg.qubits, cfg.ensemble)
    records: list[TrajectoryRecord] = []
    for first in range(0, cfg.ensemble, size):
        records += _echo_batch(cfg, range(first, min(first + size, cfg.ensemble)))
    return records


def _echo_batch(cfg: EchoConfig, members: range) -> list[TrajectoryRecord]:
    qubits, count, n = cfg.qubits, len(members), cfg.steps + 1
    circuit = baker_circuit(qubits)
    # Column 0 is the unperturbed reference, columns 1.. are the members.
    cols = np.repeat(echo_initial_state(cfg).amplitudes[:, None], 1 + count, axis=1)
    # kicks[step - 1, k] holds qubit k's angle for every column at that step;
    # the reference's angles stay zero, a phase of exactly 1.
    kicks = np.zeros((cfg.steps, qubits, 1 + count))
    for i, member in enumerate(members, 1):
        kicks[:, :, i] = _philox(cfg.seed, (1, member)).uniform(
            -cfg.delta, cfg.delta, (cfg.steps, qubits))
    fid, pos_ent, mom_ent = np.empty((3, count, n))
    norms = np.empty((1 + count, n))

    def record(t: int) -> None:
        # Fidelities and norms reduce each column's contiguous row, as a
        # (D,) state does; one squared norm per row serves both.
        rows = np.ascontiguousarray(cols.T)
        sq = np.array([np.vdot(row, row).real for row in rows])
        norms[:, t] = np.sqrt(sq)
        for i in range(1, 1 + count):
            z = np.vdot(rows[0], rows[i])
            fid[i - 1, t] = (z.real * z.real + z.imag * z.imag) / (sq[0] * sq[i])
        pos_ent[:, t] = distribution_entropy(position_distribution(cols[:, 1:]).T)
        mom_ent[:, t] = distribution_entropy(momentum_distribution(cols[:, 1:]).T)

    record(0)
    for step in range(1, n):
        cols = _apply_circuit_array(cols, circuit)
        _kick(cols, qubits, kicks[step - 1])
        record(step)
    return [
        TrajectoryRecord(fid[i], pos_ent[i], mom_ent[i], norms[0].copy(), norms[1 + i])
        for i in range(count)
    ]
