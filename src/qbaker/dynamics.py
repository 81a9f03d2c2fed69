"""Iteration and quantum-chaos diagnostics for the quantized baker map.

Everything here runs through the O(D)-per-gate kernels; dense matrices
appear only inside the form factor and stay behind the usual size guard.
The form factor reads tr T^n off dense powers for short runs. For longer
ones it takes T's eigenvalues from one Hermitian eigendecomposition, and
then every tr T^n = sum_k lambda_k^n costs O(D).
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import kernels
from .baker import baker_circuit, baker_matrix
from .errors import DomainError, check_count
from .gates import _apply_circuit_array, circuit_to_matrix
from .qft import qft_circuit
from .state import NORM_TOL, StateVector, overlap, random_state, squared_norm

# `form_factor` takes n_max - 1 dense products up to this n_max and one
# `eigh` beyond it. The `eigh` route costs as much as about 13 products at
# 9 qubits, 16 at 10 and 22 at 8.
FORM_FACTOR_DIRECT_MAX = 14
# a = (1 - i c) / 2 with c = (sqrt(5) - 1) / 2, the Hermitian mix of T in
# `_eigenvalues`.
EIGH_MIX = (1 - 0.5j * (math.sqrt(5) - 1)) / 2
# Eigenvalues of T from `eigh` must lie this close to the unit circle.
UNIT_MODULUS_TOL = 1e-9
# Entries in the power table of `_power_sums` and in one slab of `_eigenvalues`.
POWER_TABLE_ENTRIES = 1 << 16


def iterate(state: StateVector, steps: int, *, copy: bool = True) -> StateVector:
    """Apply the baker gate network `steps` times."""
    steps = check_count(steps, "step count", 0)
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
    bad = ~(np.abs(total - 1.0) <= NORM_TOL)  # NaN totals fail too
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
    """Shannon entropy -sum_j p_j ln p_j in nats; a term whose p_j is not
    positive (zero, negative or NaN) stays 0.

    A 2-D `p` holds one distribution per row and gives one entropy per row,
    summed along the contiguous row, so bitwise equal to the 1-D result for
    that row. Any other `p` is flattened.
    """
    p = np.ascontiguousarray(p, dtype=np.float64)
    if p.ndim != 2:
        p = p.reshape(-1)
    positive = p > 0.0
    terms = np.log(p, out=np.zeros_like(p), where=positive)
    np.multiply(p, terms, out=terms, where=positive)
    return -terms.sum(axis=-1)


def form_factor(qubits: int, n_max: int) -> np.ndarray:
    """K(n) = |tr(T^n)|^2 / D for n = 1..n_max.

    Which route runs depends on n_max alone. Up to FORM_FACTOR_DIRECT_MAX
    the traces are read off dense powers, P <- P @ T: n_max - 1 products,
    with T, P and the next product live. Beyond it they are power sums of
    T's eigenvalues, tr T^n = sum_k lambda_k^n (see `_eigenvalues`), whose
    cost hardly grows with n_max: about 0.15 s at 9 qubits out to the
    Heisenberg time, where one dense product takes 0.013 s.
    """
    n_max = check_count(n_max, "n_max", 0)
    # Allocated before any work, so an n_max numpy cannot hold fails at once.
    traces = np.empty(n_max, dtype=np.complex128)
    if n_max <= FORM_FACTOR_DIRECT_MAX:
        t = power = baker_matrix(qubits)
        for n in range(n_max):
            if n:
                power = power @ t
            traces[n] = np.trace(power)
    else:
        _power_sums(_eigenvalues(qubits), traces)
    return np.abs(traces) ** 2 / (1 << qubits)


def _eigenvalues(qubits: int) -> np.ndarray:
    """Eigenvalues of T from one `eigh`, or from `eigvals` if that fails.

    T is normal, so M = a T + conj(a) T^H shares its eigenvectors, and M
    is Hermitian with eigenvalue cos(theta) + c sin(theta) for T's
    e^(i theta) (a = (1 - i c) / 2, c irrational): distinct eigenvalues of
    T stay apart in M except on a set of measure zero. T comes from the
    gate network, M is built in T's own buffer, and lambda_k = v_k^H T v_k
    takes T v_k through the network too, so T is never held beside M's
    eigenvectors. (Building T by the network also leaves fewer freed
    matrix-sized holes than `baker_matrix` does; the workspace of `eigh`,
    one block the size of two matrices, cannot reuse them.) Each v_k is a
    unit vector and T is unitary, so |lambda_k| = 1 exactly when v_k is
    an eigenvector of T; a pair of vectors that `eigh` mixed shows as
    |lambda| < 1, and the general `eigvals` of T takes over.
    """
    circuit = baker_circuit(qubits)
    m = circuit_to_matrix(circuit)
    m *= EIGH_MIX
    # eigh reads the lower triangle only; make it that of m + m^H, slab by
    # slab of rows. Each slab reads only entries above its own rows,
    # which no earlier slab wrote.
    dim = m.shape[0]
    rows = max(1, POWER_TABLE_ENTRIES // dim)
    for r0 in range(0, dim, rows):
        r1 = r0 + rows
        m[r0:r1, :r0] += m[:r0, r0:r1].conj().T
        block = m[r0:r1, r0:r1]
        block += block.conj().T.copy()
    _, vecs = np.linalg.eigh(m)
    del m
    tv = _apply_circuit_array(vecs.copy(), circuit)
    tv *= np.conjugate(vecs, out=vecs)
    lam = tv.sum(axis=0)
    if np.abs(lam).min() < 1.0 - UNIT_MODULUS_TOL:
        lam = np.linalg.eigvals(baker_matrix(qubits))
    # Back onto the unit circle: a modulus error of delta would grow to
    # n delta in lambda^n.
    return lam / np.abs(lam)


def _power_sums(lam: np.ndarray, out: np.ndarray) -> None:
    """out[n - 1] = sum_k lam_k^n for n = 1..len(out).

    A table of lam^1 .. lam^B (B x D <= POWER_TABLE_ENTRIES) turns each
    block of B sums into one matrix-vector product with lam^(first n - 1).
    """
    rows = min(len(out), max(1, POWER_TABLE_ENTRIES // lam.size))
    table = np.empty((rows, lam.size), dtype=np.complex128)
    table[0] = lam
    for i in range(1, rows):
        np.multiply(table[i - 1], lam, out=table[i])
    base = np.ones(lam.size, dtype=np.complex128)
    for first in range(0, len(out), rows):
        block = out[first:first + rows]
        np.matmul(table[:len(block)], base, out=block)
        base *= table[-1]


def _kick(arr: np.ndarray, qubits: int, angles: np.ndarray) -> None:
    # angles[k] is one angle for qubit k, or one per column of arr.
    phases = np.exp(1j * angles)
    for k in range(qubits):
        kernels.phase_on_one(arr, qubits, k, phases[k])


def phase_kick(state: StateVector, angles: np.ndarray) -> StateVector:
    """Apply diag(1, e^{i angles[k]}) on every qubit k (diagonal, unitary)."""
    angles = np.asarray(angles, dtype=np.float64)
    if angles.shape != (state.qubits,):
        raise DomainError(f"need one angle per qubit, got shape {angles.shape}")
    if not np.isfinite(angles).all():
        raise DomainError(f"angles must be finite, got {angles}")
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
        for name, what, least in (("qubits", "qubit count", 1), ("steps", "step count", 0),
                                  ("ensemble", "ensemble size", 1), ("seed", "seed", 0)):
            object.__setattr__(self, name, check_count(getattr(self, name), what, least))
        # Kicks are drawn from [-delta, delta], a range of width 2 * delta.
        if not (self.delta >= 0.0 and math.isfinite(2.0 * self.delta)):
            raise DomainError(
                f"perturbation strength must be >= 0 with 2 * delta finite, got {self.delta}")
        if self.seed >= 2**64:
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
    members. Each step is recorded from one contiguous copy of the columns
    as rows: fidelities, norms and position probabilities come from those
    rows, the norms and overlaps by `state.squared_norm` and `state.overlap`,
    whose summation order follows the shape alone. The output is bitwise
    reproducible from the config. Below
    `gates.FUSE_MIN_QUBITS` every column gets the bits it would get evolved
    on its own, so the output is also independent of batching; from there on
    the execution plan is built from dense blocks, and every column agrees
    with it to 1e-12.
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
        # Every reduction reads a column's contiguous row, as a (D,) state
        # does; one squared norm per row serves fidelity and norm.
        rows = np.ascontiguousarray(cols.T)
        sq = squared_norm(rows)
        norms[:, t] = np.sqrt(sq)
        z = overlap(rows[0], rows[1:])
        fid[:, t] = (z.real * z.real + z.imag * z.imag) / (sq[0] * sq[1:])
        pos_ent[:, t] = distribution_entropy(position_distribution(rows[1:].T).T)
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
