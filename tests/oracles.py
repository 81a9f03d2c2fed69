"""Verification oracles that only the tests use.

`baker_column` is a column of the quantized map in closed form, so plans
past the dense guard are checked against arithmetic that shares nothing
with the gate network, its blocks or an FFT.

`echo_member_replay` evolves one echo member and the unperturbed reference
as lone states, one public step at a time, so the batched echo is checked
against a path that shares none of its batching.

The forward Fourier network carries negative conditional-phase angles.
`resolve_phase_sign` re-derives that sign from scratch against the dense
transform, so the convention is pinned by a check rather than assumed.
"""
import numpy as np

from qbaker import (
    Circuit,
    EchoConfig,
    GateKind,
    TrajectoryRecord,
    circuit_to_matrix,
    dft_matrix,
    distribution_entropy,
    iterate,
    momentum_distribution,
    phase_kick,
    position_distribution,
    qft_circuit,
    random_state,
)

#: Sign of the conditional-phase angles that makes the gate network equal
#: the dense position-to-momentum matrix. Resolved empirically; see
#: resolve_phase_sign().
DFT_PHASE_SIGN = -1


def qft_circuit_with_sign(qubits: int, phase_sign: int) -> Circuit:
    """The Fourier network with every conditional phase at the given sign:
    the gates of qft_circuit(qubits), each B gate of the other sign inverted."""
    conjugated = phase_sign < 0
    gates = tuple(
        g.inverse() if g.kind is GateKind.B and g.conjugated != conjugated else g
        for g in qft_circuit(qubits).gates
    )
    return Circuit(qubits, gates)


def qft_residual_with_sign(qubits: int, phase_sign: int) -> float:
    """Frobenius distance between the network of that sign and the dense oracle."""
    mat = circuit_to_matrix(qft_circuit_with_sign(qubits, phase_sign))
    return float(np.linalg.norm(mat - dft_matrix(qubits)))


def resolve_phase_sign(max_qubits: int = 4, tol: float = 1e-10) -> int:
    """Determine the phase sign by brute-force match against the oracle.

    Exactly one sign must reproduce the dense transform for every size up
    to `max_qubits` (one qubit alone cannot distinguish them: there are no
    two-qubit phases). Anything else means the gate-ordering assumption is
    broken, which is a build-stopping defect, not a tolerance issue.
    """
    candidates = []
    for sign in (1, -1):
        if all(qft_residual_with_sign(L, sign) <= tol for L in range(1, max_qubits + 1)):
            candidates.append(sign)
    if len(candidates) != 1:
        raise RuntimeError(
            "phase-sign resolution failed: matching signs "
            f"{candidates or 'none'}; the network ordering does not realize "
            "the dense transform for either sign"
        )
    return candidates[0]


def is_unitary(mat: np.ndarray, tol: float = 1e-10) -> bool:
    dim = mat.shape[0]
    return bool(np.linalg.norm(mat.conj().T @ mat - np.eye(dim)) <= tol)


def cyclic_shift_matrix(dim: int) -> np.ndarray:
    """Permutation sending position j to position j+1 mod dim."""
    return np.roll(np.eye(dim), 1, axis=0)


def baker_column(qubits: int, j: int, rows: slice = slice(None)) -> np.ndarray:
    """Rows `rows` of column j of T = F_L^-1 diag(F_{L-1}, F_{L-1}).

    With D = 2^L, j' = j mod D/2 and e = (k - 2j') mod D reduced into
    (-D/2, D/2], the geometric sum over the half-size transform gives
    T[k, j] = (sqrt(2) / D) s c: s = 1 in the lower block (j < D/2) and
    (-1)^k in the upper one; c = D/2 for e = 0, 0 for other even k, and
    1 + i cot(pi e / D) for odd k. Reducing e first keeps the cotangent's
    argument small near e = D.
    """
    dim = 1 << qubits
    half = dim >> 1
    k = np.arange(dim)[rows]
    e = (k - 2 * (j % half)) % dim
    e = np.where(e > half, e - dim, e)
    odd = k % 2 == 1
    c = np.zeros(len(k), dtype=np.complex128)
    c[odd] = 1 + 1j / np.tan(np.pi * e[odd] / dim)
    c[e == 0] = half
    if j >= half:
        c[odd] = -c[odd]
    return (np.sqrt(2.0) / dim) * c


def _philox(seed: int, spawn_key: tuple[int, ...]) -> np.random.Generator:
    ss = np.random.SeedSequence(entropy=seed, spawn_key=spawn_key)
    return np.random.Generator(np.random.Philox(ss))


def echo_member_replay(cfg: EchoConfig, member: int) -> TrajectoryRecord:
    """The echo record of one member, from (D,) states alone.

    The initial state comes from spawn key (0,) and the member's kicks, drawn
    as a (steps, qubits) block, from spawn key (1, member). After each map
    step the member gets `phase_kick` and the reference gets nothing. Each
    state's squared norm is vdot(psi, psi).real; the fidelity divides
    |vdot(ref, pert)|^2 by both, and the norms are their square roots.
    """
    ref = pert = random_state(cfg.qubits, _philox(cfg.seed, (0,)))
    kicks = _philox(cfg.seed, (1, member)).uniform(-cfg.delta, cfg.delta, (cfg.steps, cfg.qubits))
    rows = []
    for step in range(cfg.steps + 1):
        if step:
            ref = iterate(ref, 1)
            pert = phase_kick(iterate(pert, 1), kicks[step - 1])
        ref_sq = np.vdot(ref.amplitudes, ref.amplitudes).real
        pert_sq = np.vdot(pert.amplitudes, pert.amplitudes).real
        z = np.vdot(ref.amplitudes, pert.amplitudes)
        rows.append((
            (z.real * z.real + z.imag * z.imag) / (ref_sq * pert_sq),
            distribution_entropy(position_distribution(pert)),
            distribution_entropy(momentum_distribution(pert)),
            np.sqrt(ref_sq),
            np.sqrt(pert_sq),
        ))
    return TrajectoryRecord(*(np.array(column) for column in zip(*rows)))
