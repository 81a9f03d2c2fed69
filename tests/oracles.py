"""Verification oracles that only the tests use.

`baker_column` is a column of the quantized map in closed form, so plans
past the dense guard are checked against arithmetic that shares nothing
with the gate network, its blocks or an FFT.

`echo_member_replay` evolves one echo member and the unperturbed reference
as lone states, one public step at a time, so the batched echo is checked
against a path that shares none of its batching. `echo_dense_replay` does
the same with dense matrices and `np.vdot`, sharing none of its arithmetic.

The forward Fourier network carries negative conditional-phase angles.
`resolve_phase_sign` re-derives that sign from scratch against the dense
transform, so the convention is pinned by a check rather than assumed.

`state_from_json_loop` is the state JSON reader that checks and converts
entry by entry, so the library's array reader is checked against it for
identical bits and identical error messages.
"""
import json
import math

import numpy as np

from qbaker import (
    Circuit,
    EchoConfig,
    GateKind,
    ParseError,
    StateVector,
    TrajectoryRecord,
    baker_matrix,
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
from qbaker.state import overlap, squared_norm

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
    state's squared norm is `state.squared_norm`; the fidelity divides
    |`state.overlap(ref, pert)`|^2 by both, and the norms are their square
    roots. These are the library's sums, so the bits can match; the 1e-12
    check against `np.vdot` is `echo_dense_replay`.
    """
    ref = pert = random_state(cfg.qubits, _philox(cfg.seed, (0,)))
    kicks = _philox(cfg.seed, (1, member)).uniform(-cfg.delta, cfg.delta, (cfg.steps, cfg.qubits))
    rows = []
    for step in range(cfg.steps + 1):
        if step:
            ref = iterate(ref, 1)
            pert = phase_kick(iterate(pert, 1), kicks[step - 1])
        ref_sq = squared_norm(ref.amplitudes)
        pert_sq = squared_norm(pert.amplitudes)
        z = overlap(ref.amplitudes, pert.amplitudes)
        rows.append((
            (z.real * z.real + z.imag * z.imag) / (ref_sq * pert_sq),
            distribution_entropy(position_distribution(pert)),
            distribution_entropy(momentum_distribution(pert)),
            np.sqrt(ref_sq),
            np.sqrt(pert_sq),
        ))
    return TrajectoryRecord(*(np.array(column) for column in zip(*rows)))


def _entropy(p: np.ndarray) -> float:
    nz = p[p > 0.0]
    return float(-(nz * np.log(nz)).sum())


def echo_dense_replay(cfg: EchoConfig, member: int) -> TrajectoryRecord:
    """The echo record of one member by dense algebra and `np.vdot` alone.

    T is `baker_matrix`. The initial state is a complex Gaussian vector from
    spawn key (0,), divided by `np.linalg.norm`; the member's kicks come from
    spawn key (1, member), one step's `qubits` angles at a time, and multiply
    amplitude j by e^{i sum_k angle_k bit_k(j)}. Momentum probabilities are
    |np.fft.fft(psi, norm="ortho")|^2. Nothing here shares the library's
    batching, kernels or sums, so its bits differ and it agrees to 1e-12.
    """
    dim = 1 << cfg.qubits
    t = baker_matrix(cfg.qubits)
    rng = _philox(cfg.seed, (0,))
    psi0 = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    ref = pert = psi0 / np.linalg.norm(psi0)
    rng = _philox(cfg.seed, (1, member))
    bits = (np.arange(dim)[:, None] >> np.arange(cfg.qubits)) & 1
    rows = []
    for step in range(cfg.steps + 1):
        if step:
            ref, pert = t @ ref, t @ pert
            angles = rng.uniform(-cfg.delta, cfg.delta, cfg.qubits)
            pert = pert * np.exp(1j * (bits @ angles))
        ref_sq, pert_sq = np.vdot(ref, ref).real, np.vdot(pert, pert).real
        rows.append((
            abs(np.vdot(ref, pert)) ** 2 / (ref_sq * pert_sq),
            _entropy(np.abs(pert) ** 2),
            _entropy(np.abs(np.fft.fft(pert, norm="ortho")) ** 2),
            np.sqrt(ref_sq),
            np.sqrt(pert_sq),
        ))
    return TrajectoryRecord(*(np.array(column) for column in zip(*rows)))


def state_from_json_loop(text: str) -> StateVector:
    """Parse state JSON, checking and converting one entry at a time."""
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"state file is not valid JSON: {exc}") from None
    if not isinstance(obj, dict):
        raise ParseError("state file must hold a JSON object")
    qubits = obj.get("qubits")
    if not isinstance(qubits, int) or isinstance(qubits, bool) or qubits < 1:
        raise ParseError(f"field 'qubits': expected positive integer, got {qubits!r}")
    amps = obj.get("amplitudes")
    if not isinstance(amps, list):
        raise ParseError("field 'amplitudes': expected a list")
    if len(amps).bit_length() != qubits + 1 or len(amps) != 1 << qubits:
        expected = f"2^{qubits} = {1 << qubits}" if qubits < 63 else f"2^{qubits}"
        raise ParseError(f"field 'amplitudes': expected {expected} entries, got {len(amps)}")
    out = np.empty(1 << qubits, dtype=np.complex128)
    for i, entry in enumerate(amps):
        if (
            not isinstance(entry, list)
            or len(entry) != 2
            or not all(isinstance(x, (int, float)) and not isinstance(x, bool) for x in entry)
        ):
            raise ParseError(f"field 'amplitudes[{i}]': expected [re, im] pair")
        try:
            re, im = float(entry[0]), float(entry[1])
        except OverflowError:
            raise ParseError(f"field 'amplitudes[{i}]': value out of float range") from None
        if not (math.isfinite(re) and math.isfinite(im)):
            raise ParseError(f"field 'amplitudes[{i}]': non-finite value")
        out[i] = complex(re, im)
    return StateVector(qubits, out)
