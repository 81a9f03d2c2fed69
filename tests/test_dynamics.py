import dataclasses
import hashlib
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qbaker import (
    Circuit,
    ClassicalPoint,
    DomainError,
    EchoConfig,
    SizeError,
    StateVector,
    TrajectoryRecord,
    a_gate,
    b_gate,
    baker_circuit,
    baker_matrix,
    basis_state,
    classical_orbit,
    dft_matrix,
    distribution_entropy,
    echo_initial_state,
    form_factor,
    iterate,
    loschmidt_echo,
    momentum_distribution,
    phase_kick,
    position_distribution,
    qft_block_circuit,
    qft_circuit,
    random_state,
)
from qbaker import dynamics
from qbaker.io import circuit_to_text, echo_records_to_csv

from oracles import echo_dense_replay, echo_member_replay


# --- iteration -------------------------------------------------------------

def test_iterate_zero_steps_is_identity():
    s = random_state(4, 0)
    out = iterate(s, 0)
    assert np.array_equal(out.amplitudes, s.amplitudes)


def test_iterate_rejects_negative_steps():
    with pytest.raises(DomainError):
        iterate(basis_state(2, 0), -1)


@pytest.mark.parametrize("qubits", range(1, 7))
def test_iterate_matches_dense_power(qubits):
    psi = random_state(qubits, 7)
    t_cubed = np.linalg.matrix_power(baker_matrix(qubits), 3)
    out = iterate(psi, 3)
    assert np.linalg.norm(out.amplitudes - t_cubed @ psi.amplitudes) <= 1e-10


def test_iterate_basis_state_gives_matrix_column():
    out = iterate(basis_state(3, 0), 1)
    assert np.linalg.norm(out.amplitudes - baker_matrix(3)[:, 0]) <= 1e-10


def test_iterate_norm_conservation_long_run():
    out = iterate(random_state(3, 5), 1000)
    assert abs(out.norm() - 1.0) <= 1e-9


# --- distributions ---------------------------------------------------------

def test_position_distribution_of_basis_state():
    p = position_distribution(basis_state(3, 5))
    expect = np.zeros(8)
    expect[5] = 1.0
    assert np.array_equal(p, expect)


def test_momentum_distribution_of_basis_state_is_uniform():
    p = momentum_distribution(basis_state(3, 0))
    assert np.max(np.abs(p - 1 / 8)) <= 1e-14


def test_momentum_distribution_beyond_dense_guard():
    # the circuit path has no 10-qubit limit
    p = momentum_distribution(basis_state(12, 0))
    assert p.shape == (4096,)
    assert np.max(np.abs(p - 1 / 4096)) <= 1e-14


@pytest.mark.parametrize("qubits", range(1, 7))
def test_momentum_distribution_matches_dense(qubits):
    psi = random_state(qubits, 11)
    via_circuit = momentum_distribution(psi)
    via_matrix = np.abs(dft_matrix(qubits) @ psi.amplitudes) ** 2
    assert np.max(np.abs(via_circuit - via_matrix)) <= 1e-10


def test_distributions_sum_to_one():
    psi = random_state(5, 3)
    assert abs(position_distribution(psi).sum() - 1.0) <= 1e-10
    assert abs(momentum_distribution(psi).sum() - 1.0) <= 1e-10


def test_distribution_rejects_unnormalized():
    s = basis_state(2, 0)
    bad = type(s)(2, s.amplitudes * 2.0)
    with pytest.raises(DomainError):
        position_distribution(bad)


def test_entropy_zero_for_point_mass():
    assert distribution_entropy(position_distribution(basis_state(4, 3))) == 0.0


def test_entropy_bounds():
    for seed in range(5):
        psi = random_state(4, seed)
        for h in (
            distribution_entropy(position_distribution(psi)),
            distribution_entropy(momentum_distribution(psi)),
        ):
            assert 0.0 <= h <= 4 * np.log(2) + 1e-9


def test_entropy_of_uniform_is_log_d():
    assert distribution_entropy(np.full(8, 1 / 8)) == pytest.approx(np.log(8), abs=1e-12)


@pytest.mark.parametrize("qubits", [1, 2, 3, 6])
def test_distributions_of_columns_match_each_state_bitwise(qubits):
    states = [random_state(qubits, seed) for seed in range(4)]
    batch = np.stack([s.amplitudes for s in states], axis=1)
    pos, mom = position_distribution(batch), momentum_distribution(batch)
    assert pos.shape == mom.shape == batch.shape
    for c, s in enumerate(states):
        assert np.array_equal(pos[:, c], position_distribution(s))
        assert np.array_equal(mom[:, c], momentum_distribution(s))


@pytest.mark.parametrize("qubits", [2, 11])
def test_distributions_of_no_columns_are_empty(qubits):
    # L = 11 goes through a block plan; an array with no columns has no
    # amplitude to move in either plan.
    batch = np.zeros((1 << qubits, 0), dtype=complex)
    for dist in (position_distribution, momentum_distribution):
        assert dist(batch).shape == (1 << qubits, 0)


def test_distribution_rejects_nan_amplitudes():
    s = basis_state(2, 0)
    bad = type(s)(2, np.array([np.nan, 0, 0, 0], dtype=complex))
    for dist in (position_distribution, momentum_distribution):
        with pytest.raises(DomainError, match="not normalized"):
            dist(bad)


def test_column_distributions_check_every_column():
    batch = np.stack([random_state(3, 0).amplitudes, random_state(3, 1).amplitudes * 2], axis=1)
    for dist in (position_distribution, momentum_distribution):
        with pytest.raises(DomainError, match="not normalized"):
            dist(batch)


@pytest.mark.parametrize("shape", [(8,), (6, 2), (1, 3), (8, 2, 2)])
def test_column_distributions_reject_bad_shapes(shape):
    with pytest.raises(DomainError):
        position_distribution(np.zeros(shape, dtype=complex))


def test_entropy_of_rows_matches_each_row_bitwise():
    rng = np.random.default_rng(8)
    p = rng.random((6, 16))
    p /= p.sum(axis=1, keepdims=True)
    p[1, 3] = 0.0       # zero entries are dropped ...
    p[2, :5] = 0.0
    p[3, 7] = np.nan    # ... and so are NaN entries, as on the 1-D path
    p[4, 2] = -0.25
    rows = distribution_entropy(p)
    assert rows.shape == (6,)
    for i in range(6):
        assert rows[i] == distribution_entropy(p[i])


# --- form factor -----------------------------------------------------------

def test_form_factor_one_qubit_first_value_vanishes():
    # the 2x2 map has zero trace
    values = form_factor(1, 3)
    assert values[0] == pytest.approx(0.0, abs=1e-28)


def test_form_factor_nonnegative():
    assert np.all(form_factor(4, 12) >= 0.0)


def test_form_factor_trace_of_identity_is_dim():
    # n = 0 would give |tr I|^2 / D = D; the series starts at n = 1
    dim = 8
    assert abs(np.trace(np.eye(dim))) ** 2 / dim == dim


def test_form_factor_matches_direct_trace():
    t = baker_matrix(3)
    expect = [abs(np.trace(np.linalg.matrix_power(t, n))) ** 2 / 8 for n in (1, 2, 3, 4)]
    assert np.allclose(form_factor(3, 4), expect, atol=1e-12)


def test_form_factor_size_guard():
    with pytest.raises(SizeError):
        form_factor(11, 2)


def _dense_power_form_factor(qubits, n_max):
    # Reference: one dense product per n, T^n built as T^(n-1) @ T.
    t = baker_matrix(qubits)
    dim = 1 << qubits
    power = np.eye(dim, dtype=np.complex128)
    out = np.empty(n_max, dtype=np.float64)
    for n in range(n_max):
        power = power @ t
        out[n] = abs(np.trace(power)) ** 2 / dim
    return out


# Every n_max up to 15 (both routes and the switch between them) at every L
# up to 8, the Heisenberg time 2^L up to L = 6 (L = 3's, 8, is in the first
# list), and the eigenvalue route at L = 9.
@pytest.mark.parametrize("qubits, n_max", [
    *((q, n) for q in range(1, 9) for n in (*range(16), 40)),
    *((q, 1 << q) for q in (1, 2, 4, 5, 6)),
    (9, 16), (9, 64),
])
def test_form_factor_matches_dense_powers(qubits, n_max):
    got = form_factor(qubits, n_max)
    assert got.shape == (n_max,) and got.dtype == np.float64
    assert np.all(np.abs(got - _dense_power_form_factor(qubits, n_max)) <= 1e-12)


def test_form_factor_matches_eigenvalues():
    # (8, 700) spans three blocks of the 256-row power table.
    for qubits, n_max in ((8, 256), (8, 700), (9, 512)):
        lam = np.linalg.eigvals(baker_matrix(qubits))
        n = np.arange(1, n_max + 1)
        expect = np.abs(np.power(lam[None, :], n[:, None]).sum(axis=1)) ** 2 / (1 << qubits)
        assert np.all(np.abs(form_factor(qubits, n_max) - expect) <= 1e-9)


class _CountingMatrix(np.ndarray):
    """ndarray that counts the matmul calls made with it."""

    matmuls = 0

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        if ufunc is np.matmul and method == "__call__":
            _CountingMatrix.matmuls += 1
        if "out" in kwargs:
            kwargs["out"] = _plain(kwargs["out"])
        result = getattr(ufunc, method)(*_plain(inputs), **kwargs)
        return result.view(_CountingMatrix) if isinstance(result, np.ndarray) else result


def _plain(arrays):
    return tuple(x.view(np.ndarray) if isinstance(x, _CountingMatrix) else x for x in arrays)


@pytest.mark.parametrize("n_max, products", [
    (0, 0), (1, 0), (4, 3), (5, 4), (7, 6), (8, 7), (14, 13), (15, 0), (256, 0),
])
def test_form_factor_dense_product_count(monkeypatch, n_max, products):
    # n_max - 1 products up to the crossover at 14; beyond it none, and one eigh.
    assert dynamics.FORM_FACTOR_DIRECT_MAX == 14
    real_eigh, eigh_calls = np.linalg.eigh, []
    monkeypatch.setattr(np.linalg, "eigh", lambda a: eigh_calls.append(a.shape) or real_eigh(a))
    monkeypatch.setattr(dynamics, "baker_matrix", lambda q: baker_matrix(q).view(_CountingMatrix))
    _CountingMatrix.matmuls = 0
    dynamics.form_factor(8, n_max)
    assert _CountingMatrix.matmuls == products
    assert eigh_calls == ([] if n_max <= 14 else [(256, 256)])


def test_form_factor_falls_back_to_eigvals_when_eigh_mixes_vectors(monkeypatch):
    # Two eigenvectors mixed at 45 degrees have |v^H T v| < 1; the check must
    # catch it and hand T to the general eigvals.
    real_eigh, real_eigvals = np.linalg.eigh, np.linalg.eigvals
    eigvals_calls = []

    def mixing_eigh(a):
        w, v = real_eigh(a)
        v[:, [0, -1]] = v[:, [0, -1]] @ np.array([[1.0, -1.0], [1.0, 1.0]]) / np.sqrt(2.0)
        return w, v

    def counting_eigvals(a):
        eigvals_calls.append(a.shape)
        return real_eigvals(a)

    monkeypatch.setattr(np.linalg, "eigh", mixing_eigh)
    monkeypatch.setattr(np.linalg, "eigvals", counting_eigvals)
    got = form_factor(6, 40)
    assert eigvals_calls == [(64, 64)]
    assert np.all(np.abs(got - _dense_power_form_factor(6, 40)) <= 1e-12)


@pytest.mark.parametrize("qubits", [1, 2])
def test_form_factor_for_a_million_steps(qubits):
    # Dozens of blocks of the power table, checked across their seams and
    # at the end against e^(i n theta) from eigvals.
    values = form_factor(qubits, 10**6)
    theta = np.angle(np.linalg.eigvals(baker_matrix(qubits)))
    n = np.array([1, 2, 3, 32767, 32768, 32769, 65536, 65537, 999_999, 10**6])
    expect = np.abs(np.exp(1j * np.outer(n, theta)).sum(axis=1)) ** 2 / (1 << qubits)
    assert values.shape == (10**6,)
    assert np.all(np.abs(values[n - 1] - expect) <= 1e-9)


# VmHWM is the peak resident size of this process's own memory; ru_maxrss
# would also carry the peak of the test process it was forked from.
_PEAK_RSS_SCRIPT = """
from qbaker import form_factor

def peak_kib():
    with open("/proc/self/status") as fh:
        return next(int(line.split()[1]) for line in fh if line.startswith("VmHWM:"))

form_factor(7, 128)  # LAPACK's and BLAS's own buffers and code pages
before = peak_kib()
form_factor(9, 512)
print(peak_kib() - before)
"""


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="reads VmHWM from /proc")
def test_form_factor_resident_peak_is_under_five_and_a_half_matrices():
    # The eigh route holds M, LAPACK's copy of it and workspace (three
    # matrices, unseen by tracemalloc) and the eigenvectors: 82 bytes per
    # entry measured at L = 9, against 96 for the power chain it replaced.
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    proc = subprocess.run([sys.executable, "-c", _PEAK_RSS_SCRIPT], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert int(proc.stdout) * 1024 <= 5.5 * 16 * 512 ** 2


# --- phase kicks -----------------------------------------------------------

def test_phase_kick_matches_dense_diagonal():
    rng = np.random.default_rng(2)
    qubits = 4
    psi = random_state(qubits, rng)
    angles = rng.uniform(-0.3, 0.3, qubits)
    kicked = phase_kick(psi, angles)
    j = np.arange(1 << qubits)
    total = np.zeros(1 << qubits)
    for k in range(qubits):
        total = total + angles[k] * ((j >> k) & 1)
    dense = np.exp(1j * total) * psi.amplitudes
    assert np.linalg.norm(kicked.amplitudes - dense) <= 1e-13


def test_phase_kick_is_unitary():
    psi = random_state(3, 9)
    kicked = phase_kick(psi, np.array([0.5, -0.2, 1.1]))
    assert abs(kicked.norm() - psi.norm()) <= 1e-13


def test_phase_kick_validates_angle_count():
    with pytest.raises(DomainError):
        phase_kick(basis_state(3, 0), np.zeros(2))


@pytest.mark.parametrize("angle", [np.nan, np.inf, -np.inf])
def test_phase_kick_refuses_non_finite_angles(angle):
    with pytest.raises(DomainError, match="angles must be finite"):
        phase_kick(basis_state(2, 0), [angle, 0.0])


def test_perturbed_step_matches_dense_oracle():
    # one kicked map step via gates equals (kick matrix . map matrix) applied densely
    rng = np.random.default_rng(13)
    for qubits in range(1, 7):
        psi = random_state(qubits, rng)
        angles = rng.uniform(-0.2, 0.2, qubits)
        via_gates = phase_kick(iterate(psi, 1), angles)
        j = np.arange(1 << qubits)
        kick_diag = np.exp(
            1j * sum(angles[k] * ((j >> k) & 1) for k in range(qubits))
        )
        dense = np.diag(kick_diag) @ baker_matrix(qubits) @ psi.amplitudes
        assert np.linalg.norm(via_gates.amplitudes - dense) <= 1e-10


# --- the echo experiment ---------------------------------------------------

def test_echo_config_validation():
    with pytest.raises(DomainError):
        EchoConfig(0, 1, 0.1, 1, 0)
    with pytest.raises(DomainError):
        EchoConfig(2, -1, 0.1, 1, 0)
    with pytest.raises(DomainError):
        EchoConfig(2, 1, -0.1, 1, 0)
    with pytest.raises(DomainError):
        EchoConfig(2, 1, 0.1, 0, 0)
    with pytest.raises(DomainError):
        EchoConfig(2, 1, 0.1, 1, -5)
    for delta in (float("nan"), float("inf"), float("-inf"), 8.99e307):
        with pytest.raises(DomainError, match="finite"):
            EchoConfig(2, 1, delta, 1, 0)


@pytest.mark.parametrize("call, message", [
    (lambda: loschmidt_echo(EchoConfig(3, 2, 0.1, 2, 1.5)), "seed must be an integer, got 1.5"),
    (lambda: loschmidt_echo(EchoConfig(3.0, 2, 0.1, 2, 1)), "qubit count must be an integer"),
    (lambda: EchoConfig(3, 2.0, 0.1, 2, 1), "step count must be an integer"),
    (lambda: EchoConfig(3, 2, 0.1, True, 1), "ensemble size must be an integer, got True"),
    (lambda: iterate(basis_state(2, 0), 1.5), "step count must be an integer, got 1.5"),
    (lambda: form_factor(3, 2.5), "n_max must be an integer, got 2.5"),
], ids=["echo seed", "echo qubits", "echo steps", "echo ensemble", "iterate", "form factor"])
def test_count_arguments_must_be_integers(call, message):
    with pytest.raises(DomainError, match=message):
        call()


def test_count_arguments_take_numpy_integers():
    cfg = EchoConfig(np.int64(3), np.int32(2), 0.1, np.uint8(2), np.uint64(7))
    assert echo_records_to_csv(loschmidt_echo(cfg)) == echo_records_to_csv(
        loschmidt_echo(EchoConfig(3, 2, 0.1, 2, 7)))
    s = random_state(3, 0)
    assert np.array_equal(iterate(s, np.int64(2)).amplitudes, iterate(s, 2).amplitudes)
    assert np.array_equal(form_factor(3, np.int16(4)), form_factor(3, 4))
    assert circuit_to_text(qft_circuit(np.int64(3))) == circuit_to_text(qft_circuit(3))
    assert baker_circuit(np.int32(3)) == baker_circuit(3)
    made = [qft_circuit(np.int64(3)), baker_circuit(np.uint8(3)), StateVector(np.int64(2), s.amplitudes[:4]),
            basis_state(np.int16(3), np.int64(5)), Circuit(np.int64(2), (), (np.int64(1), np.int64(0)))]
    for obj in made:
        assert type(obj.qubits) is int
    assert np.array_equal(made[3].amplitudes, basis_state(3, 5).amplitudes)
    assert all(type(q) is int for q in made[4].relabel)


@pytest.mark.parametrize("call, message", [
    (lambda: classical_orbit(ClassicalPoint(0.1, 0.2), 1.5), "step count must be an integer, got 1.5"),
    (lambda: random_state(3.0, 1), "qubit count must be an integer, got 3.0"),
    (lambda: random_state(-1, 1), "qubit count must be >= 1, got -1"),
    (lambda: dft_matrix(2.0), "qubit count must be an integer, got 2.0"),
    (lambda: dft_matrix(True), "qubit count must be an integer, got True"),
    (lambda: qft_circuit(2.0), "qubit count must be an integer, got 2.0"),
    (lambda: qft_circuit(True), "qubit count must be an integer, got True"),
    (lambda: basis_state(3, 2.0), "basis index must be an integer, got 2.0"),
    (lambda: basis_state(3, True), "basis index must be an integer, got True"),
    (lambda: StateVector(True, [1, 0]), "qubit count must be an integer, got True"),
    (lambda: a_gate(1.5), "qubit label must be an integer, got 1.5"),
    (lambda: b_gate(0, 1, span=1.5), "phase exponent must be an integer, got 1.5"),
    (lambda: Circuit(2, (), (0.0, 1.0)), "relabel entry must be an integer, got 0.0"),
    (lambda: qft_block_circuit(2, True), "low_qubits must be an integer, got True"),
    (lambda: qft_block_circuit(3, 2.0), "low_qubits must be an integer, got 2.0"),
])
def test_integer_arguments_refuse_other_values(call, message):
    with pytest.raises(DomainError, match=message):
        call()


@pytest.mark.parametrize("builder, cached, refused", [
    (qft_circuit, np.int64(1), True),
    (baker_circuit, np.int64(1), True),
    (qft_block_circuit, np.int64(2), 2.0),
])
def test_cached_builders_check_a_value_equal_to_a_cached_one(builder, cached, refused):
    builder(cached)
    with pytest.raises(DomainError, match=f"got {refused}"):
        builder(refused)


def test_echo_zero_delta_fidelity_exactly_one():
    cfg = EchoConfig(qubits=3, steps=12, delta=0.0, ensemble=3, seed=42)
    for rec in loschmidt_echo(cfg):
        assert all(f == 1.0 for f in rec.fidelity)


def test_echo_zero_delta_entropies_match_unperturbed_run():
    cfg = EchoConfig(qubits=3, steps=8, delta=0.0, ensemble=2, seed=9)
    records = loschmidt_echo(cfg)
    state = echo_initial_state(cfg)
    expected_pos = [distribution_entropy(position_distribution(state))]
    expected_mom = [distribution_entropy(momentum_distribution(state))]
    for _ in range(cfg.steps):
        state = iterate(state, 1, copy=False)
        expected_pos.append(distribution_entropy(position_distribution(state)))
        expected_mom.append(distribution_entropy(momentum_distribution(state)))
    for rec in records:
        assert np.array_equal(rec.position_entropy, np.array(expected_pos))
        assert np.array_equal(rec.momentum_entropy, np.array(expected_mom))


def test_echo_step_zero_fidelity_is_one_even_when_perturbed():
    cfg = EchoConfig(qubits=3, steps=2, delta=0.3, ensemble=2, seed=1)
    for rec in loschmidt_echo(cfg):
        assert rec.fidelity[0] == 1.0


def test_echo_bitwise_reproducible():
    cfg = EchoConfig(qubits=3, steps=10, delta=0.07, ensemble=4, seed=123)
    first = loschmidt_echo(cfg)
    second = loschmidt_echo(cfg)
    for a, b in zip(first, second):
        assert np.array_equal(a.fidelity, b.fidelity)
        assert np.array_equal(a.position_entropy, b.position_entropy)
        assert np.array_equal(a.momentum_entropy, b.momentum_entropy)


def test_echo_members_differ():
    cfg = EchoConfig(qubits=3, steps=5, delta=0.1, ensemble=3, seed=77)
    records = loschmidt_echo(cfg)
    assert not np.array_equal(records[0].fidelity, records[1].fidelity)


def test_echo_norm_conservation():
    cfg = EchoConfig(qubits=3, steps=50, delta=0.2, ensemble=3, seed=5)
    for rec in loschmidt_echo(cfg):
        assert np.max(np.abs(rec.ref_norm - 1.0)) <= 1e-9
        assert np.max(np.abs(rec.pert_norm - 1.0)) <= 1e-9


def test_echo_record_bounds():
    cfg = EchoConfig(qubits=3, steps=20, delta=0.3, ensemble=5, seed=31)
    cap = 3 * np.log(2) + 1e-9
    for rec in loschmidt_echo(cfg):
        assert np.all(rec.fidelity >= 0.0) and np.all(rec.fidelity <= 1.0 + 1e-9)
        assert np.all(rec.position_entropy >= 0.0) and np.all(rec.position_entropy <= cap)
        assert np.all(rec.momentum_entropy >= 0.0) and np.all(rec.momentum_entropy <= cap)


def test_echo_mean_fidelity_decreases_with_delta():
    # Monte-Carlo ordering check at 3 sigma of the ensemble standard error
    means, errs = [], []
    for delta in (0.0, 0.01, 0.1):
        cfg = EchoConfig(qubits=3, steps=10, delta=delta, ensemble=120, seed=2024)
        final = np.array([rec.fidelity[-1] for rec in loschmidt_echo(cfg)])
        means.append(final.mean())
        errs.append(final.std(ddof=1) / np.sqrt(final.size))
    assert means[0] == 1.0
    for lo, hi in ((0, 1), (1, 2)):
        slack = 3.0 * np.hypot(errs[lo], errs[hi])
        assert means[hi] <= means[lo] + slack


@settings(max_examples=60, deadline=None)
@given(
    qubits=st.integers(1, 6),
    ensemble=st.integers(1, 4),
    steps=st.integers(0, 4),
    delta=st.one_of(st.just(0.0), st.floats(0.0, 1.0)),
    seed=st.integers(0, 2**64 - 1),
)
def test_echo_matches_members_replayed_alone(qubits, ensemble, steps, delta, seed):
    cfg = EchoConfig(qubits, steps, delta, ensemble, seed)
    for member, rec in enumerate(loschmidt_echo(cfg)):
        want = echo_member_replay(cfg, member)
        for field in dataclasses.fields(TrajectoryRecord):
            got, expected = getattr(rec, field.name), getattr(want, field.name)
            assert got.dtype == expected.dtype and got.shape == expected.shape == (steps + 1,)
            assert got.tobytes() == expected.tobytes(), field.name


# sha256 of the echo CSV, with norms and overlaps from `state`'s blocked
# sums (test_echo_agrees_with_a_dense_vdot_replay checks those bits against
# np.vdot to 1e-12). Covers L=1 and L=2 (single-amplitude kernel runs), the
# benchmark's ensemble shape, zero kicks, zero steps and L=8.
GOLDEN_ECHO_CSV = [
    ((1, 20, 0.3, 50, 11), "d46f7cc6e1f4d4c798a606bc68a9e5cf00026baa8f2dc168067736ebe470c319"),
    ((2, 15, 0.2, 20, 12), "500122b7f3a0ded0b8b3e14d9d6be3e42d2029190d02d5fcb9c199193047b01c"),
    ((3, 20, 0.05, 200, 7), "1c698c0b1d022f885d5f4abba4a753035dda2a43a0ff8821307424034640dc91"),
    ((5, 15, 0.1, 30, 2024), "95ff60a4eaa921eccdd18b7045cc1e3f976582236ee176619b4db7923d431765"),
    ((8, 10, 0.0, 12, 99), "0da8c5318d2ba2c569581c773ae86ee786eb650092e9321e20ded454f482e73f"),
    ((8, 6, 0.05, 5, 3), "3f431921ecfe42b8157150ac84891fb2186482e59db0598ffb981c488e2683b5"),
    ((4, 0, 0.1, 3, 5), "40c7a0e02fb6219a30cf4fd95b610f8e4cb0a742d2365e87e7df19ce1c505378"),
]


@pytest.mark.parametrize(
    "params", [p for p, _ in GOLDEN_ECHO_CSV] + [(6, 8, 0.1, 4, 6), (7, 5, 0.2, 3, 7)],
    ids=lambda p: "L{}-steps{}-delta{}-M{}-seed{}".format(*p),
)
def test_echo_agrees_with_a_dense_vdot_replay(params):
    # The goldens' bits, and L = 1..8, against arithmetic that shares
    # nothing with the library's sums: dense T, np.vdot and np.fft.
    cfg = EchoConfig(*params)
    for member, rec in enumerate(loschmidt_echo(cfg)):
        want = echo_dense_replay(cfg, member)
        for field in dataclasses.fields(TrajectoryRecord):
            got, expected = getattr(rec, field.name), getattr(want, field.name)
            assert got.shape == expected.shape == (cfg.steps + 1,)
            assert np.abs(got - expected).max() <= 1e-12, (member, field.name)


@pytest.mark.parametrize("members", [1, 2])
def test_echo_bytes_independent_of_batching(monkeypatch, members):
    # Few members per batch: every batch re-evolves the reference in its
    # column 0, beside one or two member columns.
    params, digest = GOLDEN_ECHO_CSV[3]
    monkeypatch.setattr("qbaker.dynamics.ECHO_BATCH_AMPLITUDES", members << params[0])
    csv = echo_records_to_csv(loschmidt_echo(EchoConfig(*params)))
    assert hashlib.sha256(csv.encode()).hexdigest() == digest


_BLAS_THREADS_SCRIPT = """
import hashlib
from qbaker import EchoConfig, loschmidt_echo, random_state
from qbaker.io import echo_records_to_csv

csv = echo_records_to_csv(loschmidt_echo(EchoConfig(14, 1, 0.05, 2, 3)))
print(hashlib.sha256(csv.encode()).hexdigest())
print(hashlib.sha256(random_state(14, 7).amplitudes.tobytes()).hexdigest())
"""


def test_echo_and_random_state_bytes_independent_of_openblas_threads():
    # From 2^14 elements on, an OpenBLAS dot product rounds by its thread
    # count; no amplitude sum of the library goes through one.
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src"),
           "QBAKER_THREADS": "1"}
    outputs = []
    for threads in ("1", "2"):
        proc = subprocess.run([sys.executable, "-c", _BLAS_THREADS_SCRIPT],
                              env={**env, "OPENBLAS_NUM_THREADS": threads},
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        outputs.append(proc.stdout.split())
    assert len(outputs[0]) == 2 and outputs[0] == outputs[1]


def test_echo_at_17_qubits_agrees_across_batch_widths(monkeypatch):
    # From FUSE_MIN_QUBITS on, the chunk height, and with it how the block
    # plan splits its phases, follows the batch's column count, so the bits
    # may differ between batch widths; every record field still agrees to
    # 1e-12 between a batch of all three members, batches of one, and each
    # member replayed alone as a (D,) state.
    cfg = EchoConfig(17, 2, 0.05, 3, 5)
    wide = loschmidt_echo(cfg)
    monkeypatch.setattr("qbaker.dynamics.ECHO_BATCH_AMPLITUDES", 1 << cfg.qubits)
    assert dynamics.echo_batch_size(cfg.qubits, cfg.ensemble) == 1
    narrow = loschmidt_echo(cfg)
    for member, (a, b) in enumerate(zip(wide, narrow, strict=True)):
        alone = echo_member_replay(cfg, member)
        for field in dataclasses.fields(TrajectoryRecord):
            got = getattr(a, field.name)
            for other in (getattr(b, field.name), getattr(alone, field.name)):
                assert got.shape == other.shape == (cfg.steps + 1,)
                assert np.abs(got - other).max() <= 1e-12, (member, field.name)


def test_echo_applies_the_map_once_per_step_per_batch(monkeypatch):
    # Three batches of two members and one of one; the reference rides in
    # each batch's array, so no (D,) array is ever mapped or kicked.
    cfg = EchoConfig(qubits=4, steps=5, delta=0.1, ensemble=7, seed=3)
    monkeypatch.setattr("qbaker.dynamics.ECHO_BATCH_AMPLITUDES", 2 << cfg.qubits)
    baker, shapes = baker_circuit(cfg.qubits), []
    apply_circuit, kick = dynamics._apply_circuit_array, dynamics._kick

    def counting_apply(arr, circuit):
        shapes.append(("map" if circuit == baker else "other", arr.shape))
        return apply_circuit(arr, circuit)

    def counting_kick(arr, qubits, angles):
        shapes.append(("kick", arr.shape))
        kick(arr, qubits, angles)

    monkeypatch.setattr(dynamics, "_apply_circuit_array", counting_apply)
    monkeypatch.setattr(dynamics, "_kick", counting_kick)
    loschmidt_echo(cfg)
    batches = [(1 << cfg.qubits, 3)] * 3 + [(1 << cfg.qubits, 2)]
    for kind in ("map", "kick"):
        got = [shape for k, shape in shapes if k == kind]
        assert got == [shape for shape in batches for _ in range(cfg.steps)]
    assert all(len(shape) == 2 for _, shape in shapes)


@pytest.mark.parametrize(
    "params, digest", GOLDEN_ECHO_CSV,
    ids=["L{}-steps{}-delta{}-M{}-seed{}".format(*p) for p, _ in GOLDEN_ECHO_CSV],
)
def test_echo_csv_golden_bytes(params, digest):
    csv = echo_records_to_csv(loschmidt_echo(EchoConfig(*params)))
    assert hashlib.sha256(csv.encode()).hexdigest() == digest
