"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines.
"""
import time

import numpy as np
import pytest

from qbaker import (
    EchoConfig,
    SizeError,
    baker_circuit,
    baker_matrix,
    baker_reference_3q,
    basis_state,
    build_operators,
    check_weyl,
    circuit_to_matrix,
    dft_matrix,
    elide_swaps,
    gate_count,
    iterate,
    loschmidt_echo,
    qft_circuit,
    random_state,
)

from oracles import cyclic_shift_matrix


def _report(criterion: str, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} ({detail})")


def test_criterion_1_qft_correctness():
    start = time.perf_counter()
    worst = 0.0
    for qubits in range(1, 9):
        residual = np.linalg.norm(
            circuit_to_matrix(qft_circuit(qubits)) - dft_matrix(qubits)
        )
        worst = max(worst, residual)
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-10 and elapsed < 10.0
    _report("1 qft-vs-dense", ok, f"max residual {worst:.3e}, {elapsed:.2f}s")
    assert worst <= 1e-10
    assert elapsed < 10.0


def test_criterion_2_baker_equivalence():
    start = time.perf_counter()
    worst = 0.0
    for qubits in range(1, 9):
        residual = np.linalg.norm(
            circuit_to_matrix(baker_circuit(qubits)) - baker_matrix(qubits)
        )
        worst = max(worst, residual)
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-10 and elapsed < 30.0
    _report("2 baker-circuit-vs-matrix", ok, f"max residual {worst:.3e}, {elapsed:.2f}s")
    assert worst <= 1e-10
    assert elapsed < 30.0


def test_criterion_3_three_qubit_fixture():
    fixture = circuit_to_matrix(baker_reference_3q())
    vs_matrix = np.linalg.norm(fixture - baker_matrix(3))
    vs_builder = np.linalg.norm(fixture - circuit_to_matrix(baker_circuit(3)))
    counts = gate_count(baker_reference_3q())
    same_multiset = (counts.a, counts.b, counts.swap) == (5, 4, 2)
    ok = vs_matrix <= 1e-12 and vs_builder <= 1e-12 and same_multiset
    _report(
        "3 hardcoded-3q-sequence", ok,
        f"vs matrix {vs_matrix:.3e}, vs builder {vs_builder:.3e}, counts {counts}",
    )
    assert vs_matrix <= 1e-12
    assert vs_builder <= 1e-12
    assert same_multiset


def test_criterion_4_weyl_oracle():
    worst_comm = worst_period = worst_shift = 0.0
    for qubits in range(1, 9):
        ops = build_operators(qubits)
        report = check_weyl(ops)
        worst_comm = max(worst_comm, report.commutation_residual)
        worst_period = max(worst_period, report.periodicity_residual)
        worst_shift = max(
            worst_shift, float(np.max(np.abs(ops.v_op - cyclic_shift_matrix(ops.dim))))
        )
    ok = worst_comm <= 1e-9 and worst_period <= 1e-9 and worst_shift <= 1e-10
    _report(
        "4 weyl-commutation", ok,
        f"commutation {worst_comm:.3e}, periodicity {worst_period:.3e}, "
        f"shift {worst_shift:.3e}",
    )
    assert worst_comm <= 1e-9
    assert worst_period <= 1e-9
    assert worst_shift <= 1e-10


def test_criterion_5_swap_elision():
    worst = 0.0
    for qubits in range(2, 7):
        for circuit in (qft_circuit(qubits), baker_circuit(qubits)):
            residual = np.linalg.norm(
                circuit_to_matrix(elide_swaps(circuit)) - circuit_to_matrix(circuit)
            )
            worst = max(worst, residual)
    ok = worst <= 1e-12
    _report("5 swap-elision", ok, f"max residual {worst:.3e}")
    assert worst <= 1e-12


def test_criterion_6_dynamics_sanity():
    drift = abs(iterate(random_state(3, 0), 1000).norm() - 1.0)
    worst = 0.0
    for qubits in range(1, 7):
        psi = random_state(qubits, qubits)
        dense = psi.amplitudes.copy()
        t_mat = baker_matrix(qubits)
        state = psi
        for step in range(1, 6):
            state = iterate(state, 1)
            dense = t_mat @ dense
            worst = max(worst, float(np.linalg.norm(state.amplitudes - dense)))
    ok = drift <= 1e-9 and worst <= 1e-10
    _report("6 iteration-sanity", ok, f"norm drift {drift:.3e}, oracle residual {worst:.3e}")
    assert drift <= 1e-9
    assert worst <= 1e-10


def test_criterion_7_echo_properties():
    zero_cfg = EchoConfig(qubits=3, steps=10, delta=0.0, ensemble=10, seed=99)
    exact = all(f == 1.0 for rec in loschmidt_echo(zero_cfg) for f in rec.fidelity)

    means, errs = [], []
    for delta in (0.0, 0.01, 0.1):
        cfg = EchoConfig(qubits=3, steps=10, delta=delta, ensemble=200, seed=515)
        final = np.array([rec.fidelity[10] for rec in loschmidt_echo(cfg)])
        means.append(float(final.mean()))
        errs.append(float(final.std(ddof=1) / np.sqrt(final.size)))
    ordered = all(
        means[i + 1] <= means[i] + 3.0 * np.hypot(errs[i], errs[i + 1])
        for i in range(2)
    )

    cfg = EchoConfig(qubits=3, steps=10, delta=0.05, ensemble=20, seed=4242)
    a, b = loschmidt_echo(cfg), loschmidt_echo(cfg)
    reproducible = all(
        np.array_equal(x.fidelity, y.fidelity)
        and np.array_equal(x.position_entropy, y.position_entropy)
        and np.array_equal(x.momentum_entropy, y.momentum_entropy)
        for x, y in zip(a, b)
    )
    ok = exact and ordered and reproducible
    _report(
        "7 echo-properties", ok,
        f"delta=0 exact {exact}, means {['%.5f' % m for m in means]}, "
        f"reproducible {reproducible}",
    )
    assert exact
    assert ordered
    assert reproducible


def _time_one_iteration(qubits: int, repeats: int) -> float:
    state = basis_state(qubits, 1)
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        state = iterate(state, 1, copy=False)
        best = min(best, time.perf_counter() - start)
    return best


def test_criterion_8_performance_and_scaling():
    # warm-up: builder caches, numpy dispatch
    _time_one_iteration(14, 2)

    t20 = _time_one_iteration(20, 3)
    ok_time = t20 <= 5.0

    with pytest.raises(SizeError):
        circuit_to_matrix(baker_circuit(20))

    sizes = (14, 16, 18, 20)
    times = [_time_one_iteration(q, 5 if q <= 16 else 3) for q in sizes]
    model = np.log([q * q * 2.0**q for q in sizes])
    slope = float(np.polyfit(model, np.log(times), 1)[0])
    ok_slope = 0.7 <= slope <= 1.3
    ok = ok_time and ok_slope
    _report(
        "8 performance", ok,
        f"L=20 iteration {t20:.3f}s, log-slope {slope:.3f} vs O(L^2 2^L)",
    )
    assert ok_time
    assert ok_slope
