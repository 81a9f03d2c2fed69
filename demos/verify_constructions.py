"""Walk through every verification oracle at small sizes.

The gate network is checked three independent ways: against the dense
Fourier matrix, against the block-matrix definition of the quantized
baker map, and against the displacement-operator algebra of the
discretized unit square. A hand-written 11-gate sequence for three qubits
is compared to both. Past the dense guard, one map step through the
dense-block execution plan is compared to the FFT form of the map.
"""
import numpy as np

from qbaker import (
    baker_circuit,
    baker_matrix,
    baker_reference_3q,
    build_operators,
    check_weyl,
    circuit_to_matrix,
    dft_matrix,
    elide_swaps,
    gate_count,
    iterate,
    qft_circuit,
    random_state,
)
from qbaker.gates import FUSE_MIN_QUBITS


def main():
    print("Fourier network vs dense matrix")
    print(f"{'L':>3} {'gates':>6} {'residual':>12}")
    for qubits in range(1, 7):
        circuit = qft_circuit(qubits)
        residual = np.linalg.norm(circuit_to_matrix(circuit) - dft_matrix(qubits))
        print(f"{qubits:>3} {len(circuit.gates):>6} {residual:>12.3e}")

    print("\nBaker network vs block-matrix definition")
    print(f"{'L':>3} {'gates':>6} {'residual':>12} {'elided residual':>16}")
    for qubits in range(1, 7):
        circuit = baker_circuit(qubits)
        mat = baker_matrix(qubits)
        residual = np.linalg.norm(circuit_to_matrix(circuit) - mat)
        elided = np.linalg.norm(circuit_to_matrix(elide_swaps(circuit)) - mat)
        print(f"{qubits:>3} {len(circuit.gates):>6} {residual:>12.3e} {elided:>16.3e}")

    print("\nHand-written three-qubit sequence")
    fixture = baker_reference_3q()
    counts = gate_count(fixture)
    print(f"gate counts: {counts.a} A, {counts.b} B, {counts.swap} swap")
    print("vs matrix:  ", np.linalg.norm(circuit_to_matrix(fixture) - baker_matrix(3)))
    print("vs builder: ", np.linalg.norm(
        circuit_to_matrix(fixture) - circuit_to_matrix(baker_circuit(3))))

    print("\nDisplacement-operator algebra (U V = eps V U, U^D = V^D = 1)")
    print(f"{'L':>3} {'commutation':>13} {'periodicity':>13}")
    for qubits in range(1, 7):
        report = check_weyl(build_operators(qubits))
        print(f"{qubits:>3} {report.commutation_residual:>13.3e} "
              f"{report.periodicity_residual:>13.3e}")

    print("\nDense-block execution plan vs FFT form T = F_L^-1 diag(F_L-1, F_L-1)")
    qubits = FUSE_MIN_QUBITS
    psi = random_state(qubits, qubits)
    half = np.fft.fft(psi.amplitudes.reshape(2, -1), axis=1, norm="ortho")
    expect = np.fft.ifft(half.ravel(), norm="ortho")
    deviation = np.abs(iterate(psi, 1).amplitudes - expect).max()
    print(f"L = {qubits}: max abs deviation {deviation:.3e}")


if __name__ == "__main__":
    main()
