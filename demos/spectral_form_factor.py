"""Spectral form factor K(n) = |tr T^n|^2 / D of the quantized map.

Computed from dense matrix powers, no eigendecomposition: T is unitary,
so each product P = T^c of the chain P <- P @ T^7 gives seven traces,
tr T^(c-j) = vdot(T^j, P) and tr T^(c+j) = sum(T^j * P^T) for j = 1..3,
and tr P. For a chaotic map K(n) fluctuates around 1 at late times (the
random-matrix plateau); early-time structure reflects short periodic
orbits. Writes form_factor.csv for the largest size.
"""
import numpy as np

from qbaker import form_factor
from qbaker.io import form_factor_to_csv, write_text_file

N_MAX = 30


def main():
    values = {}
    for qubits in (2, 4, 6):
        values[qubits] = form_factor(qubits, N_MAX)

    header = f"{'n':>4} " + " ".join(f"L={q:<8}" for q in values)
    print(header)
    for n in range(N_MAX):
        row = " ".join(f"{values[q][n]:<10.4f}" for q in values)
        print(f"{n + 1:>4} {row}")

    for qubits, k in values.items():
        tail = k[N_MAX // 2:]
        print(f"L={qubits}: late-time mean {tail.mean():.3f} "
              f"(random-matrix plateau is 1)")

    write_text_file((form_factor_to_csv(values[6]),), "form_factor.csv")
    print("\nwrote form_factor.csv (L=6)")


if __name__ == "__main__":
    main()
