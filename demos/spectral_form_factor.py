"""Spectral form factor K(n) = |tr T^n|^2 / D of the quantized map.

Past a few n the traces are power sums of T's eigenvalues,
tr T^n = sum_k lambda_k^n. T is unitary, so the Hermitian
M = aT + conj(a)T^H shares its eigenvectors, and one `eigh` of M gives
them; lambda_k = v_k^H T v_k. For a chaotic map K(n) fluctuates around 1
at late times (the random-matrix plateau); early-time structure reflects
short periodic orbits. Writes form_factor.csv for the largest size.
"""
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
