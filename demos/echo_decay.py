"""Fidelity decay under random phase kicks at several strengths.

Each ensemble member evolves the same initial state with and without
per-step single-qubit phase kicks; the overlap between the two
trajectories decays faster for stronger kicks. Writes echo_decay.csv
with the per-member records of the strongest run.
"""
import numpy as np

from qbaker import EchoConfig, loschmidt_echo
from qbaker.io import echo_records_to_csv, write_text_file

QUBITS = 3
STEPS = 20
ENSEMBLE = 100
SEED = 20260808
DELTAS = (0.0, 0.01, 0.05, 0.1)


def main():
    print(f"{QUBITS} qubits, ensemble {ENSEMBLE}, seed {SEED}")
    print(f"{'delta':>8} " + " ".join(f"n={n:<2}" for n in (1, 5, 10, 20)))
    last_records = None
    for delta in DELTAS:
        cfg = EchoConfig(QUBITS, STEPS, delta, ENSEMBLE, SEED)
        records = loschmidt_echo(cfg)
        fid = np.array([rec.fidelity for rec in records])
        mean = fid.mean(axis=0)
        print(f"{delta:>8.3f} " + " ".join(f"{mean[n]:.3f}" for n in (1, 5, 10, 20)))
        last_records = records

    write_text_file((echo_records_to_csv(last_records),), "echo_decay.csv")
    print(f"\nwrote echo_decay.csv (delta={DELTAS[-1]}, "
          f"{ENSEMBLE} members x {STEPS + 1} steps)")


if __name__ == "__main__":
    main()
