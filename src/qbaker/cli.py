"""Command-line front end.

Exit codes: 0 success (and passing checks), 1 domain error, unreadable
input, a size numpy cannot allocate, a request `main` sizes above physical
memory, or failing check, 2 usage error.
Check subcommands print machine-readable JSON with residuals; every file
output gets a run manifest, recording the parsed arguments, written next
to it.
The QBAKER_THREADS environment variable sets the worker count for circuit
application (default: one per core, capped by a cgroup CPU quota, when
numpy's OpenBLAS can be pinned to one thread and its idle helpers stopped
while the workers run; see `kernels`). Workers share out the chunks of a
block plan, and the slabs of the whole array in its windows above the
chunk height, so they apply from 11 qubits on to arrays of at least two
chunks (L >= 17 for one state); smaller circuits, and plans called while
other threads are alive, run in the calling thread.
"""
from __future__ import annotations

import argparse
import itertools
import json
import os
import sys
from collections.abc import Iterable

from . import __version__, io, kernels
from .baker import ClassicalPoint, baker_circuit, baker_matrix, classical_step
from .dynamics import EchoConfig, echo_batch_size, form_factor, iterate, loschmidt_echo
from .errors import DomainError, SizeError, check_count
from .gates import MAX_DENSE_QUBITS
from .qft import qft_residual
from .state import NORM_TOL, basis_state
from .weyl import PASS_TOL, build_operators, check_weyl

QFT_CHECK_TOL = 1e-10
MATRIX_DUMP_LIMIT_LARGE = 12
# The size model. Each constant is a peak measured on 64-bit CPython 3.11
# with numpy 2.4, as the slope between two or more sizes of the tracemalloc
# peak of an in-process run (and of ru_maxrss where given), rounded up.
# Bytes of `iterate` per amplitude: the input and result states and the
# copies the execution plan makes. The map runs in place on the state just
# read or built, so the peak holds that state and the plan's relabeled
# copy. The JSON is streamed in slices of io.JSON_SLICE_PAIRS pairs, about
# 1 MB whatever the size, so it adds nothing per amplitude. Measured from a
# basis state as 32 at L = 16-18 and at L = 18-20 (32 by ru_maxrss in a
# fresh process, L = 18 and 20), to a file and to stdout alike.
ITERATE_AMPLITUDE_BYTES = 64
# Bytes of `baker --form matrix` per entry: building the dense matrix, then
# the matrix while its JSON is streamed. Measured as 36 (37-45 by ru_maxrss
# in a fresh process) at L = 9-11, to a file.
MATRIX_ENTRY_BYTES = 96
# Bytes per gate of `baker --form circuit`: the gates, the cached Fourier
# networks they are built from, and the text. Measured as 304 (339 by
# ru_maxrss) between L = 200 and 400.
CIRCUIT_BYTES_PER_GATE = 512
# Bytes of `echo` per amplitude of each column a batch holds (the reference
# and the batch's members, in one array): the columns, their transposed copy
# for the records, and the copies the execution plan and the momentum
# transform make. Measured as 48-61 at L = 14-18 and 1-8 members, 61-64 per
# added column (68-78 and 71-72 by ru_maxrss, L = 17 and 18).
ECHO_COLUMN_BYTES = 96
# Bytes of `echo` per member, and per (step, member) row on top of that:
# the record's five float64 fields and the CSV line (64 characters on
# average, about 100 at most), held in the line list and again in the
# joined text. Measured as 637 per member and 284-288 per row at L = 3;
# each row also holds the member's kick angles, 8 bytes per qubit.
ECHO_MEMBER_BYTES = 1024
ECHO_ROW_BYTES = 384
# Bytes of `iterate --state` per byte of the state file, while it is read
# and parsed. Files qbaker writes are read straight into the array: their
# peak is the read itself, the file's bytes and their decoded text at once,
# measured at L = 18 and 20 as 2.0 (2.0-2.1 by ru_maxrss in a fresh
# process). Any other file also holds the parsed lists and numbers: 18.1
# (20.0) for the densest entries with a float ([0,1e0]), 19.8 (22.1) for
# the densest of all, [0,0], whose ints are shared, and 22.8 (25.1) when one
# non-ASCII character widens the text to 4 bytes per character.
STATE_FILE_PARSE_BYTES = 32
# Bytes of `formfactor` per n: the trace, |trace|^2 / D and the CSV line in
# the line list and the joined text. Measured as 140 at n = 2-4 x 10^4. The
# dense matrices stay behind the dense size guard. Past a few n the form
# factor holds M (built in T's buffer), LAPACK's copy of it and workspace
# for `eigh` (three matrices' worth), and the eigenvectors: 70 / 81 / 82
# bytes per entry by ru_maxrss at L = 8 / 9 / 10 (86 MB at its limit of 10
# qubits). tracemalloc misses the LAPACK part and reads 64.
FORM_FACTOR_ROW_BYTES = 256


def _emit(chunks: Iterable[str], args: argparse.Namespace, seed: int | None = None) -> None:
    """Print the text chunks, or write them to --out with a manifest of the parsed arguments."""
    if args.out is None:
        sys.stdout.writelines(chunks)
        return
    io.write_text_file(chunks, args.out)
    params = {k: v for k, v in vars(args).items() if k not in ("command", "func")}
    io.write_manifest(io.RunManifest(args.command, params, __version__, seed), args.out)


def cmd_qft_check(args: argparse.Namespace) -> int:
    residual = qft_residual(args.qubits)
    ok = residual <= QFT_CHECK_TOL
    report = {
        "qubits": args.qubits,
        "frobenius_residual": residual,
        "tolerance": QFT_CHECK_TOL,
        "pass": ok,
    }
    _emit((json.dumps(report), "\n"), args)
    return 0 if ok else 1


def cmd_weyl_check(args: argparse.Namespace) -> int:
    ops = build_operators(args.qubits)
    report = check_weyl(ops)
    payload = {
        "qubits": args.qubits,
        "dim": ops.dim,
        "commutation_residual": report.commutation_residual,
        "periodicity_residual": report.periodicity_residual,
        "tolerance": PASS_TOL,
        "pass": report.passed,
    }
    _emit((json.dumps(payload), "\n"), args)
    return 0 if report.passed else 1


def cmd_baker(args: argparse.Namespace) -> int:
    if args.form == "circuit":
        _emit((io.circuit_to_text(baker_circuit(args.qubits)),), args)
        return 0
    limit = MATRIX_DUMP_LIMIT_LARGE if args.allow_large else MAX_DENSE_QUBITS
    mat = baker_matrix(args.qubits, max_qubits=limit)
    _emit(itertools.chain(io.matrix_json_chunks(mat, args.qubits), ("\n",)), args)
    return 0


def _physical_memory_bytes() -> int:
    return os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")


def _amplitudes(args: argparse.Namespace) -> int:
    # 2^64 amplitudes exceed any memory, so the cap changes no decision; it
    # keeps a huge --qubits from building a huge integer.
    return 1 << min(args.qubits, 64)


def _baker_bytes(args: argparse.Namespace) -> int:
    if args.form == "circuit":
        # baker_circuit(L) has L^2 + L - 1 gates.
        return CIRCUIT_BYTES_PER_GATE * (args.qubits * args.qubits + args.qubits - 1)
    return MATRIX_ENTRY_BYTES * _amplitudes(args) ** 2


def _iterate_bytes(args: argparse.Namespace) -> int:
    # The states, or the parse of a state file, freed before the map runs.
    parse = 0 if args.state is None else STATE_FILE_PARSE_BYTES * os.path.getsize(args.state)
    return max(ITERATE_AMPLITUDE_BYTES * _amplitudes(args), parse)


def _echo_bytes(args: argparse.Namespace) -> int:
    # The reference and one batch of member columns, then the records and
    # the CSV text of every member.
    columns = 1 + echo_batch_size(args.qubits, args.ensemble)
    rows = (args.steps + 1) * args.ensemble
    return (ECHO_COLUMN_BYTES * _amplitudes(args) * columns + ECHO_MEMBER_BYTES * args.ensemble
            + (ECHO_ROW_BYTES + 8 * args.qubits) * rows)


# Peak bytes of each command whose memory grows with its arguments, as a
# function of the parsed arguments. `qft-check` and `weyl-check` are bounded
# by the dense size guard instead, and `classical` holds nothing that grows.
_PEAK_BYTES = {
    "iterate": _iterate_bytes,
    "echo": _echo_bytes,
    "formfactor": lambda args: FORM_FACTOR_ROW_BYTES * args.nmax,
    "baker": _baker_bytes,
}


def _check_memory(args: argparse.Namespace) -> None:
    """Refuse a request whose peak bytes exceed physical memory, before any work."""
    if args.command not in _PEAK_BYTES:
        return
    check_count(args.qubits, "qubit count", 1)
    need = _PEAK_BYTES[args.command](args)
    have = _physical_memory_bytes()
    if need > have:
        raise SizeError(
            f"{args.command} for {args.qubits} qubits needs about {need} bytes, "
            f"more than the {have} bytes of physical memory"
        )


def cmd_iterate(args: argparse.Namespace) -> int:
    if args.state is not None:
        state = io.read_state(args.state)
        if state.qubits != args.qubits:
            raise DomainError(
                f"state file has {state.qubits} qubits, command asked for {args.qubits}"
            )
        norm = state.norm()
        if abs(norm - 1.0) > NORM_TOL:
            raise DomainError(f"state file is not normalized (norm {norm!r})")
    else:
        state = basis_state(args.qubits, args.basis)
    result = iterate(state, args.steps, copy=False)
    _emit(itertools.chain(io.state_json_chunks(result), ("\n",)), args)
    return 0


def cmd_echo(args: argparse.Namespace) -> int:
    cfg = EchoConfig(args.qubits, args.steps, args.delta, args.ensemble, args.seed)
    records = loschmidt_echo(cfg)
    _emit((io.echo_records_to_csv(records),), args, args.seed)
    return 0


def cmd_formfactor(args: argparse.Namespace) -> int:
    values = form_factor(args.qubits, args.nmax)
    _emit((io.form_factor_to_csv(values),), args)
    return 0


def cmd_classical(args: argparse.Namespace) -> int:
    pt = ClassicalPoint(args.q, args.p)
    check_count(args.steps, "step count", 0)
    # One line per step as it is computed, so memory stays flat in --steps.
    for _ in range(args.steps):
        pt = classical_step(pt)
        sys.stdout.write(f"{pt.q!r} {pt.p!r}\n")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qbaker",
        description="Quantized baker map: gate-network simulation and verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("qft-check", help="Fourier network vs dense matrix residual")
    p.add_argument("--qubits", type=int, required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_qft_check)

    p = sub.add_parser("weyl-check", help="displacement-operator commutation residuals")
    p.add_argument("--qubits", type=int, required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_weyl_check)

    p = sub.add_parser("baker", help="emit the map as circuit text or matrix JSON")
    p.add_argument("--qubits", type=int, required=True)
    p.add_argument("--form", choices=("matrix", "circuit"), required=True)
    p.add_argument("--out", default=None)
    p.add_argument(
        "--allow-large",
        action="store_true",
        help=f"raise the matrix dump limit from {MAX_DENSE_QUBITS} to "
        f"{MATRIX_DUMP_LIMIT_LARGE} qubits",
    )
    p.set_defaults(func=cmd_baker)

    p = sub.add_parser("iterate", help="apply the map repeatedly to a state")
    p.add_argument("--qubits", type=int, required=True)
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--state", default=None, help="state JSON file")
    src.add_argument("--basis", type=int, default=None, help="position basis index")
    p.add_argument("--steps", type=int, required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_iterate)

    p = sub.add_parser("echo", help="perturbation echo experiment (CSV)")
    p.add_argument("--qubits", type=int, required=True)
    p.add_argument("--steps", type=int, required=True)
    p.add_argument("--delta", type=float, required=True)
    p.add_argument("--ensemble", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_echo)

    p = sub.add_parser("formfactor", help="spectral form factor K(n) (CSV)")
    p.add_argument("--qubits", type=int, required=True)
    p.add_argument("--nmax", type=int, required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_formfactor)

    p = sub.add_parser("classical", help="iterate the classical map")
    p.add_argument("--q", type=float, required=True)
    p.add_argument("--p", type=float, required=True)
    p.add_argument("--steps", type=int, required=True)
    p.set_defaults(func=cmd_classical)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    threads = os.environ.get("QBAKER_THREADS")
    if threads is not None:
        try:
            kernels.set_num_threads(int(threads))
        except (ValueError, DomainError):
            print(f"error: QBAKER_THREADS={threads!r} is not a valid count", file=sys.stderr)
            return 1
    try:
        _check_memory(args)
        return args.func(args)
    except (ValueError, OSError, OverflowError, MemoryError) as exc:
        # ValueError covers DomainError, ParseError and sizes numpy refuses.
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
