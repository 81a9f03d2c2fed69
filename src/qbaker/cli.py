"""Command-line front end.

Exit codes: 0 success (and passing checks), 1 domain error, unreadable
input, a size numpy cannot allocate, a state, gate network or echo or
form-factor output larger than physical memory, or failing check, 2 usage
error.
Check subcommands print machine-readable JSON with residuals; every file
output gets a run manifest, recording the parsed arguments, written next
to it.
The QBAKER_THREADS environment variable sets the worker count for circuit
application (default 1); workers share out the chunks of the execution
plan, so they apply to arrays of at least two chunks (L >= 17 for one
state).
"""
from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Callable

from . import __version__, io, kernels
from .baker import ClassicalPoint, baker_circuit, baker_matrix, classical_step
from .dynamics import ECHO_BATCH_AMPLITUDES, EchoConfig, form_factor, iterate, loschmidt_echo
from .errors import DomainError, SizeError
from .qft import qft_residual
from .state import NORM_TOL, basis_state
from .weyl import PASS_TOL, build_operators, check_weyl

QFT_CHECK_TOL = 1e-10
MATRIX_DUMP_LIMIT = 10
MATRIX_DUMP_LIMIT_LARGE = 12
# Peak resident bytes per gate of `baker --form circuit`: the gates, the
# cached Fourier networks they are built from, and the text. Measured as
# 316-354 bytes at L = 200-800 on 64-bit CPython 3.11, and rounded up.
CIRCUIT_BYTES_PER_GATE = 512
# Peak bytes of `echo` per member, and per (step, member) row on top of
# that: the record's five float64 fields and the CSV line (64 characters
# on average, about 100 at most), held in the line list and again in the
# joined text. Measured with tracemalloc as about 650 bytes per member and
# 290 per row at L = 1-3, and rounded up; each row also holds the member's
# kick angles, 8 bytes per qubit.
ECHO_MEMBER_BYTES = 1024
ECHO_ROW_BYTES = 384
# Peak bytes of `formfactor` per n: the trace, |trace|^2 / D and the CSV
# line in the line list and the joined text. Measured as about 140 bytes,
# and rounded up. The dense matrices stay behind the dense size guard.
FORM_FACTOR_ROW_BYTES = 256


def _emit(text: str, args: argparse.Namespace, seed: int | None = None) -> None:
    """Print the text, or write it to --out with a manifest of the parsed arguments."""
    if args.out is None:
        sys.stdout.write(text)
        return
    io.write_text_file(text, args.out)
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
    _emit(json.dumps(report) + "\n", args)
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
    _emit(json.dumps(payload) + "\n", args)
    return 0 if report.passed else 1


def cmd_baker(args: argparse.Namespace) -> int:
    if args.form == "circuit":
        _check_memory("gate network", args, _circuit_bytes)
        text = io.circuit_to_text(baker_circuit(args.qubits))
    else:
        limit = MATRIX_DUMP_LIMIT_LARGE if args.allow_large else MATRIX_DUMP_LIMIT
        mat = baker_matrix(args.qubits, max_qubits=limit)
        text = io.matrix_to_json(mat, args.qubits) + "\n"
    _emit(text, args)
    return 0


def _physical_memory_bytes() -> int:
    return os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")


def _check_memory(what: str, args: argparse.Namespace,
                  bytes_needed: Callable[[argparse.Namespace], int]) -> None:
    """Refuse a request whose estimated size, a function of the parsed
    arguments, exceeds physical memory, before anything of that size is
    allocated."""
    if args.qubits < 1:
        raise DomainError(f"qubit count must be >= 1, got {args.qubits}")
    need = bytes_needed(args)
    have = _physical_memory_bytes()
    if need > have:
        raise SizeError(
            f"{what} for {args.qubits} qubits needs about {need} bytes, "
            f"more than the {have} bytes of physical memory"
        )


def _state_bytes(args: argparse.Namespace) -> int:
    # Three D-vectors of complex128: the input, the working copy and the
    # kernel temporaries.
    return 3 * 16 * (1 << args.qubits)


def _circuit_bytes(args: argparse.Namespace) -> int:
    # baker_circuit(L) has L^2 + L - 1 gates.
    return CIRCUIT_BYTES_PER_GATE * (args.qubits * args.qubits + args.qubits - 1)


def _echo_bytes(args: argparse.Namespace) -> int:
    # The reference state and one batch of member columns, then the records
    # and the CSV text of every member.
    batch = min(args.ensemble, max(1, ECHO_BATCH_AMPLITUDES >> args.qubits))
    rows = (args.steps + 1) * args.ensemble
    return (_state_bytes(args) * (1 + batch) + ECHO_MEMBER_BYTES * args.ensemble
            + (ECHO_ROW_BYTES + 8 * args.qubits) * rows)


def _form_factor_bytes(args: argparse.Namespace) -> int:
    return FORM_FACTOR_ROW_BYTES * args.nmax


def cmd_iterate(args: argparse.Namespace) -> int:
    _check_memory("state", args, _state_bytes)
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
    result = iterate(state, args.steps)
    _emit(io.state_to_json(result) + "\n", args)
    return 0


def cmd_echo(args: argparse.Namespace) -> int:
    cfg = EchoConfig(args.qubits, args.steps, args.delta, args.ensemble, args.seed)
    _check_memory("echo states, records and CSV", args, _echo_bytes)
    records = loschmidt_echo(cfg)
    _emit(io.echo_records_to_csv(records), args, args.seed)
    return 0


def cmd_formfactor(args: argparse.Namespace) -> int:
    _check_memory("form factor records and CSV", args, _form_factor_bytes)
    values = form_factor(args.qubits, args.nmax)
    _emit(io.form_factor_to_csv(values), args)
    return 0


def cmd_classical(args: argparse.Namespace) -> int:
    pt = ClassicalPoint(args.q, args.p)
    if args.steps < 0:
        raise DomainError(f"step count must be >= 0, got {args.steps}")
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
        help=f"raise the matrix dump limit from {MATRIX_DUMP_LIMIT} to "
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
        return args.func(args)
    except (ValueError, OSError, OverflowError, MemoryError) as exc:
        # ValueError covers DomainError, ParseError and sizes numpy refuses.
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
