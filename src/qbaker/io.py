"""File formats: state JSON, circuit text, matrix JSON, CSV, run manifests.

All file writes are atomic (temp file in the target directory, then
rename). Files are read and written as UTF-8 whatever the locale. Floats
are serialized with Python's shortest round-trip repr, so reading back
reproduces the exact double-precision bits.

State and matrix JSON are streamed JSON_SLICE_PAIRS [re, im] pairs at a
time, with the bytes `json.dumps` gives for the whole list. The state
reader has two tiers, the second taken only when the first declines:
  1. Text in the writer's exact layout, every number a finite JSON float,
     is checked and converted READ_SLICE_CHARS characters at a time
     straight into the array, with no Python object per number.
  2. Any other text goes to `json.loads`, and its entries are checked and
     converted one by one, to name the first bad one. Every outcome and
     error message is that of this tier alone.
"""
from __future__ import annotations

import itertools
import json
import math
import os
import re
import tempfile
from collections.abc import Iterable, Iterator
from dataclasses import asdict, dataclass, field, fields
from datetime import datetime, timezone
from typing import Any

import numpy as np

from .dynamics import TrajectoryRecord
from .errors import ParseError
from .gates import Circuit, GateKind
from .kernels import get_num_threads
from .state import StateVector


def write_text_file(chunks: Iterable[str], path: str) -> None:
    """Write the joined text chunks to `path` atomically, through a temp file
    beside it that a failure removes; an OSError names `path`."""
    directory = os.path.dirname(os.path.abspath(path))
    tmp = None
    try:
        fd, tmp = tempfile.mkstemp(dir=directory, prefix=".qbaker-", suffix=".tmp")
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.writelines(chunks)
        os.replace(tmp, path)
    except BaseException as exc:
        if tmp is not None and os.path.exists(tmp):
            os.unlink(tmp)
        if isinstance(exc, OSError) and exc.errno is not None:
            raise OSError(exc.errno, exc.strerror, path) from None
        raise


def _json_object(text: str, what: str) -> dict:
    """The JSON object `text` holds; `what` names the file in errors."""
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{what} is not valid JSON: {exc}") from None
    except RecursionError:
        raise ParseError(f"{what} is nested too deeply") from None
    if not isinstance(obj, dict):
        raise ParseError(f"{what} must hold a JSON object")
    return obj


# [re, im] pairs encoded per slice, about 200 KB of text. With 256 to 4096
# pairs per slice `write_state` took the same 0.37 s at L = 18 (median of
# 7); 65536 pairs took 0.42 s and one slice 0.45 s.
JSON_SLICE_PAIRS = 4096
_ENCODER = json.JSONEncoder(check_circular=False)


def _json_chunks(head: str, pairs: np.ndarray) -> Iterator[str]:
    """Yield `head`, the text of `json.dumps(pairs.tolist())` and "}",
    encoding whole rows of about JSON_SLICE_PAIRS pairs at a time.

    `pairs` has shape (n, ..., 2): a state's pairs or a matrix's rows.
    """
    step = max(1, JSON_SLICE_PAIRS // math.prod(pairs.shape[1:-1]))
    yield head + "["
    for start in range(0, len(pairs), step):
        if start:
            yield ", "
        yield _ENCODER.encode(pairs[start:start + step].tolist())[1:-1]
    yield "]}"


# ---------------------------------------------------------------------------
# State JSON: {"qubits": L, "amplitudes": [[re, im], ...]}, index ascending.

def state_json_chunks(state: StateVector) -> Iterator[str]:
    """The text of `state_to_json(state)`, in pieces."""
    pairs = state.amplitudes.view(np.float64).reshape(-1, 2)
    return _json_chunks(f'{{"qubits": {state.qubits}, "amplitudes": ', pairs)


def state_to_json(state: StateVector) -> str:
    return "".join(state_json_chunks(state))


_STATE_HEAD = re.compile(r'\{"qubits": ([1-9][0-9]{0,2}), "amplitudes": \[')
# A JSON number (RFC 8259 section 6) with a fraction, an exponent or both,
# and one "[x, y]" pair of the writer's layout with the ", " after it,
# which another pair must follow. `subn` matches the pattern a pair at a
# time: a `fullmatch` of a repeated group held 17 MiB of backtracking
# state per slice. Possessive and atomic forms would not, but they are
# Python 3.11 syntax, and a parse of this file as Python 3.10 cannot see
# syntax inside a pattern.
_NUMBER = rb"-?(?:0|[1-9][0-9]*)(?:\.[0-9]+(?:[eE][+-]?[0-9]+)?|[eE][+-]?[0-9]+)"
_PAIR = re.compile(rb"\[" + _NUMBER + b", " + _NUMBER + rb"\](?:, (?=\[)|\Z)")
# Characters of text checked and converted at a time. At L = 18 the first
# tier then peaks at 7.1 MiB by tracemalloc, and at 4.8 MiB with slices of
# 2^18 characters; those left the `iterate --state` process 4.5 MiB larger
# by ru_maxrss.
READ_SLICE_CHARS = 1 << 20


def _slice_pairs(data: bytes) -> np.ndarray | None:
    """The (n, 2) values of `data` if it is "[x, y]" pairs joined by ", ",
    each number a JSON float (with a '.' or an exponent), else None."""
    rest, count = _PAIR.subn(b"", data)
    if rest:
        return None
    values = np.fromstring(data.translate(None, b"[] "), dtype=np.float64, sep=",")
    return values.reshape(-1, 2) if len(values) == 2 * count else None


def _canonical_state(text: str) -> StateVector | None:
    """The state of a file in the writer's exact layout whose numbers are
    all finite JSON floats, else None. The text is checked and converted a
    slice at a time, so nothing is built per pair beyond the array."""
    head = _STATE_HEAD.match(text)
    if head is None or not text.isascii():
        return None
    qubits = int(head[1])
    # Trailing JSON whitespace is looked for in the last 64 characters; a
    # longer run goes to json.loads.
    cut = max(len(text) - 64, 0)
    tail = text[cut:].rstrip(" \t\n\r")
    # The shortest pair, "[0.0, 0.0], ", has 12 characters.
    if not tail.endswith("]]}") or len(text) < 12 << qubits:
        return None
    out = np.empty((1 << qubits, 2))
    start, stop, filled = head.end(), cut + len(tail) - 2, 0
    while start < stop:
        end = text.find("], [", start + READ_SLICE_CHARS, stop)
        end = stop if end < 0 else end + 1
        pairs = _slice_pairs(text[start:end].encode("ascii"))
        if pairs is None or filled + len(pairs) > len(out):
            return None
        out[filled:filled + len(pairs)] = pairs
        start, filled = end + 2, filled + len(pairs)
    if filled < len(out) or not np.isfinite(out).all():
        return None
    return StateVector(qubits, out.view(np.complex128).reshape(-1))


def state_from_json(text: str) -> StateVector:
    state = _canonical_state(text)
    if state is not None:
        return state
    obj = _json_object(text, "state file")
    qubits = obj.get("qubits")
    if not isinstance(qubits, int) or isinstance(qubits, bool) or qubits < 1:
        raise ParseError(f"field 'qubits': expected positive integer, got {qubits!r}")
    amps = obj.get("amplitudes")
    if not isinstance(amps, list):
        raise ParseError("field 'amplitudes': expected a list")
    # Compare bit lengths first, so a huge untrusted `qubits` is never
    # shifted. No list holds 2^63 entries, so the count can match only
    # below that, and only there is 2^qubits written out.
    if len(amps).bit_length() != qubits + 1 or len(amps) != 1 << qubits:
        expected = f"2^{qubits} = {1 << qubits}" if qubits < 63 else f"2^{qubits}"
        raise ParseError(f"field 'amplitudes': expected {expected} entries, got {len(amps)}")
    # Entries are checked and converted one by one; an error names the
    # first bad one.
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


def write_state(state: StateVector, path: str) -> None:
    write_text_file(itertools.chain(state_json_chunks(state), ("\n",)), path)


def read_state(path: str) -> StateVector:
    with open(path, encoding="utf-8") as fh:
        return state_from_json(fh.read())


# ---------------------------------------------------------------------------
# Circuit text, written by `qbaker baker --form circuit` and never read
# back: header "qubits L"; one gate per line (A m | B m n | Bdg m n |
# SWAP m n); optional trailing "relabel p0 ... p(L-1)". B lines take a
# fourth token, the phase exponent, when it differs from n - m (gates
# relabeled by swap elision keep their phase).

def circuit_to_text(circuit: Circuit) -> str:
    lines = [f"qubits {circuit.qubits}"]
    for g in circuit.gates:
        if g.kind is GateKind.A:
            lines.append(f"A {g.m}")
        elif g.kind is GateKind.B:
            word = "Bdg" if g.conjugated else "B"
            suffix = "" if g.span == g.n - g.m else f" {g.span}"
            lines.append(f"{word} {g.m} {g.n}{suffix}")
        else:
            lines.append(f"SWAP {g.m} {g.n}")
    if not circuit.has_identity_relabel():
        lines.append("relabel " + " ".join(str(p) for p in circuit.relabel))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Matrix JSON: {"qubits": L, "dim": D, "entries": [[[re, im], ...] rows]}.

def matrix_json_chunks(mat: np.ndarray, qubits: int) -> Iterator[str]:
    """The matrix JSON text of the complex (D, D) `mat` on `qubits` qubits,
    in pieces of whole rows; joined, they are the bytes `json.dumps` gives
    for the whole object."""
    entries = mat.view(np.float64).reshape(*mat.shape, 2)
    return _json_chunks(f'{{"qubits": {qubits}, "dim": {mat.shape[0]}, "entries": ', entries)


# ---------------------------------------------------------------------------
# CSV time series. Header row mandatory, '.' decimal marks by construction.

def echo_records_to_csv(records: list[TrajectoryRecord]) -> str:
    lines = ["step,member,fidelity,pos_entropy,mom_entropy"]
    for member, rec in enumerate(records):
        # One tolist() per field gives the same Python floats as float() of
        # each numpy scalar, so the same repr bytes, without a scalar per value.
        rows = zip(rec.fidelity.tolist(), rec.position_entropy.tolist(),
                   rec.momentum_entropy.tolist())
        for step, (fid, pos, mom) in enumerate(rows):
            lines.append(f"{step},{member},{fid!r},{pos!r},{mom!r}")
    return "\n".join(lines) + "\n"


def form_factor_to_csv(values: np.ndarray) -> str:
    lines = ["n,K"]
    for i, k in enumerate(values, start=1):
        lines.append(f"{i},{float(k)!r}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Run manifests: written next to every output file; replaying one must
# reproduce the data bytes (timestamp aside).

# The JSON types each manifest field may hold, as Python types and in words.
# A bool is not an integer here.
_MANIFEST_TYPES = {
    "command": ((str,), "a string"),
    "params": ((dict,), "a JSON object"),
    "version": ((str,), "a string"),
    "seed": ((int, type(None)), "an integer or null"),
    "timestamp": ((str,), "a string"),
    "numpy": ((str, type(None)), "a string or null"),
    "threads": ((int, type(None)), "an integer or null"),
}


@dataclass(frozen=True)
class RunManifest:
    command: str
    params: dict[str, Any]
    version: str
    seed: int | None = None
    timestamp: str = field(default_factory=lambda: datetime.now(timezone.utc).isoformat())
    # The numpy version and kernel thread count of the run; None when read
    # from a manifest that predates them.
    numpy: str | None = np.__version__
    threads: int | None = field(default_factory=get_num_threads)

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2)

    @classmethod
    def from_json(cls, text: str) -> "RunManifest":
        obj = _json_object(text, "manifest")
        for key in ("command", "params", "version", "timestamp"):
            if key not in obj:
                raise ParseError(f"manifest missing field {key!r}")
        for key, (types, words) in _MANIFEST_TYPES.items():
            if type(obj.get(key)) not in types:
                raise ParseError(f"manifest field {key!r} must hold {words}")
        return cls(**{f.name: obj.get(f.name) for f in fields(cls)})


def manifest_path(out_path: str) -> str:
    return out_path + ".manifest.json"


def write_manifest(manifest: RunManifest, out_path: str) -> None:
    write_text_file((manifest.to_json(), "\n"), manifest_path(out_path))


def read_manifest(path: str) -> RunManifest:
    with open(path, encoding="utf-8") as fh:
        return RunManifest.from_json(fh.read())


def manifest_to_argv(manifest: RunManifest, out: str | None = None) -> list[str]:
    """Rebuild a command line that reproduces the manifest's run.

    Pass `out` to redirect the output file (the recorded path is skipped).
    """
    argv = [manifest.command]
    for key, value in manifest.params.items():
        if key == "out" and out is not None:
            continue
        if value is None or value is False:
            continue
        flag = "--" + key.replace("_", "-")
        if value is True:
            argv.append(flag)
        else:
            argv.extend([flag, str(value)])
    if out is not None:
        argv.extend(["--out", out])
    return argv
