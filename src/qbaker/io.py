"""File formats: state JSON, circuit text, matrix JSON, CSV, run manifests.

All file writes are atomic (temp file in the target directory, then
rename). Files are read and written as UTF-8 whatever the locale. Floats
are serialized with Python's shortest round-trip repr, so reading back
reproduces the exact double-precision bits.

State and matrix JSON are streamed JSON_SLICE_PAIRS [re, im] pairs at a
time, with the bytes `json.dumps` gives for the whole list. The state
reader has three tiers, each taken only when the one before declines:
  1. Text in the writer's exact layout, every number a finite JSON float,
     is checked and converted READ_SLICE_CHARS characters at a time
     straight into the array, with no Python object per number.
  2. Any other text goes to `json.loads`; if every entry is a pair of
     finite numbers, the lists are converted in one array pass.
  3. Otherwise the entries are checked one by one, to name the first bad
     one. Every outcome and error message is that of tiers 2 and 3 alone.
"""
from __future__ import annotations

import itertools
import json
import math
import os
import re
import tempfile
from collections.abc import Iterable, Iterator
from dataclasses import dataclass, field
from datetime import datetime, timezone
from typing import Any

import numpy as np

from .dynamics import TrajectoryRecord
from .errors import ParseError
from .gates import Circuit, GateKind
from .kernels import get_num_threads
from .state import StateVector


def _atomic_write_text(chunks: Iterable[str], path: str) -> None:
    """Write through a temp file beside `path`; an OSError names `path`."""
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


def write_text_file(chunks: Iterable[str], path: str) -> None:
    """Write the concatenation of the text chunks to `path`, atomically."""
    _atomic_write_text(chunks, path)


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


def _pairs_array(amps: list) -> np.ndarray | None:
    """The entries as a (D, 2) float64 array if every one is a pair of
    finite numbers (not bools), else None."""
    if set(map(type, amps)) != {list} or set(map(len, amps)) != {2}:
        return None
    if not set(map(type, itertools.chain.from_iterable(amps))) <= {float, int}:
        return None
    # From the flat stream: np.array on the nested lists is 2x slower and
    # holds a 32-byte conversion record per pair while it runs.
    try:
        pairs = np.fromiter(itertools.chain.from_iterable(amps), dtype=np.float64,
                            count=2 * len(amps)).reshape(-1, 2)
    except OverflowError:
        return None
    return pairs if np.isfinite(pairs).all() else None


# Character classes of the writer's layout, as bytes.translate tables:
# _CLASS maps each byte to its class (0 for any other byte), and
# _FOLLOWS[a << 4 | b] is 1 where class b may follow class a.
_DIGIT, _ZERO, _DOT, _EXP, _PLUS, _MINUS, _SPACE, _OPEN, _COMMA, _CLOSE = range(1, 11)


def _layout_tables() -> tuple[bytes, bytes]:
    classes, follows = bytearray(256), bytearray(256)
    for cls, chars in ((_DIGIT, b"123456789"), (_ZERO, b"0"), (_DOT, b"."), (_EXP, b"eE"),
                       (_PLUS, b"+"), (_MINUS, b"-"), (_SPACE, b" "), (_OPEN, b"["),
                       (_COMMA, b","), (_CLOSE, b"]")):
        for char in chars:
            classes[char] = cls
    for before, after in (((_DIGIT, _ZERO), (_DIGIT, _ZERO, _DOT, _EXP, _COMMA, _CLOSE)),
                          ((_DOT, _PLUS, _MINUS), (_DIGIT, _ZERO)),
                          ((_EXP,), (_DIGIT, _ZERO, _PLUS, _MINUS)),
                          ((_OPEN,), (_DIGIT, _ZERO, _MINUS)),
                          ((_SPACE,), (_DIGIT, _ZERO, _MINUS, _OPEN)),
                          ((_COMMA,), (_SPACE,)),
                          ((_CLOSE,), (_COMMA,))):
        for a in before:
            for b in after:
                follows[a << 4 | b] = 1
    return bytes(classes), bytes(follows)


_CLASS, _FOLLOWS = _layout_tables()
_MARKS = np.array([_OPEN, _COMMA, _CLOSE, _COMMA], dtype=np.uint8)
_STATE_HEAD = re.compile(r'\{"qubits": ([1-9][0-9]{0,2}), "amplitudes": \[')
# Characters of text checked and converted at a time. At L = 18 the first
# tier then peaks at 11.7 MiB by tracemalloc; slices of 2^18 characters
# halved that at the same speed, but left the `iterate --state` process
# 4.5 MiB larger by ru_maxrss.
READ_SLICE_CHARS = 1 << 20


def _slice_pairs(data: bytes) -> np.ndarray | None:
    """The (n, 2) values of `data` if it is "[x, y]" pairs joined by ", ",
    each number a JSON float (with a '.' or an exponent), else None."""
    cls = np.frombuffer(data.translate(_CLASS), dtype=np.uint8)
    if cls[0] != _OPEN or cls[-1] != _CLOSE:
        return None
    codes = cls[:-1] << 4
    codes |= cls[1:]
    if 0 in codes.tobytes().translate(_FOLLOWS):
        return None
    # Brackets and commas read "[ , ] ," per pair, the last "," aside.
    marks = np.flatnonzero(cls >= _OPEN)
    seq = np.append(cls[marks], _COMMA)
    if len(seq) % 4 or (seq.reshape(-1, 4) != _MARKS).any():
        return None
    # Numbers start after each "[" and each ", " inside a pair.
    starts = np.empty(len(marks) // 2 + 1, dtype=np.intp)
    starts[0::2] = marks[0::4] + 1
    starts[1::2] = marks[1::4] + 2
    # No leading zero in the integer part.
    first = starts + (cls[starts] == _MINUS)
    if (cls[first[cls[first] == _ZERO] + 1] <= _ZERO).any():
        return None
    # Each number holds a '.', an exponent or both, in that order: the
    # numbers holding them run 0, 1, ..., once each or twice for ". e".
    found = np.flatnonzero((cls == _DOT) | (cls == _EXP))
    kind = cls[found]
    number = np.searchsorted(starts, found, "right") - 1
    step = np.diff(number)
    twice = step == 0
    if (len(found) == 0 or number[0] != 0 or number[-1] != len(starts) - 1 or (step > 1).any()
            or (kind[:-1][twice] != _DOT).any() or (kind[1:][twice] != _EXP).any()):
        return None
    values = np.fromstring(data.translate(None, b"[] "), dtype=np.float64, sep=",")
    return values.reshape(-1, 2) if len(values) == len(starts) else None


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
    # Compare bit lengths first, so a huge untrusted `qubits` is never
    # shifted. No list holds 2^63 entries, so the count can match only
    # below that, and only there is 2^qubits written out.
    if len(amps).bit_length() != qubits + 1 or len(amps) != 1 << qubits:
        expected = f"2^{qubits} = {1 << qubits}" if qubits < 63 else f"2^{qubits}"
        raise ParseError(f"field 'amplitudes': expected {expected} entries, got {len(amps)}")
    pairs = _pairs_array(amps)
    if pairs is not None:
        return StateVector(qubits, pairs.view(np.complex128).reshape(-1))
    # Some entry is not a pair of finite numbers: find and name the first.
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
    _atomic_write_text(itertools.chain(state_json_chunks(state), ("\n",)), path)


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
        for step in range(len(rec.fidelity)):
            lines.append(
                f"{step},{member},{float(rec.fidelity[step])!r},"
                f"{float(rec.position_entropy[step])!r},{float(rec.momentum_entropy[step])!r}"
            )
    return "\n".join(lines) + "\n"


def form_factor_to_csv(values: np.ndarray) -> str:
    lines = ["n,K"]
    for i, k in enumerate(values, start=1):
        lines.append(f"{i},{float(k)!r}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Run manifests: written next to every output file; replaying one must
# reproduce the data bytes (timestamp aside).

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
        return json.dumps(
            {
                "command": self.command,
                "params": self.params,
                "version": self.version,
                "seed": self.seed,
                "timestamp": self.timestamp,
                "numpy": self.numpy,
                "threads": self.threads,
            },
            indent=2,
        )

    @classmethod
    def from_json(cls, text: str) -> "RunManifest":
        try:
            obj = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ParseError(f"manifest is not valid JSON: {exc}") from None
        if not isinstance(obj, dict):
            raise ParseError("manifest must hold a JSON object")
        for key in ("command", "params", "version", "timestamp"):
            if key not in obj:
                raise ParseError(f"manifest missing field {key!r}")
        if not isinstance(obj["params"], dict):
            raise ParseError("manifest field 'params' must hold a JSON object")
        return cls(obj["command"], obj["params"], obj["version"], obj.get("seed"), obj["timestamp"],
                   obj.get("numpy"), obj.get("threads"))


def manifest_path(out_path: str) -> str:
    return out_path + ".manifest.json"


def write_manifest(manifest: RunManifest, out_path: str) -> None:
    _atomic_write_text((manifest.to_json(), "\n"), manifest_path(out_path))


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
