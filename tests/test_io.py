import hashlib
import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import state_from_json_loop

from qbaker import (
    Circuit,
    ParseError,
    StateVector,
    a_gate,
    b_gate,
    baker_circuit,
    basis_state,
    elide_swaps,
    random_state,
    swap_gate,
)
from qbaker import io
from qbaker.io import (
    circuit_to_text,
    echo_records_to_csv,
    form_factor_to_csv,
    matrix_json_chunks,
    read_state,
    state_from_json,
    state_to_json,
    write_state,
)


# --- state JSON -------------------------------------------------------------

def test_state_roundtrip_is_bitwise(tmp_path):
    s = random_state(4, 99)
    path = str(tmp_path / "state.json")
    write_state(s, path)
    back = read_state(path)
    assert back.qubits == 4
    assert np.array_equal(back.amplitudes, s.amplitudes)


def test_state_roundtrip_basis(tmp_path):
    path = str(tmp_path / "q3.json")
    write_state(basis_state(2, 3), path)
    back = read_state(path)
    assert np.array_equal(back.amplitudes, basis_state(2, 3).amplitudes)


def test_state_json_shape():
    obj = json.loads(state_to_json(basis_state(1, 1)))
    assert obj == {"qubits": 1, "amplitudes": [[0.0, 0.0], [1.0, 0.0]]}


def test_state_json_bytes_keep_signed_zeros_and_subnormals():
    s = StateVector(1, np.array([complex(-0.0, 5e-324), complex(0.1, -0.0)]))
    assert state_to_json(s) == '{"qubits": 1, "amplitudes": [[-0.0, 5e-324], [0.1, -0.0]]}'


def test_write_state_bytes_are_pinned(tmp_path):
    # 16384 pairs: four slices of JSON_SLICE_PAIRS, so the slice joins are
    # inside the pinned bytes.
    path = tmp_path / "state.json"
    write_state(random_state(14, 99), str(path))
    assert hashlib.sha256(path.read_bytes()).hexdigest() == (
        "4d765b361d26ee287830e5f3c9eb656a0c3f71363a9aa6b4a84a149b1f42b967"
    )


@pytest.mark.parametrize("slice_pairs", [3, 33])
def test_sliced_json_is_json_dumps_of_the_whole_list(monkeypatch, slice_pairs):
    # 3 pairs per slice splits the 32 pairs of the state unevenly and gives
    # the 8 x 8 matrix one row per slice; 33 holds the state in one slice
    # and gives the matrix slices of 4 rows.
    monkeypatch.setattr(io, "JSON_SLICE_PAIRS", slice_pairs)
    state = random_state(5, 7)
    amps = state.amplitudes.copy()
    amps[[0, 5, 31]] = [complex(-0.0, 5e-324), complex(0.0, -0.0), complex(1e300, -2.5e-310)]
    state = StateVector(5, amps)
    pairs = amps.view(np.float64).reshape(-1, 2).tolist()
    assert state_to_json(state) == json.dumps({"qubits": 5, "amplitudes": pairs})
    mat = np.outer(amps[:8], amps[8:16].conj())
    mat[3, 3] = complex(-0.0, 0.0)
    entries = mat.view(np.float64).reshape(8, 8, 2).tolist()
    expect = json.dumps({"qubits": 3, "dim": 8, "entries": entries})
    assert "".join(matrix_json_chunks(mat, 3)) == expect


def test_json_writers_hold_one_slice(tmp_path):
    # Whole lists would hold 128 bytes per pair, 4 MiB for the state and
    # 8 MiB for the matrix. One slice of 4096 pairs holds under 1 MiB.
    state = random_state(15, 2)
    mat = np.full((256, 256), complex(0.1, -0.3))
    writes = (lambda: write_state(state, str(tmp_path / "s.json")),
              lambda: io.write_text_file(io.matrix_json_chunks(mat, 8), str(tmp_path / "m.json")))
    for write in writes:
        tracemalloc.start()
        try:
            write()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 << 20


def _read_outcome(reader, text):
    try:
        state = reader(text)
    except ParseError as exc:
        return "error", str(exc)
    return "ok", state.qubits, state.amplitudes.tobytes()


def _pairs_text(entries, qubits=1):
    return '{"qubits": %d, "amplitudes": [%s]}' % (qubits, ", ".join(entries))


READER_CASES = {
    "ints": ["[0, -0]", "[9007199254740993, 1]"],
    "ints past int64": ["[18446744073709551617, -9223372036854776833]", "[9223372036854776833, 0]"],
    "int rounding to the largest float": [f"[{2**1024 - 2**970 - 1}, 0]", "[0, 0]"],
    "int past the float range": ["[0, 0]", "[1" + "0" * 400 + ", 0]"],
    "int past the float range, first": ["[-1" + "0" * 400 + ", 0]", "[0, 0]"],
    "true": ["[true, 0]", "[0, 0]"],
    "false in the last entry": ["[0, 0]", "[0.5, false]"],
    "null": ["[0, null]", "[0, 0]"],
    "string": ["[0, 0]", '["1.0", 0]'],
    "NaN": ["[NaN, 0]", "[0, 0]"],
    "Infinity": ["[0, 0]", "[0, Infinity]"],
    "-Infinity": ["[-Infinity, 0]", "[0, 0]"],
    "1e400": ["[0, 0]", "[1e400, 0]"],
    "short pair first": ["[1.0]", "[0, 0]"],
    "long pair last": ["[1.0, 0.0]", "[0.0, 0.0, 0.0]"],
    "empty pair": ["[]", "[0, 0]"],
    "nested list": ["[[1.0], 0.0]", "[0, 0]"],
    "number as entry": ["[0.5, 0.5]", "0.5"],
    "object as entry": ['{"re": 1}', "[0, 0]"],
    "mixed ints and floats": ["[1, 0.5]", "[-0.0, 2]"],
    "signed zeros and subnormals": ["[-0.0, 5e-324]", "[0.0, -2.2250738585072014e-308]"],
}


@pytest.mark.parametrize("case", sorted(READER_CASES))
def test_state_reader_matches_the_entry_loop(case):
    text = _pairs_text(READER_CASES[case])
    assert _read_outcome(state_from_json, text) == _read_outcome(state_from_json_loop, text)


def test_state_reader_matches_the_entry_loop_on_mixed_files():
    rng = np.random.default_rng(3)
    for trial in range(20):
        values = rng.standard_normal((16, 2))
        cells = [repr(float(v)) if rng.random() < 0.5 else str(int(v * 1e6)) for v in values.ravel()]
        entries = [f"[{re}, {im}]" for re, im in zip(cells[0::2], cells[1::2])]
        if trial % 2:
            entries[rng.integers(16)] = "[0.5, true]"
        text = _pairs_text(entries, qubits=4)
        assert _read_outcome(state_from_json, text) == _read_outcome(state_from_json_loop, text)


# Tokens in the writer's layout that JSON refuses; Python's float() or
# np.fromstring take most of them.
NOT_JSON_NUMBERS = ["+1.0", ".5", "5.", "5.e3", "-.5", "01.5", "-01.5", "1.0.0", "1e", "1e+",
                    "1E+-5", "", "1e5e5", "1e5.0", "--1.0", "1.0-2"]


@pytest.mark.parametrize("token", NOT_JSON_NUMBERS)
def test_state_reader_refuses_non_json_numbers_in_the_writer_layout(token):
    for entries in ([f"[{token}, 0.0]", "[1.0, 0.0]"], ["[1.0, 0.0]", f"[0.0, {token}]"]):
        text = _pairs_text(entries)
        assert io._canonical_state(text) is None
        outcome = _read_outcome(state_from_json, text)
        assert outcome[0] == "error" and outcome == _read_outcome(state_from_json_loop, text)


LAYOUT_VARIANTS = {
    "no space after the comma": '{"qubits": 1, "amplitudes": [[1.0,0.0], [0.0, 0.0]]}',
    "two spaces": '{"qubits": 1, "amplitudes": [[1.0,  0.0], [0.0, 0.0]]}',
    "indent=1": json.dumps({"qubits": 1, "amplitudes": [[1.0, 0.0], [0.0, 0.0]]}, indent=1),
    "keys swapped": '{"amplitudes": [[1.0, 0.0], [0.0, 0.0]], "qubits": 1}',
    "a non-ASCII digit": '{"qubits": 1, "amplitudes": [[1.0, 0.0], [\u0661.0, 0.0]]}',
    "text after ]}": '{"qubits": 1, "amplitudes": [[1.0, 0.0], [0.0, 0.0]]} x',
    "qubits 1000": '{"qubits": 1000, "amplitudes": [[1.0, 0.0], [0.0, 0.0]]}',
    "qubits 999": '{"qubits": 999, "amplitudes": [[1.0, 0.0], [0.0, 0.0]]}',
    "an int first": '{"qubits": 1, "amplitudes": [[-0, 1.0], [0.0, 0.0]]}',
    "an int inside": '{"qubits": 1, "amplitudes": [[1.0, -0], [0.0, 0.0]]}',
    "an int last": '{"qubits": 1, "amplitudes": [[1.0, 0.0], [0.0, -0]]}',
    "a bracket for the brace": '{"qubits": 1, "amplitudes": [[1.0, 0.0], [0.0, 0.0]]]',
    "a bare number between pairs": '{"qubits": 1, "amplitudes": [[1.0, 0.0], 0.0], 0.0]]}',
    "pairs in pairs": '{"qubits": 1, "amplitudes": [[1.0, [0.0, [0.0, 0.0]]]}',
    "space inside the list": '{"qubits": 1, "amplitudes": [ [1.0, 0.0], [0.0, 0.0]]}',
    "short pair": '{"qubits": 1, "amplitudes": [[1.0], [0.0, 0.0, 0.0]]}',
    "long pair": '{"qubits": 1, "amplitudes": [[1.0, 0.0, 0.0], [0.0, 0.0]]}',
    "nested pair": '{"qubits": 1, "amplitudes": [[[1.0, 0.0]], [0.0, 0.0]]}',
    "one long pair": '{"qubits": 1, "amplitudes": [[1.000000000000000000000000, 0.0]]}',
    "three pairs": '{"qubits": 1, "amplitudes": [[1.0, 0.0], [0.0, 0.0], [0.0, 0.0]]}',
    "1e400": '{"qubits": 1, "amplitudes": [[1.0, 0.0], [1e400, 0.0]]}',
}


@pytest.mark.parametrize("case", sorted(LAYOUT_VARIANTS))
def test_state_reader_sends_other_layouts_to_the_json_reader(case):
    text = LAYOUT_VARIANTS[case]
    assert io._canonical_state(text) is None
    assert _read_outcome(state_from_json, text) == _read_outcome(state_from_json_loop, text)


@pytest.mark.parametrize("token", ["-0.0", "5e-324", "1.7976931348623157e308", "1e-05",
                                   "1.5e-0005", "-1.5E+3", "1e-400", "-2.5e-400",
                                   "0." + "3" * 400, "1" + "0" * 308 + ".5"])
def test_state_reader_converts_json_floats_bit_exactly(token):
    text = _pairs_text([f"[{token}, 0.5]", f"[0.25, {token}]"]) + " \t\r\n"
    assert io._canonical_state(text) is not None
    assert _read_outcome(state_from_json, text) == _read_outcome(state_from_json_loop, text)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 5).flatmap(
    lambda q: st.lists(st.integers(0, 2**64 - 1), min_size=2 << q, max_size=2 << q)))
def test_written_float_bits_read_back(bits):
    values = np.array(bits, dtype=np.uint64).view(np.float64)
    values[~np.isfinite(values)] = 0.5
    state = StateVector(len(values).bit_length() - 2, values.view(np.complex128))
    text = "".join(io.state_json_chunks(state))
    assert io._canonical_state(text) is not None
    assert state_from_json(text).amplitudes.tobytes() == values.tobytes()


def test_state_reader_converts_written_files_in_one_pass(monkeypatch):
    # Slices of 100 characters cut the L = 6 file at many pair joins.
    monkeypatch.setattr(io, "READ_SLICE_CHARS", 100)
    for state in (random_state(6, 1), basis_state(3, 2)):
        back = io._canonical_state(state_to_json(state))
        assert back is not None and back.amplitudes.tobytes() == state.amplitudes.tobytes()


def test_state_reader_reads_other_layouts_as_the_entry_loop():
    pairs = random_state(5, 4).amplitudes.view(np.float64).reshape(-1, 2)
    floats = {"qubits": 5, "amplitudes": pairs.tolist()}
    ints = {"qubits": 5, "amplitudes": (pairs * 1e6).astype(int).tolist()}
    for text in (json.dumps(floats, indent=1), json.dumps(floats, separators=(",", ":")),
                 json.dumps(ints)):
        assert io._canonical_state(text) is None
        outcome = _read_outcome(state_from_json, text)
        assert outcome[0] == "ok" and outcome == _read_outcome(state_from_json_loop, text)


# Tokens from the characters of JSON numbers, float reprs, and reprs with a
# few such characters around them (leading zeros, doubled signs, ...).
_NUMBER_CHARS = "0123456789.eE+-"
_FLOAT_REPRS = st.floats(allow_nan=False, allow_infinity=False).map(repr)
_TOKENS = st.one_of(
    st.text(_NUMBER_CHARS, max_size=10),
    _FLOAT_REPRS,
    st.tuples(st.text(_NUMBER_CHARS, max_size=2), _FLOAT_REPRS,
              st.text(_NUMBER_CHARS, max_size=2)).map("".join),
)


def _is_json_float(token):
    try:
        value = json.loads(token)
    except json.JSONDecodeError:
        return False
    return type(value) is float and np.isfinite(value)


@settings(max_examples=300, deadline=None)
@given(_TOKENS, st.booleans())
def test_first_tier_takes_exactly_the_json_floats(token, second):
    pair = f"[0.25, {token}]" if second else f"[{token}, 0.25]"
    text = _pairs_text([pair, "[0.5, -0.0]"])
    accepted = io._canonical_state(text)
    assert (accepted is not None) == _is_json_float(token)
    if accepted is not None:
        assert accepted.amplitudes.tobytes() == state_from_json_loop(text).amplitudes.tobytes()
    # A slice ends at a pair, never at the ", " after one.
    assert io._slice_pairs(pair.encode() + b", ") is None


def test_written_file_is_read_without_json_lists():
    text = state_to_json(random_state(18, 6)) + "\n"
    peaks = []
    for read in (lambda: json.loads(text), lambda: state_from_json(text)):
        tracemalloc.start()
        try:
            read()
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert io._canonical_state(text) is not None
    assert peaks[1] < peaks[0] / 2


def test_state_wrong_amplitude_count():
    with pytest.raises(ParseError, match="amplitudes"):
        state_from_json('{"qubits": 2, "amplitudes": [[1.0, 0.0]]}')


def test_state_nan_amplitude():
    with pytest.raises(ParseError, match=r"amplitudes\[1\]"):
        state_from_json('{"qubits": 1, "amplitudes": [[1.0, 0.0], [NaN, 0.0]]}')


def test_state_malformed_entries():
    with pytest.raises(ParseError, match="qubits"):
        state_from_json('{"qubits": "x", "amplitudes": []}')
    with pytest.raises(ParseError, match=r"amplitudes\[0\]"):
        state_from_json('{"qubits": 1, "amplitudes": [[1.0], [0.0, 0.0]]}')
    with pytest.raises(ParseError, match=r"amplitudes\[1\]"):
        state_from_json('{"qubits": 1, "amplitudes": [[1.0, 0.0], [0, 1' + "0" * 400 + ']]}')
    with pytest.raises(ParseError):
        state_from_json("not json")
    with pytest.raises(ParseError, match="'amplitudes': expected a list"):
        state_from_json('{"qubits": 1, "amplitudes": {"0": [1.0, 0.0], "1": [0.0, 0.0]}}')
    with pytest.raises(ParseError, match=r"expected 2\^2 = 4 entries, got 1"):
        state_from_json('{"qubits": 2, "amplitudes": [[1.0, 0.0]]}')
    # A huge qubit count is refused without building 2^qubits.
    with pytest.raises(ParseError, match=r"expected 2\^20000 entries, got 0"):
        state_from_json('{"qubits": 20000, "amplitudes": []}')
    with pytest.raises(ParseError, match=r"expected 2\^100000000000 entries, got 0"):
        state_from_json('{"qubits": 100000000000, "amplitudes": []}')


# --- circuit text -----------------------------------------------------------

def test_circuit_text_example():
    text = circuit_to_text(Circuit(2, (a_gate(1), b_gate(0, 1, conjugated=True), swap_gate(0, 1))))
    assert text == "qubits 2\nA 1\nBdg 0 1\nSWAP 0 1\n"


def test_circuit_text_elided_baker_golden():
    # Swap elision leaves B gates whose phase exponent differs from n - m,
    # written as a fourth token, and a relabel line.
    assert circuit_to_text(elide_swaps(baker_circuit(3))) == (
        "qubits 3\n"
        "A 1\n"
        "Bdg 0 1\n"
        "A 0\n"
        "A 2\n"
        "B 0 2 1\n"
        "B 1 2 2\n"
        "A 0\n"
        "B 0 1\n"
        "A 1\n"
        "relabel 1 2 0\n"
    )


def test_circuit_text_relabeled_phase_survives():
    c = elide_swaps(Circuit(3, (swap_gate(1, 2), b_gate(0, 2))))
    assert circuit_to_text(c) == "qubits 3\nB 0 1 2\nrelabel 0 2 1\n"


# --- matrix JSON ------------------------------------------------------------

def test_matrix_json_shape():
    mat = np.array([[1.0, 0.0], [0.0, 1.0j]])
    obj = json.loads("".join(matrix_json_chunks(mat, 1)))
    assert obj["qubits"] == 1
    assert obj["dim"] == 2
    assert obj["entries"][1][1] == [0.0, 1.0]


def test_matrix_json_bytes_keep_signed_zeros_and_subnormals():
    mat = np.array([[complex(-0.0, 5e-324), 0.1], [-2.5j, complex(1.0, -0.0)]])
    assert "".join(matrix_json_chunks(mat, 1)) == (
        '{"qubits": 1, "dim": 2, "entries": '
        '[[[-0.0, 5e-324], [0.1, 0.0]], [[-0.0, -2.5], [1.0, -0.0]]]}'
    )


# --- CSV --------------------------------------------------------------------

def _strict_csv_check(text, columns):
    lines = text.splitlines()
    assert lines[0] == ",".join(columns)
    for line in lines[1:]:
        cells = line.split(",")
        assert len(cells) == len(columns)
        for cell in cells:
            float(cell)  # parseable, '.' decimal mark
            assert "," not in cell


def test_echo_csv_strict(tmp_path):
    from qbaker import EchoConfig, loschmidt_echo

    records = loschmidt_echo(EchoConfig(qubits=2, steps=3, delta=0.1, ensemble=2, seed=0))
    text = echo_records_to_csv(records)
    _strict_csv_check(text, ["step", "member", "fidelity", "pos_entropy", "mom_entropy"])
    assert len(text.splitlines()) == 1 + 2 * 4  # header + members x (steps+1)


def test_form_factor_csv_strict():
    from qbaker import form_factor

    text = form_factor_to_csv(form_factor(2, 5))
    _strict_csv_check(text, ["n", "K"])
    rows = text.splitlines()[1:]
    assert [row.split(",")[0] for row in rows] == ["1", "2", "3", "4", "5"]


# --- run manifests ----------------------------------------------------------

@pytest.mark.parametrize("text, message", [
    ("5", "must hold a JSON object"),
    ("null", "must hold a JSON object"),
    ('"command params version timestamp"', "must hold a JSON object"),
    ('["command", "params", "version", "timestamp"]', "must hold a JSON object"),
    ('{"command": "iterate", "params": 3, "version": "1", "timestamp": "t"}',
     "'params' must hold a JSON object"),
    ('{"command": "iterate", "params": ["qubits"], "version": "1", "timestamp": "t"}',
     "'params' must hold a JSON object"),
    ('{"command": "iterate", "params": {}, "version": "1"}', "missing field 'timestamp'"),
    ("{", "not valid JSON"),
    pytest.param("[" * 100000, "nested too deeply", id="deeply nested"),
    ('{"command": 5, "params": {}, "version": "x", "timestamp": "t"}',
     "'command' must hold a string"),
    ('{"command": "iterate", "params": {}, "version": 3, "timestamp": "t"}',
     "'version' must hold a string"),
    ('{"command": "iterate", "params": {}, "version": "1", "timestamp": null}',
     "'timestamp' must hold a string"),
    ('{"command": "iterate", "params": {}, "version": "1", "timestamp": "t", "seed": "abc"}',
     "'seed' must hold an integer or null"),
    ('{"command": "echo", "params": {}, "version": "1", "timestamp": "t", "seed": true}',
     "'seed' must hold an integer or null"),
    ('{"command": "iterate", "params": {}, "version": "1", "timestamp": "t", "threads": [1]}',
     "'threads' must hold an integer or null"),
    ('{"command": "iterate", "params": {}, "version": "1", "timestamp": "t", "threads": 1.0}',
     "'threads' must hold an integer or null"),
    ('{"command": "iterate", "params": {}, "version": "1", "timestamp": "t", "numpy": 2}',
     "'numpy' must hold a string or null"),
])
def test_manifest_reader_rejects_malformed_input(text, message):
    with pytest.raises(ParseError, match=message):
        io.RunManifest.from_json(text)


def test_manifest_json_bytes_are_pinned():
    manifest = io.RunManifest(
        "iterate", {"qubits": 3, "state": None, "basis": 5, "steps": 2, "out": "s.json"},
        "0.1.0", None, "2026-01-01T00:00:00+00:00", "2.4.6", 2)
    text = manifest.to_json()
    assert text == (
        '{\n  "command": "iterate",\n  "params": {\n    "qubits": 3,\n    "state": null,\n'
        '    "basis": 5,\n    "steps": 2,\n    "out": "s.json"\n  },\n  "version": "0.1.0",\n'
        '  "seed": null,\n  "timestamp": "2026-01-01T00:00:00+00:00",\n  "numpy": "2.4.6",\n'
        '  "threads": 2\n}'
    )
    assert io.RunManifest.from_json(text) == manifest


def test_write_text_file_leaves_no_temp_file_when_the_chunks_fail(tmp_path):
    path = tmp_path / "out.txt"
    path.write_text("before")

    def chunks():
        yield "partial"
        raise RuntimeError("chunk failed")

    with pytest.raises(RuntimeError, match="chunk failed"):
        io.write_text_file(chunks(), str(path))
    assert path.read_text() == "before"
    assert [p.name for p in tmp_path.iterdir()] == ["out.txt"]
