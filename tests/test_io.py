import json

import numpy as np
import pytest

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
from qbaker.io import (
    circuit_to_text,
    echo_records_to_csv,
    form_factor_to_csv,
    matrix_to_json,
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
    obj = json.loads(matrix_to_json(mat, 1))
    assert obj["qubits"] == 1
    assert obj["dim"] == 2
    assert obj["entries"][1][1] == [0.0, 1.0]


def test_matrix_json_bytes_keep_signed_zeros_and_subnormals():
    mat = np.array([[complex(-0.0, 5e-324), 0.1], [-2.5j, complex(1.0, -0.0)]])
    assert matrix_to_json(mat, 1) == (
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
