import hashlib
import json
import sys
import tracemalloc

import numpy as np
import pytest

from qbaker import ClassicalPoint, baker_matrix, basis_state, classical_step, iterate
from qbaker.cli import main
from qbaker.io import (
    manifest_path,
    manifest_to_argv,
    read_manifest,
    read_state,
    state_from_json,
)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_qft_check_passes(capsys):
    code, out, _ = run(capsys, "qft-check", "--qubits", "3")
    report = json.loads(out)
    assert code == 0
    assert report["pass"] is True
    assert report["frobenius_residual"] <= 1e-10


def test_weyl_check_passes(capsys):
    code, out, _ = run(capsys, "weyl-check", "--qubits", "4")
    report = json.loads(out)
    assert code == 0
    assert report["pass"] is True
    assert report["commutation_residual"] <= 1e-9
    assert report["periodicity_residual"] <= 1e-9


def test_classical_first_branch(capsys):
    code, out, _ = run(capsys, "classical", "--q", "0.25", "--p", "0.6", "--steps", "1")
    assert code == 0
    assert out == "0.5 0.3\n"


def test_classical_trajectory(capsys):
    code, out, _ = run(capsys, "classical", "--q", "0.25", "--p", "0.6", "--steps", "2")
    assert code == 0
    assert out.splitlines() == ["0.5 0.3", "1.0 0.15"]


@pytest.mark.parametrize("q, p, steps, text", [
    ("0.75", "0.2", "0", ""),
    ("1.0", "1.0", "3", "1.0 1.0\n1.0 1.0\n1.0 1.0\n"),
    ("0.0", "0.0", "2", "0.0 0.0\n0.0 0.0\n"),
    ("0.1", "0.9", "6",
     "0.2 0.45\n0.4 0.225\n0.8 0.1125\n0.6000000000000001 0.55625\n"
     "0.20000000000000018 0.778125\n0.40000000000000036 0.3890625\n"),
])
def test_classical_output_bytes(capsys, q, p, steps, text):
    code, out, _ = run(capsys, "classical", "--q", q, "--p", p, "--steps", steps)
    assert code == 0
    assert out == text


def test_classical_float_orbit_reaches_fixed_point(capsys):
    # 0.3 is a dyadic rational with a 54-bit expansion: the doubling runs out
    # of bits and the orbit sits on q = 1.0 from step 54 on.
    code, out, _ = run(capsys, "classical", "--q", "0.3", "--p", "0.6", "--steps", "57")
    lines = out.splitlines()
    assert code == 0
    assert lines[51:] == ["0.75 0.19999999999999987", "0.5 0.6", "1.0 0.3",
                          "1.0 0.65", "1.0 0.825", "1.0 0.9125"]


class _HashingSink:
    """Stand-in for stdout that keeps a digest of the text, not the text."""

    def __init__(self) -> None:
        self.digest = hashlib.sha256()

    def write(self, text: str) -> int:
        self.digest.update(text.encode())
        return len(text)


def test_classical_streams_its_orbit(monkeypatch):
    steps = 10**5
    sink = _HashingSink()
    monkeypatch.setattr(sys, "stdout", sink)
    tracemalloc.start()
    try:
        code = main(["classical", "--q", "0.3", "--p", "0.6", "--steps", str(steps)])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    expect = hashlib.sha256()
    pt = ClassicalPoint(0.3, 0.6)
    for _ in range(steps):
        pt = classical_step(pt)
        expect.update(f"{pt.q!r} {pt.p!r}\n".encode())
    assert code == 0
    assert sink.digest.hexdigest() == expect.hexdigest()
    assert peak < 1 << 18


def test_classical_domain_error(capsys):
    code, _, err = run(capsys, "classical", "--q", "1.5", "--p", "0.0", "--steps", "1")
    assert code == 1
    assert "error" in err


def test_usage_error_exit_two(capsys):
    code, _, err = run(capsys, "bogus-subcommand")
    assert code == 2
    code, _, err = run(capsys, "qft-check", "--qubits", "3", "--frobnicate")
    assert code == 2
    assert "usage" in err


def test_baker_circuit_output_matches_fixture(capsys):
    code, out, _ = run(capsys, "baker", "--qubits", "3", "--form", "circuit")
    assert code == 0
    assert out == (
        "qubits 3\n"
        "A 1\n"
        "Bdg 0 1\n"
        "A 0\n"
        "SWAP 0 1\n"
        "SWAP 0 2\n"
        "A 0\n"
        "B 0 1\n"
        "B 0 2\n"
        "A 1\n"
        "B 1 2\n"
        "A 2\n"
    )


def test_baker_matrix_output(capsys):
    code, out, _ = run(capsys, "baker", "--qubits", "2", "--form", "matrix")
    assert code == 0
    obj = json.loads(out)
    mat = np.array([[complex(re, im) for re, im in row] for row in obj["entries"]])
    assert np.linalg.norm(mat - baker_matrix(2)) <= 1e-12


def test_baker_matrix_size_limits(capsys):
    code, _, err = run(capsys, "baker", "--qubits", "11", "--form", "matrix")
    assert code == 1 and "error" in err
    # --allow-large raises the cap to 12, not beyond
    code, _, err = run(capsys, "baker", "--qubits", "13", "--form", "matrix", "--allow-large")
    assert code == 1 and "error" in err


def test_every_file_output_gets_a_manifest(tmp_path, capsys):
    cases = [
        ("qft.json", ["qft-check", "--qubits", "2"]),
        ("weyl.json", ["weyl-check", "--qubits", "2"]),
        ("circ.txt", ["baker", "--qubits", "2", "--form", "circuit"]),
        ("state.json", ["iterate", "--qubits", "2", "--basis", "0", "--steps", "1"]),
        ("ff.csv", ["formfactor", "--qubits", "2", "--nmax", "2"]),
    ]
    for name, argv in cases:
        out = tmp_path / name
        code, _, _ = run(capsys, *argv, "--out", str(out))
        assert code == 0
        assert out.exists()
        manifest = read_manifest(manifest_path(str(out)))
        assert manifest.command == argv[0]


@pytest.mark.parametrize("argv, keys", [
    (["qft-check", "--qubits", "2"], {"qubits", "out"}),
    (["weyl-check", "--qubits", "2"], {"qubits", "out"}),
    (["baker", "--qubits", "2", "--form", "circuit"], {"qubits", "form", "allow_large", "out"}),
    (["iterate", "--qubits", "2", "--basis", "0", "--steps", "1"],
     {"qubits", "state", "basis", "steps", "out"}),
    (["echo", "--qubits", "2", "--steps", "1", "--delta", "0.1", "--ensemble", "1",
      "--seed", "3"], {"qubits", "steps", "delta", "ensemble", "seed", "out"}),
    (["formfactor", "--qubits", "2", "--nmax", "2"], {"qubits", "nmax", "out"}),
])
def test_manifest_params_are_the_parsed_arguments(tmp_path, capsys, argv, keys):
    out = tmp_path / "out"
    code, _, _ = run(capsys, *argv, "--out", str(out))
    assert code == 0
    manifest = read_manifest(manifest_path(str(out)))
    assert set(manifest.params) == keys
    assert manifest.params["qubits"] == 2 and manifest.params["out"] == str(out)


def test_iterate_basis(capsys):
    code, out, _ = run(capsys, "iterate", "--qubits", "3", "--basis", "0", "--steps", "1")
    assert code == 0
    state = state_from_json(out)
    assert np.linalg.norm(state.amplitudes - baker_matrix(3)[:, 0]) <= 1e-10


def test_iterate_state_file_roundtrip(tmp_path, capsys):
    src = tmp_path / "in.json"
    dst = tmp_path / "out.json"
    from qbaker.io import write_state

    write_state(basis_state(2, 1), str(src))
    code, _, _ = run(
        capsys, "iterate", "--qubits", "2", "--state", str(src), "--steps", "2",
        "--out", str(dst),
    )
    assert code == 0
    expect = iterate(basis_state(2, 1), 2)
    assert np.array_equal(read_state(str(dst)).amplitudes, expect.amplitudes)


def test_iterate_qubit_mismatch(tmp_path, capsys):
    src = tmp_path / "in.json"
    from qbaker.io import write_state

    write_state(basis_state(2, 1), str(src))
    code, _, err = run(
        capsys, "iterate", "--qubits", "3", "--state", str(src), "--steps", "1"
    )
    assert code == 1 and "error" in err


def test_iterate_rejects_unnormalized_state_file(tmp_path, capsys):
    src = tmp_path / "zero.json"
    dst = tmp_path / "out.json"
    src.write_text(json.dumps({"qubits": 2, "amplitudes": [[0.0, 0.0]] * 4}))
    code, stdout, err = run(
        capsys, "iterate", "--qubits", "2", "--state", str(src), "--steps", "1",
        "--out", str(dst),
    )
    assert code == 1 and stdout == ""
    assert err.startswith("error:") and "normalized" in err and err.count("\n") == 1
    assert not dst.exists()


@pytest.mark.parametrize("qubits", ["-1", "0"])
@pytest.mark.parametrize("command", [
    ("qft-check",),
    ("weyl-check",),
    ("baker", "--form", "circuit"),
    ("baker", "--form", "matrix"),
    ("iterate", "--basis", "0", "--steps", "1"),
    ("echo", "--steps", "1", "--delta", "0.1", "--ensemble", "1", "--seed", "0"),
    ("formfactor", "--nmax", "2"),
])
def test_qubit_count_below_one_is_one_line_error(capsys, command, qubits):
    code, stdout, err = run(capsys, *command, "--qubits", qubits)
    assert code == 1 and stdout == ""
    assert err == f"error: qubit count must be >= 1, got {qubits}\n"


def test_qft_check_refuses_before_building_the_network(capsys, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("network built past the dense size guard")

    monkeypatch.setattr("qbaker.qft.qft_circuit", refuse)
    code, stdout, err = run(capsys, "qft-check", "--qubits", "1000")
    assert code == 1 and stdout == ""
    assert err.startswith("error:") and "refused" in err and err.count("\n") == 1


# Sizes numpy refuses before allocating anything; never use one it would try.
@pytest.mark.parametrize("argv", [
    ("iterate", "--qubits", "62", "--basis", "0", "--steps", "1"),
    ("iterate", "--qubits", "100", "--basis", "0", "--steps", "1"),
    ("echo", "--qubits", "100", "--steps", "1", "--delta", "0.1", "--ensemble", "1",
     "--seed", "0"),
    ("formfactor", "--qubits", "2", "--nmax", str(2**62)),
])
def test_sizes_numpy_refuses_are_one_line_errors(capsys, argv):
    code, stdout, err = run(capsys, *argv)
    assert code == 1 and stdout == ""
    assert err.startswith("error:") and err.count("\n") == 1


# The memory probe is patched down, so the guard fires at a size that
# would be cheap to allocate; no real allocation is ever attempted.
@pytest.mark.parametrize("argv", [
    ("iterate", "--qubits", "17", "--basis", "0", "--steps", "1"),
    ("echo", "--qubits", "17", "--steps", "1", "--delta", "0.1", "--ensemble", "1",
     "--seed", "0"),
    # 512 bytes for each of the 60^2 + 60 - 1 gates is about 1.8 MiB.
    ("baker", "--qubits", "60", "--form", "circuit"),
])
def test_state_size_guard_is_one_line_error(tmp_path, capsys, monkeypatch, argv):
    monkeypatch.setattr("qbaker.cli._physical_memory_bytes", lambda: 1 << 20)
    out = tmp_path / "out"
    code, stdout, err = run(capsys, *argv, "--out", str(out))
    assert code == 1 and stdout == ""
    assert err.startswith("error:") and "physical memory" in err and err.count("\n") == 1
    assert not out.exists()


def test_state_size_guard_admits_what_fits(capsys, monkeypatch):
    # 3 * 16 * 2^L bytes at L = 14 is 768 KiB, under the patched 1 MiB.
    monkeypatch.setattr("qbaker.cli._physical_memory_bytes", lambda: 1 << 20)
    code, stdout, _ = run(capsys, "iterate", "--qubits", "14", "--basis", "0", "--steps", "0")
    assert code == 0 and json.loads(stdout)["qubits"] == 14
    # 512 bytes for each of the 40^2 + 40 - 1 gates is about 0.8 MiB.
    code, stdout, _ = run(capsys, "baker", "--qubits", "40", "--form", "circuit")
    assert code == 0 and stdout.startswith("qubits 40\n")


def test_output_size_guard_counts_records_and_text(capsys, monkeypatch):
    # Under a patched 1 MiB: 4000 form-factor rows at 256 bytes fit and 5000
    # do not; 200 echo rows fit and 4000 (800 steps, 5 members) do not.
    monkeypatch.setattr("qbaker.cli._physical_memory_bytes", lambda: 1 << 20)
    code, stdout, _ = run(capsys, "formfactor", "--qubits", "2", "--nmax", "4000")
    assert code == 0 and stdout.count("\n") == 4001
    code, _, err = run(capsys, "formfactor", "--qubits", "2", "--nmax", "5000")
    assert code == 1 and "physical memory" in err and err.count("\n") == 1
    echo = ("echo", "--qubits", "3", "--delta", "0.1", "--ensemble", "5", "--seed", "0")
    code, stdout, _ = run(capsys, *echo, "--steps", "39")
    assert code == 0 and stdout.count("\n") == 201
    code, _, err = run(capsys, *echo, "--steps", "799")
    assert code == 1 and "physical memory" in err and err.count("\n") == 1


def test_echo_writes_csv_and_manifest(tmp_path, capsys):
    out = tmp_path / "echo.csv"
    code, _, _ = run(
        capsys, "echo", "--qubits", "3", "--steps", "4", "--delta", "0.05",
        "--ensemble", "3", "--seed", "11", "--out", str(out),
    )
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "step,member,fidelity,pos_entropy,mom_entropy"
    assert len(lines) == 1 + 3 * 5
    manifest = read_manifest(manifest_path(str(out)))
    assert manifest.command == "echo"
    assert manifest.seed == 11
    assert manifest.params["delta"] == 0.05


@pytest.mark.parametrize("delta", ["nan", "inf"])
def test_echo_non_finite_delta_is_one_line_error(tmp_path, capsys, delta):
    out = tmp_path / "echo.csv"
    code, stdout, err = run(
        capsys, "echo", "--qubits", "3", "--steps", "2", "--delta", delta,
        "--ensemble", "2", "--seed", "1", "--out", str(out),
    )
    assert code == 1 and stdout == ""
    assert err.startswith("error:") and err.count("\n") == 1
    assert not out.exists()


def test_manifest_replay_reproduces_bytes(tmp_path, capsys):
    first = tmp_path / "a.csv"
    code, _, _ = run(
        capsys, "echo", "--qubits", "3", "--steps", "5", "--delta", "0.1",
        "--ensemble", "4", "--seed", "7", "--out", str(first),
    )
    assert code == 0
    manifest = read_manifest(manifest_path(str(first)))
    second = tmp_path / "b.csv"
    code = main(manifest_to_argv(manifest, out=str(second)))
    capsys.readouterr()
    assert code == 0
    assert first.read_bytes() == second.read_bytes()


def test_formfactor_csv(tmp_path, capsys):
    out = tmp_path / "ff.csv"
    code, _, _ = run(
        capsys, "formfactor", "--qubits", "3", "--nmax", "6", "--out", str(out)
    )
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "n,K"
    assert len(lines) == 7
    from qbaker import form_factor

    expect = form_factor(3, 6)
    got = [float(line.split(",")[1]) for line in lines[1:]]
    assert np.allclose(got, expect, atol=0)


def test_threads_env_var(tmp_path, capsys, monkeypatch):
    import qbaker

    monkeypatch.setenv("QBAKER_THREADS", "2")
    code, out, _ = run(capsys, "qft-check", "--qubits", "2")
    assert code == 0
    assert qbaker.get_num_threads() == 2
    qbaker.set_num_threads(1)
    monkeypatch.setenv("QBAKER_THREADS", "zero")
    code, _, err = run(capsys, "qft-check", "--qubits", "2")
    assert code == 1 and "QBAKER_THREADS" in err
