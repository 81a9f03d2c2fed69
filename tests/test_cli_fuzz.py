"""Fuzz every subcommand in-process: each input is accepted (exit 0),
rejected with exactly one `error:` line (exit 1), or a usage error (exit 2).

Sizes stay where an accepted run is cheap or a guard refuses it before any
allocation. Huge --ensemble, --nmax and --steps values are left out: the
size of their output is not guarded yet.
"""
import contextlib
import io

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qbaker.cli import main

QUBITS = st.one_of(st.integers(-2, 5), st.sampled_from([40, 62, 100, 10**6]))
SMALL = st.integers(-2, 5)
REALS = st.one_of(
    st.floats(-2.0, 2.0),
    st.sampled_from([float("nan"), float("inf"), float("-inf")]),
)
SEEDS = st.one_of(st.integers(-1, 3), st.just(2**64))


def _flags(**values) -> list[str]:
    # --flag=value, so negative and non-finite values reach the command.
    return [f"--{name}={value}" for name, value in values.items()]


@st.composite
def _baker(draw):
    form = draw(st.sampled_from(["matrix", "circuit"]))
    argv = ["baker", *_flags(qubits=draw(QUBITS), form=form)]
    return argv + (["--allow-large"] if draw(st.booleans()) else [])


COMMANDS = {
    "qft-check": st.builds(lambda q: ["qft-check", *_flags(qubits=q)], QUBITS),
    "weyl-check": st.builds(lambda q: ["weyl-check", *_flags(qubits=q)], QUBITS),
    "baker": _baker(),
    "iterate": st.builds(
        lambda q, b, s: ["iterate", *_flags(qubits=q, basis=b, steps=s)],
        QUBITS, st.integers(-2, 8), SMALL,
    ),
    "echo": st.builds(
        lambda q, s, d, e, seed: [
            "echo", *_flags(qubits=q, steps=s, delta=d, ensemble=e, seed=seed)
        ],
        QUBITS, SMALL, REALS, SMALL, SEEDS,
    ),
    "formfactor": st.builds(
        lambda q, n: ["formfactor", *_flags(qubits=q, nmax=n)], QUBITS, st.integers(-2, 8)
    ),
    "classical": st.builds(
        lambda q, p, s: ["classical", *_flags(q=q, p=p, steps=s)], REALS, REALS, SMALL
    ),
}


@pytest.mark.parametrize("command", sorted(COMMANDS))
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_cli_exits_cleanly(command, data):
    argv = data.draw(COMMANDS[command])
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    stderr = err.getvalue()
    assert code in (0, 1, 2)
    assert "Traceback" not in stderr
    if code == 1:
        assert stderr.startswith("error:") and stderr.count("\n") == 1
