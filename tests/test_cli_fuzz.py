"""Fuzz every subcommand in-process: each input is accepted (exit 0),
rejected with exactly one `error:` line (exit 1), or a usage error (exit 2).

Sizes stay where an accepted run is cheap or a guard refuses it before any
allocation. Huge `echo --ensemble`/`--steps` and `formfactor --nmax` values
are fuzzed on their own, with the memory probe patched down and the
commands' work replaced by a failure, so they must be refused from the
parsed arguments alone. (`iterate --steps` and `classical --steps` hold
nothing per step.) State files for `iterate --state` are fuzzed on their
own, with any `qubits` value and a short amplitude list.
"""
import contextlib
import io
import json
import os
import tempfile
from unittest import mock

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


def _run(argv: list[str]) -> tuple[int, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue()


@pytest.mark.parametrize("command", sorted(COMMANDS))
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_cli_exits_cleanly(command, data):
    code, stderr = _run(data.draw(COMMANDS[command]))
    assert code in (0, 1, 2)
    assert "Traceback" not in stderr
    if code == 1:
        assert stderr.startswith("error:") and stderr.count("\n") == 1


STATE_QUBITS = st.one_of(st.integers(-2, 10**12), st.sampled_from([True, "x", 2**64]))
SHORT_AMPLITUDES = st.lists(st.lists(st.floats(-1.0, 1.0), min_size=2, max_size=2), max_size=3)


@settings(max_examples=100, deadline=None)
@given(qubits=STATE_QUBITS, amplitudes=SHORT_AMPLITUDES)
def test_iterate_refuses_bad_state_files(qubits, amplitudes):
    # --qubits 2 needs four amplitudes and the file holds at most three, so
    # every file is refused, with its `qubits` read from untrusted input.
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "state.json")
        with open(path, "w") as fh:
            json.dump({"qubits": qubits, "amplitudes": amplitudes}, fh)
        code, stderr = _run(["iterate", "--qubits=2", f"--state={path}", "--steps=1"])
    assert code == 1
    assert "Traceback" not in stderr
    assert stderr.startswith("error:") and stderr.count("\n") == 1
    assert stderr[len("error:"):].strip()


HUGE = st.sampled_from([10**7, 10**9, 2**40, 10**18])
COUNTS = st.one_of(st.integers(1, 5), HUGE)
HUGE_COMMANDS = {
    "echo": st.one_of(
        st.tuples(st.integers(1, 5), HUGE, COUNTS), st.tuples(st.integers(1, 5), COUNTS, HUGE)
    ).map(lambda a: ["echo", *_flags(qubits=a[0], steps=a[1], delta=0.05, ensemble=a[2], seed=1)]),
    "formfactor": st.builds(
        lambda q, n: ["formfactor", *_flags(qubits=q, nmax=n)], st.integers(1, 5), HUGE
    ),
}


def _never_called(*args, **kwargs):
    raise AssertionError("work started past the size guard")


@pytest.mark.parametrize("command", sorted(HUGE_COMMANDS))
@settings(max_examples=50, deadline=None)
@given(data=st.data())
def test_huge_outputs_are_refused_before_any_work(command, data):
    # 10^7 rows of echo or form-factor output need more than the 1 GiB the
    # probe reports; nothing is ever allocated for them.
    argv = data.draw(HUGE_COMMANDS[command])
    with mock.patch("qbaker.cli._physical_memory_bytes", lambda: 1 << 30), \
            mock.patch("qbaker.cli.loschmidt_echo", _never_called), \
            mock.patch("qbaker.cli.form_factor", _never_called):
        code, stderr = _run(argv)
    assert code == 1
    assert stderr.startswith("error:") and "physical memory" in stderr and stderr.count("\n") == 1
