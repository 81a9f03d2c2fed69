"""The four benchmark workloads and their independent oracles.

Each workload has a set-up (import, circuit builders, seeded inputs,
warm-up), a timed unit, and a check that runs outside the timed region
against an oracle that shares no code path with the gate network:

* ``map-L20``: one map step on a 16 MiB state, checked against the FFT
  form of T (two half-size transforms, then the inverse full transform).
* ``echo-L3``: one perturbation-echo experiment plus its CSV, checked by a
  dense replay of chosen members and by norm drift.
* ``spectrum-L9``: the dense map, the circuit's dense realization and the
  form factor to the Heisenberg time, checked against the FFT-form matrix
  and one eigendecomposition.
* ``cli-iterate-L18``: the chained ``qbaker iterate`` call on a state file,
  checked by reading the output back and comparing it bitwise with the
  in-process result.

Workload sizes are constructor arguments so the self-test can run every
path at reduced size.
"""
from __future__ import annotations

import hashlib
import importlib
import json
import os
import sys
from types import SimpleNamespace

import numpy as np

MODULES = ("kernels", "gates", "qft", "baker", "dynamics", "io", "cli", "state")


def load_qbaker(src_dir: str) -> SimpleNamespace:
    """Import qbaker afresh from `src_dir`, dropping any earlier import.

    A fresh import also drops the builders' caches, so every set-up pays
    for them again.
    """
    for name in [n for n in sys.modules if n == "qbaker" or n.startswith("qbaker.")]:
        del sys.modules[name]
    if src_dir not in sys.path:
        sys.path.insert(0, src_dir)
    qb = importlib.import_module("qbaker")
    origin = os.path.realpath(os.path.dirname(qb.__file__))
    if os.path.dirname(origin) != os.path.realpath(src_dir):
        raise ImportError(f"qbaker imported from {origin}, not from {src_dir}")
    mods = SimpleNamespace(qbaker=qb)
    for name in MODULES:
        setattr(mods, name, importlib.import_module(f"qbaker.{name}"))
    mods.all_modules = lambda: [
        m for n, m in sys.modules.items() if n == "qbaker" or n.startswith("qbaker.")
    ]
    return mods


def seeded_state(qubits: int, seed: int, stream: int) -> np.ndarray:
    """Normalized complex Gaussian amplitudes drawn by the benchmark itself."""
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, stream, qubits])))
    dim = 1 << qubits
    amps = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return amps / np.linalg.norm(amps)


def fft_map(psi: np.ndarray) -> np.ndarray:
    """T psi by FFTs: F_{L-1} on each half (split on the top bit), then F_L^-1."""
    half = np.fft.fft(psi.reshape(2, -1), axis=1, norm="ortho")
    return np.fft.ifft(half.reshape(-1), norm="ortho")


def fft_map_matrix(qubits: int) -> np.ndarray:
    """Dense T built column by column from the FFT form."""
    dim = 1 << qubits
    eye = np.eye(dim, dtype=np.complex128)
    half = np.fft.fft(eye.reshape(2, dim // 2, dim), axis=1, norm="ortho")
    return np.fft.ifft(half.reshape(dim, dim), axis=0, norm="ortho")


def philox(seed: int, spawn_key: tuple[int, ...]) -> np.random.Generator:
    ss = np.random.SeedSequence(entropy=seed, spawn_key=spawn_key)
    return np.random.Generator(np.random.Philox(ss))


def echo_psi0(cfg) -> np.ndarray:
    """The echo's shared initial state, from the documented spawn key (0,)."""
    rng = philox(cfg.seed, (0,))
    dim = 1 << cfg.qubits
    psi = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return psi / np.linalg.norm(psi)


def entropy(p: np.ndarray) -> float:
    nz = p[p > 0.0]
    return float(-(nz * np.log(nz)).sum())


def rel_err(got: np.ndarray, want: np.ndarray) -> float:
    return float(np.linalg.norm(got - want) / np.linalg.norm(want))


class Workload:
    """Interface: set-up, untimed prepare, timed unit, untimed check."""

    name = ""
    qubits = 0
    state_bytes = 0            # size the kernels stream per call
    reference = ""             # machine.HostSpeed kind of the bottleneck

    def setup(self, mods: SimpleNamespace, seed: int, workdir: str) -> None:
        raise NotImplementedError

    def prepare_oracle(self) -> None:
        """One-off oracle work, after set-up timing and before the timed pass."""

    def prepare(self, u: int) -> None:
        """Per-unit work outside the timed region."""

    def unit(self, u: int):
        raise NotImplementedError

    def check(self, u: int, result) -> bool:
        raise NotImplementedError

    def corrupt(self, result):
        """Return `result` with a 1e-9 error injected (self-test only)."""
        raise NotImplementedError

    def trace_hooks(self, tracer) -> None:
        """Install workload-specific tracer hooks (traced pass only)."""

    def ref_useful_frac(self, units: list[int]) -> float:
        """Distinct reference steps over reference map applications."""
        return 0.0


class MapStep(Workload):
    """Repeated in-place `iterate(state, 1, copy=False)` on a seeded state."""

    reference = "stream"
    tol = 1e-12

    def __init__(self, qubits: int = 20) -> None:
        self.qubits = qubits
        self.name = f"map-L{qubits}"
        self.state_bytes = 16 << qubits

    def setup(self, mods, seed, workdir):
        self.mods = mods
        qb = mods.qbaker
        qb.baker_circuit(self.qubits)
        self.state = qb.StateVector(self.qubits, seeded_state(self.qubits, seed, 1))
        self.state = qb.iterate(self.state, 1, copy=False)   # warm-up step

    def prepare(self, u):
        self.before = self.state.amplitudes.copy()

    def unit(self, u):
        self.state = self.mods.qbaker.iterate(self.state, 1, copy=False)
        return self.state.amplitudes

    def check(self, u, result):
        return rel_err(result, fft_map(self.before)) <= self.tol

    def corrupt(self, result):
        bad = result.copy()
        bad[0] += 1e-9
        return bad


class EchoEnsemble(Workload):
    """`loschmidt_echo` plus `echo_records_to_csv`, one experiment per unit."""

    reference = "calls"
    tol = 1e-12
    delta = 0.05

    def __init__(self, qubits=3, steps=20, ensemble=200) -> None:
        self.qubits, self.steps, self.ensemble = qubits, steps, ensemble
        self.name = f"echo-L{qubits}"
        self.state_bytes = 16 << qubits

    def config(self, u: int):
        seed = int(np.random.SeedSequence([self.seed, u]).generate_state(1, np.uint64)[0])
        return self.mods.qbaker.EchoConfig(self.qubits, self.steps, self.delta, self.ensemble, seed)

    def setup(self, mods, seed, workdir):
        self.mods, self.seed = mods, seed
        qb = mods.qbaker
        qb.baker_circuit(self.qubits)
        qb.qft_circuit(self.qubits)
        warm = qb.EchoConfig(self.qubits, self.steps, self.delta, 2, seed)
        mods.io.echo_records_to_csv(qb.loschmidt_echo(warm))

    def prepare_oracle(self):
        t = self.mods.qbaker.baker_matrix(self.qubits)
        if rel_err(t, fft_map_matrix(self.qubits)) > self.tol:
            raise AssertionError("baker_matrix disagrees with the FFT-form matrix")
        self.t = t

    def prepare(self, u):
        self.cfg = self.config(u)
        # Unperturbed trajectory psi0 .. T^(steps-1) psi0, for the trace hook.
        psi = echo_psi0(self.cfg)
        traj = []
        for _ in range(self.cfg.steps):
            traj.append(psi)
            psi = self.t @ psi
        self.ref_traj = np.array(traj)

    def unit(self, u):
        records = self.mods.qbaker.loschmidt_echo(self.cfg)
        return records, self.mods.io.echo_records_to_csv(records)

    def replay(self, cfg, member: int) -> dict[str, np.ndarray]:
        """Dense replay of one member from the documented Philox spawn keys."""
        dim = 1 << cfg.qubits
        psi0 = echo_psi0(cfg)
        rng = philox(cfg.seed, (1, member))
        bits = (np.arange(dim)[:, None] >> np.arange(cfg.qubits)) & 1
        ref, pert = psi0.copy(), psi0.copy()
        out = {k: [] for k in ("fidelity", "position_entropy", "momentum_entropy")}
        for step in range(cfg.steps + 1):
            if step:
                ref, pert = self.t @ ref, self.t @ pert
                angles = rng.uniform(-cfg.delta, cfg.delta, cfg.qubits)
                pert = pert * np.exp(1j * (bits @ angles))
            z = np.vdot(ref, pert)
            norms = np.vdot(ref, ref).real * np.vdot(pert, pert).real
            out["fidelity"].append(abs(z) ** 2 / norms)
            out["position_entropy"].append(entropy(np.abs(pert) ** 2))
            out["momentum_entropy"].append(entropy(np.abs(np.fft.fft(pert, norm="ortho")) ** 2))
        return {k: np.array(v) for k, v in out.items()}

    def check(self, u, result):
        records, csv = result
        cfg = self.cfg
        if len(records) != cfg.ensemble:
            return False
        n = cfg.steps + 1
        for rec in records:
            for arr in (rec.fidelity, rec.position_entropy, rec.momentum_entropy):
                if arr.shape != (n,):
                    return False
            drift = max(np.abs(rec.ref_norm - 1.0).max(), np.abs(rec.pert_norm - 1.0).max())
            if not drift <= self.tol:
                return False
        pick = int(np.random.SeedSequence([cfg.seed, 7]).generate_state(1)[0]) % cfg.ensemble
        for member in sorted({0, cfg.ensemble - 1, pick}):
            want = self.replay(cfg, member)
            for key, arr in want.items():
                if not np.abs(getattr(records[member], key) - arr).max() <= self.tol:
                    return False
        lines = csv.split("\n")
        if lines[0] != "step,member,fidelity,pos_entropy,mom_entropy" or lines[-1] != "":
            return False
        rows = lines[1:-1]
        if len(rows) != cfg.ensemble * n:
            return False
        for i, row in enumerate(rows):
            step, member, fid, pos, mom = row.split(",")
            rec = records[i // n]
            if (int(step), int(member)) != (i % n, i // n):
                return False
            if (float(fid), float(pos), float(mom)) != (
                rec.fidelity[i % n], rec.position_entropy[i % n], rec.momentum_entropy[i % n]
            ):
                return False
        return True

    def corrupt(self, result):
        records, csv = result
        rec = records[0]
        bad = type(rec)(rec.fidelity + 1e-9, rec.position_entropy, rec.momentum_entropy,
                        rec.ref_norm, rec.pert_norm)
        return [bad] + list(records[1:]), csv

    def trace_hooks(self, tracer):
        """Count reference-trajectory map applications inside the echo.

        An application under `loschmidt_echo` whose input matches step k of
        the unperturbed trajectory (within 1e-9) is a reference application;
        distinct k over such applications is the useful share.
        """
        self.ref_apps: dict[int, int] = {}
        self.ref_steps: dict[int, set] = {}

        def pre(caller, args):
            if caller != "dynamics.loschmidt_echo":
                return
            arr = args[0]
            if arr.shape != (1 << self.qubits,):
                return
            dist = np.abs(self.ref_traj - arr).max(axis=1)
            k = int(dist.argmin())
            if dist[k] <= 1e-9:
                u = tracer.unit_id
                self.ref_apps[u] = self.ref_apps.get(u, 0) + 1
                self.ref_steps.setdefault(u, set()).add(k)

        tracer.pre_hooks["gates.apply_circuit_array"] = pre

    def ref_useful_frac(self, units):
        fracs = [len(self.ref_steps[u]) / self.ref_apps[u] for u in units if self.ref_apps.get(u)]
        return sum(fracs) / len(fracs) if fracs else 0.0


class _CountingMatrix(np.ndarray):
    """ndarray whose matmul ufunc calls are counted by a tracer."""

    tracer = None

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        is_matmul = ufunc is np.matmul and method == "__call__"
        if is_matmul and self.tracer is not None:
            self.tracer.count("dynamics.matmul")
        inputs = tuple(x.view(np.ndarray) if isinstance(x, _CountingMatrix) else x
                       for x in inputs)
        if "out" in kwargs:
            kwargs["out"] = tuple(x.view(np.ndarray) if isinstance(x, _CountingMatrix) else x
                                  for x in kwargs["out"])
        result = getattr(ufunc, method)(*inputs, **kwargs)
        if is_matmul and isinstance(result, np.ndarray):
            return result.view(type(self))
        return result


class Spectrum(Workload):
    """`baker_matrix`, `circuit_to_matrix(baker_circuit)` and `form_factor`."""

    reference = "blas"
    mat_tol = 1e-10
    k_tol = 1e-9

    def __init__(self, qubits: int = 9) -> None:
        self.qubits = qubits
        self.n_max = 1 << qubits      # out to the Heisenberg time
        self.name = f"spectrum-L{qubits}"
        self.state_bytes = 16 << (2 * qubits)

    def setup(self, mods, seed, workdir):
        self.mods = mods
        qb = mods.qbaker
        circuit = qb.baker_circuit(self.qubits)
        qb.baker_matrix(self.qubits)
        qb.circuit_to_matrix(circuit)
        qb.form_factor(self.qubits, 2)

    def prepare_oracle(self):
        self.t = fft_map_matrix(self.qubits)
        lam = np.linalg.eigvals(self.t)
        n = np.arange(1, self.n_max + 1)
        traces = np.power(lam[None, :], n[:, None]).sum(axis=1)
        self.k_want = np.abs(traces) ** 2 / (1 << self.qubits)

    def unit(self, u):
        qb = self.mods.qbaker
        bm = qb.baker_matrix(self.qubits)
        cm = qb.circuit_to_matrix(qb.baker_circuit(self.qubits))
        return bm, cm, qb.form_factor(self.qubits, self.n_max)

    def check(self, u, result):
        bm, cm, k = result
        if np.linalg.norm(cm - bm) > self.mat_tol or np.linalg.norm(bm - self.t) > self.mat_tol:
            return False
        return k.shape == self.k_want.shape and np.abs(k - self.k_want).max() <= self.k_tol

    def corrupt(self, result):
        bm, cm, k = result
        cm = cm.copy()
        cm[0, 0] += 1e-9
        return bm, cm, k

    def trace_hooks(self, tracer):
        _CountingMatrix.tracer = tracer

        def post(mat):
            if tracer.current_name() == "dynamics.form_factor":
                return mat.view(_CountingMatrix)
            return mat

        tracer.post_hooks["baker.baker_matrix"] = post


class CliIterate(Workload):
    """In-process `qbaker iterate --state IN --steps 2 --out OUT`."""

    reference = "interp"
    steps = 2

    def __init__(self, qubits: int = 18) -> None:
        self.qubits = qubits
        self.name = f"cli-iterate-L{qubits}"
        self.state_bytes = 16 << qubits

    def setup(self, mods, seed, workdir):
        self.mods = mods
        self.inp = os.path.join(workdir, "cli_in.json")
        self.out = os.path.join(workdir, "cli_out.json")
        self.amps = seeded_state(self.qubits, seed, 4)
        pairs = np.stack([self.amps.real, self.amps.imag], axis=1).tolist()
        with open(self.inp, "w") as fh:
            fh.write(json.dumps({"qubits": self.qubits, "amplitudes": pairs}) + "\n")
        mods.qbaker.baker_circuit(self.qubits)
        self.unit(-1)   # warm-up call

    def argv(self) -> list[str]:
        return ["iterate", "--qubits", str(self.qubits), "--state", self.inp,
                "--steps", str(self.steps), "--out", self.out]

    def prepare_oracle(self):
        qb = self.mods.qbaker
        self.want = qb.iterate(qb.StateVector(self.qubits, self.amps), self.steps).amplitudes
        self.verified: set[bytes] = set()

    def prepare(self, u):
        # The check must read only what this unit wrote.
        for path in (self.out, self.out + ".manifest.json"):
            if os.path.exists(path):
                os.remove(path)

    def unit(self, u):
        return self.mods.cli.main(self.argv())

    def check(self, u, result):
        if result != 0 or not os.path.exists(self.out + ".manifest.json"):
            return False
        with open(self.out, "rb") as fh:
            data = fh.read()
        digest = hashlib.sha256(data).digest()
        if digest in self.verified:
            return True
        obj = json.loads(data)
        got = np.array(obj["amplitudes"], dtype=np.float64)
        want = np.stack([self.want.real, self.want.imag], axis=1)
        ok = (obj["qubits"] == self.qubits and got.shape == want.shape
              and got.tobytes() == want.tobytes())
        if ok:
            self.verified.add(digest)
        return ok

    def corrupt(self, result):
        with open(self.out) as fh:
            obj = json.load(fh)
        obj["amplitudes"][0][0] += 1e-9
        with open(self.out, "w") as fh:
            json.dump(obj, fh)
        return result


WORKLOADS = {
    "map-L20": MapStep,
    "echo-L3": EchoEnsemble,
    "spectrum-L9": Spectrum,
    "cli-iterate-L18": CliIterate,
}
