"""qbaker benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload map-L20 --seed 1 --seconds 10 --trace 0

Run from the root of a checkout; the package is imported from ``src/``.
With ``--trace 0`` the timed pass is untraced and the end-to-end metrics
are reported. With ``--trace 1`` the run makes an untraced pass and a
traced pass of half the time each, traced layer probes, a calibration of
the tracer's own cost and a machine probe in a separate process, and
reports the per-layer metrics. Every unit is
checked against an independent oracle outside the timed region; a failed
check counts as a failed operation. The last line of standard output is
the JSON result; run records and spans go to ``.perfbench/``.
"""
from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench")

SETUP_REPEATS = 3         # set-ups per untraced run, at least ...
SETUP_MAX_REPEATS = 9     # ... and more, up to this many, while they
SETUP_BUDGET_S = 2.0      # have taken less than this in total
MAX_FAILED = 3            # a timed pass stops after this many failed units
STAGE_QUBITS = 20         # size of the stage-split and swap-elided probes
DENSE_QUBITS = 9          # size of the dense-builder probe
BUCKET_SUM_TOL_S = 2e-3   # per-unit bucket sums must match the wall time to this


def set_up(wl, seed: int, workdir: str, host, repeats: tuple[int, int] = (1, 1)):
    """Import, build, generate inputs and warm up: at least repeats[0]
    times, and up to repeats[1] while set-up is cheap. The last set-up is
    the one the run uses. Returns the modules and the host-scaled set-up
    times (see machine.HostSpeed)."""
    import scipy.linalg  # noqa: F401  third-party imports stay out of setup_s
    from workloads import load_qbaker

    walls, times = [], []
    least, most = repeats
    while len(walls) < least or (len(walls) < most and sum(walls) < SETUP_BUDGET_S):
        gc.collect()
        before = host.measure()
        t0 = time.perf_counter()
        mods = load_qbaker(SRC)
        wl.setup(mods, seed, workdir)
        walls.append(time.perf_counter() - t0)
        times.append(host.scale(walls[-1], before, host.measure()))
    return mods, times


def timed_pass(wl, seconds: float, first_unit: int, host, tracer=None):
    """Run units until their summed wall time reaches `seconds`, or until
    MAX_FAILED of them have failed.

    Each unit starts after a full garbage collection, so the collector's
    work inside it does not depend on what ran before. The host reference
    work is timed right before and right after each unit, outside the
    timed region. A unit that raises still uses up its wall time. Returns
    the unit ids, the wall times, the host-scaled times and the per-unit
    check outcomes.
    """
    ids, walls, times, oks = [], [], [], []
    u = first_unit
    while sum(walls) < seconds and oks.count(False) < MAX_FAILED:
        ok = False
        wall = scaled = 0.0
        try:
            wl.prepare(u)
            gc.collect()
            before = host.measure()
            t0 = time.perf_counter()
            try:
                if tracer is not None:
                    with tracer.span("bench.unit", u):
                        result = wl.unit(u)
                else:
                    result = wl.unit(u)
            finally:
                wall = time.perf_counter() - t0
            scaled = host.scale(wall, before, host.measure())
            ok = bool(wl.check(u, result))
        except Exception:
            traceback.print_exc(file=sys.stderr)
        ids.append(u)
        walls.append(wall)
        times.append(scaled or wall)   # unscaled when the unit raised
        oks.append(ok)
        u += 1
    return ids, walls, times, oks


def passed(times: list[float], oks: list[bool]) -> list[float]:
    """The times of the units that passed their check; all of them when
    none did (the run is then reported as not correct anyway)."""
    return [t for t, ok in zip(times, oks) if ok] or times


def machine_probe(state_bytes: int, dram_mib: int | None) -> dict:
    argv = [sys.executable, os.path.join(HERE, "machine.py"), "--state-bytes", str(state_bytes)]
    if dram_mib is not None:
        argv += ["--dram-mib", str(dram_mib)]
    proc = subprocess.run(argv, capture_output=True, text=True, timeout=120, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def layer_probes(mods, tracer, wl, seed: int, stage_qubits: int,
                 dense_qubits: int) -> tuple[bool, dict[int, float]]:
    """Traced one-off calls: cold builders, dense builders, the stage split
    and the swap-elided step. Returns whether the probe results are right
    and each probe's wall time, measured outside its root span."""
    import layers
    from workloads import fft_map, rel_err, seeded_state

    qb = mods.qbaker
    walls: dict[int, float] = {}

    def probe(unit: int, fn):
        t0 = time.perf_counter()
        with tracer.span("bench.probe", unit):
            out = fn()
        walls[unit] = time.perf_counter() - t0
        return out

    for fn in (mods.baker.baker_circuit, mods.qft.qft_circuit, mods.qft.qft_block_circuit):
        clear = getattr(getattr(fn, "__wrapped__", fn), "cache_clear", None)
        if clear is not None:
            clear()
    probe(layers.PROBE_BUILD, lambda: qb.baker_circuit(wl.qubits))
    probe(layers.PROBE_DENSE, lambda: qb.baker_matrix(dense_qubits))

    L = stage_qubits
    block = qb.qft_block_circuit(L, L - 1)
    inverse = qb.dagger(qb.qft_circuit(L))
    elided = qb.elide_swaps(qb.baker_circuit(L))
    psi = seeded_state(L, seed, 5)
    want = fft_map(psi)
    state = qb.StateVector(L, psi.copy())
    state = probe(layers.PROBE_BLOCK, lambda: qb.apply_circuit(state, block, copy=False))
    state = probe(layers.PROBE_INVERSE, lambda: qb.apply_circuit(state, inverse, copy=False))
    ok = rel_err(state.amplitudes, want) <= 1e-12
    state = qb.StateVector(L, psi)
    state = probe(layers.PROBE_ELIDED, lambda: qb.apply_circuit(state, elided, copy=False))
    return ok and rel_err(state.amplitudes, want) <= 1e-12, walls


def run(wl, seed: int, seconds: float, trace: bool, *,
        setup_repeats: tuple[int, int] = (SETUP_REPEATS, SETUP_MAX_REPEATS),
        stage_qubits: int = STAGE_QUBITS, dense_qubits: int = DENSE_QUBITS,
        dram_mib: int | None = None) -> tuple[dict, dict]:
    """One benchmark run. Returns (result, record): the result is the JSON
    object printed as the last line, the record everything else worth
    keeping."""
    workdir = os.path.join(OUT_DIR, f"work-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        return _run(wl, seed, seconds, trace, workdir, setup_repeats, stage_qubits,
                    dense_qubits, dram_mib)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _run(wl, seed, seconds, trace, workdir, setup_repeats, stage_qubits, dense_qubits,
         dram_mib):
    import layers
    import machine
    from tracing import Spans, Tracer

    host = machine.HostSpeed(wl.reference)
    mods, setup_times = set_up(wl, seed, workdir, host, (1, 1) if trace else setup_repeats)
    wl.prepare_oracle()
    record = {
        "workload": wl.name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "setup_times_s": setup_times,
        "machine": machine.record(mods.kernels.get_num_threads()),
    }

    if not trace:
        ids, walls, times, oks = timed_pass(wl, seconds, 0, host)
        ok_times = passed(times, oks)
        metrics = {
            "setup_s": statistics.median(setup_times),
            "run_s": sum(ok_times) / len(ok_times),
            "unit_p50_s": statistics.median(ok_times),
            "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = {"unit_wall_s": walls, "unit_times_s": times, "unit_ok": oks}
        correct = True
    else:
        plain_ids, _, plain, plain_oks = timed_pass(wl, seconds / 2, 0, host)
        tracer = Tracer()
        tracer.install(mods)
        layers.install_io_hooks(tracer)
        wl.trace_hooks(tracer)
        try:
            ids, walls, traced, traced_oks = timed_pass(
                wl, seconds / 2, plain_ids[-1] + 1, host, tracer)
            probes_ok, probe_walls = layer_probes(mods, tracer, wl, seed, stage_qubits,
                                                  dense_qubits)
            span_cost = tracer.calibrate(layers.CALIBRATION)
        finally:
            tracer.uninstall()
        spans = Spans(tracer, span_cost)
        spans.save(os.path.join(OUT_DIR, f"spans-{wl.name}.npz"))
        counts = layers.unit_counts(spans, tracer, ids)
        repeat_ok = all(len(set(v)) == 1 for v in counts.values())
        unit_walls = {**dict(zip(ids, walls)), **probe_walls}
        unit_buckets = {u: layers.bucket_times(spans, u) for u in unit_walls}
        bucket_sum_err = max(abs(sum(unit_buckets[u].values()) - wall)
                             for u, wall in unit_walls.items())
        buckets = [unit_buckets[u] for u in ids]
        gates = mods.gates.gate_count(mods.baker.baker_circuit(wl.qubits))
        plain_ok, traced_ok = passed(plain, plain_oks), passed(traced, traced_oks)
        extra = {
            "machine": machine_probe(wl.state_bytes, dram_mib),
            "gate_count": {"a": gates.a, "b": gates.b, "swap": gates.swap},
            "qubits": wl.qubits,
            "ref_useful_frac": wl.ref_useful_frac(ids),
            "trace_overhead_frac": (sum(traced_ok) / len(traced_ok))
            / (sum(plain_ok) / len(plain_ok)) - 1.0,
        }
        metrics = layers.per_layer(spans, tracer, ids, counts, buckets, extra)
        oks = plain_oks + traced_oks
        units = {"untraced_unit_times_s": plain, "traced_unit_times_s": traced,
                 "traced_unit_wall_s": walls, "unit_ok": oks,
                 "counts": counts, "counts_repeat": repeat_ok, "probes_ok": probes_ok,
                 "span_cost_s": span_cost,
                 "bucket_s": {k: sum(b.get(k, 0.0) for b in buckets) / len(buckets)
                              for k in sorted(set().union(*buckets))},
                 "bucket_sum_error_s": bucket_sum_err, "machine_probe": extra["machine"]}
        correct = probes_ok and repeat_ok and bucket_sum_err <= BUCKET_SUM_TOL_S

    failed = oks.count(False)
    spec = layers.PER_LAYER if trace else layers.END_TO_END
    result = {
        "correct": correct and failed == 0,
        "attempted": len(oks),
        "failed": failed,
        "metrics": {name: {"value": float(metrics[name]), "unit": unit}
                    for name, unit in spec.items()},
    }
    record.update(units)
    return result, record


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="qbaker benchmark (one run)")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "qbaker", "__init__.py")):
        print(f"error: no qbaker package under {SRC}", file=sys.stderr)
        return 2
    if args.seed < 0 or args.seconds <= 0:
        print("error: --seed must be >= 0 and --seconds > 0", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload]()
    result, record = run(wl, args.seed, args.seconds, bool(args.trace))

    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, f"{wl.name}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w") as fh:
        json.dump({"result": result, "record": record}, fh, indent=1)
    print(json.dumps({"machine": record["machine"]}))
    for name, m in result["metrics"].items():
        print(f"{name:40s} {m['value']:.6g} {m['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
