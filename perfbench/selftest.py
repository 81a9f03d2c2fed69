"""Self-test of the benchmark at reduced sizes (about 30 s):

    python3 perfbench/selftest.py

Checks that every metric named in BENCHMARK.json is emitted with its unit,
that every unit passes its oracle on the library as it is, that a 1e-9
corruption of each workload's result, a unit that raises and a CLI call
that writes nothing are counted as failed operations,
that exact counts repeat across seeds, and that the echo CSV bytes are a
function of the seed. Exits 0 when everything holds.
"""
from __future__ import annotations

import json
import os
import sys

import layers
import run
from machine import HostSpeed
from workloads import WORKLOADS, CliIterate, EchoEnsemble, MapStep, Spectrum

SMALL = {
    "map-L20": lambda: MapStep(10),
    "echo-L3": lambda: EchoEnsemble(3, steps=5, ensemble=6),
    "spectrum-L9": lambda: Spectrum(5),
    "cli-iterate-L18": lambda: CliIterate(8),
}
SMALL_RUN = dict(stage_qubits=8, dense_qubits=5, dram_mib=8)

failures: list[str] = []


def expect(cond: bool, what: str) -> None:
    print(("ok   " if cond else "FAIL ") + what)
    if not cond:
        failures.append(what)


def check_spec() -> None:
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    expect([w["name"] for w in bench["workloads"]] == list(WORKLOADS),
           "BENCHMARK.json workloads match the registry")
    expect({m["name"]: m["unit"] for m in bench["end_to_end"]} == layers.END_TO_END,
           "BENCHMARK.json end_to_end names and units match")
    expect({m["name"]: m["unit"] for m in bench["per_layer"]} == layers.PER_LAYER,
           "BENCHMARK.json per_layer names and units match")
    expect(set(SMALL) == set(WORKLOADS), "every workload has a reduced size")


def check_runs(name: str) -> None:
    result, _ = run.run(SMALL[name](), 1, 0.05, False, setup_repeats=(2, 2), **SMALL_RUN)
    metrics = result["metrics"]
    expect(result["correct"] and result["failed"] == 0 and result["attempted"] >= 1,
           f"{name}: untraced units pass their oracle")
    expect({k: v["unit"] for k, v in metrics.items()} == layers.END_TO_END,
           f"{name}: every end-to-end metric emitted with its unit")
    expect(all(v["value"] > 0 for v in metrics.values()), f"{name}: end-to-end metrics > 0")

    counts = []
    for seed in (1, 2):
        result, record = run.run(SMALL[name](), seed, 0.05, True, **SMALL_RUN)
        expect(result["correct"] and result["failed"] == 0,
               f"{name}: traced run seed {seed} correct (oracles, probes, bucket sums)")
        expect({k: v["unit"] for k, v in result["metrics"].items()} == layers.PER_LAYER,
               f"{name}: every per-layer metric emitted with its unit")
        counts.append({k: v[0] for k, v in record["counts"].items()})
    expect(counts[0] == counts[1], f"{name}: exact counts repeat across seeds")


def check_corruption(name: str) -> None:
    wl = SMALL[name]()
    unit = wl.unit
    wl.unit = lambda u: wl.corrupt(unit(u))
    result, _ = run.run(wl, 1, 0.05, False, setup_repeats=(1, 1), **SMALL_RUN)
    expect(result["failed"] == result["attempted"] >= 1 and not result["correct"],
           f"{name}: a 1e-9 corruption is counted as failed")


def check_raising() -> None:
    wl = SMALL["map-L20"]()
    unit = wl.unit

    def raising(u):
        if u >= 0:
            raise RuntimeError("injected failure")
        return unit(u)

    wl.unit = raising
    result, _ = run.run(wl, 1, 0.05, False, setup_repeats=(1, 1), **SMALL_RUN)
    expect(result["failed"] == result["attempted"] == run.MAX_FAILED and not result["correct"],
           "units that raise are counted as failed and end the pass")


def check_silent_cli() -> None:
    wl = SMALL["cli-iterate-L18"]()
    unit = wl.unit
    # The warm-up call in set-up writes real output; later calls write none.
    wl.unit = lambda u: unit(u) if u < 0 else 0
    result, _ = run.run(wl, 1, 0.05, False, setup_repeats=(1, 1), **SMALL_RUN)
    expect(result["failed"] == result["attempted"] >= 1 and not result["correct"],
           "cli-iterate-L18: a call that exits 0 without writing is counted as failed")


def echo_csv(seed: int) -> str:
    wl = SMALL["echo-L3"]()
    run.set_up(wl, seed, run.OUT_DIR, HostSpeed(wl.reference))
    wl.prepare_oracle()
    wl.prepare(0)
    return wl.unit(0)[1]


def main() -> int:
    check_spec()
    for name in SMALL:
        check_runs(name)
        check_corruption(name)
    check_raising()
    check_silent_cli()
    first = echo_csv(1)
    expect(first == echo_csv(1), "echo CSV bytes identical for the same seed")
    expect(first != echo_csv(2), "echo CSV bytes differ between seeds")
    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
