"""Metric names, units, and the reduction from spans to per-layer numbers.

Per-layer times and counts are per unit of the workload (one map step,
one echo experiment, one spectrum, one CLI call), averaged over the traced
units. Probe metrics (builders, the L=20 stage split, the swap-elided step)
come from one traced call each, made after the traced pass. A layer the
workload does not reach reports 0. Times are net of the calibrated tracer
bookkeeping (see tracing.Spans).

Every span's self time belongs to exactly one bucket (`bucket`); with the
tracer's own share the buckets add up to the unit's wall time measured
outside its root span, and the run checks that they do. Time metrics are
either bucket sums or inclusive times of spans that do not nest in one
another, so no time is counted twice within a metric.
"""
from __future__ import annotations

import numpy as np

from tracing import Spans, Tracer

END_TO_END = {
    "setup_s": "s",
    "run_s": "s",
    "unit_p50_s": "s",
    "peak_rss_mib": "MiB",
}

KERNELS = ("hadamard", "cond_phase", "swap_bits", "phase_on_one", "permute_bits")
GATE_KERNELS = ("kernels.hadamard", "kernels.cond_phase", "kernels.swap_bits")
SWAP_KERNELS = ("kernels.swap_bits", "kernels.permute_bits")
APPLY = ("gates.apply_circuit_array", "gates.apply_circuit", "gates.apply_gate",
         "gates.circuit_to_matrix")
MAP_CALLERS = ("dynamics.iterate", "dynamics.loschmidt_echo")
ECHO = "dynamics.loschmidt_echo"
RECORD = ("dynamics.position_distribution", "dynamics.momentum_distribution",
          "dynamics.distribution_entropy")
QFT_BUILDERS = ("qft.qft_circuit", "qft.qft_block_circuit")
TRACER = "tracer"

PER_LAYER = {}
for _k in KERNELS:
    PER_LAYER.update({
        f"kernels.{_k}.calls": "count",
        f"kernels.{_k}.self_s": "s",
        f"kernels.{_k}.bytes": "B",
        f"kernels.{_k}.gbps": "GB/s",
    })
PER_LAYER.update({
    "kernels.bw_frac": "ratio",
    "gates.gates_applied": "count",
    "gates.dispatch_s": "s",
    "gates.dispatch_us_per_gate": "us",
    "gates.circuit_to_matrix.self_s": "s",
    "gates.elided_step_s": "s",
    "baker.step_s": "s",
    "baker.block_stage_s": "s",
    "baker.inverse_stage_s": "s",
    "baker.swap_s": "s",
    "baker.baker_circuit_s": "s",
    "baker.baker_matrix_s": "s",
    "baker.gate_count.a": "count",
    "baker.gate_count.b": "count",
    "baker.gate_count.swap": "count",
    "qft.qft_circuit_s": "s",
    "qft.dft_matrix_s": "s",
    "dynamics.echo.map_s": "s",
    "dynamics.echo.kick_s": "s",
    "dynamics.echo.record_s": "s",
    "dynamics.echo.self_s": "s",
    "dynamics.map_applications": "count",
    "dynamics.echo.ref_useful_frac": "ratio",
    "dynamics.form_factor.self_s": "s",
    "dynamics.form_factor.matmuls": "count",
    "dynamics.form_factor.gflops": "GFLOP/s",
    "io.state_to_json_s": "s",
    "io.state_from_json_s": "s",
    "io.state_json_mbps": "MB/s",
    "io.write_s": "s",
    "io.manifest_s": "s",
    "io.echo_csv_s": "s",
    "cli.main.self_s": "s",
    "machine.copy_gbps_dram": "GB/s",
    "machine.copy_gbps_state": "GB/s",
    "machine.zgemm_gflops": "GFLOP/s",
    "trace_overhead_frac": "ratio",
})

# Unit ids of the probe spans (timed-pass units are numbered from 0).
PROBE_BUILD, PROBE_DENSE, PROBE_BLOCK, PROBE_INVERSE, PROBE_ELIDED = -2, -3, -4, -5, -6
PROBES = (PROBE_BUILD, PROBE_DENSE, PROBE_BLOCK, PROBE_INVERSE, PROBE_ELIDED)
CALIBRATION = -7


def bucket(name: str) -> str:
    """The one bucket a span's self time is counted in: circuit dispatch,
    the echo loop, the echo's records, the benchmark's own spans (unit
    root, probe root, hooks) each by name, and everything else by layer."""
    if name in APPLY:
        return "gates.dispatch"
    if name == ECHO:
        return "dynamics.echo"
    if name in RECORD:
        return "dynamics.record"
    if name.startswith("bench."):
        return name
    return name.split(".")[0]


def bucket_times(spans: Spans, unit: int) -> dict[str, float]:
    """Self times of one unit's spans summed by bucket, plus the calibrated
    tracer bookkeeping of its non-root spans under TRACER."""
    mask = spans.unit == unit
    sums = np.bincount(spans.name_id[mask], weights=spans.self_time[mask],
                       minlength=len(spans.names))
    out: dict[str, float] = {}
    for nid in np.unique(spans.name_id[mask]):
        key = bucket(spans.names[nid])
        out[key] = out.get(key, 0.0) + float(sums[nid])
    out[TRACER] = spans.span_cost * int((mask & (spans.parent >= 0)).sum())
    return out


def install_io_hooks(tracer: Tracer) -> None:
    """Count the characters of state JSON produced and parsed."""

    def pre(caller, args):
        tracer.count("io.json_chars", len(args[0]))

    def post(text):
        tracer.count("io.json_chars", len(text))
        return text

    tracer.pre_hooks["io.state_from_json"] = pre
    tracer.post_hooks["io.state_to_json"] = post


def _ratio(num: float, den: float) -> float:
    return num / den if den > 0 else 0.0


def unit_counts(spans: Spans, tracer: Tracer, units: list[int]) -> dict[str, list[int]]:
    """Exact per-unit counts; each list must hold one repeated value."""
    out = {}
    for k in KERNELS:
        name = f"kernels.{k}"
        out[name] = [int(spans.select(name, units=[u]).sum()) for u in units]
    out["gates.gates_applied"] = [
        int(spans.select(GATE_KERNELS, units=[u], parents=APPLY).sum()) for u in units
    ]
    out["dynamics.map_applications"] = [
        int(spans.select("gates.apply_circuit_array", units=[u], parents=MAP_CALLERS).sum())
        for u in units
    ]
    out["dynamics.form_factor.matmuls"] = [
        tracer.counters.get(("dynamics.matmul", u), 0) for u in units
    ]
    return out


def per_layer(spans: Spans, tracer: Tracer, units: list[int], counts: dict,
              buckets: list[dict[str, float]], extra: dict) -> dict[str, float]:
    """Reduce spans to the PER_LAYER metrics. `buckets` holds bucket_times
    of each unit; `extra` carries the values measured outside the spans:
    machine probes, gate counts, the workload size, the echo reference
    tally and the tracing overhead."""
    n = len(units)
    m: dict[str, float] = {}

    def incl(names, units=units, parents=None, outermost=False) -> float:
        sel = spans.select(names, units=units, parents=parents, outermost=outermost)
        return float(spans.incl[sel].sum())

    def self_t(names, units=units) -> float:
        return float(spans.self_time[spans.select(names, units=units)].sum())

    def root(probe: int) -> float:
        return float(spans.incl[spans.roots(probe)].sum())

    def per_unit(key: str) -> float:
        return sum(b.get(key, 0.0) for b in buckets) / n

    total_bytes = total_self = 0.0
    for k in KERNELS:
        name = f"kernels.{k}"
        sel = spans.select(name, units=units)
        t = float(spans.self_time[sel].sum())
        b = float(spans.nbytes[sel].sum())
        total_bytes += b
        total_self += t
        m[f"{name}.calls"] = counts[name][0] if n else 0
        m[f"{name}.self_s"] = t / n
        m[f"{name}.bytes"] = b / n
        m[f"{name}.gbps"] = _ratio(b, t) / 1e9
    m["kernels.bw_frac"] = _ratio(_ratio(total_bytes, total_self) / 1e9,
                                  extra["machine"]["copy_gbps_state"])

    m["gates.gates_applied"] = counts["gates.gates_applied"][0]
    m["gates.dispatch_s"] = per_unit("gates.dispatch")
    m["gates.dispatch_us_per_gate"] = _ratio(m["gates.dispatch_s"], m["gates.gates_applied"]) * 1e6
    m["gates.circuit_to_matrix.self_s"] = self_t("gates.circuit_to_matrix") / n

    block_swaps = self_t(SWAP_KERNELS, units=[PROBE_BLOCK])
    inverse_swaps = self_t(SWAP_KERNELS, units=[PROBE_INVERSE])
    block, inverse = root(PROBE_BLOCK), root(PROBE_INVERSE)
    m["gates.elided_step_s"] = root(PROBE_ELIDED)
    m["baker.step_s"] = block + inverse
    m["baker.block_stage_s"] = block - block_swaps
    m["baker.inverse_stage_s"] = inverse - inverse_swaps
    m["baker.swap_s"] = block_swaps + inverse_swaps
    # The builders nest: baker_circuit calls the qft builders and
    # baker_matrix calls dft_matrix. Each baker time excludes the qft time
    # reported beside it, so the two add up to the whole build.
    qft_build = incl(QFT_BUILDERS, units=[PROBE_BUILD], outermost=True)
    dft_build = incl("qft.dft_matrix", units=[PROBE_DENSE])
    m["baker.baker_circuit_s"] = incl("baker.baker_circuit", units=[PROBE_BUILD]) - qft_build
    m["baker.baker_matrix_s"] = incl("baker.baker_matrix", units=[PROBE_DENSE]) - dft_build
    for kind in ("a", "b", "swap"):
        m[f"baker.gate_count.{kind}"] = extra["gate_count"][kind]
    m["qft.qft_circuit_s"] = qft_build
    m["qft.dft_matrix_s"] = dft_build

    # Direct children of the echo loop: siblings, so none nests in another.
    m["dynamics.echo.map_s"] = incl("gates.apply_circuit_array", parents=[ECHO]) / n
    m["dynamics.echo.kick_s"] = incl(("kernels.phase_on_one", "dynamics.phase_kick"),
                                     parents=[ECHO]) / n
    m["dynamics.echo.record_s"] = incl(RECORD, parents=[ECHO]) / n
    m["dynamics.echo.self_s"] = per_unit("dynamics.echo")
    m["dynamics.map_applications"] = counts["dynamics.map_applications"][0]
    m["dynamics.echo.ref_useful_frac"] = extra["ref_useful_frac"]
    ff_self = self_t("dynamics.form_factor") / n
    matmuls = counts["dynamics.form_factor.matmuls"][0]
    dim = 1 << extra["qubits"]
    m["dynamics.form_factor.self_s"] = ff_self
    m["dynamics.form_factor.matmuls"] = matmuls
    m["dynamics.form_factor.gflops"] = _ratio(8.0 * dim**3 * matmuls, ff_self) / 1e9

    to_json = incl("io.state_to_json") / n
    from_json = incl("io.state_from_json") / n
    chars = sum(tracer.counters.get(("io.json_chars", u), 0) for u in units) / n
    m["io.state_to_json_s"] = to_json
    m["io.state_from_json_s"] = from_json
    m["io.state_json_mbps"] = _ratio(chars, to_json + from_json) / 1e6
    # Self time: write_state calls state_to_json, which is counted above.
    m["io.write_s"] = self_t(("io.write_text_file", "io.write_state")) / n
    m["io.manifest_s"] = incl("io.write_manifest") / n
    m["io.echo_csv_s"] = incl("io.echo_records_to_csv") / n
    m["cli.main.self_s"] = self_t("cli.main") / n

    for key in ("copy_gbps_dram", "copy_gbps_state", "zgemm_gflops"):
        m[f"machine.{key}"] = extra["machine"][key]
    m["trace_overhead_frac"] = extra["trace_overhead_frac"]
    return m
