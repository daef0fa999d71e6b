"""parkseq benchmark: one workload, one process, one caller (closed loop).

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; `src/parkseq` is imported from
there. The seed fixes the op list (see workloads.py); --seconds fixes its
length through a nominal per-op cost, so the list never depends on how
fast the host is. Each op's result is checked; a raising op or a failed
check counts as failed and the run goes on.

--trace 0 times the list with no instrumentation and prints the
end-to-end metrics. --trace 1 times the list untraced, then again under
spans.Tracer, and prints the per-layer metrics. The last line of stdout is
one JSON object: {"correct", "attempted", "failed", "metrics"}, with the
units that BENCHMARK.json gives.

The end-to-end times are scaled to a reference host speed: a fixed
reference unit is timed between the ops and in each set-up probe, and
each time is scaled by the unit's nominal over its measured cost (see
hostspeed.py). The per-layer self times are raw seconds.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import subprocess
import sys
from time import perf_counter

import hostspeed

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")

SETUP_PROBES = 11
# The traced run measures core memory in a pass of its own over the first
# round of inputs, at most this many ops (see spans.Tracer).
MEMORY_PASS_OPS = 10
# Untimed ops before the timed list: in the prototype the first run of a
# batch was 10-40 % slower than the rest.
WARMUP_SECONDS = 1.0

# Reference units timed on each side of the set-up in a probe.
PROBE_UNITS = 5

# Runs in a fresh interpreter per probe; the sizes arrive on stdin and are
# parsed before the clock starts, so only program work is timed. The
# reference units around it measure the speed of the host at that moment.
_SETUP_PROBE = """
import sys, time
src, bench, with_cli, units = sys.argv[1], sys.argv[2], sys.argv[3] == "1", int(sys.argv[4])
sizes = [tuple(map(int, line.split(","))) for line in sys.stdin.read().split()]
sys.path.insert(0, bench)
import hostspeed
before = [hostspeed.time_unit() for _ in range(units)]
sys.path.insert(0, src)
start = time.perf_counter()
import parkseq
if with_cli:
    import parkseq.cli
objects = [parkseq.SizeVector(s) for s in sizes]
elapsed = time.perf_counter() - start
print(elapsed, *before, *(hostspeed.time_unit() for _ in range(units)))
"""


def measure_setup(sizes: list[tuple[int, ...]], with_cli: bool) -> float:
    """Seconds of `import parkseq` plus building the run's SizeVectors, in a
    fresh interpreter, scaled to reference speed."""
    probe = subprocess.run(
        [sys.executable, "-c", _SETUP_PROBE, SRC, BENCH, "1" if with_cli else "0",
         str(PROBE_UNITS)],
        input="\n".join(",".join(map(str, s)) for s in sizes),
        capture_output=True, text=True, check=True, timeout=60,
    )
    elapsed, *units = map(float, probe.stdout.split())
    return elapsed * hostspeed.REFERENCE_S / hostspeed.median(units)


def run_ops(ops, objects, tracer=None):
    """Run each op once, in order, with a reference unit timed before each
    op and after the last. Returns the per-op seconds scaled to reference
    speed, and the failure count."""
    import workloads

    latencies, units = [], []
    failed = 0
    for op in ops:
        call, check = workloads.bind(op, objects)
        if tracer is not None:
            call = tracer.wrap("bench.op", call)
        units.append(hostspeed.time_unit())
        start = perf_counter()
        try:
            result = call()
        except Exception:  # a raising op is a failed op; the run goes on
            latencies.append(perf_counter() - start)
            failed += 1
            continue
        latencies.append(perf_counter() - start)
        try:
            ok = bool(check(result))
        except Exception:  # a malformed result fails its check
            ok = False
        failed += not ok
        if tracer is not None and isinstance(result, workloads.CliRun):
            tracer.counters["cli.stdout_bytes"] += len(result.stdout)
    units.append(hostspeed.time_unit())
    return hostspeed.scaled(latencies, units), failed


def warm_up(ops, objects, nominal_op_s: float) -> None:
    count = min(len(ops), max(1, round(WARMUP_SECONDS / nominal_op_s)))
    run_ops(ops[:count], objects)


def end_to_end(latencies: list[float], setup_s: float) -> dict[str, float]:
    return {
        "throughput_ops_s": len(latencies) / sum(latencies),
        "latency_p50_ms": statistics.median(latencies) * 1e3,
        "latency_p90_ms": statistics.quantiles(latencies, n=10)[8] * 1e3,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "setup_s": setup_s,
    }


def per_layer(tracer, untraced_s: float, traced_s: float) -> dict[str, float]:
    from spans import LAYERS

    def stat(name: str, field: int):
        return tracer.stats.get(name, [0, 0.0])[field]

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    c = tracer.counters
    simulated = sum(
        n for (parent, child), n in tracer.edges.items()
        if parent == "bruteforce.enumerate_parking_sequences"
    )
    metrics = {}
    for name in (
        "core.simulate_linear",
        "circular.simulate_circular",
        "divider.options_for_car",
        "divider.decode",
        "bruteforce.verify",
        "cli.main",
    ):
        metrics[name + ".calls"] = stat(name, 0)
        metrics[name + ".self_s"] = stat(name, 1)
    for name in (
        "core.layout_block",
        "core.layout_occupied",
        "circular.empty_spot",
        "circular.restrict_to_linear",
        "circular.rotate",
        "bruteforce.enumerate_parking_sequences",
        "bruteforce.bijection_checks",
    ):
        metrics[name + ".self_s"] = stat(name, 1)
    metrics.update({
        "divider.options_built": c["divider.options_built"],
        "divider.options_used_frac": ratio(
            c["divider.options_decoded"], c["divider.options_built"]
        ),
        "bruteforce.tuples_classified": c["bruteforce.tuples_classified"],
        "bruteforce.tuples_simulated": simulated,
        "bruteforce.parked_frac": ratio(
            c["bruteforce.enumerate_parking_sequences.yielded"], simulated
        ),
        "counting.calls": tracer.calls("counting."),
        "counting.self_s": tracer.self_seconds("counting."),
        "cli.stdout_bytes": c["cli.stdout_bytes"],
        "trace.overhead_frac": traced_s / untraced_s - 1,
    })
    # Every op runs inside a bench.op span, so all self times add up to the
    # traced pass's raw wall time.
    traced_raw_s = tracer.self_seconds("")
    for layer in LAYERS:
        metrics[f"share.{layer}"] = tracer.self_seconds(layer + ".") / traced_raw_s
    metrics["share.bench"] = tracer.self_seconds("bench.") / traced_raw_s
    return metrics


def traced_pass(tracer, ops, objects):
    tracer.install()
    try:
        gc.collect()
        return run_ops(ops, objects, tracer)
    finally:
        tracer.uninstall()


def traced_run(workload, ops, objects):
    """Time the list untraced, then traced; then measure core memory on the
    first round of inputs. Returns (per-layer metrics, attempted, failed)."""
    from spans import Tracer

    latencies, failed = run_ops(ops, objects)
    tracer = Tracer()
    traced, traced_failed = traced_pass(tracer, ops, objects)
    memory = Tracer(track_core_memory=True)
    memory_ops = ops[: min(workload.granule, MEMORY_PASS_OPS)]
    _, memory_failed = traced_pass(memory, memory_ops, objects)
    metrics = per_layer(tracer, sum(latencies), sum(traced))
    metrics["core.peak_alloc_mb"] = memory.core_peak_bytes / 2**20
    attempted = 2 * len(ops) + len(memory_ops)
    return metrics, attempted, failed + traced_failed + memory_failed


def units_of(kind: str) -> dict[str, str]:
    """Metric name -> unit, for "end_to_end" or "per_layer", as BENCHMARK.json
    records them."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return {m["name"]: m["unit"] for m in json.load(f)[kind]}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "parkseq", "__init__.py")):
        print(f"error: no parkseq sources under {SRC}", file=sys.stderr)
        return 2
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]
    ops = workloads.make_ops(args.workload, args.seed, args.seconds)
    objects = workloads.build_objects(ops)
    print(f"workload={args.workload} seed={args.seed} ops={len(ops)}", flush=True)

    warm_up(ops, objects, workload.nominal_op_s)
    gc.collect()
    if args.trace:
        metrics, attempted, failed = traced_run(workload, ops, objects)
    else:
        # The set-up probes are spread through the timed list, so that they
        # and the ops see the same drift in host speed.
        sizes = workloads.setup_sizes(ops)
        setup, latencies, failed = [], [], 0
        for k in range(SETUP_PROBES):
            setup.append(measure_setup(sizes, args.workload == "cli-large"))
            chunk = ops[k * len(ops) // SETUP_PROBES:(k + 1) * len(ops) // SETUP_PROBES]
            chunk_latencies, chunk_failed = run_ops(chunk, objects)
            latencies += chunk_latencies
            failed += chunk_failed
        metrics = end_to_end(latencies, statistics.median(setup))
        attempted = len(ops)

    units = units_of("per_layer" if args.trace else "end_to_end")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
