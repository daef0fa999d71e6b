"""Tests of the benchmark itself: op lists, failure counting and tracing.

    python3 -m pytest perfbench
"""

import json
import os
import sys
from collections import Counter

import pytest

import hostspeed
import run

if run.SRC not in sys.path:
    sys.path.insert(0, run.SRC)

import parkseq  # noqa: E402
import workloads  # noqa: E402
from parkseq.core import Layout  # noqa: E402
from spans import Tracer  # noqa: E402

SECONDS = 16


def cost_class(op: workloads.Op) -> tuple:
    """What an op costs, with the seed-chosen parts left out."""
    if op.kind == "sample":
        return op.kind, len(op.sizes), sum(op.sizes)
    if op.kind == "cli":
        return op.kind, op.arg[0], "--circular" in op.arg, len(op.sizes), sum(op.sizes)
    return op.kind, op.sizes, op.arg


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_same_seed_gives_identical_op_list(name):
    assert workloads.make_ops(name, 3, SECONDS) == workloads.make_ops(name, 3, SECONDS)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_other_seed_keeps_op_count_and_cost_mix(name):
    a = workloads.make_ops(name, 3, SECONDS)
    b = workloads.make_ops(name, 4, SECONDS)
    assert a != b
    assert len(a) == len(b) >= workloads.MIN_OPS
    assert Counter(map(cost_class, a)) == Counter(map(cost_class, b))


def test_cli_large_runs_equal_thirds():
    ops = workloads.make_ops("cli-large", 3, SECONDS)
    kinds = Counter(("--circular" in op.arg, op.arg[0]) for op in ops)
    assert sorted(kinds.values()) == [len(ops) // 3] * 3


def test_failed_checks_are_counted_and_the_run_finishes(monkeypatch, capsys):
    real = parkseq.sample_linear
    calls = Counter()

    def sabotaged(sizes, rng):
        calls["n"] += 1
        if calls["n"] % 10 == 0:
            raise RuntimeError("sabotaged draw")
        prefs = real(sizes, rng)
        if calls["n"] % 10 == 5:
            # Every car prefers the last spot: at most one of them fits.
            return parkseq.PrefSequence((sizes.total,) * sizes.n)
        return prefs

    monkeypatch.setattr(parkseq, "sample_linear", sabotaged)
    argv = ["--workload", "sample", "--seed", "1", "--seconds", "1", "--trace", "0"]
    assert run.main(argv) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] == workloads.WORKLOADS["sample"].op_count(1)
    # The timed ops are the last `attempted` calls; the rest were warm-up.
    timed = range(calls["n"] - result["attempted"] + 1, calls["n"] + 1)
    raised = sum(k % 10 == 0 for k in timed)
    wrong = sum(k % 10 == 5 for k in timed)
    assert raised > 0 and wrong > 0
    assert result["failed"] == raised + wrong
    assert result["correct"] is False
    assert set(result["metrics"]) == {
        "throughput_ops_s", "latency_p50_ms", "latency_p90_ms", "peak_rss_mb", "setup_s"
    }


def test_missing_sources_exit_nonzero_without_a_result(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(run, "SRC", str(tmp_path))
    argv = ["--workload", "sample", "--seed", "1", "--seconds", "1", "--trace", "0"]
    assert run.main(argv) != 0
    assert capsys.readouterr().out == ""


COUNTS = ("divider.options_built", "bruteforce.tuples_classified",
          "bruteforce.tuples_simulated", "cli.stdout_bytes")


def traced_metrics(ops):
    tracer = Tracer()
    tracer.install()
    try:
        latencies, failed = run.run_ops(ops, workloads.build_objects(ops), tracer)
    finally:
        tracer.uninstall()
    assert failed == 0
    return run.per_layer(tracer, sum(latencies), sum(latencies))


@pytest.mark.parametrize("name,count,layers", [
    ("sample", 8, ("divider",)),
    ("oracle", 40, ("bruteforce",)),
    ("bijection", 2, ("circular", "core", "bruteforce", "divider")),
    ("cli-large", 3, ("core", "circular")),
])
def test_traced_counts_repeat_exactly(name, count, layers):
    ops = workloads.make_ops(name, 5, SECONDS)[:count]
    first, second = traced_metrics(ops), traced_metrics(ops)
    counts = [k for k in first if k.endswith(".calls") or k in COUNTS]
    assert {k: first[k] for k in counts} == {k: second[k] for k in counts}
    assert sum(first[f"share.{layer}"] for layer in layers) > 0.5


def test_trace_counters_match_the_work_done():
    oracle = workloads.make_ops("oracle", 5, SECONDS)[:40]
    tuples = sum(
        (sum(op.sizes) + (op.arg == "circular")) ** len(op.sizes) for op in oracle
    )
    assert traced_metrics(oracle)["bruteforce.tuples_classified"] == tuples

    bijection = workloads.make_ops("bijection", 5, SECONDS)[:1]
    sizes = bijection[0].sizes
    metrics = traced_metrics(bijection)
    # bijection_checks enumerates the whole linear and circular domains
    total = sum(sizes)
    assert metrics["bruteforce.tuples_simulated"] == total ** 4 + (total + 1) ** 4
    assert metrics["bruteforce.parked_frac"] == pytest.approx(
        (parkseq.count_linear(parkseq.SizeVector(sizes))
         + parkseq.count_circular(parkseq.SizeVector(sizes)))
        / (total ** 4 + (total + 1) ** 4)
    )


def test_uninstall_restores_every_original():
    originals = (parkseq.simulate_linear, parkseq.cli.simulate_linear,
                 parkseq.divider.empty_spot, Layout.block, Layout.occupied)
    tracer = Tracer()
    tracer.install()
    assert parkseq.cli.simulate_linear is not originals[1]
    assert parkseq.divider.empty_spot is not originals[2]
    tracer.uninstall()
    assert (parkseq.simulate_linear, parkseq.cli.simulate_linear,
            parkseq.divider.empty_spot, Layout.block, Layout.occupied) == originals


def test_metric_names_match_benchmark_json():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)
    emitted = {
        "end_to_end": set(run.end_to_end([0.1, 0.2], 0.1)),
        "per_layer": set(traced_metrics(workloads.make_ops("sample", 1, 1)[:1]))
        | {"core.peak_alloc_mb"},
    }
    for kind, names in emitted.items():
        assert set(run.units_of(kind)) == names


def test_linear_count_witness_agrees_with_the_program():
    for sizes in workloads.all_compositions(5, 9):
        assert workloads.linear_count(sizes) == parkseq.count_linear(
            parkseq.SizeVector(sizes)
        )
    # Classical parking functions: (n + 1)^(n - 1).
    assert workloads.linear_count((1,) * 6) == 7 ** 5


def test_scaling_follows_the_reference_unit():
    units = [hostspeed.REFERENCE_S * 2] * 4
    assert hostspeed.scaled([0.2, 0.4, 0.6], units) == pytest.approx([0.1, 0.2, 0.3])
    # An op is scaled by the units timed around it, not by distant ones.
    units = [hostspeed.REFERENCE_S] * 5 + [hostspeed.REFERENCE_S * 3] * 6
    out = hostspeed.scaled([0.01] * 10, units)
    assert out[0] == pytest.approx(0.01) and out[-1] == pytest.approx(0.01 / 3)
