"""The benchmark's workloads: seed-determined op lists, how to run one op,
and how to check its result.

Every workload runs a fixed list of ops whose length depends only on the
workload and the requested seconds, never on how fast the host is, so the
cost mix of a run is the same on every machine and for every seed. The
seed chooses the inputs and the op order.

`parkseq` must be importable before this module is imported.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
from dataclasses import dataclass
from random import Random
from typing import Callable

import parkseq
import parkseq.cli

# Captured at import, before any tracing wrapper is installed, so that the
# checks are never traced and never counted as program work.
_simulate_linear = parkseq.simulate_linear

SAMPLE_CARS, SAMPLE_SPOTS, SAMPLE_VECTORS = 128, 512, 8
ORACLE_MAX_CARS, ORACLE_MAX_SPOTS = 6, 12
BIJECTION_CARS, BIJECTION_SPOTS = 4, 6
CLI_CARS, CLI_SPOTS = 4, 300_000
CLI_KINDS = ("count", "simulate", "simulate-circular")
# p90 needs at least ten samples beyond it.
MIN_OPS = 100


@dataclass(frozen=True)
class Op:
    """One call into the program: `kind` names the entry point, `sizes`
    the car sizes, and `arg` the rest (a draw seed, a flavor or an argv)."""

    kind: str
    sizes: tuple[int, ...]
    arg: object = None


@dataclass(frozen=True)
class CliRun:
    exit_code: int
    stdout: str


def random_composition(rng: Random, total: int, parts: int) -> tuple[int, ...]:
    """A composition of `total` into `parts` positive parts."""
    cuts = sorted(rng.sample(range(1, total), parts - 1))
    edges = (0, *cuts, total)
    return tuple(b - a for a, b in zip(edges, edges[1:]))


def all_compositions(max_parts: int, max_total: int) -> list[tuple[int, ...]]:
    """Every composition with at most `max_parts` parts and sum at most
    `max_total`; built here rather than by the program under test."""
    out = []
    for parts in range(1, max_parts + 1):
        for total in range(parts, max_total + 1):
            for cuts in itertools.combinations(range(1, total), parts - 1):
                edges = (0, *cuts, total)
                out.append(tuple(b - a for a, b in zip(edges, edges[1:])))
    return out


def _sample_ops(rng: Random, count: int) -> list[Op]:
    vectors = [
        random_composition(rng, SAMPLE_SPOTS, SAMPLE_CARS) for _ in range(SAMPLE_VECTORS)
    ]
    return [
        Op("sample", vectors[k % SAMPLE_VECTORS], rng.getrandbits(64))
        for k in range(count)
    ]


def _shuffled_rounds(rng: Random, base: list, count: int) -> list:
    ops: list = []
    for _ in range(count // len(base)):
        round_ = list(base)
        rng.shuffle(round_)
        ops.extend(round_)
    return ops


def _oracle_ops(rng: Random, count: int) -> list[Op]:
    base = [
        Op("verify", sizes, flavor)
        for sizes in all_compositions(ORACLE_MAX_CARS, ORACLE_MAX_SPOTS)
        for flavor in ("linear", "circular")
    ]
    return _shuffled_rounds(rng, base, count)


def _bijection_sizes() -> list[tuple[int, ...]]:
    return [
        sizes
        for sizes in all_compositions(BIJECTION_CARS, BIJECTION_SPOTS)
        if len(sizes) == BIJECTION_CARS and sum(sizes) == BIJECTION_SPOTS
    ]


def _bijection_ops(rng: Random, count: int) -> list[Op]:
    base = [Op("bijection", sizes) for sizes in _bijection_sizes()]
    return _shuffled_rounds(rng, base, count)


def _cli_ops(rng: Random, count: int) -> list[Op]:
    ops = []
    for kind in _shuffled_rounds(rng, list(CLI_KINDS), count):
        sizes = random_composition(rng, CLI_SPOTS, CLI_CARS)
        # The block starts as preferences: every car parks, on both lots.
        starts = list(itertools.accumulate((1, *sizes[:-1])))
        argv = ["count" if kind == "count" else "simulate"]
        argv += ["--sizes", ",".join(map(str, sizes))]
        if kind != "count":
            argv += ["--prefs", ",".join(map(str, starts))]
        if kind == "simulate-circular":
            argv.append("--circular")
        argv.append("--json")
        ops.append(Op("cli", sizes, tuple(argv)))
    return ops


@dataclass(frozen=True)
class Workload:
    name: str
    # Per-op cost on the reference host (2-vCPU x86-64, Python 3.11); it
    # turns --seconds into a list length and is never re-measured.
    nominal_op_s: float
    # The list length is a multiple of this, so every round of inputs is whole.
    granule: int
    make: Callable[[Random, int], list[Op]]

    def op_count(self, seconds: float) -> int:
        granules = max(round(seconds / (self.nominal_op_s * self.granule)), 1)
        floor = -(-MIN_OPS // self.granule)
        return self.granule * max(granules, floor)


WORKLOADS = {
    w.name: w
    for w in (
        Workload("sample", 0.033, SAMPLE_VECTORS, _sample_ops),
        Workload(
            "oracle",
            0.004,
            2 * len(all_compositions(ORACLE_MAX_CARS, ORACLE_MAX_SPOTS)),
            _oracle_ops,
        ),
        Workload("bijection", 0.11, len(_bijection_sizes()), _bijection_ops),
        Workload("cli-large", 0.075, len(CLI_KINDS), _cli_ops),
    )
}


def make_ops(name: str, seed: int, seconds: float) -> list[Op]:
    """The op list of one run; the same arguments give the same list."""
    workload = WORKLOADS[name]
    return workload.make(Random(f"{name}:{seed}"), workload.op_count(seconds))


def setup_sizes(ops: list[Op]) -> list[tuple[int, ...]]:
    """The size vectors the program objects are built from, in first-use order."""
    return list(dict.fromkeys(op.sizes for op in ops if op.kind != "cli"))


def build_objects(ops: list[Op]) -> dict[tuple[int, ...], parkseq.SizeVector]:
    return {sizes: parkseq.SizeVector(sizes) for sizes in setup_sizes(ops)}


def _run_cli(argv: list[str]) -> CliRun:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = parkseq.cli.main(argv)
    return CliRun(code, out.getvalue())


def bind(
    op: Op, objects: dict[tuple[int, ...], parkseq.SizeVector]
) -> tuple[Callable[[], object], Callable[[object], bool]]:
    """The op as a zero-argument call, and the check of its result.

    Program functions are looked up when the call runs, so tracing
    wrappers installed on the modules are seen.
    """
    if op.kind == "cli":
        argv = list(op.arg)
        return (lambda: _run_cli(argv)), (lambda r: _check_cli(op, r))
    sizes = objects[op.sizes]
    if op.kind == "sample":
        rng = Random(op.arg)
        return (lambda: parkseq.sample_linear(sizes, rng)), (
            lambda r: _check_sample(sizes, r)
        )
    if op.kind == "verify":
        return (lambda: parkseq.verify(sizes, op.arg)), (
            lambda r: _check_verify(sizes, op.arg, r)
        )
    if op.kind == "bijection":
        return (lambda: parkseq.bruteforce.bijection_checks(sizes)), (
            lambda r: r.all_pass
        )
    raise ValueError(f"unknown op kind {op.kind!r}")


def _check_sample(sizes: parkseq.SizeVector, prefs: object) -> bool:
    return (
        isinstance(prefs, parkseq.PrefSequence)
        and prefs.flavor == "linear"
        and len(prefs) == sizes.n
        and all(1 <= c <= sizes.total for c in prefs.prefs)
        and isinstance(_simulate_linear(sizes, prefs), parkseq.Parked)
    )


def _check_verify(
    sizes: parkseq.SizeVector, flavor: str, report: parkseq.EnumerationReport
) -> bool:
    base = sizes.total if flavor == "linear" else sizes.circle_size
    return (
        report.match
        and report.flavor == flavor
        and report.total_tuples == base**sizes.n
        and report.parked + report.collisions + report.past_end == report.total_tuples
    )


def linear_count(sizes: tuple[int, ...]) -> int:
    """The paper's count of linear parking sequences, written out here as a
    witness independent of `parkseq.counting`:
    (y1 + n)(y1 + y2 + n - 1) ... (y1 + ... + y_{n-1} + 2)."""
    n = len(sizes)
    count = 1
    for k in range(1, n):
        count *= sum(sizes[:k]) + n + 1 - k
    return count


def _check_cli(op: Op, run: CliRun) -> bool:
    if run.exit_code != 0:
        return False
    doc = json.loads(run.stdout)
    sizes = op.sizes
    common = {"command": op.arg[0], "sizes": list(sizes)}
    if op.arg[0] == "count":
        return doc == {
            **common,
            "flavor": "linear",
            "count": str(linear_count(sizes)),
        }
    circular = "--circular" in op.arg
    starts = itertools.accumulate((1, *sizes[:-1]))
    expected = {
        **common,
        "flavor": "circular" if circular else "linear",
        "result": "parked",
        "layout": [
            {"car": car, "start": s, "end": s + y - 1}
            for car, (s, y) in enumerate(zip(starts, sizes), start=1)
        ],
    }
    if circular:
        expected["empty_spot"] = sum(sizes) + 1
    return doc == expected
