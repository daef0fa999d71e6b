"""Host-speed correction: a fixed reference unit timed between the ops.

On a shared VM the speed of the host drifts by a fifth and jumps by a
third within minutes, and it moves most of what the interpreter does
alike (see NOTES.md). The reference unit is fixed pure-Python work that
is not parkseq code: integer arithmetic through a dict, fresh small
tuples, a fresh list of ints, a scan of a fresh buffer and a list of
fresh class instances. The instances matter most: without them the unit
slowed less than the allocation-heavy workloads when the host slowed. It is timed before every op and after the last
one. Each op's wall time is then scaled by REFERENCE_S over the median of
the units timed around it, which gives what the op would have taken on a
host that runs the unit in REFERENCE_S. A change to parkseq moves the op
times and leaves the unit alone; a change of host speed moves both.
"""

# Only built-in modules: a set-up probe imports this module before its
# clock starts, and must not load for parkseq what parkseq imports itself.
import gc
from time import perf_counter

# Median time of one unit on the reference host (2-vCPU Xeon VM at
# 2.1 GHz, Python 3.11.7). A constant, so that scaled times from runs at
# different moments compare; it is never re-measured.
REFERENCE_S = 0.0006
# Units on each side of an op whose median scales it.
NEIGHBOURS = 2


class _Cell:
    __slots__ = ("a", "b")

    def __init__(self, a: int, b: int) -> None:
        self.a = a
        self.b = b


def _unit() -> int:
    acc = 0
    table = {}
    for i in range(750):
        acc = (acc + i * i) % 1000003
        table[i & 63] = acc
    rows = [(k, k & 7, -k) for k in range(500)]
    ints = list(range(7_500))
    buf = bytearray(50_000)
    buf[-1] = 1
    cells = [_Cell(k, k + 1) for k in range(1500)]
    return (acc + len(table) + len(rows) + sum(ints[::4]) + buf.find(1)
            + sum(c.a for c in cells[::7]))


def time_unit() -> float:
    """Seconds of one reference unit, with the cyclic collector held off so
    that the heap the program left behind does not enter the measurement."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = perf_counter()
        _unit()
        return perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def scaled(latencies: list[float], units: list[float]) -> list[float]:
    """Each op's seconds at reference speed; units[i] was timed just before
    op i, and units[-1] after the last op."""
    assert len(units) == len(latencies) + 1
    out = []
    for i, seconds in enumerate(latencies):
        around = units[max(i + 1 - NEIGHBOURS, 0):i + 1 + NEIGHBOURS]
        out.append(seconds * REFERENCE_S / median(around))
    return out


def median(values: list[float]) -> float:
    ordered = sorted(values)
    mid = len(ordered) // 2
    return (ordered[mid] + ordered[~mid]) / 2
