import functools
import itertools
import sys
from collections import Counter
from contextlib import contextmanager

from parkseq import (
    Collision,
    Layout,
    Parked,
    PastEnd,
    PrefSequence,
    SizeVector,
)


def naive_simulate(sizes: SizeVector, prefs: PrefSequence, flavor: str):
    """The parking rule spot by spot on a bytearray, the literal reference
    the run-list kernel and the oracle's block tables are checked against.
    Preferences are taken as valid."""
    starts: list[int] = []
    if flavor == "linear":
        t = sizes.total
        occupied = bytearray(t + 1)  # index 1..t
        for i, (c, y) in enumerate(zip(prefs.prefs, sizes.sizes), start=1):
            j = c
            while j <= t and occupied[j]:
                j += 1
            if j > t or j + y - 1 > t:
                return PastEnd(car=i)
            for s in range(j + 1, j + y):
                if occupied[s]:
                    return Collision(car=i, first_empty=j, blocked=s)
            for s in range(j, j + y):
                occupied[s] = 1
            starts.append(j)
        return Parked(Layout(sizes, tuple(starts), "linear"))
    m = sizes.circle_size
    occupied = bytearray(m + 1)  # index 1..m
    for i, (c, y) in enumerate(zip(prefs.prefs, sizes.sizes), start=1):
        j = c
        steps = 0
        while occupied[j]:
            j = j % m + 1
            steps += 1
            if steps > m:  # unreachable if the occupancy invariant holds
                raise RuntimeError("scan failed to find an empty spot")
        block = [(j - 1 + k) % m + 1 for k in range(y)]
        for s in block[1:]:
            if occupied[s]:
                return Collision(car=i, first_empty=j, blocked=s)
        for s in block:
            occupied[s] = 1
        starts.append(j)
    return Parked(Layout(sizes, tuple(starts), "circular"))


def naive_tally(sizes: SizeVector, flavor: str) -> tuple[int, int, int]:
    """Literal one-simulation-per-tuple classification of the whole domain.

    Deliberately naive: this is the independent reference the aggregated
    oracle and the closed-form counts are both checked against.
    """
    base = sizes.total if flavor == "linear" else sizes.circle_size
    parked = collisions = past_end = 0
    for tup in itertools.product(range(1, base + 1), repeat=sizes.n):
        result = naive_simulate(sizes, PrefSequence(tup, flavor), flavor)
        if isinstance(result, Parked):
            parked += 1
        elif isinstance(result, Collision):
            collisions += 1
        else:
            assert isinstance(result, PastEnd)
            past_end += 1
    return parked, collisions, past_end


def naive_prefix_tally(
    sizes: SizeVector, flavor: str, first_lo: int, first_hi: int
) -> tuple[int, int, int]:
    """Classify the tuples whose first coordinate lies in [first_lo, first_hi],
    merging prefixes that leave the same spots taken.

    Every preference is tried and cruised spot by spot on a set of taken
    spots: the literal reference for the oracle's free-spot step on domains
    too large for naive_tally.
    """
    wrap = flavor == "circular"
    base = sizes.circle_size if wrap else sizes.total
    collisions = past_end = 0
    states: Counter[frozenset[int]] = Counter({frozenset(): 1})
    for depth, y in enumerate(sizes.sizes):
        weight = base ** (sizes.n - depth - 1)
        prefs = range(first_lo, first_hi + 1) if depth == 0 else range(1, base + 1)
        nxt: Counter[frozenset[int]] = Counter()
        for taken, count in states.items():
            for c in prefs:
                j = c
                while j in taken:
                    j = j % base + 1 if wrap else j + 1
                block = [(j - 1 + k) % base + 1 if wrap else j + k for k in range(y)]
                if block[-1] > base:
                    past_end += count * weight
                elif taken.intersection(block):
                    collisions += count * weight
                else:
                    nxt[taken.union(block)] += count
        states = nxt
    return sum(states.values()), collisions, past_end


@functools.cache
def naive_parking_set(sizes: SizeVector, flavor: str) -> frozenset[tuple[int, ...]]:
    """The parking sequences, one simulation per tuple. SizeVector hashes
    by its sizes, so each (sizes, flavor) set is built once per session."""
    base = sizes.total if flavor == "linear" else sizes.circle_size
    return frozenset(
        tup
        for tup in itertools.product(range(1, base + 1), repeat=sizes.n)
        if isinstance(naive_simulate(sizes, PrefSequence(tup, flavor), flavor), Parked)
    )


def naive_free_spots(layout: Layout) -> set[int]:
    """The spots of a circular layout that no car covers, listed spot by
    spot: the literal reference for empty_spot."""
    m = layout.sizes.circle_size
    covered = {
        (s - 1 + k) % m + 1
        for s, y in zip(layout.starts, layout.sizes.sizes)
        for k in range(y)
    }
    return set(range(1, m + 1)) - covered


def refuse_package_bindings(monkeypatch, functions, message: str) -> None:
    """Make every binding of `functions` in parkseq and its submodules
    raise AssertionError(message) while the test runs, however a module
    imported them."""
    def refuse(*args):
        raise AssertionError(message)

    for name, module in list(sys.modules.items()):
        if name == "parkseq" or name.startswith("parkseq."):
            for attr, value in list(vars(module).items()):
                if any(value is f for f in functions):
                    monkeypatch.setattr(module, attr, refuse)


@contextmanager
def unlimited_str_digits():
    """Lift the interpreter's int-to-str digit limit inside the block, so a
    test can build the expected decimal string with plain str()."""
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(old)
