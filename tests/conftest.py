import functools
import itertools
import sys
import tracemalloc
from collections import Counter
from collections.abc import Iterator, Set
from contextlib import contextmanager

from parkseq import (
    Collision,
    Layout,
    Parked,
    PastEnd,
    PrefSequence,
    SizeVector,
    wrap_spot,
)
from parkseq.counting import _option_counts


def block_spots(j: int, y: int, base: int, wrap: bool) -> list[int]:
    """The spots a car of size y parked at spot j covers, in driving order:
    on the circle of `base` spots they wrap past `base` to 1; on the line a
    block that ends past `base` runs off the end."""
    return [(j - 1 + k) % base + 1 if wrap else j + k for k in range(y)]


def naive_park(taken: Set[int], c: int, y: int, base: int, wrap: bool) -> list[int]:
    """The literal parking step, spot by spot: a car of size y that prefers
    spot c cruises from c over the `taken` spots to the first empty one, on
    the line or, with wrap, around the circle, and takes the block from
    there. Returns that block; the car parks when it ends by `base` and no
    spot of it is taken. Every reference below parks its cars with it."""
    j, steps = c, 0
    while j in taken:
        j = j % base + 1 if wrap else j + 1
        steps += 1
        if steps > base:  # unreachable while a spot is empty
            raise RuntimeError("scan failed to find an empty spot")
    return block_spots(j, y, base, wrap)


def naive_simulate(sizes: SizeVector, prefs: PrefSequence, flavor: str):
    """One sequence parked car by car with naive_park: the literal reference
    the run-list kernel and the oracle's block tables are checked against.
    Preferences are taken as valid."""
    wrap = flavor == "circular"
    base = sizes.circle_size if wrap else sizes.total
    taken: set[int] = set()
    starts: list[int] = []
    for i, (c, y) in enumerate(zip(prefs.prefs, sizes.sizes), start=1):
        block = naive_park(taken, c, y, base, wrap)
        if block[-1] > base:
            return PastEnd(car=i)
        for s in block:
            if s in taken:
                return Collision(car=i, first_empty=block[0], blocked=s)
        taken.update(block)
        starts.append(block[0])
    return Parked(Layout(sizes, tuple(starts), flavor))


def naive_tally(sizes: SizeVector, flavor: str) -> tuple[int, int, int]:
    """Literal one-simulation-per-tuple classification of the whole domain.

    Deliberately naive: this is the independent reference the aggregated
    oracle and the closed-form counts are both checked against, and the
    witness that the prefix-built references below miss no tuple.
    """
    base = sizes.total if flavor == "linear" else sizes.circle_size
    kinds = Counter(
        type(naive_simulate(sizes, PrefSequence(tup, flavor), flavor))
        for tup in itertools.product(range(1, base + 1), repeat=sizes.n)
    )
    assert set(kinds) <= {Parked, Collision, PastEnd}
    return kinds[Parked], kinds[Collision], kinds[PastEnd]


def naive_prefix_tally(
    sizes: SizeVector, flavor: str, first_lo: int, first_hi: int
) -> tuple[int, int, int]:
    """Classify the tuples whose first coordinate lies in [first_lo, first_hi],
    merging prefixes that leave the same spots taken.

    Every preference is tried and parked with naive_park on a set of taken
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
                block = naive_park(taken, c, y, base, wrap)
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
    """The parking sequences, built car by car: every prefix that parks is
    extended by each preference of the next car, parked with naive_park,
    and kept when that car parks too. SizeVector hashes by its sizes, so
    each (sizes, flavor) set is built once per session."""
    wrap = flavor == "circular"
    base = sizes.circle_size if wrap else sizes.total
    parked: dict[tuple[int, ...], frozenset[int]] = {(): frozenset()}
    for y in sizes.sizes:
        parked = {
            prefix + (c,): taken.union(block)
            for prefix, taken in parked.items()
            for c in range(1, base + 1)
            if (block := naive_park(taken, c, y, base, wrap))[-1] <= base
            and taken.isdisjoint(block)
        }
    return frozenset(parked)


def option_codes(sizes: SizeVector) -> Iterator[tuple[int, ...]]:
    """Every option sequence as one code per car, car 1's is its anchor spot
    minus one, in the order of `enumerate_option_sequences`: anchors
    outermost, then car 2's code, and so on."""
    return itertools.product(*map(range, _option_counts(sizes)))


def naive_free_spots(layout: Layout) -> set[int]:
    """The spots of a circular layout that no car covers, listed spot by
    spot: the literal reference for empty_spot."""
    m = layout.sizes.circle_size
    return set(range(1, m + 1)).difference(
        *(block_spots(s, y, m, True) for s, y in zip(layout.starts, layout.sizes.sizes))
    )


def encode(prefix, prefs, starts):
    """The divider's inverse, read off a parking: the codes (r_2, ..., r_n)
    of cars 2..n whose walk, turned by any anchor, is (prefs, starts). The
    parking is first turned to put car 1 at spot 1, so no block wraps. Car
    i's cell is then the rank of its start among the starts and the empty
    spot. A car that prefers its own start picked its cell directly, and
    its code is that cell's index among the cells still open; otherwise it
    prefers spot k (0-based) of car j's block, so its code is n + 2 - i +
    prefix[j] + k, with j 0-based, and its cell must be the next open cell
    clockwise after car j's."""
    n = len(prefix) - 1
    m = prefix[n] + 1
    sizes = [prefix[j + 1] - prefix[j] for j in range(n)]
    shift = starts[0] - 1
    prefs = [wrap_spot(x - shift, m) for x in prefs]
    starts = [wrap_spot(s - shift, m) for s in starts]
    (empty,) = set(range(1, m + 1)) - {
        s + k for s, y in zip(starts, sizes) for k in range(y)
    }
    cells = sorted([*starts, empty])
    open_cells = list(range(1, n + 1))
    codes = []
    for i in range(2, n + 1):
        x, s = prefs[i - 1], starts[i - 1]
        cell = cells.index(s)
        if x == s:
            codes.append(open_cells.index(cell))
        else:
            j = next(j for j in range(n) if starts[j] <= x < starts[j] + sizes[j])
            codes.append(n + 2 - i + prefix[j] + x - starts[j])
            target = cells.index(starts[j])
            assert cell == next((q for q in open_cells if q > target), open_cells[0])
        open_cells.remove(cell)
    return tuple(codes)


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


def peak_bytes(call):
    """(call(), peak): what `call` returns and the tracemalloc peak, in
    bytes, while it ran. A generator is consumed inside `call`, with
    deque(gen, maxlen=0), or maxlen=1 to keep its last item."""
    tracemalloc.start()
    try:
        return call(), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def counted(monkeypatch, owner, name, key=lambda *args: None):
    """Wrap owner.name while the test runs. Returns the list of key(*args)
    of its calls, one entry per call, in call order."""
    original = getattr(owner, name)
    calls = []

    def wrapper(*args, **kwargs):
        calls.append(key(*args))
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, wrapper)
    return calls


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
