"""Brute-force ground truth over the full preference-tuple domain.

Every tuple in [1, T]^n (linear) or [1, M]^n (circular) is classified as
parked, collision, or past-end, and the parked tally is compared against
the closed-form count. The tally walks reachable occupancy states instead
of materializing each tuple (a failed prefix fails every extension the
same way, and distinct prefixes with equal occupancy behave identically
from then on), which gives per-tuple-exact tallies without per-tuple work.
Within a state, one mask finds the starts where the car's block fits, so
a state costs that mask plus one step per fitting start, not the lot size.
The tests cross-check it against a literal one-simulation-per-tuple loop.
Each flavor's lot is read from `core._lot`, which refuses unknown ones.

The parking sequences themselves are listed by a depth-first walk over
the prefixes that parked, which reads a block table (`_blocks`) per car
once per free spot and never extends a failed prefix. It yields them in
lexicographic order, so the bijection checks take them block by block.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, fields
from typing import Iterator

from .circular import _turn
from .core import Flavor, PrefSequence, SizeVector, _ints, _lot
from .counting import _decimal, _option_counts, count_circular, count_linear
from .divider import _walk

DEFAULT_BUDGET = 10**8


class BudgetExceededError(Exception):
    """Raised instead of silently truncating an enumeration."""

    def __init__(self, sizes: SizeVector, flavor: Flavor, required: int, budget: int):
        self.sizes = sizes
        self.flavor = flavor
        self.required = required
        self.budget = budget
        super().__init__(
            f"enumeration of sizes={sizes.sizes} ({flavor}) needs "
            f"{_decimal(required)} tuples, budget is {_decimal(budget)}"
        )


@dataclass(frozen=True)
class EnumerationReport:
    sizes: SizeVector
    flavor: Flavor
    total_tuples: int
    parked: int
    collisions: int
    past_end: int
    formula_value: int
    match: bool


def _check_budget(sizes: SizeVector, flavor: Flavor, budget: int) -> tuple[int, bool]:
    """The lot of `flavor` (`core._lot`), once its tuple domain fits the budget."""
    base, wrap = _lot(sizes, flavor)
    # a budget below 1 admits no instance: a usage error, not a refusal
    _ints((budget,), "budget must be >= 1, got {}")
    required = base**sizes.n
    if required > budget:
        raise BudgetExceededError(sizes, flavor, required, budget)
    return base, wrap


def _blocks(size: int, base: int, wrap: bool) -> list[int]:
    """The occupancy bitmask (bit s-1 = spot s) that a car of `size` covers
    when it parks at spot j, as entry j, for a lot of `base` spots; with
    `wrap` the lot is a circle and a block past spot `base` folds to spot 1.
    On the line the entry is 0 where the car would run past the end.
    """
    unit = (1 << size) - 1
    full = (1 << base) - 1
    return [0] + [  # entry k + 1: the block shifted k spots from spot 1
        (unit << k | unit << k >> base) & full if wrap or k + size <= base else 0
        for k in range(base)
    ]


def _tally(
    sizes: SizeVector, flavor: Flavor, first_lo: int, first_hi: int
) -> tuple[int, int, int]:
    """Classify every tuple whose first coordinate lies in [first_lo, first_hi].

    Returns (parked, collisions, past_end). Tuples are aggregated by the
    occupancy state they reach; counts are exact integers. The preferences
    in (previous free spot, j] cruise to free spot j, and the car parks if
    its block fits there. So a state costs one mask of the starts that fit
    (free spots ANDed over ceil(log2 y) doubling shifts; on the circle over
    three laps, read on the middle one, so that a block past M wraps and
    the first free spot takes the wrapped trailing run) plus one step per
    fitting start. On the line the preferences above the highest free spot
    whose block ends in the lot run past the end; all other reach that
    meets no fitting start collides. The first car meets an empty lot,
    where each preference in [first_lo, first_hi] is its own free spot
    (none if first_lo > first_hi). The last car builds no block table
    (`_blocks`): its parked reach stays keyed by the state it came from.
    """
    n = sizes.n
    base, wrap = _lot(sizes, flavor)
    full = (1 << base) - 1
    first, *rest = sizes.sizes
    starts = range(first_lo, min(first_hi, base if wrap else base - first + 1) + 1)
    past_end = (max(0, first_hi - first_lo + 1) - len(starts)) * base ** (n - 1)
    if n == 1:
        return len(starts), 0, past_end
    blocks = _blocks(first, base, wrap)
    states = {blocks[j]: 1 for j in starts}
    collisions = 0
    lap = base if wrap else 0  # the offset of the lap the starts are read on
    laps = 1 | 1 << base | 1 << 2 * base if wrap else 1
    for car, size in enumerate(rest, 2):
        # the last car's parked reach stays keyed by the state it came from
        blocks = [0] * lap + (_blocks(size, base, wrap) if car < n else [0] * (base + 1))
        shifts = [min(1 << k, size - (1 << k)) for k in range((size - 1).bit_length())]
        room = full << base if wrap else full >> size - 1
        tried = 0  # reach that does not run past the end
        nxt: dict[int, int] = {}
        for mask, count in states.items():
            free = full & ~mask
            fits = ring = free * laps
            for shift in shifts:  # the starts whose whole block is free
                fits &= fits >> shift
            if wrap:  # keep the middle lap
                fits &= room
            else:  # above the last free start whose block ends in the lot, past the end
                tried += count * (free & room).bit_length()
            while fits:
                low = fits & -fits
                fits ^= low
                j = low.bit_length()
                reach = count * (j - (ring & (low - 1)).bit_length())
                block = mask | blocks[j]
                nxt[block] = nxt.get(block, 0) + reach
        total = base * sum(states.values())
        if wrap:
            tried = total
        collisions += (tried - sum(nxt.values())) * base ** (n - car)
        past_end += (total - tried) * base ** (n - car)
        states = nxt
    return sum(states.values()), collisions, past_end


def verify(
    sizes: SizeVector,
    flavor: Flavor = "linear",
    budget: int = DEFAULT_BUDGET,
    partitions: int = 1,
) -> EnumerationReport:
    """Exhaustively classify the tuple domain and compare with the formula.

    `partitions` splits the first coordinate into contiguous blocks whose
    tallies are summed; the merged report is identical for any partition
    count (asserted by the tests). Past one block per first coordinate a
    block would be empty, so at most `base` blocks are made.
    """
    _ints((partitions,), "partitions must be >= 1, got {!r}")
    base, wrap = _check_budget(sizes, flavor, budget)
    k = min(partitions, base)
    bounds = [1 + (base * i) // k for i in range(k + 1)]
    tallies = [_tally(sizes, flavor, lo, hi - 1) for lo, hi in zip(bounds, bounds[1:])]
    parked, collisions, past_end = map(sum, zip(*tallies))
    formula = count_circular(sizes) if wrap else count_linear(sizes)
    return EnumerationReport(
        sizes=sizes,
        flavor=flavor,
        total_tuples=base**sizes.n,
        parked=parked,
        collisions=collisions,
        past_end=past_end,
        formula_value=formula,
        match=parked == formula,
    )


def _parking_states(
    sizes: SizeVector, flavor: Flavor
) -> Iterator[tuple[tuple[int, ...], tuple[int, ...], int]]:
    """Yield (prefs, starts, final occupancy mask) for every parking
    sequence, in lexicographic order; car i parks at starts[i-1].

    A depth-first walk over the prefixes that parked, kept on an explicit
    stack; a failed prefix is never extended. At each prefix the
    preferences are walked from high to low, so each knows the free spot
    it cruises to, which is where it parks: those in (previous free spot,
    j] reach free spot j, and the run after the last free spot cruises
    past the end on the line and to the first free spot on the circle. So
    a prefix costs one lookup per free spot in the block table `_tally`
    reads (`_blocks`), and the children that park at one spot share one
    starts tuple. Children are pushed from high to low, so the lowest is
    popped first.
    """
    base, wrap = _lot(sizes, flavor)
    full = (1 << base) - 1
    tables = [_blocks(size, base, wrap) for size in sizes.sizes]
    n = len(tables)
    stack: list[tuple[tuple[int, ...], tuple[int, ...], int]] = [((), (), 0)]
    while stack:
        prefix, starts, mask = stack.pop()
        depth = len(prefix)
        if depth == n:
            yield prefix, starts, mask
            continue
        blocks = tables[depth]
        free = full & ~mask
        if wrap:  # the trailing run wraps to the first free spot
            first = (free & -free).bit_length()
            block = blocks[first]
            if not mask & block:
                parked = starts + (first,)
                for c in range(base, free.bit_length(), -1):
                    stack.append((prefix + (c,), parked, mask | block))
        while free:
            j = free.bit_length()
            free ^= 1 << (j - 1)
            block = blocks[j]
            if block and not mask & block:
                parked = starts + (j,)
                for c in range(j, free.bit_length(), -1):
                    stack.append((prefix + (c,), parked, mask | block))


def enumerate_parking_sequences(
    sizes: SizeVector, flavor: Flavor = "linear", budget: int = DEFAULT_BUDGET
) -> Iterator[PrefSequence]:
    """Yield the preference tuples under which all cars park, in
    lexicographic order.

    The budget is checked against the whole tuple domain, but only the
    prefixes that parked are walked (see `_parking_states`).
    """
    _check_budget(sizes, flavor, budget)
    for prefs, _, _ in _parking_states(sizes, flavor):
        yield PrefSequence(prefs, flavor)


def compositions(max_n: int, max_total: int) -> Iterator[tuple[int, ...]]:
    """All tuples of positive integers with at most max_n parts summing to
    at most max_total, in (n, lexicographic) order. A bound below 1 admits
    no composition, so it raises ValueError rather than yield nothing."""
    _ints((max_n, max_total), "sweep bounds must be >= 1, got max_n={max_n}, "
          "max_total={max_total}", max_n=max_n, max_total=max_total)
    for n in range(1, max_n + 1):
        for total in range(n, max_total + 1):
            for cuts in itertools.combinations(range(1, total), n - 1):
                edges = (0,) + cuts + (total,)
                yield tuple(edges[i + 1] - edges[i] for i in range(n))


@dataclass(frozen=True)
class BijectionReport:
    """Exhaustive evidence that the divider decoder is a bijection."""

    sizes: SizeVector
    option_sequences: int
    distinct_decodes: int
    circular_parking_sequences: int
    linear_parking_sequences: int
    decode_valid: bool
    decode_injective: bool
    image_equals_circular_set: bool
    image_count_matches_formula: bool
    restriction_matches_linear_set: bool
    rotation_invariant: bool

    @property
    def checks(self) -> dict[str, bool]:
        """Every check by name, in field order: the fields that are bools."""
        values = {f.name: getattr(self, f.name) for f in fields(self)}
        return {name: v for name, v in values.items() if isinstance(v, bool)}

    @property
    def all_pass(self) -> bool:
        return all(self.checks.values())


def bijection_checks(
    sizes: SizeVector, budget: int = DEFAULT_BUDGET
) -> BijectionReport:
    """Decode every option sequence and compare against brute force.

    Checks decode validity, injectivity, image = circular parking set =
    formula count, the spot-M-empty restriction against the linear
    parking set, and closure of the circular set under all M rotations,
    block by block of car 1's preference c = 1..M: the circular walk
    (`_parking_states`) yields each block whole, its `count_linear`
    sequences mapped to their starts. `_walk` places cars 2..n with car 1
    at spot 1, once per codes of cars 2..n, and car 1's code only turns
    the walk, as in `decode` and the samplers. So the walks are laid out
    column by column, grouped by car 1's preference p (one group, p = 1,
    unless a walk is wrong), and one `_turn` by c - p of each group decodes
    into block c, where each decoded start is looked up; the blocks are
    disjoint, so the image is compared and counted block by block. A turn
    by 1 maps block c onto block c + 1, so the set is closed under every
    rotation exactly when each block c is block 1 turned by c - 1.
    """
    m, _ = _check_budget(sizes, "circular", budget)
    n = sizes.n

    def cut(spots: tuple[int, ...], width: int) -> list[tuple[int, ...]]:
        rows = len(spots) // width  # `width` equal columns laid end to end
        return [spots[k * rows:(k + 1) * rows] for k in range(width)]

    prefix = tuple(itertools.accumulate(sizes.sizes, initial=0))
    codes = itertools.product(*map(range, _option_counts(sizes)[1:]))
    walks: dict[int, list[tuple[int, ...]]] = {}
    for prefs, starts, _ in (_walk(prefix, r) for r in codes):
        walks.setdefault(prefs[0], []).append(prefs + starts)
    total = m * sum(map(len, walks.values()))
    # by car 1's preference: n preference columns, then n start columns
    groups = [(p, tuple(itertools.chain(*zip(*w)))) for p, w in walks.items()]

    spot_m_empty = (1 << (m - 1)) - 1  # the final occupancy of spots 1..T
    restricted = set()
    stream = _parking_states(sizes, "circular")
    state = next(stream, None)
    circular = distinct = 0
    decode_valid = image_equals_circular_set = rotation_invariant = True
    for c in range(1, m + 1):
        block: dict[tuple[int, ...], tuple[int, ...]] = {}
        while state and state[0][0] == c:
            prefs, starts, mask = state
            block[prefs] = starts
            if mask == spot_m_empty:
                restricted.add(prefs)
            state = next(stream, None)
        circular += len(block)
        image: set[tuple[int, ...]] = set()
        for p, columns in groups:
            spots = cut(_turn(columns, (c - p) % m, m), 2 * n)
            prefs = list(zip(*spots[:n]))
            image.update(prefs)
            decode_valid &= list(map(block.get, prefs)) == list(zip(*spots[n:]))
        distinct += len(image)
        image_equals_circular_set &= image == block.keys()
        if c == 1:
            first = tuple(itertools.chain(*zip(*block)))
        else:
            turned = zip(*cut(_turn(first, c - 1, m), n))
            rotation_invariant &= len(block) * n == len(first) and all(
                map(block.__contains__, turned))
    linear_set = {prefs for prefs, _, _ in _parking_states(sizes, "linear")}

    return BijectionReport(
        sizes=sizes,
        option_sequences=total,
        distinct_decodes=distinct,
        circular_parking_sequences=circular,
        linear_parking_sequences=len(linear_set),
        decode_valid=decode_valid,
        decode_injective=distinct == total,
        image_equals_circular_set=image_equals_circular_set,
        image_count_matches_formula=distinct == count_circular(sizes),
        restriction_matches_linear_set=restricted == linear_set,
        rotation_invariant=rotation_invariant,
    )


def verify_sweep(
    max_n: int,
    max_total: int,
    flavor: Flavor = "linear",
    budget: int = DEFAULT_BUDGET,
) -> list[EnumerationReport]:
    """Run verify over every composition within the bounds; `compositions`
    refuses a bound below 1, which would give an empty sweep that reads as
    all matching."""
    return [
        verify(SizeVector(comp), flavor, budget=budget)
        for comp in compositions(max_n, max_total)
    ]
