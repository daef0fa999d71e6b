"""Brute-force ground truth over the full preference-tuple domain.

Every tuple in [1, T]^n (linear) or [1, M]^n (circular) is classified as
parked, collision, or past-end, and the parked tally is compared against
the closed-form count. The tally walks reachable occupancy states instead
of materializing each tuple (a failed prefix fails every extension the
same way, and distinct prefixes with equal occupancy behave identically
from then on), which gives per-tuple-exact tallies without per-tuple work.
A state is keyed by its free-spot mask. Within it, one mask finds the
starts where the car's block fits (`_fit`), so a state costs that mask
plus one step per fitting start, not the lot size; a unit car fits at
every free spot, so it needs no mask and steps over the free spots. The
last car's parked reach is summed, not stored, and on the circle the
trailing unit cars, which always park, are a factor M each.
The tests cross-check it against a literal one-simulation-per-tuple loop.
Each flavor's lot is read from `core._lot`, which refuses unknown ones.

The parking sequences themselves are listed by a depth-first walk over
the prefixes that parked, which reads a block table (`_blocks`) per car
once per free spot and never extends a failed prefix, nor one that
leaves the last car no fitting start. The last car's preferences that
cruise to one free spot all park there, so the walk hands them over as
one run (head, lo, hi, starts, mask), in lexicographic order: the
bijection checks write each run whole into its block of car
1's preference and match each run that leaves spot M empty with the
linear walk's next run, and `enumerate_parking_sequences` expands the
runs as they come. The last car's runs depend only on the occupancy
mask the other cars leave, so they are found once per mask and kept
only where the last car parks: the walk holds its stack plus the runs
of at most T - y_n + 1 masks on the line and M(T - y_n + 1) on the
circle.
"""

from __future__ import annotations

import itertools
from bisect import bisect_left
from dataclasses import dataclass, fields
from operator import eq
from typing import Iterator

from .circular import _turn
from .core import Flavor, PrefSequence, SizeVector, _digit_count, _ints, _lot
from .counting import _decimal, count_circular, count_linear
from .divider import _plan, _walk

DEFAULT_BUDGET = 10**8

# A refusal writes a number in full up to this many digits and the size
# vector up to this many characters; past it, the number's digit count and
# the vector's length, so the refusal costs no more than the call's input.
_SHOWN = 10_000


def _shown_int(x: int) -> str:
    """x >= 1 in full up to `_SHOWN` digits, else as "<d digits>"."""
    return _decimal(x) if x < 10**_SHOWN else _digit_count(x)


def _shown_sizes(ys: tuple[int, ...]) -> str:
    """The size vector as its tuple text up to `_SHOWN` characters, else as
    "<length n>"; a text of n sizes has at least 3n - 1 characters."""
    if 3 * len(ys) - 1 <= _SHOWN and sum(ys) < 10**_SHOWN:
        text = ", ".join(map(_decimal, ys)) + "," * (len(ys) == 1)
        if len(text) + 2 <= _SHOWN:
            return f"({text})"
    return f"<length {len(ys)}>"


class BudgetExceededError(Exception):
    """Raised instead of silently truncating an enumeration. `required` is
    exact; the message writes it and the sizes within `_SHOWN`."""

    def __init__(self, sizes: SizeVector, flavor: Flavor, required: int, budget: int):
        self.sizes = sizes
        self.flavor = flavor
        self.required = required
        self.budget = budget
        super().__init__(
            f"enumeration of sizes={_shown_sizes(sizes.sizes)} ({flavor}) needs "
            f"{_shown_int(required)} tuples, budget is {_shown_int(budget)}"
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


def _fit(size: int, base: int, wrap: bool) -> tuple[int, list[int], int]:
    """(laps, shifts, room): the constants of the mask of starts where a
    car of `size` fits, for a lot of `base` spots. From the free-spot mask
    `free` (bit s-1 = spot s), the mask is `free * laps`, ANDed with itself
    shifted down by each of `shifts` (ceil(log2 size) doubling shifts, the
    last one short: size 5 shifts by 1, 2, 1), then with `room`. Its bit
    j-1 is set where the car's whole block is free from start j. With
    `wrap` the lot is a circle, copied onto three laps, and that bit is
    base + j - 1, on the middle lap, so a block past spot `base` wraps into
    the next lap; `room` keeps the middle lap. On the line the mask is one
    lap and `room` bounds the starts whose block ends inside the lot:
    `(free & room).bit_length()` is the highest free one, above which
    `_tally` counts the preferences that run past the end.
    """
    full = (1 << base) - 1
    laps = 1 | 1 << base | 1 << 2 * base if wrap else 1
    shifts = [min(1 << k, size - (1 << k)) for k in range((size - 1).bit_length())]
    room = full << base if wrap else full >> size - 1
    return laps, shifts, room


def _groups(
    mask: int, blocks: list[int], base: int, wrap: bool
) -> list[tuple[int, int, int, int]]:
    """(lo, hi, j, mask after) from low to high: the preferences lo..hi
    that cruise to free spot j and park there, with the car's blocks
    (`_blocks`). The lot has `base` spots, and `mask` holds the taken ones
    (bit s-1 = spot s); with `wrap` it is a circle, and the preferences
    past the last free spot cruise on to the first. The walk's step: one
    block-table read per free spot."""
    free = rest = ((1 << base) - 1) & ~mask
    found = []
    lo = 1
    while rest:
        low = rest & -rest
        rest ^= low
        j = low.bit_length()
        block = blocks[j]
        if block and not mask & block:
            found.append((lo, j, j, mask | block))
        lo = j + 1
    if wrap and lo <= base:  # the run past the last free spot wraps
        j = (free & -free).bit_length()
        if not mask & blocks[j]:
            found.append((lo, base, j, mask | blocks[j]))
    return found


def _tally(
    sizes: SizeVector, flavor: Flavor, first_lo: int, first_hi: int
) -> tuple[int, int, int]:
    """Classify every tuple whose first coordinate lies in [first_lo, first_hi].

    Returns (parked, collisions, past_end). Tuples are aggregated by the
    occupancy state they reach, keyed by its free-spot mask; counts are
    exact integers. The preferences in (previous free spot, j] cruise to
    free spot j, and the car parks if its block fits there. So a state
    costs one mask of the starts that fit (`_fit`; on the circle it is
    read on the middle of three laps, so the first free spot takes the
    wrapped trailing run) plus one step per fitting start. On the line the
    preferences above the highest free spot whose block ends in the lot
    run past the end; all other reach that meets no fitting start
    collides. The first car meets an empty lot, where each preference in
    [first_lo, first_hi] is its own free spot (none if first_lo >
    first_hi). A unit car among cars 2..n-1 fits at every free spot, so it
    walks the free spots with no fit mask and no block table; on the
    circle the first free spot's reach starts past the highest one. The
    last car builds no block table and no states: its parked reach is
    summed. On the line y_n spots are left free, and it parks only when
    they are one block, from the preferences up to the block's first spot;
    on the circle y_n + 1 are left, and at most two starts fit. On the
    circle a unit car parks while a spot is free, and one is free for
    each trailing unit car, so those cars are not walked: the tally of the
    cars before them is scaled by M per trailing unit car.
    """
    base, wrap = _lot(sizes, flavor)
    full = (1 << base) - 1
    first, *rest = sizes.sizes
    units = 0  # the trailing unit cars on the circle, each a factor M
    while wrap and rest and rest[-1] == 1:
        rest.pop()
        units += 1
    scale = base**units
    n = len(rest) + 1  # the cars walked
    starts = range(first_lo, min(first_hi, base if wrap else base - first + 1) + 1)
    past_end = (max(0, first_hi - first_lo + 1) - len(starts)) * base ** (n - 1)
    if not rest:
        return len(starts) * scale, 0, past_end * scale
    *middle, last = rest
    blocks = _blocks(first, base, wrap)
    states = {full ^ blocks[j]: 1 for j in starts}  # tuples by free-spot mask
    collisions = 0
    lap = base if wrap else 0  # the offset of the lap the starts are read on
    for car, size in enumerate(middle, 2):
        tried = 0  # reach that does not run past the end
        nxt: dict[int, int] = {}
        if size == 1:  # every free spot fits, so all tried reach parks
            for free, count in states.items():
                if wrap:  # the first free spot takes the run past the highest
                    prev = free.bit_length() - base
                else:  # past the highest free spot, past the end
                    prev = 0
                    tried += count * free.bit_length()
                spots = free
                while spots:
                    low = spots & -spots
                    spots ^= low
                    j = low.bit_length()
                    child = free ^ low
                    nxt[child] = nxt.get(child, 0) + count * (j - prev)
                    prev = j
        else:
            blocks = [0] * lap + _blocks(size, base, wrap)
            laps, shifts, room = _fit(size, base, wrap)
            for free, count in states.items():
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
                    child = free ^ blocks[j]
                    nxt[child] = nxt.get(child, 0) + reach
        total = base * sum(states.values())
        if wrap:
            tried = total
        collisions += (tried - sum(nxt.values())) * base ** (n - car)
        past_end += (total - tried) * base ** (n - car)
        states = nxt
    laps, shifts, room = _fit(last, base, wrap)
    parked = tried = 0
    total = base * sum(states.values())
    if wrap:  # y_n + 1 free spots: at most two starts fit
        for free, count in states.items():
            fits = ring = free * laps
            for shift in shifts:
                fits &= fits >> shift
            fits &= room
            while fits:
                low = fits & -fits
                fits ^= low
                parked += count * (low.bit_length() - (ring & (low - 1)).bit_length())
        tried = total
    else:  # y_n free spots: the car parks only if they are one block
        for free, count in states.items():
            low = free & -free
            if not free & (free + low):  # preferences 1..j cruise to its first spot j
                parked += count * low.bit_length()
            tried += count * (free & room).bit_length()
    collisions += tried - parked
    past_end += total - tried
    return parked * scale, collisions * scale, past_end * scale


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
) -> Iterator[tuple[tuple[int, ...], int, int, tuple[int, ...], int]]:
    """Yield every parking sequence as runs (head, lo, hi, starts, mask):
    the sequences head + (c,) for lo <= c <= hi, which all park at `starts`
    (car i at starts[i-1]) and leave the occupancy mask `mask`. Runs come
    in lexicographic order of their sequences.

    A depth-first walk over the prefixes of cars 1..n-2 that parked, kept
    on an explicit stack; a failed prefix is never extended. At each prefix
    the preferences are split by the free spot they cruise to, which is
    where the car parks: those in (previous free spot, j] reach free spot
    j, and the run after the last free spot cruises past the end on the
    line and to the first free spot on the circle. So a prefix costs one
    lookup per free spot in the block table `_tally` reads (`_blocks`),
    and the children that park at one spot share one starts tuple and one
    mask. Children are pushed from high to low, so the lowest is popped
    first. Car n-1 is not pushed: its groups are walked from low to high
    at its parent prefix, and each group's preferences share car n's runs
    from the mask the group leaves, one run per free spot that car n's
    block fits at, from low to high (on the circle the wrapped run, the
    highest preferences, comes last). Car n's runs depend on that mask
    alone, so they are found once per mask and kept only when car n parks
    from it, which one fit mask of its starts tells (`_fit`). The
    same test drops every child of cars 1..n-2 that leaves car n no start:
    free spots only shrink as cars park, so none of its extensions parks
    car n (a unit car n always fits, so it is not tested then). So
    memory is the stack plus the kept runs, of at most T - y_n + 1 masks
    on the line (car n's y_n free spots must be one block) and
    M(T - y_n + 1) on the circle (one more free spot, anywhere).
    """
    base, wrap = _lot(sizes, flavor)
    full = (1 << base) - 1

    *tables, last = [_blocks(size, base, wrap) for size in sizes.sizes]
    if not tables:  # one car: its runs from the empty lot
        for lo, hi, j, after in _groups(0, last, base, wrap):
            yield (), lo, hi, (j,), after
        return
    *tables, penultimate = tables
    size = sizes.sizes[-1]
    laps, shifts, room = _fit(size, base, wrap)  # car n's fit mask

    def parks(mask: int) -> bool:
        """Whether car n's block fits at some start that `mask` leaves free."""
        fits = (full & ~mask) * laps
        for shift in shifts:
            fits &= fits >> shift
        return fits & room != 0

    kept: dict[int, list[tuple[int, int, int, int]]] = {}  # car n's runs by mask
    stack: list[tuple[tuple[int, ...], tuple[int, ...], int]] = [((), (), 0)]
    while stack:
        prefix, starts, mask = stack.pop()
        if len(prefix) < len(tables):
            blocks = tables[len(prefix)]
            for lo, hi, j, child in reversed(_groups(mask, blocks, base, wrap)):
                if size > 1 and not parks(child):  # a unit car n always parks
                    continue
                parked = starts + (j,)
                for c in range(hi, lo - 1, -1):
                    stack.append((prefix + (c,), parked, child))
            continue
        for lo, hi, j, child in _groups(mask, penultimate, base, wrap):
            runs = kept.get(child)
            if runs is None:
                if not parks(child):  # car n parks from no start: not kept
                    continue
                runs = kept[child] = _groups(child, last, base, wrap)
            parked = starts + (j,)
            for c in range(lo, hi + 1):
                head = prefix + (c,)
                for a, b, k, after in runs:
                    yield head, a, b, parked + (k,), after


def enumerate_parking_sequences(
    sizes: SizeVector, flavor: Flavor = "linear", budget: int = DEFAULT_BUDGET
) -> Iterator[PrefSequence]:
    """Yield the preference tuples under which all cars park, in
    lexicographic order.

    The budget is checked against the whole tuple domain, but only the
    prefixes that parked are walked (see `_parking_states`); each run of
    the walk is expanded as it comes, so memory stays the walk's: its
    stack plus the last car's kept runs, of at most T - y_n + 1 masks on
    the line and M(T - y_n + 1) on the circle.
    """
    _check_budget(sizes, flavor, budget)
    for head, lo, hi, _, _ in _parking_states(sizes, flavor):
        for c in range(lo, hi + 1):
            yield PrefSequence(head + (c,), flavor)


def compositions(max_n: int, max_total: int) -> Iterator[tuple[int, ...]]:
    """All tuples of positive integers with at most max_n parts summing to
    at most max_total, in (n, lexicographic) order; none has more parts
    than its total, so n stops at max_total. A bound below 1 admits no
    composition, so it raises ValueError rather than yield nothing."""
    _ints((max_n, max_total), "sweep bounds must be >= 1, got max_n={max_n}, "
          "max_total={max_total}", max_n=max_n, max_total=max_total)
    for n in range(1, min(max_n, max_total) + 1):
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
    formula count, the restriction against the linear walk, and closure
    of the circular set under all M rotations, block by block of car 1's
    preference c = 1..M: the circular walk (`_parking_states`) hands over
    each block as runs, which are written whole into a dict of its
    `count_linear` sequences mapped to their starts. The restriction is
    checked run for run, with no set: each circular run whose mask leaves
    spot M empty must equal the linear walk's next run, tuple for tuple,
    and no linear run may be left over; the linear sequences are counted
    off the linear runs as they are read. That is exact: both walks yield
    in lexicographic order; every linear run leaves spots 1..T full, the
    spot-M-empty mask; a circular prefix that leaves spot M free parks
    and splits car n's preferences at the same free spots as on the line;
    and a run the circular walk splits otherwise can only fail the check.
    `_walk` places cars 2..n with car 1 at spot 1, once per codes
    of cars 2..n-1 with car n's whole range, which it reads off at most
    two layouts; car 1's code only turns the walk, as in `decode` and the
    samplers, which walk car n's one code. So each walk is one row of
    preferences and starts, turned by 1 - p as it is collected if car 1
    prefers p != 1 (only a wrong walk does), and the rows are laid out
    column by column in one buffer: one `_turn` of it by c - 1 (a turn by
    c - p of each row; below M = 256 the columns are bytes, turned in one
    translate) decodes into block c, where each decoded start is looked
    up. The blocks are disjoint, so the image is compared block by block,
    from the lookups the validity check makes: the image is the block when
    each decode is found in it and they have as many sequences. A turn by
    1 maps block c onto block c + 1, so the set is closed under every
    rotation exactly when each block c is block 1 turned by c - 1. Turns
    compose, so the image in block c is the image in block 1 turned by
    c - 1, and a turn is one to one: the image is counted in block 1
    alone, and the distinct decodes are M times the count. When the image
    in block 1 is block 1, closure at block c is the image check there,
    and block 1 is turned only when it is not.

    The walk rows are let go once the buffer is made. What is held at once
    is the buffer, one block dict and one block's turned columns, each of
    `count_linear` rows, and in block 1 the set its image is counted from:
    the tracemalloc peak is 385-414 B per linear sequence on
    (3, 2, 1, 1, 1) and (2, 2, 2, 2, 2) (Python 3.10-3.13; 531-574 B with
    tuple columns).
    """
    m, _ = _check_budget(sizes, "circular", budget)
    n = sizes.n

    def cut(spots: tuple[int, ...] | bytes, width: int) -> list[tuple[int, ...] | bytes]:
        rows = len(spots) // width  # `width` equal columns laid end to end
        return [spots[k * rows:(k + 1) * rows] for k in range(width)]

    prefix, counts = _plan(sizes)
    # car n's codes, handed whole to each walk (car 1's with one car, which
    # the walk does not read)
    lasts = range(counts[-1])
    rows = []  # prefs + starts per walk, turned so that car 1 prefers spot 1
    for head in itertools.product(*map(range, counts[1:-1])):
        for prefs, starts, _ in _walk(prefix, head, lasts):
            row = prefs + starts
            rows.append(row if prefs[0] == 1 else _turn(row, (1 - prefs[0]) % m, m))
    total = m * len(rows)
    # every spot lies in [1, M]: below 256 the columns are bytes, which
    # `_turn` turns in one translate, and read back as the same ints
    pack = bytes if m < 256 else tuple
    columns = pack(itertools.chain(*zip(*rows)))  # n preference, then n start columns
    del rows

    tails = [(c,) for c in range(m + 1)]  # a run's sequences are head + tails[c]
    spot_m_empty = (1 << (m - 1)) - 1  # the final occupancy of spots 1..T
    linear_runs = _parking_states(sizes, "linear")
    linear = 0  # the linear sequences, counted from the linear runs as read
    restriction = True
    runs = _parking_states(sizes, "circular")
    run = next(runs, None)
    circular = 0
    decode_valid = image_equals_circular_set = rotation_invariant = True
    for c in range(1, m + 1):
        block: dict[tuple[int, ...], tuple[int, ...]] = {}
        # car 1's preference: the head's first, or with one car the run's own
        while run and (run[0] or run[1:])[0] == c:
            head, lo, hi, starts, mask = run
            for last in tails[lo:hi + 1]:
                block[head + last] = starts
            if mask == spot_m_empty:  # the linear walk's next run, tuple for tuple
                line = next(linear_runs, None)
                restriction &= run == line
                linear += line[2] - line[1] + 1 if line else 0
            run = next(runs, None)
        circular += len(block)
        spots = cut(_turn(columns, c - 1, m), 2 * n)
        if c == 1:  # block c's image is block 1's turned by c - 1, of one size
            image_size = len(set(zip(*spots[:n])))
        witnessed = list(map(block.get, zip(*spots[:n])))
        valid = all(map(eq, witnessed, zip(*spots[n:])))
        decode_valid &= valid
        # with every decode in the block, the image is in it
        closed = (valid or None not in witnessed) and image_size == len(block)
        image_equals_circular_set &= closed
        if c == 1:  # image c is image 1 turned by c - 1: once it is block 1, no turn
            first = None if closed else pack(itertools.chain(*zip(*block)))
        elif first is None:
            rotation_invariant &= closed
        else:
            turned = zip(*cut(_turn(first, c - 1, m), n))
            rotation_invariant &= len(block) * n == len(first) and all(
                map(block.__contains__, turned))
    for _, lo, hi, _, _ in linear_runs:  # linear runs no circular run matched
        linear += hi - lo + 1
        restriction = False
    distinct = m * image_size

    return BijectionReport(
        sizes=sizes,
        option_sequences=total,
        distinct_decodes=distinct,
        circular_parking_sequences=circular,
        linear_parking_sequences=linear,
        decode_valid=decode_valid,
        decode_injective=distinct == total,
        image_equals_circular_set=image_equals_circular_set,
        image_count_matches_formula=distinct == count_circular(sizes),
        restriction_matches_linear_set=restriction,
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
    all matching. The whole sweep is admitted before any tally: the
    compositions of n parts summing to T share the tuple domain of the
    first of them, (1, ..., 1, T - n + 1), and that domain grows with T. So
    for each n a bisection over T finds the first refused total, and the
    first n that has one names the composition the sweep would reach
    first. As in `compositions`, n stops at max_total."""
    next(compositions(max_n, max_total))  # a bound below 1 is refused first

    def first(n: int, total: int) -> SizeVector:
        return SizeVector((1,) * (n - 1) + (total - n + 1,))

    def refused(sizes: SizeVector) -> bool:
        try:
            _check_budget(sizes, flavor, budget)
        except BudgetExceededError:
            return True
        return False

    for n in range(1, min(max_n, max_total) + 1):
        totals = range(n, max_total + 1)
        i = bisect_left(totals, True, key=lambda total: refused(first(n, total)))
        if i < len(totals):
            _check_budget(first(n, totals[i]), flavor, budget)
    return [
        verify(SizeVector(comp), flavor, budget=budget)
        for comp in compositions(max_n, max_total)
    ]
