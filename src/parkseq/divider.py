"""The movable-divider construction on the circular lot.

After car 1 parks, the remaining circle is split by n+1 free-moving
dividers into n+1 cells, one already holding car 1. Each later car either
picks an open cell directly or cruises on an earlier car (a target car and
an offset into its block). Exact spot coordinates only materialize once
every car has a cell: each car cell spans that car's size, and the single
never-chosen cell carries the one leftover empty spot.

Every car has as many choices as counting._option_counts gives it, so
option sequences are counted by the circular product formula; decoding
them is a bijection onto circular parking sequences (injectivity plus
matching cardinality, both checked exhaustively in the tests).

So an option sequence is one integer code per car, car 1's is its anchor
spot minus one; code r of car i >= 2 is option r of options_for_car(sizes,
i), direct picks first, then cruise targets in (car, offset) order. One
private core, `_decode`, works on the codes. The samplers draw each code
uniformly over its option count and decode the codes directly; no option
object is built. `decode` checks an OptionSequence and turns it into codes;
`bruteforce.bijection_checks` enumerates the codes. The linear draw is the
decoded circular draw shifted so its empty spot lands on M; nothing is
simulated, and the tests check the shift against rotate + restrict_to_linear.
"""

from __future__ import annotations

import itertools
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from random import Random
from typing import Iterator, Sequence, Union

from .circular import empty_spot, wrap_spot
from .core import Layout, PrefSequence, SizeVector
from .counting import _option_counts


@dataclass(frozen=True)
class Direct:
    """Pick the `interval`-th open cell, counted clockwise from the cell
    just after car 1's cell."""

    interval: int


@dataclass(frozen=True)
class Cruise:
    """Desire spot number `offset` of already-parked car `car` (so the
    decoded preference lands inside that car's final block) and take the
    next open cell clockwise after it."""

    car: int
    offset: int


CarOption = Union[Direct, Cruise]


@dataclass(frozen=True)
class OptionSequence:
    """Car 1's anchor spot plus one CarOption per car 2..n."""

    anchor: int
    options: tuple[CarOption, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "options", tuple(self.options))


def _decode(
    prefix: Sequence[int], codes: Sequence[int]
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The divider on integer codes: the (preferences, starts) of the
    option sequence codes = (r_1, ..., r_n), where prefix[k] = y_1 + ... +
    y_k. One code per car, car 1's is its anchor spot minus one; car i's
    code r picks the (r + 1)-th open cell when r < n + 2 - i, and else
    cruises on spot r - (n + 2 - i) of the cars before i, counted in
    (car, offset) order. Nothing is checked."""
    n = len(prefix) - 1
    m = prefix[n] + 1
    # cells[p] holds the car index in cell p, or 0 if the cell is open;
    # cell 0 is car 1's cell, and cells are ordered clockwise. open_cells
    # lists the open cells in increasing order; cell 0 is never open.
    cells = [1] + [0] * n
    cell_of = [0] * n
    open_cells = list(range(1, n + 1))
    # car i prefers spot aim[i-1][1] (0-based) of car aim[i-1][0]'s block:
    # a direct pick, like car 1, prefers the first spot of its own block
    aim = [(car, 0) for car in range(n)]

    for i in range(2, n + 1):
        r = codes[i - 1]
        direct = n + 2 - i
        if r < direct:
            p = open_cells.pop(r)
        else:
            r -= direct
            j = bisect_right(prefix, r) - 1  # the 0-based car holding spot r
            aim[i - 1] = (j, r - prefix[j])
            # the next open cell clockwise after the target's cell
            k = bisect_left(open_cells, cell_of[j])
            p = open_cells.pop(k if k < len(open_cells) else 0)
        cells[p] = i
        cell_of[i - 1] = p

    # Collapse the dividers: walk clockwise from car 1's cell at its anchor
    # spot; a car cell spans its size, the lone open cell spans one spot.
    # Spots stay in [1, M] and sizes below M, so one subtraction wraps.
    starts = [0] * n
    spot = codes[0] + 1
    for car in cells:
        if car == 0:
            spot += 1
        else:
            starts[car - 1] = spot
            spot += prefix[car] - prefix[car - 1]
        if spot > m:
            spot -= m
    return tuple((starts[j] + k - 1) % m + 1 for j, k in aim), tuple(starts)


def decode(
    sizes: SizeVector, opts: OptionSequence
) -> tuple[PrefSequence, Layout]:
    """Turn an option sequence into a circular parking sequence and its layout.

    One pass checks each option and turns it into its code, car 1's anchor
    spot minus one, then each option's index in `options_for_car`; `_decode`
    does the rest. Parking the returned preferences puts every car in exactly
    the returned layout; `bruteforce.bijection_checks` checks that on every
    code sequence against the starts its circular walk parks each sequence at.
    """
    n, ys = sizes.n, sizes.sizes
    if not (isinstance(opts.anchor, int) and 1 <= opts.anchor <= sizes.circle_size):
        raise ValueError(f"anchor {opts.anchor} outside [1, {sizes.circle_size}]")
    if len(opts.options) != n - 1:
        raise ValueError(f"expected {n - 1} car options, got {len(opts.options)}")

    prefix = tuple(itertools.accumulate(ys, initial=0))
    codes = [opts.anchor - 1]
    for i, opt in enumerate(opts.options, start=2):
        direct = n + 2 - i
        if isinstance(opt, Direct):
            t = opt.interval
            if not (isinstance(t, int) and 1 <= t <= direct):
                raise ValueError(f"car {i}: interval {t} outside [1, {direct}]")
            codes.append(t - 1)
        elif isinstance(opt, Cruise):
            j, k = opt.car, opt.offset
            if not (isinstance(j, int) and 1 <= j < i):
                raise ValueError(f"car {i}: cruise target {j} not yet parked")
            if not (isinstance(k, int) and 1 <= k <= ys[j - 1]):
                raise ValueError(f"car {i}: cruise offset {k} outside [1, {ys[j - 1]}]")
            codes.append(direct + prefix[j - 1] + k - 1)
        else:
            raise ValueError(f"car {i}: unknown option {opt!r}")

    prefs, starts = _decode(prefix, codes)
    return PrefSequence(prefs, "circular"), Layout(sizes, starts, "circular")


def options_for_car(sizes: SizeVector, i: int) -> list[CarOption]:
    """All valid choices for car i >= 2: the n + 2 - i direct interval
    picks, then the cruise targets in (car, offset) order. Option r is
    what code r means to `_decode`."""
    if not 2 <= i <= sizes.n:
        raise ValueError(f"car index {i} outside [2, {sizes.n}]")
    direct = [Direct(t) for t in range(1, sizes.n + 3 - i)]
    return direct + [
        Cruise(j, k) for j in range(1, i) for k in range(1, sizes.sizes[j - 1] + 1)
    ]


def enumerate_option_sequences(sizes: SizeVector) -> Iterator[OptionSequence]:
    """Yield every valid option sequence exactly once.

    Total count equals the circular product formula.
    """
    per_car = [options_for_car(sizes, i) for i in range(2, sizes.n + 1)]
    for anchor in range(1, sizes.circle_size + 1):
        for combo in itertools.product(*per_car):
            yield OptionSequence(anchor, combo)


def _option_codes(sizes: SizeVector) -> Iterator[tuple[int, ...]]:
    """Every option sequence as one code per car, car 1's is its anchor spot
    minus one, in the order of `enumerate_option_sequences`."""
    return itertools.product(*map(range, _option_counts(sizes)))


def _draw(sizes: SizeVector, rng: Random) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Decode one code per car, car 1's is its anchor spot minus one, each
    drawn uniformly over its option count."""
    prefix = tuple(itertools.accumulate(sizes.sizes, initial=0))
    return _decode(prefix, [rng.randrange(k) for k in _option_counts(sizes)])


def sample_circular(sizes: SizeVector, rng: Random) -> PrefSequence:
    """Draw a circular parking sequence exactly uniformly.

    One code per car, car 1's is its anchor spot minus one, is drawn
    uniformly; decode is injective, so all outputs have equal probability.
    """
    prefs, _ = _draw(sizes, rng)
    return PrefSequence(prefs, "circular")


def sample_linear(sizes: SizeVector, rng: Random) -> PrefSequence:
    """Draw a linear parking sequence exactly uniformly.

    The circular draw, one code per car, car 1's is its anchor spot minus
    one, is shifted so its empty spot lands on M: that picks the unique
    such representative of its rotation orbit, and orbits all have size M,
    so uniformity is preserved. Nothing is parked again.
    """
    prefs, starts = _draw(sizes, rng)
    e, m = empty_spot(Layout(sizes, starts, "circular")), sizes.circle_size
    return PrefSequence(tuple(wrap_spot(c - e, m) for c in prefs), "linear")
