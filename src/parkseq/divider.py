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
i), direct picks first, then cruise targets in (car, offset) order. Moving
car 1's anchor by one spot turns the whole decoded sequence by one spot,
which is why the circular count is M times the linear one, and the core
is written that way: one private walk, `_walk`, puts cars 2..n into cells
from their codes with car 1 at spot 1 and reads off the spot its open cell
holds, and car 1's code a then turns its (preferences, starts) by a spots
(`circular._turn`). The samplers draw each code uniformly over its option
count and walk and turn the codes directly; no option object is built.
`decode` checks an OptionSequence and turns it into codes;
`bruteforce.bijection_checks` walks each code tuple of cars 2..n once and
turns all the walks at once into each block of car 1's preference, a
block at a time.
The linear draw is the walk turned so its empty spot e, which the walk
returns, lands on M: a turn by M - e. Car 1's code cancels out, no Layout
is built, nothing is simulated or searched, and the tests check the turn
against rotate + restrict_to_linear.
"""

from __future__ import annotations

import itertools
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from random import Random
from typing import Iterator, Sequence, Union

# empty_spot is unused here; only perfbench's uninstall test reads it
from .circular import _turn, empty_spot
from .core import Layout, PrefSequence, SizeVector, _ints
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


def _walk(
    prefix: Sequence[int], rest: Sequence[int]
) -> tuple[tuple[int, ...], tuple[int, ...], int]:
    """The divider with car 1 at spot 1: the (preferences, starts, e) that
    the codes rest = (r_2, ..., r_n) of cars 2..n give, where prefix[k] =
    y_1 + ... + y_k. Car i's code r picks the (r + 1)-th open cell when r <
    n + 2 - i, and else cruises on spot r - (n + 2 - i) of the cars before
    i, counted in (car, offset) order: it takes the next open cell clockwise
    after that car's cell. The cells are then walked from spot 1, car 1's
    first; a car cell spans its size and the one open cell spans the empty
    spot, e. They span M spots in all, so nothing wraps. Nothing is
    checked."""
    n = len(prefix) - 1
    cells = [1] + [0] * n  # the car in each cell, clockwise; 0 is open
    cell_of = [0] * n
    # the open cells in increasing order; cell 0 is never open
    open_cells = list(range(1, n + 1))
    # car i prefers spot aim[i-1][1] (0-based) of car aim[i-1][0]'s block
    # (0-based car); a direct pick, like car 1, prefers its own first spot
    aim = [(car, 0) for car in range(n)]

    for i, r in enumerate(rest, start=2):
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

    starts = [0] * n
    spot = 1
    for car in cells:
        if car:
            starts[car - 1] = spot
            spot += prefix[car] - prefix[car - 1]
        else:
            e = spot
            spot += 1
    return tuple([starts[j] + k for j, k in aim]), tuple(starts), e


def decode(
    sizes: SizeVector, opts: OptionSequence
) -> tuple[PrefSequence, Layout]:
    """Turn an option sequence into a circular parking sequence and its layout.

    One pass checks each option and turns each of cars 2..n into its code,
    its index in `options_for_car`; `_walk` places them with car 1 at spot
    1, and the result is turned by car 1's code, its anchor spot minus one.
    Parking the returned preferences puts every car in exactly the returned
    layout; `bruteforce.bijection_checks` checks that on every code sequence
    against the starts its circular walk parks each sequence at.
    """
    n, ys, m = sizes.n, sizes.sizes, sizes.circle_size
    _ints((opts.anchor,), "anchor {} outside [1, {hi}]", hi=m)
    if len(opts.options) != n - 1:
        raise ValueError(f"expected {n - 1} car options, got {len(opts.options)}")

    prefix = tuple(itertools.accumulate(ys, initial=0))
    rest = []
    for i, opt in enumerate(opts.options, start=2):
        direct = n + 2 - i
        if isinstance(opt, Direct):
            t = opt.interval
            _ints((t,), "car {i}: interval {} outside [1, {hi}]", hi=direct, i=i)
            rest.append(t - 1)
        elif isinstance(opt, Cruise):
            j, k = opt.car, opt.offset
            _ints((j,), "car {i}: cruise target {} not yet parked", hi=i - 1, i=i)
            _ints((k,), "car {i}: cruise offset {} outside [1, {hi}]", hi=ys[j - 1], i=i)
            rest.append(direct + prefix[j - 1] + k - 1)
        else:
            raise ValueError(f"car {i}: unknown option {opt!r}")

    prefs, starts = (_turn(x, opts.anchor - 1, m) for x in _walk(prefix, rest)[:2])
    return PrefSequence(prefs, "circular"), Layout(sizes, starts, "circular")


def options_for_car(sizes: SizeVector, i: int) -> list[CarOption]:
    """All valid choices for car i >= 2: the n + 2 - i direct interval
    picks, then the cruise targets in (car, offset) order. Option r is
    what code r means to `_walk`."""
    _ints((i,), "car index {} outside [{lo}, {hi}]", lo=2, hi=sizes.n)
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


def _draw(
    sizes: SizeVector, rng: Random
) -> tuple[int, tuple[int, ...], tuple[int, ...], int]:
    """Draw one code per car, each uniformly over its option count, and
    return car 1's code, its anchor spot minus one, with `_walk`'s
    (preferences, starts, empty spot) of the others."""
    prefix = tuple(itertools.accumulate(sizes.sizes, initial=0))
    a, *rest = [rng.randrange(k) for k in _option_counts(sizes)]
    return a, *_walk(prefix, rest)


def sample_circular(sizes: SizeVector, rng: Random) -> PrefSequence:
    """Draw a circular parking sequence exactly uniformly.

    One code per car is drawn uniformly, and the walk of cars 2..n is
    turned by car 1's code; decoding is injective, so all outputs have
    equal probability.
    """
    a, prefs, _, _ = _draw(sizes, rng)
    return PrefSequence(_turn(prefs, a, sizes.circle_size), "circular")


def sample_linear(sizes: SizeVector, rng: Random) -> PrefSequence:
    """Draw a linear parking sequence exactly uniformly.

    The circular draw is turned so its empty spot e lands on M: that picks
    the unique such representative of its rotation orbit, and orbits all
    have size M, so uniformity is preserved. Car 1's code turns the whole
    draw, so it cancels out and the walk is turned by M - e, with e read
    off the walk's open cell; car 1's code is still drawn, so a seeded
    generator yields the same draws. No Layout is built, and nothing is
    parked again or searched.
    """
    _, prefs, _, e = _draw(sizes, rng)
    m = sizes.circle_size
    return PrefSequence(_turn(prefs, m - e, m), "linear")
