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
private core, `_decode`, works on the codes, in two phases: `_cells` puts
cars 2..n into cells from their codes, and `_collapse` walks the cells
from car 1's anchor to the spots. The anchor, the factor M of the
circular product formula, reaches only phase 2. The samplers draw each
code uniformly over its option count and decode the codes directly; no
option object is built. `decode` checks an OptionSequence and turns it
into codes; `bruteforce.bijection_checks` enumerates the codes of cars
2..n, runs phase 1 once on each, and phase 2 on that result for each of
the M anchors, since phase 1 never sees the anchor. The linear draw is the
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


def _cells(
    prefix: Sequence[int], rest: Sequence[int]
) -> tuple[list[int], list[tuple[int, int]]]:
    """Phase 1 of the divider: put cars 2..n into cells. rest = (r_2, ...,
    r_n) are their codes, and prefix[k] = y_1 + ... + y_k. Car i's code r
    picks the (r + 1)-th open cell when r < n + 2 - i, and else cruises on
    spot r - (n + 2 - i) of the cars before i, counted in (car, offset)
    order. Returns (cells, aim): cells[p] holds the car index in cell p,
    or 0 for the one open cell, with cell 0 car 1's and cells ordered
    clockwise; car i prefers spot aim[i-1][1] (0-based) of car aim[i-1][0]'s
    block (0-based car). Car 1's anchor is not an argument, so the result
    is the same for every anchor. Nothing is checked."""
    n = len(prefix) - 1
    cells = [1] + [0] * n
    cell_of = [0] * n
    # the open cells in increasing order; cell 0 is never open
    open_cells = list(range(1, n + 1))
    # a direct pick, like car 1, prefers the first spot of its own block
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
    return cells, aim


def _collapse(
    prefix: Sequence[int],
    cells: Sequence[int],
    aim: Sequence[tuple[int, int]],
    anchor: int,
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Phase 2 of the divider: collapse the dividers of `_cells`' result
    with car 1 at spot anchor + 1, and return the (preferences, starts).
    The walk goes clockwise from car 1's cell; a car cell spans its size,
    and the lone open cell spans one spot, the empty spot. It only reads
    cells and aim, so one phase-1 result serves every anchor."""
    n = len(prefix) - 1
    m = prefix[n] + 1
    starts = [0] * n
    spot = anchor + 1
    # spots stay in [1, M] and sizes below M, so one subtraction wraps
    for car in cells:
        if car == 0:
            spot += 1
        else:
            starts[car - 1] = spot
            spot += prefix[car] - prefix[car - 1]
        if spot > m:
            spot -= m
    return tuple((starts[j] + k - 1) % m + 1 for j, k in aim), tuple(starts)


def _decode(
    prefix: Sequence[int], codes: Sequence[int]
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The divider on integer codes: the (preferences, starts) of the
    option sequence codes = (r_1, ..., r_n), where prefix[k] = y_1 + ... +
    y_k. One code per car, car 1's is its anchor spot minus one; cars
    2..n go into cells (`_cells`), then the dividers collapse from the
    anchor (`_collapse`). Nothing is checked."""
    return _collapse(prefix, *_cells(prefix, codes[1:]), codes[0])


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
    _ints((opts.anchor,), "anchor {} outside [1, {hi}]", hi=sizes.circle_size)
    if len(opts.options) != n - 1:
        raise ValueError(f"expected {n - 1} car options, got {len(opts.options)}")

    prefix = tuple(itertools.accumulate(ys, initial=0))
    codes = [opts.anchor - 1]
    for i, opt in enumerate(opts.options, start=2):
        direct = n + 2 - i
        if isinstance(opt, Direct):
            t = opt.interval
            _ints((t,), "car {i}: interval {} outside [1, {hi}]", hi=direct, i=i)
            codes.append(t - 1)
        elif isinstance(opt, Cruise):
            j, k = opt.car, opt.offset
            _ints((j,), "car {i}: cruise target {} not yet parked", hi=i - 1, i=i)
            _ints((k,), "car {i}: cruise offset {} outside [1, {hi}]", hi=ys[j - 1], i=i)
            codes.append(direct + prefix[j - 1] + k - 1)
        else:
            raise ValueError(f"car {i}: unknown option {opt!r}")

    prefs, starts = _decode(prefix, codes)
    return PrefSequence(prefs, "circular"), Layout(sizes, starts, "circular")


def options_for_car(sizes: SizeVector, i: int) -> list[CarOption]:
    """All valid choices for car i >= 2: the n + 2 - i direct interval
    picks, then the cruise targets in (car, offset) order. Option r is
    what code r means to `_decode`."""
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
