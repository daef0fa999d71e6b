"""The movable-divider construction on the circular lot.

After car 1 parks, the remaining circle is split by n+1 free-moving
dividers into n+1 cells, one already holding car 1. Each later car either
picks an open cell directly or cruises on an earlier car (a target car and
an offset into its block). Exact spot coordinates only materialize once
every car has a cell: each car cell spans that car's size, and the single
never-chosen cell carries the one leftover empty spot.

Car i has exactly option_count(sizes, i) choices, so option sequences are
counted by the circular product formula; decoding them is a bijection onto
circular parking sequences (injectivity plus matching cardinality, both
checked exhaustively in the tests).

The choices of car i are numbered 0 .. option_count(sizes, i) - 1 by
option_at: direct picks first, then cruise targets in (car, offset)
order. The samplers draw the anchor and then one integer per car, each
uniform over its option_count, and map it to its option; no option list
is built. The linear draw is the decoded circular draw shifted so its
empty spot lands on M; nothing is simulated, and the tests check the
shift against rotate + restrict_to_linear.
"""

from __future__ import annotations

import itertools
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from random import Random
from typing import Iterator, Sequence, Union

from .circular import empty_spot, wrap_spot
from .core import Layout, PrefSequence, SizeVector, _layout_of, _prefs_of
from .counting import option_count


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


def decode(
    sizes: SizeVector, opts: OptionSequence
) -> tuple[PrefSequence, Layout]:
    """Turn an option sequence into a circular parking sequence and its layout.

    Parking the returned preferences puts every car in exactly the
    returned layout; `bruteforce.bijection_checks` checks that against
    the starts its circular walk parks each sequence at. The option
    sequence is validated; the returned objects are built unvalidated.
    """
    n = sizes.n
    m = sizes.circle_size
    if not 1 <= opts.anchor <= m:
        raise ValueError(f"anchor {opts.anchor} outside [1, {m}]")
    if len(opts.options) != n - 1:
        raise ValueError(f"expected {n - 1} car options, got {len(opts.options)}")

    # cells[p] holds the car index in cell p, or 0 if the cell is open;
    # cell 0 is car 1's cell, and cells are ordered clockwise. open_cells
    # lists the open cells in increasing order; cell 0 is never open.
    cells = [0] * (n + 1)
    cells[0] = 1
    cell_of = [0] * (n + 1)
    open_cells = list(range(1, n + 1))

    for i, opt in enumerate(opts.options, start=2):
        if isinstance(opt, Direct):
            if not 1 <= opt.interval <= len(open_cells):
                raise ValueError(
                    f"car {i}: interval {opt.interval} outside "
                    f"[1, {len(open_cells)}]"
                )
            p = open_cells.pop(opt.interval - 1)
        elif isinstance(opt, Cruise):
            if not 1 <= opt.car < i:
                raise ValueError(f"car {i}: cruise target {opt.car} not yet parked")
            if not 1 <= opt.offset <= sizes.sizes[opt.car - 1]:
                raise ValueError(
                    f"car {i}: cruise offset {opt.offset} outside "
                    f"[1, {sizes.sizes[opt.car - 1]}]"
                )
            # the next open cell clockwise after the target's cell
            k = bisect_left(open_cells, cell_of[opt.car])
            p = open_cells.pop(k if k < len(open_cells) else 0)
        else:
            raise ValueError(f"car {i}: unknown option {opt!r}")
        cells[p] = i
        cell_of[i] = p

    # Collapse the dividers: walk clockwise from car 1's cell at the anchor
    # spot; a car cell spans its size, the lone open cell spans one spot.
    # Spots stay in [1, M] and sizes below M, so one subtraction wraps.
    starts = [0] * n
    spot = opts.anchor
    for car in cells:
        if car == 0:
            spot += 1
        else:
            starts[car - 1] = spot
            spot += sizes.sizes[car - 1]
        if spot > m:
            spot -= m

    prefs = [0] * n
    prefs[0] = opts.anchor
    for i, opt in enumerate(opts.options, start=2):
        if isinstance(opt, Direct):
            prefs[i - 1] = starts[i - 1]
        else:
            # offset k in [1, y_j] points at the k-th spot of car j's block
            c = starts[opt.car - 1] + opt.offset - 1
            prefs[i - 1] = c - m if c > m else c

    return (
        _prefs_of(tuple(prefs), "circular"),
        _layout_of(sizes, tuple(starts), "circular"),
    )


def option_at(prefix: Sequence[int], i: int, r: int) -> CarOption:
    """Option number r of car i >= 2, where prefix[k] = y_1 + ... + y_{k+1}.

    The n + 2 - i direct interval picks come first, then the cruise
    targets in (car, offset) order, so r ranges over
    0 .. n + 1 - i + prefix[i - 2].
    """
    direct = len(prefix) + 2 - i
    if r < direct:
        return Direct(r + 1)
    r -= direct
    j = bisect_right(prefix, r)  # cars 1..j end at or before r
    start = prefix[j - 1] if j else 0
    return Cruise(j + 1, r - start + 1)


def options_for_car(sizes: SizeVector, i: int) -> list[CarOption]:
    """All valid choices for car i >= 2, in option_at order."""
    if not 2 <= i <= sizes.n:
        raise ValueError(f"car index {i} outside [2, {sizes.n}]")
    prefix = list(itertools.accumulate(sizes.sizes))
    return [option_at(prefix, i, r) for r in range(option_count(sizes, i))]


def enumerate_option_sequences(sizes: SizeVector) -> Iterator[OptionSequence]:
    """Yield every valid option sequence exactly once.

    Total count equals the circular product formula.
    """
    per_car = [options_for_car(sizes, i) for i in range(2, sizes.n + 1)]
    for anchor in range(1, sizes.circle_size + 1):
        for combo in itertools.product(*per_car):
            yield OptionSequence(anchor, combo)


def _sample_decoded(
    sizes: SizeVector, rng: Random
) -> tuple[PrefSequence, Layout]:
    n = sizes.n
    anchor = rng.randrange(1, sizes.circle_size + 1)
    prefix = list(itertools.accumulate(sizes.sizes))
    options = [
        option_at(prefix, i, rng.randrange(n + 2 - i + prefix[i - 2]))
        for i in range(2, n + 1)
    ]
    return decode(sizes, OptionSequence(anchor, options))


def sample_circular(sizes: SizeVector, rng: Random) -> PrefSequence:
    """Draw a circular parking sequence exactly uniformly.

    The anchor and each car's option number are drawn independently and
    uniformly; decode is injective, so all outputs have equal probability.
    """
    prefs, _ = _sample_decoded(sizes, rng)
    return prefs


def sample_linear(sizes: SizeVector, rng: Random) -> PrefSequence:
    """Draw a linear parking sequence exactly uniformly.

    Shifting a uniform circular sample so its empty spot lands on M picks
    the unique such representative of its rotation orbit; orbits all have
    size M, so uniformity is preserved. Nothing is parked again.
    """
    prefs, layout = _sample_decoded(sizes, rng)
    e, m = empty_spot(layout), sizes.circle_size
    return PrefSequence(tuple(wrap_spot(c - e, m) for c in prefs.prefs), "linear")
