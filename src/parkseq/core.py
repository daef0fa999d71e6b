"""Domain types and the linear-lot parking simulator.

Cars of positive integer sizes park, in order, on a row of T = sum(sizes)
spots. Car i drives to its preferred spot, cruises forward to the first
empty spot j, and parks on [j, j + y_i - 1] if that whole block is free.
Anything else is a classified failure.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from typing import Iterable, Literal, Sequence, Union

Flavor = Literal["linear", "circular"]


def _digit_count(x: int) -> str:
    """x != 0 as "<d digits>", its decimal digit count ("-<d digits>" below
    0), worked out without writing x, so it costs no more than x itself."""
    if x < 0:
        return "-" + _digit_count(-x)
    k = int((x.bit_length() - 1) * math.log10(2))  # about log10(x), from below
    power = 10**k
    while power > x:  # the float's rounding only
        power //= 10
        k -= 1
    while power * 10 <= x:
        power *= 10
        k += 1
    return f"<{k + 1} digits>"


class _Shown(str):
    """A number a message cannot write in full. Its repr is its text, so
    "{}" and "{!r}" in a message write it alike."""

    __repr__ = str.__str__


def _shown(value: object) -> object:
    """The one writer of numbers in messages: `value` as it is, but an int
    past the int-to-str digit limit as its `_digit_count`."""
    if isinstance(value, int):
        try:
            str(value)
        except ValueError:
            return _Shown(_digit_count(value))
    return value


def _ints(
    values: Iterable[object], error: str, lo: float = 1, hi: float = math.inf,
    **fields: object,
) -> None:
    """The integer rule of every public input: each value is an exact int,
    so `bool` is refused, inside [lo, hi]. The first value that breaks it
    raises ValueError(error.format(value, lo=lo, hi=hi, **fields)), each
    argument written by `_shown`."""
    for x in values:
        if type(x) is not int or not lo <= x <= hi:
            shown = {k: _shown(v) for k, v in dict(fields, lo=lo, hi=hi).items()}
            raise ValueError(error.format(_shown(x), **shown))


@dataclass(frozen=True)
class SizeVector:
    """The car sizes (y_1, ..., y_n): exact ints >= 1, `bool` refused."""

    sizes: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "sizes", tuple(self.sizes))
        if len(self.sizes) < 1:
            raise ValueError("need at least one car")
        _ints(self.sizes, "car sizes must be positive integers, got {!r}")
        # Derived once here, not on every read: the kernel and the decoder
        # read them on every call. They are not dataclass fields, so
        # equality, hashing, repr and dataclasses.fields see only `sizes`.
        # One more such entry is kept by another layer, and only there:
        # `_plan`, the prefix sums and option counts that `divider._plan`
        # works out on a vector's first draw, decode or bijection check.
        object.__setattr__(self, "n", len(self.sizes))
        # spots in the linear lot: T = sum of sizes
        object.__setattr__(self, "total", sum(self.sizes))
        # spots on the circular lot: M = T + 1
        object.__setattr__(self, "circle_size", self.total + 1)

    def __reduce__(self) -> tuple[type, tuple[tuple[int, ...]]]:
        # A pickle or copy holds the sizes alone and is built again from
        # them, so no derived entry is written out: a drawn vector's plan
        # would more than treble the pickle of 1,000 unit cars.
        return type(self), (self.sizes,)


def _lot(sizes: SizeVector, flavor: str) -> tuple[int, bool]:
    """The lot a flavor names, as (spots, wrap): the line of T spots or the
    circle of M = T + 1. Every layer turns a flavor into a lot here."""
    if flavor == "linear":
        return sizes.total, False
    if flavor == "circular":
        return sizes.circle_size, True
    raise ValueError(f"unknown flavor {_shown(flavor)!r}")


@dataclass(frozen=True)
class PrefSequence:
    """Preferred spots, exact ints >= 1 (`bool` refused), linear or circular."""

    prefs: tuple[int, ...]
    flavor: Flavor = "linear"

    def __post_init__(self) -> None:
        object.__setattr__(self, "prefs", tuple(self.prefs))
        if self.flavor not in ("linear", "circular"):
            raise ValueError(f"unknown flavor {_shown(self.flavor)!r}")
        _ints(self.prefs, "preferences must be positive integers, got {!r}")

    def __len__(self) -> int:
        return len(self.prefs)


@dataclass(frozen=True)
class Layout:
    """Final positions: car i (1-based) occupies spots starting at starts[i-1].

    A car of size y starting at s covers s, s+1, ..., s+y-1; on a circular
    lot the spots are taken mod M into [1, M]. Each start is an exact int
    on the lot, in [1, T] or [1, M], `bool` refused, and on the line each
    block ends at or before spot T. Blocks are not checked for overlap
    here; `circular.empty_spot` refuses overlapping blocks by name.
    """

    sizes: SizeVector
    starts: tuple[int, ...]
    flavor: Flavor = "linear"

    def __post_init__(self) -> None:
        object.__setattr__(self, "starts", tuple(self.starts))
        if len(self.starts) != self.sizes.n:
            raise ValueError("one start per car required")
        spots, wrap = _lot(self.sizes, self.flavor)
        _ints(self.starts, "start {!r} outside [1, {hi}]", hi=spots)
        if not wrap:  # a block on the line ends on the line
            ends = (s + y - 1 for s, y in zip(self.starts, self.sizes.sizes))
            _ints(ends, "block end {} outside [1, {hi}]", hi=spots)

    def block(self, car: int) -> tuple[int, ...]:
        """The spots occupied by `car` (1-based index), in driving order."""
        _ints((car,), "car index {} outside [1, {hi}]", hi=self.sizes.n)
        y, s = self.sizes.sizes[car - 1], self.starts[car - 1]
        m, wrap = _lot(self.sizes, self.flavor)
        return tuple((s - 1 + k) % m + 1 if wrap else s + k for k in range(y))

    def occupied(self) -> set[int]:
        spots: set[int] = set()
        for car in range(1, self.sizes.n + 1):
            spots.update(self.block(car))
        return spots


@dataclass(frozen=True)
class Parked:
    layout: Layout


@dataclass(frozen=True)
class Collision:
    """Car `car` found first empty spot `first_empty` but spot `blocked`
    inside its needed block was already taken."""

    car: int
    first_empty: int
    blocked: int


@dataclass(frozen=True)
class PastEnd:
    """Car `car` drove past the end of the lot (linear lots only)."""

    car: int


ParkResult = Union[Parked, Collision, PastEnd]


def _check_prefs(
    sizes: SizeVector, prefs: PrefSequence, flavor: Flavor
) -> tuple[int, bool]:
    """Check `prefs` against the lot `flavor` names, and return that lot."""
    if prefs.flavor != flavor:
        raise ValueError(f"expected {flavor} preferences, got {prefs.flavor}")
    if len(prefs) != sizes.n:
        raise ValueError(
            f"preference count {len(prefs)} does not match car count {sizes.n}"
        )
    limit, wrap = _lot(sizes, flavor)
    _ints(prefs.prefs, "preference {} outside [1, {hi}]", hi=limit)
    return limit, wrap


def _merge_run(lo: list[int], hi: list[int], k: int, a: int, b: int) -> None:
    """Mark [a, b] occupied, where runs lo[:k] end before a and lo[k:]
    begin after b; it merges with a neighbour run it touches."""
    left = k > 0 and hi[k - 1] == a - 1
    right = k < len(lo) and lo[k] == b + 1
    if left and right:
        hi[k - 1] = hi[k]
        del lo[k], hi[k]
    elif left:
        hi[k - 1] = b
    elif right:
        lo[k] = a
    else:
        lo.insert(k, a)
        hi.insert(k, b)


def _park(sizes: SizeVector, prefs: PrefSequence, limit: int, wrap: bool) -> ParkResult:
    """The parking rule of both lots, on occupancy kept as runs.

    Spots lo[k]..hi[k] form the k-th maximal occupied run; the runs are
    sorted and no two touch, so there are at most n of them and each car
    costs O(log n) bisects plus a list insert, whatever T is. The lot is
    the one `_check_prefs` returns for prefs' flavor: `limit` spots, on a
    row, or with `wrap` on a circle where driving past spot `limit`
    continues at spot 1. Runs are not merged across the last spot.
    """
    lo: list[int] = []
    hi: list[int] = []
    starts: list[int] = []
    for i, (c, y) in enumerate(zip(prefs.prefs, sizes.sizes), start=1):
        k = bisect_right(lo, c)  # runs lo[:k] begin at or before c
        j = hi[k - 1] + 1 if k and hi[k - 1] >= c else c  # first empty spot
        if j > limit and wrap:
            # fewer than M spots are taken, so the spot after run 0 is empty
            k = 1 if lo[0] == 1 else 0
            j = hi[0] + 1 if k else 1
        end = j + y - 1
        if end > limit and not wrap:
            return PastEnd(car=i)
        # j is empty, so a taken spot in the block is the start of a run
        if k < len(lo) and lo[k] <= min(end, limit):
            return Collision(car=i, first_empty=j, blocked=lo[k])
        if end > limit:
            if lo and lo[0] <= end - limit:
                return Collision(car=i, first_empty=j, blocked=lo[0])
            _merge_run(lo, hi, k, j, limit)
            _merge_run(lo, hi, 0, 1, end - limit)
        else:
            _merge_run(lo, hi, k, j, end)
        starts.append(j)
    return Parked(Layout(sizes, tuple(starts), prefs.flavor))


def simulate_linear(sizes: SizeVector, prefs: PrefSequence) -> ParkResult:
    """Run the parking rule on the linear lot of T spots.

    Car i scans forward from its preference for the first empty spot j.
    It parks on [j, j + y_i - 1] when that block is free; a taken spot in
    [j+1, j+y_i-1] is a Collision, and running out of lot is PastEnd.
    """
    return _park(sizes, prefs, *_check_prefs(sizes, prefs, "linear"))


def is_parking_sequence(sizes: SizeVector, prefs: PrefSequence) -> bool:
    """True iff all cars park under the linear rule."""
    return isinstance(simulate_linear(sizes, prefs), Parked)


def is_classical_parking_function(prefs: Sequence[int] | Iterable[int]) -> bool:
    """Classical criterion: the increasing rearrangement b satisfies b_i <= i.

    The empty sequence counts as a parking function (vacuously).
    """
    values = list(prefs)
    _ints(values, "entries must be positive integers, got {!r}")
    return all(b <= i for i, b in enumerate(sorted(values), start=1))
