"""Domain types and the linear-lot parking simulator.

Cars of positive integer sizes park, in order, on a row of T = sum(sizes)
spots. Car i drives to its preferred spot, cruises forward to the first
empty spot j, and parks on [j, j + y_i - 1] if that whole block is free.
Anything else is a classified failure.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from typing import Iterable, Literal, Sequence, Union

Flavor = Literal["linear", "circular"]


@dataclass(frozen=True)
class SizeVector:
    """The car sizes (y_1, ..., y_n), all positive."""

    sizes: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "sizes", tuple(self.sizes))
        if len(self.sizes) < 1:
            raise ValueError("need at least one car")
        for y in self.sizes:
            if not isinstance(y, int) or y < 1:
                raise ValueError(f"car sizes must be positive integers, got {y!r}")
        # Derived once here, not on every read: the kernel and the decoder
        # read them on every call. They are not dataclass fields, so
        # equality, hashing, repr and dataclasses.fields see only `sizes`.
        object.__setattr__(self, "n", len(self.sizes))
        # spots in the linear lot: T = sum of sizes
        object.__setattr__(self, "total", sum(self.sizes))
        # spots on the circular lot: M = T + 1
        object.__setattr__(self, "circle_size", self.total + 1)


def _lot(sizes: SizeVector, flavor: str) -> tuple[int, bool]:
    """The lot a flavor names, as (spots, wrap): the line of T spots or the
    circle of M = T + 1. Every layer turns a flavor into a lot here."""
    if flavor == "linear":
        return sizes.total, False
    if flavor == "circular":
        return sizes.circle_size, True
    raise ValueError(f"unknown flavor {flavor!r}")


@dataclass(frozen=True)
class PrefSequence:
    """A tuple of preferred spots (1-based), linear or circular flavor."""

    prefs: tuple[int, ...]
    flavor: Flavor = "linear"

    def __post_init__(self) -> None:
        object.__setattr__(self, "prefs", tuple(self.prefs))
        if self.flavor not in ("linear", "circular"):
            raise ValueError(f"unknown flavor {self.flavor!r}")
        for c in self.prefs:
            if not isinstance(c, int) or c < 1:
                raise ValueError(f"preferences must be positive integers, got {c!r}")

    def __len__(self) -> int:
        return len(self.prefs)


@dataclass(frozen=True)
class Layout:
    """Final positions: car i (1-based) occupies spots starting at starts[i-1].

    A car of size y starting at s covers s, s+1, ..., s+y-1; on a circular
    lot the spots are taken mod M into [1, M].
    """

    sizes: SizeVector
    starts: tuple[int, ...]
    flavor: Flavor = "linear"

    def __post_init__(self) -> None:
        object.__setattr__(self, "starts", tuple(self.starts))
        if len(self.starts) != self.sizes.n:
            raise ValueError("one start per car required")
        _lot(self.sizes, self.flavor)

    def block(self, car: int) -> tuple[int, ...]:
        """The spots occupied by `car` (1-based index), in driving order."""
        if not 1 <= car <= self.sizes.n:
            raise ValueError(f"car index {car} outside [1, {self.sizes.n}]")
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
    for c in prefs.prefs:
        if not 1 <= c <= limit:
            raise ValueError(f"preference {c} outside [1, {limit}]")
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
    for a in values:
        if not isinstance(a, int) or a < 1:
            raise ValueError(f"entries must be positive integers, got {a!r}")
    return all(b <= i for i, b in enumerate(sorted(values), start=1))
