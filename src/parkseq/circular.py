"""Parking on a circular lot of M = T + 1 spots.

With one extra spot and no lot end, every failure is a collision, and a
full parking leaves exactly one spot empty. Rotating all preferences by a
fixed offset maps parking sequences to parking sequences; the ones whose
empty spot is M correspond exactly to the linear parking sequences.
"""

from __future__ import annotations

import math
from operator import itemgetter
from typing import Optional

from .core import (
    Layout,
    Parked,
    ParkResult,
    PrefSequence,
    SizeVector,
    _check_prefs,
    _ints,
    _park,
    _shown,
)


def wrap_spot(x: int, modulus: int) -> int:
    """Map an integer to its representative in [1, modulus]."""
    return (x - 1) % modulus + 1


def _turn(spots: tuple[int, ...] | bytes, a: int, m: int) -> tuple[int, ...] | bytes:
    """Turn spots of [1, m] clockwise by a, 0 <= a < m: the one place spots
    go round the circle. Nothing is checked.

    `bytes` (only `bijection_checks`' columns, which hold every walk, when
    m < 256) come back as `bytes`, turned in one C-level `translate`
    through a 256-byte table of the m turned spots, entry x for spot x
    (entry 0 and the entries past m unused). A tuple longer than the lot
    (those columns when m >= 256) is turned by lookup in the same table
    of m + 1 entries; it is shorter than the tuple it serves, so the turn
    stays linear in len(spots) whatever m is. Shorter tuples, such as a
    decode's n < m spots, are turned one by one.
    """
    if isinstance(spots, bytes):
        return spots.translate(bytes([*range(a, m + 1), *range(1, a + 1)]).ljust(256))
    if len(spots) > m:  # two or more spots, so itemgetter returns a tuple
        return itemgetter(*spots)((*range(a, m + 1), *range(1, a + 1)))
    b = m - a
    return tuple([x + a if x <= b else x - b for x in spots])


def simulate_circular(sizes: SizeVector, prefs: PrefSequence) -> ParkResult:
    """Run the parking rule on the circle; spot arithmetic is mod M.

    At most T of the M = T + 1 spots are ever occupied, so every car finds
    an empty spot; Collision is the only failure mode.
    """
    return _park(sizes, prefs, *_check_prefs(sizes, prefs, "circular"))


def rotate(sizes: SizeVector, prefs: PrefSequence, a: int) -> PrefSequence:
    """Add `a` to every preference modulo M, mapped back into [1, M]."""
    m, _ = _check_prefs(sizes, prefs, "circular")
    _ints((a,), "rotation must be an integer, got {!r}", lo=-math.inf)
    return PrefSequence(_turn(prefs.prefs, a % m, m), "circular")


def empty_spot(layout: Layout) -> int:
    """The unique unoccupied spot of a complete circular layout.

    One pass over the blocks sorted by start, with spots [1, end] covered:
    at first the part of the last block that runs past M. A block that
    starts at or before end overlaps, and the ValueError names its start;
    the one that starts past end + 1 leaves the gap, and with none the gap
    is spot M. The blocks cover T of the M = T + 1 spots, so exactly one
    is free iff no two overlap.
    """
    if layout.flavor != "circular":
        raise ValueError("empty_spot is defined for circular layouts only")
    m = layout.sizes.circle_size
    blocks = sorted(zip(layout.starts, layout.sizes.sizes))
    s, y = blocks[-1]
    end = max(s + y - 1 - m, 0)
    spot = m
    for s, y in blocks:
        if s <= end:
            raise ValueError(
                f"expected exactly one empty spot, blocks overlap at spot {_shown(s)}"
            )
        if s > end + 1:
            spot = end + 1
        end = s + y - 1
    return spot


def restrict_to_linear(
    sizes: SizeVector, prefs: PrefSequence
) -> Optional[PrefSequence]:
    """Reinterpret a circular parking sequence with spot M empty as linear.

    Returns None when the cars do not all park or the empty spot is not M.
    No preference in the returned sequence can be M (that spot stayed
    empty), so all coordinates are within the linear range [1, T].
    """
    result = simulate_circular(sizes, prefs)
    if not isinstance(result, Parked):
        return None
    if empty_spot(result.layout) != sizes.circle_size:
        return None
    return PrefSequence(prefs.prefs, "linear")
