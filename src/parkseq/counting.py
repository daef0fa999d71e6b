"""Exact closed-form counts for parking sequences.

All results are plain Python ints, which are unbounded: for 20 cars of
size 5 the linear count already exceeds 10^38, so fixed-width arithmetic
would silently overflow. Every car's option count is worked out once,
in `_option_counts`: one code per car, car 1's is its anchor spot minus
one. The formulas and the divider's codes read it there.
"""

from __future__ import annotations

import itertools
import math
import operator
from functools import cache

from .core import SizeVector

# str() is called only on pieces below 10**(2**_STR_K), 512 digits, which
# is under the smallest int-to-str digit limit the interpreter accepts.
_STR_K = 9


@cache
def _pow10(k: int) -> int:
    """10 ** (2 ** k), each one the square of the one before."""
    return 10 if k == 0 else _pow10(k - 1) ** 2


def _digits(x: int, k: int) -> str:
    """The 2**k decimal digits of 0 <= x < 10**(2**k), zero-padded."""
    if k <= _STR_K:
        return str(x).zfill(1 << k)
    high, low = divmod(x, _pow10(k - 1))
    return _digits(high, k - 1) + _digits(low, k - 1)


def _decimal(x: int) -> str:
    """str(x), also for ints past the interpreter's int-to-str digit limit.

    Splits x on the powers 10**(2**k) until each piece is short enough
    for str(); the limit itself is neither read nor changed.
    """
    if x < 0:
        return "-" + _decimal(-x)
    if x < _pow10(_STR_K):
        return str(x)
    k = _STR_K + 1
    while x >= _pow10(k):
        k += 1
    return _digits(x, k).lstrip("0")


def _option_counts(sizes: SizeVector) -> list[int]:
    """Every car's option count in the circular divider construction, one
    code per car, car 1's is its anchor spot minus one: car 1 has M, car
    i >= 2 has y_1 + ... + y_{i-1} cruise targets plus n + 2 - i open cells."""
    cruise = itertools.accumulate(sizes.sizes[:-1])  # y_1 + ... + y_{i-1}
    direct = range(sizes.n, 1, -1)  # n + 2 - i
    return [sizes.circle_size, *map(operator.add, cruise, direct)]


def count_linear(sizes: SizeVector) -> int:
    """Number of linear parking sequences for the given car sizes: the
    product of the option counts of cars 2..n (`_option_counts` without
    car 1's anchor), which is the empty product 1 for a single car."""
    return math.prod(_option_counts(sizes)[1:])


def count_circular(sizes: SizeVector) -> int:
    """Number of circular parking sequences on M = T + 1 spots: the
    product of every car's option count (`_option_counts`, one code per
    car), so M times the linear count."""
    return math.prod(_option_counts(sizes))


def count_classical(n: int) -> int:
    """Number of classical parking functions on n unit cars: (n+1)^(n-1)."""
    if n < 1:
        raise ValueError("need at least one car")
    return (n + 1) ** (n - 1)


def option_count(sizes: SizeVector, i: int) -> int:
    """Number of choices car i has in the circular divider construction:
    its `_option_counts` entry, one code per car, car 1's is its anchor
    spot minus one."""
    if not 1 <= i <= sizes.n:
        raise ValueError(f"car index {i} outside [1, {sizes.n}]")
    return _option_counts(sizes)[i - 1]
