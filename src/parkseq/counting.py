"""Exact closed-form counts for parking sequences.

All results are plain Python ints, which are unbounded: for 20 cars of
size 5 the linear count already exceeds 10^38, so fixed-width arithmetic
would silently overflow.
"""

from __future__ import annotations

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


def count_linear(sizes: SizeVector) -> int:
    """Number of linear parking sequences for the given car sizes.

    Product over cars 2..n of (y_1 + ... + y_{i-1} + n + 2 - i);
    the empty product (a single car) is 1.
    """
    n = sizes.n
    result = 1
    prefix = 0
    for i in range(2, n + 1):
        prefix += sizes.sizes[i - 2]
        result *= prefix + n + 2 - i
    return result


def count_circular(sizes: SizeVector) -> int:
    """Number of circular parking sequences on M = T + 1 spots.

    Equals M times the linear count.
    """
    return sizes.circle_size * count_linear(sizes)


def count_classical(n: int) -> int:
    """Number of classical parking functions on n unit cars: (n+1)^(n-1)."""
    if n < 1:
        raise ValueError("need at least one car")
    return (n + 1) ** (n - 1)


def option_count(sizes: SizeVector, i: int) -> int:
    """Number of choices car i has in the circular divider construction.

    Car 1 picks any of the M spots; car i >= 2 has
    y_1 + ... + y_{i-1} cruise targets plus n + 2 - i open intervals.
    """
    if not 1 <= i <= sizes.n:
        raise ValueError(f"car index {i} outside [1, {sizes.n}]")
    if i == 1:
        return sizes.circle_size
    return sum(sizes.sizes[: i - 1]) + sizes.n + 2 - i
