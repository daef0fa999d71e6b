import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from parkseq import (
    SizeVector,
    count_circular,
    count_classical,
    count_linear,
    option_count,
    options_for_car,
)
from conftest import unlimited_str_digits
from parkseq.counting import _PRODUCT_CUT, _decimal, _product

size_vectors = st.lists(st.integers(1, 6), min_size=1, max_size=8).map(
    lambda xs: SizeVector(tuple(xs))
)


@pytest.mark.parametrize(
    "sizes, expected",
    [
        ((2, 2, 1), 30),
        ((1, 1, 1), 16),
        ((7,), 1),
        ((2, 2), 4),
        ((2, 2, 2), 30),
    ],
)
def test_count_linear(sizes, expected):
    assert count_linear(SizeVector(sizes)) == expected


@pytest.mark.parametrize(
    "sizes, expected",
    [((2, 2), 20), ((1, 1), 9), ((2, 2, 1), 180)],
)
def test_count_circular(sizes, expected):
    assert count_circular(SizeVector(sizes)) == expected


@pytest.mark.parametrize("n, expected", [(1, 1), (3, 16), (7, 262144)])
def test_count_classical(n, expected):
    assert count_classical(n) == expected


def test_count_classical_rejects_zero():
    with pytest.raises(ValueError):
        count_classical(0)


def test_option_count_worked_example():
    sizes = SizeVector((2, 5, 1, 3, 2))
    assert option_count(sizes, 1) == 14  # = M
    assert option_count(sizes, 4) == 11  # (y1+y3) + y2 + 3


def test_option_count_last_factor():
    assert option_count(SizeVector((2, 2, 1)), 3) == 6


def test_option_count_range():
    with pytest.raises(ValueError):
        option_count(SizeVector((2, 2)), 3)
    with pytest.raises(ValueError):
        option_count(SizeVector((2, 2)), 0)


def test_counts_are_exact_at_scale():
    # 20 cars of size 5 is far past 64-bit range; must not lose digits
    sizes = SizeVector((5,) * 20)
    value = count_linear(sizes)
    assert value > 2**64
    assert value == math.prod(5 * (i - 1) + 22 - i for i in range(2, 21))


@given(size_vectors)
def test_option_counts_multiply_to_circular(sizes):
    # options_for_car builds the literal option lists, so this witness does
    # not share the option counts that count_circular multiplies
    later = math.prod(len(options_for_car(sizes, i)) for i in range(2, sizes.n + 1))
    assert sizes.circle_size * later == count_circular(sizes)


# factor lists of every length up to two halvings past the cut below which
# _product is math.prod, the length drawn first so that long ones come up
@given(st.integers(0, 4 * _PRODUCT_CUT + 3).flatmap(
    lambda k: st.lists(st.integers(-(2**70), 2**70), min_size=k, max_size=k)))
def test_product_tree_is_math_prod(factors):
    assert _product(factors) == math.prod(factors)


@pytest.mark.parametrize("n", [_PRODUCT_CUT, _PRODUCT_CUT + 2, 4 * _PRODUCT_CUT + 1])
def test_counts_past_the_product_cut(n):
    # (n+1)^(n-1) unit cars, and sizes 1..n, whose count is the literal
    # left-to-right product of the option counts
    assert count_linear(SizeVector((1,) * n)) == count_classical(n)
    sizes = SizeVector(tuple(range(1, n + 1)))
    later = [i * (i - 1) // 2 + n + 2 - i for i in range(2, n + 1)]
    assert count_circular(sizes) == sizes.circle_size * math.prod(later)


@given(size_vectors)
def test_circular_is_m_times_linear(sizes):
    assert count_circular(sizes) == sizes.circle_size * count_linear(sizes)


@pytest.mark.parametrize("n", range(1, 13))
def test_unit_sizes_specialize_to_classical(n):
    assert count_linear(SizeVector((1,) * n)) == count_classical(n)


@given(st.integers(-(10**1500), 10**1500))
def test_decimal_matches_str(x):
    assert _decimal(x) == str(x)


@given(st.integers(0, 2**40_000))
def test_decimal_past_the_str_digit_limit(x):
    with unlimited_str_digits():
        expected = str(x)
    assert _decimal(x) == expected
