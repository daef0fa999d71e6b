import itertools
import re
from collections import Counter
from random import Random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from parkseq import (
    Collision,
    Layout,
    Parked,
    PrefSequence,
    SizeVector,
    compositions,
    empty_spot,
    restrict_to_linear,
    rotate,
    simulate_circular,
    wrap_spot,
)
from parkseq.bruteforce import _parking_states
from parkseq.circular import _turn
from conftest import block_spots, naive_free_spots, naive_parking_set


def circ(prefs):
    return PrefSequence(prefs, "circular")


class TestSimulateCircular:
    def test_wraparound_collision(self):
        result = simulate_circular(SizeVector((2, 2)), circ((1, 5)))
        assert result == Collision(car=2, first_empty=5, blocked=1)

    def test_parks_with_gap(self):
        result = simulate_circular(SizeVector((2, 2)), circ((1, 4)))
        assert isinstance(result, Parked)
        assert result.layout.starts == (1, 4)
        assert empty_spot(result.layout) == 3

    @pytest.mark.parametrize("size", [1, 3])
    def test_single_car_always_parks(self, size):
        m = size + 1
        for k in range(1, m + 1):
            result = simulate_circular(SizeVector((size,)), circ((k,)))
            assert isinstance(result, Parked)
            assert empty_spot(result.layout) == wrap_spot(k + size, m)

    def test_no_past_end_possible(self):
        sizes = SizeVector((2, 1))
        for tup in itertools.product(range(1, 5), repeat=2):
            result = simulate_circular(sizes, circ(tup))
            assert isinstance(result, (Parked, Collision))

    def test_pref_out_of_range(self):
        with pytest.raises(ValueError):
            simulate_circular(SizeVector((2, 2)), circ((6, 1)))


class TestRotate:
    def test_identity(self):
        sizes = SizeVector((2, 2))
        assert rotate(sizes, circ((1, 4)), 0).prefs == (1, 4)

    def test_wraps(self):
        sizes = SizeVector((2, 2))  # M = 5
        assert rotate(sizes, circ((1, 4)), 2).prefs == (3, 1)

    @given(
        st.lists(st.integers(1, 3), min_size=1, max_size=4),
        st.integers(-50, 50),
        st.data(),
    )
    def test_round_trip(self, raw_sizes, a, data):
        # offsets below 0 and at or past M are reduced mod M before the turn
        sizes = SizeVector(tuple(raw_sizes))
        m = sizes.circle_size
        prefs = circ(
            tuple(data.draw(st.integers(1, m)) for _ in range(sizes.n))
        )
        rotated = rotate(sizes, prefs, a)
        assert rotated.prefs == tuple((c + a - 1) % m + 1 for c in prefs.prefs)
        assert rotate(sizes, rotated, m - a % m) == prefs


def test_turn_matches_the_literal():
    # the one rule that turns spots, on every spot and every turn of
    # circles of up to 10 spots and of 255, the largest whose spots fit in
    # bytes: tuples no longer than the lot are turned one by one, longer
    # ones by lookup in a table of the turned spots, and bytes by one
    # translate, back as bytes
    for m in (*range(1, 11), 255):
        longer = tuple(range(m, 0, -1)) * 3, (m,) * (m + 1)
        for spots in (tuple(range(1, m + 1)), *longer):
            for a in range(m):
                literal = tuple((x + a - 1) % m + 1 for x in spots)
                assert _turn(spots, a, m) == literal
                turned = _turn(bytes(spots), a, m)
                assert type(turned) is bytes and turned == bytes(literal)


class TestEmptySpot:
    def test_cruising_car(self):
        result = simulate_circular(SizeVector((2, 2)), circ((1, 1)))
        assert isinstance(result, Parked)
        assert empty_spot(result.layout) == 5

    def test_rejects_linear_layout(self):
        layout = Layout(SizeVector((2,)), (1,), "linear")
        with pytest.raises(ValueError):
            empty_spot(layout)

    def test_rejects_incomplete_layout(self):
        # two overlapping cars leave more than one spot free
        layout = Layout(SizeVector((2, 2)), (1, 1), "circular")
        with pytest.raises(ValueError):
            empty_spot(layout)

    def test_block_wrapping_past_m(self):
        # M = 6: car 1 covers 5, 6, 1; car 2 covers 2, 3
        layout = Layout(SizeVector((3, 2)), (5, 2), "circular")
        assert naive_free_spots(layout) == {4}
        assert empty_spot(layout) == 4

    def test_block_ending_exactly_at_m(self):
        # M = 6: car 1 covers 4, 5, 6; car 2 covers 1, 2
        layout = Layout(SizeVector((3, 2)), (4, 1), "circular")
        assert naive_free_spots(layout) == {3}
        assert empty_spot(layout) == 3

    @pytest.mark.parametrize(
        "starts, spot",
        [((1, 4), 6), ((2, 5), 1)],  # M = 6: blocks 1-3, 4-5 and 2-4, 5-6
        ids=["gap-at-m", "gap-at-1"],
    )
    def test_gap_at_an_end(self, starts, spot):
        layout = Layout(SizeVector((3, 2)), starts, "circular")
        assert naive_free_spots(layout) == {spot}
        assert empty_spot(layout) == spot

    @pytest.mark.parametrize(
        "sizes, starts, free, spot",
        [
            # M = 8: cars cover 1-3, 2-3 and 7, 8, 1; car 2's start is the
            # first spot found covered twice
            ((3, 2, 2), (1, 2, 7), {4, 5, 6}, 2),
            # M = 7: car 1 covers 1, 2; car 2, not the last by start,
            # wraps onto it on 6, 7, 1; car 3 covers 7
            ((2, 3, 1), (1, 6, 7), {3, 4, 5}, 7),
        ],
        ids=["at-spot-2", "not-last-wraps-onto-first"],
    )
    def test_overlapping_blocks_name_the_overlap(self, sizes, starts, free, spot):
        layout = Layout(SizeVector(sizes), starts, "circular")
        assert naive_free_spots(layout) == free
        with pytest.raises(ValueError, match=f"blocks overlap at spot {spot}$"):
            empty_spot(layout)

    def test_agrees_with_the_reference_on_random_layouts(self):
        # any starts, so most layouts overlap: empty_spot refuses exactly
        # those the reference finds more than one free spot in, and names
        # a spot that two blocks cover
        rng = Random(2022)
        for _ in range(10**4):
            sizes = SizeVector([rng.randint(1, 4) for _ in range(rng.randint(1, 5))])
            m = sizes.circle_size
            layout = Layout(sizes, [rng.randint(1, m) for _ in range(sizes.n)], "circular")
            free = naive_free_spots(layout)
            if len(free) == 1:
                assert empty_spot(layout) == free.pop()
                continue
            with pytest.raises(ValueError, match=r"overlap at spot (\d+)$") as exc:
                empty_spot(layout)
            spot = int(re.search(r"(\d+)$", str(exc.value)).group(1))
            covers = Counter(
                s for j, y in zip(layout.starts, sizes.sizes)
                for s in block_spots(j, y, m, True)
            )
            assert covers[spot] >= 2

    def test_matches_the_spot_by_spot_reference(self):
        # the layout of every circular parking sequence with n <= 4, T <= 8:
        # the starts that the brute-force walk parks each sequence at
        distinct = 0
        for comp in compositions(4, 8):
            sizes = SizeVector(comp)
            layouts = {run[3] for run in _parking_states(sizes, "circular")}
            distinct += len(layouts)
            for starts in layouts:
                layout = Layout(sizes, starts, "circular")
                free = naive_free_spots(layout)
                assert len(free) == 1
                assert empty_spot(layout) == free.pop()
        assert distinct == 16816


class TestRestrictToLinear:
    def test_spot_m_empty_restricts(self):
        sizes = SizeVector((2, 2))
        restricted = restrict_to_linear(sizes, circ((1, 3)))
        assert restricted == PrefSequence((1, 3), "linear")

    def test_other_empty_spot_rejected(self):
        assert restrict_to_linear(SizeVector((2, 2)), circ((1, 4))) is None

    def test_collision_rejected(self):
        assert restrict_to_linear(SizeVector((2, 2)), circ((1, 5))) is None


SMALL_COMPOSITIONS = [(1,), (2,), (1, 1), (2, 1), (2, 2), (1, 2, 1), (2, 2, 1)]


@pytest.mark.parametrize("comp", SMALL_COMPOSITIONS)
def test_no_scan_crosses_the_empty_spot(comp):
    # replay: each car's cruise path never passes the final empty spot
    sizes = SizeVector(comp)
    m = sizes.circle_size
    for tup in naive_parking_set(sizes, "circular"):
        result = simulate_circular(sizes, circ(tup))
        e = empty_spot(result.layout)
        for car in range(1, sizes.n + 1):
            spot = tup[car - 1]
            while spot != result.layout.starts[car - 1]:
                assert spot != e
                spot = wrap_spot(spot + 1, m)
