import dataclasses
import itertools

import pytest
from hypothesis import given
from hypothesis import strategies as st

from parkseq import (
    Collision,
    Cruise,
    Direct,
    Layout,
    OptionSequence,
    Parked,
    PastEnd,
    PrefSequence,
    SizeVector,
    compositions,
    decode,
    is_classical_parking_function,
    is_parking_sequence,
    options_for_car,
    rotate,
    simulate_circular,
    simulate_linear,
)
from conftest import naive_simulate

SIMULATE = {"linear": simulate_linear, "circular": simulate_circular}


def layout_starts(result):
    assert isinstance(result, Parked)
    return result.layout.starts


class TestGoldenExamples:
    def test_three_cars_park(self):
        result = simulate_linear(SizeVector((2, 2, 1)), PrefSequence((2, 3, 1)))
        assert layout_starts(result) == (2, 4, 1)
        assert result.layout.block(1) == (2, 3)
        assert result.layout.block(2) == (4, 5)
        assert result.layout.block(3) == (1,)

    def test_collision(self):
        result = simulate_linear(SizeVector((2, 2, 2)), PrefSequence((3, 2, 1)))
        assert result == Collision(car=2, first_empty=2, blocked=3)

    def test_past_end(self):
        result = simulate_linear(SizeVector((2, 2, 2)), PrefSequence((2, 5, 5)))
        assert result == PastEnd(car=3)

    def test_order_sensitivity(self):
        sizes = SizeVector((2, 2))
        assert is_parking_sequence(sizes, PrefSequence((1, 2)))
        assert not is_parking_sequence(sizes, PrefSequence((2, 1)))
        # the rearranged failure is specifically a collision at spot 2
        assert simulate_linear(sizes, PrefSequence((2, 1))) == Collision(
            car=2, first_empty=1, blocked=2
        )

    @pytest.mark.parametrize("size", [1, 2, 5])
    def test_single_car_parks_at_one(self, size):
        result = simulate_linear(SizeVector((size,)), PrefSequence((1,)))
        assert layout_starts(result) == (1,)
        assert result.layout.block(1) == tuple(range(1, size + 1))


class TestInputContract:
    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            simulate_linear(SizeVector((2, 2)), PrefSequence((1,)))

    def test_pref_out_of_range(self):
        with pytest.raises(ValueError):
            simulate_linear(SizeVector((2, 2)), PrefSequence((5, 1)))

    def test_zero_size_rejected(self):
        with pytest.raises(ValueError):
            SizeVector((2, 0))

    def test_empty_sizes_rejected(self):
        with pytest.raises(ValueError):
            SizeVector(())

    def test_flavor_mismatch(self):
        with pytest.raises(ValueError):
            simulate_linear(SizeVector((2, 2)), PrefSequence((1, 2), "circular"))

    def test_derived_quantities(self):
        sv = SizeVector((2, 2, 1))
        assert (sv.n, sv.total, sv.circle_size) == (3, 5, 6)

    def test_derived_quantities_stay_out_of_the_value(self):
        # n, total and circle_size are stored once per instance; the value
        # of a SizeVector is still its sizes alone
        sv = SizeVector([2, 2, 1])
        assert [f.name for f in dataclasses.fields(sv)] == ["sizes"]
        assert repr(sv) == "SizeVector(sizes=(2, 2, 1))"
        assert sv == SizeVector((2, 2, 1)) and hash(sv) == hash(SizeVector((2, 2, 1)))
        assert dataclasses.replace(sv, sizes=(4,)).circle_size == 5
        with pytest.raises(dataclasses.FrozenInstanceError):
            sv.total = 6


@pytest.mark.parametrize(
    "build",
    [
        lambda: PrefSequence((1, 2), "spiral"),
        lambda: PrefSequence((1, 0)),
        lambda: PrefSequence((1, -3), "circular"),
        lambda: PrefSequence((1, 2.0)),
        lambda: PrefSequence((1, "2")),
        lambda: Layout(SizeVector((2, 1)), (1,)),
        lambda: Layout(SizeVector((2,)), (1, 3), "circular"),
        lambda: Layout(SizeVector((2,)), (1,), "Circular"),
        lambda: decode(SizeVector((1, 1)), OptionSequence(1, ("direct",))),
        lambda: options_for_car(SizeVector((1, 1, 1)), 1),
        lambda: options_for_car(SizeVector((1, 1, 1)), 4),
        lambda: rotate(SizeVector((2, 2)), PrefSequence((1, 4), "circular"), 1.5),
        lambda: rotate(SizeVector((2, 2)), PrefSequence((1, 2), "linear"), 1),
        lambda: rotate(SizeVector((2, 2)), PrefSequence((1, 2, 3), "circular"), 1),
        lambda: rotate(SizeVector((2, 2)), PrefSequence((1, 6), "circular"), 1),
        lambda: decode(SizeVector((2, 2)), OptionSequence(1.5, (Direct(1),))),
        lambda: decode(SizeVector((2, 2)), OptionSequence(1, (Direct(1.0),))),
        lambda: decode(SizeVector((2, 2)), OptionSequence(1, (Cruise(1.0, 1),))),
        lambda: decode(SizeVector((2, 2)), OptionSequence(1, (Cruise(1, 1.5),))),
        lambda: Layout(SizeVector((2, 3)), (1, 3)).block(0),
        lambda: Layout(SizeVector((2, 3)), (1, 3)).block(-1),
        lambda: Layout(SizeVector((2, 3)), (1, 3)).block(3),
    ],
    ids=[
        "unknown-flavor",
        "zero-pref",
        "negative-pref",
        "float-pref",
        "str-pref",
        "too-few-starts",
        "too-many-starts",
        "unknown-layout-flavor",
        "unknown-car-option",
        "car-index-below-2",
        "car-index-above-n",
        "float-rotation",
        "linear-rotation",
        "too-long-rotation",
        "out-of-range-rotation",
        "float-anchor",
        "float-interval",
        "float-cruise-car",
        "float-cruise-offset",
        "block-of-car-0",
        "block-of-car-minus-1",
        "block-of-car-above-n",
    ],
)
def test_public_constructors_raise_value_error(build):
    with pytest.raises(ValueError):
        build()


class TestClassicalChecker:
    def test_examples(self):
        assert is_classical_parking_function((3, 1, 1))
        assert not is_classical_parking_function((2, 2, 2))
        assert is_classical_parking_function(())

    @given(st.integers(min_value=1, max_value=8))
    def test_identity_tuple(self, n):
        assert is_classical_parking_function(tuple(range(1, n + 1)))

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            is_classical_parking_function((0, 1))


# strategy: a size vector and a valid linear preference tuple for it
@st.composite
def sizes_and_prefs(draw):
    sizes = SizeVector(
        tuple(draw(st.lists(st.integers(1, 4), min_size=1, max_size=5)))
    )
    prefs = tuple(
        draw(st.integers(1, sizes.total)) for _ in range(sizes.n)
    )
    return sizes, PrefSequence(prefs)


@given(sizes_and_prefs())
def test_simulation_is_deterministic(case):
    sizes, prefs = case
    assert simulate_linear(sizes, prefs) == simulate_linear(sizes, prefs)


@given(sizes_and_prefs())
def test_parked_layout_covers_lot_exactly(case):
    sizes, prefs = case
    result = simulate_linear(sizes, prefs)
    if isinstance(result, Parked):
        occupied = []
        for car in range(1, sizes.n + 1):
            occupied.extend(result.layout.block(car))
        assert sorted(occupied) == list(range(1, sizes.total + 1))


@given(sizes_and_prefs())
def test_monotone_scan_replay(case):
    # no car may have skipped a spot that was empty when it arrived
    sizes, prefs = case
    result = simulate_linear(sizes, prefs)
    if not isinstance(result, Parked):
        return
    occupied = set()
    for car in range(1, sizes.n + 1):
        start = result.layout.starts[car - 1]
        for spot in range(prefs.prefs[car - 1], start):
            assert spot in occupied
        occupied.update(result.layout.block(car))


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_classical_equivalence_exhaustive(n):
    sizes = SizeVector((1,) * n)
    for tup in itertools.product(range(1, n + 1), repeat=n):
        assert is_parking_sequence(sizes, PrefSequence(tup)) == \
            is_classical_parking_function(tup)


@pytest.mark.parametrize(
    "flavor, tuples", [("linear", 19_216), ("circular", 35_516)]
)
def test_kernel_matches_spot_by_spot_reference(flavor, tuples):
    # every tuple of every composition with n <= 4, T <= 6: results are
    # equal field by field, so the collision spots and past-end car too
    checked = 0
    for comp in compositions(4, 6):
        sizes = SizeVector(comp)
        base = sizes.total if flavor == "linear" else sizes.circle_size
        for tup in itertools.product(range(1, base + 1), repeat=sizes.n):
            prefs = PrefSequence(tup, flavor)
            assert SIMULATE[flavor](sizes, prefs) == naive_simulate(
                sizes, prefs, flavor
            )
            checked += 1
    assert checked == tuples


@st.composite
def sizes_and_prefs_any_flavor(draw):
    flavor = draw(st.sampled_from(["linear", "circular"]))
    sizes = SizeVector(
        tuple(draw(st.lists(st.integers(1, 6), min_size=1, max_size=10)))
    )
    limit = sizes.total if flavor == "linear" else sizes.circle_size
    prefs = tuple(draw(st.integers(1, limit)) for _ in range(sizes.n))
    return sizes, PrefSequence(prefs, flavor)


@given(sizes_and_prefs_any_flavor())
def test_kernel_matches_reference_on_longer_sequences(case):
    sizes, prefs = case
    assert SIMULATE[prefs.flavor](sizes, prefs) == naive_simulate(
        sizes, prefs, prefs.flavor
    )
