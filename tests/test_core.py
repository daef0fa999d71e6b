import dataclasses
import itertools
from random import Random

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
    PrefSequence,
    SizeVector,
    compositions,
    count_classical,
    decode,
    empty_spot,
    is_classical_parking_function,
    is_parking_sequence,
    option_count,
    options_for_car,
    rotate,
    sample_linear,
    simulate_circular,
    simulate_linear,
    verify,
    verify_sweep,
)
from conftest import naive_simulate

SIMULATE = {"linear": simulate_linear, "circular": simulate_circular}


def layout_starts(result):
    assert isinstance(result, Parked)
    return result.layout.starts


class TestGoldenExamples:
    def test_collision(self):
        result = simulate_linear(SizeVector((2, 2, 2)), PrefSequence((3, 2, 1)))
        assert result == Collision(car=2, first_empty=2, blocked=3)

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

    def test_linear_block_may_end_at_T(self):
        assert Layout(SizeVector((1, 2)), (1, 2)).block(2) == (2, 3)

    def test_derived_quantities(self):
        sv = SizeVector((2, 2, 1))
        assert (sv.n, sv.total, sv.circle_size) == (3, 5, 6)

    def test_derived_quantities_stay_out_of_the_value(self):
        # n, total and circle_size are stored once per instance, and a draw
        # keeps the vector's plan beside them; the value of a SizeVector is
        # still its sizes alone, before and after its draws
        for draws in (0, 1, 3):
            sv = SizeVector([2, 2, 1])
            rng = Random(1)
            for _ in range(draws):
                sample_linear(sv, rng)
            assert [f.name for f in dataclasses.fields(sv)] == ["sizes"]
            assert repr(sv) == "SizeVector(sizes=(2, 2, 1))"
            assert sv == SizeVector((2, 2, 1)) and hash(sv) == hash(SizeVector((2, 2, 1)))
            assert dataclasses.replace(sv, sizes=(4,)).circle_size == 5
            for name in ("total", "_plan"):
                with pytest.raises(dataclasses.FrozenInstanceError):
                    setattr(sv, name, 6)


CONSTRUCTOR_CALLS = {
    "unknown-flavor": lambda: PrefSequence((1, 2), "spiral"),
    "zero-pref": lambda: PrefSequence((1, 0)),
    "negative-pref": lambda: PrefSequence((1, -3), "circular"),
    "float-pref": lambda: PrefSequence((1, 2.0)),
    "str-pref": lambda: PrefSequence((1, "2")),
    "too-few-starts": lambda: Layout(SizeVector((2, 1)), (1,)),
    "too-many-starts": lambda: Layout(SizeVector((2,)), (1, 3), "circular"),
    "unknown-layout-flavor": lambda: Layout(SizeVector((2,)), (1,), "Circular"),
    "unknown-car-option":
        lambda: decode(SizeVector((1, 1)), OptionSequence(1, ("direct",))),
    "car-index-below-2": lambda: options_for_car(SizeVector((1, 1, 1)), 1),
    "car-index-above-n": lambda: options_for_car(SizeVector((1, 1, 1)), 4),
    "float-rotation":
        lambda: rotate(SizeVector((2, 2)), PrefSequence((1, 4), "circular"), 1.5),
    "linear-rotation":
        lambda: rotate(SizeVector((2, 2)), PrefSequence((1, 2), "linear"), 1),
    "too-long-rotation":
        lambda: rotate(SizeVector((2, 2)), PrefSequence((1, 2, 3), "circular"), 1),
    "out-of-range-rotation":
        lambda: rotate(SizeVector((2, 2)), PrefSequence((1, 6), "circular"), 1),
    "float-anchor":
        lambda: decode(SizeVector((2, 2)), OptionSequence(1.5, (Direct(1),))),
    "float-interval":
        lambda: decode(SizeVector((2, 2)), OptionSequence(1, (Direct(1.0),))),
    "float-cruise-car":
        lambda: decode(SizeVector((2, 2)), OptionSequence(1, (Cruise(1.0, 1),))),
    "float-cruise-offset":
        lambda: decode(SizeVector((2, 2)), OptionSequence(1, (Cruise(1, 1.5),))),
    "block-of-car-0": lambda: Layout(SizeVector((2, 3)), (1, 3)).block(0),
    "block-of-car-minus-1": lambda: Layout(SizeVector((2, 3)), (1, 3)).block(-1),
    "block-of-car-above-n": lambda: Layout(SizeVector((2, 3)), (1, 3)).block(3),
    # one integer rule: an exact int in range, so bool is refused
    "bool-size": lambda: SizeVector((True, 2)),
    "bool-pref": lambda: PrefSequence((True, 2)),
    "bool-start": lambda: Layout(SizeVector((1, 2)), (True, 2)),
    "bool-block-car": lambda: Layout(SizeVector((1, 2)), (1, 2)).block(True),
    "bool-option-count": lambda: option_count(SizeVector((1, 1)), True),
    "bool-options-for-car": lambda: options_for_car(SizeVector((1, 1, 1)), True),
    "bool-anchor":
        lambda: decode(SizeVector((1, 1)), OptionSequence(True, (Direct(1),))),
    "bool-interval":
        lambda: decode(SizeVector((1, 1)), OptionSequence(1, (Direct(True),))),
    "bool-cruise-car":
        lambda: decode(SizeVector((1, 1)), OptionSequence(1, (Cruise(True, 1),))),
    "bool-cruise-offset":
        lambda: decode(SizeVector((1, 1)), OptionSequence(1, (Cruise(1, True),))),
    "bool-rotation":
        lambda: rotate(SizeVector((2, 2)), PrefSequence((1, 4), "circular"), True),
    "bool-count-classical": lambda: count_classical(True),
    "bool-partitions": lambda: verify(SizeVector((2, 2)), partitions=True),
    "bool-budget": lambda: verify(SizeVector((2, 2)), budget=True),
    "bool-sweep-max-n": lambda: verify_sweep(True, 2),
    "bool-sweep-max-total": lambda: verify_sweep(2, True),
    "bool-compositions-max-n": lambda: list(compositions(True, 3)),
    "bool-compositions-max-total": lambda: list(compositions(3, True)),
    "bool-classical-entry": lambda: is_classical_parking_function([True]),
    # Layout's starts lie on its lot: [1, T] or [1, M]
    "start-0": lambda: Layout(SizeVector((1, 2)), (0, 2)),
    "start-minus-5": lambda: Layout(SizeVector((1, 2)), (1, -5)),
    "linear-start-T-plus-1": lambda: Layout(SizeVector((1, 2)), (1, 4)),
    "circular-start-M-plus-1": lambda: Layout(SizeVector((1, 2)), (5, 2), "circular"),
    "float-start": lambda: Layout(SizeVector((1, 2)), (1, 2.5)),
    # and on the line, each block ends on it: s + y - 1 <= T
    "linear-block-end-T-plus-1": lambda: Layout(SizeVector((1, 2)), (1, 3)),
    "linear-first-block-end-T-plus-1": lambda: Layout(SizeVector((3, 1)), (3, 1)),
    # non-integers that ended in a float or a TypeError
    "float-count-classical": lambda: count_classical(2.5),
    "float-partitions": lambda: verify(SizeVector((2, 2)), partitions=2.5),
    "float-compositions-bound": lambda: list(compositions(2.5, 3)),
}


@pytest.mark.parametrize("build", CONSTRUCTOR_CALLS.values(), ids=CONSTRUCTOR_CALLS)
def test_public_constructors_raise_value_error(build):
    with pytest.raises(ValueError):
        build()


@pytest.mark.parametrize("build, message", [
    (lambda: simulate_linear(SizeVector((10**4300,)), PrefSequence((10**4301,))),
     "preference <4302 digits> outside [1, <4301 digits>]"),
    (lambda: SizeVector((-10**4400,)),
     "car sizes must be positive integers, got -<4401 digits>"),
    (lambda: PrefSequence((1,), 10**5000), "unknown flavor <5001 digits>"),
    (lambda: decode(SizeVector((1, 1)), OptionSequence(1, (-10**5000,))),
     "car 2: unknown option -<5001 digits>"),
    (lambda: empty_spot(Layout(SizeVector((10**4300,) * 2), (10**4300,) * 2,
                               "circular")),
     "expected exactly one empty spot, blocks overlap at spot <4301 digits>"),
], ids=["preference-and-bound", "negative-size", "flavor", "option", "overlap"])
def test_messages_write_numbers_past_the_digit_limit(build, message):
    # str() refuses ints past the interpreter's 4,300-digit limit, so such a
    # number is written as its digit count
    with pytest.raises(ValueError) as refusal:
        build()
    assert str(refusal.value) == message


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
