import dataclasses
import itertools
import re

import pytest
from hypothesis import given
from hypothesis import strategies as st

import parkseq
import parkseq.bruteforce
from parkseq import (
    BudgetExceededError,
    Parked,
    PrefSequence,
    SizeVector,
    compositions,
    count_circular,
    count_linear,
    decode,
    enumerate_option_sequences,
    enumerate_parking_sequences,
    rotate,
    simulate_circular,
    simulate_linear,
    verify,
    verify_sweep,
)
from parkseq.bruteforce import (
    BijectionReport,
    _blocks,
    _parking_states,
    _rotation_closed,
    _tally,
    bijection_checks,
)
from parkseq.divider import _decode, _option_codes
from conftest import (
    naive_free_spots,
    naive_parking_set,
    naive_prefix_tally,
    naive_simulate,
    naive_tally,
    refuse_package_bindings,
)


@pytest.fixture
def no_simulators(monkeypatch):
    """Every binding of simulate_linear/simulate_circular in the package
    raises while the test runs."""
    refuse_package_bindings(
        monkeypatch,
        (parkseq.simulate_linear, parkseq.simulate_circular),
        "no simulator may be called here",
    )


CROSS_CHECK_CASES = [
    ((2, 2), "linear"),
    ((2, 2), "circular"),
    ((2, 2, 2), "linear"),
    ((1, 1, 1), "linear"),
    ((2, 2, 1), "circular"),
    ((3, 1, 2), "linear"),
    ((1, 3), "circular"),
    ((4,), "linear"),
]


# every composition with n <= 4, T <= 6 in both flavors; the hand-picked
# cases above stay first, so their test ids do not move
CROSS_CHECK_CASES += [
    (comp, flavor)
    for flavor in ("linear", "circular")
    for comp in compositions(4, 6)
    if (comp, flavor) not in CROSS_CHECK_CASES
]


@pytest.mark.parametrize("comp, flavor", CROSS_CHECK_CASES)
def test_tallies_match_literal_enumeration(comp, flavor):
    # the aggregated tally must agree, class by class, with one simulation
    # per tuple over the whole domain, however the first coordinate is split
    sizes = SizeVector(comp)
    expected = naive_tally(sizes, flavor)
    base = sizes.total if flavor == "linear" else sizes.circle_size
    for partitions in (1, 2, base):  # base: one first coordinate per part
        report = verify(sizes, flavor, partitions=partitions)
        assert (report.parked, report.collisions, report.past_end) == expected
        assert report.total_tuples == base**sizes.n
        assert report.parked + report.collisions + report.past_end == \
            report.total_tuples


@st.composite
def sizes_flavor_and_first_range(draw):
    comp = tuple(draw(st.lists(st.integers(1, 3), min_size=1, max_size=5)))
    flavor = draw(st.sampled_from(["linear", "circular"]))
    sizes = SizeVector(comp)
    base = sizes.total if flavor == "linear" else sizes.circle_size
    lo = draw(st.integers(1, base))
    hi = draw(st.integers(lo, base))
    return sizes, flavor, lo, hi


@given(sizes_flavor_and_first_range())
def test_tally_matches_prefix_reference(case):
    # past naive_tally's reach: the free-spot step against a reference that
    # tries every preference and cruises spot by spot
    sizes, flavor, lo, hi = case
    assert _tally(sizes, flavor, lo, hi) == naive_prefix_tally(sizes, flavor, lo, hi)


@pytest.mark.parametrize("wrap", [False, True])
def test_blocks_cover_the_spots_a_parked_car_takes(wrap):
    # the spot-by-spot definition of where a car of `size` parked at j sits
    for base in range(1, 10):
        for size in range(1, base + 1):
            blocks = _blocks(size, base, wrap)
            assert len(blocks) == base + 1
            for j in range(1, base + 1):
                spots = {s for s in range(1, base + 1) if blocks[j] >> (s - 1) & 1}
                assert blocks[j] >> base == 0
                if wrap:
                    assert spots == {(j - 1 + k) % base + 1 for k in range(size)}
                elif j - 1 + size > base:
                    assert blocks[j] == 0
                else:
                    assert spots == set(range(j, j + size))


# the edge of the benchmark's oracle sweep (n = 6, T = 12), past the reach
# of the hypothesis test above
@pytest.mark.parametrize("flavor", ["linear", "circular"])
@pytest.mark.parametrize(
    "comp", [(2,) * 6, (7, 1, 1, 1, 1, 1), (1, 1, 1, 1, 1, 7), (1, 2, 3, 1, 2, 3)],
    ids=str,
)
def test_tally_at_the_oracle_edge(comp, flavor):
    sizes = SizeVector(comp)
    base = sizes.total if flavor == "linear" else sizes.circle_size
    for lo, hi in ((1, base), (1, base // 2), (base // 2 + 1, base)):
        assert _tally(sizes, flavor, lo, hi) == \
            naive_prefix_tally(sizes, flavor, lo, hi)
    # the empty range that verify's partition split gives past one part per
    # first coordinate, and empty ranges that end further below their start
    for lo, hi in ((3, 2), (5, 2), (4, 1)):
        assert _tally(sizes, flavor, lo, hi) == (0, 0, 0)


class TestVerify:
    def test_circular_two_by_two(self):
        report = verify(SizeVector((2, 2)), "circular")
        assert report.total_tuples == 25
        assert report.parked == 20
        assert report.collisions == 5
        assert report.past_end == 0
        assert report.match

    def test_linear_three_twos(self):
        report = verify(SizeVector((2, 2, 2)))
        assert report.parked == 30 == count_linear(SizeVector((2, 2, 2)))
        assert report.match

    def test_classical_three(self):
        report = verify(SizeVector((1, 1, 1)))
        assert report.parked == 16
        assert report.match

    def test_circular_never_past_end(self):
        for comp in [(1,), (2, 1), (2, 2, 1), (1, 1, 2)]:
            assert verify(SizeVector(comp), "circular").past_end == 0

    @pytest.mark.parametrize("comp", [(2, 2, 2), (3, 1, 2)])
    def test_partition_merge_determinism(self, comp):
        sizes = SizeVector(comp)
        reports = [verify(sizes, partitions=k) for k in (1, 2, 8)]
        assert reports[0] == reports[1] == reports[2]
        circ = [verify(sizes, "circular", partitions=k) for k in (1, 2, 8)]
        assert circ[0] == circ[1] == circ[2]

    def test_more_partitions_than_prefixes(self):
        sizes = SizeVector((1, 1))
        assert verify(sizes, partitions=10) == verify(sizes)

    def test_budget_refusal(self):
        with pytest.raises(BudgetExceededError) as exc_info:
            verify(SizeVector((5,) * 8), budget=10**8)
        assert exc_info.value.required == 40**8
        assert exc_info.value.sizes.sizes == (5,) * 8
        assert str(40**8) in str(exc_info.value)  # required budget reported

    @pytest.mark.parametrize("budget", [0, -1])
    def test_budget_below_one_is_a_value_error(self, budget):
        # it admits no instance, not even a single unit car
        with pytest.raises(ValueError, match=f"budget must be >= 1, got {budget}"):
            verify(SizeVector((1,)), budget=budget)

    def test_bad_partitions(self):
        with pytest.raises(ValueError):
            verify(SizeVector((2,)), partitions=0)


class TestEnumerate:
    def test_two_by_two_set_and_order(self):
        seqs = [p.prefs for p in enumerate_parking_sequences(SizeVector((2, 2)))]
        assert seqs == [(1, 1), (1, 2), (1, 3), (3, 1)]  # lexicographic

    def test_count_matches_formula(self):
        sizes = SizeVector((2, 2, 1))
        assert sum(1 for _ in enumerate_parking_sequences(sizes)) == 30

    def test_single_car(self):
        seqs = list(enumerate_parking_sequences(SizeVector((7,))))
        assert [p.prefs for p in seqs] == [(1,)]

    def test_budget_refusal(self):
        with pytest.raises(BudgetExceededError):
            next(enumerate_parking_sequences(SizeVector((2, 2)), budget=10))

    @pytest.mark.parametrize("budget", [0, -1])
    def test_budget_below_one_is_a_value_error(self, budget):
        with pytest.raises(ValueError, match=f"budget must be >= 1, got {budget}"):
            next(enumerate_parking_sequences(SizeVector((1,)), budget=budget))

    @pytest.mark.parametrize("flavor", ["linear", "circular"])
    @pytest.mark.parametrize("comp", list(compositions(4, 7)), ids=str)
    def test_matches_literal_parking_set_in_order(self, comp, flavor):
        # the prefix walk lists exactly the tuples one simulation per tuple
        # parks, in lexicographic order
        sizes = SizeVector(comp)
        seqs = list(enumerate_parking_sequences(sizes, flavor))
        assert all(p.flavor == flavor for p in seqs)
        assert [p.prefs for p in seqs] == sorted(naive_parking_set(sizes, flavor))

    def test_never_simulates(self, no_simulators):
        sizes = SizeVector((2, 1, 2))
        for flavor in ("linear", "circular"):
            seqs = list(enumerate_parking_sequences(sizes, flavor))
            assert len(seqs) == len(naive_parking_set(sizes, flavor))

    def test_fewer_steps_than_sequences(self, monkeypatch):
        # a prefix costs one block-table lookup per free spot, shared by all
        # its extensions, so the walk takes fewer steps than it yields
        # sequences
        blocks = parkseq.bruteforce._blocks
        calls = 0

        class Counting(list):
            def __getitem__(self, j):
                nonlocal calls
                calls += 1
                return super().__getitem__(j)

        monkeypatch.setattr(parkseq.bruteforce, "_blocks",
                            lambda *args: Counting(blocks(*args)))
        yielded = sum(1 for _ in enumerate_parking_sequences(SizeVector((1,) * 7)))
        assert yielded == 8**6
        assert 0 < calls < yielded


class TestSweep:
    def test_small_linear_sweep_all_match(self):
        reports = verify_sweep(3, 6)
        assert reports
        assert all(r.match for r in reports)

    def test_single_car_sweep(self):
        reports = verify_sweep(1, 5)
        assert len(reports) == 5
        assert all(r.parked == 1 for r in reports)

    def test_circular_sweep_compositions(self):
        reports = verify_sweep(2, 4, "circular")
        comps = [r.sizes.sizes for r in reports]
        assert sorted(comps) == sorted(
            [(1,), (2,), (3,), (4,), (1, 1), (1, 2), (2, 1), (1, 3), (2, 2), (3, 1)]
        )
        assert all(r.match for r in reports)

    @pytest.mark.parametrize("max_n, max_total", [(0, 5), (-2, 4), (3, 0)])
    def test_empty_bounds_refused(self, max_n, max_total):
        # an empty sweep would report all-match after checking nothing
        with pytest.raises(ValueError, match="sweep bounds"):
            verify_sweep(max_n, max_total)

    def test_budget_names_offender(self):
        with pytest.raises(BudgetExceededError) as exc_info:
            verify_sweep(3, 6, budget=100)
        assert exc_info.value.sizes.n >= 1


UNKNOWN_FLAVOR_CALLS = {
    "verify": lambda f: verify(SizeVector((2, 1)), f),
    # a domain over the budget: the flavor is refused before the budget
    "verify-over-budget": lambda f: verify(SizeVector((1,) * 30), f),
    "verify_sweep": lambda f: verify_sweep(1, 2, f),
    "enumerate": lambda f: next(enumerate_parking_sequences(SizeVector((2, 1)), f)),
    "tally": lambda f: _tally(SizeVector((2, 1)), f, 1, 3),
    "parking_states": lambda f: next(_parking_states(SizeVector((2, 1)), f)),
}


@pytest.mark.parametrize("flavor", ["Linear", "circ", ""])
@pytest.mark.parametrize("call", UNKNOWN_FLAVOR_CALLS.values(), ids=UNKNOWN_FLAVOR_CALLS)
def test_unknown_flavor_is_a_value_error(call, flavor):
    with pytest.raises(ValueError, match=re.escape(f"unknown flavor {flavor!r}")):
        call(flavor)


def test_compositions_generator():
    comps = list(compositions(2, 3))
    assert comps == [(1,), (2,), (3,), (1, 1), (1, 2), (2, 1)]


def test_bijection_checks_single_car():
    report = bijection_checks(SizeVector((3,)))
    assert report.option_sequences == 4
    assert report.distinct_decodes == 4
    assert report.all_pass


def test_bijection_checks_counts():
    report = bijection_checks(SizeVector((2, 2)))
    assert report.option_sequences == 20
    assert report.circular_parking_sequences == 20
    assert report.linear_parking_sequences == 4
    assert report.all_pass


def test_all_pass_reads_every_check():
    report = bijection_checks(SizeVector((2, 1)))
    bools = [f.name for f in dataclasses.fields(report) if f.type == "bool"]
    assert list(report.checks) == bools and len(bools) == 6
    assert report.all_pass
    for name in bools:
        failed = dataclasses.replace(report, **{name: False})
        assert failed.checks[name] is False
        assert not failed.all_pass


def test_bijection_checks_budget():
    with pytest.raises(BudgetExceededError):
        bijection_checks(SizeVector((5, 5, 5)), budget=10)


@pytest.mark.parametrize("budget", [0, -1])
def test_bijection_checks_budget_below_one(budget):
    with pytest.raises(ValueError, match=f"budget must be >= 1, got {budget}"):
        bijection_checks(SizeVector((1,)), budget=budget)


def test_sweep_reports_match_circular_identity():
    for report in verify_sweep(3, 5, "circular"):
        assert report.formula_value == count_circular(report.sizes)
        assert report.formula_value == \
            report.sizes.circle_size * count_linear(report.sizes)


def reference_bijection_report(sizes: SizeVector) -> BijectionReport:
    """The bijection checks written out with the spot-by-spot references:
    every decode simulated literally, the restriction read from the free
    spots, and closure tested under every rotation."""
    m = sizes.circle_size
    image = []
    decode_valid = True
    for opts in enumerate_option_sequences(sizes):
        prefs, layout = decode(sizes, opts)
        image.append(prefs.prefs)
        result = naive_simulate(sizes, prefs, "circular")
        decode_valid &= isinstance(result, Parked) and result.layout == layout
    circular = naive_parking_set(sizes, "circular")
    linear = naive_parking_set(sizes, "linear")
    restricted = {
        p for p in circular
        if naive_free_spots(
            naive_simulate(sizes, PrefSequence(p, "circular"), "circular").layout
        ) == {m}
    }
    rotation_invariant = all(
        tuple((c - 1 + a) % m + 1 for c in p) in circular
        for p in circular
        for a in range(m)
    )
    return BijectionReport(
        sizes=sizes,
        option_sequences=len(image),
        distinct_decodes=len(set(image)),
        circular_parking_sequences=len(circular),
        linear_parking_sequences=len(linear),
        decode_valid=decode_valid,
        decode_injective=len(set(image)) == len(image),
        image_equals_circular_set=set(image) == circular,
        image_count_matches_formula=len(set(image)) == count_circular(sizes),
        restriction_matches_linear_set=restricted == linear,
        rotation_invariant=rotation_invariant,
    )


@pytest.mark.parametrize("comp", list(compositions(4, 6)), ids=str)
def test_bijection_checks_match_reference(comp):
    sizes = SizeVector(comp)
    report = bijection_checks(sizes)
    assert report == reference_bijection_report(sizes)
    assert report.all_pass


@pytest.mark.parametrize("flavor", ["linear", "circular"])
@pytest.mark.parametrize("comp", list(compositions(4, 7)), ids=str)
def test_parking_states_yield_the_simulated_starts(comp, flavor):
    # the walk's starts are decode's witness in bijection_checks
    sizes = SizeVector(comp)
    simulate = simulate_circular if flavor == "circular" else simulate_linear
    for prefs, starts, _ in _parking_states(sizes, flavor):
        seq = PrefSequence(prefs, flavor)
        assert simulate(sizes, seq).layout.starts == starts
        assert naive_simulate(sizes, seq, flavor).layout.starts == starts


WITNESS_CASES = [(1, 2), (2, 2), (2, 1, 2), (1, 2, 1), (3, 1, 2)]


def report_with_first_decode(monkeypatch, sizes, corrupt):
    """bijection_checks with the first (prefs, starts) pair the divider
    core decodes replaced by corrupt(prefs, starts)."""
    calls = 0

    def patched(*args):
        nonlocal calls
        calls += 1
        prefs, starts = _decode(*args)
        return corrupt(prefs, starts) if calls == 1 else (prefs, starts)

    monkeypatch.setattr(parkseq.bruteforce, "_decode", patched)
    return bijection_checks(sizes)


@pytest.mark.parametrize("comp", WITNESS_CASES, ids=str)
def test_decode_witness_sees_a_moved_start(monkeypatch, comp):
    sizes = SizeVector(comp)
    m = sizes.circle_size

    def move_first_start(prefs, starts):
        return prefs, (starts[0] % m + 1,) + starts[1:]

    report = report_with_first_decode(monkeypatch, sizes, move_first_start)
    assert not report.decode_valid
    assert report.image_equals_circular_set  # the preferences are untouched


@pytest.mark.parametrize("comp", WITNESS_CASES, ids=str)
def test_decode_witness_sees_preferences_that_do_not_park(monkeypatch, comp):
    sizes = SizeVector(comp)
    domain = itertools.product(range(1, sizes.circle_size + 1), repeat=sizes.n)
    stray = min(set(domain) - naive_parking_set(sizes, "circular"))
    report = report_with_first_decode(
        monkeypatch, sizes, lambda prefs, starts: (stray, starts)
    )
    assert not report.decode_valid
    assert not report.image_equals_circular_set


@pytest.mark.parametrize("comp", WITNESS_CASES, ids=str)
def test_dropped_option_sequence_fails_a_count_check(monkeypatch, comp):
    sizes = SizeVector(comp)
    monkeypatch.setattr(
        parkseq.bruteforce, "_option_codes",
        lambda sizes: itertools.islice(_option_codes(sizes), 1, None),
    )
    report = bijection_checks(sizes)
    assert not (report.decode_injective and report.image_count_matches_formula)
    assert not report.image_equals_circular_set


@pytest.mark.parametrize("comp", [(1,), (2, 1), (2, 2), (1, 2, 1), (3, 1, 2)], ids=str)
def test_bijection_checks_never_simulate(no_simulators, comp):
    sizes = SizeVector(comp)
    assert bijection_checks(sizes) == reference_bijection_report(sizes)


@pytest.mark.parametrize("comp", [(1,), (2, 1), (2, 2), (1, 2, 1), (3, 1, 2)])
def test_rotation_closure_sees_a_missing_rotation(comp):
    sizes = SizeVector(comp)
    m = sizes.circle_size
    parking = naive_parking_set(sizes, "circular")
    assert _rotation_closed(parking, m)
    first = min(parking)
    for a in range(1, m):
        rotated = rotate(sizes, PrefSequence(first, "circular"), a).prefs
        assert not _rotation_closed(parking - {rotated}, m)


@st.composite
def tuple_sets(draw):
    # unions of whole rotation orbits with some tuples dropped, so that
    # closed and unclosed sets are both drawn often
    n = draw(st.integers(1, 3))
    m = draw(st.integers(1, 5))
    domain = list(itertools.product(range(1, m + 1), repeat=n))
    seeds = draw(st.lists(st.sampled_from(domain), max_size=6))
    orbits = {
        tuple((c - 1 + a) % m + 1 for c in p) for p in seeds for a in range(m)
    }
    dropped = draw(st.lists(st.sampled_from(domain), max_size=2))
    return orbits - set(dropped), m


@given(tuple_sets())
def test_one_step_rotation_closure_equals_every_rotation(case):
    tuples, m = case
    literal = all(
        tuple((c - 1 + a) % m + 1 for c in p) in tuples
        for p in tuples
        for a in range(m)
    )
    assert _rotation_closed(tuples, m) == literal
