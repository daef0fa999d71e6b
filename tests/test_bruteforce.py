import dataclasses
import itertools
import re
import tracemalloc
from collections import Counter

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
    _tally,
    bijection_checks,
)
from parkseq.circular import _turn
from parkseq.counting import _option_counts
from parkseq.divider import _walk
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


# the fits mask of the tally: sizes whose doubling shifts are not powers of
# two, and blocks that wrap past M on the circle, over edge ranges of the
# first coordinate, the empty one (3, 2) among them
@pytest.mark.parametrize("flavor", ["linear", "circular"])
@pytest.mark.parametrize(
    "comp", [(5, 1), (1, 5), (3, 3), (6, 1, 1), (1, 1, 6), (3, 2, 3), (7,)], ids=str
)
def test_tally_fits_mask_matches_prefix_reference(comp, flavor):
    sizes = SizeVector(comp)
    base = sizes.total if flavor == "linear" else sizes.circle_size
    for lo, hi in ((1, base), (1, 1), (base, base), (2, base - 1), (3, 2)):
        assert _tally(sizes, flavor, lo, hi) == \
            naive_prefix_tally(sizes, flavor, lo, hi)


@pytest.mark.parametrize("flavor", ["linear", "circular"])
@pytest.mark.parametrize("comp", [(4,), (2, 1), (1, 2, 3), (2, 2, 1, 1)], ids=str)
def test_tally_builds_no_block_table_for_the_last_car(monkeypatch, comp, flavor):
    # the last car's reach is summed, so n cars build n - 1 tables
    blocks = parkseq.bruteforce._blocks
    calls = 0

    def counting(*args):
        nonlocal calls
        calls += 1
        return blocks(*args)

    monkeypatch.setattr(parkseq.bruteforce, "_blocks", counting)
    assert verify(SizeVector(comp), flavor).match
    assert calls == len(comp) - 1


class TestVerify:
    def test_one_car_circular_holds_no_block_table(self):
        # a block table of one car on M = 20001 spots took 51.9 MiB
        tracemalloc.start()
        try:
            report = verify(SizeVector((20000,)), "circular")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (report.parked, report.collisions, report.past_end) == (20001, 0, 0)
        assert report.match
        assert peak < 2**20

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
        # past one block per first coordinate a block would be empty, and
        # none is made: 10**8 partitions of base 3 cost what 3 do
        sizes = SizeVector((2, 1))
        tracemalloc.start()
        try:
            report = verify(sizes, partitions=10**8)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report == verify(sizes)
        assert peak < 2**20

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


def report_with_first_walk(monkeypatch, sizes, corrupt):
    """bijection_checks with the first (prefs, starts, e) that `_walk`
    returns (cars 2..n all on code 0) replaced by corrupt(prefix, rest),
    which may call `_walk` itself; every anchor turns that one pair."""
    calls = 0

    def patched(*args):
        nonlocal calls
        calls += 1
        return corrupt(*args) if calls == 1 else _walk(*args)

    monkeypatch.setattr(parkseq.bruteforce, "_walk", patched)
    report = bijection_checks(sizes)
    assert calls == count_linear(sizes)
    return report


@pytest.mark.parametrize("comp", WITNESS_CASES, ids=str)
def test_decode_witness_sees_a_moved_start(monkeypatch, comp):
    sizes = SizeVector(comp)
    m = sizes.circle_size

    def move_first_start(*args):
        prefs, starts, e = _walk(*args)
        return prefs, (starts[0] % m + 1,) + starts[1:], e

    report = report_with_first_walk(monkeypatch, sizes, move_first_start)
    assert not report.decode_valid
    assert report.image_equals_circular_set  # the preferences are untouched


@pytest.mark.parametrize("comp", WITNESS_CASES, ids=str)
def test_decode_witness_sees_preferences_that_do_not_park(monkeypatch, comp):
    # no turn of a tuple that does not park parks, so all M decodes of the
    # stray walk are stray
    sizes = SizeVector(comp)
    domain = itertools.product(range(1, sizes.circle_size + 1), repeat=sizes.n)
    stray = min(set(domain) - naive_parking_set(sizes, "circular"))

    def stray_prefs(*args):
        _, starts, e = _walk(*args)
        return stray, starts, e

    report = report_with_first_walk(monkeypatch, sizes, stray_prefs)
    assert not report.decode_valid
    assert not report.image_equals_circular_set


@pytest.mark.parametrize("comp", WITNESS_CASES, ids=str)
def test_dropped_option_sequence_fails_a_count_check(monkeypatch, comp):
    # the first walk repeats the second (the last car on code 1), so every
    # anchor decodes one pair twice and the M option sequences of the first
    # walk never reach the image; each pair decoded still parks
    sizes = SizeVector(comp)
    m = sizes.circle_size

    def second_walk(prefix, rest):
        return _walk(prefix, rest[:-1] + (1,))

    report = report_with_first_walk(monkeypatch, sizes, second_walk)
    assert report.option_sequences == count_circular(sizes)
    assert report.distinct_decodes == count_circular(sizes) - m
    # each count check must trip on its own: M·∏ option sequences were
    # decoded, but M fewer distinct pairs came out
    assert not report.image_count_matches_formula
    assert not report.decode_injective
    assert not report.image_equals_circular_set
    assert report.decode_valid
    assert report.rotation_invariant


@pytest.mark.parametrize("comp", WITNESS_CASES, ids=str)
def test_dropped_code_fails_the_formula_count(monkeypatch, comp):
    # the last car loses its last code, so its option sequences are never
    # decoded: the decode stays injective and valid, and only the image's
    # count against the formula (and the set itself) can see the loss
    sizes = SizeVector(comp)
    counts = _option_counts(sizes)
    monkeypatch.setattr(
        parkseq.bruteforce, "_option_counts",
        lambda sizes: counts[:-1] + [counts[-1] - 1],
    )
    report = bijection_checks(sizes)
    kept = count_circular(sizes) - count_circular(sizes) // counts[-1]
    assert report.option_sequences == report.distinct_decodes == kept
    assert report.decode_injective
    assert report.decode_valid
    assert not report.image_count_matches_formula
    assert not report.image_equals_circular_set


@pytest.mark.parametrize(
    "comp", [(1,), (2, 1), (1, 2, 1), (3, 1, 2), (2, 2, 1)], ids=str
)
def test_bijection_checks_run_phase_1_once_per_m_anchors(monkeypatch, comp):
    # the work done, counted: the walk that places cars 2..n runs once per
    # code tuple of cars 2..n (count_linear of them, by the product
    # formula); each of the M blocks turns the 2n columns of all the walks
    # with one turn, not one per decode, and each block but block 1 turns
    # the n preference columns of block 1 once for the rotation check
    sizes = SizeVector(comp)
    m, n, rows = sizes.circle_size, sizes.n, count_linear(sizes)
    walks = 0
    turned = Counter()

    def walk(*args):
        nonlocal walks
        walks += 1
        return _walk(*args)

    def turn(spots, a, m):
        turned[len(spots)] += 1
        return _turn(spots, a, m)

    monkeypatch.setattr(parkseq.bruteforce, "_walk", walk)
    monkeypatch.setattr(parkseq.bruteforce, "_turn", turn)
    report = bijection_checks(sizes)
    assert walks == rows
    assert turned == {2 * n * rows: m, n * rows: m - 1}
    assert report.option_sequences == count_circular(sizes)
    assert report == reference_bijection_report(sizes)


@pytest.mark.parametrize("comp", [(1,), (2, 1), (2, 2), (1, 2, 1), (3, 1, 2)], ids=str)
def test_bijection_checks_never_simulate(no_simulators, comp):
    sizes = SizeVector(comp)
    assert bijection_checks(sizes) == reference_bijection_report(sizes)


def report_without(monkeypatch, sizes, dropped):
    """bijection_checks with the circular parking sequences in `dropped`
    left out of the circular walk; the linear walk is untouched."""
    def walk_without(sizes, flavor):
        states = _parking_states(sizes, flavor)
        if flavor == "linear":
            return states
        return (state for state in states if state[0] not in dropped)

    monkeypatch.setattr(parkseq.bruteforce, "_parking_states", walk_without)
    return bijection_checks(sizes)


@pytest.mark.parametrize("comp", [(1,), (2, 1), (2, 2), (1, 2, 1), (3, 1, 2)])
def test_rotation_closure_sees_a_missing_rotation(monkeypatch, comp):
    # block 1's first sequence, then each of its turns, one in each later
    # block, is dropped on its own
    sizes = SizeVector(comp)
    m = sizes.circle_size
    first = min(naive_parking_set(sizes, "circular"))
    assert report_without(monkeypatch, sizes, set()).rotation_invariant
    for a in range(m):
        rotated = rotate(sizes, PrefSequence(first, "circular"), a).prefs
        report = report_without(monkeypatch, sizes, {rotated})
        assert not report.rotation_invariant
        assert report.circular_parking_sequences == count_circular(sizes) - 1
        assert not report.image_equals_circular_set


@pytest.mark.parametrize("comp", [(1,), (2, 1), (1, 2, 1), (3, 1, 2)], ids=str)
def test_rotation_closure_of_the_circular_dict(monkeypatch, comp):
    # the last sequence the circular walk yields, in block M, is dropped
    sizes = SizeVector(comp)
    last = max(naive_parking_set(sizes, "circular"))
    assert last[0] == sizes.circle_size
    report = report_without(monkeypatch, sizes, {last})
    assert not report.rotation_invariant
    assert report.circular_parking_sequences == count_circular(sizes) - 1


@pytest.mark.parametrize("comp", [(1,), (2, 1), (1, 2, 1), (3, 1, 2)], ids=str)
def test_rotation_closure_sees_a_missing_block(monkeypatch, comp):
    # each block of car 1's preference is dropped whole on its own; the
    # decodes that land in it then find nothing
    sizes = SizeVector(comp)
    parking = naive_parking_set(sizes, "circular")
    for c in range(1, sizes.circle_size + 1):
        block = {p for p in parking if p[0] == c}
        assert len(block) == count_linear(sizes)
        report = report_without(monkeypatch, sizes, block)
        assert not report.rotation_invariant
        assert report.circular_parking_sequences == len(parking) - len(block)
        assert not report.decode_valid
        assert not report.image_equals_circular_set


@pytest.mark.parametrize("size", [1, 2, 5])
def test_rotation_closure_of_an_empty_collection(monkeypatch, size):
    # every circular sequence dropped: the empty set is closed
    sizes = SizeVector((size,))
    report = report_without(monkeypatch, sizes, naive_parking_set(sizes, "circular"))
    assert report.circular_parking_sequences == 0
    assert report.rotation_invariant
    assert not report.decode_valid
    assert not report.restriction_matches_linear_set


def test_rotation_closure_with_one_coordinate(monkeypatch):
    for size in (1, 2, 4):
        sizes = SizeVector((size,))
        parking = naive_parking_set(sizes, "circular")
        assert parking == {(c,) for c in range(1, size + 2)}
        assert report_without(monkeypatch, sizes, set()).rotation_invariant
        for p in parking:
            report = report_without(monkeypatch, sizes, {p})
            assert not report.rotation_invariant
            assert report.circular_parking_sequences == size


@st.composite
def dropped_sequences(draw):
    # whole rotation orbits with some single sequences dropped, so that
    # closed and unclosed sets are both drawn often
    sizes = SizeVector(draw(st.sampled_from(list(compositions(3, 4)))))
    m = sizes.circle_size
    parking = sorted(naive_parking_set(sizes, "circular"))
    seeds = draw(st.lists(st.sampled_from(parking), max_size=3))
    singles = draw(st.lists(st.sampled_from(parking), max_size=2))
    return sizes, {_turn(p, a, m) for p in seeds for a in range(m)} | set(singles)


@given(dropped_sequences())
def test_one_step_rotation_closure_equals_every_rotation(case):
    # the block-against-block-1 check reads as closure under every turn
    sizes, dropped = case
    m = sizes.circle_size
    kept = naive_parking_set(sizes, "circular") - dropped
    literal = all(
        tuple((c - 1 + a) % m + 1 for c in p) in kept
        for p in kept
        for a in range(m)
    )
    with pytest.MonkeyPatch.context() as monkeypatch:
        report = report_without(monkeypatch, sizes, dropped)
    assert report.rotation_invariant == literal
    assert report.circular_parking_sequences == len(kept)


@pytest.mark.parametrize(
    "comp, distinct",
    [((1,), 2), ((3,), 4), ((1, 2), 8), ((2, 2), 15), ((2, 1, 2), 144),
     ((1, 2, 1), 95), ((3, 1, 2), 245)],
    ids=str,
)
def test_decode_witness_sees_car_1_preferring_2(monkeypatch, comp, distinct):
    # the first walk has car 1 prefer spot 2 but still park at spot 1, so
    # its turn by c - 2 decodes into block c with car 1 parked one spot
    # before its preference: none of its M decodes is valid, and with two
    # or more cars each of them repeats another walk's decode here
    sizes = SizeVector(comp)

    def prefer_2(*args):
        prefs, starts, e = _walk(*args)
        return (2,) + prefs[1:], starts, e

    report = report_with_first_walk(monkeypatch, sizes, prefer_2)
    one_car = sizes.n == 1
    assert report.option_sequences == count_circular(sizes)
    assert report.distinct_decodes == distinct
    assert report.circular_parking_sequences == count_circular(sizes)
    assert report.linear_parking_sequences == count_linear(sizes)
    assert not report.decode_valid
    assert report.decode_injective is one_car
    assert report.image_equals_circular_set is one_car
    assert report.image_count_matches_formula is one_car
    assert report.restriction_matches_linear_set
    assert report.rotation_invariant


@pytest.mark.parametrize(
    "comp, whole_set_mib", [((248, 1), 11.7), ((498, 1), 56.6)], ids=str
)
def test_bijection_checks_hold_one_block_at_a_time(comp, whole_set_mib):
    # holding the whole circular set and image peaked at 11.7 and 56.6 MiB
    # (tracemalloc, Python 3.11); one block at a time must take a tenth
    tracemalloc.start()
    try:
        report = bijection_checks(SizeVector(comp))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.all_pass
    assert peak <= whole_set_mib / 10 * 2**20
