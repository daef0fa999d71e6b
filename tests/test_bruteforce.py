import dataclasses
import itertools
import re
import sys
from collections import Counter, deque

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
    simulate_circular,
    simulate_linear,
    verify,
    verify_sweep,
)
from parkseq.bruteforce import (
    DEFAULT_BUDGET,
    BijectionReport,
    _blocks,
    _fit,
    _groups,
    _parking_states,
    _tally,
    bijection_checks,
)
from parkseq.counting import _option_counts
from parkseq.divider import _plan, _walk
from conftest import (
    block_spots,
    counted,
    naive_free_spots,
    naive_park,
    naive_parking_set,
    naive_prefix_tally,
    naive_simulate,
    naive_tally,
    peak_bytes,
    refuse_package_bindings,
    unlimited_str_digits,
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


@pytest.mark.parametrize("flavor", ["linear", "circular"])
@pytest.mark.parametrize("comp", list(compositions(3, 6)), ids=str)
def test_reference_parking_set_is_the_per_tuple_filter(comp, flavor):
    # the prefix-built reference set against one simulation per tuple: no
    # extension of a failed prefix parks, and no parked tuple is missed
    sizes = SizeVector(comp)
    base = sizes.total if flavor == "linear" else sizes.circle_size
    parking = naive_parking_set(sizes, flavor)
    assert parking == {
        tup
        for tup in itertools.product(range(1, base + 1), repeat=sizes.n)
        if isinstance(naive_simulate(sizes, PrefSequence(tup, flavor), flavor), Parked)
    }
    assert len(parking) == naive_tally(sizes, flavor)[0]


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
                if not wrap and j - 1 + size > base:
                    assert blocks[j] == 0
                else:
                    assert spots == set(block_spots(j, size, base, wrap))


@pytest.mark.parametrize("wrap", [False, True])
def test_fit_mask_is_the_literal_rule(wrap):
    # every free mask of lots of 1..8 spots, every size that fits on the lot
    for base in range(1, 9):
        for size in range(1, base + 1):
            laps, shifts, room = _fit(size, base, wrap)
            lap = base if wrap else 0  # the bit offset of start 1
            for free in range(1 << base):
                fits = free * laps
                for shift in shifts:
                    fits &= fits >> shift
                fits &= room
                fitting = [
                    j for j in range(1, base + 1)
                    if (wrap or j - 1 + size <= base)
                    and all(free >> (s - 1) & 1 for s in block_spots(j, size, base, wrap))
                ]
                assert fits == sum(1 << lap + j - 1 for j in fitting)
                if not wrap:  # the highest free start whose block ends in the lot
                    assert (free & room).bit_length() == max(
                        (j for j in range(1, base - size + 2) if free >> (j - 1) & 1),
                        default=0,
                    )


@pytest.mark.parametrize("wrap", [False, True])
def test_groups_are_the_literal_step(wrap):
    # every occupancy mask of lots of 1..7 spots (on the circle, those that
    # leave a spot free) and every size: each preference c is parked with
    # naive_park, and consecutive c that park at one start are one group,
    # save that on the circle the c past the start, which wrap to it, begin
    # their own (with one free spot, 1..j and j+1..M are two groups)
    for base in range(1, 8):
        for size in range(1, base + 1):
            blocks = _blocks(size, base, wrap)
            for mask in range((1 << base) - wrap):
                taken = {s for s in range(1, base + 1) if mask >> (s - 1) & 1}
                groups = []
                for c in range(1, base + 1):
                    block = naive_park(taken, c, size, base, wrap)
                    if block[-1] > base or taken.intersection(block):
                        continue
                    j = block[0]
                    if groups and groups[-1][1:3] == [c - 1, j] and c - 1 != j:
                        groups[-1][1] = c
                    else:
                        after = mask | sum(1 << (s - 1) for s in block)
                        groups.append([c, c, j, after])
                assert _groups(mask, blocks, base, wrap) == list(map(tuple, groups))


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


# the tally's (block tables, fit masks) on the line and on the circle. Car
# 1 and each non-unit car before the last build a table; those non-unit
# cars and the last car read a fit mask (a unit car fits at every free
# spot). On the circle the trailing unit cars are not walked, so (2, 1) and
# (3, 1, 1, 1) tally one car there, and (2, 2, 1, 1) two.
TALLY_WORK = {
    (4,): ((0, 0), (0, 0)),
    (2, 1): ((1, 1), (0, 0)),
    (1, 2, 3): ((2, 2), (2, 2)),
    (2, 2, 1, 1): ((2, 2), (1, 1)),
    (3, 1, 1, 1): ((1, 1), (0, 0)),
}


@pytest.mark.parametrize("flavor", ["linear", "circular"])
@pytest.mark.parametrize("comp", list(TALLY_WORK), ids=str)
def test_tally_builds_no_block_table_for_the_last_car(monkeypatch, comp, flavor):
    # whatever the tally reads, the walk reads car n's fit mask once
    blocks = counted(monkeypatch, parkseq.bruteforce, "_blocks")
    fits = counted(monkeypatch, parkseq.bruteforce, "_fit")
    assert verify(SizeVector(comp), flavor).match
    assert (len(blocks), len(fits)) == TALLY_WORK[comp][flavor == "circular"]
    fits.clear()
    list(_parking_states(SizeVector(comp), flavor))
    assert len(fits) == (len(comp) >= 2)


class TestVerify:
    def test_one_car_circular_holds_no_block_table(self):
        # a block table of one car on M = 20001 spots took 51.9 MiB
        report, peak = peak_bytes(lambda: verify(SizeVector((20000,)), "circular"))
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

    def test_more_partitions_than_prefixes(self):
        sizes = SizeVector((1, 1))
        assert verify(sizes, partitions=10) == verify(sizes)
        # past one block per first coordinate a block would be empty, and
        # none is made: 10**8 partitions of base 3 cost what 3 do
        sizes = SizeVector((2, 1))
        report, peak = peak_bytes(lambda: verify(sizes, partitions=10**8))
        assert report == verify(sizes)
        assert peak < 2**20

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
        # sequences: 32,296 lookups for 262,144
        free = counted(monkeypatch, parkseq.bruteforce, "_groups",
                       lambda mask, blocks, base, wrap: base - mask.bit_count())
        yielded = sum(1 for _ in enumerate_parking_sequences(SizeVector((1,) * 7)))
        assert yielded == 8**6
        assert 0 < sum(free) < yielded


class TestSweep:
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

    @pytest.mark.parametrize("flavor, refused", [
        ("linear", (1,) * 9), ("circular", (1,) * 7 + (3,))])
    def test_whole_sweep_is_admitted_before_any_tally(self, monkeypatch, flavor, refused):
        # the compositions before the refused one are never tallied
        def tally(*args):
            raise AssertionError("tallied before the sweep was admitted")

        monkeypatch.setattr(parkseq.bruteforce, "_tally", tally)
        with pytest.raises(BudgetExceededError) as exc_info:
            verify_sweep(10, 10, flavor)
        assert (exc_info.value.sizes, exc_info.value.flavor) == (SizeVector(refused), flavor)

    @pytest.mark.parametrize("budget", [1, 2, 5, 10, 30, 100, 1000, 10**4])
    @pytest.mark.parametrize("flavor", ["linear", "circular"])
    def test_admission_names_the_first_refused_composition(self, monkeypatch, flavor, budget):
        # against a scan of every composition in sweep order: the first whose
        # tuple domain is past the budget is refused, or the sweep reaches
        # its first tally
        class Tallied(Exception):
            pass

        def tally(*args):
            raise Tallied

        monkeypatch.setattr(parkseq.bruteforce, "_tally", tally)
        for max_n in range(1, 6):
            for max_total in range(1, 13):
                refused = next((
                    comp for comp in compositions(max_n, max_total)
                    if (sum(comp) + (flavor == "circular")) ** len(comp) > budget
                ), None)
                with pytest.raises(BudgetExceededError if refused else Tallied) as exc_info:
                    verify_sweep(max_n, max_total, flavor, budget)
                if refused:
                    assert exc_info.value.sizes == SizeVector(refused)

    def test_admission_bisects_the_totals(self, monkeypatch):
        # 10**8 + 1 totals of one car, refused at the last: a scan that
        # checks each total in turn takes minutes
        checked = counted(monkeypatch, parkseq.bruteforce, "_check_budget")
        with pytest.raises(BudgetExceededError) as exc_info:
            verify_sweep(1, 10**8 + 1)
        assert exc_info.value.sizes == SizeVector((10**8 + 1,))
        assert len(checked) <= 60

    @pytest.mark.parametrize("max_n, max_total", [(0, 5), (-2, 4), (3, 0)])
    def test_empty_bounds_refused(self, max_n, max_total):
        # an empty sweep would report all-match after checking nothing
        with pytest.raises(ValueError, match="sweep bounds"):
            verify_sweep(max_n, max_total)


UNKNOWN_FLAVOR_CALLS = {
    "verify": lambda f: verify(SizeVector((2, 1)), f),
    # a domain over the budget: the flavor is refused before the budget
    "verify-over-budget": lambda f: verify(SizeVector((1,) * 30), f),
    "verify_sweep": lambda f: verify_sweep(1, 2, f),
    "enumerate": lambda f: next(enumerate_parking_sequences(SizeVector((2, 1)), f)),
    "tally": lambda f: _tally(SizeVector((2, 1)), f, 1, 3),
    # the run stream refuses at its first run
    "parking_states": lambda f: next(_parking_states(SizeVector((2, 1)), f)),
}


@pytest.mark.parametrize("flavor", ["Linear", "circ", ""])
@pytest.mark.parametrize("call", UNKNOWN_FLAVOR_CALLS.values(), ids=UNKNOWN_FLAVOR_CALLS)
def test_unknown_flavor_is_a_value_error(call, flavor):
    with pytest.raises(ValueError, match=re.escape(f"unknown flavor {flavor!r}")):
        call(flavor)


# The four calls the tuple budget gates, each as call(x, budget) on an
# instance x: an x past the given budget, with the size vector, flavor and
# lot the refusal names, and an x of one unit car.
BUDGET_GATES = {
    "verify": (
        lambda x, budget: verify(SizeVector(x), budget=budget),
        (5,) * 8, DEFAULT_BUDGET, (5,) * 8, "linear", 40, (1,)),
    "verify_sweep": (  # the first composition past the budget is named
        lambda x, budget: verify_sweep(*x, budget=budget),
        (3, 6), 100, (1, 1, 3), "linear", 5, (1, 1)),
    "enumerate_parking_sequences": (  # refused at the first next()
        lambda x, budget: next(
            enumerate_parking_sequences(SizeVector(x), budget=budget)),
        (2, 2), 10, (2, 2), "linear", 4, (1,)),
    "bijection_checks": (
        lambda x, budget: bijection_checks(SizeVector(x), budget=budget),
        (5, 5, 5), 10, (5, 5, 5), "circular", 16, (1,)),
}


@pytest.mark.parametrize("gate", BUDGET_GATES.values(), ids=BUDGET_GATES)
def test_budget_refusal(gate):
    call, x, budget, sizes, flavor, base, _ = gate
    required = base ** len(sizes)
    with pytest.raises(BudgetExceededError) as exc_info:
        call(x, budget)
    refusal = exc_info.value
    assert refusal.sizes == SizeVector(sizes)
    assert (refusal.flavor, refusal.required, refusal.budget) == \
        (flavor, required, budget)
    assert str(refusal) == (  # the required count in full
        f"enumeration of sizes={sizes} ({flavor}) needs {required} tuples, "
        f"budget is {budget}"
    )


@pytest.mark.parametrize("ys, text", [
    ((1,) * 3332 + (10,), None),  # 10,000 characters: in full
    ((1,) * 3332 + (100,), "<length 3333>"),  # 10,001
    ((10**9997,), "<length 1>"),  # "(1000…0,)": 10,001
    ((10**9996,), None),  # 10,000
], ids=["10000-chars", "10001-chars", "one-size-10001-chars", "one-size-10000-chars"])
@pytest.mark.parametrize("required, shown", [
    (10**10000 - 1, None),  # 10,000 digits: in full
    (10**10000, "<10001 digits>"),
    (2**100000, "<30103 digits>"),
], ids=["10000-digits", "10001-digits", "2**100000"])
def test_refusal_text_is_bounded(ys, text, required, shown):
    # a number is written in full up to 10,000 digits and the size vector up
    # to 10,000 characters; past that, the digit count and the length. The
    # refusal keeps the exact count
    refusal = BudgetExceededError(SizeVector(ys), "circular", required, 1)
    assert refusal.required == required
    with unlimited_str_digits():
        text, shown = text or str(ys), shown or str(required)
    assert str(refusal) == (
        f"enumeration of sizes={text} (circular) needs {shown} tuples, budget is 1"
    )


def test_refusal_text_bounds_the_budget():
    refusal = BudgetExceededError(SizeVector((1,)), "linear", 10**10001, 10**10000)
    assert str(refusal) == (
        "enumeration of sizes=(1,) (linear) needs <10002 digits> tuples, "
        "budget is <10001 digits>"
    )


@pytest.mark.parametrize("budget", [0, -1])
@pytest.mark.parametrize("gate", BUDGET_GATES.values(), ids=BUDGET_GATES)
def test_budget_below_one_is_a_value_error(gate, budget):
    # it admits no instance, not even a single unit car
    call, *_, unit = gate
    with pytest.raises(ValueError, match=f"budget must be >= 1, got {budget}"):
        call(unit, budget)


def test_compositions_generator():
    comps = list(compositions(2, 3))
    assert comps == [(1,), (2,), (3,), (1, 1), (1, 2), (2, 1)]
    # no composition has more parts than its total: the parts stop there
    assert list(compositions(10**18, 3)) == comps + [(1, 1, 1)]


def test_all_pass_reads_every_check():
    report = bijection_checks(SizeVector((2, 1)))
    bools = [f.name for f in dataclasses.fields(report) if f.type == "bool"]
    assert list(report.checks) == bools and len(bools) == 6
    assert report.all_pass
    for name in bools:
        failed = dataclasses.replace(report, **{name: False})
        assert failed.checks[name] is False
        assert not failed.all_pass


def test_sweep_reports_match_circular_identity():
    for report in verify_sweep(3, 5, "circular"):
        assert report.formula_value == count_circular(report.sizes)
        assert report.formula_value == \
            report.sizes.circle_size * count_linear(report.sizes)


def turn(spots: tuple[int, ...], a: int, m: int) -> tuple[int, ...]:
    """Spots of [1, m] turned clockwise by any integer a, spot by spot."""
    return tuple((x - 1 + a) % m + 1 for x in spots)


def decode_walks(sizes: SizeVector) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """The walk of each code tuple of cars 2..n, in code order, as the
    (preferences, starts) of the public decode with car 1 at spot 1."""
    anchored = itertools.takewhile(
        lambda opts: opts.anchor == 1, enumerate_option_sequences(sizes))
    decoded = (decode(sizes, opts) for opts in anchored)
    return [(prefs.prefs, layout.starts) for prefs, layout in decoded]


def reference_bijection_report(sizes, walks=None, circular=None) -> BijectionReport:
    """The bijection checks written out literally on the two inputs that
    bijection_checks reads: the walks of cars 2..n (by default the decoded
    ones) and the circular parking set (by default one simulation per
    tuple). Each walk is turned so that car 1 prefers spot c, for c = 1..M;
    a decode is valid when its preferences are in the set and park,
    simulated spot by spot, at its starts; the restriction is read off the
    free spots, and closure is tested under every rotation."""
    m = sizes.circle_size
    walks = decode_walks(sizes) if walks is None else walks
    circular = naive_parking_set(sizes, "circular") if circular is None else circular
    linear = naive_parking_set(sizes, "linear")

    def layout(prefs):
        return naive_simulate(sizes, PrefSequence(prefs, "circular"), "circular").layout

    decodes = [
        (turn(prefs, c - prefs[0], m), turn(starts, c - prefs[0], m))
        for prefs, starts in walks
        for c in range(1, m + 1)
    ]
    image = {prefs for prefs, _ in decodes}
    restricted = {p for p in circular if naive_free_spots(layout(p)) == {m}}
    return BijectionReport(
        sizes=sizes,
        option_sequences=len(decodes),
        distinct_decodes=len(image),
        circular_parking_sequences=len(circular),
        linear_parking_sequences=len(linear),
        decode_valid=all(
            prefs in circular and layout(prefs).starts == starts
            for prefs, starts in decodes
        ),
        decode_injective=len(image) == len(decodes),
        image_equals_circular_set=image == circular,
        image_count_matches_formula=len(image) == count_circular(sizes),
        restriction_matches_linear_set=restricted == linear,
        rotation_invariant=all(
            turn(p, a, m) in circular for p in circular for a in range(m)
        ),
    )


def faulted_checks(
    sizes, walks=None, counts=None, dropped=frozenset()
) -> BijectionReport:
    """bijection_checks(sizes) on faulted inputs: `walks` fed in code order
    through `_walk`, one in place of each walk it returns (one per code of
    car n it is handed), which must use them all up; `counts` in place of
    the option counts of the vector's `_plan`; the sequences in `dropped`
    left out of the circular walk, where a run that loses one is fed as
    one-sequence runs of the rest, while the linear walk is untouched."""
    fed = iter(walks or ())

    def parking_states(sizes, flavor):
        for run in _parking_states(sizes, flavor):
            head, lo, hi, starts, mask = run
            kept = [c for c in range(lo, hi + 1) if head + (c,) not in dropped]
            if flavor == "linear" or len(kept) > hi - lo:
                yield run
            else:
                yield from ((head, c, c, starts, mask) for c in kept)

    with pytest.MonkeyPatch.context() as monkeypatch:
        if walks is not None:  # bijection_checks reads no empty spot
            monkeypatch.setattr(parkseq.bruteforce, "_walk", lambda *args: [
                (*next(fed), None) for _ in _walk(*args)])
        if counts is not None:
            monkeypatch.setattr(parkseq.bruteforce, "_plan",
                                lambda sizes: (_plan(sizes)[0], counts))
        monkeypatch.setattr(parkseq.bruteforce, "_parking_states", parking_states)
        report = bijection_checks(sizes)
    assert next(fed, None) is None
    return report


@pytest.mark.parametrize("comp", list(compositions(4, 6)), ids=str)
def test_bijection_checks_match_reference(comp):
    sizes = SizeVector(comp)
    report = bijection_checks(sizes)
    assert report == reference_bijection_report(sizes)
    assert report.all_pass


@pytest.mark.parametrize("flavor", ["linear", "circular"])
@pytest.mark.parametrize("comp", list(compositions(4, 7)), ids=str)
def test_parking_states_yield_the_simulated_starts(comp, flavor):
    # each run's starts are decode's witness in bijection_checks, and its
    # mask the restriction's: every sequence of the run parks at the starts,
    # and the mask covers exactly the spots the parked cars cover
    sizes = SizeVector(comp)
    wrap = flavor == "circular"
    base = sizes.circle_size if wrap else sizes.total
    simulate = simulate_circular if wrap else simulate_linear
    for head, lo, hi, starts, mask in _parking_states(sizes, flavor):
        assert 1 <= lo <= hi <= base
        covered = {
            s for j, y in zip(starts, comp) for s in block_spots(j, y, base, wrap)
        }
        assert covered == {s for s in range(1, base + 1) if mask >> (s - 1) & 1}
        for c in range(lo, hi + 1):
            seq = PrefSequence(head + (c,), flavor)
            assert simulate(sizes, seq).layout.starts == starts


@pytest.mark.parametrize("flavor", ["linear", "circular"])
@pytest.mark.parametrize("comp", list(compositions(4, 7)) + [(2, 3, 1, 12)], ids=str)
def test_expanded_runs_are_the_literal_parking_set(comp, flavor):
    # the runs, expanded, list every parking sequence once, in
    # lexicographic order, with the starts the spot-by-spot reference parks
    # it at
    sizes = SizeVector(comp)
    expected = [
        (p, naive_simulate(sizes, PrefSequence(p, flavor), flavor).layout.starts)
        for p in sorted(naive_parking_set(sizes, flavor))
    ]
    assert [
        (head + (c,), starts)
        for head, lo, hi, starts, _ in _parking_states(sizes, flavor)
        for c in range(lo, hi + 1)
    ] == expected


def test_enumeration_holds_no_block_of_sequences():
    # the runs are expanded as they come: consuming the 7-car circular
    # stream through its first block of 8**6 sequences and into the second
    # peaks far below what one block of tuples takes
    sizes = SizeVector((1,) * 7)
    rows = count_linear(sizes)
    [last], peak = peak_bytes(lambda: deque(
        itertools.islice(enumerate_parking_sequences(sizes, "circular"), rows + 1),
        maxlen=1))
    assert last.prefs == (2,) + (1,) * 6
    assert peak < rows * sys.getsizeof(tuple(range(7))) / 100


@pytest.mark.parametrize("flavor", ["linear", "circular"])
@pytest.mark.parametrize("comp", [(2, 3, 1, 12), (1, 1, 1, 1, 10)], ids=str)
def test_walk_keeps_only_the_masks_the_last_car_parks_from(comp, flavor):
    # the long last car parks from few of the masks the other cars leave:
    # the whole walk peaked at 38 and 24 KiB on the circle, and keeping
    # every mask's runs at 472 and 168 KiB (tracemalloc, Python 3.11)
    sizes = SizeVector(comp)
    _, peak = peak_bytes(lambda: deque(_parking_states(sizes, flavor), maxlen=0))
    assert peak < 96 * 2**10


def test_walk_extends_no_prefix_the_last_car_cannot_park_from(monkeypatch):
    # on (2, 3, 1, 40) the long last car parks from few of the prefixes cars
    # 1..3 leave: extending every parked prefix read the free spots 1,943
    # times for the 384 sequences, and dropping each prefix that leaves car
    # n no fitting start 44 times (counted by the walk's `_groups` calls)
    sizes = SizeVector((2, 3, 1, 40))
    calls = counted(monkeypatch, parkseq.bruteforce, "_groups")
    runs = list(_parking_states(sizes, "linear"))
    assert sum(hi - lo + 1 for _, lo, hi, _, _ in runs) == count_linear(sizes) == 384
    assert len(calls) <= 100


@pytest.mark.parametrize("ys, bound", [((1, 1, 1, 1, 1, 2), 2002), ((3, 1, 1, 1, 2), 345)])
def test_walk_prunes_for_a_last_car_of_size_two(monkeypatch, ys, bound):
    # the prune holds for every last car longer than one spot: keeping the
    # prefixes that leave a car of size 2 no fitting start takes 2,430 and
    # 383 `_groups` calls on these inputs
    sizes = SizeVector(ys)
    calls = counted(monkeypatch, parkseq.bruteforce, "_groups")
    runs = list(_parking_states(sizes, "linear"))
    assert sum(hi - lo + 1 for _, lo, hi, _, _ in runs) == count_linear(sizes)
    assert len(calls) <= bound


# Each fault of the table below takes the size vector, the decoded walks and
# the circular parking set, and gives the faulted inputs of one or more runs
# of faulted_checks. The walk faults change the first walk, where cars 2..n
# are all on code 0, so every block decodes it once.


def moved_start(sizes, walks, circular):
    """Car 1 starts one spot past the spot it parks at."""
    (prefs, (start, *starts)), *rest = walks
    return [{"walks": [(prefs, (start % sizes.circle_size + 1, *starts)), *rest]}]


def stray_preferences(sizes, walks, circular):
    """The least tuple that does not park; no turn of it parks either."""
    domain = itertools.product(range(1, sizes.circle_size + 1), repeat=sizes.n)
    (_, starts), *rest = walks
    return [{"walks": [(min(set(domain) - circular), starts), *rest]}]


def second_walk_twice(sizes, walks, circular):
    """The second walk (the last car on code 1) in place of the first, so
    each block decodes one pair twice; each pair decoded still parks."""
    return [{"walks": [walks[1], *walks[1:]]}]


def car_1_prefers_2(sizes, walks, circular):
    """Car 1 prefers spot 2 but still parks at spot 1, so each of its
    decodes has car 1 parked one spot before its preference."""
    (prefs, starts), *rest = walks
    return [{"walks": [((2,) + prefs[1:], starts), *rest]}]


def last_code_dropped(sizes, walks, circular):
    """The last car loses its last code, so the walks on it are never
    decoded."""
    *counts, k = _option_counts(sizes)
    return [{"counts": [*counts, k - 1],
             "walks": [w for i, w in enumerate(walks) if i % k < k - 1]}]


def each_walk_turned(sizes, walks, circular):
    """Walk i turned whole, preferences and starts, by i mod M: it decodes
    to the same M sequences, so nothing changes."""
    m = sizes.circle_size
    return [{"walks": [(turn(prefs, i, m), turn(starts, i, m))
                       for i, (prefs, starts) in enumerate(walks)]}]


def each_rotation_of_the_first(sizes, walks, circular):
    """Block 1's first sequence, then each of its turns, one in each later
    block, dropped on its own."""
    m = sizes.circle_size
    return [{"dropped": {turn(min(circular), a, m)}} for a in range(m)]


def last_sequence(sizes, walks, circular):
    """The last sequence the circular walk yields, in block M."""
    assert max(circular)[0] == sizes.circle_size
    return [{"dropped": {max(circular)}}]


def each_block(sizes, walks, circular):
    """Each block of car 1's preference dropped whole, on its own; the
    decodes that land in it then find nothing."""
    m = sizes.circle_size
    blocks = [{p for p in circular if p[0] == c} for c in range(1, m + 1)]
    assert all(len(block) == count_linear(sizes) for block in blocks)
    return [{"dropped": block} for block in blocks]


def whole_set(sizes, walks, circular):
    """Every circular sequence dropped: the empty set is closed."""
    return [{"dropped": circular}]


def each_one_car_sequence(sizes, walks, circular):
    """One car parks from every spot; each such sequence dropped on its own."""
    assert circular == {(c,) for c in range(1, sizes.circle_size + 1)}
    return [{"dropped": {p}} for p in circular]


# distinct decodes with car 1 preferring spot 2 in the first walk: with two
# or more cars, each of its M decodes repeats another walk's decode
PREFER_2_DISTINCT = {(1,): 2, (3,): 4, (1, 2): 8, (2, 2): 15, (2, 1, 2): 144,
                     (1, 2, 1): 95, (3, 1, 2): 245}
WITNESS_CASES = [(1, 2), (2, 2), (2, 1, 2), (1, 2, 1), (3, 1, 2)]
ROTATION_CASES = [(1,), (2, 1), (1, 2, 1), (3, 1, 2)]

# fault, the size vectors it runs on, the checks it must turn False, and the
# report fields it pins on a size vector s
FAULTS = [
    (moved_start, WITNESS_CASES, {"decode_valid"},
     lambda s: {"image_equals_circular_set": True}),
    (stray_preferences, WITNESS_CASES, {"decode_valid", "image_equals_circular_set"},
     lambda s: {}),
    (second_walk_twice, WITNESS_CASES,
     {"decode_injective", "image_equals_circular_set", "image_count_matches_formula"},
     lambda s: {"option_sequences": count_circular(s),
                "distinct_decodes": count_circular(s) - s.circle_size,
                "decode_valid": True, "rotation_invariant": True}),
    (car_1_prefers_2, list(PREFER_2_DISTINCT), {"decode_valid"},
     lambda s: {"option_sequences": count_circular(s),
                "distinct_decodes": PREFER_2_DISTINCT[s.sizes],
                "circular_parking_sequences": count_circular(s),
                "linear_parking_sequences": count_linear(s),
                "decode_injective": s.n == 1,
                "image_equals_circular_set": s.n == 1,
                "image_count_matches_formula": s.n == 1,
                "restriction_matches_linear_set": True, "rotation_invariant": True}),
    (last_code_dropped, WITNESS_CASES,
     {"image_equals_circular_set", "image_count_matches_formula"},
     lambda s: dict.fromkeys(
         ("option_sequences", "distinct_decodes"),
         count_circular(s) - count_circular(s) // _option_counts(s)[-1],
     ) | {"decode_injective": True, "decode_valid": True}),
    (each_walk_turned, WITNESS_CASES, set(),
     lambda s: vars(bijection_checks(s))),
    (each_rotation_of_the_first, [(1,), (2, 1), (2, 2), (1, 2, 1), (3, 1, 2)],
     {"rotation_invariant", "image_equals_circular_set"},
     lambda s: {"circular_parking_sequences": count_circular(s) - 1}),
    (last_sequence, ROTATION_CASES, {"rotation_invariant"},
     lambda s: {"circular_parking_sequences": count_circular(s) - 1}),
    (each_block, ROTATION_CASES,
     {"rotation_invariant", "decode_valid", "image_equals_circular_set"},
     lambda s: {"circular_parking_sequences": count_circular(s) - count_linear(s)}),
    (whole_set, [(1,), (2,), (5,)], {"decode_valid", "restriction_matches_linear_set"},
     lambda s: {"circular_parking_sequences": 0, "rotation_invariant": True}),
    (each_one_car_sequence, [(1,), (2,), (4,)], {"rotation_invariant"},
     lambda s: {"circular_parking_sequences": s.sizes[0]}),
]


@pytest.mark.parametrize("fault, comp, flips, pins", [
    pytest.param(fault, comp, flips, pins, id=f"{fault.__name__}-{comp}")
    for fault, comps, flips, pins in FAULTS
    for comp in comps
])
def test_bijection_checks_see_each_fault(fault, comp, flips, pins):
    # each faulted run reports what the literal reference reports on the
    # same inputs, turns the row's checks False and keeps its pinned fields
    sizes = SizeVector(comp)
    walks, circular = decode_walks(sizes), naive_parking_set(sizes, "circular")
    for inputs in fault(sizes, walks, circular):
        report = faulted_checks(sizes, **inputs)
        assert report == reference_bijection_report(
            sizes, inputs.get("walks", walks), circular - inputs.get("dropped", set()))
        assert {name for name in flips if report.checks[name]} == set()
        pinned = pins(sizes)
        assert {name: getattr(report, name) for name in pinned} == pinned


@st.composite
def dropped_sequences(draw):
    # whole rotation orbits with some single sequences dropped, so that
    # closed and unclosed sets are both drawn often
    sizes = SizeVector(draw(st.sampled_from(list(compositions(3, 4)))))
    m = sizes.circle_size
    parking = sorted(naive_parking_set(sizes, "circular"))
    seeds = draw(st.lists(st.sampled_from(parking), max_size=3))
    singles = draw(st.lists(st.sampled_from(parking), max_size=2))
    return sizes, {turn(p, a, m) for p in seeds for a in range(m)} | set(singles)


@given(dropped_sequences())
def test_one_step_rotation_closure_equals_every_rotation(case):
    # the block-against-block-1 check reads as closure under every turn:
    # the drawn drops are the last row of the fault table
    sizes, dropped = case
    kept = naive_parking_set(sizes, "circular") - dropped
    assert faulted_checks(sizes, dropped=dropped) == \
        reference_bijection_report(sizes, circular=kept)


@pytest.mark.parametrize(
    "comp", [(1,), (2, 1), (1, 2, 1), (3, 1, 2), (2, 2, 1), (254,), (255,)], ids=str
)
def test_bijection_checks_walk_and_turn_counts(monkeypatch, comp):
    # the work done, counted: the walk that places cars 2..n runs once per
    # code tuple of cars 2..n-1, handed car n's whole range (count_linear,
    # by the product formula, over car n's option count; once for one car);
    # each of the M blocks turns the 2n columns of all the walks
    # with one turn, not one per decode, as bytes below M = 256 and as a
    # tuple from there ((254,) and (255,) are one on each side). The image
    # in block 1 is block 1, so the rotation check reads the turned decodes
    # and turns nothing more
    sizes = SizeVector(comp)
    m, n, rows = sizes.circle_size, sizes.n, count_linear(sizes)
    walks = counted(monkeypatch, parkseq.bruteforce, "_walk")
    turned = counted(monkeypatch, parkseq.bruteforce, "_turn",
                     lambda spots, a, m: (type(spots), len(spots)))
    report = bijection_checks(sizes)
    assert len(walks) == (rows // _option_counts(sizes)[-1] if n > 1 else 1)
    assert Counter(turned) == {(bytes if m < 256 else tuple, 2 * n * rows): m}
    assert report.option_sequences == count_circular(sizes)
    assert report == reference_bijection_report(sizes)


@pytest.mark.parametrize("comp", [(2, 1), (1, 2, 1), (3, 1, 2), (2, 2, 1)], ids=str)
def test_rotation_check_turns_block_1_when_its_image_differs(monkeypatch, comp):
    # the first walk has car 1 prefer spot 2, so the image in block 1 is not
    # block 1 and cannot stand for its turns: the rotation check turns the n
    # preference columns of block 1 once for each block but block 1, and the
    # untouched circular set still reads closed. The faulted walk is turned
    # once, as it is collected, so that car 1 prefers spot 1
    sizes = SizeVector(comp)
    m, n, rows = sizes.circle_size, sizes.n, count_linear(sizes)
    turned = counted(monkeypatch, parkseq.bruteforce, "_turn",
                     lambda spots, a, m: len(spots))
    [inputs] = car_1_prefers_2(sizes, decode_walks(sizes), None)
    report = faulted_checks(sizes, **inputs)
    # the faulted row once, then every walk's columns once per block
    walks = Counter({2 * n: 1, 2 * n * rows: m})
    assert Counter(turned) == walks + Counter({n * rows: m - 1})
    assert report == reference_bijection_report(sizes, inputs["walks"])
    assert not report.image_equals_circular_set
    assert report.rotation_invariant


@pytest.mark.parametrize("comp", [(1,), (2, 1), (2, 2), (1, 2, 1), (3, 1, 2)], ids=str)
def test_bijection_checks_never_simulate(no_simulators, comp):
    sizes = SizeVector(comp)
    assert bijection_checks(sizes) == reference_bijection_report(sizes)


@pytest.mark.parametrize(
    "comp, whole_set_mib", [((248, 1), 11.7), ((498, 1), 56.6)], ids=str
)
def test_bijection_checks_hold_one_block_at_a_time(comp, whole_set_mib):
    # holding the whole circular set and image peaked at 11.7 and 56.6 MiB
    # (tracemalloc, Python 3.11); one block at a time must take a tenth
    report, peak = peak_bytes(lambda: bijection_checks(SizeVector(comp)))
    assert report.all_pass
    assert peak <= whole_set_mib / 10 * 2**20


@pytest.mark.parametrize("comp", [(3, 2, 1, 1, 1), (2, 2, 2, 2, 2)], ids=str)
def test_bijection_checks_hold_under_500_bytes_per_linear_sequence(comp):
    # five cars, where the walks are many: one buffer of walk columns and a
    # count of block 1's image, not walks grouped by car 1's preference and
    # the image set held through every block. Holding the spot-M-empty and
    # linear sets as well peaked at 1,072-1,111 B per linear sequence, the
    # grouped walks at 551-619 B and the one buffer at 385-414 B
    # (tracemalloc, Python 3.10-3.13)
    sizes = SizeVector(comp)
    report, peak = peak_bytes(lambda: bijection_checks(sizes))
    assert report.all_pass
    assert peak <= 500 * count_linear(sizes)

