"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. Everything here is exact equality except the sampler's statistical
check, which uses a fixed seed and the chi-square 0.999 quantile.
"""

import itertools
import math
from collections import Counter
from random import Random

from parkseq import (
    Collision,
    Parked,
    PastEnd,
    PrefSequence,
    SizeVector,
    compositions,
    count_classical,
    count_circular,
    decode,
    empty_spot,
    enumerate_option_sequences,
    is_classical_parking_function,
    is_parking_sequence,
    option_count,
    restrict_to_linear,
    rotate,
    sample_linear,
    simulate_circular,
    simulate_linear,
    verify,
    verify_sweep,
    wrap_spot,
)
from conftest import naive_parking_set


def report(criterion: int, text: str) -> None:
    print(f"PASS criterion {criterion}: {text}")


def test_criterion_1_golden_examples():
    r = simulate_linear(SizeVector((2, 2, 1)), PrefSequence((2, 3, 1)))
    assert isinstance(r, Parked)
    assert r.layout.block(3) == (1,)
    assert r.layout.block(1) == (2, 3)
    assert r.layout.block(2) == (4, 5)

    r = simulate_linear(SizeVector((2, 2, 2)), PrefSequence((3, 2, 1)))
    assert isinstance(r, Collision) and r.car == 2

    r = simulate_linear(SizeVector((2, 2, 2)), PrefSequence((2, 5, 5)))
    assert r == PastEnd(car=3)

    assert is_parking_sequence(SizeVector((2, 2)), PrefSequence((1, 2)))
    assert not is_parking_sequence(SizeVector((2, 2)), PrefSequence((2, 1)))
    report(1, "all four golden scenarios reproduce exactly")


def test_criterion_2_linear_formula_vs_oracle():
    reports = verify_sweep(5, 12)
    mismatches = [r for r in reports if not r.match]
    assert mismatches == []
    report(2, f"product formula matches brute force on all "
              f"{len(reports)} compositions with n <= 5, T <= 12")


def test_criterion_3_classical_specialization():
    for n in range(1, 8):
        r = verify(SizeVector((1,) * n))
        assert r.parked == count_classical(n) == (n + 1) ** (n - 1)
        if n == 7:
            assert r.parked == 262144
            assert r.total_tuples == 823543
    report(3, "unit-size counts equal (n+1)^(n-1) for n = 1..7 "
              "(n=7: 262144 of 823543 tuples)")


def test_criterion_4_circular_formula_vs_oracle():
    reports = verify_sweep(4, 10, "circular")
    assert all(r.match for r in reports)
    assert all(r.past_end == 0 for r in reports)
    assert all(
        r.formula_value == r.sizes.circle_size * verify(r.sizes).parked
        for r in reports
        if r.sizes.n <= 3  # spot-check the M * f identity against brute force
    )
    report(4, f"circular count equals M * f on all {len(reports)} "
              f"compositions with n <= 4, T <= 10; no past-end events")


def test_criterion_5_rotation_invariance():
    checked = 0
    for comp in compositions(4, 8):
        sizes = SizeVector(comp)
        m = sizes.circle_size
        parking = naive_parking_set(sizes, "circular")
        # the simulation is a function of the preferences, so each sequence
        # is simulated once and a rotation reads its own sequence's entry
        empty = {}
        for tup in parking:
            prefs = PrefSequence(tup, "circular")
            empty[tup] = empty_spot(simulate_circular(sizes, prefs).layout)
        for tup, base_empty in empty.items():
            prefs = PrefSequence(tup, "circular")
            for a in range(m):
                rotated = rotate(sizes, prefs, a)
                assert rotated.prefs in parking
                assert empty[rotated.prefs] == wrap_spot(base_empty + a, m)
        checked += 1
    report(5, f"rotation closure and empty-spot equivariance hold on all "
              f"{checked} compositions with n <= 4, T <= 8")


def test_criterion_6_restriction_bijection():
    for comp in compositions(4, 8):
        sizes = SizeVector(comp)
        m = sizes.circle_size
        restricted = set()
        for tup in naive_parking_set(sizes, "circular"):
            prefs = PrefSequence(tup, "circular")
            lin = restrict_to_linear(sizes, prefs)
            parked = simulate_circular(sizes, prefs)
            if empty_spot(parked.layout) == m:
                assert lin is not None
                restricted.add(lin.prefs)
            else:
                assert lin is None
        assert restricted == naive_parking_set(sizes, "linear")
    report(6, "circular sequences with spot M empty coincide tuple-for-tuple "
              "with linear parking sequences (n <= 4, T <= 8)")


def test_criterion_7_decode_bijection():
    for comp in compositions(4, 8):
        sizes = SizeVector(comp)
        image = set()
        total = 0
        for opts in enumerate_option_sequences(sizes):
            prefs, layout = decode(sizes, opts)
            result = simulate_circular(sizes, prefs)
            assert isinstance(result, Parked) and result.layout == layout
            image.add(prefs.prefs)
            total += 1
        assert len(image) == total == count_circular(sizes)
        assert image == naive_parking_set(sizes, "circular")

    worked = SizeVector((2, 5, 1, 3, 2))
    assert option_count(worked, 4) == 11
    assert option_count(worked, 1) == 14
    report(7, "decoder is injective and onto the circular parking set "
              "(n <= 4, T <= 8); worked option counts are 11 and 14")


# The 0.999 quantile of the chi-square law with 3 degrees of freedom, whose
# CDF has the closed form F(x) = erf(sqrt(x/2)) - sqrt(2x/pi) * exp(-x/2).
CHI2_3DF_Q999 = 16.26623619623813


def chi2_3df_cdf(x: float) -> float:
    return math.erf(math.sqrt(x / 2)) - math.sqrt(2 * x / math.pi) * math.exp(-x / 2)


def test_criterion_8_sampler_exactness():
    assert abs(chi2_3df_cdf(CHI2_3DF_Q999) - 0.999) < 1e-12

    sizes = SizeVector((2, 2))
    draws = 10_000
    expected = {(1, 1), (1, 2), (1, 3), (3, 1)}

    rng = Random(20260823)
    counts = Counter(sample_linear(sizes, rng).prefs for _ in range(draws))
    assert set(counts) <= expected
    for tup in expected:
        freq = counts[tup] / draws
        assert abs(freq - 0.25) <= 0.02
        assert is_parking_sequence(sizes, PrefSequence(tup))

    statistic = sum(
        (counts[tup] - draws / 4) ** 2 / (draws / 4) for tup in expected
    )
    assert statistic < CHI2_3DF_Q999

    replay_rng = Random(20260823)
    replay = Counter(
        sample_linear(sizes, replay_rng).prefs for _ in range(draws)
    )
    assert replay == counts
    report(8, f"10^4 seeded draws uniform over 4 sequences "
              f"(chi-square {statistic:.2f} < {CHI2_3DF_Q999:.2f}); "
              f"stream reproducible")


def test_criterion_9_classical_equivalence():
    for n in range(1, 7):
        sizes = SizeVector((1,) * n)
        for tup in itertools.product(range(1, n + 1), repeat=n):
            assert is_parking_sequence(sizes, PrefSequence(tup)) == \
                is_classical_parking_function(tup)
    report(9, "simulation membership equals the b_i <= i criterion on all "
              "n^n unit-size tuples for n <= 6")


def test_criterion_10_parallel_determinism():
    for comp in [(2, 2, 2), (3, 1, 2)]:
        sizes = SizeVector(comp)
        for flavor in ("linear", "circular"):
            reports = [
                verify(sizes, flavor, partitions=k) for k in (1, 2, 8)
            ]
            assert reports[0] == reports[1] == reports[2]
    report(10, "verify with 1, 2, and 8 partitions yields identical reports "
               "for sizes (2,2,2) and (3,1,2)")
