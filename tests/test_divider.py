import contextlib
import io
import itertools
import json
import os
from collections import Counter
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from parkseq import (
    Cruise,
    Direct,
    OptionSequence,
    Parked,
    SizeVector,
    compositions,
    count_circular,
    decode,
    enumerate_option_sequences,
    is_parking_sequence,
    option_count,
    options_for_car,
    restrict_to_linear,
    rotate,
    sample_circular,
    sample_linear,
    simulate_circular,
    simulate_linear,
)
from parkseq.cli import main
from parkseq.divider import _decode, _option_codes
from conftest import (
    naive_free_spots,
    naive_parking_set,
    naive_simulate,
    refuse_package_bindings,
)

GOLDEN = os.path.join(os.path.dirname(__file__), "golden_streams.json")


class TestDecode:
    def test_cruise_on_first_car(self):
        prefs, layout = decode(
            SizeVector((2, 2)), OptionSequence(1, (Cruise(1, 1),))
        )
        assert prefs.prefs == (1, 1)
        assert layout.starts == (1, 3)

    def test_first_open_interval(self):
        prefs, layout = decode(
            SizeVector((2, 2)), OptionSequence(1, (Direct(1),))
        )
        assert prefs.prefs == (1, 3)
        assert layout.starts == (1, 3)

    def test_skipped_interval_carries_empty_spot(self):
        prefs, layout = decode(
            SizeVector((2, 2)), OptionSequence(1, (Direct(2),))
        )
        assert prefs.prefs == (1, 4)
        assert layout.starts == (1, 4)

    def test_simulation_reproduces_decoded_layout(self):
        sizes = SizeVector((2, 1, 3))
        for opts in enumerate_option_sequences(sizes):
            prefs, layout = decode(sizes, opts)
            result = simulate_circular(sizes, prefs)
            assert isinstance(result, Parked)
            assert result.layout == layout

    def test_option_out_of_range(self):
        sizes = SizeVector((2, 2))
        with pytest.raises(ValueError):
            decode(sizes, OptionSequence(1, (Direct(3),)))
        with pytest.raises(ValueError):
            decode(sizes, OptionSequence(1, (Cruise(2, 1),)))
        with pytest.raises(ValueError):
            decode(sizes, OptionSequence(1, (Cruise(1, 3),)))
        with pytest.raises(ValueError):
            decode(sizes, OptionSequence(6, (Direct(1),)))
        with pytest.raises(ValueError):
            decode(sizes, OptionSequence(1, ()))


class TestOptionEnumeration:
    @staticmethod
    def literal_options(sizes, i):
        """Car i's options, written out: direct picks first, then cruise
        targets by (car, offset)."""
        n = sizes.n
        direct = [Direct(t) for t in range(1, n + 2 - i + 1)]
        cruise = [
            Cruise(j, k) for j in range(1, i) for k in range(1, sizes.sizes[j - 1] + 1)
        ]
        return direct + cruise

    def test_options_for_car_follows_the_literal_order(self):
        for comp in compositions(5, 10):
            sizes = SizeVector(comp)
            for i in range(2, sizes.n + 1):
                literal = self.literal_options(sizes, i)
                assert len(literal) == option_count(sizes, i)
                assert options_for_car(sizes, i) == literal

    @pytest.mark.parametrize("comp", list(compositions(4, 6)), ids=str)
    def test_code_r_decodes_like_option_r(self, comp):
        # code r of car i means options_for_car(sizes, i)[r]: the codes
        # and the option sequences are enumerated in the same order, the
        # core on the codes gives what decode gives on the options, and
        # each preference is the spot its option names
        sizes = SizeVector(comp)
        prefix = tuple(itertools.accumulate(comp, initial=0))
        options = enumerate_option_sequences(sizes)
        for codes, opts in zip(_option_codes(sizes), options, strict=True):
            assert codes[0] + 1 == opts.anchor
            prefs, starts = _decode(prefix, codes)
            public, layout = decode(sizes, opts)
            assert (prefs, starts) == (public.prefs, layout.starts)
            for i, opt in enumerate(opts.options, start=2):
                if isinstance(opt, Direct):
                    assert prefs[i - 1] == starts[i - 1]
                else:
                    assert prefs[i - 1] == layout.block(opt.car)[opt.offset - 1]

    def test_per_car_choice_counts(self):
        sizes = SizeVector((2, 5, 1, 3, 2))
        for i in range(2, sizes.n + 1):
            assert len(options_for_car(sizes, i)) == option_count(sizes, i)

    @pytest.mark.parametrize(
        "comp, expected", [((2, 2), 20), ((3,), 4), ((2, 2, 1), 180)]
    )
    def test_total_counts(self, comp, expected):
        sizes = SizeVector(comp)
        opts = list(enumerate_option_sequences(sizes))
        assert len(opts) == expected == count_circular(sizes)
        assert len(set(opts)) == len(opts)


DECODE_COMPOSITIONS = [(1,), (3,), (1, 1), (2, 2), (1, 2, 1), (2, 2, 1)]


@pytest.mark.parametrize("comp", DECODE_COMPOSITIONS)
def test_decode_is_a_bijection(comp):
    sizes = SizeVector(comp)
    image = set()
    for opts in enumerate_option_sequences(sizes):
        prefs, _ = decode(sizes, opts)
        image.add(prefs.prefs)
    assert len(image) == count_circular(sizes)  # injective
    assert image == naive_parking_set(sizes, "circular")  # onto


@pytest.mark.parametrize("comp", [(2, 2), (2, 2, 1), (1, 3)])
def test_cruise_preference_lands_in_target_block(comp):
    sizes = SizeVector(comp)
    for opts in enumerate_option_sequences(sizes):
        prefs, layout = decode(sizes, opts)
        for i, opt in enumerate(opts.options, start=2):
            if isinstance(opt, Cruise):
                block = layout.block(opt.car)
                assert prefs.prefs[i - 1] == block[opt.offset - 1]


class TestSamplers:
    def test_circular_samples_always_park(self):
        sizes = SizeVector((3, 1, 2))
        rng = Random(123)
        for _ in range(200):
            prefs = sample_circular(sizes, rng)
            assert isinstance(simulate_circular(sizes, prefs), Parked)

    def test_linear_samples_always_park(self):
        sizes = SizeVector((2, 2))
        rng = Random(7)
        expected = {(1, 1), (1, 2), (1, 3), (3, 1)}
        for _ in range(200):
            prefs = sample_linear(sizes, rng)
            assert prefs.prefs in expected
            assert is_parking_sequence(sizes, prefs)

    def test_same_seed_same_stream(self):
        sizes = SizeVector((2, 1, 3))

        def stream():
            rng = Random(42)
            return [sample_linear(sizes, rng).prefs for _ in range(50)]

        first = stream()
        assert first == stream()
        assert len(set(first)) > 1  # one generator, many different draws

    def test_single_car_anchor_uniform_support(self):
        sizes = SizeVector((4,))
        rng = Random(0)
        seen = {sample_circular(sizes, rng).prefs[0] for _ in range(500)}
        assert seen == set(range(1, sizes.circle_size + 1))

    def test_circular_frequencies_roughly_uniform(self):
        sizes = SizeVector((2, 2))
        rng = Random(11)
        counts = Counter(sample_circular(sizes, rng).prefs for _ in range(10_000))
        assert set(counts) == naive_parking_set(sizes, "circular")
        for c in counts.values():
            assert abs(c / 10_000 - 1 / 20) < 0.015

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=25)
    def test_any_seed_yields_valid_draws(self, seed):
        sizes = SizeVector((1, 2))
        rng = Random(seed)
        assert is_parking_sequence(sizes, sample_linear(sizes, rng))


def random_composition(rng, total, parts):
    cuts = sorted(rng.sample(range(1, total), parts - 1))
    edges = (0, *cuts, total)
    return tuple(b - a for a, b in zip(edges, edges[1:]))


class TestLinearShift:
    """sample_linear shifts the decoded circular draw so its empty spot
    lands on M. Its witnesses live here: the same draw from sample_circular
    (both consume the generator identically), its empty spot from the
    literal simulator, and rotate + restrict_to_linear."""

    @staticmethod
    def witness(sizes, seed):
        circular = sample_circular(sizes, Random(seed))
        parked = naive_simulate(sizes, circular, "circular")
        assert isinstance(parked, Parked)
        (e,) = naive_free_spots(parked.layout)
        return restrict_to_linear(sizes, rotate(sizes, circular, sizes.circle_size - e))

    def check(self, sizes, seed):
        linear = sample_linear(sizes, Random(seed))
        assert linear == self.witness(sizes, seed)
        assert isinstance(naive_simulate(sizes, linear, "linear"), Parked)

    @pytest.mark.parametrize("comp", list(compositions(4, 8)), ids=str)
    def test_equals_rotate_and_restrict(self, comp):
        for seed in range(5):
            self.check(SizeVector(comp), seed)

    @given(
        st.lists(st.integers(1, 4), min_size=1, max_size=12),
        st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_equals_rotate_and_restrict_on_longer_vectors(self, comp, seed):
        self.check(SizeVector(tuple(comp)), seed)

    def test_parks_nothing(self, monkeypatch):
        rng = Random(2017)
        vectors = [SizeVector(random_composition(rng, 512, 128)) for _ in range(4)]
        vectors += [SizeVector((3,)), SizeVector((2, 1, 3))]
        expected = {(v, seed): self.witness(v, seed) for v in vectors for seed in range(3)}

        refuse_package_bindings(
            monkeypatch,
            (simulate_circular, simulate_linear, restrict_to_linear, rotate),
            "sample_linear must not park or rotate anything",
        )
        for (sizes, seed), linear in expected.items():
            assert sample_linear(sizes, Random(seed)) == linear


class TestGoldenStreams:
    """Seeded output recorded from the sampler that built every car's full
    option list and indexed it; drawing option numbers must not change a
    single draw."""

    with open(GOLDEN) as f:
        golden = json.load(f)

    @pytest.mark.parametrize(
        "case",
        golden["samplers"],
        ids=lambda c: f"n{len(c['sizes'])}-T{sum(c['sizes'])}-seed{c['seed']}",
    )
    def test_sampler_streams(self, case):
        sizes = SizeVector(tuple(case["sizes"]))
        for flavor, draw in (("linear", sample_linear), ("circular", sample_circular)):
            rng = Random(case["seed"])
            got = [list(draw(sizes, rng).prefs) for _ in case[flavor]]
            assert json.dumps(got) == json.dumps(case[flavor])

    @pytest.mark.parametrize("case", golden["cli"], ids=lambda c: " ".join(c["argv"]))
    def test_cli_stdout(self, case):
        # exit code and stdout bytes of seeded sample calls, of the README's
        # CLI examples in text and --json, and of budget refusals (exit 3)
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main(case["argv"])
        assert code == case["exit_code"]
        assert out.getvalue() == case["stdout"]
