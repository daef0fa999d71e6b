import contextlib
import hashlib
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
    Layout,
    OptionSequence,
    Parked,
    SizeVector,
    compositions,
    count_circular,
    decode,
    empty_spot,
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
    wrap_spot,
)
from parkseq.cli import main
from parkseq.circular import _turn
from parkseq.counting import _option_counts
from parkseq.divider import _walk
from conftest import (
    naive_free_spots,
    naive_parking_set,
    naive_simulate,
    option_codes,
    refuse_package_bindings,
)

GOLDEN = os.path.join(os.path.dirname(__file__), "golden_streams.json")


def decode_codes(prefix, codes):
    """What decode makes of the codes (r_1, ..., r_n), prefix[k] = y_1 + ...
    + y_k: cars 2..n walked with car 1 at spot 1, then turned by r_1."""
    m = prefix[-1] + 1
    prefs, starts, _ = _walk(prefix, codes[1:])
    return _turn(prefs, codes[0], m), _turn(starts, codes[0], m)


def anchor_walks(prefix, rest):
    """The divider as the construction states it, from every anchor: car
    i's code picks among the open cells listed afresh, or finds its cruise
    target by counting the spots off car by car, and the cells are then
    walked round the circle from car 1's anchor spot a + 1, every spot
    wrapped into [1, M]. Returns the (preferences, starts) for the anchor
    codes a = 0, ..., M - 1 in turn."""
    n = len(prefix) - 1
    m = prefix[n] + 1
    sizes = [prefix[j + 1] - prefix[j] for j in range(n)]
    cells = [1] + [0] * n  # the car in each cell, clockwise from car 1's
    aim = [(car, 0) for car in range(1, n + 1)]  # (1-based car, offset)
    for i, r in enumerate(rest, start=2):
        open_cells = [p for p in range(n + 1) if cells[p] == 0]
        if r < len(open_cells):
            p = open_cells[r]
        else:
            r -= len(open_cells)
            j = 1
            while r >= sizes[j - 1]:
                r -= sizes[j - 1]
                j += 1
            aim[i - 1] = (j, r)
            target = cells.index(j)
            p = min(open_cells, key=lambda q: (q - target) % (n + 1))
        cells[p] = i
    walks = []
    for a in range(m):
        starts = [0] * n
        spot = a + 1
        for car in cells:
            if car:
                starts[car - 1] = spot
            spot = wrap_spot(spot + (sizes[car - 1] if car else 1), m)
        prefs = tuple(wrap_spot(starts[j - 1] + k, m) for j, k in aim)
        walks.append((prefs, tuple(starts)))
    return walks


def encode(prefix, prefs, starts):
    """The divider's inverse, read off a parking: the codes (r_2, ..., r_n)
    of cars 2..n whose walk, turned by any anchor, is (prefs, starts). The
    parking is first turned to put car 1 at spot 1, so no block wraps. Car
    i's cell is then the rank of its start among the starts and the empty
    spot. A car that prefers its own start picked its cell directly, and
    its code is that cell's index among the cells still open; otherwise it
    prefers spot k (0-based) of car j's block, so its code is n + 2 - i +
    prefix[j] + k, with j 0-based, and its cell must be the next open cell
    clockwise after car j's."""
    n = len(prefix) - 1
    m = prefix[n] + 1
    sizes = [prefix[j + 1] - prefix[j] for j in range(n)]
    shift = starts[0] - 1
    prefs = [wrap_spot(x - shift, m) for x in prefs]
    starts = [wrap_spot(s - shift, m) for s in starts]
    (empty,) = set(range(1, m + 1)) - {
        s + k for s, y in zip(starts, sizes) for k in range(y)
    }
    cells = sorted([*starts, empty])
    open_cells = list(range(1, n + 1))
    codes = []
    for i in range(2, n + 1):
        x, s = prefs[i - 1], starts[i - 1]
        cell = cells.index(s)
        if x == s:
            codes.append(open_cells.index(cell))
        else:
            j = next(j for j in range(n) if starts[j] <= x < starts[j] + sizes[j])
            codes.append(n + 2 - i + prefix[j] + x - starts[j])
            target = cells.index(starts[j])
            assert cell == next((q for q in open_cells if q > target), open_cells[0])
        open_cells.remove(cell)
    return tuple(codes)


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
        for codes, opts in zip(option_codes(sizes), options, strict=True):
            assert codes[0] + 1 == opts.anchor
            prefs, starts = decode_codes(prefix, codes)
            public, layout = decode(sizes, opts)
            assert (prefs, starts) == (public.prefs, layout.starts)
            for i, opt in enumerate(opts.options, start=2):
                if isinstance(opt, Direct):
                    assert prefs[i - 1] == starts[i - 1]
                else:
                    assert prefs[i - 1] == layout.block(opt.car)[opt.offset - 1]

    def test_core_outputs_are_pinned(self):
        # every code tuple of every composition with n <= 4, T <= 8, in
        # option_codes order, and what the divider makes of it: 191,851
        # tuples whose digest was recorded from the walk that started at
        # car 1's anchor, before the core became a spot-1 walk and a turn
        digest = hashlib.sha256()
        for comp in compositions(4, 8):
            prefix = tuple(itertools.accumulate(comp, initial=0))
            for codes in option_codes(SizeVector(comp)):
                digest.update(repr((comp, codes, decode_codes(prefix, codes))).encode())
        assert digest.hexdigest() == (
            "f00eedd3607a98d813e829d73d6a019bcba74ba8386bd06b30eddaab86a7e019"
        )

    @pytest.mark.parametrize("comp", list(compositions(4, 8)), ids=str)
    def test_one_cell_assignment_serves_every_anchor(self, comp):
        # bijection_checks walks the codes of cars 2..n once and turns the
        # result by every anchor: each turn must be the walk from that anchor
        sizes = SizeVector(comp)
        m = sizes.circle_size
        prefix = tuple(itertools.accumulate(comp, initial=0))
        counts = [option_count(sizes, i) for i in range(2, sizes.n + 1)]
        for rest in itertools.product(*map(range, counts)):
            prefs, starts, _ = _walk(prefix, rest)
            turned = [(_turn(prefs, a, m), _turn(starts, a, m)) for a in range(m)]
            assert turned == anchor_walks(prefix, rest)

    def test_encode_inverts_the_walk(self):
        # every code tuple of cars 2..n with n <= 4, T <= 8: 22,948 walks,
        # each also returning the empty spot of the layout it walked to
        walks = 0
        for comp in compositions(4, 8):
            sizes = SizeVector(comp)
            prefix = tuple(itertools.accumulate(comp, initial=0))
            counts = [option_count(sizes, i) for i in range(2, sizes.n + 1)]
            for rest in itertools.product(*map(range, counts)):
                prefs, starts, e = _walk(prefix, rest)
                assert encode(prefix, prefs, starts) == rest
                layout = Layout(sizes, starts, "circular")
                assert e == empty_spot(layout)
                assert naive_free_spots(layout) == {e}
                walks += 1
        assert walks == 22_948

    def test_encode_inverts_decode(self):
        # every option sequence, every anchor, with n <= 4, T <= 6
        decoded = 0
        for comp in compositions(4, 6):
            sizes = SizeVector(comp)
            prefix = tuple(itertools.accumulate(comp, initial=0))
            options = enumerate_option_sequences(sizes)
            for codes, opts in zip(option_codes(sizes), options, strict=True):
                prefs, layout = decode(sizes, opts)
                rest = encode(prefix, prefs.prefs, layout.starts)
                assert (layout.starts[0] - 1, *rest) == codes
                decoded += 1
        assert decoded == 23_798

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


class ScriptedRandom(Random):
    """A generator that answers a fixed code tuple, one code per car:
    randrange(k) checks that k is the next car's option count and returns
    that car's code."""

    def __init__(self, sizes, codes):
        super().__init__(0)
        self.script = list(zip(_option_counts(sizes), codes))

    def randrange(self, k, *rest):
        assert not rest
        count, code = self.script.pop(0)
        assert k == count
        return code


@pytest.mark.parametrize("comp", list(compositions(4, 6)), ids=str)
def test_every_code_tuple_draws_each_parking_sequence_equally_often(comp):
    # the exact form of uniformity: the samplers, fed every code tuple once,
    # hit each circular parking sequence once and each linear one M times
    sizes = SizeVector(comp)
    drawn = {sample_circular: Counter(), sample_linear: Counter()}
    for codes in option_codes(sizes):
        for sample, counts in drawn.items():
            rng = ScriptedRandom(sizes, codes)
            counts[sample(sizes, rng).prefs] += 1
            assert not rng.script  # one draw per car
    circular, linear = (naive_parking_set(sizes, f) for f in ("circular", "linear"))
    assert drawn[sample_circular] == dict.fromkeys(circular, 1)
    assert drawn[sample_linear] == dict.fromkeys(linear, sizes.circle_size)


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
            (simulate_circular, simulate_linear, restrict_to_linear, rotate,
             empty_spot, Layout),
            "sample_linear must not park, rotate, build a Layout or search for"
            " the empty spot",
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
    def test_cli_stdout(self, case, monkeypatch):
        # exit code and stdout bytes of seeded sample calls, of the README's
        # CLI examples in text and --json, of budget refusals (exit 3), and
        # of every --help text (argparse's SystemExit(0)), wrapped at 80
        # columns whatever the terminal
        monkeypatch.setenv("COLUMNS", "80")
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            try:
                code = main(case["argv"])
            except SystemExit as exc:
                code = exc.code
        assert code == case["exit_code"]
        assert out.getvalue() == case["stdout"]
