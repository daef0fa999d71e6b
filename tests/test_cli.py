import argparse
import contextlib
import io
import itertools
import json
import os
import re
import subprocess
import sys
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import parkseq.cli
from conftest import (
    counted,
    naive_free_spots,
    naive_parking_set,
    naive_simulate,
    naive_tally,
    peak_bytes,
    unlimited_str_digits,
)
from parkseq import (
    Collision,
    Parked,
    PrefSequence,
    SizeVector,
    count_classical,
    is_parking_sequence,
    sample_circular,
    sample_linear,
    wrap_spot,
)
from parkseq.bruteforce import BijectionReport, EnumerationReport
from parkseq.cli import main

UNIT_CARS_2000 = ",".join(["1"] * 2000)
SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
GOLDEN = os.path.join(os.path.dirname(__file__), "golden_streams.json")


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class NullStdout:
    """A stdout that keeps nothing, not even a write buffer."""

    def write(self, text):
        return len(text)

    def flush(self):
        pass


def run_json(capsys, *argv):
    code, out, err = run_cli(capsys, *argv, "--json")
    return code, json.loads(out), err


# The one list of pinned `parkseq` calls, the `cli` rows of
# golden_streams.json: each row's exit code, stdout and stderr bytes at 80
# columns. The rows cover a bare `parkseq`, the seeded samples, the README's
# examples in text and --json, failures to park, the bijection and verify
# reports, budget refusals (exit 3), usage errors (exit 2) from the library
# and from argparse, and every --help text. test_cli_stdout runs them
# in-process, and tests/cli_table.py runs them through the installed script,
# each under one address-space limit and one timeout.
# A new row is recorded from the program at the parent commit. Rows are
# appended as lines, never re-recorded; an existing row's bytes change only
# with a CHANGES.md line naming the behaviour that changed. The other tests
# in this file check what a row cannot hold: counted work, memory bounds,
# independent witnesses, the exit-code contract on random argvs and the
# process boundary.
with open(GOLDEN) as f:
    CLI_ROWS = json.load(f)["cli"]


def run_main(argv):
    """main(argv) with its exit code and both streams, argparse's own
    SystemExit included."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("case", CLI_ROWS, ids=lambda c: " ".join(c["argv"]))
def test_cli_stdout(case, monkeypatch):
    # --help wraps at 80 columns whatever the terminal, and exits
    # through argparse's SystemExit(0)
    monkeypatch.setenv("COLUMNS", "80")
    assert run_main(case["argv"]) == (case["exit_code"], case["stdout"], case["stderr"])


def assert_unknown_subcommand(code, out, err):
    """`parkseq bogus` exits 2 with the top-level usage and argparse's
    error. How that error lists the choices is the interpreter's own text
    (quoted on 3.10 to 3.12 and on 3.13.0, bare on 3.13.13), so it is not a
    cli row: only what holds on every version is asserted."""
    choose_from = ("parkseq: error: argument subcommand: invalid choice: "
                   "'bogus' (choose from ")
    usage, error, end = err.split("\n")
    assert (code, out, end) == (2, "", "")
    assert usage == "usage: parkseq [-h] {simulate,count,verify,bijection,sample} ..."
    assert error.startswith(choose_from) and error.endswith(")")
    choices = error[len(choose_from):-1].split(", ")
    assert [choice.strip("'") for choice in choices] == [
        "simulate", "count", "verify", "bijection", "sample"]


def test_unknown_subcommand(monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    assert_unknown_subcommand(*run_main(["bogus"]))


def test_cli_rows_are_well_formed():
    assert all(
        set(row) == {"argv", "exit_code", "stdout", "stderr"} for row in CLI_ROWS
    )
    assert len({tuple(row["argv"]) for row in CLI_ROWS}) == len(CLI_ROWS)


def numbers(hi):
    """The text of an integer in [-2, hi]: plain most of the time, else
    padded, with underscores between its digits (`1_0`) or in Arabic-Indic
    digits; or a text that int() refuses: empty, not a number, or an
    integer past the int-to-str digit limit."""
    k = st.one_of(st.integers(1, hi), st.integers(-2, 0)).map(str)
    return st.one_of(k, k, k, st.one_of(
        k.map(" {} ".format), k.map("_".join),
        k.map(lambda text: text.translate(str.maketrans("0123456789", "٠١٢٣٤٥٦٧٨٩"))),
        st.sampled_from(["", "x", "1.5", "1" + "0" * 4300]),
    ))


# The value each flag takes. The sweep bounds and --count stay small, so
# that no call sweeps or streams for long, and --budget small enough to
# refuse some calls. A size or preference may also be an integer of 4,300
# digits, the most int() reads, so that the lot and the spots written
# reach past the digit limit.
INT_LISTS = st.lists(
    st.one_of(numbers(10), numbers(10), numbers(10), st.just("9" * 4300)),
    min_size=1, max_size=3,
).map(",".join)
FLAG_VALUES = {
    "--sizes": INT_LISTS, "--prefs": INT_LISTS,
    "--budget": numbers(1000), "--seed": numbers(10),
    "--max-cars": numbers(4), "--max-total": numbers(4), "--count": numbers(4),
}
FLAGS_OF = {
    "simulate": ["--sizes", "--prefs", "--circular", "--json"],
    "count": ["--sizes", "--circular", "--json"],
    "verify": ["--sizes", "--max-cars", "--max-total", "--budget", "--circular", "--json"],
    "bijection": ["--sizes", "--budget", "--json"],
    "sample": ["--sizes", "--count", "--seed", "--circular", "--json"],
}
FLAGS = [*FLAG_VALUES, "--circular", "--json", "--help", "-h", "--bogus"]


@st.composite
def argvs(draw):
    """A subcommand or another first token, then, in any order, most of
    that subcommand's flags with their values, and up to two stray flags or
    small values put in anywhere."""
    argv = [draw(st.sampled_from([*FLAGS_OF, "bogus"]))]
    for flag in draw(st.permutations(FLAGS_OF.get(argv[0], FLAGS))):
        if draw(st.sampled_from([True, True, True, False])):
            argv.append(flag)
            if flag in FLAG_VALUES:
                argv.append(draw(FLAG_VALUES[flag]))
    for _ in range(draw(st.sampled_from([0, 0, 1, 2]))):
        stray = draw(st.one_of(st.sampled_from(FLAGS), numbers(4)))
        argv.insert(draw(st.integers(0, len(argv))), stray)
    return argv


# no per-example deadline: this test checks exits and streams, and a
# loaded runner must not fail it on time
@settings(deadline=None)
@given(argvs())
def test_no_argv_escapes_the_exit_code_contract(argv):
    # whatever the tokens, a call ends in an exit code 0-3 with no
    # exception but argparse's SystemExit; a usage error (2) or a refusal
    # (3) prints nothing on stdout, and a success nothing on stderr
    code, out, err = run_main(argv)
    assert code in (0, 1, 2, 3)
    if code in (2, 3):
        assert out == ""
    if code == 0:
        assert err == ""


# What a well-formed call may draw: every size vector with n <= 4 and
# T <= 7, in which the default budget admits every command, and a size of
# 4,300 nines, the most digits int() reads, which takes the lot and the
# spots written past the digit limit.
SMALL_SIZES = [
    ys for n in range(1, 5) for ys in itertools.product(range(1, 8), repeat=n)
    if sum(ys) <= 7
]
AT_LIMIT = 10**4300 - 1


@st.composite
def admitted_calls(draw):
    """(argv without --json, sizes, flavor, at_limit): a subcommand with a
    small size vector, --circular or not where it takes one, --prefs in [1,
    lot], --count <= 3 and a --seed, its flags in any order. One
    simulate, count or sample call in four has one size of 4,300 nines."""
    command = draw(st.sampled_from(list(FLAGS_OF)))
    sizes = list(draw(st.sampled_from(SMALL_SIZES)))
    at_limit = command in ("simulate", "count", "sample") and draw(
        st.sampled_from([True] + [False] * 3))
    if at_limit:
        sizes[draw(st.integers(0, len(sizes) - 1))] = AT_LIMIT
    circular = command == "bijection" or draw(st.booleans())
    flags = {"--sizes": ",".join(map(str, sizes))}
    if circular and command != "bijection":
        flags["--circular"] = None
    if command == "simulate":
        lot = sum(sizes) + circular
        flags["--prefs"] = ",".join(
            str(draw(st.integers(1, min(lot, AT_LIMIT)))) for _ in sizes)
    if command == "sample":
        flags["--count"] = str(draw(st.integers(0, 3)))
        flags["--seed"] = str(draw(st.integers(-(2**64), 2**64)))
    argv = [command]
    for flag in draw(st.permutations(list(flags))):
        argv += [flag] if flags[flag] is None else [flag, flags[flag]]
    return argv, tuple(sizes), "circular" if circular else "linear", at_limit


def document_numbers(doc):
    """The numbers a call's text output writes, in order, read off its
    --json document."""
    command = doc["command"]
    if command == "simulate":
        if doc["result"] == "parked":
            numbers = [x for r in doc["layout"] for x in (r["car"], r["start"], r["end"])]
            return numbers + [doc["empty_spot"]] if "empty_spot" in doc else numbers
        if doc["result"] == "collision":
            return [doc["car"], doc["first_empty"], doc["blocked"]]
        return [doc["car"]]
    if command == "count":
        return [doc["count"]]
    if command == "verify":
        (report,) = doc["reports"]
        return [*report["sizes"], *(report[k] for k in (
            "total_tuples", "parked", "collisions", "past_end", "formula"))]
    if command == "bijection":
        return [doc[k] for k in ("option_sequences", "distinct_decodes",
                                 "circular_parking_sequences", "linear_parking_sequences")]
    return list(itertools.chain(*doc["samples"]))


def check_document(doc, argv, sizes, flavor):
    """The --json document of the call `argv` on a small size vector against
    conftest's literal witnesses. Returns the exit code it must have."""
    vector = SizeVector(sizes)
    lot = vector.circle_size if flavor == "circular" else vector.total
    command = doc["command"]
    if command == "simulate":
        prefs = tuple(map(int, argv[argv.index("--prefs") + 1].split(",")))
        result = naive_simulate(vector, PrefSequence(prefs, flavor), flavor)
        if isinstance(result, Parked):
            assert doc["result"] == "parked"
            starts = {r["car"]: r["start"] for r in doc["layout"]}
            assert [starts[car] for car in range(1, len(sizes) + 1)] == list(
                result.layout.starts)
            assert [r["end"] for r in doc["layout"]] == [
                wrap_spot(r["start"] + sizes[r["car"] - 1] - 1, lot) for r in doc["layout"]]
            if flavor == "circular":
                assert naive_free_spots(result.layout) == {doc["empty_spot"]}
            return 0
        if isinstance(result, Collision):
            assert (doc["result"], doc["car"], doc["first_empty"], doc["blocked"]) == (
                "collision", result.car, result.first_empty, result.blocked)
        else:
            assert (doc["result"], doc["car"]) == ("past_end", result.car)
        return 1
    parked = naive_parking_set(vector, flavor)
    if command == "count":
        assert doc["count"] == str(len(parked))
    elif command == "verify":
        (report,) = doc["reports"]
        tally = naive_tally(vector, flavor)
        assert [int(report[k]) for k in ("parked", "collisions", "past_end")] == list(tally)
        assert int(report["total_tuples"]) == lot ** len(sizes) == sum(tally)
        assert report["match"] and doc["all_match"]
    elif command == "bijection":
        assert doc["all_pass"]
        assert doc["circular_parking_sequences"] == str(
            len(naive_parking_set(vector, "circular")))
        assert doc["linear_parking_sequences"] == str(
            len(naive_parking_set(vector, "linear")))
    else:
        assert all(tuple(draw) in parked for draw in doc["samples"])
    return 0


# no per-example deadline, as above; 100 examples take about 0.3 s, and
# a change to cli.py or to a sampler is run once at 20,000 besides
@settings(deadline=None, max_examples=100)
@given(admitted_calls())
def test_an_admitted_call_prints_what_the_witnesses_report(call):
    # a call that parses and that the budget admits prints its result: its
    # --json document holds what the literal references find, its exit
    # code is 0 but for a simulate that does not park, and its text output
    # writes the same numbers with the same exit code and no stderr
    argv, sizes, flavor, at_limit = call
    code, out, err = run_main([*argv, "--json"])
    assert err == ""
    with unlimited_str_digits():
        doc = json.loads(out)
    shown = [list(sizes)] if argv[0] == "verify" else list(sizes)  # one per report
    assert (doc["command"], doc["sizes"], doc["flavor"]) == (argv[0], shown, flavor)
    if at_limit:  # too large a lot for the witnesses
        assert code in ((0, 1) if argv[0] == "simulate" else (0,))
        if argv[0] == "sample":
            lot = sum(sizes) + (flavor == "circular")
            assert all(len(d) == len(sizes) and all(1 <= c <= lot for c in d)
                       for d in doc["samples"])
    else:
        assert code == check_document(doc, argv, sizes, flavor)
    if argv[0] == "sample":
        assert (doc["count"], doc["seed"]) == tuple(
            int(argv[argv.index(flag) + 1]) for flag in ("--count", "--seed"))
        assert len(doc["samples"]) == doc["count"]
    text_code, text, text_err = run_main(argv)
    assert (text_code, text_err) == (code, "")
    with unlimited_str_digits():
        expected = [str(x) for x in document_numbers(doc)]
    assert re.findall(r"\d+", text) == expected


class TestCount:
    def test_count_past_the_str_digit_limit(self, capsys):
        # (n+1)^(n-1) for n = 2000 has 6,603 digits
        with unlimited_str_digits():
            expected = str(count_classical(2000))
        code, out, err = run_cli(capsys, "count", "--sizes", UNIT_CARS_2000)
        assert (code, out, err) == (0, expected + "\n", "")
        code, doc, _ = run_json(capsys, "count", "--sizes", UNIT_CARS_2000)
        assert code == 0
        assert doc["count"] == expected

    def test_report_fields_past_the_str_digit_limit(self, capsys, monkeypatch):
        # no instance the budget admits has such counts, so the report is
        # stubbed; every count field prints in full
        big = count_classical(2000)
        counts = (big + 3, big, big + 1, big + 2, big)
        report = EnumerationReport(SizeVector((1,)), "linear", *counts, True)
        monkeypatch.setattr(parkseq.cli, "verify", lambda *args, **kw: report)
        with unlimited_str_digits():
            digits = [str(x) for x in counts]
        code, out, err = run_cli(capsys, "verify", "--sizes", "1")
        assert (code, err) == (0, "")
        assert out.splitlines()[0] == (
            f"sizes=1 (linear): {digits[0]} tuples, {digits[1]} parked, "
            f"{digits[2]} collisions, {digits[3]} past-end, "
            f"formula {digits[4]}, MATCH"
        )
        code, doc, _ = run_json(capsys, "verify", "--sizes", "1")
        assert code == 0
        fields = ("total_tuples", "parked", "collisions", "past_end", "formula")
        assert [doc["reports"][0][f] for f in fields] == digits

    def test_bijection_fields_past_the_str_digit_limit(self, capsys, monkeypatch):
        big = count_classical(2000)
        counts = (big, big + 1, big + 2, big + 3)
        report = BijectionReport(SizeVector((1,)), *counts, *[True] * 6)
        monkeypatch.setattr(parkseq.cli, "bijection_checks",
                            lambda *args, **kw: report)
        with unlimited_str_digits():
            digits = [str(x) for x in counts]
        code, out, err = run_cli(capsys, "bijection", "--sizes", "1")
        assert (code, err) == (0, "")
        assert [line.rsplit(" ", 1)[1] for line in out.splitlines()[:4]] == digits
        code, doc, _ = run_json(capsys, "bijection", "--sizes", "1")
        assert code == 0
        fields = ("option_sequences", "distinct_decodes",
                  "circular_parking_sequences", "linear_parking_sequences")
        assert [doc[f] for f in fields] == digits

    @pytest.mark.parametrize("command", ["verify", "bijection"])
    def test_refusal_names_a_domain_past_the_digit_limit(self, capsys, command):
        # the domain is T^n tuples for verify's linear lot and M^n for the
        # bijection's circular one, 6,603 digits each, printed in full
        base = {"verify": 2000, "bijection": 2001}[command]
        with unlimited_str_digits():
            digits = str(base**2000)
        code, out, err = run_cli(capsys, command, "--sizes", UNIT_CARS_2000)
        assert (code, out) == (3, "")
        assert err.endswith(f" needs {digits} tuples, budget is 100000000\n")

    @pytest.mark.parametrize("text", [
        " +1_" + "0" * 4999 + " ", "-" + "٣" * 4301,
        "1" * 5000 + "x", "1__" + "0" * 5000, "_1" + "0" * 5000,
    ], ids=lambda text: f"{text[:3]!r}-{len(text)}-{text[-1]!r}")
    def test_only_an_integer_is_refused_as_past_the_digit_limit(self, capsys, text):
        # a value that int() reads once the limit is lifted is refused as
        # an integer of its digit count on one short line; any other value
        # as not an integer, echoed whole
        with unlimited_str_digits():
            try:
                digits = len(str(abs(int(text))))
            except ValueError:
                digits = None
        code, out, err = run_cli(capsys, "simulate", "--sizes", "2,2", "--prefs", "1," + text)
        assert (code, out) == (2, "")
        if digits is None:
            assert err == f"error: --prefs must be comma-separated integers, got {'1,' + text!r}\n"
        else:
            assert err == (
                f"error: --prefs holds an integer of {digits} digits, past this "
                f"interpreter's limit of {sys.get_int_max_str_digits()} digits\n"
            )
            assert len(err.encode()) < 200

    @pytest.mark.parametrize("argv", [
        ("verify", "--sizes", "2,2", "--budget"),
        ("bijection", "--sizes", "2,2", "--budget"),
        ("verify", "--max-total", "3", "--max-cars"),
        ("verify", "--max-cars", "2", "--max-total"),
        ("sample", "--sizes", "2,2", "--seed", "1", "--count"),
        ("sample", "--sizes", "2,2", "--count", "1", "--seed"),
    ], ids=" ".join)
    def test_an_integer_flag_past_the_digit_limit_is_refused_on_one_line(
        self, capsys, argv
    ):
        # argparse's "invalid int value" would echo the whole text after its
        # usage; the flag is named with the integer's digit count instead
        code, out, err = run_cli(capsys, *argv, " +1_" + "0" * 4999 + " ")
        assert (code, out) == (2, "")
        assert err == (
            f"error: {argv[-1]} is an integer of 5000 digits, past this "
            f"interpreter's limit of {sys.get_int_max_str_digits()} digits\n"
        )


class TestLargeLots:
    """A lot of 10^12 spots answers at once: the cost grows with the number
    of cars, and no structure the size of the lot is built."""

    BIG = 10**12

    @pytest.mark.parametrize(
        "argv, expected",
        [
            (
                ["simulate", "--sizes", str(BIG), "--prefs", "1"],
                {"command": "simulate", "sizes": [BIG], "flavor": "linear",
                 "result": "parked",
                 "layout": [{"car": 1, "start": 1, "end": BIG}]},
            ),
            (
                ["simulate", "--sizes", str(BIG), "--prefs", "1", "--circular"],
                {"command": "simulate", "sizes": [BIG], "flavor": "circular",
                 "result": "parked",
                 "layout": [{"car": 1, "start": 1, "end": BIG}],
                 "empty_spot": BIG + 1},
            ),
            (
                ["simulate", "--sizes", f"{BIG},1", "--prefs", "1,1"],
                {"command": "simulate", "sizes": [BIG, 1], "flavor": "linear",
                 "result": "parked",
                 "layout": [{"car": 1, "start": 1, "end": BIG},
                            {"car": 2, "start": BIG + 1, "end": BIG + 1}]},
            ),
            (
                ["simulate", "--sizes", f"{BIG},1", "--prefs", f"{BIG + 1},1",
                 "--circular"],
                {"command": "simulate", "sizes": [BIG, 1], "flavor": "circular",
                 "result": "parked",
                 "layout": [{"car": 2, "start": BIG - 1, "end": BIG - 1},
                            {"car": 1, "start": BIG + 1, "end": BIG - 2}],
                 "empty_spot": BIG},
            ),
            (
                ["sample", "--sizes", str(BIG), "--count", "1", "--seed", "1"],
                {"command": "sample", "sizes": [BIG], "flavor": "linear",
                 "seed": 1, "count": 1, "samples": [[1]]},
            ),
        ],
    )
    def test_answers_without_lot_sized_memory(self, capsys, argv, expected):
        code, peak = peak_bytes(lambda: main([*argv, "--json"]))
        out = capsys.readouterr().out
        assert code == 0
        assert json.loads(out) == expected
        assert peak < 2**20


class TestSample:
    @pytest.mark.parametrize("count", [0, 1, 3])
    @pytest.mark.parametrize("flavor", ["linear", "circular"])
    def test_streamed_output_is_the_whole_document(self, capsys, count, flavor):
        # each draw is printed as it is drawn, and the bytes are those of
        # all draws printed at once, the --json document included
        sizes = SizeVector((2, 1, 3))
        draw = sample_circular if flavor == "circular" else sample_linear
        rng = Random(5)
        samples = [list(draw(sizes, rng).prefs) for _ in range(count)]
        argv = ["sample", "--sizes", "2,1,3", "--count", str(count), "--seed", "5"]
        if flavor == "circular":
            argv.append("--circular")
        text = "".join(",".join(map(str, s)) + "\n" for s in samples)
        assert run_cli(capsys, *argv) == (0, text, "")
        payload = {"command": "sample", "sizes": [2, 1, 3], "flavor": flavor,
                   "seed": 5, "count": count, "samples": samples}
        assert run_cli(capsys, *argv, "--json") == (0, json.dumps(payload) + "\n", "")

    @pytest.mark.parametrize("as_json", [(), ("--json",)])
    def test_memory_does_not_grow_with_count(self, as_json):
        # holding every draw costs about 300 bytes each, 3 MB at 10^4 draws
        def peak(count):
            argv = ["sample", "--sizes", "2,1,3", "--count", str(count),
                    "--seed", "1", *as_json]
            with contextlib.redirect_stdout(NullStdout()):
                code, peak = peak_bytes(lambda: main(argv))
            assert code == 0
            return peak

        # first-call allocations (argparse, caches) are not draws; the
        # interpreter's free lists of small tuples keep a bounded number of
        # freed draws, well under the bound
        peak(1)
        assert peak(10_000) - peak(100) < 2**19


# Calls that leave the parser in a different state if it kept any: argparse's
# own exit, --json then text, --circular then linear, a set budget then the
# default, and a seeded sample.
REUSE_SEQUENCE = [
    "count --json",
    "count --sizes 2,2,1 --json",
    "count --sizes 2,2,1",
    "simulate --sizes 2,2 --prefs 1,4 --circular",
    "simulate --sizes 2,2 --prefs 1,4",
    "verify --sizes 2,2 --budget 5",
    "verify --sizes 2,2",
    "sample --sizes 2,1,3 --count 4 --seed 7 --circular",
    "sample --sizes 2,1,3 --count 4 --seed 7",
]


def test_parser_reused_across_calls_keeps_no_state(capsys):
    def run(argv):
        try:
            return run_cli(capsys, *argv.split())
        except SystemExit as exc:
            captured = capsys.readouterr()
            return exc.code, captured.out, captured.err

    forward = {argv: run(argv) for argv in REUSE_SEQUENCE}
    backward = {argv: run(argv) for argv in reversed(REUSE_SEQUENCE)}
    assert forward == backward
    code, out, err = forward["count --json"]
    assert (code, out) == (2, "") and "required: --sizes" in err
    assert forward["verify --sizes 2,2 --budget 5"][0] == 3
    assert forward["verify --sizes 2,2"][0] == 0
    # one parser, built by the first call of the process and kept
    assert parkseq.cli.build_parser.cache_info().misses == 1
    assert parkseq.cli.build_parser() is parkseq.cli.build_parser()


def test_a_call_is_parsed_once_by_its_subcommands_parser(capsys, monkeypatch):
    # the work done, counted: a call that starts with a subcommand runs one
    # argparse parse, by that subcommand's own parser, and the top-level
    # parser's parse_args never runs; a token left over sends the call
    # through the top-level parser as well, which exits 2 with its own usage
    parser, commands = parkseq.cli.build_parser()
    parsed, full = (
        counted(monkeypatch, argparse.ArgumentParser, name, lambda self, *args: self)
        for name in ("parse_known_args", "parse_args")
    )
    monkeypatch.setenv("COLUMNS", "80")
    assert run_cli(capsys, "count", "--sizes", "2,2,1") == (0, "30\n", "")
    assert parsed == [commands["count"]]
    assert full == []

    parsed.clear()
    with pytest.raises(SystemExit) as exc:
        main(["count", "--sizes", "2,2,1", "extra"])
    assert exc.value.code == 2
    assert capsys.readouterr() == (
        "",
        "usage: parkseq [-h] {simulate,count,verify,bijection,sample} ...\n"
        "parkseq: error: unrecognized arguments: extra\n",
    )
    assert parsed[:2] == [commands["count"], parser]
    assert full == [parser]


@pytest.mark.parametrize("as_json", [(), ("--json",)])
def test_verify_formats_each_report_once(monkeypatch, as_json):
    # the work done, counted: each of the sweep's 41 reports has its fields
    # written out once, and its text line is read off that dict
    made = counted(monkeypatch, parkseq.cli, "_report_dict")
    with contextlib.redirect_stdout(NullStdout()):
        assert main(["verify", "--max-cars", "3", "--max-total", "6", *as_json]) == 0
    assert len(made) == 41


def test_main_without_argv_reads_sys_argv(capsys, monkeypatch):
    # the console script's call: `parkseq count --sizes 2,2,1` is main()
    row = next(r for r in CLI_ROWS if r["argv"] == ["count", "--sizes", "2,2,1"])
    monkeypatch.setattr(sys, "argv", ["parkseq", *row["argv"]])
    code = main()
    out, err = capsys.readouterr()
    assert (code, out, err) == (row["exit_code"], row["stdout"], row["stderr"])


class TestProcessLevel:
    """End-to-end through the interpreter, exercising argparse's own exits."""

    # The children import this checkout and block-buffer their stdout, as
    # they do from a shell, whatever PYTHONUNBUFFERED the tests inherit;
    # usage text wraps at 80 columns, as in the cli rows.
    ENV = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    ENV.update(PYTHONPATH=SRC, COLUMNS="80")

    # No call here takes a second, so one still running after 10 s is stuck.
    def run(self, *argv, module="parkseq"):
        return subprocess.run(
            [sys.executable, "-m", module, *argv],
            capture_output=True, text=True, env=self.ENV, timeout=10,
        )

    @pytest.mark.parametrize("call", [
        "simulate --sizes 2,2", "bogus", "sample --sizes 2,2 --count 1",
        "count --sizes 2,2,1"])
    def test_argparse_exit_reaches_the_shell(self, call):
        # a missing flag, an unknown subcommand and the mandatory --seed:
        # argparse's own SystemExit(2), seen from outside the interpreter;
        # and a result, on stdout only. Each with the bytes of the call's
        # cli row where it has one
        proc = self.run(*call.split())
        got = (proc.returncode, proc.stdout, proc.stderr)
        if call == "bogus":
            assert_unknown_subcommand(*got)
        else:
            row = next(r for r in CLI_ROWS if r["argv"] == call.split())
            assert got == (row["exit_code"], row["stdout"], row["stderr"])

    @pytest.mark.parametrize("command, flavor, digits", [
        ("verify", "linear", 315653), ("bijection", "circular", 315654)])
    def test_refusal_on_the_most_cars_the_shell_passes(self, command, flavor, digits):
        # 65,536 unit cars, the longest --sizes one argv string holds (131,071
        # bytes, too long for a cli row): past the refusal's bound, the
        # domain is named by its digit count and the size vector by its
        # length, at once
        proc = self.run(command, "--sizes", ",".join(["1"] * 65536))
        assert (proc.returncode, proc.stdout, proc.stderr) == (
            3, "",
            f"budget exceeded: enumeration of sizes=<length 65536> ({flavor}) "
            f"needs <{digits} digits> tuples, budget is 100000000\n",
        )

    def test_parser_is_built_on_the_first_call_not_at_import(self):
        # count the argparse parsers made: none by the import, and none by
        # a second call
        script = (
            "import argparse, contextlib, io\n"
            "made = []\n"
            "init = argparse.ArgumentParser.__init__\n"
            "def counting_init(self, *args, **kwargs):\n"
            "    made.append(self)\n"
            "    init(self, *args, **kwargs)\n"
            "argparse.ArgumentParser.__init__ = counting_init\n"
            "import parkseq.cli\n"
            "counts = [len(made)]\n"
            "for _ in range(2):\n"
            "    with contextlib.redirect_stdout(io.StringIO()):\n"
            "        parkseq.cli.main(['count', '--sizes', '2,2,1'])\n"
            "    counts.append(len(made))\n"
            "print(*counts)\n"
        )
        proc = subprocess.run([sys.executable, "-c", script],
                              capture_output=True, text=True, env=self.ENV)
        assert proc.returncode == 0, proc.stderr
        at_import, after_first, after_second = map(int, proc.stdout.split())
        assert at_import == 0
        assert after_first == after_second > 0

    SAMPLE = ["sample", "--sizes", "2,1,3", "--count", "100000", "--seed", "7"]

    @pytest.mark.parametrize(
        "argv, keep, exit_code",
        [
            (SAMPLE, "line", 0),
            (SAMPLE + ["--json"], 64, 0),
            (["count", "--sizes", "2,2,1"], 0, 0),
            (["simulate", "--sizes", "2,2,2", "--prefs", "3,2,1"], 0, 1),
        ],
        ids=["sample", "sample-json", "count-unread", "collision-unread"],
    )
    def test_reader_that_stops_early_gets_no_traceback(self, argv, keep, exit_code):
        # `parkseq sample ... | head -1`: far more output than a pipe
        # buffers, and the reader closes its end after the first line (the
        # --json document is one line, so after 64 bytes); `parkseq count
        # | true`: the reader is gone before the output is flushed, and a
        # failure to park still exits 1.
        proc = subprocess.Popen(
            [sys.executable, "-m", "parkseq", *argv],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=self.ENV,
        )
        first = proc.stdout.readline() if keep == "line" else proc.stdout.read(keep)
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait(timeout=60) == exit_code
        assert err == b""
        if keep == "line":
            draw = PrefSequence(tuple(map(int, first.split(b","))), "linear")
            assert is_parking_sequence(SizeVector((2, 1, 3)), draw)
        elif keep:
            assert first.startswith(b'{"command": "sample", "sizes": [2, 1, 3]')

    @pytest.mark.parametrize("module", ["parkseq", "parkseq.cli"])
    def test_usage_error_exit_code_reaches_the_shell(self, module):
        proc = self.run("verify", "--sizes", "2,2", "--max-cars", "3",
                        "--max-total", "6", module=module)
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr.startswith("error:")
