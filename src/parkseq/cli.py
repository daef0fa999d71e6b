"""Command-line front end.

Exit codes: 0 success / all checks pass, 1 valid-input negative result
(failure to park, formula mismatch, failed bijection check), 2 usage
error, 3 enumeration budget refusal. A reader that closes stdout early
(`parkseq sample ... | head -1`, `parkseq count ... | true`) gets
nothing on stderr, and the rest of the output is dropped. The call ends
with the code of its result when that was already reached (a failure to
park still exits 1), and with 0 when the pipe broke while the command
was still printing.

JSON output is one document per invocation with top-level keys "command",
"sizes", "flavor" plus a command-specific payload. Counts are serialized
as decimal strings so 64-bit-limited JSON readers cannot truncate them.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import os
import re
import sys
from random import Random
from typing import Callable, Sequence

from .bruteforce import (
    DEFAULT_BUDGET,
    BudgetExceededError,
    EnumerationReport,
    bijection_checks,
    verify,
    verify_sweep,
)
from .circular import empty_spot, simulate_circular, wrap_spot
from .core import (
    Collision,
    Parked,
    PastEnd,
    PrefSequence,
    SizeVector,
    _ints,
    simulate_linear,
)
from .counting import _decimal, count_circular, count_linear
from .divider import sample_circular, sample_linear

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3


def _past_limit(text: str) -> str | None:
    """Why int() refused `text` when the text is an integer, which can only
    be for more digits than the interpreter's int-to-str limit: its digit
    count, not the text. None for a text that is not an integer."""
    integer = re.fullmatch(r"\s*[+-]?(\d+(?:_\d+)*)\s*", text)
    if integer is None:
        return None
    digits = len(integer[1].replace("_", ""))
    return (f"an integer of {digits} digits, past this interpreter's limit "
            f"of {sys.get_int_max_str_digits()} digits")


def _parse_int_list(text: str, what: str) -> tuple[int, ...]:
    values = []
    for part in text.split(","):
        try:
            values.append(int(part))
        except ValueError:
            why = _past_limit(part)
            if why is None:
                raise ValueError(f"{what} must be comma-separated integers, got {text!r}")
            raise ValueError(f"{what} holds {why}")
    return tuple(values)


class _PastLimit(Exception):
    """An integer flag past the int-to-str limit. Not a ValueError, which
    argparse would turn into its usage and the whole text: `main` writes
    it on one line."""


def _int_flag(flag: str) -> Callable[[str], int]:
    """The `type` of an integer flag: int, but refusing an integer past the
    int-to-str limit by its digit count. Named `int`, which argparse's
    "invalid int value" error writes."""

    def parse(text: str) -> int:
        try:
            return int(text)
        except ValueError:
            why = _past_limit(text)
            if why is None:
                raise
            raise _PastLimit(f"{flag} is {why}") from None

    parse.__name__ = "int"
    return parse


class _AnyDigits:
    """Lifts the int-to-str digit limit inside a `with` block, in which a
    command writes spots and preferences. Each is at most the lot M, which
    sums sizes the limit admitted, so it has only a few more digits than
    the limit and costs microseconds to write. Input is parsed before,
    under the limit; the limit is the interpreter's, so it is lifted for
    the whole process. A class, not `contextlib.contextmanager`, which
    costs about four times as much per block."""

    def __enter__(self) -> None:
        self.limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)

    def __exit__(self, *exc: object) -> None:
        sys.set_int_max_str_digits(self.limit)


def _emit(payload: dict, as_json: bool, human_lines: list[str]) -> None:
    if as_json:
        print(json.dumps(payload))
    else:
        for line in human_lines:
            print(line)


def cmd_simulate(args: argparse.Namespace) -> int:
    sizes = SizeVector(_parse_int_list(args.sizes, "--sizes"))
    flavor = args.flavor
    prefs = PrefSequence(_parse_int_list(args.prefs, "--prefs"), flavor)
    simulate = simulate_circular if flavor == "circular" else simulate_linear
    result = simulate(sizes, prefs)
    payload: dict = {"command": "simulate", "sizes": list(sizes.sizes), "flavor": flavor}
    lines: list[str] = []
    # spots are at most M, which can be past the digit limit
    with _AnyDigits():
        if isinstance(result, Parked):
            layout = result.layout
            m = sizes.circle_size
            records = []
            for car, (s, y) in enumerate(zip(layout.starts, sizes.sizes), start=1):
                end = wrap_spot(s + y - 1, m)  # on the line s + y - 1 <= T < M
                records.append({"car": car, "start": s, "end": end})
            records.sort(key=lambda r: r["start"])
            payload["result"] = "parked"
            payload["layout"] = records
            lines.append("parked")
            for r in records:
                lines.append(f"  C{r['car']} @ {r['start']}-{r['end']}")
            if flavor == "circular":
                e = empty_spot(layout)
                payload["empty_spot"] = e
                lines.append(f"  empty spot: {e}")
            code = EXIT_OK
        elif isinstance(result, Collision):
            payload.update(result="collision", **dataclasses.asdict(result))
            lines.append(
                f"collision: car {result.car} found spot {result.first_empty} empty "
                f"but spot {result.blocked} is taken"
            )
            code = EXIT_NEGATIVE
        else:
            assert isinstance(result, PastEnd)
            payload.update(result="past_end", **dataclasses.asdict(result))
            lines.append(f"past end: car {result.car} drove past the end of the lot")
            code = EXIT_NEGATIVE
        _emit(payload, args.json, lines)
    return code


def cmd_count(args: argparse.Namespace) -> int:
    sizes = SizeVector(_parse_int_list(args.sizes, "--sizes"))
    flavor = args.flavor
    value = count_circular(sizes) if flavor == "circular" else count_linear(sizes)
    digits = _decimal(value)
    payload = {
        "command": "count",
        "sizes": list(sizes.sizes),
        "flavor": flavor,
        "count": digits,
    }
    _emit(payload, args.json, [digits])
    return EXIT_OK


def _report_dict(report: EnumerationReport) -> dict:
    return {
        "sizes": list(report.sizes.sizes),
        "flavor": report.flavor,
        "total_tuples": _decimal(report.total_tuples),
        "parked": _decimal(report.parked),
        "collisions": _decimal(report.collisions),
        "past_end": _decimal(report.past_end),
        "formula": _decimal(report.formula_value),
        "match": report.match,
    }


def _report_line(d: dict) -> str:
    verdict = "MATCH" if d["match"] else "MISMATCH"
    return (
        f"sizes={','.join(map(str, d['sizes']))} ({d['flavor']}): "
        f"{d['total_tuples']} tuples, {d['parked']} parked, "
        f"{d['collisions']} collisions, {d['past_end']} past-end, "
        f"formula {d['formula']}, {verdict}"
    )


def cmd_verify(args: argparse.Namespace) -> int:
    flavor = args.flavor
    if args.sizes is not None and (
        args.max_cars is not None or args.max_total is not None
    ):
        raise ValueError("--sizes cannot be combined with --max-cars or --max-total")
    if args.sizes is not None:
        sizes = SizeVector(_parse_int_list(args.sizes, "--sizes"))
        reports = [verify(sizes, flavor, budget=args.budget)]
    elif args.max_cars is not None and args.max_total is not None:
        reports = verify_sweep(args.max_cars, args.max_total, flavor, budget=args.budget)
    else:
        raise ValueError("provide --sizes or both --max-cars and --max-total")
    all_match = all(r.match for r in reports)
    dicts = [_report_dict(r) for r in reports]
    payload = {
        "command": "verify",
        "sizes": [list(r.sizes.sizes) for r in reports],
        "flavor": flavor,
        "reports": dicts,
        "all_match": all_match,
    }
    lines = [_report_line(d) for d in dicts]
    lines.append("all match" if all_match else "MISMATCH DETECTED")
    _emit(payload, args.json, lines)
    return EXIT_OK if all_match else EXIT_NEGATIVE


def cmd_bijection(args: argparse.Namespace) -> int:
    sizes = SizeVector(_parse_int_list(args.sizes, "--sizes"))
    report = bijection_checks(sizes, budget=args.budget)
    checks = report.checks
    payload = {
        "command": "bijection",
        "sizes": list(sizes.sizes),
        "flavor": "circular",
        "option_sequences": _decimal(report.option_sequences),
        "distinct_decodes": _decimal(report.distinct_decodes),
        "circular_parking_sequences": _decimal(report.circular_parking_sequences),
        "linear_parking_sequences": _decimal(report.linear_parking_sequences),
        "checks": checks,
        "all_pass": report.all_pass,
    }
    lines = [
        f"option sequences: {payload['option_sequences']}",
        f"distinct decodes: {payload['distinct_decodes']}",
        "circular parking sequences (brute force): "
        f"{payload['circular_parking_sequences']}",
        "linear parking sequences (brute force): "
        f"{payload['linear_parking_sequences']}",
    ]
    for name, ok in checks.items():
        lines.append(f"{name}: {'pass' if ok else 'FAIL'}")
    lines.append("all pass" if report.all_pass else "FAILED")
    _emit(payload, args.json, lines)
    return EXIT_OK if report.all_pass else EXIT_NEGATIVE


def cmd_sample(args: argparse.Namespace) -> int:
    """Print each draw as it is drawn; no draw is held after it is printed.

    The --json document streams too, byte for byte what json.dumps prints
    for the whole payload.
    """
    sizes = SizeVector(_parse_int_list(args.sizes, "--sizes"))
    flavor = args.flavor
    _ints((args.count,), "--count must be >= 0", lo=0)
    rng = Random(args.seed)
    draw = sample_circular if flavor == "circular" else sample_linear
    draws = (draw(sizes, rng).prefs for _ in range(args.count))
    # preferences are at most M, which can be past the digit limit
    with _AnyDigits():
        if not args.json:
            for prefs in draws:
                print(",".join(map(str, prefs)))
            return EXIT_OK
        head = json.dumps({
            "command": "sample",
            "sizes": list(sizes.sizes),
            "flavor": flavor,
            "seed": args.seed,
            "count": args.count,
            "samples": [],
        })
        print(head[:-2], end="")  # up to and including the samples' "["
        for k, prefs in enumerate(draws):
            print(", " if k else "", json.dumps(prefs), sep="", end="")
        print("]}")
    return EXIT_OK


@functools.cache
def build_parser() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The `parkseq` parser and each subcommand's own parser by name (the
    `choices` of its subparsers action), built once per process, on the
    first `main` call, and reused by every later one; nothing is built at
    import.

    Each subcommand's `cmd_*` is bound through `set_defaults(func=...)`
    when the parser is built, so patching `cli.cmd_*` after that first
    call has no effect. The module globals a command calls (`cli.verify`,
    `cli.bijection_checks`, ...) are looked up on every call and can still
    be patched.
    """
    parser = argparse.ArgumentParser(
        prog="parkseq",
        description="Exact combinatorics of parking sequences for cars of different sizes.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def common(p: argparse.ArgumentParser, sizes_required: bool = True,
               flavored: bool = True) -> None:
        p.add_argument("--sizes", required=sizes_required,
                       help="comma-separated car sizes, e.g. 2,2,1")
        if flavored:
            p.add_argument("--circular", dest="flavor", action="store_const",
                           const="circular", default="linear",
                           help="use the circular lot of T+1 spots")
        p.add_argument("--json", action="store_true",
                       help="machine-readable output (one JSON document)")

    p = sub.add_parser("simulate", help="run the parking rule on one preference tuple")
    common(p)
    p.add_argument("--prefs", required=True,
                   help="comma-separated preferred spots, e.g. 2,3,1")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("count", help="closed-form number of parking sequences")
    common(p)
    p.set_defaults(func=cmd_count)

    p = sub.add_parser("verify", help="brute-force check of the closed form")
    common(p, sizes_required=False)
    p.add_argument("--max-cars", type=_int_flag("--max-cars"),
                   help="sweep bound on the number of cars")
    p.add_argument("--max-total", type=_int_flag("--max-total"),
                   help="sweep bound on the total size")
    p.add_argument("--budget", type=_int_flag("--budget"), default=DEFAULT_BUDGET,
                   help="maximum tuples per instance (default %(default)s)")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("bijection",
                       help="exhaustively check the divider decoder is a bijection")
    common(p, flavored=False)
    p.add_argument("--budget", type=_int_flag("--budget"), default=DEFAULT_BUDGET,
                   help="maximum tuples (default %(default)s)")
    p.set_defaults(func=cmd_bijection)

    p = sub.add_parser("sample", help="draw exactly-uniform parking sequences")
    common(p)
    p.add_argument("--count", type=_int_flag("--count"), required=True,
                   help="number of draws")
    p.add_argument("--seed", type=_int_flag("--seed"), required=True,
                   help="random seed (mandatory)")
    p.set_defaults(func=cmd_sample)

    return parser, sub.choices


def main(argv: Sequence[str] | None = None) -> int:
    """Run one `parkseq` call; `argv` defaults to `sys.argv[1:]`.

    A call that starts with a subcommand is parsed once, by that
    subcommand's parser. The top-level parser parses only the argv that do
    not start with one (none, `--help`, an unknown name) or that leave
    tokens over, and prints its usage and error for them.
    """
    parser, commands = build_parser()
    if argv is None:
        argv = sys.argv[1:]
    command = commands.get(argv[0]) if argv else None
    code = EXIT_OK
    try:
        args, rest = command.parse_known_args(argv[1:]) if command else (None, argv)
        if args is None or rest:
            args = parser.parse_args(argv)
        code = args.func(args)
        # flushed here, so that a reader gone before the end of a short
        # output is seen below and not at the interpreter's exit
        sys.stdout.flush()
        return code
    except BudgetExceededError as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except (ValueError, _PastLimit) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except BrokenPipeError:
        # Point stdout at devnull, so that what is still buffered, flushed
        # at exit, does not raise a second time.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return code


if __name__ == "__main__":
    sys.exit(main())
