"""Run every row of the mutant table. A row breaks one kernel: it replaces
one exact text in one module of src/parkseq, in a temporary copy of src/,
tests/ and pyproject.toml, and runs the test nodes it names there with
`python -m pytest -x -q`, which must fail. First every row's nodes are run
on the unchanged copy, and must pass. Prints each row whose text is not
found exactly once in its module, whose nodes do not run, or whose mutant
survives, and exits 1 if there is any. Stdlib only:

    python tests/mutant_table.py

A mutant that changes neither an output nor a counted work is equivalent
and is not a row. A surviving mutant is a missing witness: add the test
that kills it, and keep the row.
"""

import os
import shutil
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# (module, text, replacement, the test nodes that must fail on it)
ROWS = [
    # _groups: the run past the last free spot wraps also when it is one
    # preference long, and the next run starts just past the free spot
    ("bruteforce", "    if wrap and lo <= base:", "    if wrap and lo < base:",
     ["tests/test_bruteforce.py::test_groups_are_the_literal_step"]),
    ("bruteforce", "        lo = j + 1\n", "        lo = j\n",
     ["tests/test_bruteforce.py::test_groups_are_the_literal_step"]),
    # _fit: the last, short doubling shift one spot too long
    ("bruteforce", "min(1 << k, size - (1 << k))", "min(1 << k, size + 1 - (1 << k))",
     ["tests/test_bruteforce.py::test_fit_mask_is_the_literal_rule"]),
    # _tally's unit-car loop: the reach of each free spot counted from the
    # first, and on the circle the wrapped run one preference short
    ("bruteforce", "                    prev = j\n", "",
     ["tests/test_bruteforce.py::test_tally_matches_prefix_reference",
      "tests/test_bruteforce.py::test_tally_at_the_oracle_edge"]),
    ("bruteforce", "prev = free.bit_length() - base", "prev = free.bit_length() - base + 1",
     ["tests/test_bruteforce.py::test_tally_matches_prefix_reference",
      "tests/test_bruteforce.py::test_tally_at_the_oracle_edge"]),
    # _tally's last car on the line: a one-block test that never passes,
    # and the reach above the highest start whose block ends in the lot
    # counted as collisions, not past the end
    ("bruteforce", "if not free & (free + low):", "if not free & low:",
     ["tests/test_bruteforce.py::test_tally_matches_prefix_reference",
      "tests/test_bruteforce.py::test_tally_at_the_oracle_edge"]),
    ("bruteforce",
     "                parked += count * low.bit_length()\n"
     "            tried += count * (free & room).bit_length()",
     "                parked += count * low.bit_length()\n"
     "            tried += count * free.bit_length()",
     ["tests/test_bruteforce.py::test_tally_matches_prefix_reference",
      "tests/test_bruteforce.py::test_tally_at_the_oracle_edge"]),
    # _tally on the circle: trailing cars of size 2 scaled as if they always parked
    ("bruteforce", "rest[-1] == 1", "rest[-1] <= 2",
     ["tests/test_bruteforce.py::test_tally_matches_prefix_reference",
      "tests/test_bruteforce.py::test_tally_at_the_oracle_edge"]),
    # the walk's prune of a last car that parks from no start, weakened:
    # the runs are the same, so only the counted work sees it
    ("bruteforce", "if size > 1 and not parks(child):", "if size > 2 and not parks(child):",
     ["tests/test_bruteforce.py::test_walk_prunes_for_a_last_car_of_size_two"]),
    # _option_counts: car i's n + 2 - i open cells shifted to n + 3 - i
    ("counting", "direct = range(sizes.n, 1, -1)", "direct = range(sizes.n + 1, 2, -1)",
     ["tests/test_counting.py::test_count_linear",
      "tests/test_counting.py::test_option_count_worked_example"]),
    # _draw: a code equal to its option count kept, and a code drawn one
    # bit wider than randrange draws it
    ("divider", "        while r >= k:", "        while r > k:",
     ["tests/test_divider.py::TestDrawIsRandrange::test_small_vectors",
      "tests/test_divider.py::test_samplers_and_decode_run_the_walk_bijection_checks_runs"]),
    ("divider", "width = k.bit_length()", "width = k.bit_length() + 1",
     ["tests/test_divider.py::TestDrawIsRandrange::test_small_vectors",
      "tests/test_divider.py::TestGoldenStreams"]),
    # _walk: car i's direct picks shifted by one
    ("divider", "        direct = n + 2 - i\n        if r < direct:",
     "        direct = n + 1 - i\n        if r < direct:",
     ["tests/test_divider.py::TestOptionEnumeration::test_core_outputs_are_pinned",
      "tests/test_divider.py::TestOptionEnumeration::test_encode_inverts_the_walk"]),
]


def copy_tree(dest):
    ignore = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache")
    for name in ("src", "tests"):
        shutil.copytree(os.path.join(ROOT, name), os.path.join(dest, name), ignore=ignore)
    shutil.copy(os.path.join(ROOT, "pyproject.toml"), dest)


def run_nodes(tree, nodes):
    """pytest's exit code on `nodes` in `tree`: 0 all passed, 1 some
    failed, anything else that they did not run."""
    env = dict(os.environ, PYTHONPATH=os.path.join(tree, "src"), PYTHONDONTWRITEBYTECODE="1")
    return subprocess.run(
        [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *nodes],
        cwd=tree, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
    ).returncode


def main():
    bad = 0
    with tempfile.TemporaryDirectory() as tree:
        copy_tree(tree)
        nodes = sorted({node for *_, row_nodes in ROWS for node in row_nodes})
        code = run_nodes(tree, nodes)
        if code != 0:
            print(f"the unchanged source fails the table's nodes (pytest exit {code})")
            return 1
        for module, text, replacement, row_nodes in ROWS:
            path = os.path.join(tree, "src", "parkseq", module + ".py")
            with open(path) as f:
                source = f.read()
            row = f"{module}: {text.strip()!r} -> {replacement.strip()!r}"
            found = source.count(text)
            if found != 1:
                bad += 1
                print(f"text found {found} times: {row}")
                continue
            with open(path, "w") as f:
                f.write(source.replace(text, replacement))
            try:
                code = run_nodes(tree, row_nodes)
            finally:
                with open(path, "w") as f:
                    f.write(source)
            if code == 1:
                print(f"killed: {row}")
            else:
                bad += 1
                why = "survived" if code == 0 else f"nodes did not run (pytest exit {code})"
                print(f"{why}: {row}")
    print(f"{len(ROWS) - bad} of {len(ROWS)} rows killed")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
