"""Run every row of the `cli` table in golden_streams.json through the
`parkseq` found on PATH, at 80 columns, and print each row whose exit code,
stdout or stderr differs. A row whose child runs out of time or dies
differs too. Exits 1 if any row differs. Needs Linux, for RLIMIT_AS.

    python tests/cli_table.py
"""

import json
import os
import resource
import subprocess
import sys

# Every row's child runs under this address-space limit, set in the child
# only. Holding a whole parking set or block table ends in MemoryError
# under it: the largest row, `bijection --sizes 3,2,1,1,1,1`, needs 48-51
# MiB on 3.10-3.13 and every other row under 22 MiB.
LIMIT_BYTES = 64 * 2**20
# No row takes 2 s, so a call still running after this is stuck.
TIMEOUT_S = 10


def limit_address_space():
    resource.setrlimit(resource.RLIMIT_AS, (LIMIT_BYTES, LIMIT_BYTES))


with open(os.path.join(os.path.dirname(__file__), "golden_streams.json")) as f:
    rows = json.load(f)["cli"]
env = dict(os.environ, COLUMNS="80")
differ = 0
for row in rows:
    try:
        proc = subprocess.run(["parkseq", *row["argv"]], capture_output=True, text=True,
                              env=env, timeout=TIMEOUT_S, preexec_fn=limit_address_space)
        got = (proc.returncode, proc.stdout, proc.stderr)
    except subprocess.TimeoutExpired:
        got = (f"none, timed out after {TIMEOUT_S} s", "", "")
    if got != (row["exit_code"], row["stdout"], row["stderr"]):
        differ += 1
        print(f"differs: parkseq {' '.join(row['argv'])}")
        print(f"  exit code {got[0]}, want {row['exit_code']}")
        print(f"  stdout {got[1]!r}\n  want   {row['stdout']!r}")
        print(f"  stderr {got[2]!r}\n  want   {row['stderr']!r}")
print(f"{len(rows) - differ} of {len(rows)} rows match")
sys.exit(1 if differ else 0)
