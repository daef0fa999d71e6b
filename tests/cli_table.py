"""Run every row of the `cli` table in golden_streams.json through the
`parkseq` found on PATH, at 80 columns, and print each row whose exit code,
stdout or stderr differs. Exits 1 if any row differs.

    python tests/cli_table.py
"""

import json
import os
import subprocess
import sys

with open(os.path.join(os.path.dirname(__file__), "golden_streams.json")) as f:
    rows = json.load(f)["cli"]
env = dict(os.environ, COLUMNS="80")
differ = 0
for row in rows:
    got = subprocess.run(["parkseq", *row["argv"]], capture_output=True, text=True, env=env)
    if (got.returncode, got.stdout, got.stderr) != (row["exit_code"], row["stdout"], row["stderr"]):
        differ += 1
        print(f"differs: parkseq {' '.join(row['argv'])}")
        print(f"  exit code {got.returncode}, want {row['exit_code']}")
        print(f"  stdout {got.stdout!r}\n  want   {row['stdout']!r}")
        print(f"  stderr {got.stderr!r}\n  want   {row['stderr']!r}")
print(f"{len(rows) - differ} of {len(rows)} rows match")
sys.exit(1 if differ else 0)
