#!/usr/bin/env python3
"""Write golden.json: sha256 digests of every output the benchmark checks.

Run from the repository root, only at a commit whose outputs are trusted
(the digests were recorded at the commit that introduced the benchmark):

    python3 perfbench/record_golden.py
"""

from __future__ import annotations

import json
import sys

import run


def main() -> int:
    cli = run.load_qfano()
    run.WORK.mkdir(exist_ok=True)
    db_path = str(run.WORK / "golden.json")
    golden: dict[str, str] = {}
    for argv in run.distinct_ops():
        _, stdout = run.run_op(cli, argv, db_path)
        if stdout is None:
            return 1
        golden[run.golden_key(argv)] = run.digest(stdout)
        if argv[0] == "enumerate":
            golden["candidates"] = run.candidates_digest(db_path)
    with open(run.GOLDEN_PATH, "w", encoding="utf-8") as handle:
        json.dump(golden, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"{len(golden)} digests -> {run.GOLDEN_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
