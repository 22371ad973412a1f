#!/usr/bin/env python3
"""Write expected.json: every operation's output on the current sepcheck.

    python3 bench/record_expected.py

Run it only on a commit whose outputs are trusted; the benchmark then
counts any later difference as a failed operation.
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import workloads  # noqa: E402


def main() -> int:
    workdir = BENCH.parent / ".bench_work" / "record"
    sc = workloads.import_sepcheck(BENCH.parent / "src")
    expected = {}
    try:
        for workload in workloads.WORKLOADS:
            ops = workloads.build_operations(sc, workload, 0, workdir)
            expected[workload] = {name: op()[0] for name, op in ops}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    with open(workloads.EXPECTED_PATH, "w") as fh:
        json.dump(expected, fh, indent=1, sort_keys=True, ensure_ascii=False)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
