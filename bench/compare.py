#!/usr/bin/env python3
"""Print the per-workload, per-metric change between two sets of benchmark runs.

    python3 bench/compare.py OLD.jsonl NEW.jsonl

Each file holds the records that ``run.py --out`` appends, one run per line
(traced and untraced runs may be mixed).  For each workload and metric in
both files it prints the median of each side, the spread of each side (the
distance between the quartiles as a share of the median), and the change of
the medians as a share of the old one.  End-to-end metrics are flagged
``WORSE`` when the change exceeds their bound in ``BENCHMARK.json``.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(path) -> dict:
    """(workload, metric) -> list of values over the file's runs."""
    values = defaultdict(list)
    with open(path) as fh:
        for line in fh:
            if line.strip():
                rec = json.loads(line)
                for name, m in rec["result"]["metrics"].items():
                    values[(rec["detail"]["workload"], name)].append(m["value"])
    return values


def spread(vals: list[float]) -> float:
    if len(vals) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(vals, n=4)
    med = statistics.median(vals)
    return (q3 - q1) / abs(med) if med else 0.0


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__.strip().splitlines()[2].strip(), file=sys.stderr)
        return 2
    old, new = load(argv[0]), load(argv[1])
    spec = {}
    bench_json = ROOT / "BENCHMARK.json"
    if bench_json.exists():
        b = json.loads(bench_json.read_text())
        spec = {m["name"]: m for m in b["end_to_end"] + b["per_layer"]}
    print(f"{'workload':<18} {'metric':<46} {'old':>12} {'new':>12} "
          f"{'old_iqr':>8} {'new_iqr':>8} {'delta':>8}")
    for key in sorted(old.keys() & new.keys()):
        o, n = statistics.median(old[key]), statistics.median(new[key])
        delta = (n - o) / abs(o) if o else 0.0
        flag = ""
        m = spec.get(key[1], {})
        if "bound" in m:
            worse = delta if m["better"] == "lower" else -delta
            flag = "WORSE" if worse > m["bound"] else "ok"
        print(f"{key[0]:<18} {key[1]:<46} {o:>12.6g} {n:>12.6g} "
              f"{spread(old[key]):>8.1%} {spread(new[key]):>8.1%} {delta:>+8.1%} {flag}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
