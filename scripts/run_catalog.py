#!/usr/bin/env python3
"""Run the full separation/obstruction analysis over every catalog entry.

Writes one JSON report per entry (optionally to a directory) and prints a
one-line summary per instance plus a final verdict line.
"""

import argparse
import json
import os
import sys

from sepcheck.catalog import build_catalog
from sepcheck.cli import EXIT_OK, EXIT_REFUSED, _subdivided, analyze_instance


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", help="directory for per-entry JSON reports")
    ap.add_argument("--subdivide", type=int, default=0, metavar="K",
                    help="apply K barycentric subdivisions before analysis")
    args = ap.parse_args()

    if args.out:
        os.makedirs(args.out, exist_ok=True)

    worst = EXIT_OK
    for cid, entry in sorted(build_catalog().items()):
        f = _subdivided(entry.map, args.subdivide)
        report, code = analyze_instance(f)
        sep = report["separation"]
        if "refused" in sep:
            line = f"refused ({sep['refused']})"
        else:
            line = (f"beta0 formula={sep['beta0_formula']} "
                    f"oracle={sep['beta0_oracle']} "
                    f"agreement={sep['agreement']}")
        print(f"{cid:24s} exit={code} {line}")
        if args.out:
            with open(os.path.join(args.out, f"{cid}.json"), "w") as fh:
                json.dump(report, fh, ensure_ascii=False, indent=2)
                fh.write("\n")
        # a hypothesis refusal on a negative-control entry is expected
        worst = max(worst, code if code != EXIT_REFUSED else EXIT_OK)
    print("all hard assertions passed" if worst == EXIT_OK else "FAILURES present")
    return worst


if __name__ == "__main__":
    sys.exit(main())
