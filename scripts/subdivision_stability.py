#!/usr/bin/env python3
"""Stress the complement oracle under repeated barycentric subdivision.

For each analyzable catalog instance, counts complement components of the
image at subdivision levels 0..K and reports whether the count is stable
(it must be: the complement's homotopy type is a subdivision invariant).
Each line gives the oracle time at that level and, from level 1 on, the
time of the ``subdivide_map`` call that produced it.
"""

import argparse
import sys
import time

from sepcheck.catalog import build_catalog
from sepcheck.maps import image_subcomplex, subdivide_map
from sepcheck.separation import complement_components_oracle


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--levels", type=int, default=1,
                    help="number of subdivision levels to test (default 1)")
    ap.add_argument("--skip", action="append", default=[],
                    help="entry ids to skip (repeatable)")
    args = ap.parse_args()

    stable = True
    for cid, entry in sorted(build_catalog().items()):
        if cid in args.skip:
            continue
        f = entry.map
        counts = []
        subdivided = ""
        for level in range(args.levels + 1):
            if level:
                t0 = time.perf_counter()
                # hold the subdivided complexes only through f, so that they
                # are freed at the next entry, outside every timer
                f = subdivide_map(f)[0]
                subdivided = f", subdivide_map {time.perf_counter() - t0:.3f}s"
            t0 = time.perf_counter()
            counts.append(
                complement_components_oracle(f.codomain, image_subcomplex(f)))
            dt = time.perf_counter() - t0
            print(f"{cid:24s} level={level} beta0={counts[-1]} "
                  f"(oracle {dt:.3f}s{subdivided})")
        if len(set(counts)) != 1:
            print(f"{cid}: UNSTABLE {counts}")
            stable = False
    print("stable under subdivision" if stable else "INSTABILITY DETECTED")
    return 0 if stable else 1


if __name__ == "__main__":
    sys.exit(main())
