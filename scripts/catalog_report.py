#!/usr/bin/env python3
"""Catalog summaries over a range of groups: module counts, degree
histograms, and isolation tallies."""

import argparse
from collections import Counter

from cohomrep import isolation as iso
from cohomrep import vz_catalog as vz

IS_ISOLATED = {"U": iso.is_isolated_U, "O": iso.is_isolated_O}


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--max-pq", type=int, default=16, help="largest p*q")
    args = ap.parse_args()

    print(f"{'group':>10} {'modules':>8} {'isolated':>9}  degree histogram")
    for p in range(1, args.max_pq + 1):
        for q in range(1, args.max_pq + 1):
            if p * q > args.max_pq:
                continue
            for kind in ("U", "O"):
                mods = vz.catalog(kind, p, q)
                hist = dict(sorted(Counter(m.degree for m in mods).items()))
                # the sign variants of an O partition share its pair, so each
                # pair is tested once and counts once per module
                modules_of = Counter(m.pair for m in mods)
                isolated = sum(n for pair, n in modules_of.items() if IS_ISOLATED[kind](pair))
                print(f"  {kind}({p},{q}) {len(mods):>8} {isolated:>9}  {hist}")


if __name__ == "__main__":
    main()
