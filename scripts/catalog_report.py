#!/usr/bin/env python3
"""Catalog summaries over a range of groups: module counts, degree
histograms, and isolation tallies."""

import argparse
from collections import Counter

from cohomrep import isolation as iso
from cohomrep import partitions as pt
from cohomrep import vz_catalog as vz
from cohomrep.partitions import BoxContext


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--max-pq", type=int, default=16, help="largest p*q")
    args = ap.parse_args()

    print(f"{'group':>10} {'modules':>8} {'isolated':>9}  degree histogram")
    for p in range(1, args.max_pq + 1):
        for q in range(1, args.max_pq + 1):
            if p * q > args.max_pq:
                continue
            ctx = BoxContext(p, q)
            for kind in ("U", "O"):
                mods = vz.catalog(kind, p, q)
                hist = dict(sorted(Counter(m.degree for m in mods).items()))
                if kind == "U":
                    isolated = sum(iso.is_isolated_U(pt.compatible_pair(m.lam, m.mu, ctx)) for m in mods)
                else:
                    isolated = sum(iso.is_isolated_O(pt.ortho_classify(m.lam, ctx)) for m in mods)
                print(f"  {kind}({p},{q}) {len(mods):>8} {isolated:>9}  {hist}")


if __name__ == "__main__":
    main()
