"""Test-only oracle for compatible-pair enumeration.

The library builds every compatible pair from one level word.  This module
keeps the former route, which shares no code with that walk: decompose the
skew row by row into maximal runs of equal (lam_i, mu_i), and scan all
C(p+q, p)^2 pairs of partitions in the box.
"""

import itertools

from cohomrep.partitions import BoxContext, CompatiblePair, contains, pad, partitions_in_box, weight


def skew_rects(lam, mu, p):
    """Rectangles of mu/lam top down, one per maximal run of rows with equal
    (lam_i, mu_i) and lam_i < mu_i, or None when two vertically adjacent
    rectangles would share an edge (mu below > lam above)."""
    lp, mp = pad(lam, p), pad(mu, p)
    rects = []
    above = None  # lam_i of the run directly above, when that run was nonempty
    i = 0
    while i < p:
        j = i
        while j + 1 < p and (lp[j + 1], mp[j + 1]) == (lp[i], mp[i]):
            j += 1
        if lp[i] == mp[i]:
            above = None
        elif above is not None and mp[i] > above:
            return None
        else:
            rects.append((j - i + 1, mp[i] - lp[i]))
            above = lp[i]
        i = j + 1
    return tuple(rects)


def all_pairs_compatible(ctx: BoxContext) -> list:
    """Every compatible pair of the box, found by testing all nested pairs,
    ordered by (|lam|, lam, mu)."""
    parts = sorted(partitions_in_box(ctx.p, ctx.q))
    out = []
    for lam, mu in itertools.product(parts, parts):
        if contains(mu, lam):
            rects = skew_rects(lam, mu, ctx.p)
            if rects is not None:
                out.append(CompatiblePair(lam, mu, ctx, rects))
    out.sort(key=lambda c: (weight(c.lam), c.lam, c.mu))
    return out
