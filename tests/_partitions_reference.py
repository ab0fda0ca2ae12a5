"""Test-only oracles for compatible-pair and orthogonal enumeration.

The library builds every compatible pair from one level word, and both
enumerations from a bottom-up table of sub-box pairs.  This module keeps two
former routes.  The first shares no code with the level word: decompose the
skew row by row into maximal runs of equal (lam_i, mu_i), and scan all
C(p+q, p)^2 pairs of partitions in the box.  The second is the recursive walk
over the level words themselves, each word read back into its pair.
"""

import itertools

from cohomrep.partitions import (BoxContext, CompatiblePair, _is_level, _orthogonal, _pair_of_word,
                                 _rects, contains, pad, partitions_in_box, weight)


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


def level_words(p, q):
    """Every level word with p rows and q columns, each once.  Each maps to a
    distinct compatible pair of the p x q box, and each pair arises."""
    if not p and not q:
        yield ()
        return
    for a in range(p + 1):
        for b in range(q + 1):
            if _is_level(a, b):
                for rest in level_words(p - a, q - b):
                    yield ((a, b),) + rest


def compatible_by_words(ctx: BoxContext) -> list:
    """All compatible pairs in the box, one per level word, ordered by
    (|lam|, lam, mu)."""
    out = [CompatiblePair(*_pair_of_word(word, ctx.q), ctx, _rects(word))
           for word in level_words(ctx.p, ctx.q)]
    out.sort(key=lambda c: (weight(c.lam), c.lam, c.mu))
    return out


def orthogonal_by_words(ctx: BoxContext) -> list:
    """All orthogonal partitions in the box, one per palindromic level word
    (a half word, its mirror image and between them at most one central
    level), ordered by (|lam|, lam)."""
    p, q = ctx.p, ctx.q
    out = []
    for a in range(p // 2 + 1):
        for b in range(q // 2 + 1):
            centre = (p - 2 * a, q - 2 * b)
            if centre != (0, 0) and not _is_level(*centre):
                continue
            mid = (centre,) if centre != (0, 0) else ()
            for half in level_words(a, b):
                word = half + mid + half[::-1]
                out.append(_orthogonal(_pair_of_word(word, q)[0], _rects(word), ctx))
    out.sort(key=lambda o: (weight(o.lam), o.lam))
    return out
