"""Test-only oracles for compatible-pair and orthogonal enumeration.

The library reads a pair's levels off its row runs in one walk
(`partitions._runs`), behind the compatibility test, the orthogonal
classifier, the witness vector and the O torus chain, and builds both
enumerations from the same rules read forwards: the compatible mu of a lam
are a product of one choice per run of equal rows of lam (free rows, or one
tie block on top), and the orthogonal partitions are read off the pairs of
the half-size sub-boxes.  This module keeps
the level word the walk replaced (`level_word`) and the former routes built
on it.  The first is the level-word round trip: a nested pair is compatible
iff its level word reads back as the pair, and the tie blocks of the word
are its rectangles; `all_pairs_compatible` applies it to all C(p+q, p)^2
pairs of partitions in the box, and `ortho_classify_by_complement` to the
pair (lam, complement(lam)), built as a partition.  `merged_word` is the
word with consecutive free rows and free columns merged, which the walk
returns.  The second is the recursive walk over the level words
themselves, each word read back into its pair.  `witness_by_word` gives
level k of the word the value p + q - k, as `partitions.build_witness_X`
did from the word.

`runs_by_groupby` is the former body of `partitions._runs`, one `groupby`
pass over the runs of rows with equal (lam_i, mu_i), which the plain loop
of `_runs` replaced.

It also keeps the former forms of two O-path helpers, as oracles:
`even_type_by_conjugate` reads the column corner of an even orthogonal
partition off its conjugate, where `partitions._even_type` tests whether a
row has s boxes, and `torus_chain_by_sort` walks the whole level word and
sorts the chain, where `isolation._torus_chain` emits it in order from the
first levels.  `contains` is the oracles' own containment test, row by row.
"""

import itertools

from cohomrep.partitions import (BoxContext, CompatiblePair, OrthoPartition, _is_level, _orthogonal, as_partition,
                                 complement, conjugate, pad, part, partitions_in_box, weight)


def contains(outer, inner) -> bool:
    """Whether the diagram of inner lies inside that of outer, row by row."""
    return all(part(outer, i) >= v for i, v in enumerate(inner, 1))


def level_word(lam, mu, p, q):
    """Level word of a nested pair lam <= mu in the p x q box: row i comes
    next when column j lies inside lam_i, column j when it lies beyond mu_i,
    else a tie block of the rows sharing (lam_i, mu_i) and the columns down
    to lam_i + 1.  For a compatible pair the tie blocks are its rectangles."""
    lam, mu = pad(lam, p), pad(mu, p)
    word = []
    i, j = 0, q  # rows above i and columns right of j are placed
    while i < p:
        if j <= lam[i]:
            word.append((1, 0))
            i += 1
        elif j > mu[i]:
            word.append((0, 1))
            j -= 1
        else:
            first = i
            while i < p and (lam[i], mu[i]) == (lam[first], mu[first]):
                i += 1
            word.append((i - first, j - lam[first]))
            j = lam[first]
    return tuple(word) + ((0, 1),) * j


def witness_by_word(cp: CompatiblePair):
    """The witness vector (xs ; ys), y_q first reversed to y_1 last: level k
    of the pair's level word gives its rows and columns p + q - k."""
    p, q = cp.ctx.p, cp.ctx.q
    xs, ys = [], []  # y_q first
    for k, (a, b) in enumerate(level_word(cp.lam, cp.mu, p, q)):
        xs += [p + q - k] * a
        ys += [p + q - k] * b
    return tuple(xs), tuple(reversed(ys))


def pair_of_word(word, q):
    """(lam, mu) of a level word: the rows of a level with b columns, below
    levels holding c columns, have lam_i = q - c - b and mu_i = q - c."""
    lam = []
    mu = []
    top = q
    for a, b in word:
        # parts weakly decrease, so skipping zero parts strips trailing zeros
        if top > b:
            lam += [top - b] * a
        if top:
            mu += [top] * a
        top -= b
    return tuple(lam), tuple(mu)


def word_rects(word):
    """The skew rectangles of a pair, top down: the tie blocks of its word."""
    return tuple((a, b) for a, b in word if a and b)


def round_trip_rects(lam, mu, p, q):
    """Rectangles of the nested pair (lam, mu) in the p x q box, or None when
    its level word does not read back as the pair."""
    word = level_word(lam, mu, p, q)
    return word_rects(word) if pair_of_word(word, q) == (lam, mu) else None


def merged_word(word):
    """The level word with each stretch of consecutive free rows, and of
    consecutive free columns, merged into one (n, 0) or (0, c) entry."""
    out = []
    for a, b in word:
        if out and not (a and b) and not (out[-1][0] and out[-1][1]) and bool(a) == bool(out[-1][0]):
            out[-1] = (out[-1][0] + a, out[-1][1] + b)
        else:
            out.append((a, b))
    return out


def runs_by_groupby(lam_rows, mu_rows, q):
    """The level runs of the pair with these rows, top down, or None when
    the pair is not nested or not compatible, from one `groupby` pass: the
    columns j > mu_i still unplaced above a run are free columns, then the
    run is free rows when lam_i = mu_i and else one tie block of the columns
    down to lam_i + 1."""
    runs = []
    j = q  # columns right of j are placed
    for (lam_i, mu_i), rows in itertools.groupby(zip(lam_rows, mu_rows)):
        if lam_i > mu_i or mu_i > j:
            return None
        if j > mu_i:
            runs.append((0, j - mu_i))
        runs.append((len(list(rows)), mu_i - lam_i))
        j = lam_i
    if j:
        runs.append((0, j))
    return runs


def ortho_classify_by_complement(lam, ctx: BoxContext):
    """The orthogonal partition lam of the box, or None: complement(lam) is
    built, it must contain lam, and the level word of the pair must read
    back as it, with a palindrome of tie blocks."""
    p, q = ctx.p, ctx.q
    lam = as_partition(lam)
    lam_hat = complement(lam, p, q)
    if not contains(lam_hat, lam):
        return None
    rects = round_trip_rects(lam, lam_hat, p, q)
    if rects is None:
        return None
    if rects != rects[::-1]:
        raise ValueError(f"rectangles of {lam} in {p}x{q} are not a palindrome: {rects}")
    return _orthogonal(lam, rects, ctx)


def all_pairs_compatible(ctx: BoxContext) -> list:
    """Every compatible pair of the box, found by testing all nested pairs,
    ordered by (|lam|, lam, mu)."""
    parts = sorted(partitions_in_box(ctx.p, ctx.q))
    out = []
    for lam, mu in itertools.product(parts, parts):
        if contains(mu, lam):
            rects = round_trip_rects(lam, mu, ctx.p, ctx.q)
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
    out = [CompatiblePair(*pair_of_word(word, ctx.q), ctx, word_rects(word))
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
                out.append(_orthogonal(pair_of_word(word, q)[0], word_rects(word), ctx))
    out.sort(key=lambda o: (weight(o.lam), o.lam))
    return out


def even_type_by_conjugate(lam, p, q):
    """Type of an even orthogonal partition: 1 when only the row corner
    lam_r > lam_{r+1} is strict (or p even, q odd), 2 when only the column
    corner lam*_s > lam*_{s+1} is (or p odd, q even), 3 when both are."""
    if p % 2 == 1 and q % 2 == 1:
        raise ValueError(f"even orthogonal partition {lam} in the odd x odd box {p}x{q}")
    if p % 2 == 0 and q % 2 == 1:
        return 1
    if p % 2 == 1 and q % 2 == 0:
        return 2
    r, s = p // 2, q // 2
    conj = conjugate(lam)
    row_strict = part(lam, r) > part(lam, r + 1)
    col_strict = part(conj, s) > part(conj, s + 1)
    if row_strict and col_strict:
        return 3
    if row_strict:
        return 1
    if col_strict:
        return 2
    raise RuntimeError(f"even orthogonal {lam} in {p}x{q} with neither corner strict")


def torus_chain_by_sort(orth: OrthoPartition):
    """The torus chain of A(lam): level k of the palindromic level word of
    (lam, complement(lam)) has the value L - 1 - 2k, the first r rows and
    first s columns take the values of their levels, and the (value, type)
    list is sorted by descending value, "x" before "y"."""
    p, q = orth.ctx.p, orth.ctx.q
    word = level_word(orth.lam, complement(orth.lam, p, q), p, q)
    if word != word[::-1]:
        raise ValueError(f"level word of {orth.lam} in {p}x{q} is not a palindrome: {word}")
    r, s = p // 2, q // 2
    chain = []
    rows_seen = cols_seen = 0
    for k, (nr, nc) in enumerate(word):
        value = len(word) - 1 - 2 * k
        chain += [(value, "x")] * max(0, min(nr, r - rows_seen))
        chain += [(value, "y")] * max(0, min(nc, s - cols_seen))
        rows_seen += nr
        cols_seen += nc
    if len(chain) != r + s or any(v < 0 for v, _ in chain):
        raise ValueError(f"torus chain of {orth.lam} in {p}x{q} is not r + s values >= 0: {chain}")
    chain.sort(key=lambda t: (-t[0], t[1]))
    return chain
