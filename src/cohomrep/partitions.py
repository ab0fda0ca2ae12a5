"""Young-diagram combinatorics inside a p x q box.

Partitions are weakly decreasing tuples of nonnegative integers; trailing
zeros are stripped on normalization so that ``(2, 1, 0) == (2, 1)``.  The
central notions are *compatible pairs* (lambda, mu) -- nested partitions
whose skew diagram is a union of rectangles meeting only at corners -- and
*orthogonal partitions*, those lambda for which (lambda, complement(lambda))
is itself compatible.  Compatible pairs index the cohomological modules of
U(p,q), orthogonal partitions those of O(p,q).

A compatible pair is the comparison pattern of one dominant torus element,
read as a *level word*: the merged chain of rows (top down) and columns
(right to left), one level per free row (1, 0), free column (0, 1) or tie
block (a, b), a, b >= 1, whose tie blocks are the skew rectangles.  The
library builds no word.  One walk, `_runs`, a plain loop over the rows,
reads the levels off the runs of rows with equal (lam_i, mu_i), free rows
and free columns merged, and returns None when the pair is not nested or
not compatible; its tie blocks are the rectangles of `compatible_pair`
and of `ortho_classify`, which walks (lam, complement(lam)) without building
the complement, and the witness vector and `isolation._torus_chain` are
loops over its runs.  The enumerations read its rules forwards (`_pairs`):
the compatible mu of a lam are a product of one choice per run of equal
rows of lam, so the pairs come out in order, with no table and no sort.
The word itself is the test oracle `level_word` in
`tests/_partitions_reference.py`.

Partitions are validated once, at the boundary.  A `_Checked` tuple marks
a partition this module built or validated, and `as_partition` returns one
after a single type test.  `enumerate_compatible` returns its lam and mu,
`enumerate_orthogonal` its lam, and `as_partition` every input it converts
as checked partitions.  So the modules of `vz_catalog`, and the pairs and
orthogonal partitions passed back into `complement`, `compatible_pair`,
`ortho_classify`, `boxed` and the `branching` and `lefschetz` entry points,
skip the scans.  `boxed` makes the type test itself, so a checked lam or
mu costs it no call, and still checks box fit and nesting on every call.
`enumerate_compatible` interns equal partitions through a table that lives
for the one call, so the pairs of a box share one object per partition; a
table kept across calls would hold the partitions of every box ever
enumerated.
"""

from __future__ import annotations

from operator import ge
from typing import Iterable, Iterator, NamedTuple, Optional, Sequence

Partition = tuple[int, ...]

#: default ceiling on p*q for exhaustive enumeration
DEFAULT_ENUM_CAP = 42

_EXACT_INT = {int}


class CapExceededError(ValueError):
    """An enumeration request exceeded the configured cap."""

    def __init__(self, name, value, cap):
        self.cap_name = name
        self.value = value
        self.cap = cap
        super().__init__(f"cap exceeded: {name}={value} > {cap}")


class _Checked(tuple):
    """A partition tuple that this module built or has validated: exact
    ints, weakly decreasing, no trailing zero.  `as_partition` returns one
    after a single type test.  Only this module makes one, so no other
    layer can mark an unchecked tuple as checked; it prints, compares and
    hashes as the plain tuple, and slices and sums of it are plain tuples."""

    __slots__ = ()


class _CheckedTable(dict):
    """Plain partition -> its one `_Checked` copy, made at the first lookup."""

    def __missing__(self, lam: Partition) -> Partition:
        checked = self[lam] = _Checked(lam)
        return checked


def as_partition(parts: Sequence[int]) -> Partition:
    """Normalize ``parts`` to a partition tuple (strip trailing zeros).  A
    checked partition, or a tuple of exact ints that is already a partition,
    is returned as it is; anything else is converted, checked and returned
    checked."""
    if type(parts) is _Checked:
        return parts
    if type(parts) is tuple and (not parts or (
            set(map(type, parts)) == _EXACT_INT and parts[-1] > 0 and all(map(ge, parts, parts[1:])))):
        return parts
    t = tuple(int(x) for x in parts)
    for a, b in zip(t, t[1:]):
        if a < b:
            raise ValueError(f"not weakly decreasing: {t}")
    if t and t[-1] < 0:
        raise ValueError(f"negative part in {t}")
    while t and t[-1] == 0:
        t = t[:-1]
    return _Checked(t)


def boxed(p: int, q: int, lam: Sequence[int] = (),
          mu: Optional[Sequence[int]] = None) -> tuple[Partition, Optional[Partition]]:
    """(lam, mu) normalized, once p, q >= 1, each fits in the p x q box and
    lam lies inside mu; mu stays None when not given.  Every public entry
    point that takes partitions of a box calls this once and passes on what
    it returns to the underscored twins below, which check nothing."""
    if p < 1 or q < 1:
        raise ValueError(f"box {p}x{q}: p and q must be >= 1")
    if type(lam) is not _Checked:
        lam = as_partition(lam)
    if len(lam) > p or (lam and lam[0] > q):
        raise ValueError(f"lam {list(lam)} does not fit in {p}x{q}")
    if mu is None:
        return lam, None
    if type(mu) is not _Checked:
        mu = as_partition(mu)
    if len(mu) > p or (mu and mu[0] > q):
        raise ValueError(f"mu {list(mu)} does not fit in {p}x{q}")
    if not _contains(mu, lam):
        raise ValueError(f"lam {list(lam)} is not contained in mu {list(mu)}")
    return lam, mu


def weight(lam: Partition) -> int:
    return sum(lam)


def part(lam: Sequence[int], i: int) -> int:
    """1-based part access, zero beyond the last row."""
    return lam[i - 1] if 1 <= i <= len(lam) else 0


def pad(lam: Partition, rows: int) -> tuple[int, ...]:
    """lam with zero rows appended up to `rows`, as an exact tuple: a tuple,
    checked or not, is not copied first."""
    zeros = (0,) * (rows - len(lam))
    return lam + zeros if isinstance(lam, tuple) else tuple(lam) + zeros


def conjugate(lam: Partition) -> Partition:
    """Transpose of the Young diagram: (lam*)_j = #{i : lam_i >= j}."""
    return _conjugate(as_partition(lam))


def complement(lam: Partition, p: int, q: int) -> Partition:
    """180-degree rotated complement of lam inside the p x q rectangle."""
    lam, _ = boxed(p, q, lam)
    return _complement(lam, p, q)


# the underscored twins take normalized partitions: internal callers use them,
# so that as_partition runs only at public entry points
def _contains(outer: Partition, inner: Partition) -> bool:
    return len(inner) <= len(outer) and all(map(ge, outer, inner))


def _conjugate(lam: Partition) -> Partition:
    return tuple(sum(1 for v in lam if v >= j) for j in range(1, lam[0] + 1)) if lam else ()


def _complement(lam: Partition, p: int, q: int) -> Partition:
    # lam's p - len(lam) empty rows become full rows, which have no box when q = 0
    full = (q,) * (p - len(lam)) if q > 0 else ()
    return full + tuple(q - v for v in reversed(lam) if v < q)


class _BoxFields(NamedTuple):
    p: int
    q: int


class BoxContext(_BoxFields):
    """The ambient p x q rectangle (p rows, q columns)."""

    __slots__ = ()

    def __new__(cls, p: int, q: int):
        if p < 1 or q < 1:
            raise ValueError("box dimensions must be positive")
        return _BoxFields.__new__(cls, p, q)


class CompatiblePair(NamedTuple):
    """Nested pair lambda <= mu <= p x q whose skew is a corner-disjoint
    union of rectangles, listed top-down as (rows_i, cols_i)."""

    lam: Partition
    mu: Partition
    ctx: BoxContext
    rects: tuple[tuple[int, int], ...]


class OrthoPartition(NamedTuple):
    """Orthogonal partition with the palindromic decomposition of the skew
    complement(lam)/lam: pairs (a_i x b_i) repeated symmetrically around an
    optional central rectangle (p0 x q0)."""

    lam: Partition
    ctx: BoxContext
    pairs: tuple[tuple[int, int], ...]
    central: Optional[tuple[int, int]]
    parity: str  # "odd" | "even"
    even_type: Optional[int]  # 1 | 2 | 3 for even parity, else None

    @property
    def rect_count(self) -> int:
        return 2 * len(self.pairs) + (1 if self.central else 0)


Level = tuple[int, int]  # (rows, columns) at one level of the chain


def _is_level(a: int, b: int) -> bool:
    """A free row (1, 0), a free column (0, 1) or a tie block (a, b), a, b >= 1."""
    return (a >= 1 and b >= 1) or a + b == 1


def _runs(lam_rows: Iterable[int], mu_rows: Iterable[int], q: int) -> Optional[list[Level]]:
    """The level runs of the pair with these rows, top down, or None when
    the pair is not nested or not compatible.  A run is (0, c), c free
    columns; (n, 0), n free rows; or (a, b), a, b >= 1, a tie block.

    One loop over the rows: a row equal to the one above it, (lam_i, mu_i)
    both, extends its run.  A row that starts a run first closes the run
    above it; then the columns j > mu_i still unplaced are free columns, and
    the run is free rows when lam_i = mu_i and else one tie block of the
    columns down to lam_i + 1.  A row with mu_i > j would share an edge with
    the tie block above it.  The columns left of every row end the walk."""
    runs = []
    j = q  # columns right of j are placed
    n = 0  # rows in the run of (run_lam, run_mu)
    run_lam = run_mu = None
    for lam_i, mu_i in zip(lam_rows, mu_rows):
        if lam_i == run_lam and mu_i == run_mu:
            n += 1
            continue
        if n:
            runs.append((n, run_mu - run_lam))
        if lam_i > mu_i or mu_i > j:
            return None
        if j > mu_i:
            runs.append((0, j - mu_i))
        j = run_lam = lam_i
        run_mu = mu_i
        n = 1
    if n:
        runs.append((n, run_mu - run_lam))
    if j:
        runs.append((0, j))
    return runs


def _skew_decompose(lam: Partition, mu: Partition, ctx: BoxContext) -> Optional[tuple[Level, ...]]:
    # the tie blocks of the walk over the rows of mu, lam padded to them: the
    # runs with both entries nonzero
    runs = _runs(lam + (0,) * (len(mu) - len(lam)), mu, ctx.q)
    return None if runs is None else tuple(filter(all, runs))


def compatible_pair(lam: Partition, mu: Partition, ctx: BoxContext) -> Optional[CompatiblePair]:
    """(lam, mu) with the rectangles of mu/lam, top down, or None when the
    skew is not a corner-disjoint union of rectangles."""
    lam, mu = boxed(ctx.p, ctx.q, lam, mu)
    rects = _skew_decompose(lam, mu, ctx)
    return None if rects is None else CompatiblePair(lam, mu, ctx, rects)


def build_witness_X(cp: CompatiblePair) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """A dominant integer vector (x_1 >= ... >= x_p ; y_q >= ... >= y_1)
    whose strict/weak comparison pattern realizes (lam, mu):
    x_i > y_j exactly on lam, x_i >= y_j exactly on mu.

    Level k of the pair, counted from 0 at the top, gives its rows and
    columns the value p + q - k: a tie block is one level, a free row or
    column one level each, as `_runs` reads them off the row runs.
    """
    p, q = cp.ctx.p, cp.ctx.q
    xs: list[int] = []
    ys: list[int] = []  # y_q first
    value = p + q
    for a, b in _runs(pad(cp.lam, p), pad(cp.mu, p), q):
        if a and b:
            xs += [value] * a
            ys += [value] * b
            value -= 1
        else:
            xs += range(value, value - a, -1)
            ys += range(value, value - b, -1)
            value -= a + b
    return tuple(xs), tuple(reversed(ys))


def partitions_of_witness(xs: Sequence[int], ys: Sequence[int], ctx: BoxContext) -> tuple[Partition, Partition]:
    """Recover (lam, mu) from a vector: lam = {x_i > y_j}, mu = {x_i >= y_j}."""
    p, q = ctx.p, ctx.q
    lam = tuple(sum(1 for j in range(q) if xs[i] > ys[j]) for i in range(p))
    mu = tuple(sum(1 for j in range(q) if xs[i] >= ys[j]) for i in range(p))
    return as_partition(lam), as_partition(mu)


def inscribes(r: int, lam: Partition, mu: Partition, p: int) -> bool:
    """Whether the rectangle (r^p) fits inside the skew mu/lam, i.e.
    mu - (r^p) is a partition containing lam.

    For a compatible pair with rectangles (p_i x q_i) this is equivalent to
    sum(p_i) == p and r <= q_i for all i.
    """
    if r < 0:
        raise ValueError("r must be >= 0")
    if p < 1:
        raise ValueError(f"box of {p} rows: p must be >= 1")
    lam, mu = as_partition(lam), as_partition(mu)
    if len(mu) > p:
        raise ValueError(f"mu {list(mu)} has more than {p} rows")
    if not _contains(mu, lam):
        raise ValueError(f"need lam <= mu: {lam}, {mu}")
    return r == 0 or _inscribes(r, lam, mu, p)


def _inscribes(r: int, lam: Partition, mu: Partition, p: int) -> bool:
    # r >= 0 and lam <= mu, as the callers' boxed check leaves them
    lam, mu = pad(lam, p), pad(mu, p)
    return all(mu[i] - r >= lam[i] for i in range(p))


def _subtract_rows(mu: Partition, r: int, p: int) -> Partition:
    # parts weakly decrease, so dropping the rows equal to r strips trailing zeros
    return tuple(v - r for v in pad(mu, p) if v > r)


def ortho_classify(lam: Partition, ctx: BoxContext) -> Optional[OrthoPartition]:
    """Classify lam as an orthogonal partition of the box, or None.

    The skew complement(lam)/lam of an orthogonal partition is centrally
    symmetric, so its rectangle list is a palindrome and reads
    (a_1 x b_1) * ... * (p_0 x q_0) * ... * (a_1 x b_1); parity is odd when
    the total rectangle count is odd.  Even-parity partitions carry a type
    in {1, 2, 3} governing how many sign labels the module catalog attaches.
    """
    p, q = ctx.p, ctx.q
    lam, _ = boxed(p, q, lam)
    rows = pad(lam, p)  # row i of complement(lam) is q - lam_{p+1-i}
    rects = _skew_decompose(rows, tuple(map(q.__sub__, reversed(rows))), ctx)
    if rects is None:
        return None
    if rects != rects[::-1]:
        raise ValueError(f"rectangles of {lam} in {p}x{q} are not a palindrome: {rects}")
    return _orthogonal(lam, rects, ctx)


def _orthogonal(lam: Partition, rects: tuple[Level, ...], ctx: BoxContext) -> OrthoPartition:
    """The orthogonal partition lam whose palindromic rectangle list, top
    down, is `rects`."""
    m = len(rects)
    if m % 2 == 1:
        return OrthoPartition(lam, ctx, rects[: m // 2], rects[m // 2], "odd", None)
    return OrthoPartition(lam, ctx, rects[: m // 2], None, "even", _even_type(lam, ctx.p, ctx.q))


def _even_type(lam: Partition, p: int, q: int) -> int:
    """Type of an even orthogonal partition.

    With r = p/2, s = q/2 where defined:
      type 1: p, q even with lam_r > lam_{r+1} and lam*_s = lam*_{s+1},
              or p even, q odd;
      type 2: p, q even with lam_r = lam_{r+1} and lam*_s > lam*_{s+1},
              or p odd, q even;
      type 3: p, q even with both strict.
    Both p and q odd never happens: those boxes only carry odd partitions.
    lam*_s > lam*_{s+1} exactly when some row of lam has s boxes, so no
    conjugate is built.
    """
    if p % 2 == 1 and q % 2 == 1:
        raise ValueError(f"even orthogonal partition {lam} in the odd x odd box {p}x{q}")
    if p % 2 == 0 and q % 2 == 1:
        return 1
    if p % 2 == 1 and q % 2 == 0:
        return 2
    r, s = p // 2, q // 2
    row_strict = part(lam, r) > part(lam, r + 1)
    col_strict = s in lam
    if row_strict and col_strict:
        return 3
    if row_strict:
        return 1
    if col_strict:
        return 2
    raise RuntimeError(f"even orthogonal {lam} in {p}x{q} with neither corner strict")


def partitions_in_box(p: int, q: int) -> Iterator[Partition]:
    """All partitions inside p x q, in lexicographic order of the padded tuple."""

    def gen(rows: int, maxpart: int):
        yield ()  # every remaining row empty
        if rows:
            for first in range(1, maxpart + 1):
                for rest in gen(rows - 1, first):
                    yield (first,) + rest

    return gen(p, q)


def _pairs(p: int, q: int) -> Iterator[tuple[Partition, Partition, tuple[Level, ...]]]:
    """(lam, mu, rects) for every compatible pair of the p x q box, one per
    level word, in (|lam|, lam, mu) order.  The mu of one lam are a product
    of independent choices, one per run of k rows of value v of the padded
    lam, top down, under a run of value j (q at the top): free rows, mu
    rows (v,) * k; or a tie block (t, m - v), mu rows (m,) * t + (v,) * (k - t)
    for v < m <= j and 1 <= t <= k.  These are `_runs`'s rules read forwards;
    choices in (m, t) order make mu ascending, so nothing is sorted.  The
    zero run's zero rows are dropped."""
    for lam in sorted(partitions_in_box(p, q), key=sum):
        pairs = [((), ())]  # (mu, rects) of the runs above
        j = q
        rows = pad(lam, p)
        for v in dict.fromkeys(rows):  # the run values, top down
            k = rows.count(v)
            keep = k if v else 0  # rows of v kept in mu: none of the zero run
            run = [((v,) * keep, ())] + [((m,) * t + (v,) * (keep - t), ((t, m - v),))
                                         for m in range(v + 1, j + 1) for t in range(1, k + 1)]
            pairs = [(mu + mu_rows, rects + rect) for mu, rects in pairs for mu_rows, rect in run]
            j = v
        for mu, rects in pairs:
            yield lam, mu, rects


def enumerate_compatible(ctx: BoxContext, cap: int = DEFAULT_ENUM_CAP) -> list[CompatiblePair]:
    """All compatible pairs in the box, one per level word, ordered by
    (|lam|, lam, mu)."""
    p, q = ctx.p, ctx.q
    if p * q > cap:
        raise CapExceededError("enumeration box area p*q", p * q, cap)
    checked = _CheckedTable()  # the pairs of the box share one object per partition
    return [CompatiblePair(checked[lam], checked[mu], ctx, rects) for lam, mu, rects in _pairs(p, q)]


def enumerate_orthogonal(ctx: BoxContext, cap: int = DEFAULT_ENUM_CAP) -> list[OrthoPartition]:
    """All orthogonal partitions in the box, one per palindromic level word
    (a half word of an a x b box, its mirror image and between them at most
    one central level), ordered by (|lam|, lam).

    Read with q columns, the half word gives the top rows (q - b) + lam_h of
    its pair (lam_h, mu_h) in the a x b box, a central level of c0 rows gives
    rows b, and the mirror image, which is the level word of
    (complement(mu_h), complement(lam_h)) in the a x b box, gives the rest."""
    p, q = ctx.p, ctx.q
    if p * q > cap:
        raise CapExceededError("enumeration box area p*q", p * q, cap)
    found = []
    for a in range(p // 2 + 1):
        for b in range(q // 2 + 1):
            centre = (p - 2 * a, q - 2 * b)
            if centre != (0, 0) and not _is_level(*centre):
                continue
            mid_rows = (b,) * centre[0] if b else ()
            mid_rect = (centre,) if centre[0] and centre[1] else ()
            for lam_h, mu_h, rects in _pairs(a, b):
                lam = tuple(q - b + v for v in pad(lam_h, a)) + mid_rows + _complement(mu_h, a, b)
                found.append((sum(lam), lam, rects + mid_rect + rects[::-1]))
    found.sort()  # lam is unique, so each is checked once
    return [_orthogonal(_Checked(lam), rects, ctx) for _, lam, rects in found]
