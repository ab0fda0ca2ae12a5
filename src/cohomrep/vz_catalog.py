"""Catalogs of cohomological modules, with their degrees and lowest K-types.

For U(p,q) the modules A(lam, mu) are indexed by compatible pairs of
partitions in the p x q box.  For O(p,q) they are indexed by orthogonal
partitions, each carrying 1, 2 or 4 sign variants: odd-parity partitions
give a single module A(lam); even ones give A(lam)_+- (type 1),
A(lam)^+- (type 2) or the four A(lam)^{+-}_{+-} (type 3).  Each O entry
also represents the unique extension of the module to the full orthogonal
group, flagged rather than listed separately.

Every module keeps, as `pair`, the `CompatiblePair` or `OrthoPartition` it
was built from, the one object for all sign variants of a partition, so a
consumer that needs the rectangles or the parity reads them there instead
of classifying lam (and mu) again.

A lowest K-type 2rho(u cap p) is a `Weight`, an integer vector on the
compact torus in the coordinates (x_1..x_p; y_1..y_q) for U(p,q), resp.
(x_1..x_r; y_1..y_s) with r = floor(p/2), s = floor(q/2) for O(p,q), read
off the rows and column lengths of lam (and mu) in closed form.  The root
systems and the Dirac bound that checks these weights live in `rootdata`,
which a catalog never loads.
"""

from __future__ import annotations

import functools
import itertools
from operator import add, neg, sub
from typing import NamedTuple, Optional

from . import partitions as pt
from .partitions import BoxContext, CapExceededError, CompatiblePair, OrthoPartition, Partition

LeviFactor = tuple[str, int, int]  # ("U", a, b) or ("O", p0, q0)


def _conv_O(p: int, q: int) -> str:
    return f"O-{'even' if p % 2 == 0 else 'odd'}-{'even' if q % 2 == 0 else 'odd'}"


class Weight(NamedTuple):
    """Integer vector in the fixed torus coordinates."""

    xs: tuple[int, ...]
    ys: tuple[int, ...]
    conv: str  # "U" | "O-even-even" | "O-even-odd" | "O-odd-even" | "O-odd-odd"

    def __add__(self, other: "Weight") -> "Weight":
        self._check_conv(other)
        return Weight(tuple(a + b for a, b in zip(self.xs, other.xs)),
                      tuple(a + b for a, b in zip(self.ys, other.ys)), self.conv)

    def __sub__(self, other: "Weight") -> "Weight":
        self._check_conv(other)
        return Weight(tuple(a - b for a, b in zip(self.xs, other.xs)),
                      tuple(a - b for a, b in zip(self.ys, other.ys)), self.conv)

    def _check_conv(self, other: "Weight") -> None:
        if self.conv != other.conv:
            raise ValueError(f"weights in different coordinates: {self.conv} and {other.conv}")


# ---------------------------------------------------------------------------
# K-type highest weights 2rho(u cap p)


def ktype_weight_U(lam: Partition, mu: Partition, ctx: BoxContext) -> Weight:
    """Highest weight of the lowest K-type of A(lam, mu) for U(p, q):
    sum over boxes of lam of (x_i - y_j) minus the reflected sum over the
    complement of mu.  Coefficients: x_i -> lam_i + mu_i - q,
    y_j -> p - lam*_j - mu*_j.  Raises ValueError unless lam <= mu fit in
    the box.
    """
    return _ktype_weight_U(*pt.boxed(ctx.p, ctx.q, lam, mu), ctx.p, ctx.q)


def _ktype_weight_U(lam: Partition, mu: Partition, p: int, q: int) -> Weight:
    """ktype_weight_U for normalized lam, mu in the p x q box."""
    return _ktype_U(_shape_U(lam, p, q), _shape_U(mu, p, q))


def _columns(nu: Partition, q: int) -> tuple[int, ...]:
    """The q column lengths nu*_1..nu*_q of a normalized nu with parts <= q:
    the tail sums of one count of its parts by size."""
    count = [0] * (q + 1)
    for v in nu:
        count[v] += 1
    return tuple(itertools.accumulate(count[:0:-1]))[::-1]


class _ShapeU(NamedTuple):
    """The K-type terms a normalized nu of the p x q box adds as lam,
    (rows, -cols), and as mu, (rows - q, p - cols), where rows are its p
    parts, zero-padded, and cols its q column lengths; and its size |nu|.
    A catalog builds one per partition of a box, not one per pair."""

    x_lam: tuple[int, ...]
    y_lam: tuple[int, ...]
    x_mu: tuple[int, ...]
    y_mu: tuple[int, ...]
    size: int


def _shape_U(nu: Partition, p: int, q: int) -> _ShapeU:
    cols = _columns(nu, q)
    rows = nu + (0,) * (p - len(nu))
    return _ShapeU(rows, tuple(map(neg, cols)), tuple(map(sub, rows, itertools.repeat(q))),
                   tuple(map(sub, itertools.repeat(p), cols)), sum(nu))


def _ktype_U(lam: _ShapeU, mu: _ShapeU) -> Weight:
    """The lowest K-type of A(lam, mu) from the shapes of lam and mu: the
    lam term plus the mu term, x_i = lam_i + mu_i - q, y_j = p - lam*_j - mu*_j."""
    return Weight(tuple(map(add, lam.x_lam, mu.x_mu)), tuple(map(add, lam.y_lam, mu.y_mu)), "U")


def ktype_weight_O(orth: OrthoPartition, sign1: Optional[int] = None, sign2: Optional[int] = None) -> Weight:
    """Highest weight of the lowest K-type of A(lam)(signs) for O(p,q): the
    sum over the boxes of lam in the reordered eigenbases, in closed form
    (`_ktype_O`), with x_r negated when sign1 = -1 and y_1 negated when
    sign2 = -1 (`_sign_variant`).

    sign1 acts on the C^p side (swap of the two central vectors), sign2 on
    the C^q side; each is only meaningful when the corresponding corner of
    lam is strict, per the even-type classification.
    """
    p, q = orth.ctx.p, orth.ctx.q
    _check_signs(orth, sign1, sign2)
    return _sign_variant(_ktype_O(orth.lam, p, q), sign1, sign2)


def _ktype_O(lam: Partition, p: int, q: int) -> Weight:
    """The lowest K-type of A(lam) for a normalized lam of the p x q box with
    no sign negated.  Row i of C^p carries +x_i for i <= r and -x_{p+1-i}
    for i > p - r; column j of C^q carries +y_{s+1-j} for j <= s and
    -y_{j-q+s} for j > q - s; a middle row or column carries 0.  So, with
    r = p // 2 and s = q // 2,

      x_a = lam_a - lam_{p+1-a}          (a <= r)
      y_b = lam*_{s+1-b} - lam*_{q-s+b}  (b <= s)."""
    r, s = p // 2, q // 2
    rows = lam + (0,) * (p - len(lam))
    cols = _columns(lam, q)
    return Weight(tuple(map(sub, rows[:r], reversed(rows))),
                  tuple(map(sub, cols[:s][::-1], cols[q - s:])), _conv_O(p, q))


def _sign_variant(kt: Weight, sign1: Optional[int], sign2: Optional[int]) -> Weight:
    """The K-type of a sign variant from that of `_ktype_O`: sign1 = -1 swaps
    the two central basis vectors of C^p, which negates x_r, and sign2 = -1
    swaps f_1 and bar f_1 of C^q, which negates y_1."""
    xs, ys = kt.xs, kt.ys
    if sign1 == -1:
        xs = xs[:-1] + (-xs[-1],)
    if sign2 == -1:
        ys = (-ys[0],) + ys[1:]
    return Weight(xs, ys, kt.conv)


def _check_signs(orth: OrthoPartition, sign1, sign2):
    allowed1 = orth.parity == "even" and orth.even_type in (1, 3)
    allowed2 = orth.parity == "even" and orth.even_type in (2, 3)
    if sign1 not in (None, 1, -1) or sign2 not in (None, 1, -1):
        raise ValueError("signs must be +1, -1 or None")
    if sign1 == -1 and not allowed1:
        raise ValueError(f"sign1 is not meaningful for {orth.lam} (parity {orth.parity}, type {orth.even_type})")
    if sign2 == -1 and not allowed2:
        raise ValueError(f"sign2 is not meaningful for {orth.lam} (parity {orth.parity}, type {orth.even_type})")


# ---------------------------------------------------------------------------
# strongly primitive degrees


def _degree_U(lam_size: int, mu_size: int, pq: int) -> int:
    """The degree R = |lam| + |complement(mu)| = |lam| + pq - |mu| =
    dim(u cap p) of A(lam, mu), from the sizes |lam|, |mu| and the box area pq."""
    return lam_size + pq - mu_size


def degree_O(orth: OrthoPartition) -> int:
    """R = |lam|; the Levi identity 2R = pq - 2*sum a_j b_j - p0 q0 must agree."""
    p, q = orth.ctx.p, orth.ctx.q
    ab = 2 * sum(a * b for a, b in orth.pairs)
    p0q0 = orth.central[0] * orth.central[1] if orth.central else 0
    r = pt.weight(orth.lam)
    if p * q - ab - p0q0 != 2 * r:
        raise ValueError(f"Levi identity fails for {orth.lam} in ({p}, {q}): {p * q - ab - p0q0} != 2*{r}")
    return r


# ---------------------------------------------------------------------------
# modules


class VZModule(NamedTuple):
    kind: str  # "U" | "O"
    p: int
    q: int
    lam: Partition
    mu: Optional[Partition]  # U only
    sign1: Optional[int]  # O only: subscript sign
    sign2: Optional[int]  # O only: superscript sign
    degree: int
    levi: tuple[LeviFactor, ...]
    lowest_ktype: Weight
    discrete_series: bool  # U: lam == mu (empty skew)
    holomorphic: bool  # U: mu == full box
    o_group_extension: bool  # O: the module extends to the disconnected group
    pair: CompatiblePair | OrthoPartition  # the index it was built from; sign variants share one

    @property
    def label(self) -> str:
        if self.kind == "U":
            return f"A({_list_text(self.lam)},{_list_text(self.mu)})"
        return f"A({_list_text(self.lam)}){_O_MARKS[self.sign1, self.sign2]}"


#: partitions whose list text the label memo keeps
LABEL_MEMO_SIZE = 4096


@functools.lru_cache(maxsize=LABEL_MEMO_SIZE)
def _list_text(lam: Partition) -> str:
    """`str(list(lam))`, the text a label shows for a partition: a U box
    labels each partition in many pairs, so each is written once."""
    return str(list(lam))


_SIGN_MARK = {1: "+", -1: "-"}
#: the marks an O label ends with, by (sign1, sign2): ^sign2, then _sign1
_O_MARKS = {(s1, s2): (f"^{_SIGN_MARK[s2]}" if s2 else "") + (f"_{_SIGN_MARK[s1]}" if s1 else "")
            for s1 in (None, 1, -1) for s2 in (None, 1, -1)}


def levi_of_pair(cp: CompatiblePair) -> tuple[LeviFactor, ...]:
    """Noncompact Levi factors read off the skew rectangles: one U(p_i, q_i)
    per rectangle (empty product for discrete series)."""
    return tuple(("U", a, b) for a, b in cp.rects)


def levi_of_orth(orth: OrthoPartition) -> tuple[LeviFactor, ...]:
    """O(p0, q0) from the central rectangle plus one U(a_i, b_i) per
    palindromic pair."""
    factors: list[LeviFactor] = []
    if orth.central is not None:
        factors.append(("O", orth.central[0], orth.central[1]))
    factors.extend(("U", a, b) for a, b in orth.pairs)
    return tuple(factors)


def module_from_pair(cp: CompatiblePair,
                     tables: Optional[tuple[dict, dict]] = None) -> VZModule:
    """The module A(lam, mu) of a compatible pair.  A box holds far fewer
    partitions and rectangle lists than pairs, so `catalog` passes tables
    that live for one box, of each partition's shape (`_shape_U`) and
    each rectangle list's Levi factors, to build each once per box."""
    shapes, levis = tables if tables is not None else ({}, {})
    lam, mu, ctx, rects = cp
    p, q = ctx
    ls = shapes.get(lam)
    if ls is None:
        ls = shapes[lam] = _shape_U(lam, p, q)
    ms = shapes.get(mu)  # after lam's entry, which it is when lam == mu
    if ms is None:
        ms = shapes[mu] = _shape_U(mu, p, q)
    levi = levis.get(rects)
    if levi is None:
        levi = levis[rects] = levi_of_pair(cp)
    # mu fits in the box, so it is the full box when its last of p rows is full
    return VZModule("U", p, q, lam, mu, None, None, _degree_U(ls.size, ms.size, p * q),
                    levi, _ktype_U(ls, ms), lam == mu, len(mu) == p and mu[-1] == q, False, cp)


def sign_slots(orth: OrthoPartition) -> list[tuple[Optional[int], Optional[int]]]:
    """Sign labels for the modules attached to an orthogonal partition, in
    lexicographic order with + before -.  Absent slots mean the sign carries
    no meaning for this partition."""
    if orth.parity == "odd":
        return [(None, None)]
    if orth.even_type == 1:
        return [(1, None), (-1, None)]
    if orth.even_type == 2:
        return [(None, 1), (None, -1)]
    return [(s1, s2) for s1 in (1, -1) for s2 in (1, -1)]


def modules_from_orth(orth: OrthoPartition) -> list[VZModule]:
    """The 1, 2 or 4 modules of an orthogonal partition.  They share the
    degree, the Levi factors and one K-type, which each sign variant
    negates where its signs say (`_sign_variant`)."""
    lam, (p, q) = orth.lam, orth.ctx
    degree = degree_O(orth)
    levi = levi_of_orth(orth)
    ktype = _ktype_O(lam, p, q)
    discrete = orth.rect_count == 0
    return [VZModule("O", p, q, lam, None, s1, s2, degree, levi, _sign_variant(ktype, s1, s2),
                     discrete, False, True, orth)
            for s1, s2 in sign_slots(orth)]


def catalog(kind: str, p: int, q: int, cap: int = pt.DEFAULT_ENUM_CAP) -> list[VZModule]:
    """Complete list of cohomological modules of U(p,q) or SO_0(p,q)."""
    ctx = BoxContext(p, q)
    if p * q > cap:
        raise CapExceededError("catalog box area p*q", p * q, cap)
    if kind == "U":
        tables = ({}, {})
        return [module_from_pair(cp, tables) for cp in pt.enumerate_compatible(ctx, cap)]
    if kind == "O":
        out = []
        for orth in pt.enumerate_orthogonal(ctx, cap):
            out.extend(modules_from_orth(orth))
        return out
    raise ValueError(f"unknown kind {kind!r}")
