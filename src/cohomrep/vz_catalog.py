"""Catalogs of cohomological modules.

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
"""

from __future__ import annotations

import functools
from typing import NamedTuple, Optional

from . import partitions as pt
from . import rootdata as rd
from .partitions import BoxContext, CapExceededError, CompatiblePair, OrthoPartition, Partition

LeviFactor = tuple[str, int, int]  # ("U", a, b) or ("O", p0, q0)


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
    lowest_ktype: rd.Weight
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
    that live for one box, of each partition's shape (`rootdata._shape_U`)
    and each rectangle list's Levi factors, to build each once per box."""
    shapes, levis = tables if tables is not None else ({}, {})
    lam, mu, ctx, rects = cp
    p, q = ctx
    ls = shapes.get(lam)
    if ls is None:
        ls = shapes[lam] = rd._shape_U(lam, p, q)
    ms = shapes.get(mu)  # after lam's entry, which it is when lam == mu
    if ms is None:
        ms = shapes[mu] = rd._shape_U(mu, p, q)
    levi = levis.get(rects)
    if levi is None:
        levi = levis[rects] = levi_of_pair(cp)
    # mu fits in the box, so it is the full box when its last of p rows is full
    return VZModule("U", p, q, lam, mu, None, None, rd._degree_U(ls.size, ms.size, p * q),
                    levi, rd._ktype_U(ls, ms), lam == mu, len(mu) == p and mu[-1] == q, False, cp)


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
    negates where its signs say (`rootdata._sign_variant`)."""
    lam, (p, q) = orth.lam, orth.ctx
    degree = rd.degree_O(orth)
    levi = levi_of_orth(orth)
    ktype = rd._ktype_O(lam, p, q)
    discrete = orth.rect_count == 0
    return [VZModule("O", p, q, lam, None, s1, s2, degree, levi, rd._sign_variant(ktype, s1, s2),
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
