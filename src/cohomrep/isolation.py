"""Isolation of cohomological modules in the unitary dual.

The criteria are purely combinatorial.  For SU(p,q), A(lam, mu) is isolated
iff every skew rectangle is at least 2 x 2 and lam, mu share no corner (with
the boundary convention lam_{p+1} = mu_{p+1} = -1).  For SO_0(p,q) the sign
variants of A(lam) are isolated or not all together, governed by the
palindromic decomposition and the same no-common-corner condition applied to
(lam, complement(lam)).  Non-isolated modules have degree bounded below:
p+q-3 for p,q >= 3, floor(max(p,q)/2) in rank two, and in rank one nothing
is isolated.  r_G = min(p, q) lives here, so it imports only `partitions`.

The torus chain of an orthogonal partition is a loop over the level runs
that `partitions._runs` reads off (lam, complement(lam)); the corner test
scans the rows of the pair.
"""

from __future__ import annotations

from typing import NamedTuple, Optional

from .partitions import (
    BoxContext,
    CompatiblePair,
    OrthoPartition,
    Partition,
    _runs,
    as_partition,
    enumerate_orthogonal,
    pad,
)


def _has_common_corner(lam: Partition, mu: Partition, p: int) -> bool:
    """A shared corner of the nested diagrams lam <= mu on p rows: some row i
    with lam_i = mu_i > lam_{i+1} and mu_{i+1} < mu_i, using the boundary
    convention lam_{p+1} = mu_{p+1} = -1."""
    lamp = pad(lam, p) + (-1,)
    mup = pad(mu, p) + (-1,)
    for i in range(p):
        if lamp[i] == mup[i] and lamp[i] > lamp[i + 1] and mup[i + 1] != mup[i]:
            return True
    return False


def is_isolated_U(cp: CompatiblePair) -> bool:
    """Isolation of A(lam, mu) in the unitary dual of SU(p,q)."""
    if any(min(a, b) < 2 for a, b in cp.rects):
        return False
    return not _has_common_corner(cp.lam, cp.mu, cp.ctx.p)


def _torus_chain(orth: OrthoPartition) -> list[tuple[int, str]]:
    """Canonical torus values of the parameter defining A(lam), as a
    descending list of (value, type) with type "x"/"y"; r + s entries, all
    >= 0, equal values marking the skew rectangles and the zero block.

    The level runs of the pair (lam, complement(lam)) are a palindrome of
    L = p + q - sum(a + b - 1) levels over its rectangles (a x b): level k
    gets the value L - 1 - 2k, symmetric around 0, and the torus values are
    the levels of the first r rows and first s columns.  `partitions._runs`
    reads the runs, row i of the complement being q - lam_{p+1-i}; their
    tie blocks must be the partition's palindromic rectangle list.  The
    values fall level by level, and a level's rows come before its columns,
    so the loop emits the chain in order and stops once it has r rows and
    s columns."""
    p, q = orth.ctx.p, orth.ctx.q
    rects = orth.pairs + ((orth.central,) if orth.central else ()) + orth.pairs[::-1]
    lam = pad(orth.lam, p)
    runs = _runs(lam, map(q.__sub__, reversed(lam)), q)
    if runs is None or tuple(filter(all, runs)) != rects:
        raise ValueError(f"rectangles of {orth.lam} in {p}x{q} do not follow the palindrome {rects}: "
                         f"runs {runs}")
    value = p + q - sum(a + b - 1 for a, b in rects) - 1
    rows_left, cols_left = p // 2, q // 2
    chain: list[tuple[int, str]] = []
    for a, b in runs:
        if not (rows_left or cols_left):
            break
        take_a = a if a < rows_left else rows_left
        take_b = b if b < cols_left else cols_left
        rows_left -= take_a
        cols_left -= take_b
        if a and b:  # a tie block: one level
            chain += [(value, "x")] * take_a + [(value, "y")] * take_b
            value -= 2
        else:  # free rows or free columns, one level each
            chain += [(v, "x") for v in range(value, value - 2 * take_a, -2)]
            chain += [(v, "y") for v in range(value, value - 2 * take_b, -2)]
            value -= 2 * (a + b)
    if len(chain) != p // 2 + q // 2 or (chain and chain[-1][0] < 0):
        raise ValueError(f"torus chain of {orth.lam} in {p}x{q} is not r + s values >= 0: {chain}")
    return chain


def _cond3_violated(orth: OrthoPartition) -> bool:
    """Existence of a noncompact simple root orthogonal to the Levi's simple
    roots, evaluated on the canonical torus chain.

    Junction roots between two adjacent singleton values of opposite type
    always violate; at the bottom of the chain the short (p + q odd) or
    fork/folded (p + q even) simple roots add end conditions depending on
    the parities of p and q."""
    p, q = orth.ctx.p, orth.ctx.q
    chain = _torus_chain(orth)
    m = len(chain)
    if m == 0:
        return False
    vals = [v for v, _ in chain]
    types = [t for _, t in chain]
    p_odd, q_odd = p % 2 == 1, q % 2 == 1
    zero_shields_end = p_odd or q_odd

    def eq(a, b):
        return 0 <= a < m and 0 <= b < m and vals[a] == vals[b]

    for i in range(m - 1):
        if vals[i] == vals[i + 1] or types[i] == types[i + 1]:
            continue
        shielded = eq(i - 1, i) or eq(i + 1, i + 2)
        if i + 1 == m - 1 and vals[m - 1] == 0 and zero_shields_end:
            shielded = True
        if not shielded:
            return True
    if p_odd and q_odd:
        # restricted short roots carry both a compact and a noncompact
        # incarnation; any free positive bottom value violates
        if vals[m - 1] > 0 and not eq(m - 2, m - 1):
            return True
    elif p_odd or q_odd:
        if vals[m - 1] > 0 and not eq(m - 2, m - 1):
            t = types[m - 1]
            if (t == "x" and q_odd) or (t == "y" and p_odd):
                return True
    else:
        # D-type fork root v_{m-1} + v_m
        if m >= 2 and not (vals[m - 2] == 0 and vals[m - 1] == 0):
            if types[m - 2] != types[m - 1] and not eq(m - 3, m - 2) and not eq(m - 2, m - 1):
                return True
    return False


def is_isolated_O(orth: OrthoPartition) -> bool:
    """Isolation of the modules A(lam)^{..}_{..} in the unitary dual of
    SO_0(p,q); independent of the sign labels."""
    if any(min(a, b) < 2 for a, b in orth.pairs):
        return False
    if orth.central is not None:
        p0, q0 = orth.central
        if not (p0 >= 2 and q0 >= 2 and p0 + q0 >= 5):
            return False
    return not _cond3_violated(orth)


def r_G(kind: str, p: int, q: int) -> int:
    """Minimal strongly primitive degree: min(p, q) for U(p,q) and O(p,q)."""
    if p < 1 or q < 1:
        raise ValueError("p, q must be >= 1")
    return min(p, q)


class DegreeThreshold(NamedTuple):
    kind: str
    p: int
    q: int
    rank: int
    bound: Optional[int]  # min degree of any non-isolated module; None in rank 1
    witness: Optional[Partition]
    note: str


def min_degree_nonisolated(kind: str, p: int, q: int) -> DegreeThreshold:
    """Degree bound for non-isolated cohomological modules of SO_0(p,q).

    Rank 1: no module is isolated, so there is no useful bound.  Rank 2
    (SO(2,n), n >= 3): non-isolated degree >= floor(n/2).  Rank >= 3
    (p, q >= 3): non-isolated degree >= p+q-3, attained at (q-1, 1^{p-2}).
    For U the rank-one groups SU(1,q) likewise have no isolated modules.
    """
    rank = r_G(kind, p, q)
    if rank == 1:
        return DegreeThreshold(kind, p, q, 1, None, None, "no cohomological module is isolated")
    if kind == "U":
        return DegreeThreshold(kind, p, q, rank, None, None, "no degree bound implemented for U of rank >= 2")
    n = max(p, q)
    if rank == 2:
        if n < 3:
            return DegreeThreshold(kind, p, q, 2, None, None,
                                   "SO(2,2) is not almost simple; no degree bound")
        return DegreeThreshold(kind, p, q, 2, n // 2, as_partition((n // 2,)), "rank-2 bound floor(n/2)")
    return DegreeThreshold(kind, p, q, rank, p + q - 3, as_partition((q - 1,) + (1,) * (p - 2)),
                           "bound p+q-3, witness (q-1, 1^(p-2))")


def nonisolated_degree_scan(p: int, q: int) -> tuple[int, Optional[int], list[Partition]]:
    """Exhaustively scan the SO_0(p,q) catalog: returns (count of modules,
    min degree among non-isolated partitions or None, the argmin lams)."""
    ctx = BoxContext(p, q)
    best = None
    argmin: list[Partition] = []
    count = 0
    for orth in enumerate_orthogonal(ctx, cap=max(p * q, 64)):
        count += 1
        if is_isolated_O(orth):
            continue
        deg = sum(orth.lam)
        if best is None or deg < best:
            best, argmin = deg, [orth.lam]
        elif deg == best:
            argmin.append(orth.lam)
    return count, best, argmin
