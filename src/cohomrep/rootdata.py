"""Root systems, Weyl chambers and the Parthasarathy-Dirac bound for U(p,q)
and O(p,q).

Weights are `vz_catalog.Weight`s on the compact torus, in the coordinates
(x_1..x_p; y_1..y_q) for U(p,q), resp. (x_1..x_r; y_1..y_s) with
r = floor(p/2), s = floor(q/2) for O(p,q).  The fixed positive compact
systems are

  U:  x_i - x_j (i < j)  and  y_j - y_i (i < j)
  O:  x_i +- x_j (i < j), y_j +- y_i (i < j), plus the short roots x_i / y_i
      when p resp. q is odd,

so dominance means x descending and y *ascending in index*.  rho is the
only half-integral vector, so it is kept doubled (2rho, 2rho_c, 2rho_n).
The Dirac bound builds its chambers once per (kind, p, q) and evaluates them
on the doubled weight in int64; only its signs and zero tests are
meaningful, not its absolute normalization.  A catalog never loads this
module: the lowest K-types and degrees live in `vz_catalog`.
"""

from __future__ import annotations

import functools
import itertools
import math
from operator import mul
from typing import TYPE_CHECKING, NamedTuple

from .partitions import CapExceededError
from .vz_catalog import Weight, _conv_O

if TYPE_CHECKING:  # annotations only: the Dirac bound alone builds a Fraction
    from fractions import Fraction

WEYL_CAP = 10**6

#: (kind, p, q) entries kept by the Dirac chamber memo
CHAMBER_MEMO_SIZE = 64


class RootSystemData(NamedTuple):
    kind: str
    p: int
    q: int
    noncompact_pairs: tuple[tuple[tuple[int, ...], int], ...]  # one per +- pair
    rho2: Weight  # 2rho = rho_c2 + rho_n2
    rho_c2: Weight
    rho_n2: Weight


# ---------------------------------------------------------------------------
# root data and rho vectors for the fixed positive systems


def _shape(kind: str, p: int, q: int) -> tuple[int, int]:
    """(r, s): the numbers of x and y coordinates of the torus."""
    if kind == "U":
        return p, q
    if kind == "O":
        return p // 2, q // 2
    raise ValueError(f"unknown kind {kind!r}")


def _root_vectors(kind: str, p: int, q: int):
    """(compact, noncompact) roots of (kind, p, q) on the rank r+s torus, one
    root per +- pair as (vector over the r+s coordinates, multiplicity).

    The compact ones are the fixed positive system.  For O, the short x-roots
    are compact iff p is odd and noncompact iff q is odd (symmetrically for
    y)."""
    r, s = _shape(kind, p, q)

    def vec(*pairs):
        v = [0] * (r + s)
        for idx, c in pairs:
            v[idx] += c
        return tuple(v), 1

    signs = (-1, 1) if kind == "O" else (-1,)  # x_i - x_j, and for O also x_i + x_j
    compact = [vec((i, 1), (j, c)) for i, j in itertools.combinations(range(r), 2) for c in signs]
    compact += [vec((r + j, 1), (r + i, c)) for i, j in itertools.combinations(range(s), 2) for c in signs]
    noncompact = [vec((i, 1), (r + j, c)) for i in range(r) for j in range(s) for c in signs]
    if kind == "O":
        x_short = [vec((i, 1)) for i in range(r)]
        y_short = [vec((r + j, 1)) for j in range(s)]
        compact += (x_short if p % 2 else []) + (y_short if q % 2 else [])
        noncompact += (x_short if q % 2 else []) + (y_short if p % 2 else [])
    return compact, noncompact


def _chamber_orders(kind: str, p: int, q: int):
    """One generic vector per chamber: a positive system of g containing the
    fixed compact one.

    A generic v makes the compact system positive iff |v| descends along
    x_1..x_r and ascends along y_1..y_s, with every x and y entry positive
    except, for O, x_r (p even) and y_1 (q even), whose signs are free.  Only
    the order of the magnitudes 1..r+s matters for the root signs.  The first
    vector is the standard order x_1 > ... > x_r > y_s > ... > y_1 > 0."""
    r, s = _shape(kind, p, q)
    m = r + s
    x_signs, y_signs = _free_signs(kind, p, q)
    for xmags in itertools.combinations(range(m, 0, -1), r):
        ymags = sorted(set(range(1, m + 1)).difference(xmags))
        for sx, sy in itertools.product(x_signs, y_signs):
            v = list(xmags) + ymags
            if r:
                v[r - 1] *= sx
            if s:
                v[r] *= sy
            yield v


def _free_signs(kind: str, p: int, q: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The signs of x_r and of y_1 that `_chamber_orders` tries: both for an
    even orthogonal factor of rank >= 1, else only +1."""
    r, s = _shape(kind, p, q)
    return ((1, -1) if kind == "O" and p % 2 == 0 and r else (1,),
            (1, -1) if kind == "O" and q % 2 == 0 and s else (1,))


_ORDER_CHUNK = 4096  # orders per sign matrix, which bounds its memory


def _positive_root_sums(pairs, orders, m: int):
    """Twice the half-sum of the roots made positive by each generic vector
    in `orders` (length m), one root per +- pair in `pairs`: the int64 rows
    of sign(V R^T) diag(mult) R, V holding the orders and R the roots.
    Raises ValueError when a vector is orthogonal to a root."""
    import numpy as np

    roots = np.array([vec for vec, _ in pairs], dtype=np.int64).reshape(len(pairs), m)
    mult = np.array([k for _, k in pairs], dtype=np.int64)
    blocks = []
    orders = iter(orders)
    while chunk := list(itertools.islice(orders, _ORDER_CHUNK)):
        v = np.array(chunk, dtype=np.int64).reshape(len(chunk), m)
        signs = np.sign(v @ roots.T)
        if not signs.all():
            i, j = np.argwhere(signs == 0)[0]
            raise ValueError(f"positivity vector {tuple(chunk[i])} not generic for root {pairs[j][0]}")
        blocks.append((signs * mult) @ roots)
    return np.concatenate(blocks) if blocks else np.zeros((0, m), dtype=np.int64)


def root_system(kind: str, p: int, q: int) -> RootSystemData:
    """Root data with the fixed positive systems; 2rho = 2rho_c + 2rho_n, read
    at the standard order.  Raises ValueError when that order is orthogonal
    to a root."""
    compact, noncompact = _root_vectors(kind, p, q)
    r, _ = _shape(kind, p, q)
    conv = "U" if kind == "U" else _conv_O(p, q)
    v0 = next(_chamber_orders(kind, p, q))

    def half_sum2(pairs) -> Weight:
        # the `_positive_root_sums` row of v0, in plain integers
        total = [0] * len(v0)
        for vec, mult in pairs:
            d = sum(map(mul, vec, v0))
            if not d:
                raise ValueError(f"positivity vector {tuple(v0)} not generic for root {vec}")
            c = mult if d > 0 else -mult
            for k, e in enumerate(vec):
                if e:
                    total[k] += c * e
        return Weight(tuple(total[:r]), tuple(total[r:]), conv)

    rho_c2, rho_n2 = half_sum2(compact), half_sum2(noncompact)
    return RootSystemData(kind, p, q, tuple(noncompact), rho_c2 + rho_n2, rho_c2, rho_n2)


# ---------------------------------------------------------------------------
# Parthasarathy / Dirac bound
#
# A chamber is a positive system of g containing the fixed compact one.  All
# chamber data is kept doubled, so it is integral: the rows 2*rho_n^w, the
# vector 2*rho_c and 4*||rho||^2 (the same for every chamber).  A weight is
# doubled as it stands.

_INT64_MAX = 2**63 - 1

#: added to the y entries of a U row so that one sort orders both blocks:
#: above twice any entry the int64 guard of `_dirac_max` admits (2**31)
_U_SHIFT = 2**33


@functools.lru_cache(maxsize=CHAMBER_MEMO_SIZE)
def _chambers(kind: str, p: int, q: int):
    """(rho_n2, rc, rho4, reach) for (kind, p, q): the int64 matrix whose
    rows are 2*rho_n^w over the chambers; the int64 vector `_dirac_max` adds
    to its sorted rows, 2*rho_c with its x block reversed and, for U, with
    _U_SHIFT taken off its y block; the int 4*||rho||^2; and the largest
    |entry| of rho_n2 plus that of 2*rho_c.

    The rows come in the order of `_chamber_orders`.  Distinct orders can
    give the same chamber for O, which keeps each first row; the U rows are
    already distinct.  Raises ValueError unless p, q >= 1: a box with no
    noncompact root has no Dirac bound."""
    import numpy as np

    if p < 1 or q < 1:
        raise ValueError("p, q must be >= 1")
    r, s = _shape(kind, p, q)
    x_signs, y_signs = _free_signs(kind, p, q)
    orders = math.comb(r + s, r) * len(x_signs) * len(y_signs)
    if orders > WEYL_CAP:
        raise CapExceededError(f"Dirac chamber orders of {kind}({p},{q})", orders, WEYL_CAP)
    rs = root_system(kind, p, q)
    cx, cy = rs.rho_c2.xs, rs.rho_c2.ys
    rho4 = sum(v * v for v in rs.rho2.xs + rs.rho2.ys)
    rho_n2 = _positive_root_sums(rs.noncompact_pairs, _chamber_orders(kind, p, q), r + s)
    if kind == "O":
        first = dict.fromkeys(map(tuple, rho_n2.tolist()))
        rho_n2 = np.array(list(first), dtype=np.int64).reshape(len(first), r + s)
    shift = _U_SHIFT if kind == "U" else 0
    rc = np.array(cx[::-1] + tuple(v - shift for v in cy), dtype=np.int64)
    rho_n2.flags.writeable = rc.flags.writeable = False
    reach = int(np.abs(rho_n2).max(initial=0)) + max(map(abs, cx + cy), default=0)
    return rho_n2, rc, rho4, reach


def _dirac_max(kind: str, p: int, q: int, chi: Weight) -> Fraction:
    """max over chambers w of ||rho||^2 - ||dom(chi - rho_n^w) + rho_c||^2,
    evaluated exactly in int64 on the doubled weight 2*chi.

    Each row is sorted ascending within its x and its y block and paired
    with `_chambers`' rc, whose x block is reversed: that gives the norm of
    the dominant row, whose x block descends.  A U row sorts once, its y
    entries shifted above its x entries.  An O row sorts |entries| per
    block.  For an even factor the dominant row gives its smallest |entry|
    the sign of the block's product, but 2*rho_c is 0 where that entry
    lands (x_r, resp. y_1), so the sign does not change the norm.  Raises
    ValueError when an entry of chi does not double to an integer or chi is
    too large for int64."""
    import fractions

    import numpy as np

    rho_n2, rc, rho4, reach = _chambers(kind, p, q)
    chi2 = [2 * v for v in chi.xs + chi.ys]
    # bounds every entry of the rows below, before the U shift
    bound = max(map(abs, chi2), default=0) + reach
    if len(chi2) * bound * bound > _INT64_MAX:
        raise ValueError("weight too large for an exact int64 Dirac bound")
    try:
        ints = list(map(int, chi2))
    except ValueError:  # a NaN entry
        ints = None
    if ints != chi2:
        v = next(v for v, d in zip(chi.xs + chi.ys, chi2) if d != d or d != int(d))
        raise ValueError(f"weight entry {v} does not double to an integer")
    nx = len(chi.xs)
    if kind == "U":
        ints[nx:] = [v + _U_SHIFT for v in ints[nx:]]
    rows = np.array(ints, dtype=np.int64) - rho_n2
    if kind == "U":
        rows.sort(axis=1)
    else:
        np.abs(rows, out=rows)
        rows[:, :nx].sort(axis=1)
        rows[:, nx:].sort(axis=1)
    rows += rc
    return fractions.Fraction(rho4 - int(np.einsum("ij,ij->i", rows, rows).min()), 4)


def dirac_bound(kind: str, p: int, q: int, chi: Weight) -> Fraction:
    """Sharpest Parthasarathy bound ||rho||^2 - ||w(chi - rho_n) + rho_c||^2.

    The bound of the Dirac inequality holds for every positive system
    Delta^+(g) containing the fixed compact system; the maximum over those
    systems is returned, each evaluated with w the compact Weyl element
    making w(chi - rho_n) dominant.  Nonpositive for unitarizable modules
    with vanishing Casimir; zero exactly at the lowest K-types 2rho(u cap p).
    The chambers are built once per (kind, p, q) from C(r+s, r) orders of
    the torus coordinates times the free signs; raises CapExceededError when
    those orders exceed WEYL_CAP, and ValueError when p or q is below 1, an
    entry of chi does not double to an integer (NaN included) or chi is too
    large to evaluate exactly in int64.
    """
    r, s = _shape(kind, p, q)
    conv = "U" if kind == "U" else _conv_O(p, q)
    if chi.conv != conv or (len(chi.xs), len(chi.ys)) != (r, s):
        raise ValueError(f"weight {chi.conv} of shape {(len(chi.xs), len(chi.ys))} does not fit {kind}({p},{q})")
    return _dirac_max(kind, p, q, chi)
