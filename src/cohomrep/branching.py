"""Branching multiplicities and their independent oracles.

The fast route is combinatorial: Littlewood-Richardson coefficients by
direct enumeration of LR skew tableaux, Littlewood's GL -> O restriction in
its stable range, and the K-type restriction predicates driven by rectangle
inscription.  The oracles that cross-check it share none of its code.  The
GL oracle restricts a module's dominant weights, read off Kostka numbers
(semistandard tableaux counted by horizontal strips), and peels highest
weights; it never builds a weight orbit or a full character.  The O(n)
oracle, n <= 3, is explicit character theory.
"""

from __future__ import annotations

import functools
import itertools
import math
from collections import Counter
from typing import Optional

from .partitions import (
    BoxContext,
    Partition,
    _complement,
    _contains,
    _inscribes,
    _subtract_rows,
    as_partition,
    boxed,
    conjugate,
    ortho_classify,
    pad,
    part,
    weight,
)

DIM_CAP = 10**6


# ---------------------------------------------------------------------------
# Littlewood-Richardson coefficients


def lr_coefficient(lam: Partition, mu: Partition, nu: Partition) -> int:
    """c^lam_{mu,nu}: the number of LR skew tableaux of shape lam/mu with
    content nu (semistandard filling whose reverse reading word is a lattice
    word).  Zero unless |lam| = |mu| + |nu| and mu <= lam."""
    lam, mu, nu = as_partition(lam), as_partition(mu), as_partition(nu)
    if weight(lam) != weight(mu) + weight(nu) or not _contains(lam, mu):
        return 0
    return _count_lr_tableaux(lam, mu, nu)


#: (lam, mu, nu) entries kept by the LR-coefficient memo
LR_MEMO_SIZE = 1 << 16


@functools.lru_cache(maxsize=LR_MEMO_SIZE)
def _count_lr_tableaux(lam: Partition, mu: Partition, nu: Partition) -> int:
    rows = len(lam)
    lamp, mup = pad(lam, rows), pad(mu, rows)
    # reverse reading order: each row right to left, rows top down, so the
    # lattice-word property can be enforced incrementally
    cells = [(i, j) for i in range(rows) for j in range(lamp[i] - 1, mup[i] - 1, -1)]
    n_colors = len(nu)

    def fill(idx, grid, remaining, counts):
        if idx == len(cells):
            return 1
        i, j = cells[idx]
        total = 0
        for c in range(n_colors):
            if remaining[c] == 0:
                continue
            if (i, j + 1) in grid and c > grid[(i, j + 1)]:
                continue  # rows weakly increase left to right
            if (i - 1, j) in grid and c <= grid[(i - 1, j)]:
                continue  # columns strictly increase downward
            if c > 0 and counts[c] >= counts[c - 1]:
                continue  # lattice word
            grid[(i, j)] = c
            remaining[c] -= 1
            counts[c] += 1
            total += fill(idx + 1, grid, remaining, counts)
            del grid[(i, j)]
            remaining[c] += 1
            counts[c] -= 1
        return total

    return fill(0, {}, [nu[c] for c in range(n_colors)], [0] * n_colors)


def even_row_partitions(max_weight: int, max_len: int):
    """Partitions with all parts even, of weight <= max_weight."""
    out = {()}

    def gen(prefix, rem, maxpart):
        for v in range(2, min(maxpart, rem) + 1, 2):
            if len(prefix) < max_len:
                cur = prefix + [v]
                out.add(tuple(cur))
                gen(cur, rem - v, v)

    gen([], max_weight, max_weight - max_weight % 2)
    return sorted(out, key=lambda t: (weight(t), t))


def gl_to_o_mult(lam: Partition, mu: Partition, n: int) -> Optional[int]:
    """Multiplicity of the O(n)-module labeled mu in the restriction of the
    GL_n-module E^lam, by Littlewood's rule sum_delta c^lam_{mu delta} over
    partitions delta with all parts even.

    Only valid in the stable range l(lam) <= n/2; outside it the character
    oracle is the source of truth and None is returned."""
    lam, mu = as_partition(lam), as_partition(mu)
    if 2 * len(lam) > n:
        return None
    total = 0
    for delta in even_row_partitions(weight(lam) - weight(mu), len(lam)):
        if weight(mu) + weight(delta) == weight(lam):
            total += lr_coefficient(lam, mu, delta)
    if lam == mu and total != 1:
        raise RuntimeError(f"Littlewood's rule gives {total} != 1 for lam = mu = {lam}, n = {n}")
    return total


# ---------------------------------------------------------------------------
# K-type restriction predicates


def restrict_U_pair(lam: Partition, mu: Partition, ctx: BoxContext, r: int) -> dict:
    """Restriction of the lowest K-type V(lam, mu) of U(p,q) under
    GL_q -> GL_{q-r}: contains the K-type of (lam, mu - (r^p)) for the
    smaller group, with multiplicity one, exactly when (r^p) fits in the
    skew mu/lam; no other same-degree K-type occurs.  lam <= mu must fit
    in the box and r lie in 0..q."""
    lam, mu = boxed(ctx.p, ctx.q, lam, mu)
    if not 0 <= r <= ctx.q:
        raise ValueError(f"r = {r} is outside 0..{ctx.q}")
    ok = _inscribes(r, lam, mu, ctx.p)
    target = (lam, _subtract_rows(mu, r, ctx.p)) if ok else None
    return {"contains": ok, "multiplicity": 1 if ok else 0, "target": target}


def restrict_O(lam: Partition, ctx: BoxContext, r: int) -> dict:
    """Restriction of the lowest K-type of A(lam) under O(q) -> O(q-r):
    contains the same lam (orthogonal in p x (q-r)) with multiplicity one
    exactly when (r^p) fits in the skew complement(lam)/lam.  r must lie in
    0..q-1, so that the box p x (q-r) is not empty."""
    if not 0 <= r <= ctx.q - 1:
        raise ValueError(f"r = {r} is outside 0..{ctx.q - 1}")
    orth = ortho_classify(lam, ctx)
    if orth is None:
        raise ValueError(f"{lam} is not orthogonal in {ctx.p}x{ctx.q}")
    lam = orth.lam
    ok = _inscribes(r, lam, _complement(lam, ctx.p, ctx.q), ctx.p)
    if ok and ortho_classify(lam, BoxContext(ctx.p, ctx.q - r)) is None:
        raise RuntimeError(f"{lam} fits (r^p) but is not orthogonal in {ctx.p}x{ctx.q - r}")
    return {"contains": ok, "multiplicity": 1 if ok else 0}


def restrict_UO_vanishing(lam: Partition, mu: Partition, ctx: BoxContext) -> bool:
    """Whether the restriction of V(lam, mu) from U(p,q) to O(p,q) can be
    nontrivial: true iff lam = 0 or mu is the full box.  lam <= mu must fit
    in the box."""
    lam, mu = boxed(ctx.p, ctx.q, lam, mu)
    return lam == () or mu == (ctx.q,) * ctx.p


def tensor_contains(kind: str, p: int, q: int, params) -> dict:
    """Tensor products of ladder modules.

    U: for (i, j, k, l) with i+j+k+l <= q the product of A((i^p),((q-j)^p))
    and A((k^p),((q-l)^p)) contains A(((i+k)^p),((q-j-l)^p)) with
    multiplicity one.  O: for (k, l) with k+l <= q/2 the product of
    A((k^p))^± and A((l^p))^± contains A(((k+l)^p))^± with multiplicity one.
    p, q >= 1, and params has four entries for U and two for O.
    """
    boxed(p, q)
    if kind in ("U", "O") and len(params) != (4 if kind == "U" else 2):
        raise ValueError(f"tensor needs params i,j,k,l for U and k,l for O, not {list(params)}")
    if kind == "U":
        i, j, k, l = params
        ok = i + j + k + l <= q and min(i, j, k, l) >= 0
        target = (as_partition(((i + k),) * p), as_partition(((q - j - l),) * p)) if ok else None
        return {"contains": ok, "multiplicity": 1 if ok else 0, "target": target}
    if kind == "O":
        k, l = params
        ok = 2 * (k + l) <= q and min(k, l) >= 0
        target = as_partition(((k + l),) * p) if ok else None
        return {"contains": ok, "multiplicity": 1 if ok else 0, "target": target}
    raise ValueError(f"unknown kind {kind!r}")


def kobayashi_admissible(kind: str, p: int, q: int, r: int, lam: Partition, mu: Optional[Partition] = None) -> bool:
    """Discrete decomposability of A(lam, mu) (resp. A(lam)) under the
    symmetric subgroup U(p,q-r) x U(r) (resp. SO(p,q-r) x SO(r)), 2r <= q.

    U: admissible iff lam_i (q - mu_i) = 0 for every row i.
    O: admissible iff lam fits in the half-height box [p/2] x q.  lam (and
    mu, also for O when given) must fit in the p x q box, lam inside mu."""
    lam, mu = boxed(p, q, lam, mu)
    if not 0 <= 2 * r <= q:
        raise ValueError("need 0 <= 2r <= q")
    if kind == "U":
        if mu is None:
            raise ValueError("U needs mu")
        return all(part(lam, i) * (q - part(mu, i)) == 0 for i in range(1, p + 1))
    if kind == "O":
        return len(lam) <= p // 2
    raise ValueError(f"unknown kind {kind!r}")


# ---------------------------------------------------------------------------
# GL restriction oracle (Kostka numbers of dominant weights)


def gl_weyl_dim(hw, n: int, cap: Optional[int] = None) -> int:
    """Weyl dimension formula for GL_n with weakly decreasing hw: the
    product over i < j of (hw_i - hw_j + j - i)/(j - i).  Completed one j at
    a time it is the dimension for GL_{j+1} and hw[:j+1], an exact integer
    that never decreases, as every factor is at least 1.  With a cap the
    first of these above cap is returned, so the result exceeds cap iff the
    dimension does.  The factors with hw_i == hw_j are 1 and skipped: they
    are the run of entries equal to hw_j just before j, where i stops."""
    dim = 1
    run = 0  # first index of the run of entries equal to hw_j
    for j in range(n):
        if hw[j] != hw[run]:
            run = j
        num = den = 1
        for i in range(run):
            num *= hw[i] - hw[j] + j - i
            den *= j - i
        dim = dim * num // den
        if cap is not None and dim > cap:
            break
    return dim


#: entries kept by each GL-branching memo
GL_MEMO_SIZE = 4096


@functools.lru_cache(maxsize=GL_MEMO_SIZE)
def _kostka_numbers(lam: Partition, n: int) -> dict[Partition, int]:
    """{nu: K_{lam,nu}} over the partitions nu with at most n parts: the
    number of semistandard tableaux of shape lam and content nu.  Read nu
    with its smallest part last; the cells holding the largest letter form a
    horizontal strip lam/mu of that size, and the rest is a tableau of shape
    mu with content nu minus that part (Macdonald, Symmetric Functions and
    Hall Polynomials, I.5).  The recursion depth is at most |lam|."""
    if not lam:
        return {(): 1}
    out: dict[Partition, int] = {}
    if n == 0:
        return out
    size = sum(lam)
    # mu interlaces lam: lam_1 >= mu_1 >= lam_2 >= ... >= mu_l >= 0
    for mu in itertools.product(*(range(low, high + 1) for high, low in zip(lam, lam[1:] + (0,)))):
        strip = size - sum(mu)
        if not strip:
            continue
        for nu, k in _kostka_numbers(mu if mu[-1] else mu[:-1], n - 1).items():
            if not nu or nu[-1] >= strip:
                key = nu + (strip,)
                out[key] = out.get(key, 0) + k
    return out


def _dominant_weights(hw: tuple[int, ...], n: int):
    """(d, K) for every dominant weight d of the GL_n module with dominant
    highest weight hw, K its multiplicity: the Kostka numbers of hw - hw_n,
    shifted back by hw_n."""
    shift = hw[-1] if hw else 0
    for nu, k in _kostka_numbers(as_partition(tuple(v - shift for v in hw)), n).items():
        yield tuple(v + shift for v in pad(nu, n)) if shift else pad(nu, n), k


def gl_branching_mult(hw_big, n: int, r: int, hw_small) -> int:
    """Multiplicity of the GL_{n-r} module hw_small in the restriction of
    the GL_n module hw_big under the block embedding A -> diag(A, 1_r);
    0 <= r <= n, and hw_small has n - r entries."""
    if not 0 <= r <= n:
        raise ValueError(f"r = {r} is outside 0..{n}")
    hw_small = tuple(int(v) for v in hw_small)
    if len(hw_small) != n - r:
        raise ValueError(f"GL_{n - r} highest weight must have length {n - r}: {hw_small}")
    return _restricted_decomposition(tuple(int(v) for v in hw_big), n, r).get(hw_small, 0)


@functools.lru_cache(maxsize=GL_MEMO_SIZE)
def _restricted_decomposition(hw: tuple[int, ...], n: int, r: int) -> dict[tuple[int, ...], int]:
    """{highest weight: multiplicity} of the GL_n module hw restricted to
    GL_{n-r}, kept for the process: the one dict is shared, so its readers
    only look multiplicities up.  hw is checked for length, dominance and
    DIM_CAP before any Kostka number is read.

    The restricted character is Weyl-invariant, so its dominant weights fix
    it.  A weight restricts to nu when its first n - r entries are nu and
    its last r a multiset U.  So a dominant weight d of multiplicity K adds
    K r!/prod_v u_v! (the arrangements of U, u_v of them equal to v) to
    nu = d - U, for every sub-multiset U of r entries of d."""
    if len(hw) != n:
        raise ValueError(f"highest weight must have length {n}: {hw}")
    if any(hw[i] < hw[i + 1] for i in range(n - 1)):
        raise ValueError(f"not dominant for GL_{n}: {hw}")
    if gl_weyl_dim(hw, n, DIM_CAP) > DIM_CAP:
        raise ValueError(f"dimension cap exceeded for {hw}")
    char: dict[tuple[int, ...], int] = {}
    for d, k in _dominant_weights(hw, n):
        drops = [((), r, k)]  # (entries kept, entries left to drop, K times arrangements)
        for v, c in Counter(d).items():  # the runs of d, top down
            drops = [(kept + (v,) * (c - u), left - u, ways * math.comb(left, u))
                     for kept, left, ways in drops for u in range(min(c, left) + 1)]
        for nu, left, ways in drops:
            if not left:
                char[nu] = char.get(nu, 0) + ways
    return _peel(char, n - r)


def _peel(char: dict[tuple[int, ...], int], m: int) -> dict[tuple[int, ...], int]:
    """The GL_m highest weights, with multiplicities, of the character whose
    dominant weights char holds, used up on the way: the lexicographically
    greatest weight left is a highest weight, and the dominant weights of
    its module are subtracted."""
    out = {}
    while char:
        top = max(char)
        mult = char[top]
        if mult <= 0:
            raise RuntimeError(f"virtual character: leading weight {top} has multiplicity {mult}")
        out[top] = mult
        for w, k in _dominant_weights(top, m):
            left = char.get(w, 0) - mult * k
            if left:
                char[w] = left
            else:
                del char[w]
    return out


# ---------------------------------------------------------------------------
# K-type highest weights as GL pairs, and the oracle-backed restriction count


@functools.lru_cache(maxsize=GL_MEMO_SIZE)
def _gl_pair_hw(lam: Partition, mu: Partition, p: int, q: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Highest weight of V(lam, mu), for normalized lam <= mu in the p x q
    box, as a descending GL_p x GL_q weight, in O(p+q): lam_i + mu_i - q on
    the first p rows, then p - lam*_j - mu*_j from column q down to 1, so
    the columns GL_{q-r} -> GL_q drops come first, the column lengths being
    tail sums of one count of the parts by size."""
    a = [-q] * p
    count = [0] * (q + 1)  # parts of lam and mu by size, those above q at q
    for nu in (lam, mu):
        for i, v in enumerate(nu):
            if i < p:
                a[i] += v
            count[min(v, q)] += 1
    b = []
    longer = 0  # parts >= j
    for j in range(q, 0, -1):
        longer += count[j]
        b.append(p - longer)
    return tuple(a), tuple(b)


def restrict_U_pair_oracle_mult(lam: Partition, mu: Partition, ctx: BoxContext, r: int,
                                alpha: Partition, beta: Partition) -> int:
    """Multiplicity of V(alpha, beta) (box p x (q-r)) in the restriction of
    V(lam, mu) (box p x q) to GL_p x GL_{q-r}, computed from characters.
    lam <= mu must fit in the big box and alpha <= beta in the small one."""
    p, q = ctx.p, ctx.q
    if not 0 <= r < q:
        raise ValueError(f"r = {r} is outside 0..{q - 1}")
    a_big, b_big = _gl_pair_hw(*boxed(p, q, lam, mu), p, q)
    a_small, b_small = _gl_pair_hw(*boxed(p, q - r, alpha, beta), p, q - r)
    if a_big != a_small:
        return 0
    return gl_branching_mult(b_big, q, r, b_small)


# ---------------------------------------------------------------------------
# small orthogonal groups O(1), O(2), O(3): labels, folding, branching

# irrep labels: ("triv",), ("det",), ("rot", m) for O(2) with m >= 1,
# ("o3", l, eps) for O(3) with eps = +-1 the central character


def folded_o_label(lam: Partition, n: int):
    """Label of the O(n) module attached to a partition of length <= n via
    Weyl's construction from (lam_1 - lam_n, ..., lam_{[n/2]} - lam_{n-[n/2]+1})."""
    lam = as_partition(lam)
    if len(lam) > n:
        raise ValueError(f"need l(lam) <= {n}")
    folded = as_partition(tuple(part(lam, i) - part(lam, n - i + 1) for i in range(1, n // 2 + 1)))
    return o_irrep_from_partition(folded, n)


def o_irrep_from_partition(nu: Partition, n: int):
    nu = as_partition(nu)
    if n == 1:
        if nu == ():
            return ("triv",)
        if nu == (1,):
            return ("det",)
        raise ValueError(f"no O(1) label {nu}")
    if n == 2:
        if nu == ():
            return ("triv",)
        if nu == (1, 1):
            return ("det",)
        if len(nu) == 1:
            return ("rot", nu[0])
        raise ValueError(f"no O(2) label {nu}")
    if n == 3:
        if len(nu) <= 1:
            m = part(nu, 1)
            return ("o3", m, (-1) ** m)
        if nu == (1, 1):
            return ("o3", 1, 1)
        raise ValueError(f"O(3) label {nu} not implemented")
    raise ValueError(f"O({n}) oracle not implemented")


def o_restrict_step(irrep, n: int) -> Counter:
    """Branching O(n) -> O(n-1) for n in {2, 3}, by character theory."""
    out: Counter = Counter()
    if n == 2:
        # O(2) -> O(1) = {1, reflection}
        if irrep == ("triv",):
            out[("triv",)] += 1
        elif irrep == ("det",):
            out[("det",)] += 1
        else:
            out[("triv",)] += 1
            out[("det",)] += 1
        return out
    if n == 3:
        # O(3) = SO(3) x {+-1} -> O(2): weights +-k once each, the zero
        # weight line transforms by eps*(-1)^l under the reflection
        _, l, eps = irrep
        for k in range(1, l + 1):
            out[("rot", k)] += 1
        out[("triv",) if eps * (-1) ** l == 1 else ("det",)] += 1
        return out
    raise ValueError(f"O({n}) -> O({n-1}) not implemented")


def o_branching_mult(lam_label, n: int, r: int, target_label) -> int:
    """Multiplicity of target in the restriction O(n) -> O(n-r), iterating
    one-step branching (exact for n <= 3)."""
    current: Counter = Counter({lam_label: 1})
    for step in range(r):
        nxt: Counter = Counter()
        for ir, m in current.items():
            for ir2, m2 in o_restrict_step(ir, n - step).items():
                nxt[ir2] += m * m2
        current = nxt
    return current.get(target_label, 0)


def restrict_O_oracle_mult(lam: Partition, ctx: BoxContext, r: int, alpha: Partition) -> int:
    """Multiplicity of the O(p) x O(q-r) K-type attached to alpha in the
    restriction of the one attached to lam (character route, q <= 3)."""
    p, q = ctx.p, ctx.q
    if folded_o_label(lam, p) != folded_o_label(alpha, p):
        return 0
    big = folded_o_label(conjugate(lam), q)
    small = folded_o_label(conjugate(alpha), q - r)
    return o_branching_mult(big, q, r, small)
