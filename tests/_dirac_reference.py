"""Reference Parthasarathy--Dirac bound: the per-call `Fraction` route.

Every call rebuilds rho, rho_c and every positive system containing the fixed
compact one; for O(p,q) it scans all 2^m m! signed permutations of a generic
vector and deduplicates.  Slow, but it shares no code with
`cohomrep.rootdata.dirac_bound`, which the tests compare against it.  Weights
are plain (xs, ys) tuples of Fractions in the coordinates of `rootdata`.
"""

from __future__ import annotations

import itertools
from fractions import Fraction


def _sub(a, b):
    return tuple(x - y for x, y in zip(a, b))


def _add(a, b):
    return tuple(x + y for x, y in zip(a, b))


def _norm2(v):
    return sum(x * x for x in v)


def _rho_U(p, q):
    n = p + q
    rho = tuple(Fraction(n + 1 - 2 * i, 2) for i in range(1, p + 1)) + \
        tuple(Fraction(2 * j - 1 - n, 2) for j in range(1, q + 1))
    rho_c = tuple(Fraction(p + 1 - 2 * i, 2) for i in range(1, p + 1)) + \
        tuple(Fraction(2 * j - q - 1, 2) for j in range(1, q + 1))
    return rho, rho_c


def _u_positive_systems(p, q):
    """rho of every positive system of U(p,q) containing the fixed compact one:
    one per interleaving of the x-chain with the reversed y-chain."""
    n = p + q
    for xpos in itertools.combinations(range(n), p):
        xs = [Fraction(0)] * p
        ys = [Fraction(0)] * q
        ypos = [k for k in range(n) if k not in xpos]
        for i, k in enumerate(xpos):
            xs[i] = Fraction(n - 1 - 2 * k, 2)
        for jj, k in enumerate(ypos):
            # y's are met in descending index order y_q, ..., y_1
            ys[q - 1 - jj] = Fraction(n - 1 - 2 * k, 2)
        yield tuple(xs) + tuple(ys)


def _o_root_vectors(p, q):
    """(m, compact, noncompact): one root per +- pair on the rank m = r+s torus."""
    r, s = p // 2, q // 2
    m = r + s

    def vec(*pairs):
        v = [0] * m
        for idx, c in pairs:
            v[idx] += c
        return tuple(v)

    compact = []
    for i, j in itertools.combinations(range(r), 2):
        compact += [vec((i, 1), (j, -1)), vec((i, 1), (j, 1))]
    for i, j in itertools.combinations(range(s), 2):
        compact += [vec((r + j, 1), (r + i, -1)), vec((r + j, 1), (r + i, 1))]
    if p % 2 == 1:
        compact += [vec((i, 1)) for i in range(r)]
    if q % 2 == 1:
        compact += [vec((r + j, 1)) for j in range(s)]
    noncompact = []
    for i in range(r):
        for j in range(s):
            noncompact += [vec((i, 1), (r + j, -1)), vec((i, 1), (r + j, 1))]
    if q % 2 == 1:
        noncompact += [vec((i, 1)) for i in range(r)]
    if p % 2 == 1:
        noncompact += [vec((r + j, 1)) for j in range(s)]
    return m, compact, noncompact


def _std_order_vector(p, q):
    """Generic vector with x_1 > ... > x_r > y_s > ... > y_1 > 0."""
    r, s = p // 2, q // 2
    m = r + s
    return tuple(Fraction(2 ** (m - i)) for i in range(r)) + tuple(Fraction(2 ** (j + 1)) for j in range(s))


def _dot(a, b):
    return sum(x * y for x, y in zip(a, b))


def _half_sum(roots, v):
    total = [Fraction(0)] * len(v)
    for vec in roots:
        d = _dot(vec, v)
        assert d != 0, f"positivity vector not generic for root {vec}"
        sgn = 1 if d > 0 else -1
        for k, c in enumerate(vec):
            total[k] += Fraction(sgn * c, 2)
    return tuple(total)


def _signed_perms(m):
    for perm in itertools.permutations(range(m)):
        for signs in itertools.product((1, -1), repeat=m):
            yield perm, signs


def o_chambers(p, q):
    """rho_n^w of every positive system of O(p,q) containing the fixed compact
    one, in first-seen order over all signed permutations, deduplicated."""
    m, compact, noncompact = _o_root_vectors(p, q)
    v0 = _std_order_vector(p, q)
    pos_compact = [vec for vec in compact if _dot(vec, v0) > 0]
    seen = {}
    for perm, signs in _signed_perms(m):
        v = tuple(signs[k] * v0[perm[k]] for k in range(m))
        if any(_dot(vec, v) <= 0 for vec in pos_compact):
            continue
        seen.setdefault(_half_sum(noncompact, v), None)
    return list(seen)


def _dominant_U(v, p):
    return tuple(sorted(v[:p], reverse=True)) + tuple(sorted(v[p:]))


def _dominant_O(v, p, q):
    def dom_desc(vals, odd):
        a = sorted((abs(x) for x in vals), reverse=True)
        if not odd and sum(1 for x in vals if x < 0) % 2 == 1 and a and a[-1] != 0:
            a[-1] = -a[-1]
        return tuple(a)

    r = p // 2
    return dom_desc(v[:r], p % 2 == 1) + tuple(reversed(dom_desc(v[r:], q % 2 == 1)))


def dirac_bound(kind, p, q, chi):
    """max over positive systems of ||rho||^2 - ||dom(chi - rho_n^w) + rho_c||^2."""
    chi = tuple(Fraction(v) for v in chi.xs + chi.ys)
    if kind == "U":
        rho, rho_c = _rho_U(p, q)
        rho_n_ws = [_sub(rho_w, rho_c) for rho_w in _u_positive_systems(p, q)]
        dominant = lambda v: _dominant_U(v, p)
    else:
        _, compact, noncompact = _o_root_vectors(p, q)
        v0 = _std_order_vector(p, q)
        rho_c = _half_sum(compact, v0)
        rho = _add(rho_c, _half_sum(noncompact, v0))
        rho_n_ws = o_chambers(p, q)
        dominant = lambda v: _dominant_O(v, p, q)
    return max(_norm2(rho) - _norm2(_add(dominant(_sub(chi, rho_n_w)), rho_c)) for rho_n_w in rho_n_ws)
