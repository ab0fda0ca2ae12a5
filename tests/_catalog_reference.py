"""Test-only oracles for the module catalog.

None shares code with the route it checks:

- `ktype_box_sum_U` sums the lowest K-type of A(lam, mu) box by box, where
  `rootdata.ktype_weight_U` reads it off the column lengths in O(p+q).
- `ktype_box_sum_O` sums the lowest K-type of A(lam)(signs) box by box, in
  its own copy of the reordered eigenbases, where `rootdata.ktype_weight_O`
  reads each coordinate off two rows or two column lengths and negates one
  per sign.  It uses no `rootdata` routine, only the `Weight` record.
- `brute_count_O` counts the distinct u cap p realized by dominant torus
  elements on a small level grid, independent of the partition and sign
  classification `vz_catalog.catalog("O", ...)` enumerates.

`integer_weight` builds a `Weight` from integer entries and refuses any
other, and `is_dominant` tests a weight against the fixed compact positive
system: the tests build and check the weights of the live code with them.
"""

from itertools import product

from cohomrep.partitions import BoxContext, as_partition, complement, part
from cohomrep.rootdata import Weight


def integer_weight(xs, ys, conv: str) -> Weight:
    """The weight with integer entries xs, ys; raises ValueError on an entry
    that is not an integer."""
    ints = tuple(int(v) for v in xs), tuple(int(v) for v in ys)
    for vals, out in zip((xs, ys), ints):
        for v, n in zip(vals, out):
            if v != n:
                raise ValueError(f"weight entry {v} is not an integer")
    return Weight(*ints, conv)


def is_dominant(w: Weight) -> bool:
    """Dominance for the fixed compact positive system: x descending and
    y ascending; for O the last x (resp. first y) enters through its
    absolute value when p (resp. q) is even, and must be >= 0 when odd."""
    xs, ys = w.xs, w.ys
    if w.conv == "U":
        return all(a >= b for a, b in zip(xs, xs[1:])) and all(a <= b for a, b in zip(ys, ys[1:]))
    _, p_par, q_par = w.conv.split("-")
    x_ok = all(xs[i] >= xs[i + 1] for i in range(len(xs) - 2))
    if len(xs) >= 2:
        x_ok = x_ok and xs[-2] >= abs(xs[-1])
    if p_par == "odd" and xs:
        x_ok = x_ok and xs[-1] >= 0
    y_ok = all(ys[i] <= ys[i + 1] for i in range(1, len(ys) - 1))
    if len(ys) >= 2:
        y_ok = y_ok and ys[1] >= abs(ys[0])
    if q_par == "odd" and ys:
        y_ok = y_ok and ys[0] >= 0
    return x_ok and y_ok


def ktype_box_sum_U(lam, mu, ctx: BoxContext) -> Weight:
    """The U lowest K-type weight by literal box summation."""
    p, q = ctx.p, ctx.q
    xs, ys = [0] * p, [0] * q
    for i in range(1, p + 1):
        for j in range(1, part(as_partition(lam), i) + 1):
            xs[i - 1] += 1
            ys[j - 1] -= 1
    mu_hat = complement(mu, p, q)
    for i in range(1, p + 1):
        for j in range(1, part(mu_hat, i) + 1):
            xs[p - i] -= 1
            ys[q - j] += 1
    return integer_weight(xs, ys, "U")


def _basis_weights_p(p, sign1):
    """(index a, coefficient c) of the torus weight c*x_a of each vector of
    the reordered basis e_1..e_r, (e_0), bar e_r..bar e_1 of C^p; sign1 = -1
    swaps e_r and bar e_r."""
    r = p // 2
    basis = [(a, 1) for a in range(1, r + 1)] + [(0, 0)] * (p % 2) + [(a, -1) for a in range(r, 0, -1)]
    if sign1 == -1:
        i, j = basis.index((r, 1)), basis.index((r, -1))
        basis[i], basis[j] = basis[j], basis[i]
    return basis


def _dual_basis_weights_q(q, sign2):
    """(index b, coefficient c) of the torus weight c*y_b of each dual vector
    gamma_j^* of the reordered basis of C^q, ascending weights negated;
    sign2 = -1 swaps f_1 and bar f_1."""
    s = q // 2
    basis = [(b, 1) for b in range(s, 0, -1)] + [(0, 0)] * (q % 2) + [(b, -1) for b in range(1, s + 1)]
    if sign2 == -1:
        i, j = basis.index((1, 1)), basis.index((1, -1))
        basis[i], basis[j] = basis[j], basis[i]
    return basis


def ktype_box_sum_O(orth, sign1=None, sign2=None) -> Weight:
    """The O lowest K-type weight by literal box summation."""
    p, q = orth.ctx.p, orth.ctx.q
    eps = _basis_weights_p(p, sign1)
    gam = _dual_basis_weights_q(q, sign2)
    r, s = p // 2, q // 2
    xs, ys = [0] * r, [0] * s
    lam = orth.lam
    for i in range(1, p + 1):
        for j in range(1, part(lam, i) + 1):
            a, ca = eps[i - 1]
            b, cb = gam[j - 1]
            if ca:
                xs[a - 1] += ca
            if cb:
                ys[b - 1] += cb
    conv = f"O-{('even', 'odd')[p % 2]}-{('even', 'odd')[q % 2]}"
    return integer_weight(xs, ys, conv)


def brute_count_O(p: int, q: int) -> int:
    """Number of distinct u cap p over dominant X, counted from the actual
    eigenvector sets."""
    r, s = p // 2, q // 2
    levels = range(0, r + s + 1)

    def x_ranges():
        if r == 0:
            yield ()
            return
        for head in product(levels, repeat=r - 1):
            if any(head[i] < head[i + 1] for i in range(len(head) - 1)):
                continue
            last_opts = levels if p % 2 == 1 else range(-(r + s), r + s + 1)
            for last in last_opts:
                if head and abs(last) > head[-1]:
                    continue
                yield head + (last,)

    def y_ranges():
        if s == 0:
            yield ()
            return
        for tail in product(levels, repeat=s - 1):
            if any(tail[i] > tail[i + 1] for i in range(len(tail) - 1)):
                continue
            first_opts = levels if q % 2 == 1 else range(-(r + s), r + s + 1)
            for first in first_opts:
                if tail and abs(first) > tail[0]:
                    continue
                yield (first,) + tail

    # eigenvectors of the torus on p = E (x) F^*: label by (E-basis id, F-basis id)
    e_ids = [("e", a) for a in range(1, r + 1)] + [("ebar", a) for a in range(1, r + 1)]
    if p % 2 == 1:
        e_ids.append(("e0", 0))
    f_ids = [("f", b) for b in range(1, s + 1)] + [("fbar", b) for b in range(1, s + 1)]
    if q % 2 == 1:
        f_ids.append(("f0", 0))

    def e_weight(eid, xs):
        tag, a = eid
        if tag == "e":
            return xs[a - 1]
        if tag == "ebar":
            return -xs[a - 1]
        return 0

    def f_weight(fid, ys):
        tag, b = fid
        if tag == "f":
            return ys[b - 1]
        if tag == "fbar":
            return -ys[b - 1]
        return 0

    seen = set()
    for xs in x_ranges():
        for ys in y_ranges():
            u = frozenset((e, f) for e in e_ids for f in f_ids if e_weight(e, xs) - f_weight(f, ys) > 0)
            seen.add(u)
    return len(seen)
