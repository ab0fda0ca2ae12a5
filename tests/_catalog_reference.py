"""Test-only oracles for the module catalog.

Neither shares code with the route it checks:

- `ktype_box_sum_U` sums the lowest K-type of A(lam, mu) box by box, where
  `rootdata.ktype_weight_U` reads it off the column lengths in O(p+q).
- `brute_count_O` counts the distinct u cap p realized by dominant torus
  elements on a small level grid, independent of the partition and sign
  classification `vz_catalog.catalog("O", ...)` enumerates.
"""

from itertools import product

from cohomrep.partitions import BoxContext, as_partition, complement, part
from cohomrep.rootdata import Weight


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
    return Weight.make(xs, ys, "U")


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
