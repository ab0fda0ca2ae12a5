"""Test-only oracles for GL characters: the per-cell tableau enumerator and
the full-character restriction built on it.

`cohomrep.branching` counts semistandard tableaux through the Kostka numbers
of a memoized horizontal-strip recursion, and restricts a module through its
dominant weights alone.  This module keeps the former routes: it fills a
tableau of shape hw - hw_n one cell at a time, row by row, counts each
completed filling at its weight, projects every weight of the full character
and peels the result.  It shares no code with the library's recursion; the
tests compare the two.
"""

import functools
from collections import Counter

from cohomrep.partitions import as_partition


def gl_character_by_cells(hw, n: int) -> Counter:
    """Weight multiplicities of the GL_n module with dominant highest
    weight hw, one semistandard filling at a time."""
    return Counter(_fillings(tuple(int(v) for v in hw), n))


@functools.lru_cache(maxsize=1024)
def _fillings(hw: tuple[int, ...], n: int) -> dict[tuple[int, ...], int]:
    """The weights of gl_character_by_cells(hw, n), kept for the reference's
    own peels, which only read them.  A tableau of shape hw - hw_n is filled
    cell by cell, row by row: a cell takes a letter no smaller than its left
    neighbour's and larger than the one above it, and leaves enough letters
    for the cells under it in its column."""
    shift = hw[-1] if hw else 0
    lam = as_partition(tuple(v - shift for v in hw))
    cells = [(i, j) for i in range(len(lam)) for j in range(lam[i])]
    index = {cell: k for k, cell in enumerate(cells)}
    left = [index.get((i, j - 1), -1) for i, j in cells]
    above = [index.get((i - 1, j), -1) for i, j in cells]
    under = [sum(1 for row in lam[i + 1:] if row > j) for i, j in cells]
    grid = [0] * len(cells) + [-1]  # grid[-1] stands for a missing neighbour
    counts = [shift] * n
    char: Counter = Counter()
    last = len(cells) - 1

    def fill(k):
        low = grid[above[k]] + 1
        if low < grid[left[k]]:
            low = grid[left[k]]
        letters = range(low, n - under[k])
        if k == last:
            for c in letters:
                counts[c] += 1
                char[tuple(counts)] += 1
                counts[c] -= 1
            return
        for c in letters:
            counts[c] += 1
            grid[k] = c
            fill(k + 1)
            counts[c] -= 1

    if cells:
        fill(0)
    else:
        char[tuple(counts)] = 1
    return char


def gl_decompose_by_characters(char: Counter, n: int) -> Counter:
    """Highest weights, with multiplicities, of a GL_n character given by
    all its weights: peel the lexicographically greatest weight, which must
    be dominant with a positive multiplicity, and subtract the whole
    character of its module."""
    work = Counter(char)
    out: Counter = Counter()
    while work:
        top = max(work)
        mult = work[top]
        if mult <= 0 or any(a < b for a, b in zip(top, top[1:])):
            raise ValueError(f"not a character: leading weight {top} has multiplicity {mult}")
        out[top] = mult
        for w, k in _fillings(top, n).items():
            work[w] -= mult * k
            if not work[w]:
                del work[w]
    return out


def restricted_decomposition_by_characters(hw, n: int, r: int) -> Counter:
    """Highest weights, with multiplicities, of the GL_n module hw restricted
    to GL_{n-r} under A -> diag(A, 1_r): every weight of the full character
    of hw - hw_n keeps its first n - r coordinates, the sum is peeled, and
    each highest weight is shifted back by hw_n: shapes that differ by a
    shift share their fillings."""
    hw = tuple(int(v) for v in hw)
    shift = hw[-1] if hw else 0
    restricted: Counter = Counter()
    for w, k in _fillings(tuple(v - shift for v in hw), n).items():
        restricted[w[:n - r]] += k
    return Counter({tuple(v + shift for v in top): m
                    for top, m in gl_decompose_by_characters(restricted, n - r).items()})
