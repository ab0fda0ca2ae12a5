"""Test-only oracle for GL characters: the per-cell tableau enumerator.

`cohomrep.branching.gl_character` counts semistandard tableaux through the
Kostka numbers of a memoized horizontal-strip recursion.  This module keeps
the former route, which fills a tableau of shape hw - hw_n one cell at a
time, row by row, and counts each completed filling at its weight.  It
shares no code with the library's recursion; the tests compare the two.
"""

from collections import Counter

from cohomrep.partitions import as_partition, pad


def gl_character_by_cells(hw, n: int) -> Counter:
    """Weight multiplicities of the GL_n module with dominant highest
    weight hw, one semistandard filling at a time."""
    hw = tuple(int(v) for v in hw)
    shift = hw[-1] if hw else 0
    lam = tuple(v - shift for v in hw)
    char: Counter = Counter()
    rows = len(as_partition(lam))
    lamp = pad(as_partition(lam), rows)

    def fill(cells, grid, counts):
        if not cells:
            w = tuple(c + shift for c in counts)
            char[w] += 1
            return
        (i, j), rest = cells[0], cells[1:]
        lo = grid[(i, j - 1)] if j > 0 else 0
        for c in range(lo, n):
            if i > 0 and grid[(i - 1, j)] >= c:
                continue
            grid[(i, j)] = c
            counts[c] += 1
            fill(rest, grid, counts)
            counts[c] -= 1
            del grid[(i, j)]

    cells = [(i, j) for i in range(rows) for j in range(lamp[i])]
    fill(cells, {}, [0] * n)
    return char
