import itertools

import pytest

from cohomrep.partitions import BoxContext, enumerate_compatible, enumerate_orthogonal


@pytest.fixture(scope="session")
def small_boxes():
    return [BoxContext(p, q) for p, q in itertools.product(range(1, 5), repeat=2)]


@pytest.fixture(scope="session")
def compatible_by_box():
    out = {}
    for p, q in itertools.product(range(1, 6), repeat=2):
        ctx = BoxContext(p, q)
        out[(p, q)] = enumerate_compatible(ctx)
    return out


@pytest.fixture(scope="session")
def orthogonal_by_box():
    out = {}
    for p, q in itertools.product(range(1, 7), repeat=2):
        ctx = BoxContext(p, q)
        out[(p, q)] = enumerate_orthogonal(ctx, cap=64)
    return out


@pytest.fixture(scope="session")
def orthogonal_to_area_42():
    # every box the default enumeration cap admits, p > q included
    return {(p, q): enumerate_orthogonal(BoxContext(p, q))
            for p in range(1, 43) for q in range(1, 42 // p + 1)}
