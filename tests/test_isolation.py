import pytest

from cohomrep import isolation as iso
from cohomrep import partitions as pt
from cohomrep.partitions import BoxContext

from _partitions_reference import torus_chain_by_sort


class TestIsolatedU:
    def test_trivial_rep(self):
        # a single >= 2x2 rectangle with no shared corner: isolated
        cp = pt.compatible_pair((), (2, 2), BoxContext(2, 2))
        assert iso.is_isolated_U(cp) is True

    def test_small_rectangle_blocks(self):
        cp = pt.compatible_pair((), (1,), BoxContext(1, 1))
        assert iso.is_isolated_U(cp) is False

    def test_discrete_series_never_isolated(self, compatible_by_box):
        for (p, q), pairs in compatible_by_box.items():
            for cp in pairs:
                if cp.lam == cp.mu and pt.weight(cp.lam) <= 8:
                    assert iso.is_isolated_U(cp) is False, (p, q, cp.lam)

    def test_bottom_row_convention(self):
        # lam_p = mu_p triggers the boundary corner
        cp = pt.compatible_pair((), (2, 2), BoxContext(3, 2))
        assert iso.is_isolated_U(cp) is False
        cp = pt.compatible_pair((1, 1, 1), (2, 2, 2), BoxContext(3, 2))
        assert iso.is_isolated_U(cp) is False  # lam_3 = 1 = ... corner at i=3


class TestIsolatedO:
    def test_spot_verdicts(self):
        cases = [
            ((1, 1, 1), (3, 4), True),   # central 3x2, p0+q0 = 5
            ((1, 1, 1), (3, 3), False),  # central 3x1
            ((), (2, 3), True),          # trivial rep, central 2x3
            ((), (2, 2), False),         # central 2x2, p0+q0 = 4
            ((3,), (4, 3), True),        # free top value against a zero block
            ((2, 1), (3, 3), False),     # central 1x1
        ]
        for lam, (p, q), expect in cases:
            orth = pt.ortho_classify(lam, BoxContext(p, q))
            assert iso.is_isolated_O(orth) is expect, (lam, p, q)

    def test_empty_skew_never_isolated(self, orthogonal_by_box):
        for (p, q), orths in orthogonal_by_box.items():
            for o in orths:
                if o.rect_count == 0:
                    assert iso.is_isolated_O(o) is False, (p, q, o.lam)

    def test_small_rectangle_pairs_block(self, orthogonal_by_box):
        for (p, q), orths in orthogonal_by_box.items():
            for o in orths:
                if any(min(a, b) < 2 for a, b in o.pairs):
                    assert iso.is_isolated_O(o) is False


class TestTorusChain:
    def test_matches_the_sorted_oracle(self, orthogonal_to_area_42):
        for (p, q), orths in orthogonal_to_area_42.items():
            ctx = BoxContext(p, q)
            for o in orths:
                chain = iso._torus_chain(o)
                assert chain == torus_chain_by_sort(o), (p, q, o.lam)
                assert iso._torus_chain(pt.ortho_classify(o.lam, ctx)) == chain


class TestRG:
    def test_values(self):
        assert iso.r_G("U", 2, 3) == 2
        assert iso.r_G("O", 5, 5) == 5
        assert iso.r_G("U", 1, 1) == 1
        with pytest.raises(ValueError, match="p, q must be >= 1"):
            iso.r_G("U", 0, 3)


class TestCorMino:
    def test_exhaustive_rank3(self):
        for p in range(3, 10):
            for q in range(3, 10):
                if p + q > 12:
                    continue
                _, best, argmin = iso.nonisolated_degree_scan(p, q)
                th = iso.min_degree_nonisolated("O", p, q)
                assert th.bound == p + q - 3
                assert best == th.bound
                assert th.witness in argmin

    def test_rank2_bound_and_even_attainment(self):
        for q in range(3, 10):
            _, best, argmin = iso.nonisolated_degree_scan(2, q)
            th = iso.min_degree_nonisolated("O", 2, q)
            assert th.bound == q // 2
            assert best >= th.bound
            if q % 2 == 0:
                assert best == th.bound and (q // 2,) in argmin
            else:
                # odd q: ((q-1)/2) is not orthogonal in 2 x q; the scan
                # bottoms out one higher
                assert best == (q + 1) // 2
                assert pt.ortho_classify(((q - 1) // 2,), BoxContext(2, q)) is None

    def test_rank1(self):
        th = iso.min_degree_nonisolated("O", 1, 9)
        assert th.bound is None
        for o in pt.enumerate_orthogonal(BoxContext(1, 9)):
            assert iso.is_isolated_O(o) is False

    def test_rank1_U(self, compatible_by_box):
        for q in range(1, 6):
            for cp in compatible_by_box[(1, q)]:
                assert iso.is_isolated_U(cp) is False

