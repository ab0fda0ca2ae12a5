import itertools
import math
import os
import pathlib
import random
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest

import _dirac_reference as ref
from _catalog_reference import integer_weight, is_dominant, ktype_box_sum_O, ktype_box_sum_U
from cohomrep import partitions as pt
from cohomrep import rootdata as rd
from cohomrep import vz_catalog as vz
from cohomrep.partitions import BoxContext


class TestRho:
    def test_rho_decomposition(self):
        for p, q in itertools.product(range(1, 10), repeat=2):
            if p + q > 10:
                continue
            for kind in ("U", "O"):
                rs = rd.root_system(kind, p, q)
                total = rs.rho_c2 + rs.rho_n2
                assert total == rs.rho2

    def test_rho_n_shape_U(self):
        rs = rd.root_system("U", 2, 3)
        assert rs.rho_n2.xs == (3, 3) and rs.rho_n2.ys == (-2, -2, -2)


class TestKtypeU:
    def test_against_box_sum(self, compatible_by_box):
        for (p, q), pairs in compatible_by_box.items():
            ctx = BoxContext(p, q)
            for cp in pairs:
                w = rd.ktype_weight_U(cp.lam, cp.mu, ctx)
                assert w == ktype_box_sum_U(cp.lam, cp.mu, ctx)
                assert rd._ktype_weight_U(cp.lam, cp.mu, p, q) == w
                assert is_dominant(w)

    def test_out_of_box_rejected(self):
        with pytest.raises(ValueError, match="does not fit"):
            rd.ktype_weight_U((3,), (3,), BoxContext(2, 2))
        with pytest.raises(ValueError, match="does not fit"):
            rd.ktype_weight_U((), (1, 1, 1), BoxContext(2, 2))

    def test_ladder_identity(self):
        # lam = (r^p), mu = (q^p) in p x (q+r): weight p * sum(y_{q+j} - y_j)
        for p, q, r in itertools.product(range(1, 5), repeat=3):
            if r > q:
                continue
            w = rd.ktype_weight_U((r,) * p, (q,) * p, BoxContext(p, q + r))
            assert all(v == 0 for v in w.xs)
            for j in range(q + r):
                expect = -p if j < r else (p if j >= q else 0)
                assert w.ys[j] == expect

    def test_trivial_and_one_box(self):
        assert rd.ktype_weight_U((), (2, 2), BoxContext(2, 2)) == rd.Weight((0, 0), (0, 0), "U")
        w = rd.ktype_weight_U((1,), (1,), BoxContext(1, 1))
        assert w.xs == (Fraction(1),) and w.ys == (Fraction(-1),)


class TestKtypeO:
    def test_ladder_identity(self):
        for p, q, r in itertools.product(range(1, 5), repeat=3):
            if r > q:
                continue
            ctx = BoxContext(p, q + r)
            orth = pt.ortho_classify((r,) * p, ctx)
            assert orth is not None
            s1, s2 = vz.sign_slots(orth)[0]
            w = rd.ktype_weight_O(orth, s1, s2)
            beta = (q + r) // 2
            assert all(v == 0 for v in w.xs)
            for j in range(1, beta + 1):
                assert w.ys[j - 1] == (p if j > beta - r else 0), (p, q, r, w)

    def test_sign_dependence_2x2(self):
        ctx = BoxContext(2, 2)
        orth = pt.ortho_classify((1, 1), ctx)
        plus = rd.ktype_weight_O(orth, None, 1)
        minus = rd.ktype_weight_O(orth, None, -1)
        assert plus.ys == (Fraction(2),) and minus.ys == (Fraction(-2),)
        with pytest.raises(ValueError):
            rd.ktype_weight_O(orth, -1, None)  # sign1 meaningless for type 2

    def test_against_box_sum(self, orthogonal_by_box):
        # every sign slot of every orthogonal partition with p, q <= 6
        for (p, q), orths in orthogonal_by_box.items():
            for o in orths:
                for s1, s2 in vz.sign_slots(o):
                    w = rd.ktype_weight_O(o, s1, s2)
                    assert w == ktype_box_sum_O(o, s1, s2), (p, q, o.lam, s1, s2)
                    assert {type(v) for v in w.xs + w.ys} <= {int}

    def test_all_variants_distinct_when_swaps_bite(self, orthogonal_by_box):
        for (p, q), orths in orthogonal_by_box.items():
            if p * q > 16:
                continue
            for o in orths:
                weights = [rd.ktype_weight_O(o, s1, s2) for s1, s2 in vz.sign_slots(o)]
                assert len({(w.xs, w.ys) for w in weights}) == len(weights)


class TestDegrees:
    def test_trivial_module_degree_zero(self):
        cp = pt.compatible_pair((), (4, 4, 4), BoxContext(3, 4))
        assert vz.module_from_pair(cp).degree == 0

    def test_levi_identity_O(self, orthogonal_by_box):
        for (p, q), orths in orthogonal_by_box.items():
            for o in orths:
                assert rd.degree_O(o) == pt.weight(o.lam)

    def test_column_ladder_O(self):
        for p in range(1, 5):
            for q in range(3, 6):
                orth = pt.ortho_classify((1,) * p, BoxContext(p, q))
                assert rd.degree_O(orth) == p


def _catalog_ktypes(boxes):
    return [(kind, p, q, mod.label, mod.lowest_ktype)
            for kind, p, q in boxes for mod in vz.catalog(kind, p, q)]


SMALL_BOXES = [(kind, p, q) for p, q in itertools.product(range(1, 7), repeat=2)
               if p + q <= 7 for kind in ("U", "O")]


@pytest.fixture(scope="module")
def small_catalog_ktypes():
    return _catalog_ktypes(SMALL_BOXES)


def _random_integer_weight(rng, kind, p, q):
    nx, ny = (p, q) if kind == "U" else (p // 2, q // 2)
    entry = lambda: rng.randint(-6, 6)
    return integer_weight([entry() for _ in range(nx)], [entry() for _ in range(ny)],
                          "U" if kind == "U" else rd._conv_O(p, q))


class TestDirac:
    def test_zero_at_catalog_ktypes(self, small_catalog_ktypes):
        large = _catalog_ktypes([("U", 5, 5), ("O", 6, 6)])
        for kind, p, q, label, chi in small_catalog_ktypes + large:
            assert rd.dirac_bound(kind, p, q, chi) == 0, label
        assert len(small_catalog_ktypes) == 1573 and len(large) == 6090 + 354

    def test_matches_reference_on_catalog(self, small_catalog_ktypes):
        for kind, p, q, label, chi in small_catalog_ktypes:
            assert rd.dirac_bound(kind, p, q, chi) == ref.dirac_bound(kind, p, q, chi), label

    def test_matches_reference_on_random_weights(self):
        rng = random.Random(20)
        for p, q in itertools.product(range(1, 8), repeat=2):
            if p + q > 8:
                continue
            for kind in ("U", "O"):
                for _ in range(6):
                    chi = _random_integer_weight(rng, kind, p, q)
                    assert rd.dirac_bound(kind, p, q, chi) == ref.dirac_bound(kind, p, q, chi), (kind, p, q, chi)

    def test_non_integral_weight_rejected(self):
        with pytest.raises(ValueError, match="not an integer"):
            integer_weight([Fraction(1, 3), Fraction(-5, 3)], [Fraction(2, 3), 0, 1], "U")
        with pytest.raises(ValueError, match="not an integer"):
            integer_weight([Fraction(4, 3), Fraction(-1, 3)], [Fraction(1, 3), 2], rd._conv_O(5, 4))

    def test_o_chambers_are_the_deduplicated_signed_permutations(self):
        for p, q in itertools.product(range(1, 10), repeat=2):
            if p + q > 10:
                continue
            for kind in ("U", "O"):
                rows = rd._chambers(kind, p, q)[0]
                got = [tuple(Fraction(int(c), 2) for c in row) for row in rows]
                assert len(set(got)) == len(got)
                if kind == "O":
                    want = ref.o_chambers(p, q)
                else:
                    rho_c = ref._rho_U(p, q)[1]
                    want = [ref._sub(rho_w, rho_c) for rho_w in ref._u_positive_systems(p, q)]
                assert set(got) == set(want), (kind, p, q)

    def test_int64_overflow_raises(self):
        near = integer_weight([2**28, -(2**28)], [3, 2**27], "U")
        assert rd.dirac_bound("U", 2, 2, near) == ref.dirac_bound("U", 2, 2, near)
        with pytest.raises(ValueError, match="int64"):
            rd.dirac_bound("U", 2, 2, integer_weight([2**30, 0], [0, 0], "U"))
        with pytest.raises(ValueError, match="not an integer"):
            integer_weight([Fraction(1, 2**40)], [0], "U")

    def test_entry_must_double_to_an_integer(self):
        # an int64 cast would read the doubled 0.5 as 0, the value at (0; 0)
        with pytest.raises(ValueError, match="weight entry 0.25 "):
            rd.dirac_bound("U", 1, 1, rd.Weight((0.25,), (0,), "U"))
        want = ref.dirac_bound("U", 1, 1, rd.Weight((1,), (0,), "U"))
        for x in (1, np.int64(1)):
            assert rd.dirac_bound("U", 1, 1, rd.Weight((x,), (0,), "U")) == want
        half = rd.Weight((Fraction(1, 2),), (0,), "U")
        assert rd.dirac_bound("U", 1, 1, half) == ref.dirac_bound("U", 1, 1, half) != want

    def test_nan_entry_does_not_double_to_an_integer(self):
        with pytest.raises(ValueError, match="weight entry nan does not double to an integer"):
            rd.dirac_bound("U", 1, 1, rd.Weight((math.nan,), (0,), "U"))
        with pytest.raises(ValueError, match="weight entry nan "):
            rd.dirac_bound("O", 2, 3, rd.Weight((0,), (math.nan,), rd._conv_O(2, 3)))

    @pytest.mark.parametrize("kind, p, q, chi", [
        ("U", 0, 2, rd.Weight((), (0, 0), "U")),
        ("U", 2, 0, rd.Weight((0, 0), (), "U")),
        ("O", 0, 2, rd.Weight((), (0,), "O-even-even")),
        ("O", 3, 0, rd.Weight((0,), (), "O-odd-even")),
    ])
    def test_box_without_a_noncompact_root_raises(self, kind, p, q, chi):
        # U(p,0) and O(0,q) are compact: 0 would read as a catalog K-type
        with pytest.raises(ValueError, match="p, q must be >= 1"):
            rd.dirac_bound(kind, p, q, chi)

    def test_weight_must_fit_group(self):
        with pytest.raises(ValueError):
            rd.dirac_bound("U", 2, 2, integer_weight([0], [0, 0], "U"))
        with pytest.raises(ValueError):
            rd.dirac_bound("O", 2, 2, integer_weight([0], [0], "U"))

    def test_strictly_negative_off_catalog(self):
        # chi = 0 is not of the form 2rho(u cap p) for the discrete-series
        # slot; a generic non-catalog K-type of wedge p gives a negative bound
        w = integer_weight([3], [-3], "U")
        assert rd.dirac_bound("U", 1, 1, w) < 0

    def test_identity_path(self):
        # chi - rho_n already dominant for the standard system
        rs = rd.root_system("U", 1, 2)
        chi = rs.rho_n2
        assert rd.dirac_bound("U", 1, 2, chi) == 0

    def test_shifted_sort_matches_reference_on_adversarial_weights(self):
        # U sorts each row once with its y entries shifted above its x entries
        rng = random.Random(21)
        u_boxes = [(p, q) for p, q in itertools.product(range(1, 6), repeat=2) if p + q <= 6]
        near = (2**28, -(2**28), 3, 2**27)  # the admitted weight of test_int64_overflow_raises
        for p, q in u_boxes:
            hi = lambda n: [rng.randint(40, 60) for _ in range(n)]
            lo = lambda n: [rng.randint(-60, -40) for _ in range(n)]
            tie = lambda n: [rng.choice((-1, 0, 1)) for _ in range(n)]
            cyc = [near[i % 4] for i in range(p + q)]
            # the largest entries the int64 guard admits, of alternating sign
            edge = (math.isqrt(rd._INT64_MAX // (p + q)) - rd._chambers("U", p, q)[3]) // 2
            alt = [edge * (-1) ** i for i in range(p + q)]
            for xs, ys in ((hi(p), lo(q)), (lo(p), hi(q)), (tie(p), tie(q)), ([0] * p, [0] * q),
                           ([5] * p, [5] * q), (cyc[:p], cyc[p:]), (alt[:p], alt[p:]),
                           ([-v for v in alt[:p]], [-v for v in alt[p:]])):
                chi = integer_weight(xs, ys, "U")
                assert rd.dirac_bound("U", p, q, chi) == ref.dirac_bound("U", p, q, chi), (p, q, chi)

    def test_o_signs_match_reference_in_every_parity_class(self):
        # the dominant row gives an even factor's smallest |entry| the sign of
        # the block's product; `_dirac_max` drops it, as 2rho_c is 0 there
        for p, q in itertools.product(range(2, 12, 2), repeat=2):
            rho_c2 = rd.root_system("O", p, q).rho_c2
            assert rho_c2.xs[-1] == rho_c2.ys[0] == 0, (p, q)
        rng = random.Random(22)
        for p, q in ((4, 4), (4, 3), (5, 4), (5, 3), (2, 2), (2, 3), (3, 2), (6, 2)):
            r, s = p // 2, q // 2
            for _ in range(12):
                xs = [rng.randint(-5, 5) for _ in range(r)]
                ys = [rng.randint(-5, 5) for _ in range(s)]
                xs[-1] = -rng.randint(1, 5)
                if rng.random() < 0.7:
                    ys[0] = -rng.randint(0, 5)
                chi = integer_weight(xs, ys, rd._conv_O(p, q))
                assert rd.dirac_bound("O", p, q, chi) == ref.dirac_bound("O", p, q, chi), (p, q, chi)

    def test_chambers_are_built_once_per_box(self, small_catalog_ktypes):
        rd._chambers.cache_clear()
        for kind, p, q, _, chi in small_catalog_ktypes:
            rd.dirac_bound(kind, p, q, chi)
        assert rd._chambers.cache_info().misses == len(SMALL_BOXES) == 42

    def test_chamber_rows_keep_the_first_of_each_chamber(self):
        # rows follow `_chamber_orders`: all of them for U, the first of each
        # repeated row for O, as np.unique's first indices in ascending order
        for p, q in itertools.product(range(1, 11), repeat=2):
            for kind, most in (("U", 9), ("O", 12)):
                if p + q > most:
                    continue
                rs = rd.root_system(kind, p, q)
                m = len(rs.rho2.xs + rs.rho2.ys)
                walked = rd._positive_root_sums(rs.noncompact_pairs, rd._chamber_orders(kind, p, q), m)
                _, first = np.unique(walked, axis=0, return_index=True)
                want = walked if kind == "U" else walked[np.sort(first)]
                assert np.array_equal(rd._chambers(kind, p, q)[0], want), (kind, p, q)

    def test_root_system_reads_the_first_order_row(self):
        for p, q in itertools.product(range(1, 10), repeat=2):
            if p + q > 10:
                continue
            for kind in ("U", "O"):
                rs = rd.root_system(kind, p, q)
                compact, noncompact = rd._root_vectors(kind, p, q)
                v0 = next(rd._chamber_orders(kind, p, q))
                for pairs, got in ((compact, rs.rho_c2), (noncompact, rs.rho_n2)):
                    (row,) = rd._positive_root_sums(pairs, [v0], len(v0)).tolist()
                    assert list(got.xs + got.ys) == row, (kind, p, q)

    def test_root_system_needs_no_numpy(self):
        src = pathlib.Path(rd.__file__).resolve().parents[1]
        env = dict(os.environ, PYTHONPATH=str(src))
        code = ("import sys\nfrom cohomrep.rootdata import root_system\n"
                "root_system('O', 4, 5)\nprint('numpy' in sys.modules)\n")
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "False\n"

    def test_cap(self):
        with pytest.raises(pt.CapExceededError):
            rd.dirac_bound("U", 15, 15, integer_weight([0] * 15, [0] * 15, "U"))

    def test_cap_counts_the_orders_walked(self):
        # O(8,8) walks C(8,4) * 2 * 2 = 280 chamber orders, far below the cap
        mods = vz.catalog("O", 8, 8, cap=64)
        for mod in (mods[0], mods[len(mods) // 2], mods[-1]):
            assert rd.dirac_bound("O", 8, 8, mod.lowest_ktype) == 0, mod.label


class TestOptimizedMode:
    def test_conv_mismatch_raises_under_O(self):
        src = pathlib.Path(rd.__file__).resolve().parents[1]
        env = dict(os.environ, PYTHONPATH=str(src))
        code = ("from cohomrep.rootdata import Weight\n"
                "Weight((1,), (1,), 'U') + Weight((1,), (1,), 'O-even-even')\n")
        proc = subprocess.run([sys.executable, "-O", "-c", code], capture_output=True, text=True, env=env)
        assert proc.returncode == 1
        assert "ValueError: weights in different coordinates" in proc.stderr

    def test_nongeneric_positivity_vector_raises(self):
        with pytest.raises(ValueError, match="not generic"):
            rd._positive_root_sums([((1, -1), 1)], [(2, 2)], 2)
