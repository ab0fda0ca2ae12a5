import pytest

from _catalog_reference import brute_count_O, is_dominant, ktype_box_sum_O, ktype_box_sum_U
from cohomrep import partitions as pt
from cohomrep import vz_catalog as vz
from cohomrep.partitions import BoxContext, CapExceededError


class TestCatalogU:
    def test_u11(self):
        mods = vz.catalog("U", 1, 1)
        assert len(mods) == 3
        assert sorted(m.degree for m in mods) == [0, 1, 1]

    def test_count_is_compatible_pairs(self, compatible_by_box):
        for (p, q), pairs in compatible_by_box.items():
            assert len(vz.catalog("U", p, q)) == len(pairs)

    def test_discrete_series_flag(self):
        for mod in vz.catalog("U", 2, 2):
            assert mod.discrete_series == (mod.lam == mod.mu)
            assert mod.degree == pt.weight(mod.lam) + 2 * 2 - pt.weight(mod.mu)

    def test_dominant_ktypes(self):
        for p, q in [(2, 3), (3, 2), (3, 3)]:
            for mod in vz.catalog("U", p, q):
                assert is_dominant(mod.lowest_ktype)


class TestCatalogO:
    def test_sign_multiplicities(self, orthogonal_by_box):
        for (p, q), orths in orthogonal_by_box.items():
            if p * q > 30:
                continue
            # 1 module for an odd partition, 2 for even type 1 or 2, 4 for type 3
            expected = [1 if o.parity == "odd" else 4 if o.even_type == 3 else 2 for o in orths]
            assert [len(vz.sign_slots(o)) for o in orths] == expected
            assert len(vz.catalog("O", p, q)) == sum(expected)

    @pytest.mark.parametrize("p,q", [(2, 2), (2, 3), (3, 2), (3, 3), (2, 4), (4, 2), (3, 4), (4, 3), (4, 4), (5, 3), (3, 5), (5, 4), (4, 5), (5, 5)])
    def test_against_brute_force(self, p, q):
        assert len(vz.catalog("O", p, q)) == brute_count_O(p, q)

    def test_o22_shape(self):
        labels = sorted(m.label for m in vz.catalog("O", 2, 2))
        # one module for (), four for (1) (type 3), two each for (1,1) and (2)
        assert len(labels) == 9
        assert sum(1 for s in labels if s.startswith("A([1])")) == 4
        assert sum(1 for s in labels if s.startswith("A([1, 1])")) == 2
        assert sum(1 for s in labels if s.startswith("A([2])")) == 2

    def test_column_ladder_single_module(self):
        for p in range(1, 5):
            for q in range(3, 6):
                mods = [m for m in vz.catalog("O", p, q) if m.lam == (1,) * p]
                assert len(mods) == 1
                assert mods[0].o_group_extension

    def test_sign_variants_distinct_ktypes(self):
        for p, q in [(2, 2), (2, 4), (4, 2), (2, 3), (3, 2), (4, 4)]:
            seen = {}
            for mod in vz.catalog("O", p, q):
                key = (mod.lam, mod.sign1, mod.sign2)
                assert key not in seen
                seen[key] = mod
            for mod in vz.catalog("O", p, q):
                same_lam = [m for m in vz.catalog("O", p, q) if m.lam == mod.lam]
                kt = {(m.lowest_ktype.xs, m.lowest_ktype.ys) for m in same_lam}
                assert len(kt) == len(same_lam)


class TestCatalogAgainstOracles:
    def test_U_modules(self, compatible_by_box):
        for (p, q), pairs in compatible_by_box.items():
            ctx = BoxContext(p, q)
            mods = vz.catalog("U", p, q)
            assert [(m.lam, m.mu) for m in mods] == [(cp.lam, cp.mu) for cp in pairs]
            for m, cp in zip(mods, pairs):
                assert m.lowest_ktype == ktype_box_sum_U(cp.lam, cp.mu, ctx), m.label
                assert m.degree == sum(cp.lam) + p * q - sum(cp.mu)
                assert m.levi == vz.levi_of_pair(cp)
                assert (m.discrete_series, m.holomorphic) == (cp.lam == cp.mu, cp.mu == (q,) * p)
                assert m == vz.module_from_pair(cp)

    def test_O_modules(self, orthogonal_by_box):
        for (p, q), orths in orthogonal_by_box.items():
            mods = vz.catalog("O", p, q)
            slots = [(o, s1, s2) for o in orths for s1, s2 in vz.sign_slots(o)]
            assert len(mods) == len(slots)
            for m, (o, s1, s2) in zip(mods, slots):
                assert (m.lam, m.sign1, m.sign2) == (o.lam, s1, s2)
                assert m.lowest_ktype == ktype_box_sum_O(o, s1, s2), m.label
                assert m.degree == sum(o.lam)
                assert m.levi == vz.levi_of_orth(o)

    def test_O_ktypes_to_area_42(self, orthogonal_to_area_42):
        # the closed form and its sign negations against the box sum, on
        # every sign variant of every box the default cap admits
        variants = 0
        for orths in orthogonal_to_area_42.values():
            for o in orths:
                for m in vz.modules_from_orth(o):
                    variants += 1
                    assert m.lowest_ktype == ktype_box_sum_O(o, m.sign1, m.sign2), m.label
                    assert m.lowest_ktype == vz.ktype_weight_O(o, m.sign1, m.sign2)
        assert variants == 9386

    def test_each_partition_shape_is_built_once_per_box(self, monkeypatch):
        # U(5,5) has 6,090 pairs over the 252 partitions of the 5 x 5 box
        shaped = []
        shape = vz._shape_U
        monkeypatch.setattr(vz, "_shape_U", lambda nu, p, q: shaped.append(nu) or shape(nu, p, q))
        assert len(vz.catalog("U", 5, 5)) == 6090
        assert len(shaped) == len(set(shaped)) == 252


class TestCarriedPair:
    # each module keeps the index it was built from; the public classifiers,
    # run again on the module's lam (and mu), are the oracle
    def test_U_module_carries_its_compatible_pair(self, compatible_by_box):
        for p, q in compatible_by_box:
            ctx = BoxContext(p, q)
            for m in vz.catalog("U", p, q):
                assert m.pair == pt.compatible_pair(m.lam, m.mu, ctx), m.label
                assert (m.pair.lam, m.pair.mu, m.pair.ctx) == (m.lam, m.mu, ctx)

    def test_O_sign_variants_share_their_orthogonal_partition(self, orthogonal_by_box):
        for p, q in orthogonal_by_box:
            ctx = BoxContext(p, q)
            first = {}
            for m in vz.catalog("O", p, q):
                assert m.pair == pt.ortho_classify(m.lam, ctx), m.label
                assert (m.pair.lam, m.pair.ctx) == (m.lam, ctx)
                assert m.pair is first.setdefault(m.lam, m.pair), m.label


def label_by_fstring(m):
    """The label as the module used to write it, one list repr per call."""
    if m.kind == "U":
        return f"A({list(m.lam)},{list(m.mu)})"
    sup = {1: "+", -1: "-"}.get(m.sign2, "")
    sub = {1: "+", -1: "-"}.get(m.sign1, "")
    deco = ""
    if sup:
        deco += f"^{sup}"
    if sub:
        deco += f"_{sub}"
    return f"A({list(m.lam)}){deco}"


class TestLabels:
    def test_catalog_labels_match_the_fstring(self, compatible_by_box, orthogonal_by_box):
        marks = set()
        for kind, boxes in (("U", compatible_by_box), ("O", orthogonal_by_box)):
            for p, q in boxes:
                for m in vz.catalog(kind, p, q):
                    assert m.label == label_by_fstring(m)
                    marks.add(m.label[m.label.index(")") + 1:])
        assert marks == {"", "^+", "^-", "_+", "_-", "^+_+", "^+_-", "^-_+", "^-_-"}

    def test_label_memo_is_bounded(self):
        info = vz._list_text.cache_info()
        assert info.maxsize == vz.LABEL_MEMO_SIZE and 0 < info.maxsize < 1 << 20
        for _ in range(2):
            labels = [m.label for m in vz.catalog("U", 5, 5)]
        assert len(set(labels)) == 6090
        assert vz._list_text.cache_info().currsize <= info.maxsize


class TestLevi:
    def test_full_rectangle(self):
        cp = pt.compatible_pair((), (3, 3), BoxContext(2, 3))
        assert vz.levi_of_pair(cp) == (("U", 2, 3),)

    def test_two_unit_rectangles(self):
        cp = pt.compatible_pair((1,), (2, 1), BoxContext(2, 2))
        assert vz.levi_of_pair(cp) == (("U", 1, 1), ("U", 1, 1))

    def test_column_ladder_O(self):
        orth = pt.ortho_classify((1, 1, 1), BoxContext(3, 5))
        assert vz.levi_of_orth(orth) == (("O", 3, 3),)

    def test_mixed(self):
        orth = pt.ortho_classify((3, 1), BoxContext(3, 4))
        assert vz.levi_of_orth(orth) == (("O", 1, 2), ("U", 1, 1))


class TestHolomorphic:
    # the holomorphic modules A(lam, (q^p)) with lam = (q^r, s^(p-r)), in the catalog
    def test_corners(self):
        for p, q in [(2, 2), (2, 3), (3, 2)]:
            mods = {(m.lam, m.mu): m for m in vz.catalog("U", p, q)}
            for r in range(p + 1):
                for s in range(q + 1):
                    lam = pt.as_partition((q,) * r + (s,) * (p - r))
                    assert mods[lam, (q,) * p].degree == r * q + s * (p - r), (p, q, r, s)

    def test_flag_set(self):
        for m in vz.catalog("U", 2, 2):
            assert m.holomorphic == (m.mu == (2, 2))


class TestHistogram:
    def test_cap(self):
        with pytest.raises(CapExceededError):
            vz.catalog("U", 7, 7)


class TestDominance:
    def test_all_O_ktypes_dominant(self):
        import itertools
        for p, q in itertools.product(range(1, 5), repeat=2):
            for mod in vz.catalog("O", p, q):
                assert is_dominant(mod.lowest_ktype), mod.label
