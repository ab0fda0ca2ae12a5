import json
import pathlib

import pytest

from cohomrep import branching as br
from cohomrep import lefschetz as lef
from cohomrep.partitions import BoxContext

from _golden import replay

GOLDEN = pathlib.Path(__file__).parent / "data" / "verdict_golden.json"




class TestGolden:
    def test_table_size(self):
        rows = json.loads(GOLDEN.read_text())["rows"]
        assert len(rows) >= 25

    def test_replay(self):
        rows = json.loads(GOLDEN.read_text())["rows"]
        for row in rows:
            v = replay(row["query"])
            assert v.status == row["expect"]["status"], row
            assert v.anchor == row["expect"]["anchor"], row
            assert v.threshold == row["expect"]["threshold"], row

    def test_conjectures_never_guaranteed(self):
        rows = json.loads(GOLDEN.read_text())["rows"]
        for row in rows:
            if row["expect"]["anchor"].startswith("Conj"):
                assert row["expect"]["status"] != lef.GUARANTEED
        # and the engine enforces it structurally
        assert any(row["expect"]["status"] == "conjectured" for row in rows)

    def test_anchors_in_citation_table(self):
        rows = json.loads(GOLDEN.read_text())["rows"]
        for row in rows:
            assert row["expect"]["anchor"] in lef.CITATIONS


class TestMonotonicity:
    @pytest.mark.parametrize("G,H", [("U:2,3", None), ("O:3,4", None), ("O:2,7", "O:2,6")])
    def test_restriction_degree_monotone(self, G, H):
        Gg = lef.parse_group(G)
        Hh = lef.parse_group(H) if H else None
        guaranteed = [k for k in range(12)
                      if lef.restriction_verdict(Gg, Hh, degree=k).status == lef.GUARANTEED]
        assert guaranteed == list(range(len(guaranteed)))

    @pytest.mark.parametrize("G,H", [("U:2,6", "U:2,5"), ("O:3,11", "O:3,10"), ("O:2,9", "O:2,8")])
    def test_cup_degree_monotone(self, G, H):
        Gg, Hh = lef.parse_group(G), lef.parse_group(H)
        guaranteed = [k for k in range(12)
                      if lef.cup_verdict(Gg, Hh, degree=k).status == lef.GUARANTEED]
        assert guaranteed == list(range(len(guaranteed)))


class TestCrossConsistency:
    def test_restriction_component_matches_branching(self, compatible_by_box):
        for (p, q), pairs in compatible_by_box.items():
            if q < 2:
                continue
            G = lef.Group("U", p, q)
            H = lef.Group("U", p, q - 1)
            for cp in pairs:
                v = lef.restriction_verdict(G, H, component=(cp.lam, cp.mu))
                res = br.restrict_U_pair(cp.lam, cp.mu, BoxContext(p, q), 1)
                assert (v.status == lef.GUARANTEED) == res["contains"]
                if res["contains"]:
                    assert v.target_component == res["target"]

    def test_O_component_criterion_matches_branching(self, orthogonal_by_box):
        for (p, q), orths in orthogonal_by_box.items():
            if q < 2 or p * q > 24:
                continue
            G = lef.Group("O", p, q)
            H = lef.Group("O", p, q - 1)
            for orth in orths:
                v = lef.restriction_verdict(G, H, component=orth.lam)
                res = br.restrict_O(orth.lam, BoxContext(p, q), 1)
                if v.status == lef.CONJECTURED:
                    assert v.criterion_value == res["contains"]
                elif v.status == lef.GUARANTEED:
                    assert res["contains"]


class TestThetaAndL2:
    def test_l2_cup_threshold(self):
        th = lef.l2_cup_threshold(2, 5, 1)
        assert th.iso_max_degree == 2  # k < (5+2-1)/2 = 3
        th = lef.l2_cup_threshold(1, 4, 1)
        assert th.iso_max_degree == 1  # k < (4+1-1)/2 = 2
        assert th.middle_injective is None  # q+r = 5 odd
        th = lef.l2_cup_threshold(1, 3, 1)
        assert th.middle_injective == 2  # q+r = 4 even
        th = lef.l2_cup_threshold(3, 4, 0)
        assert th.iso_max_degree is None and "identity" in th.iso_range

    def test_modular_symbol_target(self):
        v = lef.modular_symbol_verdict("O", 3, 5, 2)
        assert v.status == lef.GUARANTEED and v.target_component == (2, 2, 2)
        v = lef.modular_symbol_verdict("U", 2, 4, 2)
        assert v.target_component == ((2, 2), (4, 4))
        assert lef.modular_symbol_verdict("O", 3, 3, 2).status == lef.NOT_COVERED


class TestVerdictHygiene:
    def test_guaranteed_replays_true(self):
        rows = json.loads(GOLDEN.read_text())["rows"]
        for row in rows:
            v = replay(row["query"])
            if v.status == lef.GUARANTEED and v.criterion_value is not None:
                assert v.criterion_value is True

    def test_unknown_anchor_rejected(self):
        with pytest.raises(ValueError, match="unknown anchor"):
            lef.Verdict(lef.GUARANTEED, "Thm bogus", "x")

    @pytest.mark.parametrize("G, H, component, r, match", [
        ("O:3,6", "O:3,5", (6,), 1, "does not fit in 3x5"),
        ("U:2,4", "U:2,3", ((1,), (4, 4)), None, "2x3"),
        ("O:3,4", None, (1,), 4, "outside 1..3"),
        ("U:2,4", None, ((1,), (2, 2)), None, "needs H or r"),
    ])
    def test_cup_component_outside_h_box_raises(self, G, H, component, r, match):
        G, H = lef.parse_group(G), lef.parse_group(H) if H else None
        with pytest.raises(ValueError, match=match):
            lef.cup_verdict(G, H, component=component, r=r)

    @pytest.mark.parametrize("case, match", [
        ({"fn": "restriction", "G": "U:2,3", "H": "U:2,2", "component": [1]}, "reads a component 'lam;mu'"),
        ({"fn": "restriction", "G": "O:3,4", "H": "O:3,3", "component": [[1], [2]]}, "reads a component 'lam'"),
        ({"fn": "restriction", "G": "U:3,4", "H": "O:3,4", "component": [[], [1], [2]]}, "'lam or lam;mu'"),
        ({"fn": "restriction", "G": "U:2,3", "H": "U:2,2", "component": [[2], [1]]}, "not contained"),
        ({"fn": "restriction", "G": "U:2,3", "component": [9]}, "does not fit in 2x3"),
        ({"fn": "cup", "G": "O:3,6", "H": "O:3,5", "component": [[1], [2]]}, "reads a component 'lam'"),
        ({"fn": "classes", "G": "O:3,9", "k": 1, "l": 1, "components": [[1, 1, 1], [10]]}, "3x9"),
    ])
    def test_component_shape_and_box_checked_once(self, case, match):
        with pytest.raises(ValueError, match=match):
            replay(case)

    @pytest.mark.parametrize("text", ["X:3,4", "O:3", "O:a,b", "U:0,2", "U3,4"])
    def test_bad_group_text_raises(self, text):
        with pytest.raises(ValueError, match="bad group"):
            lef.parse_group(text)


class TestExplicitPairs:
    def test_explicit_hyperplane_pair_matches_default(self):
        G = lef.parse_group("U:2,3")
        pair = (lef.Group("U", 2, 2), lef.Group("U", 1, 3))
        for k in range(6):
            a = lef.restriction_verdict(G, None, degree=k)
            b = lef.restriction_verdict(G, pair, degree=k)
            assert (a.status, a.anchor) == (b.status, b.anchor)

    def test_wrong_pair_not_covered(self):
        G = lef.parse_group("U:2,3")
        pair = (lef.Group("U", 2, 1), lef.Group("U", 1, 3))
        assert lef.restriction_verdict(G, pair, degree=1).status == lef.NOT_COVERED
