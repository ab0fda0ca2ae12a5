import collections
import itertools
import json
import pathlib
import re
from fractions import Fraction

import pytest

from cohomrep import branching as br
from cohomrep import lefschetz as lef
from cohomrep import vz_catalog as vz
from cohomrep.partitions import BoxContext, as_partition

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

    @pytest.mark.parametrize("G, H, component, r, match", [
        ("O:2,4", "O:2,3", (), 4, "r = 4 is outside 0..3"),
        ("O:3,4", "O:3,3", (), -1, "r = -1 is outside 0..3"),
        ("U:2,3", "U:2,2", ((1,), (2, 1)), 7, "r = 7 is outside 0..3"),
        ("U:2,3", "U:2,2", ((1,), (2, 1)), -1, "r = -1 is outside 0..3"),
        ("U:2,3", "U:2,5", ((1,), (2, 1)), None, "r = -2 is outside 0..3"),
    ])
    def test_restriction_component_r_outside_the_predicate_raises(self, G, H, component, r, match):
        # the range is the branching predicate's: 0..q for U, 0..q-1 for O
        with pytest.raises(ValueError, match=match):
            lef.restriction_verdict(lef.parse_group(G), lef.parse_group(H), component=component, r=r)

    @pytest.mark.parametrize("fn, G, H, component, r", [
        # U -> U, r within 0..q: a component of U(2,1), not of U(2,2), and
        # H = G, whose codimension is 0
        ("restriction", "U:2,3", "U:2,2", ((1,), (3, 3)), 2),
        ("restriction", "U:2,3", "U:2,3", ((1,), (2, 1)), 1),
        # O -> O, r within 0..q-1
        ("restriction", "O:2,4", "O:2,3", (), 2),
        ("restriction", "O:3,4", "O:3,4", (), 1),
        # cup, r within 1..q-1, U and O: r = 3 would read H's 3x5 box as codimension 3
        ("cup", "O:3,6", "O:3,5", (), 3),
        ("cup", "U:2,4", "U:2,3", ((1,), (2, 2)), 2),
    ])
    def test_component_r_that_disagrees_with_h_raises(self, fn, G, H, component, r):
        verdict = lef.restriction_verdict if fn == "restriction" else lef.cup_verdict
        G, H = lef.parse_group(G), lef.parse_group(H)
        with pytest.raises(ValueError, match=re.escape(f"r = {r} disagrees with H = {H}, which has r = {G.q - H.q}")):
            verdict(G, H, component=component, r=r)

    @pytest.mark.parametrize("fn, G, H, component", [
        ("restriction", "U:2,3", "U:2,2", ((1,), (2, 1))),
        ("restriction", "U:2,3", "U:2,3", ((1,), (2, 1))),
        ("restriction", "O:3,6", "O:3,4", ()),
        ("cup", "O:3,6", "O:3,5", (1, 1, 1)),
        ("cup", "U:2,4", "U:2,3", ((1,), (2, 2))),
    ])
    def test_component_r_that_agrees_with_h_answers_as_omitted(self, fn, G, H, component):
        verdict = lef.restriction_verdict if fn == "restriction" else lef.cup_verdict
        G, H = lef.parse_group(G), lef.parse_group(H)
        assert verdict(G, H, component=component, r=G.q - H.q) == verdict(G, H, component=component)

    def test_u_component_restriction_keeps_p(self):
        # Thm analogue restricts U(p,q) to U(p,q-r); U(1,2) is not of that form
        v = lef.restriction_verdict(lef.Group("U", 2, 3), lef.Group("U", 1, 2), component=((1,), (2, 1)))
        assert tuple(v) == (lef.NOT_COVERED, "Thm analogue", "no statement covers this component query",
                            None, None, None)

    @pytest.mark.parametrize("G, H, component", [
        ("O:3,6", "U:1,5", (1, 1, 1)),
        ("U:2,4", "U:1,3", ((1,), (2, 2))),
        ("U:2,4", "O:2,3", ((1,), (2, 2))),
        ("O:3,6", "O:2,5", (1,)),
        ("O:3,6", "U:3,5", (1, 1, 1)),
    ])
    def test_cup_component_with_h_of_another_kind_or_p_answers_as_restriction(self, G, H, component):
        G, H = lef.parse_group(G), lef.parse_group(H)
        v = lef.cup_verdict(G, H, component=component)
        assert v == lef.restriction_verdict(G, H, component=component)
        assert (v.status, v.target_component) == (lef.NOT_COVERED, None)
        assert v.anchor == ("Thm analogue" if G.kind == "U" else "Thm anaO")
        # the component is still read in G's box
        with pytest.raises(ValueError, match=f"does not fit in {G.p}x{G.q}"):
            lef.cup_verdict(G, H, component=(G.q + 1,))

    @pytest.mark.parametrize("G, H, component", [
        ("U:2,4", "U:2,3+U:1,4", ((1,), (2, 2))),
        ("O:3,6", "O:3,5+O:2,6", (1, 1, 1)),
    ])
    @pytest.mark.parametrize("r", [None, 1])
    def test_cup_component_with_two_groups_h_answers_as_restriction(self, G, H, component, r):
        # H of two groups names no codimension: r is not read, as in restriction
        G, H = lef.parse_group(G), tuple(map(lef.parse_group, H.split("+")))
        v = lef.cup_verdict(G, H, component=component, r=r)
        assert v == lef.restriction_verdict(G, H, component=component, r=r)
        assert (v.status, v.target_component) == (lef.NOT_COVERED, None)
        assert v.anchor == ("Thm analogue" if G.kind == "U" else "Thm anaO")
        with pytest.raises(ValueError, match=f"does not fit in {G.p}x{G.q}"):
            lef.cup_verdict(G, H, component=(G.q + 1,), r=r)

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

    @pytest.mark.parametrize("query", [
        lambda G: lef.restriction_verdict(G, degree=1),
        lambda G: lef.cup_verdict(G, lef.Group("X", 2, 2), degree=1),
        lambda G: lef.cup_classes_verdict(G, 1, 1),
        lambda G: lef.restriction_verdict(G, component=(1,)),
        lambda G: lef.cup_verdict(G, lef.Group("U", 2, 2), component=(1,)),
        lambda G: lef.cup_verdict(G, component=((1,), (2,)), r=1),
    ])
    def test_query_on_an_unknown_kind_raises(self, query):
        # parse_group admits only U and O; a Group built by hand is checked
        # too, by one check that degree and component queries share
        with pytest.raises(ValueError, match="unknown kind 'X'"):
            query(lef.Group("X", 2, 3))

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


#: one query per anchor of lef.CITATIONS, in replay form ("Thm cohom l2"
#: comes from l2_cup_threshold)
ANCHOR_QUERIES = [
    {"fn": "restriction", "G": "U:2,3", "degree": 1},
    {"fn": "restriction", "G": "O:3,4", "degree": 1},
    {"fn": "restriction", "G": "O:2,5", "H": "O:2,4", "degree": 1},
    {"fn": "restriction", "G": "U:3,4", "H": "O:3,4", "degree": 1},
    {"fn": "restriction", "G": "U:2,5", "H": "O:2,5", "degree": 1},
    {"fn": "restriction", "G": "U:2,3", "H": "U:2,2", "component": [[1], [2, 1]]},
    {"fn": "restriction", "G": "U:2,4", "H": "U:2,3", "component": [[], [4, 4]], "l2": True},
    {"fn": "restriction", "G": "U:2,4", "H": "U:2,3", "component": [[1], [3, 2]], "l2": True},
    {"fn": "restriction", "G": "O:3,6", "H": "O:3,5", "component": []},
    {"fn": "restriction", "G": "O:3,6", "H": "O:3,5", "component": [], "l2": True},
    {"fn": "restriction", "G": "O:3,6", "H": "O:3,5", "component": [4, 2]},
    {"fn": "restriction", "G": "U:3,4", "H": "O:3,4", "component": []},
    {"fn": "restriction", "G": "U:3,4", "H": "O:3,4", "component": [], "l2": True},
    {"fn": "restriction", "G": "U:3,4", "H": "O:3,4", "component": [[1], [2, 1]]},
    {"fn": "cup", "G": "U:2,5", "H": "U:2,4", "degree": 1},
    {"fn": "cup", "G": "U:2,5", "H": "U:2,3", "degree": 1},
    {"fn": "cup", "G": "O:3,8", "H": "O:3,7", "degree": 1},
    {"fn": "cup", "G": "O:2,9", "H": "O:2,8", "degree": 1},
    {"fn": "cup", "G": "O:2,7", "H": "O:2,5", "degree": 1},
    {"fn": "cup", "G": "O:3,6", "H": "O:3,5", "component": [1]},
    {"fn": "cup", "G": "O:3,6", "H": "O:3,5", "component": [1], "l2": True},
    {"fn": "cup", "G": "U:2,4", "H": "U:2,3", "component": [[1], [2, 2]], "l2": True},
    {"fn": "classes", "G": "U:2,3", "k": 1, "l": 1},
    {"fn": "classes", "G": "O:1,4", "k": 1, "l": 1},
    {"fn": "classes", "G": "O:3,4", "k": 1, "l": 1},
    {"fn": "classes", "G": "O:3,9", "k": 1, "l": 1, "components": [[1, 1, 1], [1, 1, 1]]},
    {"fn": "modular", "kind": "O", "p": 3, "q": 5, "r": 2},
    {"fn": "modular", "kind": "U", "p": 2, "q": 4, "r": 2},
]


def _groups_up_to(G):
    """None, the hyperplane pair and every U/O group in G's box."""
    yield None
    yield (lef.Group(G.kind, G.p, G.q - 1), lef.Group(G.kind, G.p - 1, G.q))
    for kind, p, q in itertools.product("UO", range(1, G.p + 1), range(1, G.q + 1)):
        yield lef.Group(kind, p, q)


class TestTheoremTable:
    def test_every_citation_is_emitted(self):
        # a CITATIONS entry that no query emits is dead text
        emitted = {replay(case).anchor for case in ANCHOR_QUERIES} | {lef.l2_cup_threshold(2, 5, 1).anchor}
        assert emitted == set(lef.CITATIONS)

    def test_every_degree_row_is_reached_on_both_sides(self):
        # each row of the table answers some query inside its bound and some
        # outside it; a row without a bound answers "conjectured" for a
        # conjecture and "not-covered" for a mode's fallback
        seen = collections.defaultdict(set)
        for kind, p, q in itertools.product("UO", range(1, 11), range(1, 11)):
            G = lef.Group(kind, p, q)
            queries = [("classes", None, lambda k: lef.cup_classes_verdict(G, k, 0))]
            for H in _groups_up_to(G):
                queries += [("restriction", H, lambda k, H=H: lef.restriction_verdict(G, H, degree=k)),
                            ("cup", H, lambda k, H=H: lef.cup_verdict(G, H, degree=k))]
            for mode, H, verdict in queries:
                row = lef._theorem(mode, G, H)
                for k in range(-2, 22) if row.bound or row.halves else (0,):
                    v = verdict(k)
                    assert v.anchor == row.anchor and v.qualifier == row.qualifier, (G, H, k, v)
                    seen[row].add((v.status, v.criterion_value))
        for row in lef._THEOREMS:
            status = lef.CONJECTURED if row.anchor.startswith("Conj") else lef.NOT_COVERED
            if not (row.bound or row.halves):
                want = {(status, None)}
            elif status == lef.CONJECTURED:
                want = {(status, True), (status, False)}
            else:
                want = {(lef.GUARANTEED, None), (lef.NOT_COVERED, None)}
            assert seen[row] == want, (row.anchor, row.text, seen[row])

    @pytest.mark.parametrize("fn, G, H, kwargs, want", [
        ("restriction", "U:2,4", "U:2,3", {"component": ((), (4, 4)), "l2": True},
         ("guaranteed", "Thm anaU-L2", "(r^p) = (1^2) fits in mu/lam: True", ((), (3, 3)), "L2 cohomology", True)),
        ("restriction", "U:2,4", "U:2,3", {"component": ((1,), (3, 2)), "l2": True},
         ("conjectured", "Conj CU1", "criterion (r^p) fits: True", ((1,), (2, 1)), "L2 cohomology", True)),
        ("restriction", "U:3,4", "O:3,4", {"component": ((1,), (2, 1))},
         ("conjectured", "Conj CanaUO", "criterion lam = 0 or mu full: False", None, None, False)),
        ("cup", "U:5,2", "U:4,2", {"degree": 1},
         ("guaranteed", "Thm upq.2", "k < p-q-1: 1 < 2; image degree k+2q = 5", None, None, None)),
        ("cup", "O:10,3", "O:9,3", {"degree": 2},
         ("guaranteed", "Thm opq.2", "k <= (p-q-3)/2: 2 <= 2.0; image degree k+q = 5", None, None, None)),
        ("cup", "U:2,5", "U:2,3", {"degree": 1},
         ("conjectured", "Conj conj2", "r = 2; conjectural for components; no degree theorem", None, None, None)),
        ("cup", "U:2,5", "O:2,5", {"degree": 1},
         ("not-covered", "Thm upq.2", "no theorem covers this cup query", None, None, None)),
        # the cup-class-O bound prints as min(int, float) does: the int on a tie
        ("cup", "O:3,6", "O:3,2", {"degree": -6},
         ("guaranteed", "Thm cup-class-O", "k <= min(p+q+r-rp-3, (q-pr)/2-1) = -6; image degree k+rp = 6",
          None, None, None)),
        ("cup", "O:2,7", "O:2,5", {"degree": 0},
         ("not-covered", "Thm cup-class-O", "k <= min(p+q+r-rp-3, (q-pr)/2-1) = -0.5; image degree k+rp = 4",
          None, None, None)),
    ])
    def test_branches_no_golden_row_pins(self, fn, G, H, kwargs, want):
        verdict = lef.restriction_verdict if fn == "restriction" else lef.cup_verdict
        assert tuple(verdict(lef.parse_group(G), lef.parse_group(H), **kwargs)) == want

    def test_cup_class_O_is_decided_on_integers(self):
        # k <= min(A, (q'-pr)/2 - 1) with A = p+q'+r-rp-3, read as k <= A and
        # 2(k+1) <= q'-pr, agrees with the rational comparison everywhere
        for p, q, qh in itertools.product(range(2, 9), range(3, 12), range(2, 11)):
            G, H = lef.Group("O", p, q), lef.Group("O", p, qh)
            if qh >= q or lef._theorem("cup", G, H).anchor != "Thm cup-class-O":
                continue
            r = q - qh
            bound = min(p + qh + r - r * p - 3, Fraction(qh - p * r, 2) - 1)
            for k in range(-2, 20):
                assert (lef.cup_verdict(G, H, degree=k).status == lef.GUARANTEED) == (k <= bound), (G, H, k)


class TestDegreeRowsAgainstCatalog:
    def test_o2n_guaranteed_degrees_restrict(self):
        # Thm o2n: restriction O(2,q) -> O(2,q-1) is injective in degree
        # k <= q-1, so every module of such a degree restricts its lowest
        # K-type to the hyperplane
        checked = 0
        for q in range(3, 8):
            G, H = lef.Group("O", 2, q), lef.Group("O", 2, q - 1)
            for mod in vz.catalog("O", 2, q):
                v = lef.restriction_verdict(G, H, degree=mod.degree)
                if v.status == lef.GUARANTEED:
                    assert v.anchor == "Thm o2n"
                    assert br.restrict_O(mod.lam, BoxContext(2, q), 1)["contains"], (q, mod.label)
                    checked += 1
        assert checked == 62


class TestComponentVerdictsAgainstOracles:
    # a guaranteed component verdict names a target; its multiplicity comes
    # from the character oracles, which share no code with the predicates the
    # verdicts read.  U -> O has no character oracle, and the O(n) oracle
    # answers for n <= 3 only
    def test_analogue_targets_restrict_once(self, compatible_by_box):
        checked = 0
        for (p, q), pairs in compatible_by_box.items():
            if p > 3 or q > 4:
                continue
            for cp, r in itertools.product(pairs, range(1, q)):
                v = lef.restriction_verdict(lef.Group("U", p, q), lef.Group("U", p, q - r), component=(cp.lam, cp.mu))
                if v.status == lef.GUARANTEED:
                    alpha, beta = v.target_component
                    assert br.restrict_U_pair_oracle_mult(cp.lam, cp.mu, BoxContext(p, q), r, alpha, beta) == 1, (
                        p, q, r, cp.lam, cp.mu)
                    checked += 1
        assert checked == 167

    def test_anaO_targets_restrict_once(self, orthogonal_by_box):
        checked = 0
        for (p, q), orths in orthogonal_by_box.items():
            if p > 3 or q > 3:
                continue
            for orth, r, l2 in itertools.product(orths, range(1, q), (False, True)):
                v = lef.restriction_verdict(lef.Group("O", p, q), lef.Group("O", p, q - r), component=orth.lam, l2=l2)
                if v.status == lef.GUARANTEED:
                    assert v.anchor == ("Thm anaO-L2" if l2 else "Thm anaO")
                    assert br.restrict_O_oracle_mult(orth.lam, BoxContext(p, q), r, v.target_component) == 1
                    checked += 1
        assert checked == 2  # O(3,3) -> O(3,2) on the trivial component, with and without l2

    def test_ladder_theorems_answer_on_their_stated_range(self):
        # each ladder theorem is guaranteed exactly where its CITATIONS
        # statement holds, read here with Fractions, and names its target
        half = lambda n: Fraction(n, 2)
        seen = collections.Counter()

        def check(v, want, anchor, target):
            assert (v.status == lef.GUARANTEED) == want, (anchor, v)
            if want:
                assert (v.anchor, v.target_component) == (anchor, target)
                seen[anchor] += 1

        for p, q in itertools.product(range(1, 7), range(1, 9)):
            O, U = lef.Group("O", p, q), lef.Group("U", p, q)
            for i in range(q + 1):
                col = as_partition((i,) * p)
                for r in range(q):
                    if 2 * i <= q:  # (i^p) is orthogonal
                        want = p >= 2 and i <= half(q - r - 2) and p + q - r - 2 * i >= 5
                        check(lef.restriction_verdict(O, lef.Group("O", p, q - r), component=col),
                              want, "Thm anaO", col)
                    for j in range(q - i + 1):
                        want = i + j <= q - r - 2
                        check(lef.restriction_verdict(U, lef.Group("U", p, q - r), component=(col, (q - j,) * p),
                                                      l2=True),
                              want, "Thm anaU-L2", (col, as_partition((q - j - r,) * p)) if want else None)
                want = p >= 2 and i <= half(q - 2) and p + q - 2 * i >= 5
                for component in (col, (col, (q,) * p), ((), (q - i,) * p)):
                    check(lef.restriction_verdict(U, lef.Group("O", p, q), component=component), want, "Thm anaUO", col)
                for k in range(i + 1):  # Thm cupO reads k + l = i
                    v = lef.cup_classes_verdict(O, 1, 1, components=(as_partition((k,) * p), as_partition((i - k,) * p)))
                    check(v, want, "Thm cupO", col)
            for r in range(q + 2):
                want = p >= 2 and q >= r + 2 and p + q - r >= 5
                check(lef.modular_symbol_verdict("O", p, q, r), want, "Thm symbmodul", as_partition((r,) * p))
        assert all(seen[anchor] for anchor in ("Thm anaO", "Thm anaU-L2", "Thm anaUO", "Thm cupO", "Thm symbmodul"))
