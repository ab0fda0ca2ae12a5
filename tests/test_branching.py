import itertools
import math
import subprocess
import sys
import textwrap

import pytest
from hypothesis import given, settings, strategies as st

from cohomrep import branching as br
from cohomrep import partitions as pt
from cohomrep import rootdata as rd
from cohomrep.partitions import BoxContext
from _branching_reference import gl_character_by_cells
from _partitions_reference import contains


def partitions_up_to(n):
    out = [()]

    def gen(prefix, rem, mx):
        for v in range(1, min(mx, rem) + 1):
            cur = prefix + [v]
            out.append(tuple(cur))
            gen(cur, rem - v, v)

    gen([], n, n)
    return out


P6 = partitions_up_to(6)


class TestLR:
    def test_worked_examples(self):
        assert br.lr_coefficient((2, 1), (1,), (1, 1)) == 1
        assert br.lr_coefficient((2, 1), (1,), (2,)) == 1
        assert br.lr_coefficient((3, 2, 1), (2, 1), (2, 1)) == 2
        assert br.lr_coefficient((2,), (1,), (2,)) == 0  # weight mismatch

    def test_trivial_right_factor(self):
        for lam in P6:
            assert br.lr_coefficient(lam, lam, ()) == 1

    def test_symmetry_exhaustive(self):
        for lam in P6:
            for mu in P6:
                if pt.weight(mu) > pt.weight(lam):
                    continue
                for nu in P6:
                    if pt.weight(mu) + pt.weight(nu) != pt.weight(lam):
                        continue
                    assert br.lr_coefficient(lam, mu, nu) == br.lr_coefficient(lam, nu, mu)

    def test_pieri(self):
        # c^lam_{mu,(k)} is 0/1, equal to the horizontal-strip condition
        for lam in P6:
            for mu in P6:
                k = pt.weight(lam) - pt.weight(mu)
                if k < 0:
                    continue
                c = br.lr_coefficient(lam, mu, (k,) if k else ())
                strip = contains(lam, mu) and all(
                    pt.part(lam, i + 1) <= pt.part(mu, i) for i in range(1, len(lam)))
                assert c in (0, 1)
                assert (c == 1) == (strip and contains(lam, mu)), (lam, mu)

    def test_cache_consistency(self):
        for lam, mu, nu in [((3, 2, 1), (2, 1), (2, 1)), ((4, 2), (2, 1), (2, 1))]:
            # __wrapped__ is the undecorated counter, which bypasses the memo
            assert br._count_lr_tableaux.__wrapped__(lam, mu, nu) == br.lr_coefficient(lam, mu, nu)


class TestLittlewood:
    def test_vector_and_sym2(self):
        assert br.gl_to_o_mult((1,), (1,), 3) == 1
        assert br.gl_to_o_mult((2,), (), 5) == 1
        assert br.gl_to_o_mult((2,), (2,), 5) == 1
        assert br.gl_to_o_mult((2, 1), (2, 1), 6) == 1

    def test_diagonal_is_one(self):
        for lam in P6:
            n = max(2 * len(lam), 2)
            assert br.gl_to_o_mult(lam, lam, n) == 1

    def test_stable_range_guard(self):
        assert br.gl_to_o_mult((1, 1), (1, 1), 3) is None

    def test_sym2_oracle_n3(self):
        # Sym^2 C^3 = Gamma_(2) + trivial as an O(3) module, via characters
        char = br.gl_character((2, 0, 0), 3)
        assert sum(char.values()) == 6
        assert br.gl_to_o_mult((2,), (), 3) == 1 and br.gl_to_o_mult((2,), (2,), 3) == 1


class TestCharacterOracle:
    def test_gl2_vector(self):
        c = br.gl_character((1, 0), 2)
        assert sum(c.values()) == 2 and set(c) == {(1, 0), (0, 1)}

    def test_weyl_dim(self):
        assert br.gl_weyl_dim((2, 1, 0), 3) == 8
        assert sum(br.gl_character((2, 1, 0), 3).values()) == 8

    def test_branching_gl3_gl2(self):
        dec = br.gl_decompose(br.gl_restrict_drop(br.gl_character((1, 0, 0), 3), (0, 1)))
        assert dec == {(1, 0): 1, (0, 0): 1}

    def test_negative_weights(self):
        c = br.gl_character((0, -1), 2)
        assert sum(c.values()) == 2

    @given(st.integers(0, 3), st.integers(0, 3))
    @settings(max_examples=20, deadline=None)
    def test_dim_formula_matches_enumeration(self, a, b):
        hw = (a + b, b, 0)
        assert sum(br.gl_character(hw, 3).values()) == br.gl_weyl_dim(hw, 3)


def dominant_weights(n, spread, shifts):
    """Every dominant GL_n weight with hw_1 - hw_n <= spread and hw_n in shifts."""
    if n == 0:
        yield ()
        return
    for lam in itertools.product(range(spread + 1), repeat=n - 1):
        if all(a >= b for a, b in zip(lam, lam[1:])):
            for shift in shifts:
                yield tuple(v + shift for v in lam + (0,))


class TestCharacterAgainstCells:
    # gl_character counts tableaux through Kostka numbers of a memoized
    # horizontal-strip recursion; the per-cell enumerator is its oracle
    @pytest.mark.parametrize("n", range(5))
    def test_matches_the_cell_enumerator(self, n):
        for hw in dominant_weights(n, 4, range(-2, 2)):
            char = br.gl_character(hw, n)
            assert char == gl_character_by_cells(hw, n), hw
            assert sum(char.values()) == br.gl_weyl_dim(hw, n), hw
            assert char.kind == "GL" and char.rank == n

    def test_mutating_a_result_leaves_the_memo_alone(self):
        want = gl_character_by_cells((2, 1, 0), 3)
        char = br.gl_character((2, 1, 0), 3)
        char[(2, 1, 0)] += 5
        char[(9, 9, 9)] = 1
        del char[(0, 1, 2)]
        assert br.gl_character((2, 1, 0), 3) == want
        assert br.gl_character((2, 1, 0), 3) is not br.gl_character((2, 1, 0), 3)

    @pytest.mark.parametrize("hw, n, match", [
        ((1, 0), 3, "must have length 3"),
        ((0, 1), 2, "not dominant"),
        ((60, 30, 0, 0), 4, "dimension cap exceeded"),
    ])
    def test_every_call_validates(self, hw, n, match):
        br.gl_character((1, 0, 0), 3)  # a filled memo changes nothing
        with pytest.raises(ValueError, match=match):
            br.gl_character(hw, n)

    def test_cap_argument(self):
        assert sum(br.gl_character((2, 0), 2, cap=3).values()) == 3
        with pytest.raises(ValueError, match="dimension cap exceeded"):
            br.gl_character((2, 0), 2, cap=2)

    def test_large_rank_small_shape(self):
        # the recursion is as deep as |lam|, not n
        char = br.gl_character((1,) + (0,) * 199, 200)
        assert sum(char.values()) == 200 and char[(0,) * 199 + (1,)] == 1

    def test_weyl_dim_matches_the_full_product(self):
        def full_product(hw, n):
            num = den = 1
            for i in range(n):
                for j in range(i + 1, n):
                    num *= hw[i] - hw[j] + j - i
                    den *= j - i
            return num // den

        for n in range(6):
            for hw in dominant_weights(n, 3, (-1, 0, 2)):
                dim = full_product(hw, n)
                assert br.gl_weyl_dim(hw, n) == dim
                for cap in (1, 2, 7, 64):
                    assert (br.gl_weyl_dim(hw, n, cap) > cap) == (dim > cap), (hw, cap)
        assert br.gl_weyl_dim((7,) + (0,) * 59, 60) == math.comb(66, 7)
        assert br.gl_weyl_dim((1,) * 40 + (0,) * 60, 100) == math.comb(100, 40)

    def test_large_rank_answers_or_hits_the_cap_quickly(self):
        # the factors of equal entries are skipped, and the cap check stops
        # once the running dimension passes the cap; the full product of
        # all n(n-1)/2 factors never returned here
        code = textwrap.dedent("""
            from cohomrep import branching as br
            assert sum(br.gl_character((1,) + (0,) * 1999, 2000).values()) == 2000
            for hw in ((1,) * 1000 + (0,) * 1000, tuple(range(1999, -1, -1))):
                try:
                    br.gl_character(hw, 2000)
                except ValueError as exc:
                    assert "dimension cap exceeded" in str(exc)
                else:
                    raise AssertionError(hw)
        """)
        subprocess.run([sys.executable, "-c", code], check=True, timeout=10)

    def test_gl_pair_hw_matches_the_conjugate_formula(self, compatible_by_box):
        def by_conjugates(lam, mu, p, q):
            lc, mc = pt.conjugate(lam), pt.conjugate(mu)
            a = tuple(pt.part(lam, i) + pt.part(mu, i) - q for i in range(1, p + 1))
            b_asc = [p - pt.part(lc, j) - pt.part(mc, j) for j in range(1, q + 1)]
            return a, tuple(reversed(b_asc))

        for p, q in itertools.product(range(1, 5), repeat=2):
            for cp in compatible_by_box[(p, q)]:
                assert br._gl_pair_hw(*pt.boxed(p, q, cp.lam, cp.mu), p, q) == by_conjugates(cp.lam, cp.mu, p, q)

    @pytest.mark.parametrize("weights, rank, match", [
        ({(1, 0): 1, (0, 1): 1, (0, 0): -1}, 2, r"virtual character: leading weight \(0, 0\)"),
        ({(0, 1): 1}, 2, "non-dominant leading weight"),
        ({(1, 0, 0): 1}, 2, "must have length 2"),
        ({(60, 30, 0, 0): 1}, 4, "dimension cap exceeded"),
    ], ids=["virtual", "non-dominant", "length", "cap"])
    def test_decompose_refuses_before_it_peels(self, weights, rank, match):
        # each peel reads the memo directly, after the checks gl_character makes
        with pytest.raises(ValueError, match=match):
            br.gl_decompose(br.FormalCharacter("GL", rank, weights))

    def test_oracle_mult_r_range(self):
        with pytest.raises(ValueError, match="outside 0..1"):
            br.restrict_U_pair_oracle_mult((), (2, 2), BoxContext(2, 2), 2, (), ())

    @pytest.mark.parametrize("r, hw_small, match", [
        (3, (), r"^r = 3 is outside 0\.\.2$"),
        (-1, (1, 0, 0), r"^r = -1 is outside 0\.\.2$"),
        (1, (1, 0), r"^GL_1 highest weight must have length 1: \(1, 0\)$"),
        (0, (1,), r"^GL_2 highest weight must have length 2: \(1,\)$"),
    ])
    def test_branching_mult_checks_r_and_the_small_weight(self, r, hw_small, match):
        # r = 3 used to read the whole module as the GL_0 trivial one, and r = -1
        # to end in an IndexError
        with pytest.raises(ValueError, match=match):
            br.gl_branching_mult((1, 0), 2, r, hw_small)

    def test_branching_mult_at_the_ends_of_the_range(self):
        assert br.gl_branching_mult((1, 0), 2, 0, (1, 0)) == 1
        assert br.gl_branching_mult((1, 0), 2, 0, (0, 1)) == 0
        assert br.gl_branching_mult((1, 0), 2, 2, ()) == 2
        assert br.gl_branching_mult((1, 0), 2, 1, (1,)) == 1
        assert br.gl_branching_mult((1, 0), 2, 1, (0,)) == 1


class TestRestrictU:
    def test_full_rectangle(self):
        res = br.restrict_U_pair((), (3, 3), BoxContext(2, 3), 1)
        assert res["contains"] and res["target"] == ((), (2, 2))

    def test_single_box_skew_contains(self):
        # mu - (1^2) = (1,0) still contains lam = (1): the column (1^2) fits
        # through the two corner boxes; confirmed by the character oracle
        res = br.restrict_U_pair((1,), (2, 1), BoxContext(2, 2), 1)
        assert res["contains"] and res["target"] == ((1,), (1,))

    def test_fails(self):
        res = br.restrict_U_pair((2,), (2, 1), BoxContext(2, 2), 1)
        assert not res["contains"] and res["multiplicity"] == 0
        res = br.restrict_U_pair((1,), (2, 1), BoxContext(2, 2), 2)
        assert not res["contains"]

    @pytest.mark.parametrize("r", [-1, 3])
    def test_r_outside_range(self, r):
        with pytest.raises(ValueError, match="outside 0..2"):
            br.restrict_U_pair((1,), (2, 1), BoxContext(2, 2), r)

    @pytest.mark.parametrize("p,q", [(2, 2), (2, 3)])
    def test_against_character_oracle(self, p, q, compatible_by_box):
        ctx = BoxContext(p, q)
        for cp in compatible_by_box[(p, q)]:
            res = br.restrict_U_pair(cp.lam, cp.mu, ctx, 1)
            deg = pt.weight(cp.lam) + pt.weight(pt.complement(cp.mu, p, q))
            found = {}
            for cp2 in compatible_by_box[(p, q - 1)]:
                if pt.weight(cp2.lam) + pt.weight(pt.complement(cp2.mu, p, q - 1)) != deg:
                    continue
                m = br.restrict_U_pair_oracle_mult(cp.lam, cp.mu, ctx, 1, cp2.lam, cp2.mu)
                if m:
                    found[(cp2.lam, cp2.mu)] = m
            expected = {res["target"]: 1} if res["contains"] else {}
            assert found == expected, (cp.lam, cp.mu)


class TestRestrictO:
    def test_column_ladder(self):
        assert br.restrict_O((1, 1), BoxContext(2, 4), 1)["contains"] is True
        assert br.restrict_O((2, 1), BoxContext(2, 3), 1)["contains"] is False
        assert br.restrict_O((), BoxContext(2, 3), 2)["contains"] is True

    @pytest.mark.parametrize("r", [-1, 3])
    def test_r_outside_range(self, r):
        with pytest.raises(ValueError, match="outside 0..2"):
            br.restrict_O((), BoxContext(2, 3), r)

    @pytest.mark.parametrize("p,q", [(2, 2), (2, 3)])
    def test_against_character_oracle(self, p, q, orthogonal_by_box):
        ctx = BoxContext(p, q)
        for orth in orthogonal_by_box[(p, q)]:
            res = br.restrict_O(orth.lam, ctx, 1)
            found = {}
            for o2 in orthogonal_by_box[(p, q - 1)]:
                if pt.weight(o2.lam) != pt.weight(orth.lam):
                    continue
                m = br.restrict_O_oracle_mult(orth.lam, ctx, 1, o2.lam)
                if m:
                    found[o2.lam] = m
            expected = {orth.lam: 1} if res["contains"] else {}
            assert found == expected, orth.lam


class TestVanishingUO:
    def test_lemma_cases(self):
        ctx = BoxContext(2, 2)
        assert br.restrict_UO_vanishing((), (2, 1), ctx) is True
        assert br.restrict_UO_vanishing((1,), (2, 2), ctx) is True
        assert br.restrict_UO_vanishing((1,), (2, 1), ctx) is False


class TestTensor:
    def test_U(self):
        res = br.tensor_contains("U", 2, 3, (0, 0, 0, 0))
        assert res["contains"] and res["target"] == ((), (3, 3))
        res = br.tensor_contains("U", 2, 3, (1, 1, 1, 0))
        assert res["contains"] and res["target"] == ((2, 2), (2, 2))
        assert not br.tensor_contains("U", 2, 3, (1, 1, 1, 1))["contains"]

    def test_O(self):
        assert br.tensor_contains("O", 3, 6, (1, 2))["contains"]
        assert br.tensor_contains("O", 3, 6, (1, 2))["target"] == (3, 3, 3)
        assert not br.tensor_contains("O", 3, 6, (2, 2))["contains"]

    def test_U_rank_one_against_lr(self):
        # p = 1: whenever the tensor theorem claims containment, the target
        # K-type occurs with LR multiplicity exactly one in the K-type tensor
        def gl_tensor_mult(a, b, c):
            sa, sb = a[-1], b[-1]
            ap = pt.as_partition(tuple(v - sa for v in a))
            bp = pt.as_partition(tuple(v - sb for v in b))
            cp = tuple(v - sa - sb for v in c)
            if any(v < 0 for v in cp) or any(cp[i] < cp[i + 1] for i in range(len(cp) - 1)):
                return 0
            return br.lr_coefficient(pt.as_partition(cp), ap, bp)

        for q in range(1, 4):
            for i, j, k, l in itertools.product(range(q + 1), repeat=4):
                res = br.tensor_contains("U", 1, q, (i, j, k, l))
                assert res["contains"] == (i + j + k + l <= q)
                if res["contains"]:
                    _, b1 = br._gl_pair_hw(*pt.boxed(1, q, (i,), (q - j,)), 1, q)
                    _, b2 = br._gl_pair_hw(*pt.boxed(1, q, (k,), (q - l,)), 1, q)
                    _, bt = br._gl_pair_hw(*pt.boxed(1, q, *res["target"]), 1, q)
                    assert gl_tensor_mult(b1, b2, bt) == 1

    def test_lr_cache_thread_safety(self):
        import threading
        cases = [((4, 3, 2, 1), (2, 1), (3, 2, 1, 1)), ((3, 3), (2, 1), (2, 1)),
                 ((4, 2), (2, 1), (2, 1)), ((3, 2, 1), (2, 1), (2, 1))]
        expected = [br._count_lr_tableaux.__wrapped__(*c) for c in cases]
        results = {}

        def worker(idx):
            for _ in range(20):
                results[idx] = br.lr_coefficient(*cases[idx])

        threads = [threading.Thread(target=worker, args=(i,)) for i in range(len(cases))]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert [results[i] for i in range(len(cases))] == expected


class TestKobayashi:
    def test_U(self):
        assert br.kobayashi_admissible("U", 2, 4, 2, (2, 2), (4, 4)) is True
        assert br.kobayashi_admissible("U", 2, 4, 2, (1, 1), (3, 3)) is False
        assert br.kobayashi_admissible("U", 3, 4, 1, (), (2, 1)) is True

    def test_O(self):
        assert br.kobayashi_admissible("O", 4, 6, 2, (3, 2)) is True
        assert br.kobayashi_admissible("O", 4, 6, 2, (1, 1, 1)) is False
        assert br.kobayashi_admissible("O", 2, 6, 3, (6,)) is True

    def test_guard(self):
        with pytest.raises(ValueError):
            br.kobayashi_admissible("O", 2, 3, 2, (1,))
        with pytest.raises(ValueError):
            br.kobayashi_admissible("O", 2, 4, -1, (1,))


class TestCharacterSymmetry:
    def test_gl_characters_weyl_invariant(self):
        # weight multiplicities are symmetric under coordinate permutations
        for hw, n in [((2, 1, 0), 3), ((3, 1), 2), ((2, 0, -1), 3)]:
            char = br.gl_character(hw, n)
            for w, m in char.items():
                assert char[tuple(sorted(w, reverse=True))] == m


class TestEntryPointsCheckTheBox:
    # each call answered out of its domain before the entry points checked
    # box and nesting through partitions.boxed
    @pytest.mark.parametrize("call, match", [
        (lambda: br.restrict_U_pair((3,), (3,), BoxContext(2, 2), 1), "does not fit in 2x2"),
        (lambda: br.restrict_UO_vanishing((5,), (1,), BoxContext(1, 1)), "does not fit in 1x1"),
        (lambda: br.kobayashi_admissible("U", 2, 4, 1, (9,), (9,)), "does not fit in 2x4"),
        (lambda: br.kobayashi_admissible("O", 2, 4, 1, (5,)), "does not fit in 2x4"),
        (lambda: br.tensor_contains("O", 0, 2, (1, 1)), "must be >= 1"),
        (lambda: rd.ktype_weight_U((2,), (1,), BoxContext(2, 2)), "is not contained in"),
        (lambda: br.restrict_U_pair_oracle_mult((2,), (1,), BoxContext(1, 2), 1, (), ()), "is not contained in"),
        (lambda: br.restrict_U_pair_oracle_mult((), (2, 2), BoxContext(2, 2), 1, (), (2,)), "does not fit in 2x1"),
    ], ids=["restrict-u", "vanishing-uo", "kobayashi-U", "kobayashi-O", "tensor", "ktype-U",
            "oracle-big-box", "oracle-small-box"])
    def test_out_of_domain_raises(self, call, match):
        with pytest.raises(ValueError, match=match):
            call()

    @pytest.mark.parametrize("kind, params", [("U", (1, 1)), ("O", (1, 1, 1, 1))])
    def test_tensor_params_length(self, kind, params):
        with pytest.raises(ValueError, match="tensor needs params"):
            br.tensor_contains(kind, 2, 3, params)


BRANCHING_MEMOS = (br._count_lr_tableaux, br._gl_weights, br._kostka_numbers, br._gl_pair_hw,
                   br._restricted_decomposition)


def clear_branching_memos():
    for memo in BRANCHING_MEMOS:
        memo.cache_clear()


def test_memos_are_bounded():
    assert set(BRANCHING_MEMOS) == {f for f in vars(br).values()
                                    if hasattr(f, "cache_info") and f.__module__ == br.__name__}
    for memo in (*BRANCHING_MEMOS, rd._chambers):
        assert memo.cache_info().maxsize is not None, memo.__name__


def u_oracle_calls(boxes, compatible_by_box):
    """The restrict_U_pair_oracle_mult arguments of a verify-sweep oracle
    box: every pair of the smaller box with the same degree, r = 1."""
    for p, q in boxes:
        ctx = BoxContext(p, q)
        for cp in compatible_by_box[(p, q)]:
            deg = pt.weight(cp.lam) + pt.weight(pt.complement(cp.mu, p, q))
            for cp2 in compatible_by_box[(p, q - 1)]:
                if pt.weight(cp2.lam) + pt.weight(pt.complement(cp2.mu, p, q - 1)) == deg:
                    yield cp.lam, cp.mu, ctx, 1, cp2.lam, cp2.mu


ORACLE_BOXES = [(2, 2), (2, 3), (3, 3)]


def test_oracle_answers_the_same_from_cold_and_warm_memos(compatible_by_box):
    calls = list(u_oracle_calls(ORACLE_BOXES, compatible_by_box))
    clear_branching_memos()
    warm = [br.restrict_U_pair_oracle_mult(*call) for call in calls]
    assert br._restricted_decomposition.cache_info().hits  # some decompositions were reused
    cold = []
    for call in calls:
        clear_branching_memos()
        cold.append(br.restrict_U_pair_oracle_mult(*call))
    assert cold == warm
    assert any(warm)


def test_peeling_leaves_the_weight_memo_as_the_cells_count_it(compatible_by_box, monkeypatch):
    # gl_decompose subtracts each memo entry from its work map without a
    # copy; every entry the oracle calls read must still be the character
    memo, read = br._gl_weights, set()

    def recording(hw, n):
        read.add((hw, n))
        return memo(hw, n)

    clear_branching_memos()
    monkeypatch.setattr(br, "_gl_weights", recording)
    for call in u_oracle_calls(ORACLE_BOXES, compatible_by_box):
        br.restrict_U_pair_oracle_mult(*call)
    assert len(read) == memo.cache_info().currsize > 0
    for hw, n in read:
        assert memo(hw, n) == gl_character_by_cells(hw, n), hw
