import itertools
import os
import pathlib
import re
import subprocess
import sys

import pytest
from hypothesis import given, settings, strategies as st

from cohomrep import branching as br
from cohomrep import partitions as pt
from cohomrep.partitions import BoxContext

from _partitions_reference import (all_pairs_compatible, compatible_by_words, contains, even_type_by_conjugate,
                                   level_word, level_words, merged_word, ortho_classify_by_complement,
                                   orthogonal_by_words, pair_of_word, round_trip_rects, runs_by_groupby,
                                   witness_by_word)


def boxed_partitions(max_p=4, max_q=4):
    return st.tuples(st.integers(1, max_p), st.integers(1, max_q), st.randoms()).map(
        lambda t: (t[0], t[1], _random_partition(t[2], t[0], t[1])))


def _random_partition(rnd, p, q):
    parts = []
    cur = q
    for _ in range(p):
        cur = rnd.randint(0, cur)
        parts.append(cur)
    return pt.as_partition(parts)


class TestBasics:
    def test_conjugate_worked_example(self):
        assert pt.conjugate((5, 3, 3, 2)) == (4, 4, 3, 1, 1)
        assert pt.conjugate(()) == ()
        assert pt.conjugate((4,)) == (1, 1, 1, 1)

    def test_complement_worked_example(self):
        assert pt.complement((5, 3, 3, 2), 5, 5) == (5, 3, 2, 2)
        assert pt.complement((), 3, 4) == (4, 4, 4)
        assert pt.complement((4, 4, 4), 3, 4) == ()

    def test_complement_keeps_the_padded_form(self):
        # the internal forms callers pass: q = 0 (the b = 0 half boxes of
        # enumerate_orthogonal), trailing zeros and parts >= q
        def padded(lam, p, q):
            return tuple(q - v for v in reversed(pt.pad(lam, p)) if v < q)

        for p, q in itertools.product(range(6), repeat=2):
            for length in range(p + 1):
                # every weakly decreasing row list with parts 0..7
                for lam in itertools.combinations_with_replacement(range(7, -1, -1), length):
                    assert pt._complement(lam, p, q) == padded(lam, p, q), (lam, p, q)

    def test_complement_rejects_oversized(self):
        with pytest.raises(ValueError):
            pt.complement((5,), 2, 4)

    def test_normalization(self):
        assert pt.as_partition((2, 1, 0, 0)) == (2, 1)
        with pytest.raises(ValueError):
            pt.as_partition((1, 2))

    def test_as_partition_keeps_its_conversions_and_errors(self):
        import numpy as np

        def converted(parts):
            # the conversion before the fast path for exact tuples existed
            t = tuple(int(x) for x in parts)
            for a, b in zip(t, t[1:]):
                if a < b:
                    raise ValueError(f"not weakly decreasing: {t}")
            if t and t[-1] < 0:
                raise ValueError(f"negative part in {t}")
            while t and t[-1] == 0:
                t = t[:-1]
            return t

        def outcome(f, parts):
            try:
                out = f(parts)
            except ValueError as exc:
                return "error", str(exc)
            return out, [type(v) for v in out]

        inputs = [(), (0,), (0, 0), (3, 1), (3, 1, 0), (2, 2, 2), (1, 2), (0, 1), (2, -1), (-1,),
                  (-2, -3), (3, 0, 1), [3, 1], [3, 1, 0], [], [1, 2], (True, True), (True, False),
                  [True], (2.0, 1.0), (2.5, 1), [2.0, 0.0], (np.int64(3), np.int64(1)),
                  np.array([2, 1, 0]), (np.int32(1), np.int32(2)), (3, np.int64(1)), (3, 1.0)]
        for parts in inputs:
            assert outcome(pt.as_partition, parts) == outcome(converted, parts), parts
        for make in (lambda: (v for v in (2, 1, 0)), lambda: iter([1, 3]), lambda: range(3, 0, -1)):
            assert outcome(pt.as_partition, make()) == outcome(converted, make())

    def test_as_partition_returns_a_partition_tuple_as_it_is(self):
        for lam in [(), (3,), (4, 2, 2, 1), pt.enumerate_compatible(BoxContext(2, 3))[-1].mu]:
            assert pt.as_partition(lam) is lam
        # what as_partition converts comes back checked
        assert type(pt.as_partition([2, 1, 0])) is pt._Checked

    @given(boxed_partitions())
    @settings(max_examples=60)
    def test_conjugate_involution(self, bp):
        _, _, lam = bp
        assert pt.conjugate(pt.conjugate(lam)) == lam

    @given(boxed_partitions())
    @settings(max_examples=60)
    def test_complement_involution_and_weight(self, bp):
        p, q, lam = bp
        hat = pt.complement(lam, p, q)
        assert pt.complement(hat, p, q) == lam
        assert pt.weight(lam) + pt.weight(hat) == p * q

    def test_exhaustive_involutions_six_by_six(self):
        for p, q in itertools.product(range(1, 7), repeat=2):
            for lam in pt.partitions_in_box(p, q):
                assert pt.conjugate(pt.conjugate(lam)) == lam
                hat = pt.complement(lam, p, q)
                assert pt.complement(hat, p, q) == lam
                assert pt.weight(lam) + pt.weight(hat) == p * q


class TestSkewDecompose:
    def test_worked_examples(self):
        ctx = BoxContext(2, 2)
        assert pt.compatible_pair((1,), (2, 1), ctx).rects == ((1, 1), (1, 1))
        assert pt.compatible_pair((2,), (2, 1), ctx).rects == ((1, 1),)
        assert pt.compatible_pair((1,), (2, 2), ctx) is None
        assert pt.compatible_pair((), (3, 3), BoxContext(2, 3)).rects == ((2, 3),)
        assert pt.compatible_pair((1, 1), (1, 1), ctx).rects == ()

    def test_rectangle_area_sums(self, compatible_by_box):
        for (p, q), pairs in compatible_by_box.items():
            for cp in pairs:
                area = sum(a * b for a, b in cp.rects)
                assert area == pt.weight(cp.mu) - pt.weight(cp.lam)

    def test_brute_force_equivalence(self):
        # compatibility iff some dominant integer vector realizes the pair
        for p, q in [(1, 2), (2, 2), (2, 3), (3, 2)]:
            ctx = BoxContext(p, q)
            realizable = set()
            levels = range(p + q + 1)
            for xs in itertools.product(levels, repeat=p):
                if any(xs[i] < xs[i + 1] for i in range(p - 1)):
                    continue
                for ys in itertools.product(levels, repeat=q):
                    if any(ys[j] > ys[j + 1] for j in range(q - 1)):
                        continue
                    realizable.add(pt.partitions_of_witness(xs, ys, ctx))
            parts = sorted(pt.partitions_in_box(p, q))
            for lam, mu in itertools.product(parts, parts):
                if not contains(mu, lam):
                    continue
                expected = (lam, mu) in realizable
                assert (pt.compatible_pair(lam, mu, ctx) is not None) == expected, (p, q, lam, mu)

    def test_matches_level_word_round_trip(self):
        # every nested pair, compatible or not: the row-run scan agrees with
        # the level-word round trip
        for p, q in itertools.product(range(1, 6), repeat=2):
            ctx = BoxContext(p, q)
            parts = list(pt.partitions_in_box(p, q))
            for lam, mu in itertools.product(parts, parts):
                if contains(mu, lam):
                    cp = pt.compatible_pair(lam, mu, ctx)
                    expected = round_trip_rects(lam, mu, p, q)
                    assert (None if cp is None else cp.rects) == expected, (p, q, lam, mu)


class TestRuns:
    def test_worked_examples(self):
        # (2, 1) inside (3, 2) in 3 x 4: a free column, the tie blocks of row 1
        # with column 3 and of row 2 with column 2, a free column, a free row
        assert pt._runs((2, 1, 0), (3, 2, 0), 4) == [(0, 1), (1, 1), (1, 1), (0, 1), (1, 0)]
        assert pt._runs((), (), 3) == [(0, 3)]
        assert pt._runs((2, 2), (2, 2), 2) == [(2, 0), (0, 2)]
        assert pt._runs((1, 0), (2, 2), 2) is None  # the second block shares an edge with the first
        assert pt._runs((2, 0), (1, 0), 2) is None  # not nested

    def test_equals_the_merged_level_word(self):
        # every pair of partitions: the walk is the pair's level word with its
        # free rows and free columns merged, and None exactly where the word
        # does not read back as the pair or the pair is not nested
        for p, q in itertools.product(range(1, 6), repeat=2):
            parts = list(pt.partitions_in_box(p, q))
            for lam, mu in itertools.product(parts, parts):
                runs = pt._runs(pt.pad(lam, p), pt.pad(mu, p), q)
                if not contains(mu, lam) or round_trip_rects(lam, mu, p, q) is None:
                    assert runs is None, (p, q, lam, mu)
                else:
                    assert runs == merged_word(level_word(lam, mu, p, q)), (p, q, lam, mu)

    def test_equals_the_groupby_walk(self):
        # every pair of partitions, nested or not, compatible or not, fed as
        # tuples of p rows, as one-shot iterators (mu's rows read back off its
        # reversed complement, as isolation._torus_chain passes them) and with
        # lam padded only to the rows of mu, as _skew_decompose pads it
        for p, q in itertools.product(range(1, 6), repeat=2):
            parts = list(pt.partitions_in_box(p, q))
            for lam, mu in itertools.product(parts, parts):
                rows = pt.pad(lam, p), pt.pad(mu, p)
                runs = runs_by_groupby(*rows, q)
                assert pt._runs(*rows, q) == runs, (p, q, lam, mu)
                flipped = tuple(q - v for v in reversed(rows[1]))  # mu is the complement of this
                one_shot = reversed(rows[0][::-1]), map(q.__sub__, reversed(flipped))
                assert pt._runs(*one_shot, q) == runs, (p, q, lam, mu)
                short = lam + (0,) * (len(mu) - len(lam))
                assert pt._runs(short, mu, q) == runs_by_groupby(short, mu, q), (p, q, lam, mu)


class TestWitness:
    def test_round_trip_everywhere(self, compatible_by_box):
        for (p, q), pairs in compatible_by_box.items():
            ctx = BoxContext(p, q)
            for cp in pairs:
                xs, ys = pt.build_witness_X(cp)
                assert all(xs[i] >= xs[i + 1] for i in range(p - 1))
                assert all(ys[j] <= ys[j + 1] for j in range(q - 1))
                assert pt.partitions_of_witness(xs, ys, ctx) == (cp.lam, cp.mu)

    def test_all_ties_full_rectangle(self):
        ctx = BoxContext(2, 3)
        cp = pt.compatible_pair((), (3, 3), ctx)
        xs, ys = pt.build_witness_X(cp)
        assert len(set(xs) | set(ys)) == 1

    def test_equals_the_word_oracle(self, compatible_by_box):
        # the row-run walk gives each level of the pair's word its value
        for pairs in compatible_by_box.values():
            for cp in pairs:
                assert pt.build_witness_X(cp) == witness_by_word(cp), cp


class TestInscribes:
    def test_worked_examples(self):
        assert pt.inscribes(1, (), (1,), 1) is True
        assert pt.inscribes(2, (1,), (2, 1), 2) is False
        assert pt.inscribes(1, (), (2, 2), 2) is True
        assert pt.inscribes(0, (1,), (2, 1), 2) is True
        with pytest.raises(ValueError):
            pt.inscribes(-1, (), (1,), 1)
        # mu - (1^2) = (1, 1, 2) is no partition: mu must fit in p rows
        with pytest.raises(ValueError, match=r"^mu \[2, 2, 2\] has more than 2 rows$"):
            pt.inscribes(1, (1, 1, 1), (2, 2, 2), 2)
        with pytest.raises(ValueError, match=r"^box of 0 rows: p must be >= 1$"):
            pt.inscribes(0, (), (), 0)

    def test_forms_agree_exhaustively(self, compatible_by_box):
        # inscribes evaluates the componentwise form; the rectangle form
        # sum(p_i) == p and r <= q_i must agree on every compatible pair
        for (p, q), pairs in compatible_by_box.items():
            for cp in pairs:
                full_height = sum(a for a, _ in cp.rects) == p
                for r in range(0, q + 1):
                    rect_form = r == 0 or (full_height and all(b >= r for _, b in cp.rects))
                    assert pt.inscribes(r, cp.lam, cp.mu, p) == rect_form, (p, q, cp, r)


    def test_twins_agree_with_the_checked_forms(self, compatible_by_box):
        for (p, q), pairs in compatible_by_box.items():
            for cp in pairs:
                for r in range(0, q + 1):
                    ok = pt._inscribes(r, cp.lam, cp.mu, p)
                    assert ok == pt.inscribes(r, cp.lam, cp.mu, p)
                    if ok:
                        want = pt.as_partition([v - r for v in pt.pad(cp.mu, p)])
                        assert pt._subtract_rows(cp.mu, r, p) == want

    def test_checked_forms_keep_their_errors(self):
        with pytest.raises(ValueError, match=r"^need lam <= mu: \(2,\), \(1,\)$"):
            pt.inscribes(1, [2], [1], 1)


class TestOrtho:
    def test_worked_examples(self):
        o =pt.ortho_classify((1, 1, 1), BoxContext(3, 4))
        assert o is not None and o.central == (3, 2) and o.parity == "odd"
        o = pt.ortho_classify((), BoxContext(3, 4))
        assert o.central == (3, 4) and o.parity == "odd"
        o = pt.ortho_classify((2, 1), BoxContext(2, 3))
        assert o is not None and o.parity == "even" and o.rect_count == 0
        assert pt.ortho_classify((1,), BoxContext(2, 3)) is None

    def test_classify_matches_the_complement_oracle(self):
        # every partition of every box the default cap admits, orthogonal or not
        found = 0
        for p in range(1, 43):
            for q in range(1, 42 // p + 1):
                ctx = BoxContext(p, q)
                for lam in pt.partitions_in_box(p, q):
                    o = pt.ortho_classify(lam, ctx)
                    assert o == ortho_classify_by_complement(lam, ctx), (p, q, lam)
                    found += o is not None
        assert found == 5939

    def test_enumeration_matches_classify_scan(self, orthogonal_by_box):
        for (p, q), orths in orthogonal_by_box.items():
            ctx = BoxContext(p, q)
            scan = [o for lam in pt.partitions_in_box(p, q) for o in [pt.ortho_classify(lam, ctx)] if o]
            scan.sort(key=lambda o: (pt.weight(o.lam), o.lam))
            assert orths == scan, (p, q)

    def test_box_1x1(self):
        # (1) is not orthogonal in 1x1: its complement () does not contain it
        assert [o.lam for o in pt.enumerate_orthogonal(BoxContext(1, 1))] == [()]
        # the row-run scan assumes lam <= mu, so ortho_classify checks nesting first
        assert pt.ortho_classify((1,), BoxContext(1, 1)) is None

    def test_palindrome_and_parity(self, orthogonal_by_box):
        for (p, q), orths in orthogonal_by_box.items():
            for o in orths:
                rects = o.pairs + ((o.central,) if o.central else ()) + tuple(reversed(o.pairs))
                assert rects == tuple(reversed(rects))
                assert (o.parity == "odd") == (o.rect_count % 2 == 1)

    def test_even_types_in_odd_odd_box_absent(self, orthogonal_by_box):
        for (p, q), orths in orthogonal_by_box.items():
            if p % 2 == 1 and q % 2 == 1:
                assert all(o.parity == "odd" for o in orths)

    def test_even_type_table_2x2_2x3(self):
        types = {o.lam: (o.parity, o.even_type) for o in pt.enumerate_orthogonal(BoxContext(2, 2))}
        assert types == {(): ("odd", None), (1,): ("even", 3),
                         (1, 1): ("even", 2), (2,): ("even", 1)}
        types = {o.lam: (o.parity, o.even_type) for o in pt.enumerate_orthogonal(BoxContext(2, 3))}
        assert types == {(): ("odd", None), (1, 1): ("odd", None), (2,): ("even", 1),
                         (2, 1): ("even", 1), (3,): ("even", 1)}

    def test_even_type_matches_the_conjugate_oracle(self, orthogonal_to_area_42):
        # `s in lam` stands for lam*_s > lam*_{s+1}: check it on every
        # orthogonal partition the enumeration and the classifier return
        evens = 0
        for (p, q), orths in orthogonal_to_area_42.items():
            ctx = BoxContext(p, q)
            for o in orths:
                classified = pt.ortho_classify(o.lam, ctx)
                assert classified == o, (p, q, o.lam)
                if o.parity == "even":
                    evens += 1
                    assert o.even_type == even_type_by_conjugate(o.lam, p, q), (p, q, o.lam)
        assert sum(map(len, orthogonal_to_area_42.values())) == 5939
        assert evens > 0


class TestEnumeration:
    def test_count_one_row_boxes(self):
        for q in range(1, 7):
            n = len(pt.enumerate_compatible(BoxContext(1, q)))
            assert n == (q + 1) * (q + 2) // 2

    def test_lexicographic_order(self):
        pairs = pt.enumerate_compatible(BoxContext(2, 2))
        keys = [(pt.weight(c.lam), c.lam, c.mu) for c in pairs]
        assert keys == sorted(keys)
        assert len(pairs) == len(set((c.lam, c.mu) for c in pairs))

    def test_cap(self, monkeypatch):
        # the cap is checked before any pair is walked
        def refuse(p, q):
            raise AssertionError(f"pairs walked for {p}x{q}")
        monkeypatch.setattr(pt, "_pairs", refuse)
        for enumerate_ in (pt.enumerate_compatible, pt.enumerate_orthogonal):
            with pytest.raises(pt.CapExceededError):
                enumerate_(BoxContext(7, 7))

    def test_matches_the_level_word_walk(self):
        # every catalog-sweep box in both orientations: lists and order as
        # the former walk gave them
        for p in range(1, 43):
            for q in range(1, 43):
                ctx = BoxContext(p, q)
                if p * q <= 25:
                    assert pt.enumerate_compatible(ctx) == compatible_by_words(ctx), (p, q)
                if p * q <= 42:
                    assert pt.enumerate_orthogonal(ctx) == orthogonal_by_words(ctx), (p, q)

    def test_reversed_word_is_the_complement_pair(self):
        # the mirror half of a palindromic word reads as (complement(mu), complement(lam))
        for a, b in itertools.product(range(6), repeat=2):
            for word in level_words(a, b):
                lam, mu = pair_of_word(word, b)
                assert pair_of_word(word[::-1], b) == (pt._complement(mu, a, b),
                                                       pt._complement(lam, a, b)), (a, b, word)

    def test_matches_all_pairs_scan(self, compatible_by_box):
        for (p, q), pairs in compatible_by_box.items():
            assert pairs == all_pairs_compatible(BoxContext(p, q)), (p, q)

    def test_rectangle_fact(self, compatible_by_box):
        # decompositions with sum(p_i) <= p-1 or some q_i < r have strictly
        # deficient area: sum p_i q_i < pq - q + r
        for p, q in itertools.product(range(1, 7), repeat=2):
            ctx = BoxContext(p, q)
            for cp in pt.enumerate_compatible(ctx, cap=64):
                rows = sum(a for a, _ in cp.rects)
                area = sum(a * b for a, b in cp.rects)
                for r in range(1, q + 1):
                    if rows <= p - 1 or any(b < r for _, b in cp.rects):
                        assert area < p * q - q + r, (p, q, cp.lam, cp.mu, r)


#: the boxes of the benchmark's catalog sweep: p <= q, U up to p*q <= 25, O up to 42
SWEEP_BOXES = ([("U", p, q) for p in range(1, 26) for q in range(p, 26) if p * q <= 25]
               + [("O", p, q) for p in range(1, 43) for q in range(p, 43) if p * q <= 42])


class TestCheckedPartitions:
    # a partition the library built or validated is a `_Checked` tuple, which
    # as_partition trusts; a plain tuple is trusted only after the scans

    @staticmethod
    def assert_checked(parts, where):
        for lam in parts:
            assert type(lam) is pt._Checked, where
            # the plain copy passes the full checks, and comes back as it is
            plain = tuple(lam)
            assert pt.as_partition(plain) is plain and plain == lam, where

    def test_enumerators_and_catalogs_return_checked_partitions(self):
        from cohomrep import vz_catalog as vz

        assert len(SWEEP_BOXES) == 133
        for kind, p, q in SWEEP_BOXES:
            ctx = BoxContext(p, q)
            if kind == "U":
                pairs = pt.enumerate_compatible(ctx)
                parts = [x for cp in pairs for x in (cp.lam, cp.mu)]
                # one object per partition of the box
                assert len(set(map(id, parts))) == len(set(parts)), (p, q)
            else:
                parts = [orth.lam for orth in pt.enumerate_orthogonal(ctx)]
            self.assert_checked(parts, (kind, p, q))
            mods = vz.catalog(kind, p, q)
            self.assert_checked([m.lam for m in mods] + [m.mu for m in mods if kind == "U"], (kind, p, q))

    @pytest.mark.parametrize("call", [
        lambda lam: pt.complement(lam, 2, 3),
        lambda lam: pt.compatible_pair(lam, (3, 3), BoxContext(2, 3)),
        lambda lam: pt.compatible_pair((), lam, BoxContext(2, 3)),
        lambda lam: pt.ortho_classify(lam, BoxContext(2, 3)),
        lambda lam: pt.boxed(2, 3, lam),
        lambda lam: pt.boxed(2, 3, (), lam),
        lambda lam: br.restrict_U_pair_oracle_mult(lam, (3, 3), BoxContext(2, 3), 1, (), (2, 2)),
        lambda lam: br.restrict_U_pair_oracle_mult((), (3, 3), BoxContext(2, 3), 1, lam, (2, 2)),
    ], ids=["complement", "compatible_pair-lam", "compatible_pair-mu", "ortho_classify",
            "boxed-lam", "boxed-mu", "oracle_mult-big", "oracle_mult-small"])
    @pytest.mark.parametrize("bad", [(1, 2), (2, -1), (1, 1, 1), [4]], ids=repr)
    def test_entry_points_still_reject_unchecked_input(self, call, bad):
        with pytest.raises(ValueError):
            call(bad)

    def test_boxed_takes_checked_partitions_without_a_call(self, monkeypatch):
        # boxed makes the type test itself: a checked lam or mu comes back as
        # the same object, and still meets every box-fit and nesting check
        lam, mu, big = pt.as_partition([1]), pt.as_partition([3, 2]), pt.as_partition([4])

        def refuse(parts):
            raise AssertionError(f"as_partition({parts!r}) was called")

        monkeypatch.setattr(pt, "as_partition", refuse)
        out = pt.boxed(2, 3, lam, mu)
        assert out[0] is lam and out[1] is mu
        out = pt.boxed(2, 3, mu)
        assert out[0] is mu and out[1] is None
        for args, message in [((1, 3, mu), "lam [3, 2] does not fit in 1x3"),
                              ((2, 3, big), "lam [4] does not fit in 2x3"),
                              ((1, 3, lam, mu), "mu [3, 2] does not fit in 1x3"),
                              ((2, 3, lam, big), "mu [4] does not fit in 2x3"),
                              ((2, 3, mu, lam), "lam [3, 2] is not contained in mu [1]"),
                              ((0, 3, lam, mu), "box 0x3: p and q must be >= 1")]:
            with pytest.raises(ValueError, match=re.escape(message)):
                pt.boxed(*args)

    @pytest.mark.parametrize("lam", [(1,), [1], (True,), (1, 0)], ids=repr)
    def test_boxed_sends_every_other_input_through_as_partition(self, monkeypatch, lam):
        seen = []
        as_partition = pt.as_partition
        monkeypatch.setattr(pt, "as_partition", lambda parts: seen.append(parts) or as_partition(parts))
        mu = (True, 1)
        out = pt.boxed(2, 3, lam, mu)
        assert list(map(id, seen)) == [id(lam), id(mu)]
        assert out == ((1,), (1, 1)) and {type(v) for part in out for v in part} == {int}

    @pytest.mark.parametrize("lam", [pt.as_partition([2, 1]), (2, 1), [2, 1], pt.as_partition([]), ()], ids=repr)
    @pytest.mark.parametrize("rows", [0, 2, 4])
    def test_pad_returns_an_exact_tuple(self, lam, rows):
        out = pt.pad(lam, rows)
        assert type(out) is tuple and out == tuple(lam) + (0,) * (rows - len(lam))

    def test_bools_normalize_to_exact_ints(self):
        lam = pt.as_partition((True, 1))
        assert lam == (1, 1) and list(map(type, lam)) == [int, int]
        assert str(list(lam)) == "[1, 1]"
        lam, mu = pt.boxed(2, 3, (True, 1), (3, True))
        assert str([list(lam), list(mu)]) == "[[1, 1], [3, 1]]"


class TestOptimizedMode:
    def test_invariant_checks_survive_O(self):
        # python -O strips bare asserts; the partition-path invariants raise
        src = pathlib.Path(pt.__file__).resolve().parents[1]
        env = dict(os.environ, PYTHONPATH=str(src))
        # hand-built orthogonal partitions: (1,) against (3, 2) in 2 x 3 is not
        # compatible, (1,) against () in 1 x 1 is not nested, and () in 3 x 4
        # has the central rectangle (3, 4), not the empty list
        code = ("from cohomrep import isolation as iso, partitions as pt\n"
                "fakes = [pt.OrthoPartition((1,), pt.BoxContext(2, 3), (), None, 'even', 1),\n"
                "         pt.OrthoPartition((1,), pt.BoxContext(1, 1), (), None, 'even', 1),\n"
                "         pt.OrthoPartition((), pt.BoxContext(3, 4), (), None, 'even', 1)]\n"
                "calls = [lambda: pt._even_type((), 3, 3)] + [lambda f=f: iso._torus_chain(f) for f in fakes]\n"
                "for call in calls:\n"
                "    try:\n"
                "        call()\n"
                "    except ValueError as exc:\n"
                "        print(exc)\n")
        proc = subprocess.run([sys.executable, "-O", "-c", code], capture_output=True, text=True, env=env)
        assert proc.returncode == 0, proc.stderr
        lines = proc.stdout.splitlines()
        assert len(lines) == 4
        assert "odd x odd" in lines[0]
        assert all("do not follow the palindrome" in line for line in lines[1:]), lines
