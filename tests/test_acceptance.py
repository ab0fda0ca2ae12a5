"""Acceptance suite: one criterion per test, one printed PASS/FAIL line each.

Criteria 3 and 7 contain sub-clauses that are provably unattainable as
stated (documented in the repository notes): the rank-two witness
(floor(q/2)) is not an orthogonal partition for odd q, and the printed
normal Jacobi multiset omits the -(lam_i + lam_j)^2 modes forced by the
bracket (and independently by finite-difference curvature).  Those
sub-clauses are asserted literally in their own tests and fail honestly;
everything else passes.
"""

import itertools
import json
import pathlib
import subprocess
import sys
import time
from fractions import Fraction

import numpy as np
import pytest

from cohomrep import branching as br
from cohomrep import closedforms as cf
from cohomrep import geometry as geo
from cohomrep import isolation as iso
from cohomrep import lefschetz as lef
from cohomrep import partitions as pt
from cohomrep import rootdata as rd
from cohomrep import vz_catalog as vz
from cohomrep.partitions import BoxContext

from _golden import replay

GOLDEN = pathlib.Path(__file__).parent / "data" / "verdict_golden.json"


def report(n, label, ok, started, extra=""):
    status = "PASS" if ok else "FAIL"
    msg = f"ACCEPTANCE {n}: {status} [{time.time() - started:6.2f}s] {label}"
    if extra:
        msg += f" -- {extra}"
    print(msg)
    return ok


def test_criterion_1_partition_identities():
    t0 = time.time()
    assert pt.conjugate((5, 3, 3, 2)) == (4, 4, 3, 1, 1)
    assert pt.complement((5, 3, 3, 2), 5, 5) == (5, 3, 2, 2)
    for p, q in itertools.product(range(1, 7), repeat=2):
        for lam in pt.partitions_in_box(p, q):
            assert pt.conjugate(pt.conjugate(lam)) == lam
            hat = pt.complement(lam, p, q)
            assert pt.complement(hat, p, q) == lam
            assert pt.weight(lam) + pt.weight(hat) == p * q
    elapsed = time.time() - t0
    assert report(1, "partition identities, exhaustive p,q <= 6", elapsed < 1.0, t0,
                  f"runtime {elapsed:.2f}s < 1s")


def test_criterion_2_compatibility_equivalence():
    t0 = time.time()
    for p, q in itertools.product(range(1, 6), repeat=2):
        ctx = BoxContext(p, q)
        pairs = pt.enumerate_compatible(ctx)
        seen = set()
        for cp in pairs:
            xs, ys = pt.build_witness_X(cp)
            assert pt.partitions_of_witness(xs, ys, ctx) == (cp.lam, cp.mu)
            seen.add((cp.lam, cp.mu))
            full_height = sum(a for a, _ in cp.rects) == p
            for r in range(0, q + 1):
                # componentwise form (inscribes) == rectangle form
                rect_form = r == 0 or (full_height and all(b >= r for _, b in cp.rects))
                assert pt.inscribes(r, cp.lam, cp.mu, p) == rect_form, (p, q, cp, r)
        # decompose-fails iff no witness exists (checked by recapturing all
        # realizable pairs from dominant vectors on a small grid)
        if p * q <= 9:
            realizable = set()
            levels = range(p + q + 1)
            for xs in itertools.product(levels, repeat=p):
                if any(xs[i] < xs[i + 1] for i in range(p - 1)):
                    continue
                for ys in itertools.product(levels, repeat=q):
                    if any(ys[j] > ys[j + 1] for j in range(q - 1)):
                        continue
                    realizable.add(pt.partitions_of_witness(xs, ys, ctx))
            assert realizable == seen
    elapsed = time.time() - t0
    assert report(2, "skew_decompose <-> witness round trip, inscribes forms, p,q <= 5",
                  elapsed < 10.0, t0, f"runtime {elapsed:.2f}s < 10s")


def test_criterion_3_cor_mino_bounds_and_rank3_attainment():
    t0 = time.time()
    violations = []
    for p in range(3, 10):
        for q in range(3, 10):
            if p + q > 12:
                continue
            _, best, argmin = iso.nonisolated_degree_scan(p, q)
            th = iso.min_degree_nonisolated("O", p, q)
            if best < th.bound:
                violations.append((p, q, best))
            assert best == p + q - 3 and th.witness in argmin, (p, q)
    for q in range(3, 10):
        _, best, _ = iso.nonisolated_degree_scan(2, q)
        if best < q // 2:
            violations.append((2, q, best))
    elapsed = time.time() - t0
    ok = not violations and elapsed < 30.0
    assert report(3, "Cor mino: zero violations; p+q-3 attained at (q-1,1^(p-2)) for p,q >= 3",
                  ok, t0, f"violations={violations}, runtime {elapsed:.2f}s < 30s")


@pytest.mark.xfail(strict=True, reason="spec defect: (floor(q/2)) is not an orthogonal "
                   "partition of the 2 x q box for odd q (its skew complement overlaps "
                   "along an edge), so the bound cannot be attained there; the scan "
                   "bottoms out at ceil(q/2). See README, section 'Install and test'.")
def test_criterion_3_rank2_attainment_as_stated():
    t0 = time.time()
    ok = True
    for q in range(3, 10):
        _, best, argmin = iso.nonisolated_degree_scan(2, q)
        ok = ok and best == q // 2 and (q // 2,) in argmin
    report(3, "rank-2 attainment at (floor(q/2)) for every 3 <= q <= 9 (as stated)", ok, t0)
    assert ok


def test_criterion_4_branching_oracle_agreement():
    t0 = time.time()
    for p, q in [(2, 2), (2, 3)]:
        ctx = BoxContext(p, q)
        for cp in pt.enumerate_compatible(ctx):
            res = br.restrict_U_pair(cp.lam, cp.mu, ctx, 1)
            deg = pt.weight(cp.lam) + pt.weight(pt.complement(cp.mu, p, q))
            found = {}
            for cp2 in pt.enumerate_compatible(BoxContext(p, q - 1)):
                if pt.weight(cp2.lam) + pt.weight(pt.complement(cp2.mu, p, q - 1)) != deg:
                    continue
                m = br.restrict_U_pair_oracle_mult(cp.lam, cp.mu, ctx, 1, cp2.lam, cp2.mu)
                if m:
                    found[(cp2.lam, cp2.mu)] = m
            assert found == ({res["target"]: 1} if res["contains"] else {}), (p, q, cp.lam, cp.mu)
        for orth in pt.enumerate_orthogonal(ctx):
            res = br.restrict_O(orth.lam, ctx, 1)
            found = {}
            for o2 in pt.enumerate_orthogonal(BoxContext(p, q - 1)):
                if pt.weight(o2.lam) != pt.weight(orth.lam):
                    continue
                m = br.restrict_O_oracle_mult(orth.lam, ctx, 1, o2.lam)
                if m:
                    found[o2.lam] = m
            assert found == ({orth.lam: 1} if res["contains"] else {}), (p, q, orth.lam)
    count = 0
    for lam in _partitions_up_to(6):
        n = max(2 * len(lam), 2)
        assert br.gl_to_o_mult(lam, lam, n) == 1
        count += 1
    elapsed = time.time() - t0
    assert report(4, f"branching booleans == character-oracle multiplicities (2x2, 2x3, r=1); "
                     f"gl_to_o diag = 1 on {count} partitions",
                  elapsed < 60.0, t0, f"runtime {elapsed:.2f}s < 60s")


def _partitions_up_to(n):
    out = [()]

    def gen(prefix, rem, mx):
        for v in range(1, min(mx, rem) + 1):
            cur = prefix + [v]
            out.append(tuple(cur))
            gen(cur, rem - v, v)

    gen([], n, n)
    return out


def test_criterion_5_ktype_weight_formulas():
    t0 = time.time()
    for p, q, r in itertools.product(range(1, 5), repeat=3):
        if r > q:
            continue
        w = rd.ktype_weight_U((r,) * p, (q,) * p, BoxContext(p, q + r))
        assert all(v == 0 for v in w.xs)
        for j in range(q + r):
            assert w.ys[j] == (-p if j < r else (p if j >= q else 0)), (p, q, r)
        orth = pt.ortho_classify((r,) * p, BoxContext(p, q + r))
        s1, s2 = vz.sign_slots(orth)[0]
        wo = rd.ktype_weight_O(orth, s1, s2)
        beta = (q + r) // 2
        assert all(v == 0 for v in wo.xs)
        for j in range(1, beta + 1):
            assert wo.ys[j - 1] == (p if j > beta - r else 0), (p, q, r)
    assert report(5, "2rho_n ladder identities (U and O) for all p,q,r <= 4", True, t0)


def test_criterion_6_gamma_integrals():
    t0 = time.time()
    import math
    assert abs(cf.gamma_integral_X(0, 1, 1) - 2.0) < 1e-12
    assert abs(cf.gamma_integral_X(0, 2, 1) - math.pi) < 1e-12
    assert abs(cf.gamma_integral_X(0, 1, 2) - math.pi) < 1e-12
    for s in range(0, 9):
        for n in range(2, 7):
            for p in range(1, 7):
                lhs = cf.log_gamma_integral_X(s, p, n)
                rhs = cf.log_gamma_integral_X(s + 1, p, n - 1) + cf.log_gamma_integral_X(s, p, 1)
                assert abs(lhs - rhs) < 1e-12
    results = []
    for s, p, n in [(2, 1, 2), (4, 2, 2), (2, 2, 3)]:
        res = geo.mc_verify_integral(s, p, n, 1_000_000, seed=2024)
        assert res["rel_error"] < 0.02, res
        assert res["within_3sigma"], res
        results.append(f"({s},{p},{n}): rel {res['rel_error']:.4f}")
    elapsed = time.time() - t0
    assert report(6, "Gamma closed forms, 1e-12 recurrence, MC within 2% and 3 sigma",
                  elapsed < 120.0, t0, "; ".join(results) + f"; runtime {elapsed:.1f}s < 2min")


def test_criterion_7_bracket_spectra_and_hessian():
    t0 = time.time()
    rng = np.random.default_rng(7)
    for p, q, r in itertools.product((1, 2, 3), (1, 2, 3), (1, 2)):
        # exact rational anchor: a 3-4-5 direction when two singular values fit
        m0 = min(r, p)
        lam = [Fraction(3, 5), Fraction(4, 5)] if m0 >= 2 else [Fraction(1)]
        lam = lam + [Fraction(0)] * (max(r, p) - len(lam))
        M = np.zeros((r, p))
        for i in range(m0):
            M[i, i] = float(lam[i])
        spec = geo.exact_jacobi_multiset(lam, p, q, r)
        T = geo.curvature_operator_matrix(M, p, q, r, "xv")
        P = geo.curvature_operator_matrix(M, p, q, r, "perp")
        assert np.allclose(np.sort(np.linalg.eigvalsh(0.5 * (T + T.T))),
                           [float(v) for v in spec["tangent"]], atol=1e-12)
        assert np.allclose(np.sort(np.linalg.eigvalsh(0.5 * (P + P.T))),
                           [float(v) for v in spec["normal"]], atol=1e-12)
        # randomized directions
        for _ in range(3):
            Mr = rng.normal(size=(r, p))
            Mr /= np.linalg.norm(Mr)
            spec = geo.jacobi_spectrum(Mr, p, q, r)
            T = geo.curvature_operator_matrix(Mr, p, q, r, "xv")
            P = geo.curvature_operator_matrix(Mr, p, q, r, "perp")
            assert np.allclose(np.sort(np.linalg.eigvalsh(0.5 * (T + T.T))), spec["tangent"], atol=1e-9)
            assert np.allclose(np.sort(np.linalg.eigvalsh(0.5 * (P + P.T))), spec["normal"], atol=1e-9)
    devs = []
    tries = 0
    while len(devs) < 10 and tries < 50:
        tries += 1
        Z = geo.random_point(rng, 2, 3) * 0.7
        if geo.distance_to_XV(Z, 2) < 0.05:
            continue
        devs.append(geo.hessian_numeric_check(Z, 2, h=1e-4)["max_deviation"])
    assert len(devs) == 10 and max(devs) < 1e-3, devs
    elapsed = time.time() - t0
    assert report(7, "bracket spectra == Jacobi multiset (corrected form); r=1 Hessian "
                     "profile within 1e-3 at (2,2), 10 points",
                  elapsed < 120.0, t0, f"max FD deviation {max(devs):.2e}; runtime {elapsed:.1f}s")


@pytest.mark.xfail(strict=True, reason="paper misprint: the printed normal multiset "
                   "-(lam_i - lam_j)^2 omits the -(lam_i + lam_j)^2 modes; the bracket "
                   "and finite-difference curvature force them whenever min(p,r) >= 2. "
                   "See README, section 'Install and test'.")
def test_criterion_7_printed_multiset_as_stated():
    t0 = time.time()
    lam = [Fraction(3, 5), Fraction(4, 5)]
    M = np.diag([0.6, 0.8])
    P = geo.curvature_operator_matrix(M, 2, 2, 2, "perp")
    printed = [float(v) for v in geo.lemma_jacobi_multiset(lam, 2, 2, 2)["normal"]]
    got = np.sort(np.linalg.eigvalsh(0.5 * (P + P.T)))
    ok = np.allclose(got, printed, atol=1e-9)
    report(7, "printed normal multiset matches brackets at (2,2,2) (as stated)", ok, t0)
    assert ok


def test_criterion_8_verdict_golden_table():
    t0 = time.time()
    rows = json.loads(GOLDEN.read_text())["rows"]
    assert len(rows) >= 25
    for row in rows:
        v = replay(row["query"])
        assert v.status == row["expect"]["status"], row
        assert v.anchor == row["expect"]["anchor"], row
        assert v.threshold == row["expect"]["threshold"], row
        if v.anchor.startswith("Conj"):
            assert v.status != lef.GUARANTEED
    elapsed = time.time() - t0
    assert report(8, f"golden table: {len(rows)} queries, exact thresholds, conjectures "
                     "never guaranteed", elapsed < 1.0, t0, f"runtime {elapsed:.2f}s < 1s")


def test_criterion_9_cli_determinism():
    t0 = time.time()
    cmds = [
        ["catalog", "--kind", "O", "--p", "2", "--q", "3", "--format", "json"],
        ["geometry", "verify-integral", "--s", "2", "--p", "1", "--n", "2",
         "--samples", "200000", "--seed", "41"],
        ["lefschetz", "--mode", "restriction", "--G", "O:3,4", "--degree", "3",
         "--format", "csv"],
    ]
    for cmd in cmds:
        a = subprocess.run([sys.executable, "-m", "cohomrep"] + cmd,
                           capture_output=True).stdout
        b = subprocess.run([sys.executable, "-m", "cohomrep"] + cmd,
                           capture_output=True).stdout
        assert a == b and a
    assert report(9, "repeated CLI runs with fixed seeds are byte-identical", True, t0)
