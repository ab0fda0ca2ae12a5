import itertools
import math
from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np
import pytest
import _geometry_reference as ref
from _geometry_reference import mc_verify_integral_all_logs, mc_verify_integral_eigvalsh

from cohomrep import closedforms as cf
from cohomrep import geometry as geo


@pytest.fixture(scope="module")
def rng():
    return np.random.default_rng(20240817)


class TestMetric:
    def test_euclidean_at_origin(self):
        M, N = geo.metric_at(np.zeros((3, 2)))
        assert np.allclose(M, np.eye(3)) and np.allclose(N, np.eye(2))

    def test_positive_definite_sampled(self, rng):
        for _ in range(100):
            p, n = rng.integers(1, 4), rng.integers(1, 4)
            Z = geo.random_point(rng, int(p), int(n))
            ev = np.linalg.eigvalsh(geo.metric_gram(Z))
            assert ev.min() > 0

    def test_invariance_under_G(self, rng):
        p, q, r = 2, 2, 1
        n = q + r
        for _ in range(25):
            Z = geo.random_point(rng, p, n)
            u = rng.normal(size=(n, p))
            g = ref.random_G_element(rng, p, n)
            a = ref.metric_value(Z, u, u)
            b = ref.metric_value(ref.act(g, Z, n), ref.pushforward(g, Z, u, n), ref.pushforward(g, Z, u, n))
            assert abs(a - b) < 1e-7 * max(1.0, abs(a))


class TestDistance:
    # the r = 1 distance to X_V, through cosh^2 d = B/A
    def test_radial_arctanh(self):
        for z in (0.2, -0.5, 0.9):
            assert abs(geo.distance_to_XV(np.array([[0.0], [z]]), 1) - math.atanh(abs(z))) < 1e-12

    def test_zero(self):
        assert geo.distance_to_XV(np.zeros((3, 2)), 2) == 0.0

    def test_exp_round_trip(self, rng):
        # the geodesic leaving the origin normal to X_V (Y1 = 0) realizes
        # the distance to X_V, so exp(Y) lies at distance |Y| from it
        for _ in range(10):
            Y = np.zeros((3, 2))
            Y[2] = rng.normal(size=2) * 0.5
            assert abs(geo.distance_to_XV(ref.exp_origin(Y), 2) - np.linalg.norm(Y)) < 1e-8

    def test_bounds_contain_exact(self, rng):
        # the origin lies on X_V, so 0 <= d(Z, X_V) <= d(0, Z), the l2 norm
        # of arctanh of the singular values of Z
        for _ in range(100):
            Z = geo.random_point(rng, 2, 3)
            to_origin = float(np.sqrt((np.arctanh(np.linalg.svd(Z, compute_uv=False)) ** 2).sum()))
            assert 0.0 <= geo.distance_to_XV(Z, 2) <= to_origin + 1e-9


class TestBA:
    # 2 log_ba_half = log(B/A) = log det(1 - tZ1 Z1) - log det(1 - tZ Z),
    # checked against the oracle's log det(1 + Z2 (1 - tZ Z)^{-1} tZ2)
    def test_closed_forms_agree(self, rng):
        for p, q, r in [(1, 1, 1), (2, 2, 1), (2, 2, 2), (3, 1, 1), (1, 3, 1)]:
            for _ in range(40):
                Z = geo.random_point(rng, p, q + r)
                log_ratio = 2 * geo.log_ba_half(Z, q)
                want = ref.ba_ratio(Z, q)
                assert abs(log_ratio - want["log_ratio"]) < 1e-10 * max(1.0, abs(log_ratio))
                assert log_ratio <= want["log_amgm_bound"] + 1e-9
                assert log_ratio >= -1e-12

    def test_Z2_zero_gives_one(self):
        Z = np.zeros((3, 2))
        Z[0, 0] = 0.5
        assert abs(geo.log_ba_half(Z, 2)) < 1e-12

    def test_Z1_zero(self, rng):
        Z = np.zeros((3, 2))
        Z[2] = [0.3, 0.2]
        want = -geo.log_det_one_minus_gram(Z[2:])
        assert abs(2 * geo.log_ba_half(Z, 2) - want) < 1e-12

    def test_near_boundary_stress(self, rng):
        # the inverse-based closed form conditions like 1/eps near the
        # boundary; allow the agreement tolerance to scale accordingly
        for eps in (1e-2, 1e-4):
            Z = geo.random_point(rng, 2, 3, near_boundary=eps)
            log_ratio = 2 * geo.log_ba_half(Z, 2)
            want = ref.ba_ratio(Z, 2)
            assert log_ratio <= want["log_amgm_bound"] + 1e-9
            assert abs(log_ratio - want["log_ratio"]) < 1e-12 / eps

    def test_gv_invariance(self, rng):
        p, q, r = 2, 2, 1
        for _ in range(25):
            Z = geo.random_point(rng, p, q + r)
            g = ref.random_GV_element(rng, p, q, r)
            a = geo.log_ba_half(Z, q)
            b = geo.log_ba_half(ref.act(g, Z, q + r), q)
            assert abs(a - b) < 1e-7 * max(1.0, abs(a))


class TestJacobi:
    def test_hyperbolic_tangent_block(self):
        spec = geo.jacobi_spectrum(np.array([[1.0]]), 1, 3, 1)
        assert spec["tangent"] == [-1.0] * 3
        assert spec["normal"] == [0.0]

    def test_exact_match_bracket(self, rng):
        for p, q, r in itertools.product((1, 2, 3), (1, 2, 3), (1, 2)):
            for _ in range(3):
                M = rng.normal(size=(r, p))
                M /= np.linalg.norm(M)
                spec = geo.jacobi_spectrum(M, p, q, r)
                T = geo.curvature_operator_matrix(M, p, q, r, "xv")
                P = geo.curvature_operator_matrix(M, p, q, r, "perp")
                assert np.allclose(np.sort(np.linalg.eigvalsh(0.5 * (T + T.T))),
                                   spec["tangent"], atol=1e-9)
                assert np.allclose(np.sort(np.linalg.eigvalsh(0.5 * (P + P.T))),
                                   spec["normal"], atol=1e-9)

    def test_exact_rational_spectra(self):
        lam = [Fraction(3, 5), Fraction(4, 5)]
        spec = geo.exact_jacobi_multiset(lam, 2, 2, 2)
        assert sorted(spec["normal"]) == sorted(
            [Fraction(0), Fraction(0), -Fraction(1, 25), -Fraction(49, 25)])

    def test_printed_lemma_divergence_documented(self):
        # the printed multiset omits the -(lam_i + lam_j)^2 modes; they are
        # forced by the bracket computation whenever min(p, r) >= 2
        lam = [Fraction(3, 5), Fraction(4, 5)]
        ex = geo.exact_jacobi_multiset(lam, 2, 2, 2)
        pr = geo.lemma_jacobi_multiset(lam, 2, 2, 2)
        assert ex["tangent"] == pr["tangent"]
        assert ex["normal"] != pr["normal"]
        # and they agree whenever min(p, r) = 1
        for p, q, r in [(1, 2, 2), (3, 2, 1), (1, 1, 1)]:
            lam2 = [Fraction(1)] + [Fraction(0)] * (max(r, p) - 1)
            assert geo.exact_jacobi_multiset(lam2, p, q, r) == geo.lemma_jacobi_multiset(lam2, p, q, r)


class TestVolume:
    def test_small_t_power(self):
        # f(t) ~ c t^{p-1} as t -> 0 for r = 1
        p, q = 3, 2
        t = 1e-4
        val = cf.volume_growth(t, p, q, 1)["value"]
        ref = (t / math.sinh(1.0)) ** (p - 1) / math.cosh(1.0) ** q
        assert abs(val / ref - 1.0) < 1e-6

    def test_negative_distance_rejected(self):
        with pytest.raises(ValueError):
            cf.volume_growth(-5.0, 2, 2, 1)
        assert cf.volume_growth(0.0, 2, 2, 1)["value"] == 0.0

    def test_p1_pure_cosh(self):
        for t in (0.5, 1.5):
            val = cf.volume_growth(t, 1, 4, 1)["value"]
            assert abs(val - (math.cosh(t) / math.cosh(1.0)) ** 4) < 1e-12

    def test_jacobi_product_matches(self):
        for t in (0.5, 1.2, 2.5):
            a = cf.volume_growth(t, 2, 2, 1)["value"]
            b = ref.volume_growth_from_jacobi(t, [1.0, 0.0], 2, 2, 1)
            assert abs(a - b) / a < 5e-3


class TestGamma:
    def test_trivial_values(self):
        assert abs(cf.gamma_integral_X(0, 1, 1) - 2.0) < 1e-12
        assert abs(cf.gamma_integral_X(0, 2, 1) - math.pi) < 1e-12
        assert abs(cf.gamma_integral_X(0, 1, 2) - math.pi) < 1e-12

    def test_recurrence_log_space(self):
        for s in range(0, 9):
            for n in range(2, 7):
                for p in range(1, 7):
                    lhs = cf.log_gamma_integral_X(s, p, n)
                    rhs = cf.log_gamma_integral_X(s + 1, p, n - 1) + cf.log_gamma_integral_X(s, p, 1)
                    assert abs(lhs - rhs) < 1e-12

    @staticmethod
    def log_integral_even_p(s, p, n):
        """For even p the Gamma ratios are the exact products
        1 / (x (x+1) ... (x+p/2-1)), x = (s+i+1)/2; evaluated in 60-digit
        decimal arithmetic from the float s."""
        with localcontext() as ctx:
            ctx.prec = 60
            prod = Decimal(1)
            for i in range(1, n + 1):
                x = (Decimal(s) + i + 1) / 2
                for j in range(p // 2):
                    prod *= x + j
            pi = Decimal("3.14159265358979323846264338327950288419716939937510582097494")
            return float(Decimal(p * n) / 2 * pi.ln() - prod.ln())

    @pytest.mark.parametrize("s", [1e3, 1e6, 1e12, 1e300])
    def test_large_s_exact_product(self, s):
        for p in (2, 4, 6):
            for n in range(1, 6):
                want = self.log_integral_even_p(s, p, n)
                assert abs(cf.log_gamma_integral_X(s, p, n) - want) <= 1e-12 * abs(want)
                # the integral is symmetric in (p, n): this checks odd p
                # through the half-integer series
                assert abs(cf.log_gamma_integral_X(s, n, p) - want) <= 1e-12 * abs(want)

    # the integral of (A/B)^{s/2} over a cocompact quotient is vol(C_V) times
    # the integral over the r x p ball at s - p - q - r
    def test_quotient_convergence_guard(self):
        with pytest.raises(ValueError):
            cf.log_gamma_integral_X(3 - 5, 2, 1)
        assert cf.gamma_integral_X(10 - 5, 2, 1) > 0

    @pytest.mark.parametrize("s", [1e6, 1e17, 1e300])
    def test_quotient_large_s(self, s):
        # (p, q, r) = (2, 2, 1): pi Gamma((s-3)/2) / Gamma((s-1)/2) = pi / ((s-3)/2)
        got = cf.gamma_integral_X(s - 5, 2, 1)
        assert abs(got / (math.pi / ((s - 3) / 2)) - 1.0) < 1e-12

    def test_below_cutoff_is_the_lgamma_difference(self):
        for s in (0, 2.5, 37, cf.LGAMMA_RATIO_CUTOFF):
            for p, n in itertools.product(range(1, 6), repeat=2):
                want = 0.5 * p * n * math.log(math.pi)
                for i in range(1, n + 1):
                    want += math.lgamma((s + i + 1) / 2.0) - math.lgamma((s + p + i + 1) / 2.0)
                assert cf.log_gamma_integral_X(s, p, n) == want


class TestMonteCarlo:
    def test_deterministic(self):
        a = geo.mc_verify_integral(2, 1, 2, 50_000, seed=11)
        b = geo.mc_verify_integral(2, 1, 2, 50_000, seed=11)
        assert a == b

    def test_matches_closed_form(self):
        res = geo.mc_verify_integral(2, 1, 2, 200_000, seed=3)
        assert res["rel_error"] < 0.02 and res["within_3sigma"]

    def test_seed_ensemble_coverage(self):
        hits = sum(geo.mc_verify_integral(2, 1, 2, 100_000, seed=s)["within_3sigma"]
                   for s in range(20))
        assert hits >= 19

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_eigvalsh_oracle(self, seed):
        for s, p, n in itertools.product((0, 2, 4), range(1, 6), range(1, 6)):
            got = geo.mc_verify_integral(s, p, n, 5_000, seed=seed)
            want = mc_verify_integral_eigvalsh(s, p, n, 5_000, seed=seed)
            assert got["accepted"] == want["accepted"], (s, p, n)
            for key in ("estimate", "ci3"):
                assert abs(got[key] - want[key]) <= 1e-12 * abs(want[key]), (key, s, p, n)
            if p == 1 or s == 0:
                # log1p(-|z|^2) is the eigenvalue route at p = 1, and at s = 0
                # every accepted sample counts 1
                assert got == want, (s, p, n)

    @pytest.mark.parametrize("seed", range(5))
    @pytest.mark.parametrize("block", [geo.MC_BLOCK, 64])
    def test_equals_the_all_logs_kernel(self, seed, block, monkeypatch):
        # blocks, logs of the accepted samples only and hit counts at s = 0
        # change no bit of the result; 10 samples leave some of the 16
        # batches empty, and 64-sample blocks split each batch of 3,000
        monkeypatch.setattr(geo, "MC_BLOCK", block)
        for s, p, n in itertools.product((0, 0.5, 2, 4, 7), range(1, 5), range(1, 5)):
            for samples in (3_000, 10):
                want = mc_verify_integral_all_logs(s, p, n, samples, seed=seed)
                assert geo.mc_verify_integral(s, p, n, samples, seed=seed) == want, (s, p, n, samples)

    @pytest.mark.parametrize("seed", [0, 7])
    def test_batches_seeded_as_spawn_seeds_them(self, seed):
        # each non-empty batch gets the seed `SeedSequence.spawn` would give
        # it, so any batch count, samples < batches included, changes no bit
        for s, p, n in ((0, 2, 1), (2, 1, 2), (4, 2, 2)):
            for samples, batches in itertools.product((1, 5, 40, 1_000), (1, 2, 3, 16, 41, 1_500)):
                want = mc_verify_integral_all_logs(s, p, n, samples, seed=seed, batches=batches)
                got = geo.mc_verify_integral(s, p, n, samples, seed=seed, batches=batches)
                assert got == want, (s, p, n, samples, batches)

    def test_many_batches_draw_only_the_filled_ones(self, monkeypatch):
        # 200,000 batches of 1,000 samples: the root and the last batch's seed, not 200,001
        made = []
        seq = np.random.SeedSequence
        monkeypatch.setattr(np.random, "SeedSequence", lambda *a, **k: made.append(k) or seq(*a, **k))
        assert geo.mc_verify_integral(0, 2, 1, 1_000, seed=7, batches=200_000)["samples"] == 1_000
        assert len(made) == 2 and made[1]["spawn_key"] == (199_999,)

    @pytest.mark.parametrize("batches", [0, -3])
    def test_batches_below_one_rejected(self, batches):
        with pytest.raises(ValueError, match="batches must be >= 1"):
            geo.mc_verify_integral(0, 2, 1, 100, seed=0, batches=batches)

    def test_no_eigendecomposition(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("mc_verify_integral must not call eigvalsh")

        einsum = np.einsum

        def pairwise_only(subscripts, *operands, **kwargs):
            if subscripts == "kij,kil->kjl":
                raise AssertionError("mc_verify_integral must not stack Gram matrices")
            return einsum(subscripts, *operands, **kwargs)

        monkeypatch.setattr(np.linalg, "eigvalsh", refuse)
        monkeypatch.setattr(np, "einsum", pairwise_only)
        assert geo.mc_verify_integral(4, 3, 4, 2_000, seed=5)["samples"] == 2_000

    def test_ball_log_A_boundary(self):
        rng = np.random.default_rng(7)

        def point(p, n, svals):
            """An n x p matrix with singular values svals."""
            U = np.linalg.qr(rng.normal(size=(n, n)))[0][:, :len(svals)]
            V = np.linalg.qr(rng.normal(size=(p, p)))[0][:, :len(svals)]
            return (U * np.asarray(svals)) @ V.T

        def verdict(Z):
            ok, log_A = geo._ball_log_A(Z[None])
            # log A is kept for the accepted samples only
            assert len(log_A) == int(ok.sum())
            if ok[0]:
                want = float(np.log1p(-np.linalg.eigvalsh(Z.T @ Z)).sum())
                assert abs(log_A[0] - want) < 1e-6
            return bool(ok[0])

        inside = point(3, 4, [math.sqrt(1 - 1e-9), 0.5, 0.2])
        assert verdict(inside)
        assert abs(geo._ball_log_A(inside[None])[1][0] - math.log(1e-9 * 0.75 * 0.96)) < 1e-6
        assert not verdict(point(3, 4, [math.sqrt(1 + 1e-9), 0.5, 0.2]))
        # n < p: tZ Z is singular, and its zero eigenvalues count log 1 = 0
        assert verdict(point(3, 2, [0.9, 0.3]))
        assert verdict(point(4, 1, [0.6]))
        assert not verdict(point(4, 1, [1.2]))
        ok, log_A = geo._ball_log_A(np.zeros((1, 1, 3)))
        assert ok[0] and log_A[0] == 0.0

    def test_closed_form_underflow_rejected(self):
        with pytest.raises(ValueError):
            geo.mc_verify_integral(1e300, 2, 2, 16, seed=0)


class TestHessian:
    def test_r1_profile(self, rng):
        devs = []
        for _ in range(4):
            Z = geo.random_point(rng, 2, 3) * 0.6
            if geo.distance_to_XV(Z, 2) < 0.05:
                continue
            devs.append(geo.hessian_numeric_check(Z, 2, h=1e-4)["max_deviation"])
        assert devs and max(devs) < 1e-3

    def test_log_ba_eigenvalues_unit_interval_r1(self, rng):
        for _ in range(6):
            Z = geo.random_point(rng, 2, 3) * 0.7
            ev = geo.hessian_eigenvalues(lambda W: geo.log_ba_half(W, 2), Z, 1e-4)
            assert ev.min() > -1e-5 and ev.max() < 1 + 1e-5

    @pytest.mark.parametrize("p, q", [(1, 1), (2, 2), (3, 1), (2, 3)])
    def test_each_point_is_evaluated_once(self, rng, p, q):
        # f(z0) once and f(z0 +- h e_i) once each, shared by the gradient and
        # the diagonal, plus four points for each off-diagonal pair
        calls = []
        Z = geo.random_point(rng, p, q + 1) * 0.7

        def f(W):
            calls.append(W.tobytes())
            return geo.distance_to_XV(W, q)

        geo.riemannian_hessian_fd(f, Z)
        dim = Z.size
        assert len(calls) == 2 * dim + 1 + 2 * dim * (dim - 1)
        assert len(calls) == len(set(calls))

    def test_limit_profile(self):
        prof = geo.hessian_profile_distance(40.0, 2, 2)
        assert prof == sorted([1.0] * 2 + [0.0] * 2 + [0.0] + [1.0])

    def test_r2_pointwise_bound_fails(self, rng):
        # for r >= 2 the pointwise [0,1] claim does not survive the bracket
        # corrections; record a converged counterexample
        Z = np.zeros((4, 2))
        Z[2:] = np.array([[0.62, 0.11], [0.07, 0.58]])
        ev = geo.hessian_eigenvalues(lambda W: geo.log_ba_half(W, 2), Z, 1e-4)
        assert ev.max() > 1.0 + 1e-3


class TestDX:
    def test_bound_arithmetic(self):
        # sum(gamma_i) - 2k max(gamma_i) at the limit profile of (2, 5, 1):
        # six eigenvalues 1 and the rest 0
        ones = cf.dx_threshold(2, 5, 1)["limit_ones"]
        assert ones - 2 * 2 == 2
        assert ones - 2 * 3 == 0
        assert ones - 2 * 0 == 6

    def test_threshold_record(self):
        th = cf.dx_threshold(2, 5, 1)
        assert th["limit_ones"] == 6
        assert th["threshold_qpr"] == 3.0
        assert th["threshold_pqr"] == 3.0
        th = cf.dx_threshold(2, 3, 2)
        assert th["threshold_qpr"] != th["threshold_pqr"]


class TestPointZ:
    # the determinants A = det(1 - tZ Z) and B = det(1 - tZ1 Z1) of a point
    def test_cached_determinants(self):
        Z = np.zeros((3, 2))
        Z[2, 0] = 0.6
        A = math.exp(geo.log_det_one_minus_gram(Z))
        B = math.exp(geo.log_det_one_minus_gram(Z[:2]))
        assert abs(B - 1.0) < 1e-12
        assert abs(A - (1 - 0.36)) < 1e-12
        assert B >= A

    def test_rejects_boundary(self):
        with pytest.raises(ValueError):
            geo.log_det_one_minus_gram(np.eye(2))
