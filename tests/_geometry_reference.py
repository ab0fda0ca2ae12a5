"""Test-only oracles and helpers for `cohomrep.geometry` and `closedforms`.

The group action, the metric value and the random group elements check that
the live metric `geometry.metric_at` is G-invariant and that
`geometry.log_ba_half` is G_V-invariant.  `ba_ratio` computes B/A by its
second closed form det(1 + Z2 (1 - tZ Z)^{-1} tZ2), which shares no code
with `log_ba_half`.  `volume_growth_from_jacobi` multiplies the Jacobi-field
norms along a normal geodesic, the oracle for `closedforms.volume_growth`.
`exp_origin` gives the points whose distance to X_V is known.

The two Monte Carlo oracles below draw the same samples as `geometry.mc_verify_integral` for a given
(seed, batches) and estimate from whole batches, taking exp of every
accepted sample, at s = 0 too; they differ in how they decide acceptance
and log A = log det(1 - tZ Z).

`mc_verify_integral_eigvalsh` is the eigenvalue route that
`geometry.mc_verify_integral` replaced: it forms every Gram matrix tZ Z with
a stacked einsum and reads both from `np.linalg.eigvalsh`.  It shares no
code with `geometry._ball_pivots`, the LDL^T pivot route it checks.

`mc_verify_integral_all_logs` is the pivot kernel as it was before it took
logs only where the estimate reads them: `_ball_log_A_all` takes log1p and
log of every sample's pivots, rejected ones included.  The fast kernel must
return exactly its dict.
"""

import math

import numpy as np

from cohomrep.closedforms import gamma_integral_X
from cohomrep.geometry import exact_jacobi_multiset, metric_at, xi


def metric_value(Z, u, v) -> float:
    M, N = metric_at(Z)
    return float(np.trace(M @ np.asarray(u, float) @ N @ np.asarray(v, float).T))


def act(g: np.ndarray, Z: np.ndarray, split: int) -> np.ndarray:
    """Moebius action gZ = (AZ + B)(CZ + D)^{-1}; split = q + r."""
    g = np.asarray(g, float)
    A, B = g[:split, :split], g[:split, split:]
    C, D = g[split:, :split], g[split:, split:]
    return (A @ Z + B) @ np.linalg.inv(C @ Z + D)


def automorphy_j(g: np.ndarray, Z: np.ndarray, split: int) -> np.ndarray:
    g = np.asarray(g, float)
    C, D = g[split:, :split], g[split:, split:]
    return C @ Z + D


def pushforward(g: np.ndarray, Z: np.ndarray, u: np.ndarray, split: int) -> np.ndarray:
    """d(gZ) applied to u: l(g,Z) u j(g,Z)^{-1} with l = A - (gZ) C."""
    g = np.asarray(g, float)
    A, C = g[:split, :split], g[split:, :split]
    gZ = act(g, Z, split)
    return (A - gZ @ C) @ u @ np.linalg.inv(automorphy_j(g, Z, split))


def exp_origin(Y: np.ndarray) -> np.ndarray:
    """exp(xi(Y)) . 0, by the symmetric eigendecomposition of xi(Y)."""
    n, p = np.asarray(Y).shape
    w, V = np.linalg.eigh(xi(Y))
    G = V @ np.diag(np.exp(w)) @ V.T
    B, D = G[:n, n:], G[n:, n:]
    return B @ np.linalg.inv(D)


def random_G_element(rng: np.random.Generator, p: int, n: int, scale: float = 0.4) -> np.ndarray:
    """A random element of O(n, p): exp of a tangent direction times a
    random block-orthogonal matrix."""
    Y = rng.normal(size=(n, p)) * scale
    w, V = np.linalg.eigh(xi(Y))
    g = V @ np.diag(np.exp(w)) @ V.T
    k1 = np.linalg.qr(rng.normal(size=(n, n)))[0]
    k2 = np.linalg.qr(rng.normal(size=(p, p)))[0]
    k = np.zeros((n + p, n + p))
    k[:n, :n] = k1
    k[n:, n:] = k2
    return g @ k


def random_GV_element(rng: np.random.Generator, p: int, q: int, r: int, scale: float = 0.4) -> np.ndarray:
    """A random element of G_V = O(q,p) x O(r) in block form (rows q | r | p)."""
    W = rng.normal(size=(q, p)) * scale
    w, V = np.linalg.eigh(xi(W))
    h = V @ np.diag(np.exp(w)) @ V.T  # in O(q, p)
    u = np.linalg.qr(rng.normal(size=(r, r)))[0]
    g = np.zeros((p + q + r, p + q + r))
    g[:q, :q] = h[:q, :q]
    g[:q, q + r:] = h[:q, q:]
    g[q + r:, :q] = h[q:, :q]
    g[q + r:, q + r:] = h[q:, q:]
    g[q: q + r, q: q + r] = u
    return g


def ba_ratio(Z: np.ndarray, q: int) -> dict:
    """log(B/A) by its second closed form log det(1 + Z2 (1 - tZ Z)^{-1} tZ2),
    and the log of the arithmetic-geometric bound: r log(1 + tr(K)/r) >=
    log(B/A) with K = Z2 (1 - tZ Z)^{-1} tZ2."""
    Z = np.asarray(Z, float)
    n, p = Z.shape
    r = n - q
    Z2 = Z[q:]
    K = Z2 @ np.linalg.inv(np.eye(p) - Z.T @ Z) @ Z2.T
    sign, log_ratio = np.linalg.slogdet(np.eye(r) + K)
    if sign <= 0:
        raise ArithmeticError("det(1 + Z2 (1 - tZ Z)^{-1} tZ2) is not positive")
    return {"log_ratio": float(log_ratio),
            "log_amgm_bound": r * math.log1p(float(np.trace(K)) / r) if r else 0.0}


def volume_growth_from_jacobi(t: float, lam, p: int, q: int, r: int) -> float:
    """Product of the Jacobi-field norms along a normal geodesic with
    direction spectrum lam, normalized at t = 1; one radial zero mode is
    dropped."""
    spec = exact_jacobi_multiset([float(v) for v in lam], p, q, r)
    out = 1.0
    for ev in spec["tangent"]:
        mu = math.sqrt(-ev)
        out *= math.cosh(mu * t) / math.cosh(mu)
    zeros_skipped = False
    for ev in spec["normal"]:
        mu = math.sqrt(-ev)
        if mu < 1e-12:
            if not zeros_skipped:
                zeros_skipped = True  # radial direction
                continue
            out *= t
        else:
            out *= math.sinh(mu * t) / math.sinh(mu)
    return out


def _eigvalsh_log_A(Z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The mask of the samples with tZ Z < 1, and log A of those samples."""
    S = np.einsum("kij,kil->kjl", Z, Z)
    ev = np.linalg.eigvalsh(S)
    ok = ev[:, -1] < 1.0
    return ok, np.log1p(-ev[ok]).sum(axis=1)


def _ball_log_A_all(Z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The mask of the samples with tZ Z < 1, and log A of those samples,
    computed over the whole stack and then read at the mask."""
    p = Z.shape[-1]
    gram = {(a, b): np.einsum("ki,ki->k", Z[:, :, a], Z[:, :, b])
            for a in range(p) for b in range(a, p)}
    M = {ab: 1.0 - g if ab[0] == ab[1] else -g for ab, g in gram.items()}
    with np.errstate(divide="ignore", invalid="ignore"):
        ok = M[0, 0] > 0.0
        log_A = np.log1p(-gram[0, 0])
        for j in range(1, p):
            pivot = M[j - 1, j - 1]
            for a in range(j, p):
                f = M[j - 1, a] / pivot
                for b in range(a, p):
                    M[a, b] = M[a, b] - f * M[j - 1, b]
            ok &= M[j, j] > 0.0
            log_A = log_A + np.log(M[j, j])
    return ok, log_A[ok]


def _mc_verify_integral(log_A_of, s: float, p: int, n: int, samples: int, seed: int,
                        batches: int) -> dict:
    closed = gamma_integral_X(s, p, n)
    box_volume = 2.0 ** (n * p)
    seeds = np.random.SeedSequence(seed).spawn(batches)
    per = [samples // batches] * batches
    per[-1] += samples - sum(per)
    sums, sqsums, accepted = [], [], 0
    for k in range(batches):
        rng = np.random.default_rng(seeds[k])
        ok, log_A = log_A_of(rng.uniform(-1.0, 1.0, size=(per[k], n, p)))
        vals = np.zeros(per[k])
        vals[ok] = np.exp(0.5 * s * log_A)
        accepted += int(ok.sum())
        sums.append(float(vals.sum()))
        sqsums.append(float((vals * vals).sum()))
    total = math.fsum(sums)
    total_sq = math.fsum(sqsums)
    mean = total / samples
    var = max(total_sq / samples - mean * mean, 0.0)
    sigma = math.sqrt(var / samples)
    est = box_volume * mean
    ci3 = 3.0 * box_volume * sigma
    return {
        "estimate": est,
        "closed_form": closed,
        "rel_error": abs(est - closed) / closed,
        "ci3": ci3,
        "within_3sigma": abs(est - closed) <= ci3 + 1e-12 * abs(closed),
        "accepted": accepted,
        "samples": samples,
        "seed": seed,
        "batches": batches,
    }


def mc_verify_integral_eigvalsh(s: float, p: int, n: int, samples: int, seed: int,
                                batches: int = 16) -> dict:
    return _mc_verify_integral(_eigvalsh_log_A, s, p, n, samples, seed, batches)


def mc_verify_integral_all_logs(s: float, p: int, n: int, samples: int, seed: int,
                                batches: int = 16) -> dict:
    return _mc_verify_integral(_ball_log_A_all, s, p, n, samples, seed, batches)
