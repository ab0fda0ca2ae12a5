"""Geometry and analysis on the bounded model of X_{p,q+r}.

The space is { Z in M_{q+r,p}(R) : tZ Z < 1 } with the invariant metric
tr((1 - Z tZ)^{-1} dZ (1 - tZ Z)^{-1} d tZ).  The first q rows single out
the totally geodesic X_V = { Z_2 = 0 } of type X_{p,q}; A = det(1 - tZ Z)
and B = det(1 - tZ_1 Z_1) control the distance to X_V through the
G_V-invariant ratio B/A.  Everything here is numerical-with-exact-anchors:
curvature by literal brackets, Monte Carlo verification of the
Gamma-product integrals by seeded rejection sampling, Riemannian Hessians
by finite differences with explicit Christoffel symbols.  The closed forms
that need no numpy live in `closedforms`.
"""

from __future__ import annotations

import math
from typing import Optional, Sequence

import numpy as np

from .closedforms import gamma_integral_X

#: samples per block of the Monte Carlo elimination: its float64 temporaries
#: stay at 64 kB, below glibc's mmap threshold, so a block reuses heap memory
#: where a whole 62,500-sample batch faults in fresh pages for every array
MC_BLOCK = 8192


# ---------------------------------------------------------------------------
# determinants and metric


def log_det_one_minus_gram(Z: np.ndarray) -> float:
    """log det(1 - tZ Z) through the eigenvalues of the Gram matrix, stable
    near the boundary."""
    ev = np.linalg.eigvalsh(np.asarray(Z, float).T @ np.asarray(Z, float))
    if ev.max(initial=0.0) >= 1.0:
        raise ValueError("tZ Z < 1 violated")
    return float(np.log1p(-ev).sum())


def metric_at(Z: np.ndarray):
    """The two kernels of the metric at Z: g_Z(u, v) = tr(M u N tv) with
    M = (1 - Z tZ)^{-1}, N = (1 - tZ Z)^{-1}."""
    Z = np.asarray(Z, float)
    n, p = Z.shape
    M = np.linalg.inv(np.eye(n) - Z @ Z.T)
    N = np.linalg.inv(np.eye(p) - Z.T @ Z)
    return M, N


def metric_gram(Z: np.ndarray) -> np.ndarray:
    """Gram matrix of the metric in the coordinates Z_{ia} (row-major)."""
    M, N = metric_at(Z)
    return np.kron(M, N)


# ---------------------------------------------------------------------------
# tangent vectors and sample points


def xi(Z: np.ndarray) -> np.ndarray:
    """Tangent-space embedding [[0, Z], [tZ, 0]]."""
    Z = np.asarray(Z, float)
    n, p = Z.shape
    out = np.zeros((n + p, n + p))
    out[:n, n:] = Z
    out[n:, :n] = Z.T
    return out


def random_point(rng: np.random.Generator, p: int, n: int, near_boundary: Optional[float] = None) -> np.ndarray:
    """Rejection sample Z uniform on the box with tZ Z < 1; optionally push
    radially to operator norm 1 - near_boundary."""
    while True:
        Z = rng.uniform(-1.0, 1.0, size=(n, p))
        sv = np.linalg.svd(Z, compute_uv=False)
        if sv[0] < 1.0:
            break
    if near_boundary is not None:
        Z = Z * (1.0 - near_boundary) / np.linalg.svd(Z, compute_uv=False)[0]
    return Z


# ---------------------------------------------------------------------------
# the distance to X_V and the B/A ratio


def distance_to_XV(Z: np.ndarray, q: int) -> float:
    """Geodesic distance to X_V for r = 1: cosh^2 d = B/A."""
    return math.acosh(math.exp(log_ba_half(Z, q)))


def log_ba_half(Z: np.ndarray, q: int) -> float:
    """(1/2) log(B/A), the distance-like exhaustion used for the Hessian
    bounds; equals log cosh d(., X_V) when r = 1."""
    return 0.5 * (log_det_one_minus_gram(np.asarray(Z, float)[:q]) - log_det_one_minus_gram(Z))


# ---------------------------------------------------------------------------
# curvature and Jacobi spectra


def curvature_op(X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """R(X, Y)Y = -[[X, Y], Y] at the origin, on tangent matrices."""
    n, p = np.asarray(Y).shape
    b1 = xi(X) @ xi(Y) - xi(Y) @ xi(X)
    b2 = b1 @ xi(Y) - xi(Y) @ b1
    return -b2[:n, n:]


def curvature_operator_matrix(M: np.ndarray, p: int, q: int, r: int, block: str) -> np.ndarray:
    """Matrix of R(., Y)Y with Y = xi([0; M]) on the tangent ("xv") or
    normal ("perp") subspace of X_V at the origin, in the standard basis."""
    n = q + r
    Y = np.zeros((n, p))
    Y[q:] = M
    rows = range(q) if block == "xv" else range(q, n)
    basis = [(i, a) for i in rows for a in range(p)]
    out = np.zeros((len(basis), len(basis)))
    for col, (i, a) in enumerate(basis):
        X = np.zeros((n, p))
        X[i, a] = 1.0
        R = curvature_op(X, Y)
        for row, (j, b) in enumerate(basis):
            out[row, col] = R[j, b]
    return out


def jacobi_spectrum(M: np.ndarray, p: int, q: int, r: int) -> dict:
    """Eigenvalue multisets of R(., Y)Y for the unit normal Y given by the
    r x p block M (sum of squared singular values must be 1).

    tangent block: -lambda_j^2, each with multiplicity q, j = 1..p;
    normal block: 0 for each diagonal pair (i, i), the two values
    -(lambda_i - lambda_j)^2 and -(lambda_i + lambda_j)^2 for each i < j
    <= min(r, p), and -lambda_i^2 for each cross pair beyond min(r, p).
    The paper's lemma prints -(lambda_i - lambda_j)^2 for all (i, j); the
    bracket computation forces the +(sum) modes, which matter only when
    min(r, p) >= 2 (see lemma_jacobi_multiset for the printed variant)."""
    sv = np.linalg.svd(np.asarray(M, float), compute_uv=False)
    lam = sv.tolist() + [0.0] * (max(r, p) - len(sv))
    if abs(sum(v * v for v in lam) - 1.0) >= 1e-9:
        raise ValueError("Y must be a unit vector")
    return exact_jacobi_multiset(lam, p, q, r)


def exact_jacobi_multiset(lam: Sequence, p: int, q: int, r: int) -> dict:
    """Closed-form spectrum from the (padded) singular values; exact when
    the entries are exact numbers."""
    m0 = min(r, p)
    tangent = []
    for j in range(p):
        tangent.extend([-lam[j] ** 2] * q)
    normal = []
    for i in range(r):
        for j in range(p):
            if i == j:
                normal.append(0 * lam[0] if lam else 0)
            elif i < m0 and j < m0:
                if i < j:
                    normal.append(-((lam[i] - lam[j]) ** 2))
                else:
                    normal.append(-((lam[j] + lam[i]) ** 2))
            else:
                normal.append(-(lam[min(i, j)] ** 2))
    return {"tangent": sorted(tangent), "normal": sorted(normal)}


def lemma_jacobi_multiset(lam: Sequence, p: int, q: int, r: int) -> dict:
    """The printed multiset: tangent -lambda_j^2 (x q), normal
    -(lambda_i - lambda_j)^2 over (i, j) in [r] x [p]."""
    tangent = []
    for j in range(p):
        tangent.extend([-lam[j] ** 2] * q)
    normal = [-((lam[i] - lam[j]) ** 2) for i in range(r) for j in range(p)]
    return {"tangent": sorted(tangent), "normal": sorted(normal)}


# ---------------------------------------------------------------------------
# Monte Carlo verification of the Gamma-product integrals


def _ball_pivots(Z: np.ndarray) -> tuple[np.ndarray, np.ndarray, list]:
    """For a stack Z of n x p matrices (shape (k, n, p)): the mask of the
    samples with tZ Z < 1, the squared norm |z_1|^2 of each first column,
    and the pivots 2..p of one LDL^T elimination of 1 - tZ Z.

    The elimination runs over the whole stack at once, and the matrix is
    positive definite iff every pivot is positive (Sylvester); the first
    pivot is 1 - |z_1|^2.  Acceptance reads the pivots alone, so no log is
    taken here."""
    p = Z.shape[-1]
    gram = {(a, b): np.einsum("ki,ki->k", Z[:, :, a], Z[:, :, b])
            for a in range(p) for b in range(a, p)}
    # M[a, b], a <= b: the upper triangle of 1 - tZ Z, eliminated in place
    M = {ab: 1.0 - g if ab[0] == ab[1] else -g for ab, g in gram.items()}
    with np.errstate(divide="ignore", invalid="ignore"):
        ok = M[0, 0] > 0.0
        for j in range(1, p):
            pivot = M[j - 1, j - 1]
            for a in range(j, p):
                f = M[j - 1, a] / pivot
                for b in range(a, p):
                    M[a, b] = M[a, b] - f * M[j - 1, b]
            ok &= M[j, j] > 0.0
    return ok, gram[0, 0], [M[j, j] for j in range(1, p)]


def _ball_log_A(Z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """For a stack Z of n x p matrices (shape (k, n, p)): the mask of the
    samples with tZ Z < 1, and log A = log det(1 - tZ Z) of the accepted
    samples only, in their order (length mask.sum()).

    log A is the sum of the log pivots of `_ball_pivots`, taken on the
    accepted samples alone, so no log meets a rejected sample's nonpositive
    pivot.  The first pivot 1 - |z_1|^2 enters as log1p(-|z_1|^2), so p = 1
    is exactly log1p(-tZ Z).  Each log is elementwise, so the values are
    bit for bit those of the logs over the whole stack, read at the mask."""
    ok, first, pivots = _ball_pivots(Z)
    log_A = np.log1p(-first[ok])
    for pivot in pivots:
        log_A = log_A + np.log(pivot[ok])
    return ok, log_A


def mc_verify_integral(s: float, p: int, n: int, samples: int, seed: int, batches: int = 16) -> dict:
    """Monte Carlo check of the closed form: rejection sampling of Z uniform
    on [-1,1]^{n x p}, acceptance tZ Z < 1, estimating int A^{s/2}.
    Deterministic for fixed (seed, batches); reports the 3-sigma interval.
    Raises ValueError when the closed form underflows a float, since the
    relative error is then undefined, and when batches < 1.

    Each batch is eliminated in blocks of `MC_BLOCK` samples.  Acceptance
    comes from the elimination pivots, and A^{s/2} is computed for the
    accepted samples only, into a zero array of the batch length, so
    numpy's pairwise sum adds the same values in the same order.  At s = 0
    every accepted sample counts exactly 1, so a batch's sum and square sum
    are its hit count, with no log or exp.  Every step is elementwise per
    sample, so the result is the float the whole-batch kernel that took
    every log returns."""
    if batches < 1:
        raise ValueError(f"batches must be >= 1, got {batches}")
    closed = gamma_integral_X(s, p, n)
    if closed == 0.0:
        raise ValueError("the closed form underflows a float")
    box_volume = 2.0 ** (n * p)
    root = np.random.SeedSequence(seed)
    per = samples // batches
    last = samples - per * (batches - 1)
    sums, sqsums, accepted = [], [], 0
    # batch k draws from the k-th child `root.spawn` would make; with fewer
    # samples than batches only the last batch has any, so only it is drawn
    for k in range(0 if per else batches - 1, batches):
        size = per if k < batches - 1 else last
        rng = np.random.default_rng(np.random.SeedSequence(
            root.entropy, spawn_key=root.spawn_key + (k,), pool_size=root.pool_size))
        Z = rng.uniform(-1.0, 1.0, size=(size, n, p))
        starts = range(0, size, MC_BLOCK)
        if s == 0:
            hits = sum(int(np.count_nonzero(_ball_pivots(Z[i:i + MC_BLOCK])[0])) for i in starts)
            sums.append(float(hits))
            sqsums.append(float(hits))
        else:
            vals, hits = np.zeros(size), 0
            for i in starts:
                ok, log_A = _ball_log_A(Z[i:i + MC_BLOCK])
                vals[i:i + MC_BLOCK][ok] = np.exp(0.5 * s * log_A)
                hits += len(log_A)
            sums.append(float(vals.sum()))
            sqsums.append(float((vals * vals).sum()))
        accepted += hits
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


# ---------------------------------------------------------------------------
# Hessians of the distance-like exhaustions


def hessian_profile_distance(F: float, p: int, q: int) -> list[float]:
    """Eigenvalues of the Hessian of d(., X_V) for r = 1 at distance F:
    tanh F (x q), 0 (x pq-q), 0 (radial), coth F (x p-1)."""
    return sorted([math.tanh(F)] * q + [0.0] * (p * q - q) + [0.0] + [1.0 / math.tanh(F)] * (p - 1))


def riemannian_hessian_fd(func, Z: np.ndarray, h: float = 1e-4) -> np.ndarray:
    """Finite-difference Riemannian Hessian of a scalar function of Z, using
    central differences and Christoffel symbols from first derivatives of
    the metric Gram matrix."""
    Z = np.asarray(Z, float)
    shape = Z.shape
    dim = Z.size

    def at(vec):
        return func(vec.reshape(shape))

    z0 = Z.ravel().copy()

    def basis(i):
        e = np.zeros(dim)
        e[i] = 1.0
        return e

    # f(z0) and f(z0 +- h e_i) serve both the gradient and the diagonal
    f0 = at(z0)
    fp = np.array([at(z0 + h * basis(i)) for i in range(dim)])
    fm = np.array([at(z0 - h * basis(i)) for i in range(dim)])
    grad = (fp - fm) / (2 * h)
    hess = np.diag((fp - 2 * f0 + fm) / (h * h))
    for i in range(dim):
        for j in range(i + 1, dim):
            v = (at(z0 + h * (basis(i) + basis(j))) - at(z0 + h * (basis(i) - basis(j)))
                 - at(z0 + h * (basis(j) - basis(i))) + at(z0 - h * (basis(i) + basis(j)))) / (4 * h * h)
            hess[i, j] = hess[j, i] = v
    G0 = metric_gram(Z)
    dG = np.zeros((dim, dim, dim))
    for k in range(dim):
        Gp = metric_gram((z0 + h * basis(k)).reshape(shape))
        Gm = metric_gram((z0 - h * basis(k)).reshape(shape))
        dG[k] = (Gp - Gm) / (2 * h)
    Ginv = np.linalg.inv(G0)
    # Gamma^k_{ij} = (1/2) g^{kl} (d_i g_{jl} + d_j g_{il} - d_l g_{ij});
    # dG[k, a, b] = d_k g_{ab}
    first_kind = dG + dG.transpose(1, 0, 2) - dG.transpose(1, 2, 0)
    gamma = 0.5 * np.einsum("kl,ijl->kij", Ginv, first_kind)
    hess -= np.einsum("kij,k->ij", gamma, grad)
    return hess


def hessian_eigenvalues(func, Z: np.ndarray, h: float = 1e-4) -> np.ndarray:
    """Eigenvalues of the Riemannian Hessian with respect to the metric."""
    H = riemannian_hessian_fd(func, Z, h)
    G = metric_gram(np.asarray(Z, float))
    L = np.linalg.cholesky(G)
    Linv = np.linalg.inv(L)
    sym = Linv @ H @ Linv.T
    return np.linalg.eigvalsh(0.5 * (sym + sym.T))


def hessian_numeric_check(Z: np.ndarray, q: int, h: float = 1e-4) -> dict:
    """Compare the finite-difference Hessian eigenvalues of the r = 1
    distance to X_V against the closed profile; returns the max deviation."""
    Z = np.asarray(Z, float)
    n, p = Z.shape
    if n - q != 1:
        raise ValueError("distance profile is exact for r = 1 only")
    F = distance_to_XV(Z, q)
    got = np.sort(hessian_eigenvalues(lambda W: distance_to_XV(W, q), Z, h))
    want = np.array(hessian_profile_distance(F, p, q))
    return {"distance": F, "eigenvalues": got.tolist(), "profile": want.tolist(),
            "max_deviation": float(np.abs(got - want).max())}
