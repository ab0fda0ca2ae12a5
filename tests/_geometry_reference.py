"""Test-only oracles for the Monte Carlo Gamma-integral check.

Both draw the same samples as `geometry.mc_verify_integral` for a given
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
