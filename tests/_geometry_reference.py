"""Test-only oracle for the Monte Carlo Gamma-integral check.

`mc_verify_integral_eigvalsh` is the eigenvalue route that
`geometry.mc_verify_integral` replaced: it forms every Gram matrix tZ Z with
a stacked einsum and decides acceptance and log A = log det(1 - tZ Z) from
`np.linalg.eigvalsh`.  It shares no code with `geometry._ball_log_A`, the
LDL^T pivot route it checks; both draw the same samples for a given
(seed, batches).
"""

import math

import numpy as np

from cohomrep.closedforms import gamma_integral_X


def mc_verify_integral_eigvalsh(s: float, p: int, n: int, samples: int, seed: int,
                                batches: int = 16) -> dict:
    closed = gamma_integral_X(s, p, n)
    box_volume = 2.0 ** (n * p)
    seeds = np.random.SeedSequence(seed).spawn(batches)
    per = [samples // batches] * batches
    per[-1] += samples - sum(per)
    sums, sqsums, accepted = [], [], 0
    for k in range(batches):
        rng = np.random.default_rng(seeds[k])
        Z = rng.uniform(-1.0, 1.0, size=(per[k], n, p))
        S = np.einsum("kij,kil->kjl", Z, Z)
        ev = np.linalg.eigvalsh(S)
        ok = ev[:, -1] < 1.0
        vals = np.zeros(per[k])
        logs = np.log1p(-ev[ok]).sum(axis=1)
        vals[ok] = np.exp(0.5 * s * logs)
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
