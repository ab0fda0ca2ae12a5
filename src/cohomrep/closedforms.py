"""Closed forms on X_{p,q+r} that need no numpy.

Volume growth around the totally geodesic X_V, the Gamma-product integrals
of A^{s/2} over the matrix ball, the Donnelly-Xavier degree thresholds for
the spectral gap and the L2 thresholds of the cup product with the cycle
class ("Thm cohom l2").  Everything here is plain `math` on floats or
integer arithmetic, so `cohomrep geometry thresholds` and `volume` answer
without loading numpy or the verdict engine; `geometry` checks the Gamma
integrals by Monte Carlo.
"""

from __future__ import annotations

import math
from typing import NamedTuple, Optional


# ---------------------------------------------------------------------------
# volume growth


def volume_growth(t: float, p: int, q: int, r: int) -> dict:
    """Volume density of the distance-t hypersurface around X_V, normalized
    to 1 at t = 1.  Exact shape sinh^{p-1} cosh^q for r = 1; for r > 1 an
    upper bound (1 + t^{p(q+r)}) e^{(p+q+r-1) sqrt(m) t}, m = min(r, p).
    Raises ValueError for t < 0 and when the value overflows a float."""
    if t < 0:
        raise ValueError("the distance t must be >= 0")
    try:
        if r == 1:
            val = (math.sinh(t) / math.sinh(1.0)) ** (p - 1) * (math.cosh(t) / math.cosh(1.0)) ** q
        else:
            val = (1.0 + t ** (p * (q + r))) * math.exp((p + q + r - 1) * math.sqrt(min(r, p)) * t)
    except OverflowError:
        val = math.inf
    if math.isinf(val):
        raise ValueError(f"the volume density at t = {t} overflows a float")
    return {"value": val, "exact": r == 1}


# ---------------------------------------------------------------------------
# Gamma-product integrals


# Above this s the lgamma difference in log_gamma_integral_X loses digits to
# cancellation (all of them once s + p + i + 1 rounds to s + i + 1, near
# s = 1e16); every x there is at least 51.
LGAMMA_RATIO_CUTOFF = 100.0


def _log_gamma_ratio_large(x: float, p: int) -> float:
    """log Gamma(x) / Gamma(x + p/2) for x >= 51, without cancellation.

    The integer part of p/2 is the exact product 1 / (x (x+1) ... (x+m-1));
    an odd p adds log Gamma(y) / Gamma(y + 1/2), y = x + m, from its
    asymptotic series -log(y)/2 + 1/(8y) - 1/(192y^3) + 1/(640y^5)
    - 17/(14336y^7), whose next term is below 1e-18 at y = 51."""
    m = p // 2
    out = -math.fsum(math.log(x + j) for j in range(m))
    if p % 2:
        y = x + m
        u = 1.0 / y
        u2 = u * u
        out += -0.5 * math.log(y) + u * (1 / 8 - u2 * (1 / 192 - u2 * (1 / 640 - u2 * (17 / 14336))))
    return out


def log_gamma_integral_X(s: float, p: int, n: int) -> float:
    """log of int_X A^{s/2} dZ over X = { Z in M_{n,p} : tZ Z < 1 }:
    pi^{pn/2} prod_{i=1}^n Gamma((s+i+1)/2) / Gamma((s+p+i+1)/2),
    convergent for s > -2.  Up to s = LGAMMA_RATIO_CUTOFF each ratio is an
    lgamma difference, above it `_log_gamma_ratio_large`."""
    if s <= -2:
        raise ValueError("diverges for s <= -2")
    out = 0.5 * p * n * math.log(math.pi)
    for i in range(1, n + 1):
        if s > LGAMMA_RATIO_CUTOFF:
            out += _log_gamma_ratio_large((s + i + 1) / 2.0, p)
        else:
            out += math.lgamma((s + i + 1) / 2.0) - math.lgamma((s + p + i + 1) / 2.0)
    return out


def gamma_integral_X(s: float, p: int, n: int) -> float:
    return math.exp(log_gamma_integral_X(s, p, n))


# ---------------------------------------------------------------------------
# spectral gap and L2 cohomology: Donnelly-Xavier and cup-product thresholds


def dx_threshold(p: int, q: int, r: int) -> dict:
    """Degree thresholds for the spectral gap.

    The limit profile of the Hessian of (1/2) log(B/A) has q + pr - 1
    eigenvalues tending to 1 (`limit_ones`) and the rest to 0, so the limit
    bound limit_ones - 2k is positive iff k < (q + pr - 1)/2.  The companion
    convention (p + qr - 1)/2 is recorded as well; queries must state which
    one they used."""
    return {
        "limit_ones": q + p * r - 1,
        "threshold_qpr": (q + p * r - 1) / 2.0,
        "threshold_pqr": (p + q * r - 1) / 2.0,
        "convention": "k < (q+pr-1)/2",
    }


class L2CupThresholds(NamedTuple):
    p: int
    q: int
    r: int
    iso_max_degree: Optional[int]  # largest k with an isomorphism, target degree
    iso_range: str
    middle_injective: Optional[int]  # p = 1, q+r even: extra injective degree
    anchor: str = "Thm cohom l2"


def l2_cup_threshold(p: int, q: int, r: int) -> L2CupThresholds:
    """Cup product with the cycle class into the L2 cohomology of the
    ambient quotient: isomorphism in target degrees k < (q + pr - 1)/2;
    for p = 1 and q + r even it stays injective in the middle degree
    (q+r)/2.  r = 0 degenerates to the identity map."""
    if r == 0:
        return L2CupThresholds(p, q, 0, None, "identity map (r = 0)", None)
    bound2 = q + p * r - 1  # twice the threshold
    iso_max = (bound2 + 1) // 2 - 1  # largest integer strictly below bound2/2
    middle = (q + r) // 2 if (p == 1 and (q + r) % 2 == 0) else None
    return L2CupThresholds(p, q, r, iso_max, f"k < (q+pr-1)/2 = {bound2}/2", middle)
