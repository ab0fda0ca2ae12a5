#!/usr/bin/env python3
"""Monte Carlo verification sweep for the Gamma-product integrals: several
(s, p, n) targets over an ensemble of seeds, reporting relative errors,
3-sigma coverage, the mean wall time of one run and the share of box samples
that land in the matrix ball (a case that keeps few samples has little
power)."""

import argparse
import time

from cohomrep import geometry as geo


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--samples", type=int, default=200_000)
    ap.add_argument("--seeds", type=int, default=20)
    args = ap.parse_args()

    cases = [(0, 1, 1), (0, 2, 1), (0, 1, 2), (2, 1, 2), (4, 2, 2), (2, 2, 3)]
    for s, p, n in cases:
        closed = geo.gamma_integral_X(s, p, n)
        hits, worst, accepted = 0, 0.0, 0
        t0 = time.perf_counter()
        for seed in range(args.seeds):
            res = geo.mc_verify_integral(s, p, n, args.samples, seed=seed)
            hits += res["within_3sigma"]
            worst = max(worst, res["rel_error"])
            accepted += res["accepted"]
        ms = (time.perf_counter() - t0) * 1e3 / args.seeds
        print(f"(s,p,n)=({s},{p},{n}): closed={closed:.6f}  "
              f"3sigma coverage {hits}/{args.seeds}  worst rel err {worst:.4f}  "
              f"{ms:.1f} ms/run  accepted {accepted / (args.seeds * args.samples):.3g}")


if __name__ == "__main__":
    main()
