"""One measured pass in a fresh interpreter, so that no cache carries over
from an earlier pass.  Prints one JSON object on stdout.

    python3 bench/child.py --workload catalog-sweep --seed 1 [--trace]
    python3 bench/child.py --workload cli-cold --seed 1 --setup-only
    python3 bench/child.py --workload cli-cold --seed 1 --cli-main 3 [--trace]

``--setup-only`` times only the set-up (imports and item list).
``--cli-main i`` runs ``cli.main`` on the i-th cli-cold argv in this process
and times it, stdout captured.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
from time import perf_counter

import tracer
import workloads as wl


def traced_result(tr: tracer.Tracer) -> dict:
    tr.remove()
    return {"calls": tr.calls, "self_s": tr.self_s, "counters": tr.counters,
            "leftover_wrappers": tracer.leftover_wrappers()}


def cli_main(index: int, seed: int, trace: bool) -> dict:
    t0 = perf_counter()
    from cohomrep import cli
    import_s = perf_counter() - t0
    argv = wl.cli_argvs(seed)[index]
    tr = tracer.Tracer() if trace else None
    if tr:
        tr.install()
    buf = io.StringIO()
    t0 = perf_counter()
    with contextlib.redirect_stdout(buf):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    main_s = perf_counter() - t0
    out = {"import_s": import_s, "main_s": main_s, "exit": code,
           "sha": wl.sha256(buf.getvalue())}
    if tr:
        out["trace"] = traced_result(tr)
    return out


def full_pass(workload: str, seed: int, trace: bool) -> dict:
    items, setup_s, raw_setup_s = wl.timed_prepare(workload, seed)
    refs = wl.load_refs()
    tr = tracer.Tracer() if trace else None
    if tr:
        tr.install()
    out = wl.run_items(wl.OUTCOMES[workload](items, refs), refs["items"][workload])
    out["setup_s"], out["raw_setup_s"] = setup_s, raw_setup_s
    if tr:
        out["trace"] = traced_result(tr)
    return out


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True, choices=sorted(wl.IMPORTS))
    ap.add_argument("--seed", type=int, default=wl.DEFAULT_SEED)
    ap.add_argument("--trace", action="store_true")
    mode = ap.add_mutually_exclusive_group()
    mode.add_argument("--setup-only", action="store_true")
    mode.add_argument("--cli-main", type=int, metavar="INDEX")
    args = ap.parse_args()
    if args.setup_only:
        _, setup_s, raw_setup_s = wl.timed_prepare(args.workload, args.seed)
        out = {"setup_s": setup_s, "raw_setup_s": raw_setup_s}
    elif args.cli_main is not None:
        out = cli_main(args.cli_main, args.seed, args.trace)
    else:
        out = full_pass(args.workload, args.seed, args.trace)
    out["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(json.dumps(out))


if __name__ == "__main__":
    main()
