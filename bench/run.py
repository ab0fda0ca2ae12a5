"""The cohomrep benchmark.

    python3 bench/run.py --workload catalog-sweep --seed 1 --seconds 40 --trace 0
    python3 bench/run.py --workload all

Workloads (see workloads.py for what each runs and why): catalog-sweep,
verify-sweep, cli-cold; ``all`` runs the three in turn.  A run repeats passes
over the workload's item list, each pass in a fresh interpreter, for
``--seconds`` (and at least the passes its tail percentile needs).

``--trace 0`` measures the end-to-end metrics with nothing wrapped.
``--trace 1`` is the separate traced run: it alternates an untraced and a
traced pass and reports the per-layer metrics plus the tracing overhead,
all from unscaled times.
Every output is checked in both.  Stdout carries a table with every value,
its unit and sample count, a ``# record`` line with the machine and load, and
last one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import re
import statistics
import subprocess
import sys
from importlib import metadata
from time import perf_counter

import tracer
import workloads as wl

WORKLOADS = ("catalog-sweep", "verify-sweep", "cli-cold")

#: passes a run makes at least, so its tail percentile has ten samples beyond it
MIN_PASSES = {"catalog-sweep": 2, "verify-sweep": 2, "cli-cold": 7}
TAIL_LADDER = (50, 75, 90, 95, 99, 99.9)
#: counters reported only through a ratio
RATIO_PARTS = ("rootdata.dirac_s", "geometry.mc_accepted")
IMPORTTIME_PROBES = 3

END_TO_END = (("setup_s", "s"), ("throughput_per_s", "1/s"), ("latency_p50_ms", "ms"),
              ("latency_tail_ms", "ms"), ("peak_rss_mb", "MB"))
PER_LAYER_UNITS = {"calls": "count", "self_s": "s", "share": "ratio", "startup_s": "s",
                   "as_partition_calls": "count", "compat_tests": "count",
                   "pairs_emitted": "count", "orth_emitted": "count", "yield_ratio": "ratio",
                   "modules_built": "count", "dirac_calls": "count", "dirac_ms_per_call": "ms",
                   "lr_calls": "count", "gl_character_calls": "count",
                   "gl_character_weights": "count", "mc_samples": "count",
                   "mc_accept_ratio": "ratio", "hessian_func_evals": "count",
                   "bytes_out": "bytes", "numpy_import_s": "s", "cohomrep_import_s": "s",
                   "overhead_ratio": "ratio"}


# ---------------------------------------------------------------------------
# the run record


def git_sha() -> str:
    """HEAD of the repository the benchmark sits in, or "unknown" outside git."""
    git = wl.ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def load1() -> float:
    with open("/proc/loadavg") as fh:
        return float(fh.read().split()[0])


def machine() -> dict:
    try:
        numpy = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy = None
    return {"git_sha": git_sha(), "python": platform.python_version(), "numpy": numpy,
            "nproc": os.cpu_count()}


# ---------------------------------------------------------------------------
# statistics


def percentile(values: list[float], pct: float) -> float:
    """Harrell-Davis estimate: the mean of the order statistics weighted by
    the Beta((n+1)p, (n+1)(1-p)) density over their ranks.  Unlike a single
    order statistic it does not jump when the percentile falls in a gap
    between two kinds of item.  Needs (n+1)p > 1 and (n+1)(1-p) > 1."""
    s = sorted(values)
    n, p = len(s), pct / 100
    a, b = p * (n + 1), (1 - p) * (n + 1)
    log_norm = math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)

    def density(x: float) -> float:
        if not 0 < x < 1:
            return 0.0
        return math.exp(log_norm + (a - 1) * math.log(x) + (b - 1) * math.log1p(-x))

    weights = []
    for i in range(n):  # Simpson's rule on 8 panels of each rank's interval
        lo, h = i / n, 1 / (8 * n)
        ys = [density(lo + j * h) for j in range(9)]
        weights.append(h / 3 * (ys[0] + ys[8] + 4 * sum(ys[1:8:2]) + 2 * sum(ys[2:7:2])))
    return sum(w * v for w, v in zip(weights, s)) / sum(weights)


def tail_percentile(n_min: int) -> float:
    """Highest ladder percentile with at least ten of n_min samples beyond it."""
    return max(p for p in TAIL_LADDER if n_min * (100 - p) / 100 >= 10)


LATENCY_ITEMS = {"catalog-sweep": "boxes", "verify-sweep": "check groups", "cli-cold": "commands"}


# ---------------------------------------------------------------------------
# processes


def run_child(*args: str) -> dict:
    proc = subprocess.run([sys.executable, str(wl.BENCH / "child.py"), *args], cwd=wl.ROOT,
                          env=wl.child_env(), stdout=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"child {args} exited {proc.returncode}")
    return json.loads(proc.stdout.splitlines()[-1])


def warm_up() -> None:
    """Compile the bytecode once, outside any timing, as an installed
    package would have it."""
    subprocess.run([sys.executable, "-c", "import cohomrep.cli"], cwd=wl.ROOT,
                   env=wl.child_env(), check=True)


def importtime(workload: str) -> tuple[float, float]:
    """numpy and cohomrep cumulative import seconds from ``-X importtime``."""
    code = "import " + ", ".join(wl.IMPORTS[workload])
    proc = subprocess.run([sys.executable, "-X", "importtime", "-c", code], cwd=wl.ROOT,
                          env=wl.child_env(), stderr=subprocess.PIPE, text=True, check=True)
    numpy_us = cohomrep_us = 0
    for line in proc.stderr.splitlines():
        m = re.match(r"import time:\s+\d+ \|\s+(\d+) \|( *)(\S+)$", line)
        if not m:
            continue
        cumulative, indent, name = int(m.group(1)), m.group(2), m.group(3)
        if name == "numpy" and not numpy_us:
            numpy_us = cumulative
        if len(indent) == 1 and name.split(".")[0] == "cohomrep":
            cohomrep_us += cumulative
    return numpy_us / 1e6, cohomrep_us / 1e6


def repeat(seconds: float, min_passes: int, one_pass) -> list:
    """Passes until the next one would end after ``seconds``, at least
    ``min_passes`` of them."""
    results, start = [], perf_counter()
    while True:
        results.append(one_pass())
        elapsed = perf_counter() - start
        if len(results) >= min_passes and elapsed * (len(results) + 1) / len(results) > seconds:
            return results


# ---------------------------------------------------------------------------
# untraced run: end-to-end metrics


def untraced_pass(workload: str, seed: int, refs: dict) -> dict:
    if workload == "cli-cold":
        setup = run_child("--workload", workload, "--seed", str(seed), "--setup-only")
        out = wl.cli_pass(wl.cli_argvs(seed), refs)
        out["setup_s"], out["raw_setup_s"] = setup["setup_s"], setup["raw_setup_s"]
        return out
    return run_child("--workload", workload, "--seed", str(seed))


def measure(workload: str, seed: int, seconds: float, refs: dict) -> dict:
    passes = repeat(seconds, MIN_PASSES[workload], lambda: untraced_pass(workload, seed, refs))
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    notes = [n for p in passes for n in p["notes"]]
    for k, p in enumerate(passes[1:], 2):
        if p["digest"] != passes[0]["digest"]:
            failed += 1
            notes.append(f"pass {k} output differs from pass 1")
    items = refs["items"][workload]
    lat = [1000 * v for p in passes for v in p["latencies"]]
    tail = tail_percentile(MIN_PASSES[workload] * wl.LATENCY_SAMPLES[workload])
    n = len(passes)
    metrics = {
        "setup_s": (statistics.median(p["setup_s"] for p in passes), n, "set-ups, median"),
        "throughput_per_s": (statistics.median(items / p["wall_s"] for p in passes), n,
                             "passes, median"),
        "latency_p50_ms": (percentile(lat, 50), len(lat), f"{LATENCY_ITEMS[workload]}, p50"),
        "latency_tail_ms": (percentile(lat, tail), len(lat), f"{LATENCY_ITEMS[workload]}, p{tail:g}"),
        "peak_rss_mb": (statistics.median(p["peak_rss_kb"] / 1024 for p in passes), n,
                        "passes, median"),
    }
    raw = {"setup_s": statistics.median(p["raw_setup_s"] for p in passes),
           "throughput_per_s": statistics.median(items / p["raw_wall_s"] for p in passes)}
    return {"metrics": metrics, "attempted": attempted, "failed": failed, "notes": notes,
            "passes": n, "tail_percentile": tail, "unscaled": raw}


# ---------------------------------------------------------------------------
# traced run: per-layer metrics


def _traced_pair(workload: str, seed: int) -> dict:
    """An untraced and a traced pass of an in-process workload."""
    args = ("--workload", workload, "--seed", str(seed))
    plain = run_child(*args)
    traced = run_child(*args, "--trace")
    failed, notes = plain["failed"] + traced["failed"], plain["notes"] + traced["notes"]
    if plain["digest"] != traced["digest"]:
        failed += 1
        notes.append("traced output differs from untraced output")
    return {"attempted": plain["attempted"] + traced["attempted"], "failed": failed,
            "notes": notes, "traces": [traced["trace"]], "startup": [],
            "plain_wall": plain["raw_wall_s"], "traced_wall": traced["raw_wall_s"]}


def _traced_cli(seed: int, refs: dict) -> dict:
    """Each command cold, then in-process untraced and traced."""
    argvs = wl.cli_argvs(seed)
    cold = wl.cli_pass(argvs, refs)
    failed, notes = cold["failed"], list(cold["notes"])
    traces, startup, plain_wall, traced_wall = [], [], 0.0, 0.0
    for i, argv in enumerate(argvs):
        args = ("--workload", "cli-cold", "--seed", str(seed), "--cli-main", str(i))
        plain = run_child(*args)
        traced = run_child(*args, "--trace")
        want = [cold["exits"][i], cold["shas"][i]]
        if [plain["exit"], plain["sha"]] != want or [traced["exit"], traced["sha"]] != want:
            failed += 1
            notes.append(f"{' '.join(argv)}: in-process or traced output differs from cold output")
        traces.append(traced["trace"])
        startup.append(cold["raw_latencies"][i] - plain["main_s"])
        plain_wall += plain["main_s"]
        traced_wall += traced["main_s"]
    return {"attempted": cold["attempted"], "failed": failed, "notes": notes,
            "traces": traces, "startup": startup,
            "plain_wall": plain_wall, "traced_wall": traced_wall}


def layer_values(traces: list[dict], wall: float) -> dict:
    """Per-layer metrics of one traced pass (traces summed over its children)."""
    calls = {k: sum(t["calls"][k] for t in traces) for k in tracer.LAYERS}
    self_s = {k: sum(t["self_s"][k] for t in traces) for k in tracer.LAYERS}
    c = {k: sum(t["counters"][k] for t in traces) for k in tracer.COUNTERS}
    out = {}
    for layer in tracer.LAYERS:
        if layer != "cli":
            out[f"{layer}.calls"] = calls[layer]
        out[f"{layer}.self_s"] = self_s[layer]
    out.update({k: v for k, v in c.items() if k not in RATIO_PARTS})
    out["partitions.yield_ratio"] = ratio(c["partitions.pairs_emitted"], c["partitions.compat_tests"])
    out["rootdata.dirac_ms_per_call"] = 1000 * ratio(c["rootdata.dirac_s"], c["rootdata.dirac_calls"])
    out["geometry.mc_accept_ratio"] = ratio(c["geometry.mc_accepted"], c["geometry.mc_samples"])
    for layer in tracer.LAYERS:
        out[f"{layer}.share"] = ratio(self_s[layer], wall)
    return out


def ratio(num: float, base: float) -> float:
    """num / base, reported as 0 when there is no base (the layer never ran)."""
    return num / base if base else 0.0


def measure_traced(workload: str, seed: int, seconds: float, refs: dict) -> dict:
    if workload == "cli-cold":
        passes = repeat(seconds, 1, lambda: _traced_cli(seed, refs))
    else:
        passes = repeat(seconds, 1, lambda: _traced_pair(workload, seed))
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    notes = [n for p in passes for n in p["notes"]]
    per_pass = []
    for p in passes:
        leftover = [w for t in p["traces"] for w in t["leftover_wrappers"]]
        if leftover:
            failed += 1
            notes.append(f"wrappers left after tracing: {leftover[:3]}")
        values = layer_values(p["traces"], p["traced_wall"])
        values["trace.overhead_ratio"] = p["traced_wall"] / p["plain_wall"]
        values["cli.startup_s"] = statistics.median(p["startup"]) if p["startup"] else 0.0
        per_pass.append(values)
    probes = [importtime(workload) for _ in range(IMPORTTIME_PROBES)]
    metrics = {name: (statistics.median(v[name] for v in per_pass), len(per_pass),
                      "traced passes, median") for name in per_layer_names()
               if not name.startswith("setup.")}
    metrics["setup.numpy_import_s"] = (statistics.median(p[0] for p in probes),
                                       len(probes), "-X importtime probes, median")
    metrics["setup.cohomrep_import_s"] = (statistics.median(p[1] for p in probes),
                                          len(probes), "-X importtime probes, median")
    return {"metrics": metrics, "attempted": attempted, "failed": failed, "notes": notes,
            "passes": len(passes)}


def per_layer_names() -> list[str]:
    names = []
    for layer in tracer.LAYERS:
        if layer != "cli":
            names.append(f"{layer}.calls")
        names.append(f"{layer}.self_s")
    names += [c for c in tracer.COUNTERS if c not in RATIO_PARTS]
    names += ["partitions.yield_ratio", "rootdata.dirac_ms_per_call", "geometry.mc_accept_ratio",
              "cli.startup_s", "setup.numpy_import_s", "setup.cohomrep_import_s"]
    names += [f"{layer}.share" for layer in tracer.LAYERS] + ["trace.overhead_ratio"]
    return names


#: times that are exactly 0 on some workload, because the layer never runs
#: there; the table and record carry them, the result line does not, so no
#: gated figure is a constant time.  The layer's .calls and .share stay.
ZERO_ON_SOME_WORKLOAD = {
    "branching.self_s", "isolation.self_s", "lefschetz.self_s", "geometry.self_s",
    "serialize.self_s", "cli.self_s", "cli.startup_s", "setup.numpy_import_s",
    "rootdata.dirac_ms_per_call",
}


def result_metric_names(trace: bool) -> list[str]:
    """The metrics of the result line, as BENCHMARK.json lists them."""
    if not trace:
        return [name for name, _ in END_TO_END]
    return [n for n in per_layer_names() if n not in ZERO_ON_SOME_WORKLOAD]


def unit_of(name: str) -> str:
    return dict(END_TO_END).get(name) or PER_LAYER_UNITS[name.split(".", 1)[1]]


# ---------------------------------------------------------------------------


def run_one(workload: str, seed: int, seconds: float, trace: bool, refs: dict) -> dict:
    load_start = load1()
    if trace:
        res = measure_traced(workload, seed, seconds, refs)
    else:
        res = measure(workload, seed, seconds, refs)
    res.update(machine(), workload=workload, seed=seed, seconds=seconds, trace=int(trace),
               loadavg_start=load_start, loadavg_end=load1())
    return res


def print_table(res: dict) -> None:
    print(f"{res['workload']}  seed={res['seed']}  trace={res['trace']}  passes={res['passes']}")
    for name, (value, n, how) in res["metrics"].items():
        print(f"  {name:34} {value:>14.6g} {unit_of(name):6} n={n} {how}")
    ratio_ = res["failed"] / res["attempted"] if res["attempted"] else 0.0
    print(f"  {'fail_ratio':34} {ratio_:>14.6g} {'ratio':6} {res['failed']}/{res['attempted']}")
    for note in res["notes"][:10]:
        print(f"  FAILED: {note}")
    record = {k: v for k, v in res.items() if k not in ("metrics", "notes")}
    record["metrics"] = {k: {"value": v, "unit": unit_of(k), "n": n, "how": how}
                         for k, (v, n, how) in res["metrics"].items()}
    record["fail_ratio"] = ratio_
    print("# record " + json.dumps(record, sort_keys=True))


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=wl.DEFAULT_SEED)
    ap.add_argument("--seconds", type=int, default=40)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (wl.ROOT / "src" / "cohomrep" / "__init__.py").is_file() or not wl.REFS_PATH.is_file():
        sys.stderr.write(f"bench: no cohomrep sources or references under {wl.ROOT}\n")
        return 2
    refs = wl.load_refs()
    # one CPU for the driver and everything it starts, so the speed probes
    # run where the measured work runs
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    warm_up()
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = [run_one(w, args.seed, args.seconds, bool(args.trace), refs) for w in names]
    for res in results:
        print_table(res)
    prefix = len(results) > 1
    print(json.dumps({
        "correct": all(r["failed"] == 0 for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": {(f"{r['workload']}.{k}" if prefix else k):
                    {"value": r["metrics"][k][0], "unit": unit_of(k)}
                    for r in results for k in result_metric_names(bool(args.trace))},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
