"""Self-test of the benchmark: its checks catch a wrong output, tracing
changes no output and leaves no wrapper behind, the trace counters reconcile
with the outputs, and BENCHMARK.json names exactly the metrics run.py prints.

    python3 bench/selftest.py        # about a minute; exit 0 when all hold
"""

from __future__ import annotations

import copy
import json
import sys

import run
import tracer
import workloads as wl

sys.path.insert(0, str(wl.ROOT / "src"))

FAILURES: list[str] = []


def expect(ok: bool, what: str) -> None:
    print(f"{'ok  ' if ok else 'FAIL'} {what}")
    if not ok:
        FAILURES.append(what)


def check_benchmark_json() -> None:
    spec = json.loads((wl.ROOT / "BENCHMARK.json").read_text())
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    expect(list(e2e) == run.result_metric_names(trace=False) and e2e == dict(run.END_TO_END),
           "BENCHMARK.json end_to_end == run.END_TO_END")
    layers = {m["name"]: m["unit"] for m in spec["per_layer"]}
    printed = {name: run.unit_of(name) for name in run.result_metric_names(trace=True)}
    expect(layers == printed, "BENCHMARK.json per_layer == the traced run's result-line metrics")
    expect({w["name"] for w in spec["workloads"]} == set(run.WORKLOADS),
           "BENCHMARK.json workloads == run.WORKLOADS")


def check_wrong_references(refs: dict) -> None:
    bad = copy.deepcopy(refs)
    bad["catalog-sweep"]["U(2,2)"][1] = "0" * 64
    boxes = [("U", 2, 2), ("O", 2, 2)]
    res = wl.run_items(wl.catalog_outcomes(boxes, bad), 0)
    expect(res["failed"] > 0 and res["attempted"] > res["failed"],
           f"a wrong catalog digest fails its box only ({res['failed']}/{res['attempted']})")
    line = wl.CLI_FIXED[0]
    bad["cli-cold"][line] = [0, "0" * 64]
    res = wl.cli_pass([line.split()], bad)
    expect(res["failed"] / res["attempted"] > 0, "a wrong cli stdout digest raises fail_ratio above 0")


def check_wrappers_removed() -> None:
    import cohomrep.cli  # noqa: F401 - every layer module loaded
    from cohomrep import branching, partitions

    original = partitions.as_partition
    tr = tracer.Tracer()
    tr.install()
    wrapped = branching.as_partition is not original and partitions.as_partition is not original
    tr.remove()
    expect(wrapped, "install rebinds every namespace that binds a function")
    expect(not tracer.leftover_wrappers() and branching.as_partition is original,
           "remove restores every binding")


def check_traced(workload: str, refs: dict) -> dict:
    res = run.measure_traced(workload, wl.DEFAULT_SEED, 1, refs)
    expect(res["failed"] == 0 and res["attempted"] > 0,
           f"{workload}: traced and untraced outputs agree, all checks pass, no wrapper left "
           f"({res['failed']}/{res['attempted']}) {res['notes'][:3]}")
    return {k: v[0] for k, v in res["metrics"].items()}


def main() -> int:
    refs = wl.load_refs()
    check_benchmark_json()
    check_wrong_references(refs)
    check_wrappers_removed()
    run.warm_up()

    m = check_traced("catalog-sweep", refs)
    expect(m["vz_catalog.modules_built"] == 36602,
           f"catalog-sweep: vz_catalog.modules_built == 36602 ({m['vz_catalog.modules_built']})")
    u_total = sum(v[0] for k, v in refs["catalog-sweep"].items() if k.startswith("U"))
    expect(m["partitions.pairs_emitted"] == u_total,
           f"catalog-sweep: partitions.pairs_emitted == summed U catalog sizes ({u_total})")
    expect(m["rootdata.dirac_calls"] == 0, "catalog-sweep: no Dirac call")

    m = check_traced("verify-sweep", refs)
    requested = len(wl.MC_CASES) * wl.MC_SAMPLES
    expect(m["geometry.mc_samples"] == requested,
           f"verify-sweep: geometry.mc_samples == samples requested ({requested})")
    expect(m["rootdata.dirac_calls"] == 1573, "verify-sweep: 1573 Dirac checks")

    m = check_traced("cli-cold", refs)
    expect(m["geometry.mc_samples"] == wl.VERIFY_INTEGRAL_SAMPLES,
           f"cli-cold: geometry.mc_samples == samples requested ({wl.VERIFY_INTEGRAL_SAMPLES})")
    expect(m["cli.startup_s"] > 0, "cli-cold: cli.startup_s measured")

    print(f"{len(FAILURES)} failed")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
