"""The benchmark workloads: their item lists, one pass over them, and the check
of every output against ``bench/references.json``.

All three are closed loops with a single client: the next item starts only
when the previous result is in, because the callers (a sweep script, a user
at a shell) wait for each result.  Only one process besides the driver runs
at any time.

catalog-sweep
    ``vz.catalog`` for every box p <= q, U boxes up to p*q <= 25 and O boxes
    up to p*q <= 42 (133 boxes, 36,602 modules).  Each catalog is serialized
    to the JSON document ``cohomrep catalog`` prints and gets the isolation
    tally of ``scripts/catalog_report.py``.  Chosen because it is the only
    workload where enumeration, module construction (``partitions``,
    ``vz_catalog``, the ``rootdata`` K-type weights) and ``serialize`` do most
    of the work; it makes no Dirac call.  Items are modules; latency is per
    box.  The sweep is exhaustive, so its inputs do not depend on the seed.
verify-sweep
    The independent-oracle checks: ``dirac_bound == 0`` at the lowest K-type
    of every module with p, q >= 1 and p + q <= 7 (1,573 checks); the U
    restriction predicate against the GL-character oracle on five boxes
    (3,551 multiplicities); the O predicate against the O(n <= 3) oracle;
    the six ``scripts/mc_report.py`` Monte Carlo cases at 2e5 samples; and a
    replay of the 38-row golden verdict table.  Chosen because
    ``rootdata.dirac_bound`` does most of the work here, enumeration runs only
    on small boxes, and ``branching`` and ``geometry`` get a measured share.
    Items are checks.  The seed sets the Monte Carlo seeds.
cli-cold
    One cold ``python -m cohomrep`` process per argv, in sequence: the 15
    README examples plus ``catalog --kind U --p 4 --q 4``.  Chosen because
    every command pays interpreter start, imports, argument parsing and
    rendering with empty caches, while the catalog and Dirac layers hardly
    appear.  Items are commands.  The seed sets the ``--seed`` of
    ``verify-integral``, ``jacobi`` and ``hessian``.

The program receives only the generated inputs; ``DEFAULT_SEED`` is used when
no seed is given.
"""

from __future__ import annotations

import gc
import hashlib
import json
import math
import os
import random
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
REFS_PATH = BENCH / "references.json"
GOLDEN_PATH = ROOT / "tests" / "data" / "verdict_golden.json"
DEFAULT_SEED = 1

CATALOG_BOXES = ([("U", p, q) for p in range(1, 26) for q in range(p, 26) if p * q <= 25]
                 + [("O", p, q) for p in range(1, 43) for q in range(p, 43) if p * q <= 42])
DIRAC_BOXES = [(p, q) for p in range(1, 7) for q in range(1, 7) if p + q <= 7]
U_ORACLE_BOXES = [(2, 2), (2, 3), (2, 4), (3, 3), (3, 4)]
O_ORACLE_BOXES = [(p, q) for p in range(1, 4) for q in (2, 3)]
MC_CASES = [(0, 1, 1), (0, 2, 1), (0, 1, 2), (2, 1, 2), (4, 2, 2), (2, 2, 3)]
MC_SAMPLES = 200_000

#: README examples without a seed, plus the largest catalog a user prints
CLI_FIXED = [
    "catalog --kind U --p 1 --q 1 --format json",
    "catalog --kind O --p 2 --q 2 --format md",
    "isolation --kind O --p 3 --q 4",
    "isolation --kind O --p 3 --q 4 --lam 3,1",
    "lefschetz --mode restriction --G O:3,4 --degree 3",
    "lefschetz --mode restriction --G U:2,3 --H U:2,2 --component 1;2,1",
    "lefschetz --mode cup --G O:2,9 --H O:2,8 --degree 2",
    "lefschetz --mode tensor --G O:3,9 --degrees 1,1 --component 1,1,1;1,1,1",
    "lefschetz --mode modular-symbol --G O:3,5 --r 2",
    "branch --op lr --lam 2,1 --mu 1 --nu 1,1",
    "branch --op restrict-o --lam 1,1 --p 2 --q 4 --r 1",
    "geometry thresholds --p 2 --q 5 --r 1",
    "catalog --kind U --p 4 --q 4",
]
#: README examples whose output depends on --seed; checked by contract
CLI_SEEDED = [
    "geometry verify-integral --s 0 --p 2 --n 1 --samples 1000000 --seed {}",
    "geometry jacobi --p 2 --q 2 --r 2 --seed {}",
    "geometry hessian --p 2 --q 2 --points 5 --seed {}",
]
VERIFY_INTEGRAL_SAMPLES = 1_000_000
JACOBI_TOL = 1e-9  # bracket vs closed-form spectra, as in the tests
HESSIAN_TOL = 1e-3  # finite-difference profile, as in the tests ...
HESSIAN_MIN_DISTANCE = 0.05  # ... which hold only this far from X_V
REFERENCE_PROBE_S = 0.006  # speed_probe() on the reference machine
PROBE_EVERY_S = 0.5
PROBE_WINDOW_S = 2.0

#: latency samples in one pass
LATENCY_SAMPLES = {
    "catalog-sweep": len(CATALOG_BOXES),
    "verify-sweep": 2 * len(DIRAC_BOXES) + len(U_ORACLE_BOXES) + len(O_ORACLE_BOXES) + len(MC_CASES) + 1,
    "cli-cold": len(CLI_FIXED) + len(CLI_SEEDED),
}

IMPORTS = {
    "catalog-sweep": ("cohomrep.vz_catalog", "cohomrep.serialize",
                      "cohomrep.isolation", "cohomrep.partitions"),
    "verify-sweep": ("cohomrep.vz_catalog", "cohomrep.rootdata", "cohomrep.branching",
                     "cohomrep.partitions", "cohomrep.geometry", "cohomrep.lefschetz"),
    "cli-cold": ("cohomrep.cli",),
}


def load_refs() -> dict:
    return json.loads(REFS_PATH.read_text())


def child_env() -> dict:
    """Environment for every process the benchmark starts: the program is
    imported from the checkout's ``src``."""
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    return env


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def derived_seeds(seed: int, n: int) -> list[int]:
    rng = random.Random(seed)
    return [rng.randrange(2**31) for _ in range(n)]


#: marks the end of a latency sample in a workload's outcome stream: a box
#: for catalog-sweep; for verify-sweep one box and kind of Dirac checks, one
#: oracle box, one Monte Carlo case or the golden table
GROUP_END = None


def _check(ok: bool, record: str):
    """One checked item: (attempted, failed, record for the output digest)."""
    return 1, 0 if ok else 1, record


def _missing(expected: dict, seen: set, label: str):
    """A predicate target the oracle was never asked about is a failure."""
    for key in expected.keys() - seen:
        yield 1, 1, f"{label}: predicate target {key} not among the candidates"


# ---------------------------------------------------------------------------
# catalog-sweep


def catalog_box(kind: str, p: int, q: int) -> list:
    """[module count, sha256 of the catalog JSON document, isolated count]."""
    from cohomrep import isolation as iso
    from cohomrep import partitions as pt
    from cohomrep import serialize as ser
    from cohomrep import vz_catalog as vz

    mods = vz.catalog(kind, p, q)
    rows = [dict(ser.module_to_json(m), provenance="computed") for m in mods]
    doc = ser.dumps(ser.document(rows, command="catalog", kind=kind, p=p, q=q))
    ctx = pt.BoxContext(p, q)
    if kind == "U":
        isolated = sum(iso.is_isolated_U(pt.compatible_pair(m.lam, m.mu, ctx)) for m in mods)
    else:
        isolated = sum(iso.is_isolated_O(pt.ortho_classify(m.lam, ctx)) for m in mods)
    return [len(mods), sha256(doc), isolated]


def catalog_outcomes(items, refs):
    for kind, p, q in items:
        key = f"{kind}({p},{q})"
        want = refs["catalog-sweep"][key]
        got = catalog_box(kind, p, q)
        yield want[0], 0 if got == want else want[0], f"{key} {got}"
        yield GROUP_END


# ---------------------------------------------------------------------------
# verify-sweep


def golden_replay():
    sys.path.insert(0, str(ROOT / "tests"))
    try:
        from _golden import replay
    finally:
        sys.path.remove(str(ROOT / "tests"))
    return replay


def mc_problem(res: dict, closed: float, samples: int):
    """The Monte Carlo contract, or what breaks it.  The reported 3-sigma flag
    must agree with its definition; the pass criterion is 5 sigma, so a sound
    sampler fails it with probability 6e-7 rather than the 3e-3 of 3 sigma."""
    dev = abs(res["estimate"] - res["closed_form"])
    slack = 1e-12 * abs(closed)
    if not math.isclose(res["closed_form"], closed, rel_tol=1e-12):
        return f"closed form {res['closed_form']!r} != {closed!r}"
    if res["samples"] != samples or not 0 <= res["accepted"] <= samples:
        return f"samples {res['samples']}, accepted {res['accepted']}"
    if res["within_3sigma"] != (dev <= res["ci3"] + slack):
        return "within_3sigma disagrees with estimate and ci3"
    if dev > res["ci3"] * 5 / 3 + slack:
        return f"estimate {res['estimate']!r} outside 5 sigma"
    return None


def verify_items(seed: int) -> dict:
    return {"golden": json.loads(GOLDEN_PATH.read_text())["rows"],
            "replay": golden_replay(),
            "mc_seeds": derived_seeds(seed, len(MC_CASES))}


def verify_outcomes(items, refs):
    from cohomrep import branching as br
    from cohomrep import geometry as geo
    from cohomrep import partitions as pt
    from cohomrep import rootdata as rd
    from cohomrep import vz_catalog as vz

    for p, q in DIRAC_BOXES:
        for kind in ("U", "O"):
            for m in vz.catalog(kind, p, q):
                val = rd.dirac_bound(kind, p, q, m.lowest_ktype)
                yield _check(val == 0, f"dirac {kind}({p},{q}) {m.label} {val}")
            yield GROUP_END

    for p, q in U_ORACLE_BOXES:
        ctx, small_ctx = pt.BoxContext(p, q), pt.BoxContext(p, q - 1)
        small = pt.enumerate_compatible(small_ctx)
        for cp in pt.enumerate_compatible(ctx):
            res = br.restrict_U_pair(cp.lam, cp.mu, ctx, 1)
            expected = {res["target"]: 1} if res["contains"] else {}
            deg = pt.weight(cp.lam) + pt.weight(pt.complement(cp.mu, p, q))
            label, seen = f"U({p},{q}) {cp.lam}/{cp.mu}", set()
            for cp2 in small:
                if pt.weight(cp2.lam) + pt.weight(pt.complement(cp2.mu, p, q - 1)) != deg:
                    continue
                key = (cp2.lam, cp2.mu)
                seen.add(key)
                m = br.restrict_U_pair_oracle_mult(cp.lam, cp.mu, ctx, 1, cp2.lam, cp2.mu)
                yield _check(m == expected.get(key, 0), f"{label} -> {key}: {m}")
            yield from _missing(expected, seen, label)
        yield GROUP_END

    for p, q in O_ORACLE_BOXES:
        ctx = pt.BoxContext(p, q)
        small = pt.enumerate_orthogonal(pt.BoxContext(p, q - 1))
        for orth in pt.enumerate_orthogonal(ctx):
            res = br.restrict_O(orth.lam, ctx, 1)
            expected = {orth.lam: 1} if res["contains"] else {}
            label, seen = f"O({p},{q}) {orth.lam}", set()
            for o2 in small:
                if pt.weight(o2.lam) != pt.weight(orth.lam):
                    continue
                seen.add(o2.lam)
                m = br.restrict_O_oracle_mult(orth.lam, ctx, 1, o2.lam)
                yield _check(m == expected.get(o2.lam, 0), f"{label} -> {o2.lam}: {m}")
            yield from _missing(expected, seen, label)
        yield GROUP_END

    for (s, p, n), mc_seed in zip(MC_CASES, items["mc_seeds"]):
        res = geo.mc_verify_integral(s, p, n, MC_SAMPLES, seed=mc_seed)
        problem = mc_problem(res, refs["verify-sweep"]["mc_closed_form"][f"{s},{p},{n}"], MC_SAMPLES)
        yield _check(problem is None, f"mc {s},{p},{n} seed {mc_seed}: {res['estimate']!r} {problem}")
        yield GROUP_END

    statuses = refs["verify-sweep"]["golden_status"]
    if len(statuses) != len(items["golden"]):
        yield 1, 1, f"golden table has {len(items['golden'])} rows, references {len(statuses)}"
    for row, want in zip(items["golden"], statuses):
        got = items["replay"](row["query"]).status
        yield _check(got == want, f"golden {row['query']} {got}")
    yield GROUP_END


# ---------------------------------------------------------------------------
# in-process passes


def prepare(workload: str, seed: int):
    """Import the program and build the item list: the workload's set-up."""
    for name in IMPORTS[workload]:
        __import__(name)
    if workload == "catalog-sweep":
        return list(CATALOG_BOXES)
    if workload == "verify-sweep":
        return verify_items(seed)
    return cli_argvs(seed)


def timed_prepare(workload: str, seed: int):
    """``prepare`` with its time: (items, scaled seconds, raw seconds)."""
    clock = Clock(probe_every_s=0)
    items = prepare(workload, seed)
    clock.lap()
    return items, clock.scaled[0], clock.raw[0]


OUTCOMES = {"catalog-sweep": catalog_outcomes, "verify-sweep": verify_outcomes}


def speed_probe() -> float:
    """Seconds a fixed loop of tuple, list and dict churn takes here and now,
    median of three.  Other tenants of a shared machine change its speed by
    10-40 % over tens of seconds.  Scaling each measured time by
    REFERENCE_PROBE_S / probe reports it at one reference speed, so runs
    made at different moments compare.  Object churn tracks the program's
    slow-downs about twice as closely as plain arithmetic.  The program never
    runs inside a probe.  The collector is off while the probe runs, and
    every object the probe makes is freed before it is back on, so probes do
    not move the program's own garbage collections."""
    times = []
    enabled = gc.isenabled()
    gc.disable()
    try:
        for _ in range(3):
            t0 = perf_counter()
            d = {}
            for k in range(20_000):
                key = (k, k + 1, (k, "a"))
                d[key] = [k, key]
                if len(d) > 500:
                    d.clear()
            d.clear()
            times.append(perf_counter() - t0)
    finally:
        if enabled:
            gc.enable()
    return sorted(times)[1]


class Clock:
    """Times consecutive intervals and scales each by the reference speed.
    The speed is probed between intervals once ``probe_every_s`` has passed;
    an interval is scaled by the median of the probes within PROBE_WINDOW_S
    of its midpoint (the nearest probe if none is), which follows the drift
    without passing one probe's noise into the figures."""

    def __init__(self, probe_every_s: float = PROBE_EVERY_S):
        self.probe_every_s = probe_every_s
        self._intervals: list[tuple[float, float]] = []  # (midpoint, seconds)
        self._probes: list[tuple[float, float]] = []  # (time, probe seconds)
        self._since = self._prev = perf_counter()

    def probe(self) -> None:
        self._probes.append((perf_counter(), speed_probe()))
        self._since = self._prev = perf_counter()

    def restart(self) -> None:
        """Start the next interval now."""
        self._prev = perf_counter()

    def lap(self) -> None:
        """Close the interval that started at the previous lap or restart."""
        now = perf_counter()
        self._intervals.append(((self._prev + now) / 2, now - self._prev))
        self._prev = now
        if now - self._since >= self.probe_every_s:
            self.probe()

    @property
    def raw(self) -> list[float]:
        return [v for _, v in self._intervals]

    @property
    def scaled(self) -> list[float]:
        if not self._probes or self._probes[-1][0] < self._prev:
            self.probe()
        out = []
        for mid, v in self._intervals:
            near = [p for t, p in self._probes if abs(t - mid) <= PROBE_WINDOW_S]
            if not near:
                near = [min(self._probes, key=lambda tp: abs(tp[0] - mid))[1]]
            out.append(v * REFERENCE_PROBE_S / statistics.median(near))
        return out


def run_items(outcomes, expected: int) -> dict:
    """Consume a workload's outcomes one at a time.  A latency sample is the
    time from one GROUP_END to the next; an exception fails every item it
    kept from running."""
    digest, notes = hashlib.sha256(), []
    attempted = failed = 0
    clock = Clock()
    try:
        for outcome in outcomes:
            if outcome is GROUP_END:
                clock.lap()
                continue
            weight, bad, record = outcome
            attempted += weight
            failed += bad
            digest.update(record.encode() + b"\n")
            if bad and len(notes) < 5:
                notes.append(record)
    except Exception as exc:  # noqa: BLE001 - a crash is a measured failure
        missing = max(expected - attempted, 1)
        attempted += missing
        failed += missing
        notes.append(f"exception: {exc!r}")
    clock.lap()
    scaled = clock.scaled
    return {"wall_s": sum(scaled), "raw_wall_s": sum(clock.raw),
            "latencies": scaled[:-1], "attempted": attempted, "failed": failed,
            "digest": digest.hexdigest(), "notes": notes}


# ---------------------------------------------------------------------------
# cli-cold


def cli_argvs(seed: int) -> list[list[str]]:
    seeds = derived_seeds(seed, len(CLI_SEEDED))
    return ([line.split() for line in CLI_FIXED]
            + [line.format(s).split() for line, s in zip(CLI_SEEDED, seeds)])


def run_cold(argv: list[str]) -> tuple[int, bytes, int]:
    """One cold ``python -m cohomrep`` process: exit code, stdout and peak
    RSS in KiB."""
    proc = subprocess.Popen([sys.executable, "-m", "cohomrep", *argv], cwd=ROOT,
                            env=child_env(), stdout=subprocess.PIPE)
    with proc.stdout:
        out = proc.stdout.read()
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, out, usage.ru_maxrss


def hessian_min_distance(p: int, q: int, points: int, seed: int) -> float:
    """Smallest distance to X_V among the points ``geometry hessian`` draws."""
    import numpy as np

    from cohomrep import geometry as geo

    rng = np.random.default_rng(seed)
    return min(geo.distance_to_XV(geo.random_point(rng, p, q + 1) * 0.7, q) for _ in range(points))


def cli_problem(argv: list[str], code: int, out: bytes, refs: dict):
    """What is wrong with one command's output, or None."""
    key = " ".join(argv)
    if "--seed" not in argv:
        want = refs["cli-cold"].get(key)
        got = [code, hashlib.sha256(out).hexdigest()]
        return None if got == want else f"exit/sha {got} != {want}"
    if code != 0:
        return f"exit {code}"
    try:
        row = json.loads(out)["data"][0]
    except (ValueError, KeyError, IndexError) as exc:
        return f"unreadable output: {exc!r}"
    seed = int(argv[argv.index("--seed") + 1])
    op = argv[1]
    if op == "verify-integral":
        problem = mc_problem(row, refs["cli-cold"]["verify_integral_closed_form"],
                             VERIFY_INTEGRAL_SAMPLES)
        return problem or (None if row["seed"] == seed else f"seed {row['seed']}")
    if op == "jacobi":
        same_shape = (len(row["bracket_tangent"]) == len(row["closed_tangent"])
                      and len(row["bracket_normal"]) == len(row["closed_normal"]))
        ok = same_shape and row["max_deviation"] <= JACOBI_TOL
        return None if ok else f"max_deviation {row['max_deviation']!r}"
    dev = row["max_deviation"]
    if not math.isfinite(dev) or dev < 0:
        return f"max_deviation {dev!r}"
    if dev <= HESSIAN_TOL:
        return None
    p, q, points = (int(argv[argv.index(f) + 1]) for f in ("--p", "--q", "--points"))
    if hessian_min_distance(p, q, points, seed) < HESSIAN_MIN_DISTANCE:
        return None  # outside the domain where the finite differences are accurate
    return f"max_deviation {dev!r} at points at least {HESSIAN_MIN_DISTANCE} from X_V"


def cli_pass(argvs: list[list[str]], refs: dict) -> dict:
    exits, shas, notes, peak, failed = [], [], [], 0, 0
    clock = Clock(probe_every_s=0)
    for argv in argvs:
        clock.restart()
        code, out, rss = run_cold(argv)
        clock.lap()
        exits.append(code)
        peak = max(peak, rss)
        shas.append(hashlib.sha256(out).hexdigest())
        problem = cli_problem(argv, code, out, refs)
        if problem:
            failed += 1
            if len(notes) < 5:
                notes.append(f"{' '.join(argv)}: {problem}")
    scaled = clock.scaled
    return {"wall_s": sum(scaled), "raw_wall_s": sum(clock.raw),
            "latencies": scaled, "raw_latencies": clock.raw,
            "attempted": len(argvs), "failed": failed, "exits": exits, "shas": shas,
            "digest": sha256("\n".join(shas)), "peak_rss_kb": peak, "notes": notes}
