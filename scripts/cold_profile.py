#!/usr/bin/env python3
"""Where a cold command spends its time and memory: each CLI example of
README.md, and the command given with --argv, runs in --reps fresh
interpreters, and each child times with perf_counter its `import
cohomrep.cli`, `build_parser()`, `parse(parser, argv)` and the run (config
plus subcommand, stdout written to os.devnull).  Prints the median of each
stage in ms per command, with the median wall time of the whole process and
its median peak RSS in MB (`ru_maxrss` from os.wait4) beside them, and the
sums over the commands.  The last column names the cohomrep modules whose
source ran: those in sys.modules that the CLI's lazy loader has not left
unloaded, so it shows which layers a command loads.  The children import
the package from this checkout's src.

    python3 scripts/cold_profile.py --reps 5
    python3 scripts/cold_profile.py --reps 3 --argv "catalog --kind U --p 6 --q 7"
"""

import argparse
import json
import os
import shlex
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
STAGES = ("import", "build_parser", "parse", "run")

CHILD = """
import contextlib, importlib.util, os, sys
from time import perf_counter
t0 = perf_counter()
from cohomrep import cli
t1 = perf_counter()
parser = cli.build_parser()
t2 = perf_counter()
args = cli.parse(parser, sys.argv[1:])
t3 = perf_counter()
with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
    code = args.run(args, cli.make_config(args.config, format=args.format))
t4 = perf_counter()
print([code, t1 - t0, t2 - t1, t3 - t2, t4 - t3])
print(*sorted(name for name, module in sys.modules.items() if name.startswith("cohomrep.")
              and not isinstance(module, importlib.util._LazyModule)))
"""


def readme_commands() -> list[list[str]]:
    """The argv of every `cohomrep ...` line in README.md's CLI block."""
    block = (ROOT / "README.md").read_text().split("## CLI", 1)[1].split("```")[1]
    return [shlex.split(line, comments=True)[1:] for line in block.splitlines() if line.startswith("cohomrep ")]


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--reps", type=int, default=5, help="fresh interpreters per command")
    ap.add_argument("--argv", type=shlex.split, help="one more command to profile, as one string")
    args = ap.parse_args()
    if args.reps < 1:
        ap.error("--reps must be >= 1")

    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    columns = STAGES + ("process", "peak_rss_mb")
    print(f"{'command':<58}" + "".join(f"{c:>13}" for c in columns) + "  modules_run")
    totals = dict.fromkeys(columns, 0.0)
    for argv in readme_commands() + ([args.argv] if args.argv else []):
        samples = {c: [] for c in columns}
        ran = set()
        for _ in range(args.reps):
            t0 = time.perf_counter()
            # the child's own stderr goes with its stdout, read before os.wait4 reaps it
            proc = subprocess.Popen([sys.executable, "-c", CHILD, *argv], env=env, text=True,
                                    stdout=subprocess.PIPE, stderr=subprocess.STDOUT)
            with proc.stdout:
                output = proc.stdout.read()
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - t0
            proc.returncode = os.waitstatus_to_exitcode(status)
            if proc.returncode != 0:
                sys.exit(f"{shlex.join(argv)}: exit {proc.returncode}\n{output}")
            first, _, modules = output.partition("\n")
            code, *times = json.loads(first)
            ran.update(name.removeprefix("cohomrep.") for name in modules.split())
            if code != 0:
                sys.exit(f"{shlex.join(argv)}: the command returned {code}")
            for stage, seconds in zip(columns, times + [wall]):
                samples[stage].append(seconds * 1e3)
            samples["peak_rss_mb"].append(usage.ru_maxrss / 1024)  # Linux counts KiB
        medians = {c: statistics.median(v) for c, v in samples.items()}
        for c in STAGES + ("process",):
            totals[c] += medians[c]
        totals["peak_rss_mb"] = max(totals["peak_rss_mb"], medians["peak_rss_mb"])
        print(f"{shlex.join(argv)[:57]:<58}" + "".join(f"{medians[c]:>13.1f}" for c in columns)
              + "  " + ",".join(sorted(ran)))
    print(f"{'sum of medians (ms), largest peak (MB)':<58}" + "".join(f"{totals[c]:>13.1f}" for c in columns))


if __name__ == "__main__":
    main()
