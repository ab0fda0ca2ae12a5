#!/usr/bin/env python3
"""Render the frozen verdict table (tests/data/verdict_golden.json) as a
markdown table, replaying every query through the live engine; exits
nonzero on the first row whose status, anchor or threshold differs from
the table."""

import json
import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "tests"))
from _golden import replay  # noqa: E402

GOLDEN = pathlib.Path(__file__).resolve().parent.parent / "tests" / "data" / "verdict_golden.json"


def describe(query: dict) -> str:
    fn = query["fn"]
    if fn in ("restriction", "cup"):
        bits = [query["G"]]
        if query.get("H"):
            bits.append(f"-> {query['H']}")
        if "degree" in query:
            bits.append(f"k={query['degree']}")
        if "component" in query:
            bits.append(f"comp={query['component']}")
        if query.get("l2"):
            bits.append("L2")
        return f"{fn}: " + " ".join(str(b) for b in bits)
    if fn == "classes":
        return f"cup classes: {query['G']} k={query['k']} l={query['l']}" + (
            f" comps={query['components']}" if query.get("components") else "")
    return f"modular symbol: {query['kind']}({query['p']},{query['q']}) r={query['r']}"


def main():
    rows = json.loads(GOLDEN.read_text())["rows"]
    print("| query | status | anchor | threshold |")
    print("| --- | --- | --- | --- |")
    for row in rows:
        v = replay(row["query"])
        for field in ("status", "anchor", "threshold"):
            if getattr(v, field) != row["expect"][field]:
                sys.exit(f"{describe(row['query'])}: {field} {getattr(v, field)!r}, golden {row['expect'][field]!r}")
        print(f"| {describe(row['query'])} | {v.status} | {v.anchor} | {v.threshold} |")


if __name__ == "__main__":
    main()
