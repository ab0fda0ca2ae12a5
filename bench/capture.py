"""Write bench/references.json: the outputs every benchmark run is checked
against.  They were captured once, from the commit named in the file; run
this again only to move the references on purpose.

    python3 bench/capture.py
"""

from __future__ import annotations

import hashlib
import json
import sys

import workloads as wl
from run import git_sha

sys.path.insert(0, str(wl.ROOT / "src"))


def main() -> None:
    from cohomrep import geometry as geo

    refs = {
        "captured_at": git_sha(),
        "catalog-sweep": {f"{k}({p},{q})": wl.catalog_box(k, p, q) for k, p, q in wl.CATALOG_BOXES},
        "verify-sweep": {
            "mc_closed_form": {f"{s},{p},{n}": geo.gamma_integral_X(s, p, n) for s, p, n in wl.MC_CASES},
            "golden_status": [row["expect"]["status"]
                              for row in json.loads(wl.GOLDEN_PATH.read_text())["rows"]],
        },
        "cli-cold": {"verify_integral_closed_form": geo.gamma_integral_X(0, 2, 1)},
    }
    for line in wl.CLI_FIXED:
        code, out, _ = wl.run_cold(line.split())
        refs["cli-cold"][line] = [code, hashlib.sha256(out).hexdigest()]
    verify = wl.run_items(wl.verify_outcomes(wl.verify_items(wl.DEFAULT_SEED), refs), 0)
    if verify["failed"]:
        raise SystemExit(f"verify-sweep fails at capture: {verify['notes']}")
    refs["items"] = {
        "catalog-sweep": sum(v[0] for v in refs["catalog-sweep"].values()),
        "verify-sweep": verify["attempted"],
        "cli-cold": len(wl.CLI_FIXED) + len(wl.CLI_SEEDED),
    }
    wl.REFS_PATH.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")
    print(f"wrote {wl.REFS_PATH}: {refs['items']}")


if __name__ == "__main__":
    main()
