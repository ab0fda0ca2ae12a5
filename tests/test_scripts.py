"""The scripts under scripts/, each run as its own process on small sizes, so
that a library refactor cannot break one of them unseen."""

import os
import pathlib
import re
import subprocess
import sys

from cohomrep import isolation as iso
from cohomrep import partitions as pt
from cohomrep import vz_catalog as vz

ROOT = pathlib.Path(__file__).resolve().parents[1]


def run_script(name, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / name), *args],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


def test_catalog_report_counts():
    # each row's module and isolated counts against the catalog, with every
    # module's pair derived again from its lam (and mu) by the public classifiers
    header, *rows = run_script("catalog_report.py", "--max-pq", "8")
    assert header.split()[:3] == ["group", "modules", "isolated"]
    boxes = [(kind, p, q) for p in range(1, 9) for q in range(1, 9) if p * q <= 8 for kind in ("U", "O")]
    assert len(rows) == len(boxes)
    for row, (kind, p, q) in zip(rows, boxes):
        ctx = pt.BoxContext(p, q)
        mods = vz.catalog(kind, p, q)
        if kind == "U":
            isolated = sum(iso.is_isolated_U(pt.compatible_pair(m.lam, m.mu, ctx)) for m in mods)
        else:
            isolated = sum(iso.is_isolated_O(pt.ortho_classify(m.lam, ctx)) for m in mods)
        assert row.split()[:3] == [f"{kind}({p},{q})", str(len(mods)), str(isolated)], row


def test_verdict_table_replays_the_golden_rows():
    lines = run_script("verdict_table.py")
    assert lines[0] == "| query | status | anchor | threshold |"
    assert len(lines) == 2 + 38


def test_mino_scan_rows():
    header, *rows = run_script("mino_scan.py", "--max-sum", "8")
    assert header.split()[:2] == ["group", "rank"]
    boxes = [(p, q) for p in range(2, 7) for q in range(2, 7) if p + q <= 8]
    assert [row.split()[0] for row in rows] == [f"O({p},{q})" for p, q in boxes]
    for row, (p, q) in zip(rows, boxes):
        th = iso.min_degree_nonisolated("O", p, q)
        assert row.split()[1:3] == [str(th.rank), str(th.bound)], row


def test_mc_report_cases():
    lines = run_script("mc_report.py", "--samples", "2000", "--seeds", "2")
    assert len(lines) == 6
    for line in lines:
        assert re.match(r"\(s,p,n\)=\(\d+,\d+,\d+\): closed=\d+\.\d{6}  3sigma coverage \d/2  ", line), line


def test_cold_profile_adds_the_argv_command():
    header, *rows, total = run_script("cold_profile.py", "--reps", "1", "--argv", "catalog --kind U --p 2 --q 3")
    assert header.split() == ["command", "import", "build_parser", "parse", "run", "process", "peak_rss_mb"]
    readme = (ROOT / "README.md").read_text().split("## CLI", 1)[1].split("```")[1]
    assert len(rows) == sum(line.startswith("cohomrep ") for line in readme.splitlines()) + 1
    assert rows[-1].startswith("catalog --kind U --p 2 --q 3 ")
    peaks = [float(row.split()[-1]) for row in rows]
    assert all(5 < mb < 1000 for mb in peaks)
    assert total.startswith("sum of medians") and float(total.split()[-1]) == max(peaks)
