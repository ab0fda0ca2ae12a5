import contextlib
import hashlib
import io
import json
import math
import pathlib
import shlex
import subprocess
import sys
import textwrap
import types

import pytest
from hypothesis import given, settings, strategies as st

from cohomrep import cli

BASE = [sys.executable, "-m", "cohomrep"]


def run(*args, check=True):
    proc = subprocess.run(BASE + list(args), capture_output=True, text=True)
    if check:
        assert proc.returncode == 0, proc.stderr
    return proc


def call(argv):
    """(exit code, stdout, stderr) of cli.main(argv), in this process."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse errors
            code = exc.code
    return code, out.getvalue(), err.getvalue()


class TestCatalog:
    def test_u11_json(self):
        out = json.loads(run("catalog", "--kind", "U", "--p", "1", "--q", "1",
                             "--format", "json").stdout)
        assert out["schema"] == "v1"
        assert len(out["data"]) == 3
        assert all(row["provenance"] == "computed" for row in out["data"])

    def test_md_table_has_provenance_column(self):
        out = run("catalog", "--kind", "O", "--p", "2", "--q", "2", "--format", "md").stdout
        header = out.splitlines()[0]
        assert "provenance" in header and "degree" in header

    def test_cap_exit_code(self):
        proc = run("catalog", "--kind", "U", "--p", "9", "--q", "9", check=False)
        assert proc.returncode == 65
        assert "cap" in proc.stderr


class TestLefschetz:
    def test_opq_guaranteed(self):
        out = json.loads(run("lefschetz", "--mode", "restriction", "--G", "O:3,4",
                             "--degree", "3").stdout)
        row = out["data"][0]
        assert row["status"] == "guaranteed" and row["anchor"] == "Thm opq"

    def test_strict_exit_on_failed_criterion(self):
        proc = run("lefschetz", "--mode", "restriction", "--G", "U:2,2", "--H", "U:2,1",
                   "--component", "2;2,1", "--strict", check=False)
        assert proc.returncode == 2
        row = json.loads(proc.stdout)["data"][0]
        assert row["status"] == "fails-criterion"

    def test_conjecture_row(self):
        out = json.loads(run("lefschetz", "--mode", "cup", "--G", "O:3,6", "--H", "O:3,5",
                             "--component", "1,1,1", "--r", "1").stdout)
        assert out["data"][0]["status"] == "conjectured"
        assert out["data"][0]["anchor"] == "Conj C100"

    @pytest.mark.parametrize("argv", [
        ["--G", "O:3,6", "--H", "U:1,5", "--component", "1,1,1"],
        ["--G", "U:2,4", "--H", "U:1,3", "--component", "1;2,2"],
        ["--G", "U:2,4", "--H", "U:2,3+U:1,4", "--component", "1;2,2", "--r", "1"],
        ["--G", "O:3,6", "--H", "O:3,5+O:2,6", "--component", "1,1,1", "--r", "1"],
    ])
    def test_cup_component_with_h_of_another_kind_or_p_is_not_covered(self, argv):
        # the answer a restriction component query gives such an H, citing
        # the component theorem of G's kind
        code, out, err = call(["lefschetz", "--mode", "cup", *argv])
        assert (code, err) == (0, "")
        row = json.loads(out)["data"][0]
        anchor = "Thm analogue" if argv[1].startswith("U") else "Thm anaO"
        assert (row["status"], row["anchor"], row["target_component"]) == ("not-covered", anchor, None)
        assert row == json.loads(call(["lefschetz", "--mode", "restriction", *argv])[1])["data"][0]

    @pytest.mark.parametrize("G, component, anchor", [
        ("O:3,6", "1,1,1", "Thm anaO"),
        ("U:2,4", "1;2,2", "Thm analogue"),
    ])
    def test_restriction_component_without_h_cites_the_theorem_of_gs_kind(self, G, component, anchor):
        code, out, err = call(["lefschetz", "--mode", "restriction", "--G", G, "--component", component])
        assert (code, err) == (0, "")
        row = json.loads(out)["data"][0]
        assert (row["status"], row["anchor"], row["target_component"]) == ("not-covered", anchor, None)
        assert row["citation"].startswith(G[0])

    def test_usage_error_exit(self):
        proc = run("lefschetz", "--mode", "restriction", "--G", "O:3,4",
                   "--bogus-flag", check=False)
        assert proc.returncode == 64
        # argparse errors are one line too, with no usage block
        assert proc.stderr == "cohomrep: error: unrecognized arguments: --bogus-flag\n"

    def test_modular_symbol_reads_r_zero(self):
        # --r 0 is a query of its own; only an omitted --r means r = 1
        base = ["lefschetz", "--mode", "modular-symbol", "--G", "O:3,5"]
        r0, r1 = run(*base, "--r", "0").stdout, run(*base, "--r", "1").stdout
        assert r0 != r1 and run(*base).stdout == r1
        assert json.loads(r0)["data"][0]["threshold"].startswith("q >= r+2: 5 >= 2;")


class TestPartitionArguments:
    # malformed partitions, nesting and boxes are rejected before any
    # computation; compatibility is not checked here (cup rows may name
    # incompatible pairs)
    @pytest.mark.parametrize("args", [
        ["isolation", "--kind", "O", "--p", "3", "--q", "4", "--lam", "1,2"],
        ["isolation", "--kind", "O", "--p", "3", "--q", "4", "--lam", "a"],
        ["isolation", "--kind", "O", "--p", "2", "--q", "2", "--lam", "5"],
        ["isolation", "--kind", "U", "--p", "2", "--q", "2", "--lam", "1", "--mu", "3"],
        ["catalog", "--kind", "U", "--p", "0", "--q", "2"],
        ["lefschetz", "--mode", "restriction", "--G", "O:3,4", "--H", "O:3,3", "--component", "9"],
        ["lefschetz", "--mode", "restriction", "--G", "U:2,3", "--H", "U:2,2", "--component", "2;1"],
        ["lefschetz", "--mode", "restriction", "--G", "U:2,3", "--H", "U:2,2", "--component", "1;9,1"],
        # cup components must fit H's box p x (q-r), with 1 <= r <= q-1 from --H or --r
        ["lefschetz", "--mode", "cup", "--G", "O:3,6", "--H", "O:3,5", "--component", "6", "--r", "1"],
        ["lefschetz", "--mode", "cup", "--G", "U:2,4", "--H", "U:2,3", "--component", "1;4,4"],
        ["lefschetz", "--mode", "cup", "--G", "O:3,4", "--component", "1", "--r", "4"],
        ["lefschetz", "--mode", "cup", "--G", "U:2,4", "--component", "1;2,2"],
        ["lefschetz", "--mode", "cup", "--G", "U:2,4", "--H", "U:2,3", "--component", "1"],
        # malformed group text
        ["lefschetz", "--mode", "restriction", "--G", "X:3,4", "--degree", "1"],
        ["lefschetz", "--mode", "restriction", "--G", "O:3", "--degree", "1"],
        ["lefschetz", "--mode", "restriction", "--G", "O:3,4", "--H", "O:a,b", "--degree", "1"],
        ["branch", "--op", "kobayashi", "--kind", "U", "--p", "2", "--q", "4", "--r", "1", "--lam", "1"],
        # restriction components take the shape of the branch the verdict takes
        ["lefschetz", "--mode", "restriction", "--G", "U:2,3", "--H", "U:2,2", "--component", "1"],
        ["lefschetz", "--mode", "restriction", "--G", "O:3,4", "--H", "O:3,3", "--component", "1;2"],
        # queries the verdict engine rejects
        ["lefschetz", "--mode", "restriction", "--G", "O:3,4", "--H", "O:3,3", "--component", "1"],
        ["lefschetz", "--mode", "restriction", "--G", "U:2,3", "--H", "U:2,2"],
        ["lefschetz", "--mode", "restriction", "--G", "U:2,2", "--H", "U:2,3", "--component", "1;2"],
        ["lefschetz", "--mode", "tensor", "--G", "U:2,3", "--degrees", "1"],
        # missing or out-of-range numeric arguments
        ["branch", "--op", "restrict-u", "--lam", "1", "--mu", "2"],
        ["branch", "--op", "gl-to-o", "--lam", "1", "--mu", "1"],
        ["branch", "--op", "restrict-o", "--lam", "1", "--p", "0", "--q", "2", "--r", "1"],
        ["branch", "--op", "tensor", "--kind", "U", "--p", "2", "--q", "2", "--params", "1,1"],
        ["geometry", "jacobi", "--p", "2", "--q", "2", "--r", "0"],
        ["geometry", "verify-integral", "--s", "-3", "--p", "1", "--n", "1"],
        ["geometry", "volume", "--p", "2", "--q", "2", "--r", "1", "--t", "1e6"],
        ["geometry", "hessian", "--p", "2", "--q", "2", "--points", "0"],
        ["lefschetz", "--mode", "restriction", "--G", "U:2,3", "--H", "U:2,2", "--component", "1;2,1;1"],
        ["geometry", "thresholds", "--p", "0", "--q", "2", "--r", "1"],
        ["geometry", "thresholds", "--p", "2", "--q", "0", "--r", "1"],
        ["geometry", "thresholds", "--p", "2", "--q", "2", "--r", "-1"],
        ["geometry", "volume", "--p", "0", "--q", "2", "--r", "1", "--t", "1"],
        ["geometry", "volume", "--p", "2", "--q", "0", "--r", "1", "--t", "1"],
        ["geometry", "volume", "--p", "2", "--q", "2", "--r", "-1", "--t", "1"],
        ["branch", "--op", "gl-to-o", "--lam", "1", "--mu", "1", "--n", "-2"],
        ["branch", "--op", "gl-to-o", "--lam", "1", "--mu", "1", "--n", "0"],
        # non-finite floats would reach the JSON as a bare NaN or Infinity
        ["geometry", "volume", "--p", "2", "--q", "2", "--r", "1", "--t", "nan"],
        ["geometry", "volume", "--p", "2", "--q", "2", "--r", "1", "--t=-inf"],
        ["geometry", "verify-integral", "--s", "nan", "--p", "1", "--n", "1"],
        ["geometry", "verify-integral", "--s", "inf", "--p", "1", "--n", "1"],
        # a negative distance, a negative n, a closed form below float range
        ["geometry", "volume", "--p", "2", "--q", "2", "--r", "1", "--t", "-5"],
        ["geometry", "verify-integral", "--s", "0", "--p", "1", "--n", "-1", "--samples", "16"],
        ["geometry", "verify-integral", "--s", "1e300", "--p", "2", "--n", "2", "--samples", "16"],
        # branch queries outside the library's domain: r out of range, lam
        # or mu outside the box, lam not inside mu, a box below 1x1
        ["branch", "--op", "restrict-o", "--lam", "1", "--p", "2", "--q", "4", "--r", "1"],
        ["branch", "--op", "restrict-o", "--lam", "1,1", "--p", "2", "--q", "4", "--r", "-1"],
        ["branch", "--op", "restrict-u", "--lam", "1", "--mu", "2,2", "--p", "2", "--q", "2", "--r", "-1"],
        ["branch", "--op", "restrict-u", "--lam", "2", "--mu", "1", "--p", "2", "--q", "2", "--r", "1"],
        ["branch", "--op", "kobayashi", "--kind", "O", "--p", "2", "--q", "2", "--r", "2", "--lam", "1"],
        ["branch", "--op", "restrict-o", "--lam=", "--p", "2", "--q", "4", "--r", "4"],
        ["branch", "--op", "restrict-u", "--lam", "3", "--mu", "3", "--p", "2", "--q", "2", "--r", "1"],
        ["branch", "--op", "vanishing-uo", "--lam", "5", "--mu", "1", "--p", "1", "--q", "1"],
        ["branch", "--op", "tensor", "--kind", "O", "--p", "0", "--q", "2", "--params", "1,1"],
        ["branch", "--op", "kobayashi", "--kind", "O", "--p", "2", "--q", "4", "--r", "-1", "--lam", "1"],
        ["branch", "--op", "restrict-u", "--lam", "1", "--mu", "2,2", "--p", "2", "--q", "2", "--r", "3"],
        ["lefschetz", "--mode", "modular-symbol", "--G", "O:3,5", "--r", "-1"],
        # an empty group text is a malformed group, not an omitted --H
        ["lefschetz", "--mode", "restriction", "--G", "O:3,4", "--H=", "--degree", "3"],
        # an omitted or unread --mu is named, never read as the empty partition
        ["isolation", "--kind", "U", "--p", "2", "--q", "2", "--lam", "1"],
        ["isolation", "--kind", "U", "--p", "2", "--q", "2", "--mu", "2,2"],
        ["isolation", "--kind", "O", "--p", "3", "--q", "4", "--mu", "2,2"],
        ["isolation", "--kind", "O", "--p", "3", "--q", "4", "--lam", "3,1", "--mu", "3,1"],
        ["branch", "--op", "restrict-u", "--lam", "1", "--p", "2", "--q", "2", "--r", "1"],
        ["branch", "--op", "vanishing-uo", "--p", "2", "--q", "2"],
        # argparse reads a separate token that starts with "-" as an option
        ["lefschetz", "--mode", "restriction", "--G", "U:2,4", "--H", "U:2,2", "--component", "-;4,4"],
        # a malformed value is rejected on a flag the op does not read
        ["branch", "--op", "lr", "--lam", "2,1", "--mu", "1", "--nu", "1,1", "--n", "0"],
        ["branch", "--op", "restrict-u", "--lam", "1", "--mu", "2,2", "--p", "2", "--q", "2", "--r", "1", "--nu", "a"],
        # a restriction --r outside the predicate's range: 0..q for U, 0..q-1 for O
        ["lefschetz", "--mode", "restriction", "--G", "O:2,4", "--H", "O:2,3", "--component", "", "--r", "4"],
        ["lefschetz", "--mode", "restriction", "--G", "O:2,4", "--H", "O:2,3", "--component", "", "--r", "-1"],
        ["lefschetz", "--mode", "restriction", "--G", "U:2,3", "--H", "U:2,2", "--component", "1;2,1",
         "--r", "7", "--strict"],
        ["lefschetz", "--mode", "restriction", "--G", "U:2,3", "--H", "U:2,2", "--component", "1;2,1", "--r", "-1"],
        # a component --r that disagrees with --H: U and O restriction, cup
        ["lefschetz", "--mode", "restriction", "--G", "U:2,3", "--H", "U:2,2", "--component", "1;3,3", "--r", "2"],
        ["lefschetz", "--mode", "restriction", "--G", "O:2,4", "--H", "O:2,3", "--component", "", "--r", "2"],
        ["lefschetz", "--mode", "cup", "--G", "O:3,6", "--H", "O:3,5", "--component", "()", "--r", "3"],
    ])
    def test_rejected_with_usage_exit(self, args):
        proc = run(*args, check=False)
        assert proc.returncode == 64, proc.stderr
        assert proc.stdout == ""
        assert len(proc.stderr.splitlines()) == 1 and "Traceback" not in proc.stderr

    @pytest.mark.parametrize("args, flag", [
        (["isolation", "--kind", "U", "--p", "2", "--q", "2", "--lam", "1"], "needs --mu"),
        (["isolation", "--kind", "U", "--p", "2", "--q", "2", "--mu", "2,2"], "needs --lam"),
        (["isolation", "--kind", "O", "--p", "3", "--q", "4", "--lam", "3,1", "--mu", "3,1"], "does not read --mu"),
        (["branch", "--op", "restrict-u", "--lam", "1", "--p", "2", "--q", "2", "--r", "1"], "needs --mu"),
        (["branch", "--op", "vanishing-uo", "--p", "2", "--q", "2"], "needs --mu"),
    ])
    def test_message_names_the_mu_flag(self, args, flag):
        assert flag in run(*args, check=False).stderr

    @pytest.mark.parametrize("args", [
        ["geometry", "thresholds", "--p", "2", "--q", "3", "--r", "0"],
        ["geometry", "volume", "--p", "2", "--q", "2", "--r", "0", "--t", "1"],
        ["geometry", "volume", "--p", "2", "--q", "2", "--r", "1", "--t", "0"],
    ])
    def test_edge_values_answer_in_strict_json(self, args):
        def reject(constant):
            raise ValueError(f"{constant} in the output")

        row = json.loads(run(*args).stdout, parse_constant=reject)["data"][0]
        assert row["r"] == int(args[args.index("--r") + 1])

    def test_empty_partition_spellings_agree(self):
        # "", "-" and "()" spell one partition on every partition flag
        queries = [
            ["lefschetz", "--mode", "restriction", "--G", "O:3,4", "--H", "O:3,3", "--component={}"],
            ["lefschetz", "--mode", "restriction", "--G", "U:2,4", "--H", "U:2,2", "--component={};4,4"],
            ["branch", "--op", "kobayashi", "--kind", "U", "--p", "2", "--q", "4", "--r", "1",
             "--lam=", "--mu={}"],
            ["isolation", "--kind", "O", "--p", "3", "--q", "4", "--lam={}"],
            ["branch", "--op", "restrict-o", "--lam={}", "--p", "2", "--q", "4", "--r", "1"],
        ]
        for query in queries:
            outs = {call([arg.format(spelling) for arg in query])[:2] for spelling in ("", "-", "()")}
            assert len(outs) == 1 and outs.pop()[0] == 0, query
        # argparse reads a separate "-;4,4" token as an option, so the empty
        # partition is "()" there, or "-" joined to the flag with "=": the
        # separate token exits 64 with a hint naming both spellings
        base = ["lefschetz", "--mode", "restriction", "--G", "U:2,4", "--H", "U:2,2"]
        err = run(*base, "--component", "-;4,4", check=False).stderr
        assert "expected one argument" in err and "--component=-;4,4" in err and "();4,4" in err

    @pytest.mark.parametrize("kind, mu, shown", [
        ("U", ["--mu="], []), ("O", ["--mu=-"], []), ("O", [], None),
    ])
    def test_kobayashi_row_tells_empty_mu_from_omitted(self, kind, mu, shown):
        code, out, err = call(["branch", "--op", "kobayashi", "--kind", kind, "--p", "2", "--q", "4",
                               "--r", "1", "--lam="] + mu)
        assert code == 0, err
        assert json.loads(out)["data"][0]["mu"] == shown

    def test_incompatible_cup_component_still_answers(self):
        out = json.loads(run("lefschetz", "--mode", "cup", "--G", "U:2,4", "--H", "U:2,2",
                             "--component", "1;2,2").stdout)
        assert out["data"][0]["criterion_value"] is False


class TestBranch:
    def test_lr(self):
        out = json.loads(run("branch", "--op", "lr", "--lam", "2,1", "--mu", "1",
                             "--nu", "1,1").stdout)
        assert out["data"][0]["coefficient"] == 1

    def test_restrict_o_csv(self):
        out = run("branch", "--op", "restrict-o", "--lam", "1,1", "--p", "2", "--q", "4",
                  "--r", "1", "--format", "csv").stdout
        lines = out.strip().splitlines()
        assert len(lines) == 2 and "contains" in lines[0]


class TestGeometry:
    def test_verify_integral_unit_disk(self):
        out = json.loads(run("geometry", "verify-integral", "--s", "0", "--p", "2",
                             "--n", "1", "--samples", "200000", "--seed", "7").stdout)
        row = out["data"][0]
        assert abs(row["estimate"] - 3.14159) < 0.05
        assert row["within_3sigma"]

    def test_verify_integral_huge_s_closed_form(self):
        # sqrt(pi) Gamma(x) / Gamma(x + 1/2) ~ sqrt(pi / x), x = (s + 2) / 2
        row = json.loads(run("geometry", "verify-integral", "--s", "1e300", "--p", "1",
                             "--n", "1", "--samples", "100").stdout)["data"][0]
        assert abs(row["closed_form"] / math.sqrt(math.pi / 5e299) - 1.0) < 1e-12
        assert row["within_3sigma"] is False

    @pytest.mark.parametrize("samples", ["0", "-5"])
    def test_verify_integral_rejects_nonpositive_samples(self, samples):
        proc = run("geometry", "verify-integral", "--s", "0", "--p", "2", "--n", "1",
                   "--samples", samples, check=False)
        assert proc.returncode == 64
        assert proc.stdout == ""
        assert proc.stderr == "cohomrep geometry verify-integral: error: argument --samples: must be >= 1\n"

    def test_thresholds(self):
        out = json.loads(run("geometry", "thresholds", "--p", "2", "--q", "5",
                             "--r", "1").stdout)
        row = out["data"][0]
        assert row["dx_limit_ones"] == 6
        assert row["l2_iso_max_degree"] == 2


class TestLazyLayers:
    # each probe runs in a fresh interpreter, so no earlier import counts
    @staticmethod
    def probe(code):
        proc = subprocess.run([sys.executable, "-c", textwrap.dedent(code)],
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        return proc.stdout

    def test_numpy_loads_only_for_geometry(self):
        # thresholds and volume are closed forms; jacobi needs numpy
        out = self.probe("""
            import contextlib, io, sys
            from cohomrep import cli
            loaded = ["numpy" in sys.modules]
            for argv in (["catalog", "--kind", "U", "--p", "2", "--q", "2"],
                         ["geometry", "thresholds", "--p", "2", "--q", "2", "--r", "1"],
                         ["geometry", "volume", "--p", "2", "--q", "2", "--r", "1", "--t", "1"],
                         ["geometry", "jacobi", "--p", "2", "--q", "2", "--r", "1"]):
                with contextlib.redirect_stdout(io.StringIO()):
                    assert cli.main(argv) == 0
                loaded.append("numpy" in sys.modules)
            print(loaded)
        """)
        assert out == "[False, False, False, False, True]\n"

    def test_cold_commands_skip_dataclasses(self):
        # the records are NamedTuples: no command pays for dataclasses and
        # the inspect machinery it imports
        out = self.probe("""
            import contextlib, io, sys
            from cohomrep import cli
            loaded = []
            for argv in (["catalog", "--kind", "O", "--p", "2", "--q", "2"],
                         ["isolation", "--kind", "O", "--p", "3", "--q", "4"],
                         ["lefschetz", "--mode", "restriction", "--G", "O:3,4", "--degree", "3"],
                         ["branch", "--op", "lr", "--lam", "2,1", "--mu", "1", "--nu", "1,1"],
                         ["geometry", "thresholds", "--p", "2", "--q", "5", "--r", "1"]):
                with contextlib.redirect_stdout(io.StringIO()):
                    assert cli.main(argv) == 0
                loaded.append(sorted({"dataclasses", "inspect"} & set(sys.modules)))
            print(loaded)
        """)
        assert out == "[[], [], [], [], []]\n"

    def test_cold_import_defers_partitions_json_csv_and_fractions(self):
        # type() reads the module object without running a lazy module's
        # source; volume is a closed form, so partitions stays unloaded
        out = self.probe("""
            import contextlib, importlib.util, io, sys
            from cohomrep import cli

            def state():
                lazy = type(sys.modules["cohomrep.partitions"]) is importlib.util._LazyModule
                return sorted({"json", "csv", "fractions"} & set(sys.modules)), lazy

            print(state())
            with contextlib.redirect_stdout(io.StringIO()):
                assert cli.main(["geometry", "volume", "--p", "2", "--q", "2", "--r", "1", "--t", "1"]) == 0
            print(state())
        """)
        assert out == "([], True)\n([], True)\n"

    def test_degree_queries_and_thresholds_skip_partitions_and_isolation_skips_rootdata(self):
        # lefschetz calls partitions as pt.<name>, so a degree verdict or an
        # L2 threshold never runs the lazy module's source (its __dict__,
        # read past the lazy loader, has no `boxed`); isolation computes
        # r_G itself and imports no rootdata
        out = self.probe("""
            import contextlib, io, sys
            from cohomrep import cli
            mod = sys.modules["cohomrep.partitions"]
            ran = []
            for argv in (["lefschetz", "--mode", "restriction", "--G", "O:3,4", "--degree", "3"],
                         ["lefschetz", "--mode", "cup", "--G", "O:2,9", "--H", "O:2,8", "--degree", "2"],
                         ["geometry", "thresholds", "--p", "2", "--q", "5", "--r", "1"]):
                with contextlib.redirect_stdout(io.StringIO()):
                    assert cli.main(argv) == 0
                ran.append("boxed" in object.__getattribute__(mod, "__dict__"))
            rootdata = []
            for argv in (["isolation", "--kind", "O", "--p", "3", "--q", "4"],
                         ["isolation", "--kind", "O", "--p", "3", "--q", "4", "--lam", "3,1"]):
                with contextlib.redirect_stdout(io.StringIO()):
                    assert cli.main(argv) == 0
                rootdata.append("cohomrep.rootdata" in sys.modules)
            print(ran, rootdata)
        """)
        assert out == "[False, False, False] [False, False]\n"

    def test_branching_loads_only_for_a_component_restriction(self):
        # degree, tensor and modular-symbol verdicts never run the source of
        # branching; a component restriction reads its predicates
        out = self.probe("""
            import contextlib, importlib.util, io, sys
            from cohomrep import cli
            lazy = []
            for argv in (["lefschetz", "--mode", "restriction", "--G", "O:3,4", "--degree", "3"],
                         ["lefschetz", "--mode", "tensor", "--G", "O:3,9", "--degrees", "1,1",
                          "--component", "1,1,1;1,1,1"],
                         ["lefschetz", "--mode", "modular-symbol", "--G", "O:3,5", "--r", "2"],
                         ["lefschetz", "--mode", "restriction", "--G", "U:2,3", "--H", "U:2,2",
                          "--component", "1;2,1"]):
                with contextlib.redirect_stdout(io.StringIO()):
                    assert cli.main(argv) == 0
                lazy.append(type(sys.modules["cohomrep.branching"]) is importlib.util._LazyModule)
            print(lazy)
        """)
        assert out == "[True, True, True, False]\n"

    @pytest.mark.parametrize("fmt, loaded", [("json", []), ("csv", ["csv", "json"]), ("md", ["json"])])
    def test_csv_and_json_load_with_their_renderer(self, fmt, loaded):
        out = self.probe("""
            import contextlib, io, sys
            from cohomrep import cli
            with contextlib.redirect_stdout(io.StringIO()):
                assert cli.main(["catalog", "--kind", "U", "--p", "1", "--q", "1", "--format", "FMT"]) == 0
            print(sorted({"json", "csv"} & set(sys.modules)))
        """.replace("FMT", fmt))
        assert out == f"{loaded}\n"

    def test_serialize_takes_the_json_c_encoder_without_json(self):
        out = self.probe("""
            import sys
            from cohomrep import serialize
            loaded = "json" in sys.modules
            import json.encoder
            print(loaded, serialize._str is json.encoder.encode_basestring_ascii)
        """)
        assert out == "False True\n"

    def test_loaded_layer_is_reused(self):
        out = self.probe("""
            from cohomrep import geometry
            from cohomrep import cli
            print(cli.geo is geometry)
        """)
        assert out == "True\n"


HELP = json.loads((pathlib.Path(__file__).parent / "data" / "cli_help.json").read_text())


class TestHelpAndUsageGolden:
    # every --help text and a set of usage errors, byte for byte; argparse
    # lays help out by Python version and terminal width
    @pytest.mark.skipif("%d.%d" % sys.version_info[:2] != HELP["python"],
                        reason=f"help layout captured on Python {HELP['python']}")
    @pytest.mark.parametrize("case", HELP["cases"], ids=lambda case: " ".join(case["argv"]) or "(no argv)")
    def test_byte_identical(self, case, monkeypatch):
        monkeypatch.setenv("COLUMNS", str(HELP["columns"]))
        assert call(case["argv"]) == (case["exit"], case["stdout"], case["stderr"])


class TestDeterminism:
    @pytest.mark.parametrize("args", [
        ["catalog", "--kind", "O", "--p", "2", "--q", "3", "--format", "json"],
        ["catalog", "--kind", "O", "--p", "2", "--q", "3", "--format", "md"],
        ["geometry", "verify-integral", "--s", "2", "--p", "1", "--n", "2",
         "--samples", "100000", "--seed", "13"],
        ["geometry", "jacobi", "--p", "2", "--q", "2", "--r", "2", "--seed", "5"],
        ["lefschetz", "--mode", "tensor", "--G", "O:3,9", "--degrees", "1,1",
         "--component", "1,1,1;1,1,1"],
    ])
    def test_byte_identical_repeats(self, args):
        a = run(*args).stdout
        b = run(*args).stdout
        assert a == b and a


README = (pathlib.Path(__file__).parent.parent / "README.md").read_text()
#: the README examples, then the benchmark's other cold commands: the
#: largest catalog and the seeded geometry ops at further seeds
DOCUMENTED = ([shlex.split(line, comments=True)[1:] for line in README.splitlines()
               if line.startswith("cohomrep ")]
              + [["catalog", "--kind", "U", "--p", "4", "--q", "4"]]
              + [["geometry", op, "--p", "2", "--q", "2", *flags, "--seed", seed]
                 for op, flags in (("jacobi", ["--r", "2"]), ("hessian", ["--points", "5"]))
                 for seed in ("11", "1234567")])


class TestDocumentsAvoidTheJsonFallback:
    def test_readme_examples_are_found(self):
        assert len(DOCUMENTED) == 15 + 5

    @pytest.mark.parametrize("argv", DOCUMENTED, ids=" ".join)
    def test_written_by_the_batches(self, argv, monkeypatch):
        # every value of a cohomrep document has a batch type; the stdlib
        # fallback is for values no document holds
        def fallback(v, nl):
            raise AssertionError(f"{type(v).__name__} reached serialize's json fallback")

        monkeypatch.setattr(cli.ser, "_stdlib", fallback)
        code, out, err = call(argv)
        assert (code, err) == (0, "") and out


#: stdout's sha256 per argv, as the whole-text writer printed it
STREAMED = {
    "catalog --kind U --p 5 --q 6": "dd0baea6845300a3071c1e311a3b06ca336950a5a474f21c18302124980097c8",
    "catalog --kind O --p 6 --q 7": "2573d6f02f4e3319af2f52e810cac863c9d708f9c3a8b3e19b65596524ced263",
    "catalog --kind U --p 2 --q 3 --format csv": "644c8c2f6f22a81dc4d56ab4cff332d54f7e1123a03aa91f23f933c63c25b1bb",
    "catalog --kind O --p 3 --q 4 --format md": "f8145c7bb9be59e1cd4b25612e22f503db65792f82909005238c749d41ac2427",
}


class TestStreamedOutput:
    @pytest.mark.parametrize("argv", STREAMED)
    def test_bytes(self, argv):
        code, out, err = call(argv.split())
        assert (code, err) == (0, "")
        assert hashlib.sha256(out.encode()).hexdigest() == STREAMED[argv]

    def test_json_goes_to_stdout_in_parts(self, monkeypatch):
        parts = []
        monkeypatch.setattr(sys, "stdout", types.SimpleNamespace(write=parts.append))
        assert cli.main(["catalog", "--kind", "U", "--p", "5", "--q", "5"]) == 0
        text = "".join(parts)
        assert json.loads(text)["data"] and max(map(len, parts)) <= len(text) / 8

    @pytest.mark.parametrize("argv, want", [("catalog --kind U --p 7 --q 7", 65),
                                            ("catalog --kind U --p 0 --q 2", 64)])
    def test_an_error_leaves_stdout_empty(self, argv, want):
        code, out, err = call(argv.split())
        assert (code, out) == (want, "") and len(err.splitlines()) == 1


HESSIAN = ["geometry", "hessian", "--p", "2", "--q", "2", "--points", "5"]
CATALOG = ["catalog", "--kind", "U", "--p", "1", "--q", "1"]


class TestConfig:
    def test_config_file_and_flag_override(self, tmp_path):
        cfg = tmp_path / "cohomrep.conf"
        cfg.write_text("format = md\nseed = 3\n")
        out = run("catalog", "--kind", "U", "--p", "1", "--q", "1",
                  "--config", str(cfg)).stdout
        assert out.startswith("| ")  # md from config
        out = run("catalog", "--kind", "U", "--p", "1", "--q", "1",
                  "--config", str(cfg), "--format", "json").stdout
        assert out.lstrip().startswith("{")  # flag wins

    def test_removed_tolerance_key(self, tmp_path):
        cfg = tmp_path / "old.conf"
        cfg.write_text("tolerance = 0.02\n")
        proc = run("catalog", "--kind", "U", "--p", "1", "--q", "1",
                   "--config", str(cfg), check=False)
        assert proc.returncode == 64 and "unknown key 'tolerance'" in proc.stderr

    def test_bad_config_key(self, tmp_path):
        cfg = tmp_path / "bad.conf"
        cfg.write_text("bogus = 1\n")
        proc = run("catalog", "--kind", "U", "--p", "1", "--q", "1",
                   "--config", str(cfg), check=False)
        assert proc.returncode == 64


    @pytest.mark.parametrize("line, argv, want", [
        ("fd_step = 0", HESSIAN, "fd_step must be finite and > 0: 0.0"),
        ("fd_step = -1e-4", HESSIAN, "fd_step must be finite and > 0: -0.0001"),
        ("fd_step = nan", HESSIAN, "fd_step must be finite and > 0: nan"),
        ("fd_step = inf", HESSIAN, "fd_step must be finite and > 0: inf"),
        ("mc_samples = abc", CATALOG, "{cfg}:2: mc_samples: invalid literal for int() with base 10: 'abc'"),
        ("fd_step = small", CATALOG, "{cfg}:2: fd_step: could not convert string to float: 'small'"),
    ])
    def test_bad_config_value_is_one_usage_line(self, tmp_path, line, argv, want):
        # a value that does not parse names its file and line; an fd_step
        # that is not finite and positive is refused before any command runs
        cfg = tmp_path / "bad.conf"
        cfg.write_text(f"# values\n{line}\n")
        proc = run(*argv, "--config", str(cfg), check=False)
        assert (proc.returncode, proc.stdout, proc.stderr) == (64, "", want.format(cfg=cfg) + "\n")


class TestGlobalFlags:
    # --config, --format and --strict read the same before the subcommand as
    # after it; given on both sides, the one after the subcommand wins
    FAILS = ["lefschetz", "--mode", "restriction", "--G", "U:2,2", "--H", "U:2,1",
             "--component", "2;2,1"]

    def test_format_before_the_subcommand(self):
        assert call(["--format", "md"] + CATALOG) == call(CATALOG + ["--format", "md"])
        assert call(["--format", "md"] + CATALOG)[1].startswith("| degree |")

    def test_missing_config_before_the_subcommand(self, tmp_path):
        missing = tmp_path / "missing.conf"
        assert call(["--config", str(missing)] + CATALOG) == (
            64, "", f"config file {missing}: No such file or directory\n")

    def test_config_before_the_subcommand(self, tmp_path):
        cfg = tmp_path / "cohomrep.conf"
        cfg.write_text("format = csv\n")
        assert call(["--config", str(cfg)] + CATALOG) == call(CATALOG + ["--format", "csv"])

    def test_strict_before_the_subcommand(self):
        code, out, _ = call(["--strict"] + self.FAILS)
        assert code == 2 and json.loads(out)["data"][0]["status"] == "fails-criterion"
        assert call(self.FAILS)[0] == 0

    @pytest.mark.parametrize("before, after", [("md", "json"), ("json", "csv"), ("csv", "md")])
    def test_flag_after_the_subcommand_wins(self, before, after):
        assert call(["--format", before] + CATALOG + ["--format", after]) == call(CATALOG + ["--format", after])


_cells = st.one_of(st.none(), st.booleans(), st.integers(-10**6, 10**6), st.floats(), st.text(max_size=4))
_arrays = st.recursive(_cells, lambda inner: st.lists(inner, max_size=4)
                       | st.dictionaries(st.sampled_from("xyz"), inner, max_size=2), max_leaves=12)


def _retyped(v, as_tuple):
    """v with each list made a tuple where as_tuple() says so."""
    if isinstance(v, list):
        items = [_retyped(x, as_tuple) for x in v]
        return tuple(items) if as_tuple() else items
    if isinstance(v, dict):
        return {k: _retyped(x, as_tuple) for k, x in v.items()}
    return v


@given(st.lists(st.dictionaries(st.sampled_from(["a", "b", "lam", "levi"]), _arrays, max_size=4),
                max_size=5), st.randoms(use_true_random=False))
@settings(max_examples=200, deadline=None)
def test_render_writes_a_tuple_as_it_writes_a_list(rows, rng):
    # the catalog rows share the records' tuples, so each writer must print
    # a tuple exactly as it prints the list json reads back
    mixed = [_retyped(row, lambda: rng.random() < 0.5) for row in rows]
    tuples = [_retyped(row, lambda: True) for row in rows]
    def rendered(rows, fmt):
        parts = []
        cli.render(rows, fmt, parts.append, command="x")
        return "".join(parts)

    for fmt in ("json", "csv", "md"):
        text = rendered(rows, fmt)
        assert rendered(mixed, fmt) == text == rendered(tuples, fmt)


# Argument pools for the generated-argv contract.  None leaves the flag out
# and True passes a bare switch.  Every pool mixes valid values with
# malformed ones: negative, zero, huge, nan, a bad partition, and one or
# three ';' pieces.  The huge value goes only where it costs no work: the
# dimensions of jacobi, hessian, isolation and the branch boxes size loops
# and arrays, so a huge one there is a valid but expensive query, and
# --samples and --points stay small for the same reason.
HUGE = "1000000000"
SMALL = ["-1", "0", "1", "2", "3"]
PART = [None, "", "-", "1", "2,1", "1,1,1", "9", "1,2", "a"]
FLOAT = ["0", "2", "-1", "-3", "nan", "inf", "-inf", "1e6", "1e300"]
GROUP = ["U:2,3", "U:2,2", "O:3,4", "O:3,3", "O:2,5", "U:0,2", "O:3"]
POOLS = {
    ("catalog",): {"--kind": ["U", "O"], "--p": SMALL + [HUGE], "--q": SMALL + [HUGE]},
    ("isolation",): {"--kind": ["U", "O"], "--p": SMALL, "--q": SMALL, "--lam": PART, "--mu": PART},
    ("lefschetz",): {
        "--mode": ["restriction", "cup", "tensor", "modular-symbol"],
        "--G": GROUP, "--H": [None, "U:2,2+U:1,3"] + GROUP,
        "--degree": [None, "-1", "0", "2", HUGE], "--degrees": [None, "1,1", "1", "1,x"],
        "--component": [None, "1", "-", "1,1,1", "1;2,1", "-;2,2", "2;1", "1;2;3", "9", "a"],
        "--r": [None, "-1", "0", "1", "2", HUGE], "--l2": [None, True], "--strict": [None, True],
    },
    ("branch",): {
        "--op": ["lr", "gl-to-o", "restrict-u", "restrict-o", "tensor", "kobayashi", "vanishing-uo"],
        "--lam": PART, "--mu": PART, "--nu": PART,
        "--n": [None, "-2", "0", "1", "3", HUGE], "--p": [None] + SMALL, "--q": [None] + SMALL,
        "--r": [None, "-1", "0", "1", "2", HUGE], "--kind": [None, "U", "O"],
        "--params": [None, "1,1", "1,1,1,1", "0,0,0,0", "-1,1", "1,x"],
    },
    ("geometry", "verify-integral"): {
        "--s": FLOAT, "--p": ["-1", "0", "1", "2"], "--n": ["-1", "0", "1", "2"],
        "--samples": ["-1", "0", "16", "200"], "--seed": [None, "-1", "3"],
    },
    ("geometry", "jacobi"): {"--p": SMALL[:4], "--q": SMALL[:4], "--r": SMALL[:4], "--seed": [None, "-1", "5"]},
    ("geometry", "hessian"): {"--p": SMALL[:4], "--q": SMALL[:4], "--points": ["0", "1"], "--seed": [None, "3"]},
    ("geometry", "volume"): {"--p": SMALL + [HUGE], "--q": SMALL + [HUGE], "--r": SMALL + [HUGE], "--t": FLOAT},
    ("geometry", "thresholds"): {"--p": SMALL + [HUGE], "--q": SMALL + [HUGE], "--r": SMALL + [HUGE]},
}


@st.composite
def argvs(draw):
    command = draw(st.sampled_from(sorted(POOLS)))
    argv = list(command)
    for flag, pool in POOLS[command].items():
        value = draw(st.sampled_from(pool))
        if value is not None:
            argv.append(flag if value is True else f"{flag}={value}")
    return argv


class TestArgvContract:
    @given(argvs())
    @settings(max_examples=400, deadline=None, derandomize=True)
    def test_exit_codes_and_output(self, argv):
        code, out, err = call(argv)
        assert code in (0, 2, 64, 65), (argv, code)
        if code == 64:
            assert out == "" and len(err.splitlines()) == 1, argv

        def reject(constant):
            raise AssertionError(f"{argv}: {constant} in the output")

        if code in (0, 2):
            json.loads(out, parse_constant=reject)
