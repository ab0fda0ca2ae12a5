import json
import math
import subprocess
import sys
import textwrap

import pytest

BASE = [sys.executable, "-m", "cohomrep"]


def run(*args, check=True):
    proc = subprocess.run(BASE + list(args), capture_output=True, text=True)
    if check:
        assert proc.returncode == 0, proc.stderr
    return proc


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

    def test_usage_error_exit(self):
        proc = run("lefschetz", "--mode", "restriction", "--G", "O:3,4",
                   "--bogus-flag", check=False)
        assert proc.returncode == 64


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
    ])
    def test_rejected_with_usage_exit(self, args):
        proc = run(*args, check=False)
        assert proc.returncode == 64, proc.stderr
        assert proc.stdout == ""
        assert len(proc.stderr.splitlines()) == 1 and "Traceback" not in proc.stderr

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
        assert proc.stdout == "" and proc.stderr == "--samples must be >= 1\n"

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
        out = self.probe("""
            import contextlib, io, sys
            from cohomrep import cli
            loaded = ["numpy" in sys.modules]
            for argv in (["catalog", "--kind", "U", "--p", "2", "--q", "2"],
                         ["geometry", "thresholds", "--p", "2", "--q", "2", "--r", "1"]):
                with contextlib.redirect_stdout(io.StringIO()):
                    assert cli.main(argv) == 0
                loaded.append("numpy" in sys.modules)
            print(loaded)
        """)
        assert out == "[False, False, True]\n"

    def test_loaded_layer_is_reused(self):
        out = self.probe("""
            from cohomrep import geometry
            from cohomrep import cli
            print(cli.geo is geometry)
        """)
        assert out == "True\n"


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
