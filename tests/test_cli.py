import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import cremona
from cremona.cli import main

EX1_SPEC = """\
vars x1 x2 x3 x4 x5
params t1 t2 t3 t4 t5
group e=3 gen [1,2,0,0,0]
poly F = t1*x1^3 + t2*x2^3 + (t3*x3 + t4*x4 + t5*x5)*x1*x2 + x3^3 + x4^3 + x5^3
chart x5
basis [1,1,0,0; -1,2,0,0; 0,0,1,0; 0,0,0,1]
"""

FERMAT_SPEC = """\
vars x1 x2 x3 x4 x5
poly F = x1^3 + x2^3 + x3^3 + x4^3 + x5^3
prime 7
"""

CONIC_MAP_SPEC = """\
vars x1 x3
poly F = x1*x2 + x3^2
"""


@pytest.fixture
def ex1_file(tmp_path):
    f = tmp_path / "ex1.crm"
    f.write_text(EX1_SPEC)
    return str(f)


@pytest.fixture
def fermat_file(tmp_path):
    f = tmp_path / "fermat.crm"
    f.write_text(FERMAT_SPEC)
    return str(f)


class TestTransform:
    def test_quartic_printed(self, ex1_file, capsys):
        assert main(["transform", ex1_file]) == 0
        out = capsys.readouterr().out
        assert "degree = 4" in out
        assert "t1*x1^2*x5^2" in out

    def test_json_payload(self, ex1_file, capsys):
        assert main(["--json", "transform", ex1_file]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["degree"] == 4
        assert payload["q"] == "u2"
        assert payload["group"]["order"] == 3
        assert payload["chart"] == "x5"

    @pytest.mark.parametrize("argv", [["--json", "transform", "FILE"],
                                      ["transform", "FILE", "--json"],
                                      ["transform", "--json", "FILE", "--no-search"]])
    def test_json_flag_before_or_after_subcommand(self, ex1_file, capsys, argv):
        assert main([ex1_file if a == "FILE" else a for a in argv]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["chart"] == "x5"


class TestInvariants:
    def test_lattice_printed(self, ex1_file, capsys):
        assert main(["invariants", ex1_file]) == 0
        out = capsys.readouterr().out
        assert "group order: 3" in out
        assert "x1*x2" in out


class TestVerify:
    def test_smooth_scan_output(self, fermat_file, capsys):
        assert main(["verify", "smooth", fermat_file]) == 0
        out = capsys.readouterr().out
        assert "0 singular points / 2801 scanned" in out

    def test_singular_scan_exit_code(self, tmp_path, capsys):
        f = tmp_path / "cone.crm"
        f.write_text("vars x1 x2 x3 x4 x5\npoly F = x1^3 + x2^3 + x3^3\nprime 7\n")
        assert main(["verify", "smooth", str(f)]) == 1
        assert "singular points" in capsys.readouterr().out

    @pytest.mark.parametrize("argv, message", [
        (["smooth", "FERMAT", "--prime", "3"], "bad characteristic 3 for degree 3"),
        (["smooth", "FERMAT", "--prime", "1000003"], "enumeration guard exceeded"),
        (["smooth", "SKEW"], "needs a homogeneous polynomial"),
        (["map-degree", "SQUARES", "--prime", "10000019"], "enumeration guard exceeded"),
    ])
    def test_refused_scan_exit_code(self, argv, message, fermat_file, tmp_path, capsys):
        # exit 1 is a verdict (a singular point found); a scan that never ran exits 2
        files = {"FERMAT": fermat_file, "SKEW": tmp_path / "skew.crm",
                 "SQUARES": tmp_path / "sq.crm"}
        files["SKEW"].write_text("vars x1 x2 x3\npoly F = x1^3 + x2^2\nprime 7\n")
        files["SQUARES"].write_text("vars x1 x2\npoly A = x1^2\npoly B = x2^2\nmap M = A, B\n")
        assert main(["verify", *(str(files.get(a, a)) for a in argv)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and message in captured.err

    def test_identity_failure_exit_code(self, tmp_path, capsys):
        f = tmp_path / "bad.crm"
        f.write_text(
            "vars x1 x2\npoly A = x1^2\npoly B = x2^2\npoly T = x1 + x2\n"
            "map M = A, B\n")
        assert main(["verify", "identity", str(f), "--map", "M", "--target", "T"]) == 1

    def test_map_degree(self, tmp_path, capsys):
        f = tmp_path / "sq.crm"
        f.write_text("vars x1 x2\npoly A = x1^2\npoly B = x2^2\nmap M = A, B\n"
                     "prime 7\n")
        assert main(["verify", "map-degree", str(f)]) == 0
        assert "inferred degree: 2" in capsys.readouterr().out

    def test_map_degree_default_prime_embeds_declared_zeta(self, tmp_path, capsys):
        f = tmp_path / "zeta5.crm"
        f.write_text("vars x1 x2\nzeta e=5\npoly A = x1^2\npoly B = zeta*x2^2\n"
                     "map M = A, B\n")
        assert main(["--json", "verify", "map-degree", str(f)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["prime"] == 11
        assert payload["inferred_degree"] == 2

    def test_non_prime_option_is_usage_error(self, fermat_file, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "smooth", fermat_file, "--prime", "8"])
        assert exc.value.code == 2
        assert "is not a prime" in capsys.readouterr().err

    def test_prime_option_past_the_test_bound_is_usage_error(self, fermat_file, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "smooth", fermat_file, "--prime", "9" * 30])
        assert exc.value.code == 2
        assert "is not a prime below" in capsys.readouterr().err


class TestScenarios:
    def test_list_contains_registry(self, capsys):
        assert main(["list-scenarios"]) == 0
        out = capsys.readouterr().out
        for name in ("ex1_chain", "ex3_rationality", "qfano_40245", "qfano_40057",
                     "c3c3_chain", "c3cubic3_rationality", "main_parametrization",
                     "fermat_smoothness"):
            assert name in out

    def test_reproduce_single(self, capsys):
        assert main(["reproduce", "ex1_chain"]) == 0
        out = capsys.readouterr().out
        assert "scenario ex1_chain: ok" in out

    def test_reproduce_unknown(self, capsys):
        assert main(["reproduce", "nope"]) == 1

    def test_closed_stdout_exits_quietly(self):
        # the reader is gone before the first write, as with `| head -c 10`
        # on a long document: exit 1 with nothing on stderr
        read, write = os.pipe()
        os.close(read)
        env = dict(os.environ, PYTHONPATH=str(Path(cremona.__file__).parent.parent))
        try:
            proc = subprocess.run([sys.executable, "-m", "cremona", "list-scenarios"],
                                  stdout=write, stderr=subprocess.PIPE, env=env, timeout=60)
        finally:
            os.close(write)
        assert (proc.returncode, proc.stderr) == (1, b"")


class TestSearchBasis:
    def test_finds_low_degree_basis(self, tmp_path, capsys):
        f = tmp_path / "search.crm"
        f.write_text(
            "vars x1 x2 x3 x4 x5\nparams t1 t2 t3 t4 t5\n"
            "group e=3 gen [1,2,0,0,0]\n"
            "poly F = t1*x1^3 + t2*x2^3 + (t3*x3 + t4*x4 + t5*x5)*x1*x2"
            " + x3^3 + x4^3 + x5^3\nchart x5\n")
        assert main(["search-basis", str(f), "--width", "4", "--depth", "3"]) == 0
        out = capsys.readouterr().out
        # the search beats the obvious quartic model: one step to a cubic
        assert "degree = 3" in out

    @pytest.mark.parametrize("arg", ["--width=-1", "--width=0", "--depth=-1", "--depth=x"])
    def test_bad_bounds_exit_2(self, tmp_path, arg):
        # --width=-1 used to keep all but one candidate on every level and
        # ran for minutes; the timeout turns a regression into a failure
        f = tmp_path / "search.crm"
        f.write_text(EX1_SPEC.replace("basis [1,1,0,0; -1,2,0,0; 0,0,1,0; 0,0,0,1]\n", ""))
        env = dict(os.environ, PYTHONPATH=str(Path(cremona.__file__).parent.parent))
        proc = subprocess.run([sys.executable, "-m", "cremona", "search-basis", str(f), arg],
                              capture_output=True, text=True, env=env, timeout=30)
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr.startswith("usage: cremona search-basis")


class TestErrors:
    def test_parse_error_exit_code(self, tmp_path, capsys):
        f = tmp_path / "broken.crm"
        f.write_text("vars x1\npoly F = x1 +\n")
        assert main(["transform", str(f)]) == 2
        assert "parse error" in capsys.readouterr().err

    @pytest.mark.parametrize("text,where", [
        ("vars x1 x1 x2\npoly F = x1^3 + x2^3\n", "line 1, column 9"),
        ("vars x1 x2\npoly F = x1^3\npoly F = x2^3\n", "line 3, column 6"),
        ("vars x1 x2\nzeta e=0\npoly F = x1^3\n", "line 2, column 8"),
    ], ids=["variable", "poly", "zeta-order"])
    def test_refused_declaration_exit_code(self, tmp_path, capsys, text, where):
        f = tmp_path / "refused.crm"
        f.write_text(text)
        assert main(["transform", str(f)]) == 2
        assert f"parse error: {where}" in capsys.readouterr().err

    @pytest.mark.parametrize("expr", ["1/0*x1", "(x1 + x2)^-1"])
    def test_arithmetic_input_error_exit_code(self, tmp_path, capsys, expr):
        f = tmp_path / "arith.crm"
        f.write_text(f"vars x1 x2\npoly F = {expr}\n")
        assert main(["transform", str(f)]) == 2
        assert "parse error: line 2" in capsys.readouterr().err

    def test_power_over_term_budget_exit_code(self, tmp_path, capsys):
        f = tmp_path / "blowup.crm"
        f.write_text("vars x1 x2 x3 x4 x5\npoly F = (x1+x2+x3+x4+x5)^200\n")
        assert main(["transform", str(f)]) == 2
        assert "parse error: line 2, column 26" in capsys.readouterr().err

    def test_product_over_term_budget_exit_code(self, tmp_path, capsys):
        f = tmp_path / "blowup.crm"
        f.write_text("vars x1 x2 x3 x4 x5\n"
                     "poly F = (x1+x2+x3+x4+x5)^10*(x1+x2+x3+x4+x5)^10\n")
        assert main(["transform", str(f)]) == 2
        assert "parse error: line 2, column 29" in capsys.readouterr().err

    @pytest.mark.parametrize("expr", ["x1^" + "9" * 5000 + " + x2", "9" * 5000 + "*x1 + x2"],
                             ids=["exponent", "integer"])
    def test_long_integer_literal_exit_code(self, tmp_path, capsys, default_digit_limit,
                                            expr):
        f = tmp_path / "long.crm"
        f.write_text(f"vars x1 x2\npoly F = {expr}\n")
        assert main(["transform", str(f)]) == 2
        assert "parse error: line 2" in capsys.readouterr().err

    def test_engine_error_exit_code(self, tmp_path, capsys):
        f = tmp_path / "nochart.crm"
        f.write_text("vars x1 x2\ngroup e=3 gen [1,0]\npoly F = x2*x1^3\nchart x1\n")
        assert main(["transform", str(f)]) == 1
        assert "error" in capsys.readouterr().err


class TestChain:
    def test_two_files(self, tmp_path, capsys):
        a = tmp_path / "a.crm"
        a.write_text(EX1_SPEC)
        b = tmp_path / "b.crm"
        b.write_text(
            "vars x1 x2 x3 x4 x5\nchart x2\n"
            "basis [1,0,0,1; 0,1,0,0; 0,0,1,0; 0,0,0,1]\n")
        assert main(["chain", str(a), str(b)]) == 0
        out = capsys.readouterr().out
        assert "step 2" in out
        assert "accumulated quotient order: 3" in out

    def test_steps_must_chain(self, tmp_path, capsys):
        # step 1 records a trivial residual action and the image
        # x1*x3^2 + x2^3 + x3^3, which the order-3 group below also fixes
        a = tmp_path / "a.crm"
        a.write_text("vars x1 x2 x3\ngroup e=3 gen [1,0,0]\npoly F = x1^3 + x2^3 + x3^3\n"
                     "chart x3\n")
        b = tmp_path / "b.crm"
        b.write_text("vars x1 x2 x3\ngroup e=3 gen [0,1,0]\nchart x3\n")
        assert main(["chain", str(a), str(b)]) == 2
        assert "chain broken: step action differs" in capsys.readouterr().err
        b.write_text("vars x1 x2 x3\npoly G = x1^3 + x2^3 + x3^3\nchart x3\n")
        assert main(["chain", str(a), str(b)]) == 2
        assert "chain broken: step input differs" in capsys.readouterr().err
        b.write_text("vars x1 x2 x3\npoly G = x1*x3^2 + x2^3 + x3^3\nchart x3\n")
        assert main(["chain", str(a), str(b)]) == 0
        assert "accumulated quotient order: 3" in capsys.readouterr().out

    def test_group_not_fixing_the_image_breaks_the_chain(self, tmp_path, capsys):
        # x1 -> -x1 does not fix the image x1*x3^2 + x2^3 + x3^3; the link is
        # checked before the hypersurface would reject the group
        a = tmp_path / "a.crm"
        a.write_text("vars x1 x2 x3\ngroup e=3 gen [1,0,0]\npoly F = x1^3 + x2^3 + x3^3\n"
                     "chart x3\n")
        b = tmp_path / "b.crm"
        b.write_text("vars x1 x2 x3\ngroup e=2 gen [1,0,0]\nchart x3\n")
        assert main(["chain", str(a), str(b)]) == 2
        err = capsys.readouterr().err
        assert "chain broken: step action differs from recorded residual" in err
        assert "not invariant" not in err
