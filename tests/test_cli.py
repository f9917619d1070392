import json
import os
import subprocess

import pytest

from cremona.cli import main
from cremona.lang import parse_input
from cremona.poly import BudgetError
from helpers_bounded import bounded_python

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

    def test_chart_moved_by_the_group(self, tmp_path, capsys):
        # x1 has weight 1 under the first generator, and 3 * 1 = 0 mod 3
        f = tmp_path / "c3c3.crm"
        f.write_text("vars x1 x2 x3 x4 x5\ngroup e=3 gen [1,0,2,0,0]\n"
                     "group e=3 gen [0,1,2,2,0]\n"
                     "poly F = x1^3 + x2^3 + x3^3 + x4^3 + x5^3 + x1*x2*x3 + x2*x4*x5\n"
                     "chart x1\n")
        assert main(["--json", "transform", str(f)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["chart"] == "x1" and payload["group_order"] == 9


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
        (["identity", "SHORT", "--map", "M", "--target", "F"],
         "map has 2 components, target expects 3"),
        (["map-degree", "SHORT", "--prime", "7"], "cannot be generically finite"),
        (["smooth", "PARAMS"], "must be specialized"),
        (["map-degree", "PARAMS", "--map", "M"], "must be specialized"),
        (["smooth", "SEVENTHS"], "coefficient 3/7 has no residue mod 7"),
        (["smooth", "SEVENTHS", "--prime", "7"], "coefficient 3/7 has no residue mod 7"),
        (["map-degree", "ZETA5"], "coefficient zeta has no residue mod 7"),
    ])
    def test_refused_scan_exit_code(self, argv, message, fermat_file, tmp_path, capsys):
        # exit 1 is a verdict (a singular point found); a scan that never ran exits 2
        files = {"FERMAT": fermat_file, "SKEW": tmp_path / "skew.crm",
                 "SQUARES": tmp_path / "sq.crm", "SHORT": tmp_path / "short.crm",
                 "PARAMS": tmp_path / "params.crm", "SEVENTHS": tmp_path / "sevenths.crm",
                 "ZETA5": tmp_path / "zeta5.crm"}
        files["PARAMS"].write_text("vars x1 x2 x3\nparams t1\npoly F = t1*x1^3 + x2^3 + x3^3\n"
                                   "poly A = t1*x1^2\npoly B = x2^2\npoly C = x3^2\n"
                                   "map M = A, B, C\nprime 7\n")
        # the default prime 7 divides a denominator; F_7* has no element of order 5
        files["SEVENTHS"].write_text("vars x1 x2 x3\npoly F = 1/7*x1^3 + x2^3 + x3^3\n")
        files["ZETA5"].write_text("vars x1 x2 x3\nzeta e=5\npoly A = x1^2\npoly B = zeta*x2^2\n"
                                  "poly C = x3^2\nmap M = A, B, C\nprime 7\n")
        files["SKEW"].write_text("vars x1 x2 x3\npoly F = x1^3 + x2^2\nprime 7\n")
        files["SQUARES"].write_text("vars x1 x2\npoly A = x1^2\npoly B = x2^2\nmap M = A, B\n")
        files["SHORT"].write_text("vars x1 x2 x3\npoly A = x1\npoly F = x1^3 + x2^3 + x3^3\n"
                                  "map M = A, A\n")
        assert main(["verify", *(str(files.get(a, a)) for a in argv)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and message in captured.err

    def test_rational_cyclotomic_coefficient_reduces(self, tmp_path, capsys):
        # zeta*zeta^4 = 1 needs no 5th root of unity in F_7, where zeta does
        f = tmp_path / "zeta5.crm"
        f.write_text("vars x1 x2 x3\nzeta e=5\npoly A = x1^2\npoly B = zeta*zeta^4*x2^2\n"
                     "poly C = x3^2\nmap M = A, B, C\nprime 7\n")
        assert main(["verify", "map-degree", str(f)]) == 0
        captured = capsys.readouterr()
        assert captured.err == "" and "inferred degree: 4" in captured.out

    def test_identity_failure_exit_code(self, tmp_path, capsys):
        f = tmp_path / "bad.crm"
        f.write_text(
            "vars x1 x2\npoly A = x1^2\npoly B = x2^2\npoly T = x1 + x2\n"
            "map M = A, B\n")
        assert main(["verify", "identity", str(f), "--map", "M", "--target", "T"]) == 1

    @pytest.mark.parametrize("variables, comps, target, budget", [
        # the composite A*(A + B) would hold 10,301 terms
        ("x1 x2 x3", ("(x1 + x3)^100", "(x2 + x3)^100 - x3^100", "x3^100"),
         "x1^2 + x1*x2", "10301 terms, over the budget of 10000"),
        # the composite needs A^3 of a 462-term A, whose ladder is over the
        # work budget; the inner sum of A and B is not
        ("x1 x2 x3 x4 x5", ("(x1 + x2 + x3 + x4 + x5)^6", "x1^6 + x2^6", "x3^6", "x4^6",
                            "x5^6"), "x1^4 + x1^3*x2", "budget of 3000000")],
        ids=["terms", "work"])
    def test_false_identity_past_a_budget_is_answered(self, tmp_path, capsys, variables,
                                                       comps, target, budget):
        # on_variety decides at the expansion's inner sum, so an identity
        # fails (exit 1) although its composite is over a budget, as
        # substitute still says
        names = [f"P{i}" for i in range(len(comps))]
        f = tmp_path / "budget.crm"
        f.write_text(f"vars {variables}\npoly T = {target}\n"
                     + "".join(f"poly {n} = {c}\n" for n, c in zip(names, comps))
                     + f"map M = {', '.join(names)}\n")
        assert main(["verify", "identity", str(f), "--map", "M", "--target", "T"]) == 1
        assert capsys.readouterr().out == "identity FAILS\n"
        spec = parse_input(f.read_text())
        images = dict(zip(spec.variables, (spec.polys[n] for n in names)))
        with pytest.raises(BudgetError, match=budget):
            spec.polys["T"].substitute(images)

    @pytest.mark.parametrize("text, args", [
        # 3^(10^8) in a monomial image's fold: still running after 100 s
        ("vars x1 x2\npoly F = x1^100000000 - x2^100000000\npoly P1 = 3*x1\n"
         "poly P2 = x2\nmap M = P1, P2\n", ["identity", "--map", "M", "--target", "F"]),
        # (x1 + zeta*x2)^(10^6) over Q(zeta3): 28 s before the budget refused it
        ("vars x1 x2\nzeta e=3\npoly F = x1^1000000 - x2^1000000\npoly P1 = x1 + zeta*x2\n"
         "poly P2 = x2\nmap M = P1, P2\n", ["identity", "--map", "M", "--target", "F"]),
        # the default prime for e = 1000003: 80 s and 2.6 GB to walk to it
        ("vars x1 x2 x3\ngroup e=1000003 gen [1,1000002,0]\npoly F = x1*x2*x3 + x3^3\n",
         ["smooth"])],
        ids=["identity-over-Q", "identity-over-Q(zeta3)", "smooth-default-prime"])
    def test_unbounded_check_exits_2_within_a_second(self, tmp_path, text, args):
        # each is refused with exit 2 in under a second of main(), in a
        # bounded interpreter: the identities over the bit budget, the scan
        # by the enumeration guard at the default prime
        f = tmp_path / "probe.crm"
        f.write_text(text)
        code = ("import sys, time\n"
                "from cremona.cli import main\n"
                "t0 = time.perf_counter()\n"
                "code = main(sys.argv[1:])\n"
                "print(code, time.perf_counter() - t0 < 1)\n")
        done = bounded_python(["-c", code, "verify", args[0], str(f), *args[1:]])
        assert done.stdout.splitlines() == ["2 True"], done.stderr
        if args[0] == "identity":
            assert "bits" in done.stderr and "budget" in done.stderr
        else:
            assert "enumeration guard exceeded" in done.stderr

    def test_identity_of_a_linear_model(self, tmp_path, capsys):
        # F = x1*A + B over Q(zeta3) and its linear model x1 -> -B, x_j ->
        # x_j*A; the twin T adds one term, which the model does not kill
        f = tmp_path / "model.crm"
        f.write_text(
            "vars x1 x2 x3 x4\nzeta e=3\n"
            "poly F = x1*(x2^2 + zeta*x3*x4 - 2*x4^2)"
            " + zeta^2*x2^3 - x3^3 + (1 + zeta)*x2*x3*x4 + 1/2*x4^3\n"
            "poly T = x1*(x2^2 + zeta*x3*x4 - 2*x4^2)"
            " + zeta^2*x2^3 - x3^3 + (1 + zeta)*x2*x3*x4 + 1/2*x4^3 + zeta*x1*x2*x3\n"
            "poly P1 = -1*(zeta^2*x2^3 - x3^3 + (1 + zeta)*x2*x3*x4 + 1/2*x4^3)\n"
            "poly P2 = x2*(x2^2 + zeta*x3*x4 - 2*x4^2)\n"
            "poly P3 = x3*(x2^2 + zeta*x3*x4 - 2*x4^2)\n"
            "poly P4 = x4*(x2^2 + zeta*x3*x4 - 2*x4^2)\n"
            "map M = P1, P2, P3, P4\n")
        assert main(["verify", "identity", str(f), "--map", "M", "--target", "F"]) == 0
        assert capsys.readouterr().out == "identity holds\n"
        assert main(["verify", "identity", str(f), "--map", "M", "--target", "T"]) == 1
        assert capsys.readouterr().out == "identity FAILS\n"

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
        try:
            proc = bounded_python(["-m", "cremona", "list-scenarios"], seconds=60,
                                  stdout=write, stderr=subprocess.PIPE, text=False)
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
        proc = bounded_python(["-m", "cremona", "search-basis", str(f), arg])
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
        ("vars x1\nvars x1 x2\npoly F = x1^3 + x2^3\n", "line 2, column 1"),
        ("vars x1 zeta\npoly F = x1^3\n", "line 1, column 9"),
        ("", "line 1, column 1: no vars line"),
        ("# only a comment\n\n", "line 1, column 1: no vars line"),
        ("params t1\nzeta e=3\nprime 7\n", "line 1, column 1: no vars line"),
        ("prime 7\npoly F = x1^3\n", "line 2, column 1: no vars line"),
    ], ids=["variable", "poly", "zeta-order", "repeated-vars", "zeta-variable",
            "no-vars-empty", "no-vars-comments", "no-vars-declarations", "no-vars-poly"])
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
        err = capsys.readouterr().err
        assert "error" in err and "F / x1^4 is not invariant" in err


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

    def test_trivial_group_spelled_out_continues_the_chain(self, tmp_path, capsys):
        # the recorded residual is the trivial action with no generators; a
        # generator of weight 0 everywhere, or a scalar one, presents the
        # same projective group
        a = tmp_path / "a.crm"
        a.write_text("vars x1 x2 x3\ngroup e=3 gen [1,2,0]\npoly F = x1^3 + x2^3 + x3^3\n")
        b = tmp_path / "b.crm"
        for row in ("0,0,0", "1,1,1"):
            b.write_text(f"vars x1 x2 x3\ngroup e=3 gen [{row}]\n")
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
