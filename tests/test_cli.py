"""Command-line surface: payloads, exit codes, determinism."""

import ast
import json
import os
import runpy
import subprocess
import sys
import time
from pathlib import Path

import pytest

from hahn_forge import cli
from hahn_forge.cli import run_cli


def run(capsys, *argv):
    code = run_cli(list(argv))
    captured = capsys.readouterr()
    payload = json.loads(captured.out) if captured.out.strip() else None
    return code, payload, captured.out


class TestEval:
    def test_exp_example(self, capsys):
        code, payload, _ = run(capsys, "eval", "--prec", "4", "exp(x)", "--at", "t^(1)")
        assert code == 0
        assert payload == {"value": "1 + 1*t^(1) + 1/2*t^(2) + 1/6*t^(3) + O(t^(4))"}

    def test_global_flag_before_subcommand(self, capsys):
        code, payload, _ = run(capsys, "--prec", "3", "eval", "1/(1-x)", "--at", "t^(1)")
        assert code == 0
        assert payload == {"value": "1 + 1*t^(1) + 1*t^(2) + O(t^(3))"}

    def test_parse_error_exit_code(self, capsys):
        code, payload, _ = run(capsys, "eval", "exp(x", "--at", "t^(1)")
        assert code == 2 and payload is None

    def test_parser_is_reused_after_a_usage_error(self, capsys):
        valid = ("eval", "--prec", "4", "exp(x)", "--at", "t^(1)")
        _, _, alone = run(capsys, *valid)
        for bad in (("eval", "exp(x)"), ("eval", "--prec"), ("frobnicate",)):
            code, payload, _ = run(capsys, *bad)
            assert code == 2 and payload is None
            code, _, out = run(capsys, *valid)
            assert code == 0 and out == alone
        assert cli._build_parser() is cli._build_parser()

    @pytest.mark.parametrize("term, value", [
        ("x^100000000", "0 + O(t^(3))"),
        ("(1 + x)^400", "1 + 400*t^(1/7) + 400*t^(1/5) + 79800*t^(2/7) + "),
    ])
    def test_powers_cut_at_the_target_are_fast(self, capsys, term, value):
        start = time.perf_counter()
        code, payload, _ = run(capsys, "eval", "--prec", "3", term, "--at", "t^(1/7) + t^(1/5)")
        elapsed = time.perf_counter() - start
        assert code == 0 and payload["value"].startswith(value)
        assert elapsed < 1.0, f"{term} took {elapsed:.2f} s"

    def test_domain_error_is_usage(self, capsys):
        code, _, _ = run(capsys, "eval", "exp(x)", "--at", "1")
        assert code == 2


class TestAlgebraCommands:
    def test_rv(self, capsys):
        code, payload, _ = run(capsys, "rv", "--lambda", "1", "3*t^(2) + 5*t^(3) + 7*t^(4)")
        assert code == 0
        assert payload == {"rv": {"gamma": "2", "jet": "3 + 5*t^(1)"}, "lambda": "1"}

    def test_divide(self, capsys):
        code, payload, _ = run(
            capsys, "divide", "[1]*x1^2 + [-1*t^(1)]", "[1]*x1^3", "--var", "1", "--degree", "3"
        )
        assert code == 0
        assert payload == {"Q": "[1]*x1", "R": ["[0]", "[1*t^(1)]"]}

    @pytest.mark.parametrize("var", ["0", "3", "-1"])
    def test_divide_var_out_of_range_is_a_usage_error(self, capsys, var):
        code = run_cli(["divide", "[1] + [1]*x1", "[1]*x1 + [2]*x2", "--var", var])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err == f"error: --var must name one of the variables x1 to x2, got --var {var}\n"

    def test_divide_var_ranges_over_both_operands(self, capsys):
        # the dividend has two variables, so x2 is in range for a one-variable divisor
        code, payload, _ = run(capsys, "divide", "[1] + [1]*x1", "[1]*x1 + [2]*x2", "--var", "2")
        assert code == 0 and payload["R"] == []
        code = run_cli(["divide", "[1]", "[1]", "--var", "2"])
        assert code == 2 and "x1 to x1, got --var 2" in capsys.readouterr().err

    def test_split(self, capsys):
        code, payload, _ = run(capsys, "split", "[1]*x1*x2")
        assert code == 0
        assert payload["f1"] == "[1]*x2"
        assert payload["Q"] == "[1]"

    def test_hensel(self, capsys):
        code, payload, _ = run(capsys, "hensel", "--prec", "4", "1*t^(1)")
        assert code == 0
        assert payload == {"root": "-1 - 1*t^(1) - 2*t^(2) - 5*t^(3) + O(t^(4))"}

    def test_implicit(self, capsys):
        code, payload, _ = run(capsys, "implicit", "[1]*x2 + [1]*x2^2 + [-1]*x1", "--degree", "4")
        assert code == 0
        assert payload == {"r": "[1]*x1 + [-1]*x1^2 + [2]*x1^3 + [-5]*x1^4"}

    def test_roots_and_polygon(self, capsys):
        code, payload, _ = run(capsys, "polygon", "x^2 - t^(1)")
        assert code == 0
        assert payload == {"polygon": [{"slope": "1/2", "multiplicity": 2}]}
        code, payload, _ = run(capsys, "roots", "x^2 - t^(1)", "--depth", "3")
        assert code == 0
        assert len(payload["roots"]) == 2
        assert {r["branch"][0]["coeff"] for r in payload["roots"]} == {"1", "-1"}

    def test_roots_of_a_branch_of_many_terms(self, capsys):
        # each branch steps by 1/65 and takes 131 terms to reach the depth
        code, payload, _ = run(capsys, "roots", "x^2 - 1 - t^(1/65)", "--depth", "2")
        assert code == 0
        assert [r["conjugacy"] for r in payload["roots"]] == ["real", "real"]
        assert [r["branch"][-1]["exponent"] for r in payload["roots"]] == ["2", "2"]


class TestVerificationCommands:
    def test_prepare_passes(self, capsys):
        code, payload, _ = run(capsys, "prepare", "--lambda", "0", "x^2 - t^(1)", "--trials", "200")
        assert code == 0
        series = {p["series"] for p in payload["preparing_set"]["points"]}
        assert {"1*t^(1/2)", "-1*t^(1/2)", "0"} <= series
        assert payload["report"]["verdict"] == "pass"

    def test_verify_undersized_fails(self, capsys):
        code, payload, _ = run(
            capsys, "verify", "--lambda", "0", "x^2 - t^(1)", "--with-C", "0", "--trials", "400"
        )
        assert code == 1
        assert payload["report"]["verdict"] == "fail"
        assert payload["report"]["violations"]

    def test_jacobian(self, capsys):
        code, payload, _ = run(capsys, "jacobian", "x^2", "--with-C", "0", "--trials", "150")
        assert code == 0
        assert payload["report"]["verdict"] == "pass"
        assert payload["report"]["shifts"]

    @pytest.mark.parametrize("blank", ["", " ", ";", " ; "])
    def test_jacobian_prepares_when_with_c_names_no_center(self, capsys, blank):
        argv = ("jacobian", "x^2", "--trials", "20")
        prepared = run(capsys, *argv)
        assert prepared[0] == 0
        assert run(capsys, *argv, "--with-C", blank) == prepared

    @pytest.mark.parametrize("blank", ["", " ", ";", " ; "])
    def test_verify_of_a_with_c_that_names_no_center_is_a_usage_error(self, capsys, blank):
        assert run_cli(["verify", "x^2", "--with-C", blank, "--trials", "20"]) == 2
        assert capsys.readouterr() == ("", "error: the preparing set must be nonempty\n")

    def test_probe_unit(self, capsys):
        code, payload, _ = run(
            capsys,
            "probe-unit",
            "--center",
            "0",
            "--inner",
            "t^(2)",
            "--outer",
            "1",
            "--h",
            "exp",
            "--h-scale",
            "t^(1)",
            "--trials",
            "100",
        )
        assert code == 0
        assert payload["report"]["verdict"] == "pass"


class TestDeterminism:
    def test_byte_identical_reruns(self, capsys):
        argv = ["prepare", "--lambda", "1", "x^2 - t^(1)", "--seed", "5", "--trials", "120"]
        _, _, first = run(capsys, *argv)
        _, _, second = run(capsys, *argv)
        assert first == second

    def test_env_seed_override(self, capsys, monkeypatch):
        argv = ["verify", "x^2 - t^(1)", "--with-C", "0", "--seed", "1", "--trials", "60"]
        _, first, _ = run(capsys, *argv)
        monkeypatch.setenv("HAHN_FORGE_SEED", "99")
        _, second, _ = run(capsys, *argv)
        assert second["report"]["seed"] == 99
        assert first["report"]["seed"] == 1


class TestMoreSurface:
    def test_precision_error_exit_code(self, capsys):
        code, _, _ = run(capsys, "rv", "--lambda", "2", "1*t^(1) + O(t^(2))")
        assert code == 3

    def test_inv_zero_convention_flag(self, capsys):
        code, _, _ = run(capsys, "eval", "1/x", "--at", "0")
        assert code == 2
        code, payload, _ = run(capsys, "eval", "--inv-zero-is-zero", "1/x", "--at", "0")
        assert code == 0 and payload == {"value": "0"}

    @pytest.mark.parametrize("command", ["prepare", "jacobian", "verify --with-C 0", "jacobian --with-C 0"])
    def test_inv_zero_convention_reaches_preparation(self, capsys, command):
        # inv(x - x) has no value without the convention, so no sample can be checked
        argv = (*command.split(), "inv(x - x) + x", "--trials", "20")
        code, _, _ = run(capsys, *argv)
        assert code == 3
        code, payload, _ = run(capsys, *argv, "--inv-zero-is-zero")
        assert code == 0 and payload["report"]["verdict"] == "pass"

    def test_undetermined_denominator_exit_code(self, capsys):
        # a denominator known only as 0 + O(t^(2)) is precision exhaustion, not a usage error
        for text in ("inv(x)", "1/x"):
            code, _, _ = run(capsys, "eval", "--prec", "3", text, "--at", "0 + O(t^(2))")
            assert code == 3

    def test_verify_report_schema(self, capsys):
        code, payload, _ = run(capsys, "verify", "x", "--with-C", "0", "--trials", "30")
        assert code == 0
        assert list(payload["report"].keys()) == ["op", "lambda", "trials", "seed", "violations", "verdict"]


class TestRationalFlags:
    @pytest.mark.parametrize("flag, argv", [
        ("--prec", ("--prec", "1/0", "eval", "x", "--at", "t^(1)")),
        ("--lambda", ("--lambda", "1/0", "rv", "t^(1)")),
        ("--depth", ("roots", "x^2-1", "--depth", "1/0")),
    ])
    def test_zero_denominator_is_a_usage_error(self, capsys, flag, argv):
        code = run_cli(list(argv))
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err == f"error: {flag} has a zero denominator: '1/0'\n"

    def test_other_malformed_values_keep_their_message(self, capsys):
        for argv in (("--prec", "abc", "eval", "x", "--at", "t^(1)"), ("roots", "x^2-1", "--depth", "abc")):
            code = run_cli(list(argv))
            captured = capsys.readouterr()
            assert code == 2 and captured.err == "error: Invalid literal for Fraction: 'abc'\n"

    def test_lambda_is_printed_as_typed(self, capsys):
        code, payload, _ = run(capsys, "rv", "--lambda", "2/2", "3*t^(2) + 5*t^(3)")
        assert code == 0 and payload["lambda"] == "2/2"


class TestRankGate:
    RANK_ONE_ONLY = [
        ("roots", "x^2 - t^(1,0)"),
        ("prepare", "x^2 - t^(1,0)", "--trials", "20"),
        ("verify", "x^2", "--with-C", "0", "--trials", "20"),
        ("jacobian", "x^2", "--trials", "20"),
        ("probe-unit", "--center", "0", "--inner", "t^(2,0)", "--outer", "1", "--h", "exp", "--trials", "20"),
    ]

    def test_rank_one_commands_reject_a_higher_rank_up_front(self, capsys):
        for argv in self.RANK_ONE_ONLY:
            for rank in ("2", "3"):
                code = run_cli(["--rank", rank, *argv])
                captured = capsys.readouterr()
                assert code == 2 and captured.out == ""
                assert captured.err == f"error: {argv[0]} supports rank 1 only, got --rank {rank}\n"

    def test_rank_one_is_unchanged(self, capsys):
        code, payload, _ = run(capsys, "--rank", "1", "roots", "x^2 - t^(1)", "--depth", "2")
        assert code == 0 and len(payload["roots"]) == 2

    def test_higher_rank_commands_still_run(self, capsys):
        code, payload, _ = run(capsys, "--rank", "2", "polygon", "x - t^(0,1)")
        assert code == 0 and payload["polygon"][0]["slope"] == "0,1"

    # one argv per subcommand
    EVERY_COMMAND = [
        ("eval", "x", "--at", "1"),
        ("rv", "1"),
        ("divide", "[1]*x1 + [1]", "[1]"),
        ("split", "[1]*x1 + [1]"),
        ("hensel", "t^(1)"),
        ("implicit", "[1]*x1 + [1]*x2"),
        ("polygon", "x"),
        *RANK_ONE_ONLY,
    ]

    def test_rank_below_one_is_rejected_up_front(self, capsys):
        for argv in self.EVERY_COMMAND:
            for rank in ("0", "-1", "-7"):
                for line in (["--rank", rank, *argv], [*argv, "--rank", rank]):
                    code = run_cli(line)
                    captured = capsys.readouterr()
                    assert code == 2 and captured.out == ""
                    assert captured.err == f"error: the exponent rank must be at least 1, got --rank {rank}\n"


PACKAGE = Path(cli.__file__).parent


class TestOptimizedMode:
    """Every check runs under ``python -O`` too: the package has no ``assert``."""

    def test_hensel_below_the_first_term_fails_under_dash_o(self):
        code = "import sys; from hahn_forge.cli import run_cli; sys.exit(run_cli(sys.argv[1:]))"
        env = {**os.environ, "PYTHONPATH": str(PACKAGE.parent)}
        done = subprocess.run([sys.executable, "-O", "-c", code, "hensel", "--prec", "0", "1*t^(1)"],
                              capture_output=True, text=True, env=env, timeout=60)
        assert (done.returncode, done.stdout) == (3, "")
        assert done.stderr == "error: valuation of 0 + O(...) is not determined\n"

    def test_no_assert_statement_in_the_package(self):
        for path in sorted(PACKAGE.glob("*.py")):
            tree = ast.parse(path.read_text(), filename=str(path))
            found = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
            assert not found, f"{path.name} asserts at lines {found}"


class TestModuleEntry:
    def test_python_dash_m_runs_the_cli_without_warnings(self):
        env = {**os.environ, "PYTHONPATH": str(PACKAGE.parent)}
        done = subprocess.run([sys.executable, "-m", "hahn_forge", "hensel", "--prec", "2", "1*t^(1)"],
                              capture_output=True, text=True, env=env, timeout=60)
        assert (done.returncode, done.stdout) == (0, '{"root": "-1 - 1*t^(1) + O(t^(2))"}\n')
        assert "RuntimeWarning" not in done.stderr

    @pytest.mark.parametrize("argv, exit_code, out", [
        (["hensel", "--prec", "2", "1*t^(1)"], 0, '{"root": "-1 - 1*t^(1) + O(t^(2))"}\n'),
        (["roots", "exp(x)"], 2, ""),
    ])
    def test_python_dash_m_in_this_process(self, monkeypatch, capsys, argv, exit_code, out):
        # the same entry run here, where a line collector that traces this process sees __main__.py
        monkeypatch.setattr(sys, "argv", ["hahn_forge", *argv])
        with pytest.raises(SystemExit) as done:
            runpy.run_module("hahn_forge", run_name="__main__")
        assert done.value.code == exit_code
        assert capsys.readouterr().out == out


class TestProbeUnitUsage:
    ANNULUS = ("probe-unit", "--center", "0", "--inner", "1*t^(2)", "--outer", "1")

    @pytest.mark.parametrize("flag", ["--g", "--h"])
    def test_an_unregistered_function(self, capsys, flag):
        assert run_cli([*self.ANNULUS, flag, "nope"]) == 2
        assert capsys.readouterr() == ("", "error: function 'nope' is not registered\n")

    @pytest.mark.parametrize("part", ["g", "h"])
    def test_a_scale_without_its_function(self, capsys, part):
        assert run_cli([*self.ANNULUS, f"--{part}-scale", "1*t^(1)"]) == 2
        assert capsys.readouterr() == ("", f"error: --{part}-scale needs --{part}\n")

    def test_inner_radius_outside_the_outer(self, capsys):
        assert run_cli(["probe-unit", "--center", "0", "--inner", "1*t^(1)", "--outer", "1*t^(2)"]) == 2
        assert capsys.readouterr() == ("", "error: annulus needs v(inner) > v(outer)\n")


class TestCountFlags:
    """A count out of its range is a usage error, raised where the value is first used and naming it."""

    @pytest.mark.parametrize("argv, message", [
        (("verify", "x", "--with-C", "0", "--trials", "-3"), "trials must be at least 0, got trials -3"),
        (("jacobian", "x", "--with-C", "0", "--trials", "-1"), "trials must be at least 0, got trials -1"),
        (("probe-unit", "--center", "0", "--inner", "1*t^(2)", "--outer", "1", "--trials", "-1"),
         "trials must be at least 0, got trials -1"),
        (("prepare", "x^2 - t^(1)", "--budget", "0"), "budget must be at least 1, got budget 0"),
        (("divide", "[-1*t^(1)] + [1]*x1", "[1]*x1^2", "--degree", "-1"), "d_out must be at least 0, got d_out -1"),
        (("implicit", "[1]*x2 + [-1]*x1", "--degree", "-1"), "d_out must be at least 0, got d_out -1"),
    ])
    def test_rejected_with_its_value(self, capsys, argv, message):
        assert run_cli(list(argv)) == 2
        assert capsys.readouterr() == ("", f"error: {message}\n")

    def test_the_bounds_themselves_run(self, capsys):
        assert run_cli(["verify", "x", "--with-C", "0", "--trials", "0"]) == 3
        assert run_cli(["prepare", "x^2 - t^(1)", "--budget", "1", "--trials", "20"]) == 0
        assert run_cli(["divide", "[-1*t^(1)] + [1]*x1", "[1]*x1^2", "--degree", "0", "--prec", "3"]) == 0
        capsys.readouterr()


class TestValuesThatStartWithAMinus:
    """A word that names no option is a value, even when it starts with ``-``: each form prints what its
    ``=`` form, or its ``--`` form for a positional, prints, with the same exit code."""

    PROBE = ("--inner", "t^(2)", "--outer", "1", "--h", "exp", "--h-scale", "t^(1)", "--trials", "20")

    @pytest.mark.parametrize("argv, same", [
        (("eval", "--prec", "3", "x", "--at", "-1*t^(1)"), ("eval", "--prec", "3", "x", "--at=-1*t^(1)")),
        (("eval", "x", "--at", "-1/2*t^(-3/2) + 1"), ("eval", "x", "--at=-1/2*t^(-3/2) + 1")),
        (("rv", "-1*t^(1)"), ("rv", "--", "-1*t^(1)")),
        (("--lambda", "1", "rv", "-3*t^(1/2)+t^(1)"), ("--lambda", "1", "rv", "--", "-3*t^(1/2)+t^(1)")),
        (("eval", "-x", "--at", "1"), ("eval", "--at", "1", "--", "-x")),
        (("eval", "x", "--prec", "-1/2", "--at", "1"), ("eval", "x", "--prec=-1/2", "--at", "1")),
        (("--prec", "-3/2", "eval", "x", "--at", "1"), ("--prec=-3/2", "eval", "x", "--at", "1")),
        (("probe-unit", "--center", "-2*t^(1/2)", *PROBE), ("probe-unit", "--center=-2*t^(1/2)", *PROBE)),
        (("probe-unit", "--center", "0", "--inner", "-1*t^(3/2)", *PROBE[2:]),
         ("probe-unit", "--center", "0", "--inner=-1*t^(3/2)", *PROBE[2:])),
    ])
    def test_prints_what_its_equals_form_prints(self, capsys, argv, same):
        code, _, out = run(capsys, *argv)
        assert out and (code, out) == run(capsys, *same)[::2]

    @pytest.mark.parametrize("argv, message", [
        (("eval", "x", "--bogus", "--at", "1"), "unrecognized arguments: --bogus"),
        (("eval", "x"), "the following arguments are required: --at"),
        (("eval", "x", "--at"), "argument --at: expected one argument"),
    ])
    def test_a_usage_error_names_no_text_position(self, capsys, argv, message):
        assert run_cli(list(argv)) == 2
        assert capsys.readouterr() == ("", f"error: {message}\n")

    def test_either_form_of_the_option_lookup(self, monkeypatch):
        # argparse looks an option up as one (action, option, value) tuple, newer versions as a list of them
        plain = cli.argparse.ArgumentParser._parse_optional
        monkeypatch.setattr(cli.argparse.ArgumentParser, "_parse_optional",
                            lambda self, arg: None if (found := plain(self, arg)) is None else [(*found, None)])
        parser = cli._build_parser()
        assert parser._parse_optional("-1*t^(1)") is None and parser._parse_optional("-1/2") is None
        assert parser._parse_optional("--prec")[0][1] == "--prec"

    def test_dash_h_still_prints_the_help(self, capsys):
        with pytest.raises(SystemExit) as done:
            run_cli(["eval", "-h"])
        assert done.value.code == 0 and "--at AT" in capsys.readouterr().out


class TestDependencyFree:
    """The package imports the standard library and itself only; pytest, hypothesis and sympy are for tests."""

    def test_every_absolute_import_is_in_the_standard_library(self):
        for path in sorted(PACKAGE.glob("*.py")):
            tree = ast.parse(path.read_text(), filename=str(path))
            names = [alias.name for node in ast.walk(tree) if isinstance(node, ast.Import) for alias in node.names]
            names += [node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) and not node.level]
            foreign = sorted({name for name in names if name.split(".")[0] not in sys.stdlib_module_names})
            assert not foreign, f"{path.name} imports {foreign}"
