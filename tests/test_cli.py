"""Command-line surface: payloads, exit codes, determinism."""

import ast
import json
import os
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


class TestDependencyFree:
    """The package imports the standard library and itself only; pytest, hypothesis and sympy are for tests."""

    def test_every_absolute_import_is_in_the_standard_library(self):
        for path in sorted(PACKAGE.glob("*.py")):
            tree = ast.parse(path.read_text(), filename=str(path))
            names = [alias.name for node in ast.walk(tree) if isinstance(node, ast.Import) for alias in node.names]
            names += [node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) and not node.level]
            foreign = sorted({name for name in names if name.split(".")[0] not in sys.stdlib_module_names})
            assert not foreign, f"{path.name} imports {foreign}"
